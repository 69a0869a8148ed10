//! Wire format: a small, explicit binary encoding for PRISM's messages.
//!
//! No general serialization framework is used on the wire — every message
//! the protocol can send is enumerated here with a hand-written encoding
//! (tag byte + length-prefixed fields), so the byte counts the transports
//! meter are exact and the format is trivially stable across versions of
//! any third-party crate.
//!
//! The payload *types* come from `prism_protocol::engine` — the wire
//! carries the engine's own [`Column`], [`Op`] and [`BatchQuery`] values,
//! so the networked cluster cannot drift from the in-memory one: both
//! speak the engine's vocabulary, this module only spells it in bytes.

use bytes::{Buf, BufMut, BytesMut};
use prism_core::wide::WideVec;
use prism_protocol::engine::{
    AnnouncerCmd, AnnouncerReply, BatchItem, BatchQuery, ColumnCut, Held,
};
use prism_protocol::malicious::{AnnouncerTamper, Tamper};
use prism_protocol::max::{BlindedMaxUpload, MaxAnnouncement};
use prism_protocol::median::MedianAnnouncement;
use prism_protocol::pool;

pub use prism_protocol::engine::Column;
pub use prism_protocol::engine::QueryOp as Op;

/// Wire decoding errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// Buffer ended mid-message.
    Truncated,
    /// Unknown tag byte.
    BadTag(u8),
    /// Fields decoded but violate a length invariant (e.g. a wide matrix
    /// whose limb count is not a multiple of its width).
    Malformed(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated message"),
            WireError::BadTag(t) => write!(f, "unknown tag {t}"),
            WireError::Malformed(why) => write!(f, "malformed message: {why}"),
        }
    }
}

impl std::error::Error for WireError {}

/// What a remotely attaching connection wants to be, carried by
/// [`Message::Register`]. One announcer process registers three
/// connections: a control edge plus one upload edge per additive server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeRole {
    /// A shard worker serving one row range of a server domain.
    ShardWorker,
    /// The announcer's owner↔announcer control edge.
    AnnouncerCtl,
    /// A server→announcer wide-round upload edge (`domain` names the
    /// additive server it carries uploads from).
    AnnouncerUpload,
}

fn need(buf: &mut &[u8]) -> Result<u8, WireError> {
    if !buf.has_remaining() {
        return Err(WireError::Truncated);
    }
    Ok(buf.get_u8())
}

fn need_u32(buf: &mut &[u8]) -> Result<u32, WireError> {
    if buf.remaining() < 4 {
        return Err(WireError::Truncated);
    }
    Ok(buf.get_u32_le())
}

fn need_u64(buf: &mut &[u8]) -> Result<u64, WireError> {
    if buf.remaining() < 8 {
        return Err(WireError::Truncated);
    }
    Ok(buf.get_u64_le())
}

fn encode_column(column: &Column, buf: &mut impl Sink) {
    match column {
        Column::Ok => buf.put_u8(0),
        Column::VOk => buf.put_u8(1),
        Column::OkDb1 => buf.put_u8(2),
        Column::OkDb2 => buf.put_u8(3),
        Column::Agg(a) => {
            buf.put_u8(4);
            buf.put_u8(*a);
        }
        Column::VAgg(a) => {
            buf.put_u8(5);
            buf.put_u8(*a);
        }
        Column::AOk => buf.put_u8(6),
    }
}

fn decode_column(buf: &mut &[u8]) -> Result<Column, WireError> {
    Ok(match need(buf)? {
        0 => Column::Ok,
        1 => Column::VOk,
        2 => Column::OkDb1,
        3 => Column::OkDb2,
        4 => Column::Agg(need(buf)?),
        5 => Column::VAgg(need(buf)?),
        6 => Column::AOk,
        t => return Err(WireError::BadTag(t)),
    })
}

fn encode_op(op: &Op, buf: &mut impl Sink) {
    match op {
        Op::Psi => buf.put_u8(0),
        Op::PsiVerify => buf.put_u8(1),
        Op::Psu => buf.put_u8(2),
        Op::PsuVerify(c) => {
            buf.put_u8(3);
            buf.put_u8(*c);
        }
        Op::Count => buf.put_u8(4),
        Op::CountVerify(c) => {
            buf.put_u8(5);
            buf.put_u8(*c);
        }
        Op::Sum(a) => {
            buf.put_u8(6);
            buf.put_u8(*a);
        }
        Op::SumVerify(a) => {
            buf.put_u8(7);
            buf.put_u8(*a);
        }
        Op::SumCounts => buf.put_u8(8),
        Op::CountVerifyComplement => buf.put_u8(9),
    }
}

fn decode_op(buf: &mut &[u8]) -> Result<Op, WireError> {
    Ok(match need(buf)? {
        0 => Op::Psi,
        1 => Op::PsiVerify,
        2 => Op::Psu,
        3 => Op::PsuVerify(need(buf)?),
        4 => Op::Count,
        5 => Op::CountVerify(need(buf)?),
        6 => Op::Sum(need(buf)?),
        7 => Op::SumVerify(need(buf)?),
        8 => Op::SumCounts,
        9 => Op::CountVerifyComplement,
        t => return Err(WireError::BadTag(t)),
    })
}

fn encode_tamper(t: &Tamper, buf: &mut impl Sink) {
    match *t {
        Tamper::Honest => buf.put_u8(0),
        Tamper::SkipReplay { src } => {
            buf.put_u8(1);
            buf.put_u64_le(src as u64);
        }
        Tamper::ReplaceCell { src, dst } => {
            buf.put_u8(2);
            buf.put_u64_le(src as u64);
            buf.put_u64_le(dst as u64);
        }
        Tamper::InjectFake { cell, seed } => {
            buf.put_u8(3);
            buf.put_u64_le(cell as u64);
            buf.put_u64_le(seed);
        }
        Tamper::TruncateFrom { from } => {
            buf.put_u8(4);
            buf.put_u64_le(from as u64);
        }
    }
}

fn decode_tamper(buf: &mut &[u8]) -> Result<Tamper, WireError> {
    Ok(match need(buf)? {
        0 => Tamper::Honest,
        1 => Tamper::SkipReplay {
            src: need_u64(buf)? as usize,
        },
        2 => Tamper::ReplaceCell {
            src: need_u64(buf)? as usize,
            dst: need_u64(buf)? as usize,
        },
        3 => Tamper::InjectFake {
            cell: need_u64(buf)? as usize,
            seed: need_u64(buf)?,
        },
        4 => Tamper::TruncateFrom {
            from: need_u64(buf)? as usize,
        },
        t => return Err(WireError::BadTag(t)),
    })
}

/// Where the one encoder writes: a frame buffer; [`Count`], which only
/// adds up the bytes — how [`Message::encoded_len`] is derived, so a
/// message's length is spelled once, by the code that writes it; or
/// [`FirstByte`], which keeps only the tag ([`Message::wire_tag`]).
trait Sink: BufMut {
    /// Append `data`'s values little-endian (no length prefix).
    fn put_u64s(&mut self, data: &[u64]);
}

/// Values converted per `put_slice` in [`Sink::put_u64s`]: a 4 KiB stack
/// block.
const PUT_VEC_BLOCK: usize = 512;

impl Sink for BytesMut {
    fn put_u64s(&mut self, data: &[u64]) {
        self.reserve(data.len() * 8);
        // Convert a block of values on the stack, then append it whole:
        // one capacity check and one copy per block instead of per value.
        let mut block = [0u8; PUT_VEC_BLOCK * 8];
        for values in data.chunks(PUT_VEC_BLOCK) {
            let bytes = &mut block[..values.len() * 8];
            for (dst, v) in bytes.chunks_exact_mut(8).zip(values) {
                dst.copy_from_slice(&v.to_le_bytes());
            }
            self.put_slice(bytes);
        }
    }
}

/// A [`Sink`] that counts the bytes it is given.
struct Count(usize);

impl BufMut for Count {
    fn put_slice(&mut self, src: &[u8]) {
        self.0 += src.len();
    }
}

impl Sink for Count {
    fn put_u64s(&mut self, data: &[u64]) {
        self.0 += data.len() * 8;
    }
}

/// A [`Sink`] that keeps only the first byte it is given.
struct FirstByte(Option<u8>);

impl BufMut for FirstByte {
    fn put_slice(&mut self, src: &[u8]) {
        if self.0.is_none() {
            self.0 = src.first().copied();
        }
    }
}

impl Sink for FirstByte {
    fn put_u64s(&mut self, _: &[u64]) {}
}

fn put_vec(buf: &mut impl Sink, data: &[u64]) {
    buf.put_u64_le(data.len() as u64);
    buf.put_u64s(data);
}

/// The row-buffer pool the decoder draws from lives in
/// [`prism_protocol::pool`], shared with every other layer of the process.
pub use prism_protocol::pool::{
    recycle_vec, recycle_vecs, vec_pool_stats, VEC_POOL_MAX_BUFFER_BYTES, VEC_POOL_MAX_TOTAL_BYTES,
};

fn get_vec(buf: &mut &[u8]) -> Result<Vec<u64>, WireError> {
    if buf.remaining() < 8 {
        return Err(WireError::Truncated);
    }
    let len = buf.get_u64_le() as usize;
    let nbytes = len.saturating_mul(8);
    if buf.remaining() < nbytes {
        return Err(WireError::Truncated);
    }
    // Length is validated above, so the payload can be split off as one
    // borrowed slice and bulk-converted — no per-element cursor stepping,
    // and the target buffer comes from the recycle pool when warm.
    let (rows, rest) = buf.split_at(nbytes);
    let mut out = pool::take_empty(len);
    out.extend(
        rows.chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk"))),
    );
    *buf = rest;
    Ok(out)
}

fn put_vecs(buf: &mut impl Sink, data: &[Vec<u64>]) {
    buf.put_u32_le(data.len() as u32);
    for v in data {
        put_vec(buf, v);
    }
}

fn get_vecs(buf: &mut &[u8]) -> Result<Vec<Vec<u64>>, WireError> {
    let n = need_u32(buf)? as usize;
    let mut out = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        out.push(get_vec(buf)?);
    }
    Ok(out)
}

/// Wide matrices ship as `width ‖ limbs`; the row count is implied
/// (`limbs / width`), so the decoder *checks* divisibility rather than
/// trusting a redundant field.
fn put_widevec(buf: &mut impl Sink, wv: &WideVec) {
    buf.put_u32_le(wv.width as u32);
    put_vec(buf, &wv.data);
}

fn get_widevec(buf: &mut &[u8]) -> Result<WideVec, WireError> {
    let width = need_u32(buf)? as usize;
    let data = get_vec(buf)?;
    check_widevec(width, data.len())?;
    Ok(WideVec { width, data })
}

/// The wide-matrix length invariant the decoder enforces.
fn check_widevec(width: usize, limbs: usize) -> Result<(), WireError> {
    if width == 0 && limbs != 0 {
        return Err(WireError::Malformed("wide matrix with zero width"));
    }
    if width != 0 && limbs % width != 0 {
        return Err(WireError::Malformed(
            "wide matrix limb count not a multiple of its width",
        ));
    }
    Ok(())
}

/// [`check_widevec`] over both of an announcement's matrices.
fn check_announcement(a: &MaxAnnouncement) -> Result<(), WireError> {
    check_widevec(a.max_shares_1.width, a.max_shares_1.data.len())?;
    check_widevec(a.max_shares_2.width, a.max_shares_2.data.len())
}

fn put_announcement(buf: &mut impl Sink, a: &MaxAnnouncement) {
    put_widevec(buf, &a.max_shares_1);
    put_widevec(buf, &a.max_shares_2);
    buf.put_u64_le(a.index_shares.len() as u64);
    for &(x, y) in &a.index_shares {
        buf.put_u64_le(x);
        buf.put_u64_le(y);
    }
}

fn get_announcement(buf: &mut &[u8]) -> Result<MaxAnnouncement, WireError> {
    let max_shares_1 = get_widevec(buf)?;
    let max_shares_2 = get_widevec(buf)?;
    let n = need_u64(buf)? as usize;
    if buf.remaining() < n.saturating_mul(16) {
        return Err(WireError::Truncated);
    }
    let mut index_shares = Vec::with_capacity(n);
    for _ in 0..n {
        index_shares.push((need_u64(buf)?, need_u64(buf)?));
    }
    Ok(MaxAnnouncement {
        max_shares_1,
        max_shares_2,
        index_shares,
    })
}

fn encode_announcer_reply(reply: &AnnouncerReply, buf: &mut impl Sink) {
    match reply {
        AnnouncerReply::Max(a) => {
            buf.put_u8(0);
            put_announcement(buf, a);
        }
        AnnouncerReply::Median(m) => {
            buf.put_u8(1);
            buf.put_u32_le(m.middles.len() as u32);
            for a in &m.middles {
                put_announcement(buf, a);
            }
        }
    }
}

fn decode_announcer_reply(buf: &mut &[u8]) -> Result<AnnouncerReply, WireError> {
    Ok(match need(buf)? {
        0 => AnnouncerReply::Max(get_announcement(buf)?),
        1 => {
            let n = need_u32(buf)? as usize;
            let mut middles = Vec::with_capacity(n.min(16));
            for _ in 0..n {
                middles.push(get_announcement(buf)?);
            }
            AnnouncerReply::Median(MedianAnnouncement { middles })
        }
        t => return Err(WireError::BadTag(t)),
    })
}

fn encode_announcer_tamper(t: &AnnouncerTamper, buf: &mut impl Sink) {
    match *t {
        AnnouncerTamper::Honest => buf.put_u8(0),
        AnnouncerTamper::AnnounceSlot(slot) => {
            buf.put_u8(1);
            buf.put_u64_le(slot as u64);
        }
        AnnouncerTamper::FakeValue { seed } => {
            buf.put_u8(2);
            buf.put_u64_le(seed);
        }
    }
}

fn decode_announcer_tamper(buf: &mut &[u8]) -> Result<AnnouncerTamper, WireError> {
    Ok(match need(buf)? {
        0 => AnnouncerTamper::Honest,
        1 => AnnouncerTamper::AnnounceSlot(need_u64(buf)? as usize),
        2 => AnnouncerTamper::FakeValue {
            seed: need_u64(buf)?,
        },
        t => return Err(WireError::BadTag(t)),
    })
}

/// Permutation extensions ship as raw destination maps (`u32` per row,
/// length-prefixed) — the receiving node validates them through
/// `Permutation::from_map`, so the wire only carries bytes.
fn put_map(buf: &mut impl Sink, map: &[u32]) {
    buf.put_u32_le(map.len() as u32);
    for &d in map {
        buf.put_u32_le(d);
    }
}

fn get_map(buf: &mut &[u8]) -> Result<Vec<u32>, WireError> {
    let n = need_u32(buf)? as usize;
    if buf.remaining() < n.saturating_mul(4) {
        return Err(WireError::Truncated);
    }
    (0..n).map(|_| need_u32(buf)).collect()
}

/// An upload's `(column, shares)` list: count, then each column tag and
/// its length-prefixed values.
fn put_columns(buf: &mut impl Sink, columns: &[(Column, Vec<u64>)]) {
    buf.put_u32_le(columns.len() as u32);
    for (column, data) in columns {
        encode_column(column, buf);
        put_vec(buf, data);
    }
}

fn get_columns(buf: &mut &[u8]) -> Result<Vec<(Column, Vec<u64>)>, WireError> {
    let n = need_u32(buf)? as usize;
    let mut columns = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let column = decode_column(buf)?;
        columns.push((column, get_vec(buf)?));
    }
    Ok(columns)
}

/// A restore's column cuts: count, then each column tag, its
/// length-prefixed slice of the sum, and its `u32`-counted owner records
/// (`rows`, `epoch`: two `u64`s each).
fn put_cuts(buf: &mut impl Sink, cuts: &[ColumnCut]) {
    buf.put_u32_le(cuts.len() as u32);
    for cut in cuts {
        encode_column(&cut.column, buf);
        put_vec(buf, &cut.summed);
        buf.put_u32_le(cut.held.len() as u32);
        for held in &cut.held {
            buf.put_u64_le(held.rows as u64);
            buf.put_u64_le(held.epoch);
        }
    }
}

fn get_cuts(buf: &mut &[u8]) -> Result<Vec<ColumnCut>, WireError> {
    let n = need_u32(buf)? as usize;
    let mut cuts = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let column = decode_column(buf)?;
        let summed = get_vec(buf)?;
        // A count the frame cannot carry is refused before any allocation.
        let owners = need_u32(buf)? as usize;
        if buf.remaining() < owners.saturating_mul(16) {
            return Err(WireError::Truncated);
        }
        let mut held = Vec::with_capacity(owners);
        for _ in 0..owners {
            let rows = need_u64(buf)? as usize;
            held.push(Held {
                rows,
                epoch: need_u64(buf)?,
            });
        }
        cuts.push(ColumnCut {
            column,
            summed,
            held,
        });
    }
    Ok(cuts)
}

/// A refusal's reason: UTF-8 bytes behind a `u32` length.
fn put_text(buf: &mut impl Sink, text: &str) {
    buf.put_u32_le(text.len() as u32);
    buf.put_slice(text.as_bytes());
}

fn get_text(buf: &mut &[u8]) -> Result<String, WireError> {
    let n = need_u32(buf)? as usize;
    let bytes = buf.get(..n).ok_or(WireError::Truncated)?;
    let text = std::str::from_utf8(bytes)
        .map_err(|_| WireError::Malformed("refusal reason is not UTF-8"))?
        .to_owned();
    buf.advance(n);
    Ok(text)
}

fn encode_batch(batch: &BatchQuery, buf: &mut impl Sink) {
    buf.put_u32_le(batch.threads);
    match batch.range {
        None => buf.put_u8(0),
        Some((start, len)) => {
            buf.put_u8(1);
            buf.put_u64_le(start);
            buf.put_u64_le(len);
        }
    }
    put_vecs(buf, &batch.zs);
    buf.put_u32_le(batch.items.len() as u32);
    for item in &batch.items {
        encode_op(&item.op, buf);
        match item.z {
            None => buf.put_u8(0),
            Some(i) => {
                buf.put_u8(1);
                buf.put_u8(i);
            }
        }
    }
}

fn decode_batch(buf: &mut &[u8]) -> Result<BatchQuery, WireError> {
    let threads = need_u32(buf)?;
    let range = match need(buf)? {
        0 => None,
        1 => Some((need_u64(buf)?, need_u64(buf)?)),
        t => return Err(WireError::BadTag(t)),
    };
    let zs = get_vecs(buf)?;
    let n = need_u32(buf)? as usize;
    let mut items = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let op = decode_op(buf)?;
        let z = match need(buf)? {
            0 => None,
            1 => Some(need(buf)?),
            t => return Err(WireError::BadTag(t)),
        };
        items.push(BatchItem { op, z });
    }
    Ok(BatchQuery {
        zs,
        items,
        threads,
        range,
    })
}

/// Every message that can cross a PRISM link.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// Phase 1: put any number of one owner's share columns at one server
    /// in a single round-trip (the upload-side mirror of
    /// [`Message::RunBatch`]) — usually the owner's whole per-server
    /// table. Answered with [`Message::Ack`], or [`Message::Refused`]
    /// when the owner already holds rows of a column.
    BulkUpload {
        /// Owner index.
        owner: u32,
        /// `(column, share values)` pairs, stored in order.
        columns: Vec<(Column, Vec<u64>)>,
    },
    /// Registry → worker, during a heal: restore the worker's whole row
    /// range into its freshly rebuilt store in one write
    /// (`ServerNode::restore`) — per column, the range's slice of the
    /// owners' sum and each owner's rows and fold epoch, so an update
    /// already folded in is refused if it arrives again. Answered with
    /// [`Message::Ack`], or [`Message::Refused`] when the store was
    /// written before or a column is malformed.
    Replay {
        /// The range's cut of every stored column kind.
        columns: Vec<ColumnCut>,
    },
    /// Update: add one owner's whole-column difference shares at `epoch`,
    /// which must be past each column's last. Answered with
    /// [`Message::Ack`], or [`Message::Refused`] for a stale or repeated
    /// epoch.
    FoldUpload {
        /// Owner index.
        owner: u32,
        /// The update's epoch.
        epoch: u64,
        /// `(column, difference shares)` pairs, folded all or nothing.
        columns: Vec<(Column, Vec<u64>)>,
    },
    /// A server's answer to an upload it did not apply — its store is
    /// unchanged — with the reason. The owner surfaces it as
    /// [`crate::NetError::UploadRefused`].
    Refused(String),
    /// Phase 2: evaluate a batch of stored-column operations in one
    /// round-trip (the engine's [`BatchQuery`], verbatim).
    RunBatch(BatchQuery),
    /// Phase 3: a server's per-item outputs for one [`Message::RunBatch`].
    Outputs(Vec<Vec<u64>>),
    /// Shard envelope, domain router → shard worker: evaluate a row-range
    /// sub-batch. The shard index is echoed in the reply so the router
    /// detects crossed links before merging rows.
    ShardRun {
        /// Row-range shard index within the domain.
        shard: u32,
        /// The row-sliced sub-batch.
        batch: BatchQuery,
    },
    /// Shard envelope, worker → router: per-item outputs for one
    /// [`Message::ShardRun`], tagged with the answering shard.
    ShardOutputs {
        /// Echoed shard index.
        shard: u32,
        /// Per-item row-range outputs.
        outputs: Vec<Vec<u64>>,
    },
    /// Attach a tampering behaviour to the receiving server (tests: the
    /// failure-injection matrix runs over the wire too).
    SetTamper(Tamper),
    /// Acknowledgement (upload / tamper receipt). Also the announcer's
    /// failure marker: an [`Message::AnnounceRun`] that cannot produce an
    /// announcement (missing/crossed uploads, mismatched matrices) is
    /// answered with `Ack`, which the owner surfaces as a protocol error.
    Ack,
    /// Orderly shutdown.
    Shutdown,
    /// Max/median round 2, owner → additive server: the owners' blinded
    /// wide uploads ([`ServerCmd::MaxCombine`](prism_protocol::engine::ServerCmd)
    /// verbatim). The server's combined matrix travels on its *own*
    /// server→announcer link — never back through the owner — and the
    /// owner receives only a [`Message::WideForwarded`] receipt.
    MaxCombine {
        /// One blinded upload per owner, in owner order.
        uploads: Vec<BlindedMaxUpload>,
        /// Worker threads the server should use.
        threads: u32,
        /// Wide-round sequence number (echoed in the `WideUpload` and the
        /// `WideForwarded` receipt, and quoted by the `AnnounceRun`) — what
        /// lets the announcer refuse stale or crossed uploads.
        seq: u64,
    },
    /// Max round 3, owner → additive server: per-owner claim shares.
    AssembleFpos {
        /// One claim vector per owner, in owner order.
        claims: Vec<Vec<u64>>,
    },
    /// Reply to [`Message::AssembleFpos`]: the claim-share table relayed
    /// owner-major — one column of `cells` shares per owner, in owner
    /// order.
    Fpos(Vec<Vec<u64>>),
    /// Reply to [`Message::MaxCombine`]: the shape of the matrix the
    /// server forwarded to the announcer (`rows == 0` marks failure).
    WideForwarded {
        /// Rows of the forwarded matrix (`cells × m`).
        rows: u64,
        /// Limb width of the forwarded matrix.
        width: u32,
        /// Echoed wide-round sequence number.
        seq: u64,
    },
    /// Additive server → announcer: the `PF`-permuted combined share
    /// matrix for the pending announcement, tagged with the sender so the
    /// announcer can detect crossed links.
    WideUpload {
        /// Sending server (0 or 1).
        server: u32,
        /// Echoed wide-round sequence number (the announcer discards
        /// uploads from superseded rounds).
        seq: u64,
        /// The combined `cells × m`-row share matrix.
        shares: WideVec,
    },
    /// Owner → announcer: act on the two staged server uploads.
    AnnounceRun {
        /// What to announce (max or median).
        cmd: AnnouncerCmd,
        /// The wide round whose uploads to act on.
        seq: u64,
        /// Worker threads the announcer should use.
        threads: u32,
    },
    /// Announcer → owner: the announcement.
    AnnounceReply(AnnouncerReply),
    /// Attach a tampering behaviour to the announcer (tests), over the
    /// owner↔announcer control link.
    SetAnnouncerTamper(AnnouncerTamper),
    /// Query-tagged envelope: any message, stamped with the query it
    /// belongs to. The multiplexer (`crate::mux`) wraps every request of
    /// a concurrent query in one of these; the serving loop echoes the
    /// tag on the reply, and the owner-side pump routes the reply into
    /// that query's completion slot — so N queries share one link
    /// without ever pairing a reply with the wrong round. Envelopes
    /// never nest: a `Tagged` inside a `Tagged` is rejected as
    /// malformed.
    Tagged {
        /// The owning query's identifier (unique per cluster lifetime).
        query: u64,
        /// The payload message, verbatim.
        inner: Box<Message>,
    },
    /// Node → registry: first message on a freshly dialed connection,
    /// announcing what this connection is. The control plane's remote
    /// attach: workers and the announcer join a running cluster by
    /// address instead of being wired in at construction time.
    Register {
        /// What the connection carries.
        role: NodeRole,
        /// Which server domain (0..3) the node belongs to / uploads from.
        domain: u32,
    },
    /// Registry → node: the verdict on a [`Message::Register`], carrying
    /// the node id the registry will know it by and its initial row-range
    /// assignment.
    RegisterAck {
        /// Whether the registration was accepted.
        accepted: bool,
        /// Registry-assigned node id (stable for the node's lifetime).
        node: u64,
        /// First domain row of the assigned shard range.
        start: u64,
        /// Row count of the assigned shard range.
        len: u64,
    },
    /// Registry → node: keep-alive probe.
    Ping {
        /// Probe sequence number, echoed in the [`Message::Pong`].
        seq: u64,
    },
    /// Node → registry: keep-alive answer.
    Pong {
        /// Echoed probe sequence number.
        seq: u64,
    },
    /// Registry → worker, during a heal: reset the worker to an empty
    /// store over this shard row range (the upload log's replay follows)
    /// and answer with [`Message::Ack`].
    Assign {
        /// First domain row of the range.
        start: u64,
        /// Row count of the range.
        len: u64,
    },
    /// Router → owner: a routed round failed because a shard worker's
    /// link is dead. Distinct from a tamper-shaped wrong answer — the
    /// owner maps this to [`crate::NetError::NodeDown`] so crash and
    /// corruption stay distinguishable.
    NodeDown {
        /// Index of the dead worker within its domain.
        node: u64,
    },
    /// Phase 1, incremental: append rows `[start, start + added)` to an
    /// owner's outsourced columns without re-uploading the prefix. When
    /// the delta grows the domain (`start == b`), the permutation
    /// extensions carry the fresh block the server concatenates onto its
    /// finish permutations (empty maps mean identity blocks); existing
    /// rows, shard assignments and `row_offset`s are untouched, so only
    /// the appended range's version stamp moves.
    DeltaUpload {
        /// Owner index.
        owner: u32,
        /// First global row of the appended range.
        start: u64,
        /// `(column, appended share values)` pairs, stored in order.
        columns: Vec<(Column, Vec<u64>)>,
        /// `PF_s1` extension block as a raw destination map (empty =
        /// identity over the appended rows).
        pf_s1_ext: Vec<u32>,
        /// `PF_s2` extension block as a raw destination map (empty =
        /// identity over the appended rows).
        pf_s2_ext: Vec<u32>,
    },
    /// Owner → server: probe the store's per-range version stamps
    /// ([`ServerCmd::RangeVersions`](prism_protocol::engine::ServerCmd)
    /// verbatim) — what the round cache validates range-scoped entries
    /// with. A sharded domain's router concatenates its workers' stamps
    /// in global row order.
    RangeVersionProbe,
    /// Server → owner: the store's `(start, len, version)` range stamps
    /// in global row coordinates, answering a
    /// [`Message::RangeVersionProbe`].
    Versions(Vec<(u64, u64, u64)>),
}

impl Message {
    /// Exact number of bytes [`Message::encode`] will produce: the
    /// encoder run over a byte `Count`, so row vectors cost one
    /// multiplication each and nothing is serialized.
    pub fn encoded_len(&self) -> usize {
        let mut count = Count(0);
        self.write_to(&mut count);
        count.0
    }

    /// Encode to bytes (no outer length prefix; transports add framing).
    /// The buffer is sized with [`Message::encoded_len`] up front, so the
    /// write never reallocates.
    pub fn encode(&self) -> BytesMut {
        let mut buf = BytesMut::with_capacity(self.encoded_len());
        self.encode_into(&mut buf);
        buf
    }

    /// Append the encoding to a caller-owned buffer in a single pass —
    /// how the links build a framed message without an intermediate
    /// allocation. The caller sizes `buf` (with [`Message::encoded_len`]).
    pub(crate) fn encode_into(&self, buf: &mut BytesMut) {
        debug_assert!(
            !matches!(self, Message::Tagged { inner, .. } if matches!(**inner, Message::Tagged { .. })),
            "query envelopes never nest"
        );
        self.write_to(buf);
    }

    fn write_to(&self, buf: &mut impl Sink) {
        match self {
            Message::RunBatch(batch) => {
                buf.put_u8(1);
                encode_batch(batch, buf);
            }
            Message::Outputs(outs) => {
                buf.put_u8(2);
                put_vecs(buf, outs);
            }
            Message::SetTamper(t) => {
                buf.put_u8(3);
                encode_tamper(t, buf);
            }
            Message::Ack => buf.put_u8(4),
            Message::Shutdown => buf.put_u8(5),
            Message::BulkUpload { owner, columns } => {
                buf.put_u8(6);
                buf.put_u32_le(*owner);
                put_columns(buf, columns);
            }
            Message::Replay { columns } => {
                buf.put_u8(31);
                put_cuts(buf, columns);
            }
            Message::FoldUpload {
                owner,
                epoch,
                columns,
            } => {
                buf.put_u8(29);
                buf.put_u32_le(*owner);
                buf.put_u64_le(*epoch);
                put_columns(buf, columns);
            }
            Message::Refused(why) => {
                buf.put_u8(30);
                put_text(buf, why);
            }
            Message::ShardRun { shard, batch } => {
                buf.put_u8(7);
                buf.put_u32_le(*shard);
                encode_batch(batch, buf);
            }
            Message::ShardOutputs { shard, outputs } => {
                buf.put_u8(8);
                buf.put_u32_le(*shard);
                put_vecs(buf, outputs);
            }
            Message::MaxCombine {
                uploads,
                threads,
                seq,
            } => {
                buf.put_u8(9);
                buf.put_u64_le(*seq);
                buf.put_u32_le(*threads);
                buf.put_u32_le(uploads.len() as u32);
                for u in uploads {
                    put_widevec(buf, &u.shares);
                }
            }
            Message::AssembleFpos { claims } => {
                buf.put_u8(10);
                put_vecs(buf, claims);
            }
            Message::Fpos(rows) => {
                buf.put_u8(11);
                put_vecs(buf, rows);
            }
            Message::WideForwarded { rows, width, seq } => {
                buf.put_u8(12);
                buf.put_u64_le(*rows);
                buf.put_u32_le(*width);
                buf.put_u64_le(*seq);
            }
            Message::WideUpload {
                server,
                seq,
                shares,
            } => {
                buf.put_u8(13);
                buf.put_u32_le(*server);
                buf.put_u64_le(*seq);
                put_widevec(buf, shares);
            }
            Message::AnnounceRun { cmd, seq, threads } => {
                buf.put_u8(14);
                buf.put_u8(match cmd {
                    AnnouncerCmd::FindMax => 0,
                    AnnouncerCmd::FindMedian => 1,
                });
                buf.put_u64_le(*seq);
                buf.put_u32_le(*threads);
            }
            Message::AnnounceReply(reply) => {
                buf.put_u8(15);
                encode_announcer_reply(reply, buf);
            }
            Message::SetAnnouncerTamper(t) => {
                buf.put_u8(16);
                encode_announcer_tamper(t, buf);
            }
            Message::Tagged { query, inner } => {
                buf.put_u8(19);
                buf.put_u64_le(*query);
                // The payload writes directly into the envelope's buffer —
                // no intermediate encode-then-copy.
                inner.write_to(buf);
            }
            Message::Register { role, domain } => {
                buf.put_u8(20);
                buf.put_u8(match role {
                    NodeRole::ShardWorker => 0,
                    NodeRole::AnnouncerCtl => 1,
                    NodeRole::AnnouncerUpload => 2,
                });
                buf.put_u32_le(*domain);
            }
            Message::RegisterAck {
                accepted,
                node,
                start,
                len,
            } => {
                buf.put_u8(21);
                buf.put_u8(u8::from(*accepted));
                buf.put_u64_le(*node);
                buf.put_u64_le(*start);
                buf.put_u64_le(*len);
            }
            Message::Ping { seq } => {
                buf.put_u8(22);
                buf.put_u64_le(*seq);
            }
            Message::Pong { seq } => {
                buf.put_u8(23);
                buf.put_u64_le(*seq);
            }
            Message::Assign { start, len } => {
                buf.put_u8(24);
                buf.put_u64_le(*start);
                buf.put_u64_le(*len);
            }
            Message::NodeDown { node } => {
                buf.put_u8(25);
                buf.put_u64_le(*node);
            }
            Message::DeltaUpload {
                owner,
                start,
                columns,
                pf_s1_ext,
                pf_s2_ext,
            } => {
                buf.put_u8(26);
                buf.put_u32_le(*owner);
                buf.put_u64_le(*start);
                put_columns(buf, columns);
                put_map(buf, pf_s1_ext);
                put_map(buf, pf_s2_ext);
            }
            Message::RangeVersionProbe => buf.put_u8(27),
            Message::Versions(stamps) => {
                buf.put_u8(28);
                buf.put_u32_le(stamps.len() as u32);
                for &(start, len, version) in stamps {
                    buf.put_u64_le(start);
                    buf.put_u64_le(len);
                    buf.put_u64_le(version);
                }
            }
        }
    }

    /// Decode from bytes.
    pub fn decode(mut buf: &[u8]) -> Result<Message, WireError> {
        let buf = &mut buf;
        Ok(match need(buf)? {
            // 0 carried the retired single-column `Upload` (a one-column
            // `BulkUpload` says the same). Reserved like 17/18 below.
            1 => Message::RunBatch(decode_batch(buf)?),
            2 => Message::Outputs(get_vecs(buf)?),
            3 => Message::SetTamper(decode_tamper(buf)?),
            4 => Message::Ack,
            5 => Message::Shutdown,
            6 => Message::BulkUpload {
                owner: need_u32(buf)?,
                columns: get_columns(buf)?,
            },
            7 => Message::ShardRun {
                shard: need_u32(buf)?,
                batch: decode_batch(buf)?,
            },
            8 => Message::ShardOutputs {
                shard: need_u32(buf)?,
                outputs: get_vecs(buf)?,
            },
            9 => {
                let seq = need_u64(buf)?;
                let threads = need_u32(buf)?;
                let n = need_u32(buf)? as usize;
                let mut uploads = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    uploads.push(BlindedMaxUpload {
                        shares: get_widevec(buf)?,
                    });
                }
                Message::MaxCombine {
                    uploads,
                    threads,
                    seq,
                }
            }
            10 => Message::AssembleFpos {
                claims: get_vecs(buf)?,
            },
            11 => Message::Fpos(get_vecs(buf)?),
            12 => Message::WideForwarded {
                rows: need_u64(buf)?,
                width: need_u32(buf)?,
                seq: need_u64(buf)?,
            },
            13 => Message::WideUpload {
                server: need_u32(buf)?,
                seq: need_u64(buf)?,
                shares: get_widevec(buf)?,
            },
            14 => {
                let cmd = match need(buf)? {
                    0 => AnnouncerCmd::FindMax,
                    1 => AnnouncerCmd::FindMedian,
                    t => return Err(WireError::BadTag(t)),
                };
                Message::AnnounceRun {
                    cmd,
                    seq: need_u64(buf)?,
                    threads: need_u32(buf)?,
                }
            }
            15 => Message::AnnounceReply(decode_announcer_reply(buf)?),
            16 => Message::SetAnnouncerTamper(decode_announcer_tamper(buf)?),
            // 17/18 carried the retired whole-store `VersionProbe`/`Version`
            // pair (subsumed by 27/28). Reserved: never reassigned, so an
            // old peer's probe is a `BadTag`, not a misread.
            19 => {
                let query = need_u64(buf)?;
                if buf.first() == Some(&19) {
                    return Err(WireError::Malformed("nested query-tagged envelope"));
                }
                Message::Tagged {
                    query,
                    inner: Box::new(Message::decode(buf)?),
                }
            }
            20 => {
                let role = match need(buf)? {
                    0 => NodeRole::ShardWorker,
                    1 => NodeRole::AnnouncerCtl,
                    2 => NodeRole::AnnouncerUpload,
                    t => return Err(WireError::BadTag(t)),
                };
                Message::Register {
                    role,
                    domain: need_u32(buf)?,
                }
            }
            21 => Message::RegisterAck {
                accepted: need(buf)? != 0,
                node: need_u64(buf)?,
                start: need_u64(buf)?,
                len: need_u64(buf)?,
            },
            22 => Message::Ping {
                seq: need_u64(buf)?,
            },
            23 => Message::Pong {
                seq: need_u64(buf)?,
            },
            24 => Message::Assign {
                start: need_u64(buf)?,
                len: need_u64(buf)?,
            },
            25 => Message::NodeDown {
                node: need_u64(buf)?,
            },
            26 => Message::DeltaUpload {
                owner: need_u32(buf)?,
                start: need_u64(buf)?,
                columns: get_columns(buf)?,
                pf_s1_ext: get_map(buf)?,
                pf_s2_ext: get_map(buf)?,
            },
            27 => Message::RangeVersionProbe,
            28 => {
                let n = need_u32(buf)? as usize;
                if buf.remaining() < n.saturating_mul(24) {
                    return Err(WireError::Truncated);
                }
                let mut stamps = Vec::with_capacity(n);
                for _ in 0..n {
                    stamps.push((need_u64(buf)?, need_u64(buf)?, need_u64(buf)?));
                }
                Message::Versions(stamps)
            }
            29 => Message::FoldUpload {
                owner: need_u32(buf)?,
                epoch: need_u64(buf)?,
                columns: get_columns(buf)?,
            },
            30 => Message::Refused(get_text(buf)?),
            31 => Message::Replay {
                columns: get_cuts(buf)?,
            },
            t => return Err(WireError::BadTag(t)),
        })
    }

    /// The decoder's verdict on this message's encoding, without the
    /// bytes: the [`Message::decode`] error for the two shapes a value can
    /// hold but the decoder refuses — a nested envelope, and a wide matrix
    /// that is not a whole number of rows. In-process links check this in
    /// place and hand the message itself over.
    pub(crate) fn check_decodable(&self) -> Result<(), WireError> {
        match self {
            Message::Tagged { inner, .. } if matches!(**inner, Message::Tagged { .. }) => {
                Err(WireError::Malformed("nested query-tagged envelope"))
            }
            Message::Tagged { inner, .. } => inner.check_decodable(),
            Message::MaxCombine { uploads, .. } => (uploads.iter())
                .try_for_each(|u| check_widevec(u.shares.width, u.shares.data.len())),
            Message::WideUpload { shares, .. } => check_widevec(shares.width, shares.data.len()),
            Message::AnnounceReply(AnnouncerReply::Max(a)) => check_announcement(a),
            Message::AnnounceReply(AnnouncerReply::Median(m)) => {
                m.middles.iter().try_for_each(check_announcement)
            }
            _ => Ok(()),
        }
    }

    /// Hand the message's row buffers — a batch's `z`s, its outputs, an
    /// upload's columns — to the pool: what a link does with a message it
    /// was given to send once the bytes are written. A wide round's
    /// matrices and claim tables are freed instead: the max and median
    /// kernels allocate their own, so only a decoder would ever draw them
    /// back, and pooled they would pile up beside the row buffers.
    pub(crate) fn recycle(self) {
        match self {
            Message::BulkUpload { columns, .. }
            | Message::FoldUpload { columns, .. }
            | Message::DeltaUpload { columns, .. } => {
                recycle_vecs(columns.into_iter().map(|(_, data)| data))
            }
            Message::Replay { columns } => recycle_vecs(columns.into_iter().map(|c| c.summed)),
            Message::RunBatch(batch) | Message::ShardRun { batch, .. } => recycle_vecs(batch.zs),
            Message::Outputs(rows) | Message::ShardOutputs { outputs: rows, .. } => {
                recycle_vecs(rows)
            }
            Message::Tagged { inner, .. } => inner.recycle(),
            _ => {}
        }
    }

    /// The tag byte that opens the message's encoding, without encoding
    /// the rest.
    pub(crate) fn wire_tag(&self) -> u8 {
        let mut first = FirstByte(None);
        self.write_to(&mut first);
        first.0.unwrap_or_default()
    }

    /// Wrap `self` in a query envelope (convenience for the serving loops
    /// and the multiplexer).
    pub fn tagged(self, query: u64) -> Message {
        Message::Tagged {
            query,
            inner: Box::new(self),
        }
    }

    /// Split a query envelope into `(tag, payload)`; an untagged message
    /// comes back as `(None, self)`. The serving loops use this so tagged
    /// and legacy untagged traffic share one dispatch path.
    pub fn untag(self) -> (Option<u64>, Message) {
        match self {
            Message::Tagged { query, inner } => (Some(query), *inner),
            other => (None, other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prism_protocol::engine::BatchItem;

    fn roundtrip(m: Message) {
        let enc = m.encode();
        assert_eq!(Message::decode(&enc).unwrap(), m);
        // The length accounting must match the bytes actually written...
        assert_eq!(enc.len(), m.encoded_len(), "encoded_len mismatch: {m:?}");
        // ...and encode_into must append the identical bytes, even after
        // existing content.
        let mut appended = BytesMut::new();
        appended.put_u8(0xAB);
        m.encode_into(&mut appended);
        assert_eq!(&appended[1..], &enc[..], "encode_into mismatch: {m:?}");
    }

    #[test]
    fn all_messages_roundtrip() {
        roundtrip(Message::BulkUpload {
            owner: 9,
            columns: vec![(Column::VAgg(3), vec![u64::MAX])],
        });
        roundtrip(Message::Replay {
            columns: vec![
                ColumnCut {
                    column: Column::VOk,
                    summed: vec![1, 2],
                    held: vec![Held { rows: 2, epoch: 3 }, Held::default()],
                },
                ColumnCut {
                    column: Column::Agg(4),
                    summed: vec![],
                    held: vec![],
                },
            ],
        });
        roundtrip(Message::FoldUpload {
            owner: 2,
            epoch: u64::MAX,
            columns: vec![(Column::OkDb2, vec![5, 0]), (Column::Agg(7), vec![])],
        });
        roundtrip(Message::Refused(String::new()));
        roundtrip(Message::Refused(
            "owner 1's Ok is at epoch 3 — ünïcode".into(),
        ));
        roundtrip(Message::RunBatch(BatchQuery {
            zs: vec![],
            items: vec![BatchItem::plain(Op::Psi), BatchItem::plain(Op::PsiVerify)],
            threads: 4,
            range: None,
        }));
        roundtrip(Message::RunBatch(BatchQuery {
            zs: vec![vec![5; 100], vec![7; 100]],
            items: vec![
                BatchItem::with_z(Op::Sum(0), 0),
                BatchItem::with_z(Op::SumVerify(0), 1),
                BatchItem::with_z(Op::SumCounts, 0),
                BatchItem::plain(Op::CountVerify(2)),
            ],
            threads: 8,
            range: None,
        }));
        roundtrip(Message::Outputs(vec![(0..1000).collect(), vec![], vec![9]]));
        roundtrip(Message::BulkUpload {
            owner: 7,
            columns: vec![
                (Column::Ok, vec![1, 2, 3]),
                (Column::VOk, vec![]),
                (Column::Agg(1), vec![u64::MAX]),
                (Column::AOk, vec![4; 64]),
            ],
        });
        roundtrip(Message::ShardRun {
            shard: 3,
            batch: BatchQuery {
                zs: vec![vec![1; 8]],
                items: vec![BatchItem::with_z(Op::Sum(0), 0)],
                threads: 2,
                range: None,
            },
        });
        roundtrip(Message::ShardOutputs {
            shard: 9,
            outputs: vec![(0..33).collect(), vec![]],
        });
        roundtrip(Message::SetTamper(Tamper::Honest));
        roundtrip(Message::SetTamper(Tamper::ReplaceCell { src: 4, dst: 9 }));
        roundtrip(Message::Ack);
        roundtrip(Message::Shutdown);
    }

    fn wv(rows: usize, width: usize, fill: u64) -> WideVec {
        WideVec {
            width,
            data: vec![fill; rows * width],
        }
    }

    #[test]
    fn announcer_messages_roundtrip() {
        roundtrip(Message::MaxCombine {
            uploads: vec![
                BlindedMaxUpload {
                    shares: wv(3, 2, 7),
                },
                BlindedMaxUpload {
                    shares: wv(3, 2, u64::MAX),
                },
            ],
            threads: 4,
            seq: 11,
        });
        roundtrip(Message::AssembleFpos {
            claims: vec![vec![1, 0, 1], vec![0, 0, 1]],
        });
        // Owner-major: three owners' columns over two cells, and no cells.
        roundtrip(Message::Fpos(vec![vec![1, 2], vec![3, 4], vec![5, 6]]));
        roundtrip(Message::Fpos(vec![vec![], vec![], vec![]]));
        roundtrip(Message::WideForwarded {
            rows: 12,
            width: 3,
            seq: 5,
        });
        roundtrip(Message::WideForwarded {
            rows: 0,
            width: 0,
            seq: 0,
        });
        roundtrip(Message::WideUpload {
            server: 1,
            seq: 6,
            shares: wv(6, 2, 9),
        });
        roundtrip(Message::AnnounceRun {
            cmd: AnnouncerCmd::FindMax,
            seq: 6,
            threads: 2,
        });
        roundtrip(Message::AnnounceRun {
            cmd: AnnouncerCmd::FindMedian,
            seq: 7,
            threads: 1,
        });
        let ann = MaxAnnouncement {
            max_shares_1: wv(2, 3, 5),
            max_shares_2: wv(2, 3, 6),
            index_shares: vec![(1, 2), (3, 4)],
        };
        roundtrip(Message::AnnounceReply(AnnouncerReply::Max(ann.clone())));
        roundtrip(Message::AnnounceReply(AnnouncerReply::Median(
            MedianAnnouncement {
                middles: vec![ann.clone(), ann],
            },
        )));
        roundtrip(Message::SetAnnouncerTamper(AnnouncerTamper::Honest));
        roundtrip(Message::SetAnnouncerTamper(AnnouncerTamper::AnnounceSlot(
            3,
        )));
        roundtrip(Message::SetAnnouncerTamper(AnnouncerTamper::FakeValue {
            seed: 99,
        }));
    }

    #[test]
    fn retired_tags_stay_reserved() {
        // Tags 0 (`Upload`), 17 (`VersionProbe`) and 18 (`Version(u64)`)
        // are retired, not free: whatever follows them, decoding is an
        // error.
        for tag in [0u8, 17, 18] {
            let mut body = vec![tag];
            assert_eq!(Message::decode(&body).unwrap_err(), WireError::BadTag(tag));
            body.extend_from_slice(&7u64.to_le_bytes());
            assert_eq!(Message::decode(&body).unwrap_err(), WireError::BadTag(tag));
        }
    }

    #[test]
    fn control_plane_messages_roundtrip() {
        for role in [
            NodeRole::ShardWorker,
            NodeRole::AnnouncerCtl,
            NodeRole::AnnouncerUpload,
        ] {
            roundtrip(Message::Register { role, domain: 2 });
        }
        roundtrip(Message::RegisterAck {
            accepted: true,
            node: 12,
            start: 128,
            len: 64,
        });
        roundtrip(Message::RegisterAck {
            accepted: false,
            node: 0,
            start: 0,
            len: 0,
        });
        roundtrip(Message::Ping { seq: u64::MAX });
        roundtrip(Message::Pong { seq: 41 });
        roundtrip(Message::Assign { start: 10, len: 90 });
        roundtrip(Message::NodeDown { node: 3 });
    }

    #[test]
    fn a_refusal_reason_must_be_utf8() {
        let mut bad = vec![30u8];
        bad.extend_from_slice(&2u32.to_le_bytes());
        bad.extend_from_slice(&[0xC3, 0x28]);
        assert!(matches!(
            Message::decode(&bad),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn tagged_envelopes_roundtrip() {
        roundtrip(Message::RangeVersionProbe.tagged(0));
        roundtrip(Message::Pong { seq: 7 }.tagged(u64::MAX));
        roundtrip(
            Message::RunBatch(BatchQuery {
                zs: vec![vec![5; 16]],
                items: vec![BatchItem::with_z(Op::Sum(0), 0)],
                threads: 2,
                range: None,
            })
            .tagged(42),
        );
        roundtrip(
            Message::ShardRun {
                shard: 1,
                batch: BatchQuery {
                    zs: vec![],
                    items: vec![BatchItem::plain(Op::Psi)],
                    threads: 1,
                    range: None,
                },
            }
            .tagged(9),
        );
    }

    #[test]
    fn untag_splits_envelopes_and_passes_plain_messages_through() {
        assert_eq!(
            Message::Ack.tagged(5).untag(),
            (Some(5), Message::Ack),
            "envelope splits into tag and payload"
        );
        assert_eq!(Message::Shutdown.untag(), (None, Message::Shutdown));
    }

    #[test]
    fn nested_tagged_envelopes_are_rejected() {
        // Build the nested encoding by hand (encode() debug-asserts
        // against producing one).
        let mut enc = vec![19u8];
        enc.extend_from_slice(&3u64.to_le_bytes());
        enc.extend_from_slice(&Message::Ack.tagged(4).encode());
        assert!(matches!(
            Message::decode(&enc),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn truncated_tagged_envelopes_error() {
        let pong = Message::Pong { seq: 12 };
        let enc = pong.tagged(77).encode();
        for cut in 0..enc.len() {
            assert!(Message::decode(&enc[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn wide_matrix_length_invariants_are_checked() {
        let m = Message::WideUpload {
            server: 0,
            seq: 1,
            shares: wv(2, 2, 1),
        };
        let mut enc = m.encode().to_vec();
        // Layout: tag(1) ‖ server(4) ‖ seq(8) ‖ width(4) ‖ count(8) ‖ limbs.
        enc[13] = 3; // 4 limbs with width 3: not a multiple
        assert!(matches!(
            Message::decode(&enc),
            Err(WireError::Malformed(_))
        ));
        enc[13] = 0; // zero width with limbs present
        assert!(matches!(
            Message::decode(&enc),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn truncated_buffers_error() {
        let enc = Message::Outputs(vec![(0..10).collect()]).encode();
        for cut in [0usize, 1, 5, enc.len() - 1] {
            assert!(Message::decode(&enc[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn bad_tags_error() {
        assert_eq!(Message::decode(&[99]).unwrap_err(), WireError::BadTag(99));
    }

    #[test]
    fn encoding_is_compact() {
        // 1 tag + 4 count + (8 len + n×8 data).
        let enc = Message::Outputs(vec![vec![0; 100]]).encode();
        assert_eq!(enc.len(), 1 + 4 + 8 + 800);
    }
}
