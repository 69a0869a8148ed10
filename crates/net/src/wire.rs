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
use prism_protocol::engine::{AnnouncerCmd, AnnouncerReply, BatchItem, BatchQuery};
use prism_protocol::malicious::{AnnouncerTamper, Tamper};
use prism_protocol::max::{BlindedMaxUpload, MaxAnnouncement};
use prism_protocol::median::MedianAnnouncement;

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

fn encode_column(column: &Column, buf: &mut BytesMut) {
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

fn encode_op(op: &Op, buf: &mut BytesMut) {
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

fn encode_tamper(t: &Tamper, buf: &mut BytesMut) {
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

/// Values converted per `put_slice` in [`put_vec`]: a 4 KiB stack block.
const PUT_VEC_BLOCK: usize = 512;

fn put_vec(buf: &mut BytesMut, data: &[u64]) {
    buf.reserve(8 + data.len() * 8);
    buf.put_u64_le(data.len() as u64);
    // Convert a block of values on the stack, then append it whole: one
    // capacity check and one copy per block instead of per value.
    let mut block = [0u8; PUT_VEC_BLOCK * 8];
    for values in data.chunks(PUT_VEC_BLOCK) {
        let bytes = &mut block[..values.len() * 8];
        for (dst, v) in bytes.chunks_exact_mut(8).zip(values) {
            dst.copy_from_slice(&v.to_le_bytes());
        }
        buf.put_slice(bytes);
    }
}

/// Decode-side row-buffer pool: the serving loops decode a fresh
/// `Vec<u64>` per row vector on every round, then drop it after the
/// kernel ran — a steady allocate/free churn on the server hot path.
/// Instead, [`get_vec`] draws its backing buffer from this pool and the
/// loops hand buffers back via [`recycle_vec`] once the round's reply is
/// encoded, so a warmed-up server decodes rounds without touching the
/// allocator. The pool is a global `Mutex` (not thread-local) because
/// decode and recycle happen on *different* threads — the mux pump
/// decodes, the worker recycles — so a thread-local pool would never
/// refill. Capped on buffer count, per-buffer bytes, *and* total
/// retained bytes, so a burst of giant rounds cannot pin memory: a
/// count-only cap would let 64 multi-MB buffers pin hundreds of MB
/// forever after one large round.
const VEC_POOL_CAP: usize = 64;
/// Largest single buffer the pool retains (bytes of backing capacity).
/// Generous enough to recycle per-shard row vectors at paper scale
/// (2M rows = 16 MiB); anything bigger is freed on recycle.
pub const VEC_POOL_MAX_BUFFER_BYTES: usize = 16 << 20;
/// Ceiling on the total bytes the pool may pin across all retained
/// buffers. Recycles past this budget drop their buffer instead.
pub const VEC_POOL_MAX_TOTAL_BYTES: usize = 64 << 20;

struct VecPool {
    bytes: usize,
    bufs: Vec<Vec<u64>>,
}

static VEC_POOL: std::sync::Mutex<VecPool> = std::sync::Mutex::new(VecPool {
    bytes: 0,
    bufs: Vec::new(),
});

fn pooled_vec(len: usize) -> Vec<u64> {
    let mut v = VEC_POOL
        .lock()
        .ok()
        .and_then(|mut p| {
            let v = p.bufs.pop();
            if let Some(v) = &v {
                p.bytes = p.bytes.saturating_sub(v.capacity().saturating_mul(8));
            }
            v
        })
        .unwrap_or_default();
    v.clear();
    v.reserve(len);
    v
}

/// Return a decoded row buffer to the wire pool the decoder draws from.
/// Cheap and infallible; buffers beyond the count, per-buffer, or
/// total-byte caps are simply dropped.
pub fn recycle_vec(mut v: Vec<u64>) {
    let bytes = v.capacity().saturating_mul(8);
    if bytes == 0 || bytes > VEC_POOL_MAX_BUFFER_BYTES {
        return;
    }
    if let Ok(mut p) = VEC_POOL.lock() {
        if p.bufs.len() < VEC_POOL_CAP && p.bytes + bytes <= VEC_POOL_MAX_TOTAL_BYTES {
            v.clear();
            p.bytes += bytes;
            p.bufs.push(v);
        }
    }
}

/// Pool introspection for tests and ops: `(buffers, retained_bytes)`.
pub fn vec_pool_stats() -> (usize, usize) {
    VEC_POOL
        .lock()
        .map(|p| (p.bufs.len(), p.bytes))
        .unwrap_or((0, 0))
}

/// Recycle a whole reply's worth of row buffers at once.
pub fn recycle_vecs<I: IntoIterator<Item = Vec<u64>>>(vecs: I) {
    for v in vecs {
        recycle_vec(v);
    }
}

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
    let mut out = pooled_vec(len);
    out.extend(
        rows.chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk"))),
    );
    *buf = rest;
    Ok(out)
}

/// What [`get_vec`] decodes from `data`'s encoding, without the bytes: a
/// copy in a buffer drawn from the same pool.
fn pooled_copy(data: &[u64]) -> Vec<u64> {
    let mut out = pooled_vec(data.len());
    out.extend_from_slice(data);
    out
}

fn pooled_copies(data: &[Vec<u64>]) -> Vec<Vec<u64>> {
    data.iter().map(|v| pooled_copy(v)).collect()
}

fn pooled_columns(columns: &[(Column, Vec<u64>)]) -> Vec<(Column, Vec<u64>)> {
    columns.iter().map(|(c, d)| (*c, pooled_copy(d))).collect()
}

fn put_vecs(buf: &mut BytesMut, data: &[Vec<u64>]) {
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
fn put_widevec(buf: &mut BytesMut, wv: &WideVec) {
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

/// [`get_widevec`] of `wv`'s encoding, without the bytes.
fn pooled_widevec(wv: &WideVec) -> Result<WideVec, WireError> {
    check_widevec(wv.width, wv.data.len())?;
    Ok(WideVec {
        width: wv.width,
        data: pooled_copy(&wv.data),
    })
}

/// [`get_announcement`] of `a`'s encoding, without the bytes.
fn pooled_announcement(a: &MaxAnnouncement) -> Result<MaxAnnouncement, WireError> {
    Ok(MaxAnnouncement {
        max_shares_1: pooled_widevec(&a.max_shares_1)?,
        max_shares_2: pooled_widevec(&a.max_shares_2)?,
        index_shares: a.index_shares.clone(),
    })
}

fn put_announcement(buf: &mut BytesMut, a: &MaxAnnouncement) {
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

fn encode_announcer_reply(reply: &AnnouncerReply, buf: &mut BytesMut) {
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

fn encode_announcer_tamper(t: &AnnouncerTamper, buf: &mut BytesMut) {
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
fn put_map(buf: &mut BytesMut, map: &[u32]) {
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

fn encode_batch(batch: &BatchQuery, buf: &mut BytesMut) {
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

/// [`decode_batch`] of `batch`'s encoding, without the bytes.
fn pooled_batch(batch: &BatchQuery) -> BatchQuery {
    BatchQuery {
        zs: pooled_copies(&batch.zs),
        items: batch.items.clone(),
        threads: batch.threads,
        range: batch.range,
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

// --- encoded-length accounting -------------------------------------------
//
// One helper per encoder above, each returning exactly the bytes its
// counterpart writes. `Message::encoded_len` composes them so every encode
// can reserve its full size up front and never regrow mid-message.

fn column_len(column: &Column) -> usize {
    match column {
        Column::Agg(_) | Column::VAgg(_) => 2,
        _ => 1,
    }
}

fn op_len(op: &Op) -> usize {
    match op {
        Op::PsuVerify(_) | Op::CountVerify(_) | Op::Sum(_) | Op::SumVerify(_) => 2,
        _ => 1,
    }
}

fn tamper_len(t: &Tamper) -> usize {
    match t {
        Tamper::Honest => 1,
        Tamper::SkipReplay { .. } | Tamper::TruncateFrom { .. } => 1 + 8,
        Tamper::ReplaceCell { .. } | Tamper::InjectFake { .. } => 1 + 16,
    }
}

fn vec_len(data: &[u64]) -> usize {
    8 + 8 * data.len()
}

fn vecs_len(data: &[Vec<u64>]) -> usize {
    4 + data.iter().map(|v| vec_len(v)).sum::<usize>()
}

fn widevec_len(wv: &WideVec) -> usize {
    4 + vec_len(&wv.data)
}

fn announcement_len(a: &MaxAnnouncement) -> usize {
    widevec_len(&a.max_shares_1) + widevec_len(&a.max_shares_2) + 8 + 16 * a.index_shares.len()
}

fn announcer_reply_len(reply: &AnnouncerReply) -> usize {
    match reply {
        AnnouncerReply::Max(a) => 1 + announcement_len(a),
        AnnouncerReply::Median(m) => 1 + 4 + m.middles.iter().map(announcement_len).sum::<usize>(),
    }
}

fn announcer_tamper_len(t: &AnnouncerTamper) -> usize {
    match t {
        AnnouncerTamper::Honest => 1,
        AnnouncerTamper::AnnounceSlot(_) | AnnouncerTamper::FakeValue { .. } => 1 + 8,
    }
}

fn map_len(map: &[u32]) -> usize {
    4 + 4 * map.len()
}

fn batch_len(batch: &BatchQuery) -> usize {
    4 + (1 + if batch.range.is_some() { 16 } else { 0 })
        + vecs_len(&batch.zs)
        + 4
        + batch
            .items
            .iter()
            .map(|item| op_len(&item.op) + if item.z.is_some() { 2 } else { 1 })
            .sum::<usize>()
}

/// Every message that can cross a PRISM link.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// Phase 1: any number of one owner's share columns for one server
    /// in a single round-trip (the upload-side mirror of
    /// [`Message::RunBatch`]) — usually the owner's whole per-server
    /// table.
    BulkUpload {
        /// Owner index.
        owner: u32,
        /// `(column, share values)` pairs, stored in order.
        columns: Vec<(Column, Vec<u64>)>,
    },
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
        /// Row capacity the node offers (informational; the planner
        /// currently splits evenly, but the field keeps heterogeneous
        /// splits wire-compatible).
        capacity: u64,
        /// The node's view of the domain's assignment generation (0 on
        /// first attach; echoed back from a previous `Assign` on
        /// re-attach).
        generation: u64,
    },
    /// Registry → node: the verdict on a [`Message::Register`], carrying
    /// the node id the registry will know it by and its initial row-range
    /// assignment.
    RegisterAck {
        /// Whether the registration was accepted.
        accepted: bool,
        /// Registry-assigned node id (stable for the node's lifetime).
        node: u64,
        /// The domain's current assignment generation.
        generation: u64,
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
    /// Node → registry: keep-alive answer. `generation` is the node's
    /// current assignment generation — a stale value tells the prober the
    /// node missed a re-plan and needs its `Assign` re-sent.
    Pong {
        /// Echoed probe sequence number.
        seq: u64,
        /// The node's current assignment generation.
        generation: u64,
    },
    /// Registry → worker: (re-)assign the worker's shard row range. Sent
    /// on attach and again after every failover re-plan; the worker
    /// rebuilds its store view for the new range and answers with
    /// [`Message::Ack`].
    Assign {
        /// The assignment generation this range belongs to.
        generation: u64,
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
    /// Exact number of bytes [`Message::encode`] will produce, computed
    /// without serializing — what lets every encode reserve once and write
    /// straight into the target buffer.
    pub fn encoded_len(&self) -> usize {
        match self {
            Message::RunBatch(batch) => 1 + batch_len(batch),
            Message::Outputs(outs) => 1 + vecs_len(outs),
            Message::SetTamper(t) => 1 + tamper_len(t),
            Message::Ack | Message::Shutdown => 1,
            Message::BulkUpload { columns, .. } => {
                1 + 4
                    + 4
                    + columns
                        .iter()
                        .map(|(c, d)| column_len(c) + vec_len(d))
                        .sum::<usize>()
            }
            Message::ShardRun { batch, .. } => 1 + 4 + batch_len(batch),
            Message::ShardOutputs { outputs, .. } => 1 + 4 + vecs_len(outputs),
            Message::MaxCombine { uploads, .. } => {
                1 + 8
                    + 4
                    + 4
                    + uploads
                        .iter()
                        .map(|u| widevec_len(&u.shares))
                        .sum::<usize>()
            }
            Message::AssembleFpos { claims } => 1 + vecs_len(claims),
            Message::Fpos(rows) => 1 + vecs_len(rows),
            Message::WideForwarded { .. } => 1 + 8 + 4 + 8,
            Message::WideUpload { shares, .. } => 1 + 4 + 8 + widevec_len(shares),
            Message::AnnounceRun { .. } => 1 + 1 + 8 + 4,
            Message::AnnounceReply(reply) => 1 + announcer_reply_len(reply),
            Message::SetAnnouncerTamper(t) => 1 + announcer_tamper_len(t),
            Message::Tagged { inner, .. } => 1 + 8 + inner.encoded_len(),
            Message::Register { .. } => 1 + 1 + 4 + 8 + 8,
            Message::RegisterAck { .. } => 1 + 1 + 8 + 8 + 8 + 8,
            Message::Ping { .. } => 1 + 8,
            Message::Pong { .. } => 1 + 8 + 8,
            Message::Assign { .. } => 1 + 8 + 8 + 8,
            Message::NodeDown { .. } => 1 + 8,
            Message::DeltaUpload {
                columns,
                pf_s1_ext,
                pf_s2_ext,
                ..
            } => {
                1 + 4
                    + 8
                    + 4
                    + columns
                        .iter()
                        .map(|(c, d)| column_len(c) + vec_len(d))
                        .sum::<usize>()
                    + map_len(pf_s1_ext)
                    + map_len(pf_s2_ext)
            }
            Message::RangeVersionProbe => 1,
            Message::Versions(stamps) => 1 + 4 + 24 * stamps.len(),
        }
    }

    /// Encode to bytes (no outer length prefix; transports add framing).
    /// The buffer is sized with [`Message::encoded_len`] up front, so the
    /// write never reallocates.
    pub fn encode(&self) -> BytesMut {
        let mut buf = BytesMut::with_capacity(self.encoded_len());
        self.write_to(&mut buf);
        buf
    }

    /// Encode straight into a caller-owned buffer: one `reserve` of the
    /// exact encoded length, then a single append pass — the zero-copy
    /// path the links use to build framed messages without an
    /// intermediate allocation.
    pub fn encode_into(&self, buf: &mut BytesMut) {
        buf.reserve(self.encoded_len());
        self.write_to(buf);
    }

    fn write_to(&self, buf: &mut BytesMut) {
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
                buf.put_u32_le(columns.len() as u32);
                for (column, data) in columns {
                    encode_column(column, buf);
                    put_vec(buf, data);
                }
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
                debug_assert!(
                    !matches!(**inner, Message::Tagged { .. }),
                    "query envelopes never nest"
                );
                buf.put_u8(19);
                buf.put_u64_le(*query);
                // The payload writes directly into the envelope's buffer —
                // no intermediate encode-then-copy.
                inner.write_to(buf);
            }
            Message::Register {
                role,
                domain,
                capacity,
                generation,
            } => {
                buf.put_u8(20);
                buf.put_u8(match role {
                    NodeRole::ShardWorker => 0,
                    NodeRole::AnnouncerCtl => 1,
                    NodeRole::AnnouncerUpload => 2,
                });
                buf.put_u32_le(*domain);
                buf.put_u64_le(*capacity);
                buf.put_u64_le(*generation);
            }
            Message::RegisterAck {
                accepted,
                node,
                generation,
                start,
                len,
            } => {
                buf.put_u8(21);
                buf.put_u8(u8::from(*accepted));
                buf.put_u64_le(*node);
                buf.put_u64_le(*generation);
                buf.put_u64_le(*start);
                buf.put_u64_le(*len);
            }
            Message::Ping { seq } => {
                buf.put_u8(22);
                buf.put_u64_le(*seq);
            }
            Message::Pong { seq, generation } => {
                buf.put_u8(23);
                buf.put_u64_le(*seq);
                buf.put_u64_le(*generation);
            }
            Message::Assign {
                generation,
                start,
                len,
            } => {
                buf.put_u8(24);
                buf.put_u64_le(*generation);
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
                buf.put_u32_le(columns.len() as u32);
                for (column, data) in columns {
                    encode_column(column, buf);
                    put_vec(buf, data);
                }
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
            6 => {
                let owner = need_u32(buf)?;
                let n = need_u32(buf)? as usize;
                let mut columns = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    let column = decode_column(buf)?;
                    let data = get_vec(buf)?;
                    columns.push((column, data));
                }
                Message::BulkUpload { owner, columns }
            }
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
                    capacity: need_u64(buf)?,
                    generation: need_u64(buf)?,
                }
            }
            21 => Message::RegisterAck {
                accepted: need(buf)? != 0,
                node: need_u64(buf)?,
                generation: need_u64(buf)?,
                start: need_u64(buf)?,
                len: need_u64(buf)?,
            },
            22 => Message::Ping {
                seq: need_u64(buf)?,
            },
            23 => Message::Pong {
                seq: need_u64(buf)?,
                generation: need_u64(buf)?,
            },
            24 => Message::Assign {
                generation: need_u64(buf)?,
                start: need_u64(buf)?,
                len: need_u64(buf)?,
            },
            25 => Message::NodeDown {
                node: need_u64(buf)?,
            },
            26 => {
                let owner = need_u32(buf)?;
                let start = need_u64(buf)?;
                let n = need_u32(buf)? as usize;
                let mut columns = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    let column = decode_column(buf)?;
                    let data = get_vec(buf)?;
                    columns.push((column, data));
                }
                Message::DeltaUpload {
                    owner,
                    start,
                    columns,
                    pf_s1_ext: get_map(buf)?,
                    pf_s2_ext: get_map(buf)?,
                }
            }
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
            t => return Err(WireError::BadTag(t)),
        })
    }

    /// What [`Message::decode`] returns for [`Message::encode`]'s bytes,
    /// built without them: an equal message whose every row vector sits in
    /// a wire-pool buffer exactly where the decoder draws one (so buffer
    /// flows through the pool are the same), or the decoder's error for a
    /// shape it refuses (a nested envelope, a wide matrix that is not a
    /// whole number of rows). In-process links hand the receiver this copy
    /// instead of encoding and decoding every frame.
    pub(crate) fn received_copy(&self) -> Result<Message, WireError> {
        Ok(match self {
            Message::BulkUpload { owner, columns } => Message::BulkUpload {
                owner: *owner,
                columns: pooled_columns(columns),
            },
            Message::RunBatch(batch) => Message::RunBatch(pooled_batch(batch)),
            Message::Outputs(outs) => Message::Outputs(pooled_copies(outs)),
            Message::ShardRun { shard, batch } => Message::ShardRun {
                shard: *shard,
                batch: pooled_batch(batch),
            },
            Message::ShardOutputs { shard, outputs } => Message::ShardOutputs {
                shard: *shard,
                outputs: pooled_copies(outputs),
            },
            Message::MaxCombine {
                uploads,
                threads,
                seq,
            } => Message::MaxCombine {
                uploads: uploads
                    .iter()
                    .map(|u| pooled_widevec(&u.shares).map(|shares| BlindedMaxUpload { shares }))
                    .collect::<Result<_, _>>()?,
                threads: *threads,
                seq: *seq,
            },
            Message::AssembleFpos { claims } => Message::AssembleFpos {
                claims: pooled_copies(claims),
            },
            Message::Fpos(rows) => Message::Fpos(pooled_copies(rows)),
            Message::WideUpload {
                server,
                seq,
                shares,
            } => Message::WideUpload {
                server: *server,
                seq: *seq,
                shares: pooled_widevec(shares)?,
            },
            Message::AnnounceReply(AnnouncerReply::Max(a)) => {
                Message::AnnounceReply(AnnouncerReply::Max(pooled_announcement(a)?))
            }
            Message::AnnounceReply(AnnouncerReply::Median(m)) => {
                let middles = m.middles.iter().map(pooled_announcement);
                Message::AnnounceReply(AnnouncerReply::Median(MedianAnnouncement {
                    middles: middles.collect::<Result<_, _>>()?,
                }))
            }
            Message::Tagged { inner, .. } if matches!(**inner, Message::Tagged { .. }) => {
                return Err(WireError::Malformed("nested query-tagged envelope"))
            }
            Message::Tagged { query, inner } => Message::Tagged {
                query: *query,
                inner: Box::new(inner.received_copy()?),
            },
            Message::DeltaUpload {
                owner,
                start,
                columns,
                pf_s1_ext,
                pf_s2_ext,
            } => Message::DeltaUpload {
                owner: *owner,
                start: *start,
                columns: pooled_columns(columns),
                pf_s1_ext: pf_s1_ext.clone(),
                pf_s2_ext: pf_s2_ext.clone(),
            },
            // No row vectors: the decoder builds these from fresh fields.
            Message::SetTamper(_)
            | Message::Ack
            | Message::Shutdown
            | Message::WideForwarded { .. }
            | Message::AnnounceRun { .. }
            | Message::SetAnnouncerTamper(_)
            | Message::Register { .. }
            | Message::RegisterAck { .. }
            | Message::Ping { .. }
            | Message::Pong { .. }
            | Message::Assign { .. }
            | Message::NodeDown { .. }
            | Message::RangeVersionProbe
            | Message::Versions(_) => self.clone(),
        })
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
            roundtrip(Message::Register {
                role,
                domain: 2,
                capacity: 1 << 40,
                generation: 7,
            });
        }
        roundtrip(Message::RegisterAck {
            accepted: true,
            node: 12,
            generation: 3,
            start: 128,
            len: 64,
        });
        roundtrip(Message::RegisterAck {
            accepted: false,
            node: 0,
            generation: 0,
            start: 0,
            len: 0,
        });
        roundtrip(Message::Ping { seq: u64::MAX });
        roundtrip(Message::Pong {
            seq: 41,
            generation: 9,
        });
        roundtrip(Message::Assign {
            generation: 4,
            start: 10,
            len: 90,
        });
        roundtrip(Message::NodeDown { node: 3 });
    }

    #[test]
    fn tagged_envelopes_roundtrip() {
        roundtrip(Message::RangeVersionProbe.tagged(0));
        roundtrip(
            Message::Pong {
                seq: 7,
                generation: 1,
            }
            .tagged(u64::MAX),
        );
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
        let pong = Message::Pong {
            seq: 12,
            generation: 3,
        };
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
