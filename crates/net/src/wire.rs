//! Wire format: a small, explicit binary encoding for PRISM's messages.
//!
//! No general serialization framework is used on the wire — every message
//! the protocol can send is enumerated here with its encoding (tag byte +
//! length-prefixed fields), so the byte counts the transports meter are
//! exact and the format is trivially stable across versions of any
//! third-party crate.
//!
//! Every message is declared once, in the table [`Message`] is generated
//! from: its tag byte, its fields in wire order, what a sender does with
//! its row buffers, and the [`Edges`] of the topology that carry it. The
//! encoder, the decoder, the exact length, the in-place decodability
//! check, the tag and the admission edges are all derived from that one
//! table, over one codec per field type.
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
use std::sync::OnceLock;

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

/// A set of the deployment's edges — the kinds of link, named by who
/// sends on them. Each message's row of the message table names the
/// edges that carry it, and each serving loop admits only its own: a
/// message none of them carries is refused, naming only its tag and the
/// edges ([`crate::NetError::Unadmitted`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edges(u8);

macro_rules! edges {
    ($($(#[$doc:meta])* $name:ident = $bit:literal, $label:literal;)*) => {
        impl Edges {
            $($(#[$doc])* pub(crate) const $name: Edges = Edges(1 << $bit);)*
            const LABELS: [(Edges, &'static str); 8] = [$((Edges::$name, $label)),*];
        }
    };
}

edges! {
    /// An owner's link to a server domain: its router, or the one node of
    /// a router-less domain.
    OWNER_DOMAIN = 0, "owner → domain";
    /// A domain router's link to each of its shard workers.
    ROUTER_WORKER = 1, "router → worker";
    /// The registry's heal and keep-alive traffic to a worker, over the
    /// link the worker's router uses.
    REGISTRY_WORKER = 2, "registry → worker";
    /// A dialed connection's first message, to the registry's attach
    /// endpoint.
    TO_REGISTRY = 3, "→ registry";
    /// An additive server's wide-round uploads, on its own link to the
    /// announcer.
    SERVER_ANNOUNCER = 4, "server → announcer";
    /// The announcer's control link (the registry's keep-alive shares it).
    OWNER_ANNOUNCER = 5, "owner → announcer";
    /// A test's tamper control of a server, over the owner edge.
    TEST_SERVER = 6, "test control → server";
    /// A test's tamper control of the announcer, over its control link.
    TEST_ANNOUNCER = 7, "test control → announcer";
}

impl Edges {
    /// Whether one of these edges carries `msg`.
    pub(crate) fn carries(self, msg: &Message) -> bool {
        self.0 & msg.edges().0 != 0
    }
}

impl std::ops::BitOr for Edges {
    type Output = Edges;

    fn bitor(self, other: Edges) -> Edges {
        Edges(self.0 | other.0)
    }
}

impl std::fmt::Display for Edges {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut labels = (Edges::LABELS.iter())
            .filter(|(edge, _)| self.0 & edge.0 != 0)
            .map(|(_, label)| label);
        match labels.next() {
            None => write!(f, "no edge"),
            Some(first) => {
                write!(f, "the {first}")?;
                labels.try_for_each(|label| write!(f, " or {label}"))?;
                write!(f, " edge")
            }
        }
    }
}

/// Where the one encoder writes: a frame buffer, or [`Count`], which only
/// adds up the bytes — how [`Message::encoded_len`] is derived, so a
/// message's length is spelled once, by the code that writes it.
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

/// One codec per field type: how a value is written, read back and
/// checked, and what a sender does with it once it is written.
trait Wire: Sized {
    /// The fewest bytes an encoding takes. A list's count is checked
    /// against it, and the bytes the frame has left, before anything is
    /// allocated for the list.
    const MIN_LEN: usize = 1;
    /// Append the encoding.
    fn put(&self, buf: &mut impl Sink);
    /// Read one value, advancing `buf` past it.
    fn get(buf: &mut &[u8]) -> Result<Self, WireError>;
    /// [`Wire::get`]'s verdict on a value it could hold but would refuse
    /// to decode, without the bytes.
    fn check(&self) -> Result<(), WireError> {
        Ok(())
    }
    /// Hand the value's row buffers to the pool (anything else is freed).
    fn to_pool(self) {}
}

/// The fixed-width integers: the only reads of a frame's bytes, each
/// behind its length check.
macro_rules! wire_ints {
    ($($int:ty: $put:ident, $get:ident;)*) => {$(
        impl Wire for $int {
            const MIN_LEN: usize = std::mem::size_of::<$int>();

            fn put(&self, buf: &mut impl Sink) {
                buf.$put(*self);
            }

            fn get(buf: &mut &[u8]) -> Result<Self, WireError> {
                if buf.remaining() < Self::MIN_LEN {
                    return Err(WireError::Truncated);
                }
                Ok(buf.$get())
            }
        }
    )*};
}

wire_ints! {
    u8: put_u8, get_u8;
    u32: put_u32_le, get_u32_le;
    u64: put_u64_le, get_u64_le;
}

/// Row counts and cell indices travel as `u64`.
impl Wire for usize {
    const MIN_LEN: usize = 8;

    fn put(&self, buf: &mut impl Sink) {
        (*self as u64).put(buf);
    }

    fn get(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(u64::get(buf)? as usize)
    }
}

/// One byte, `0` or `1`: any other is refused, so a flag has one
/// encoding.
impl Wire for bool {
    fn put(&self, buf: &mut impl Sink) {
        u8::from(*self).put(buf);
    }

    fn get(buf: &mut &[u8]) -> Result<Self, WireError> {
        match u8::get(buf)? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(WireError::BadTag(t)),
        }
    }
}

/// A presence flag, then the value if present.
impl<T: Wire> Wire for Option<T> {
    fn put(&self, buf: &mut impl Sink) {
        self.is_some().put(buf);
        if let Some(value) = self {
            value.put(buf);
        }
    }

    fn get(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(match bool::get(buf)? {
            true => Some(T::get(buf)?),
            false => None,
        })
    }
}

/// Pairs and triples: their items in order.
macro_rules! wire_tuples {
    ($(($($item:ident $at:tt),+))*) => {$(
        impl<$($item: Wire),+> Wire for ($($item,)+) {
            const MIN_LEN: usize = 0 $(+ $item::MIN_LEN)+;

            fn put(&self, buf: &mut impl Sink) {
                $(self.$at.put(buf);)+
            }

            fn get(buf: &mut &[u8]) -> Result<Self, WireError> {
                Ok(($($item::get(buf)?,)+))
            }

            fn check(&self) -> Result<(), WireError> {
                $(self.$at.check()?;)+
                Ok(())
            }

            fn to_pool(self) {
                $(self.$at.to_pool();)+
            }
        }
    )*};
}

wire_tuples! { (A 0, B 1) (A 0, B 1, C 2) }

/// A row vector: its `u64` length, then its values — written a 4 KiB
/// block at a time, and read under one bounds check into a buffer from
/// the pool.
impl Wire for Vec<u64> {
    const MIN_LEN: usize = 8;

    fn put(&self, buf: &mut impl Sink) {
        self.len().put(buf);
        buf.put_u64s(self);
    }

    fn get(buf: &mut &[u8]) -> Result<Self, WireError> {
        let len = usize::get(buf)?;
        let nbytes = len.saturating_mul(8);
        if buf.remaining() < nbytes {
            return Err(WireError::Truncated);
        }
        let (rows, rest) = buf.split_at(nbytes);
        let mut out = pool::take_empty(len);
        out.extend(
            rows.chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk"))),
        );
        *buf = rest;
        Ok(out)
    }

    fn to_pool(self) {
        pool::recycle_vec(self);
    }
}

/// Lists: a count (`u32`, or `u64` for an announcement's index shares),
/// then the items.
macro_rules! wire_lists {
    ($($count:ty: $($item:ty),+;)*) => {$($(
        impl Wire for Vec<$item> {
            const MIN_LEN: usize = <$count as Wire>::MIN_LEN;

            fn put(&self, buf: &mut impl Sink) {
                (self.len() as $count).put(buf);
                self.iter().for_each(|item| item.put(buf));
            }

            fn get(buf: &mut &[u8]) -> Result<Self, WireError> {
                let n = <$count as Wire>::get(buf)? as usize;
                // A count the frame cannot carry is refused before any
                // allocation.
                if buf.remaining() < n.saturating_mul(<$item as Wire>::MIN_LEN) {
                    return Err(WireError::Truncated);
                }
                (0..n).try_fold(Vec::with_capacity(n), |mut items, _| {
                    items.push(<$item as Wire>::get(buf)?);
                    Ok(items)
                })
            }

            fn check(&self) -> Result<(), WireError> {
                self.iter().try_for_each(Wire::check)
            }

            fn to_pool(self) {
                self.into_iter().for_each(Wire::to_pool);
            }
        }
    )+)*};
}

wire_lists! {
    u32: Vec<u64>, (Column, Vec<u64>), ColumnCut, Held, BatchItem, BlindedMaxUpload,
        MaxAnnouncement, u32, (u64, u64, u64);
    u64: (u64, u64);
}

/// A refusal's reason: UTF-8 bytes behind a `u32` length.
impl Wire for String {
    const MIN_LEN: usize = 4;

    fn put(&self, buf: &mut impl Sink) {
        (self.len() as u32).put(buf);
        buf.put_slice(self.as_bytes());
    }

    fn get(buf: &mut &[u8]) -> Result<Self, WireError> {
        let n = u32::get(buf)? as usize;
        let bytes = buf.get(..n).ok_or(WireError::Truncated)?;
        let text = std::str::from_utf8(bytes)
            .map_err(|_| WireError::Malformed("refusal reason is not UTF-8"))?
            .to_owned();
        buf.advance(n);
        Ok(text)
    }
}

/// Wide matrices ship as `width ‖ limbs`; the row count is implied
/// (`limbs / width`), so the decoder *checks* divisibility rather than
/// trusting a redundant field.
impl Wire for WideVec {
    const MIN_LEN: usize = 12;

    fn put(&self, buf: &mut impl Sink) {
        (self.width as u32).put(buf);
        self.data.put(buf);
    }

    fn get(buf: &mut &[u8]) -> Result<Self, WireError> {
        let width = u32::get(buf)? as usize;
        let wide = WideVec {
            width,
            data: Wire::get(buf)?,
        };
        wide.check()?;
        Ok(wide)
    }

    fn check(&self) -> Result<(), WireError> {
        match (self.width, self.data.len()) {
            (0, 0) => Ok(()),
            (0, _) => Err(WireError::Malformed("wide matrix with zero width")),
            (width, limbs) if limbs % width != 0 => Err(WireError::Malformed(
                "wide matrix limb count not a multiple of its width",
            )),
            _ => Ok(()),
        }
    }
}

/// Records: their fields in wire order.
macro_rules! wire_structs {
    ($($name:ident { $($field:ident: $ty:ty),+ })*) => {$(
        impl Wire for $name {
            const MIN_LEN: usize = 0 $(+ <$ty as Wire>::MIN_LEN)+;

            fn put(&self, buf: &mut impl Sink) {
                $(self.$field.put(buf);)+
            }

            fn get(buf: &mut &[u8]) -> Result<Self, WireError> {
                Ok($name { $($field: <$ty as Wire>::get(buf)?),+ })
            }

            fn check(&self) -> Result<(), WireError> {
                $(self.$field.check()?;)+
                Ok(())
            }

            fn to_pool(self) {
                $(self.$field.to_pool();)+
            }
        }
    )*};
}

wire_structs! {
    BatchQuery { threads: u32, range: Option<(u64, u64)>, zs: Vec<Vec<u64>>, items: Vec<BatchItem> }
    BatchItem { op: Op, z: Option<u8> }
    ColumnCut { column: Column, summed: Vec<u64>, held: Vec<Held> }
    Held { rows: usize, epoch: u64 }
    BlindedMaxUpload { shares: WideVec }
    MaxAnnouncement {
        max_shares_1: WideVec,
        max_shares_2: WideVec,
        index_shares: Vec<(u64, u64)>
    }
    MedianAnnouncement { middles: Vec<MaxAnnouncement> }
}

/// Tagged unions: a tag byte, then the variant's fields in wire order.
/// Each row is `tag => Variant`, with `(binding: Type)` for a tuple
/// variant's one field or `{ field: Type, … }` for a struct variant's.
macro_rules! wire_enums {
    ($($name:ident {
        $($tag:literal => $variant:ident
            $(($one:ident: $one_ty:ty))?
            $({ $($field:ident: $ty:ty),+ })?),+ $(,)?
    })*) => {$(
        impl Wire for $name {
            fn put(&self, buf: &mut impl Sink) {
                match self {
                    $($name::$variant $(($one))? $({ $($field),+ })? => {
                        buf.put_u8($tag);
                        $($one.put(buf);)?
                        $($($field.put(buf);)+)?
                    })+
                }
            }

            fn get(buf: &mut &[u8]) -> Result<Self, WireError> {
                Ok(match u8::get(buf)? {
                    $($tag => $name::$variant
                        $((<$one_ty as Wire>::get(buf)?))?
                        $({ $($field: <$ty as Wire>::get(buf)?),+ })?,)+
                    t => return Err(WireError::BadTag(t)),
                })
            }

            fn check(&self) -> Result<(), WireError> {
                match self {
                    $($name::$variant $(($one))? $({ $($field),+ })? => {
                        $($one.check()?;)?
                        $($($field.check()?;)+)?
                        Ok(())
                    })+
                }
            }
        }
    )*};
}

wire_enums! {
    Column { 0 => Ok, 1 => VOk, 2 => OkDb1, 3 => OkDb2, 4 => Agg(attr: u8), 5 => VAgg(attr: u8), 6 => AOk }
    Op {
        0 => Psi, 1 => PsiVerify, 2 => Psu, 3 => PsuVerify(copy: u8), 4 => Count,
        5 => CountVerify(copy: u8), 6 => Sum(attr: u8), 7 => SumVerify(attr: u8), 8 => SumCounts,
        9 => CountVerifyComplement,
    }
    Tamper {
        0 => Honest,
        1 => SkipReplay { src: usize },
        2 => ReplaceCell { src: usize, dst: usize },
        3 => InjectFake { cell: usize, seed: u64 },
        4 => TruncateFrom { from: usize },
    }
    AnnouncerTamper { 0 => Honest, 1 => AnnounceSlot(slot: usize), 2 => FakeValue { seed: u64 } }
    AnnouncerCmd { 0 => FindMax, 1 => FindMedian }
    AnnouncerReply { 0 => Max(max: MaxAnnouncement), 1 => Median(median: MedianAnnouncement) }
    NodeRole { 0 => ShardWorker, 1 => AnnouncerCtl, 2 => AnnouncerUpload }
}

/// What a sender does with a message once its bytes are written:
/// `pooled` hands the row buffers in its fields to the pool, `freed`
/// drops them.
macro_rules! after_send {
    (pooled $($field:ident)*) => {{ $($field.to_pool();)* }};
    (freed $($field:ident)*) => {{ $(let _ = $field;)* }};
}

/// The message table. Each row is `tag => Variant` and its fields in wire
/// order (as for [`wire_enums`]), what a sender does with its buffers
/// ([`after_send`]), and the edges that carry it — none for a reply,
/// which only the requester's own wait admits.
macro_rules! messages {
    ($(
        $(#[$doc:meta])*
        $tag:literal => $variant:ident
            $(($one:ident: $one_ty:ty))?
            $({ $($(#[$field_doc:meta])* $field:ident: $ty:ty),+ $(,)? })?
            $buffers:ident [$($edge:ident),*],
    )*) => {
        /// Every message that can cross a PRISM link.
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub enum Message {
            $($(#[$doc])* $variant $(($one_ty))? $({ $($(#[$field_doc])* $field: $ty),+ })?,)*
        }

        wire_enums! {
            Message { $($tag => $variant $(($one: $one_ty))? $({ $($field: $ty),+ })?),* }
        }

        /// Every tag the message table assigns, in table order. Any other
        /// byte — the retired 0, 17 and 18 included — decodes as
        /// [`WireError::BadTag`].
        pub const TAGS: &[u8] = &[$($tag),*];

        impl Message {
            /// The edges that carry this message; none for a reply.
            pub(crate) fn edges(&self) -> Edges {
                match self {
                    $(Message::$variant { .. } => Edges(0 $(| Edges::$edge.0)*),)*
                }
            }

            /// The tag byte that opens the message's encoding.
            pub(crate) fn wire_tag(&self) -> u8 {
                match self {
                    $(Message::$variant { .. } => $tag,)*
                }
            }

            /// Hand the message's row buffers — a batch's `z`s, its
            /// outputs, an upload's columns, a restore's sums — to the
            /// pool: what a link does with a message it was given to send
            /// once the bytes are written. A wide round's matrices and
            /// claim tables are freed instead: the max and median kernels
            /// allocate their own, so only a decoder would ever draw them
            /// back, and pooled they would pile up beside the row buffers.
            pub(crate) fn recycle(self) {
                match self {
                    $(Message::$variant $(($one))? $({ $($field),+ })? => {
                        after_send!($buffers $($one)? $($($field)+)?)
                    })*
                }
            }
        }
    };
}

messages! {
    /// Phase 2: evaluate a batch of stored-column operations in one
    /// round-trip (the engine's [`BatchQuery`], verbatim).
    1 => RunBatch(batch: BatchQuery) pooled [OWNER_DOMAIN],
    /// Phase 3: a server's per-item outputs for one [`Message::RunBatch`].
    2 => Outputs(outputs: Vec<Vec<u64>>) pooled [],
    /// Attach a tampering behaviour to the receiving server (tests: the
    /// failure-injection matrix runs over the wire too).
    3 => SetTamper(tamper: Tamper) freed [TEST_SERVER],
    /// Acknowledgement (upload / tamper receipt). Also the announcer's
    /// failure marker: an [`Message::AnnounceRun`] that cannot produce an
    /// announcement (missing/crossed uploads, mismatched matrices) is
    /// answered with `Ack`, which the owner surfaces as a protocol error.
    4 => Ack freed [],
    /// Orderly shutdown.
    5 => Shutdown freed [OWNER_DOMAIN, ROUTER_WORKER, OWNER_ANNOUNCER],
    /// Phase 1: put any number of one owner's share columns at one server
    /// in a single round-trip (the upload-side mirror of
    /// [`Message::RunBatch`]) — usually the owner's whole per-server
    /// table. Answered with [`Message::Ack`], or [`Message::Refused`]
    /// when the owner already holds rows of a column.
    6 => BulkUpload {
        /// Owner index.
        owner: u32,
        /// `(column, share values)` pairs, stored in order.
        columns: Vec<(Column, Vec<u64>)>,
    } pooled [OWNER_DOMAIN, ROUTER_WORKER],
    /// Shard envelope, domain router → shard worker: evaluate a row-range
    /// sub-batch. The shard index is echoed in the reply so the router
    /// detects crossed links before merging rows.
    7 => ShardRun {
        /// Row-range shard index within the domain.
        shard: u32,
        /// The row-sliced sub-batch.
        batch: BatchQuery,
    } pooled [ROUTER_WORKER],
    /// Shard envelope, worker → router: per-item outputs for one
    /// [`Message::ShardRun`], tagged with the answering shard.
    8 => ShardOutputs {
        /// Echoed shard index.
        shard: u32,
        /// Per-item row-range outputs.
        outputs: Vec<Vec<u64>>,
    } pooled [],
    /// Max/median round 2, owner → additive server: the owners' blinded
    /// wide uploads ([`ServerCmd::MaxCombine`](prism_protocol::engine::ServerCmd)
    /// verbatim). The server's combined matrix travels on its *own*
    /// server→announcer link — never back through the owner — and the
    /// owner receives only a [`Message::WideForwarded`] receipt.
    9 => MaxCombine {
        /// Wide-round sequence number (echoed in the `WideUpload` and the
        /// `WideForwarded` receipt, and quoted by the `AnnounceRun`) — what
        /// lets the announcer refuse stale or crossed uploads.
        seq: u64,
        /// Worker threads the server should use.
        threads: u32,
        /// One blinded upload per owner, in owner order.
        uploads: Vec<BlindedMaxUpload>,
    } freed [OWNER_DOMAIN],
    /// Max round 3, owner → additive server: per-owner claim shares.
    10 => AssembleFpos {
        /// One claim vector per owner, in owner order.
        claims: Vec<Vec<u64>>,
    } freed [OWNER_DOMAIN],
    /// Reply to [`Message::AssembleFpos`]: the claim-share table relayed
    /// owner-major — one column of `cells` shares per owner, in owner
    /// order.
    11 => Fpos(table: Vec<Vec<u64>>) freed [],
    /// Reply to [`Message::MaxCombine`]: the shape of the matrix the
    /// server forwarded to the announcer (`rows == 0` marks failure).
    12 => WideForwarded {
        /// Rows of the forwarded matrix (`cells × m`).
        rows: u64,
        /// Limb width of the forwarded matrix.
        width: u32,
        /// Echoed wide-round sequence number.
        seq: u64,
    } freed [],
    /// Additive server → announcer: the `PF`-permuted combined share
    /// matrix for the pending announcement, tagged with the sender so the
    /// announcer can detect crossed links.
    13 => WideUpload {
        /// Sending server (0 or 1).
        server: u32,
        /// Echoed wide-round sequence number (the announcer discards
        /// uploads from superseded rounds).
        seq: u64,
        /// The combined `cells × m`-row share matrix.
        shares: WideVec,
    } freed [SERVER_ANNOUNCER],
    /// Owner → announcer: act on the two staged server uploads.
    14 => AnnounceRun {
        /// What to announce (max or median).
        cmd: AnnouncerCmd,
        /// The wide round whose uploads to act on.
        seq: u64,
        /// Worker threads the announcer should use.
        threads: u32,
    } freed [OWNER_ANNOUNCER],
    /// Announcer → owner: the announcement.
    15 => AnnounceReply(reply: AnnouncerReply) freed [],
    /// Attach a tampering behaviour to the announcer (tests), over the
    /// owner↔announcer control link.
    16 => SetAnnouncerTamper(tamper: AnnouncerTamper) freed [TEST_ANNOUNCER],
    // 17/18 carried the retired whole-store `VersionProbe`/`Version` pair
    // (subsumed by 27/28), and 0 the retired single-column `Upload` (a
    // one-column `BulkUpload` says the same). Reserved: never reassigned,
    // so an old peer's message is a `BadTag`, not a misread.
    /// Query-tagged envelope: any message, stamped with the query it
    /// belongs to. The multiplexer (`crate::mux`) wraps every request of
    /// a concurrent query in one of these; the serving loop echoes the
    /// tag on the reply, and the owner-side pump routes the reply into
    /// that query's completion slot — so N queries share one link
    /// without ever pairing a reply with the wrong round. Envelopes
    /// never nest: a `Tagged` inside a `Tagged` is rejected as
    /// malformed.
    19 => Tagged {
        /// The owning query's identifier (unique per cluster lifetime).
        query: u64,
        /// The payload message, verbatim.
        inner: Box<Message>,
    } pooled [],
    /// Node → registry: first message on a freshly dialed connection,
    /// announcing what this connection is. The control plane's remote
    /// attach: workers and the announcer join a running cluster by
    /// address instead of being wired in at construction time.
    20 => Register {
        /// What the connection carries.
        role: NodeRole,
        /// Which server domain (0..3) the node belongs to / uploads from.
        domain: u32,
    } freed [TO_REGISTRY],
    /// Registry → node: the verdict on a [`Message::Register`], carrying
    /// the node id the registry will know it by and its initial row-range
    /// assignment.
    21 => RegisterAck {
        /// Whether the registration was accepted.
        accepted: bool,
        /// Registry-assigned node id (stable for the node's lifetime).
        node: u64,
        /// First domain row of the assigned shard range.
        start: u64,
        /// Row count of the assigned shard range.
        len: u64,
    } freed [],
    /// Registry → node: keep-alive probe.
    22 => Ping {
        /// Probe sequence number, echoed in the [`Message::Pong`].
        seq: u64,
    } freed [REGISTRY_WORKER, OWNER_ANNOUNCER],
    /// Node → registry: keep-alive answer.
    23 => Pong {
        /// Echoed probe sequence number.
        seq: u64,
    } freed [],
    /// Registry → worker, during a heal: reset the worker to an empty
    /// store over this shard row range (the upload log's replay follows)
    /// and answer with [`Message::Ack`].
    24 => Assign {
        /// First domain row of the range.
        start: u64,
        /// Row count of the range.
        len: u64,
    } freed [REGISTRY_WORKER],
    /// Router → owner: a routed round failed because a shard worker's
    /// link is dead. Distinct from a tamper-shaped wrong answer — the
    /// owner maps this to [`crate::NetError::NodeDown`] so crash and
    /// corruption stay distinguishable.
    25 => NodeDown {
        /// Index of the dead worker within its domain.
        node: u64,
    } freed [],
    /// Phase 1, incremental: append rows `[start, start + added)` to an
    /// owner's outsourced columns without re-uploading the prefix. When
    /// the delta grows the domain (`start == b`), the permutation
    /// extensions carry the fresh block the server concatenates onto its
    /// finish permutations (empty maps mean identity blocks); existing
    /// rows, shard assignments and `row_offset`s are untouched, so only
    /// the appended range's version stamp moves.
    26 => DeltaUpload {
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
    } pooled [OWNER_DOMAIN, ROUTER_WORKER],
    /// Owner → server: probe the store's per-range version stamps
    /// ([`ServerCmd::RangeVersions`](prism_protocol::engine::ServerCmd)
    /// verbatim) — what the round cache validates range-scoped entries
    /// with. A sharded domain's router concatenates its workers' stamps
    /// in global row order.
    27 => RangeVersionProbe freed [OWNER_DOMAIN, ROUTER_WORKER],
    /// Server → owner: the store's `(start, len, version)` range stamps
    /// in global row coordinates, answering a
    /// [`Message::RangeVersionProbe`].
    28 => Versions(stamps: Vec<(u64, u64, u64)>) freed [],
    /// Update: add one owner's whole-column difference shares at `epoch`,
    /// which must be past each column's last. Answered with
    /// [`Message::Ack`], or [`Message::Refused`] for a stale or repeated
    /// epoch.
    29 => FoldUpload {
        /// Owner index.
        owner: u32,
        /// The update's epoch.
        epoch: u64,
        /// `(column, difference shares)` pairs, folded all or nothing.
        columns: Vec<(Column, Vec<u64>)>,
    } pooled [OWNER_DOMAIN, ROUTER_WORKER],
    /// A server's answer to a request it did not apply — its store is
    /// unchanged — with the reason. The owner surfaces a refused upload
    /// as [`crate::NetError::UploadRefused`].
    30 => Refused(why: String) freed [],
    /// Registry → worker, during a heal: restore the worker's whole row
    /// range into its freshly rebuilt store in one write
    /// (`ServerNode::restore`) — per column, the range's slice of the
    /// owners' sum and each owner's rows and fold epoch, so an update
    /// already folded in is refused if it arrives again. Answered with
    /// [`Message::Ack`], or [`Message::Refused`] when the store was
    /// written before or a column is malformed.
    31 => Replay {
        /// The range's cut of every stored column kind.
        columns: Vec<ColumnCut>,
    } pooled [REGISTRY_WORKER],
}

/// The query envelope's payload: any message but another envelope.
impl Wire for Box<Message> {
    fn put(&self, buf: &mut impl Sink) {
        // The payload writes directly into the envelope's buffer — no
        // intermediate encode-then-copy.
        (**self).put(buf);
    }

    fn get(buf: &mut &[u8]) -> Result<Self, WireError> {
        // The envelope's own tag, read off the table once. A nested
        // envelope is refused before its payload is read, so no frame can
        // nest envelopes as deep as its length allows.
        static ENVELOPE: OnceLock<u8> = OnceLock::new();
        let envelope = *ENVELOPE.get_or_init(|| Message::Ack.tagged(0).wire_tag());
        if buf.first() == Some(&envelope) {
            return Err(NESTED);
        }
        Ok(Box::new(Message::get(buf)?))
    }

    fn check(&self) -> Result<(), WireError> {
        if matches!(**self, Message::Tagged { .. }) {
            return Err(NESTED);
        }
        (**self).check()
    }

    fn to_pool(self) {
        (*self).recycle();
    }
}

const NESTED: WireError = WireError::Malformed("nested query-tagged envelope");

impl Message {
    /// Exact number of bytes [`Message::encode`] will produce: the
    /// encoder run over a byte `Count`, so row vectors cost one
    /// multiplication each and nothing is serialized.
    pub fn encoded_len(&self) -> usize {
        let mut count = Count(0);
        self.put(&mut count);
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
        self.put(buf);
    }

    /// Decode from bytes.
    pub fn decode(mut buf: &[u8]) -> Result<Message, WireError> {
        Message::get(&mut buf)
    }

    /// The decoder's verdict on this message's encoding, without the
    /// bytes: the [`Message::decode`] error for the two shapes a value can
    /// hold but the decoder refuses — a nested envelope, and a wide matrix
    /// that is not a whole number of rows. In-process links check this in
    /// place and hand the message itself over.
    pub(crate) fn check_decodable(&self) -> Result<(), WireError> {
        self.check()
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
    fn a_flag_has_one_encoding() {
        let mut ack = Message::RegisterAck {
            accepted: true,
            node: 1,
            start: 2,
            len: 3,
        }
        .encode()
        .to_vec();
        ack[1] = 2;
        assert_eq!(Message::decode(&ack), Err(WireError::BadTag(2)));
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
