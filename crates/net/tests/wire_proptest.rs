//! Property tests for the wire format: every message type — including the
//! batched round-2 query (full-domain *and* window-scoped), the
//! streaming-append messages (`DeltaUpload`/`RangeVersionProbe`/
//! `Versions`), the tamper-injection control messages, and the
//! wide-share announcer envelopes (`MaxCombine`/`WideUpload`/
//! `AnnounceRun`/`AnnounceReply`) and the control plane's
//! `Register`/`RegisterAck`/`Ping`/`Pong`/`NodeDown` — round-trips
//! through encode → decode unchanged, every strict prefix of an encoding
//! is rejected (all fields are length-prefixed or fixed-width, so
//! truncation can never decode successfully), and arbitrary byte soup
//! either fails to decode or decodes canonically (re-encoding reproduces
//! the consumed prefix). A channel link, which hands messages over
//! without the codec, delivers exactly what the codec would have, and a
//! TCP link fed hostile frame lengths answers with the decoded message or
//! a typed error.

use prism_core::wide::WideVec;
use prism_net::wire::{Column, Message, NodeRole, Op, WireError, TAGS};
use prism_net::{channel_pair, Link, NetError, TcpLink};
use prism_protocol::engine::{
    AnnouncerCmd, AnnouncerReply, BatchItem, BatchQuery, ColumnCut, Held,
};
use prism_protocol::malicious::{AnnouncerTamper, Tamper};
use prism_protocol::max::{BlindedMaxUpload, MaxAnnouncement};
use prism_protocol::median::MedianAnnouncement;
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::io::{ErrorKind, Write};
use std::net::{Shutdown, TcpListener, TcpStream};

/// The largest frame body a `TcpLink` accepts (64 MiB).
const MAX_FRAME_BYTES: u32 = 64 << 20;

/// A raw socket into a `TcpLink`'s peer: what any dialer of a listening
/// port holds.
fn raw_pair() -> (TcpStream, TcpLink) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let raw = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    let (peer, _) = listener.accept().unwrap();
    (raw, TcpLink::new(peer).unwrap())
}

fn arb_column(sel: u8, attr: u8) -> Column {
    match sel % 7 {
        0 => Column::Ok,
        1 => Column::VOk,
        2 => Column::OkDb1,
        3 => Column::OkDb2,
        4 => Column::Agg(attr),
        5 => Column::VAgg(attr),
        _ => Column::AOk,
    }
}

fn arb_op(sel: u8, attr: u8) -> Op {
    match sel % 10 {
        0 => Op::Psi,
        1 => Op::PsiVerify,
        2 => Op::Psu,
        3 => Op::PsuVerify(1 + attr % 2),
        4 => Op::Count,
        5 => Op::CountVerify(1 + attr % 2),
        6 => Op::Sum(attr),
        7 => Op::SumVerify(attr),
        8 => Op::SumCounts,
        _ => Op::CountVerifyComplement,
    }
}

fn arb_tamper(sel: u8, x: u64, y: u64) -> Tamper {
    match sel % 5 {
        0 => Tamper::Honest,
        1 => Tamper::SkipReplay { src: x as usize },
        2 => Tamper::ReplaceCell {
            src: x as usize,
            dst: y as usize,
        },
        3 => Tamper::InjectFake {
            cell: x as usize,
            seed: y,
        },
        _ => Tamper::TruncateFrom { from: x as usize },
    }
}

/// A wide matrix whose limb count is forced to a multiple of the width
/// (the codec's length invariant).
fn arb_widevec(data: &[u64], width_sel: u8) -> WideVec {
    let width = (width_sel % 4 + 1) as usize;
    let rows = data.len() / width;
    WideVec {
        width,
        data: data[..rows * width].to_vec(),
    }
}

fn arb_announcement(zs: &[Vec<u64>], data: &[u64], width_sel: u8) -> MaxAnnouncement {
    MaxAnnouncement {
        max_shares_1: arb_widevec(data, width_sel),
        max_shares_2: arb_widevec(data, width_sel.wrapping_add(1)),
        index_shares: zs
            .first()
            .map(|z| z.iter().map(|&x| (x, x.wrapping_mul(3))).collect())
            .unwrap_or_default(),
    }
}

fn arb_announcer_tamper(sel: u8, x: u64) -> AnnouncerTamper {
    match sel % 3 {
        0 => AnnouncerTamper::Honest,
        1 => AnnouncerTamper::AnnounceSlot(x as usize),
        _ => AnnouncerTamper::FakeValue { seed: x },
    }
}

#[allow(clippy::too_many_arguments)]
fn build_message(
    sel: u8,
    owner: u32,
    col_sel: u8,
    attr: u8,
    data: Vec<u64>,
    zs: Vec<Vec<u64>>,
    items_raw: Vec<(u8, u8, u8)>,
    threads: u32,
    t_sel: u8,
    tx: u64,
    ty: u64,
) -> Message {
    let batch = |zs: Vec<Vec<u64>>| BatchQuery {
        zs,
        items: items_raw
            .into_iter()
            .map(|(op_sel, a, z_flag)| BatchItem {
                op: arb_op(op_sel, a),
                z: (z_flag % 2 == 1).then_some(a),
            })
            .collect(),
        threads,
        // Exercise both the full-domain and the window-scoped encoding.
        range: (t_sel % 2 == 1).then_some((tx, ty)),
    };
    match sel % ARMS {
        0 => Message::BulkUpload {
            owner,
            columns: vec![(arb_column(col_sel, attr), data)],
        },
        1 => Message::RunBatch(batch(zs)),
        2 => Message::Outputs(zs),
        3 => Message::SetTamper(arb_tamper(t_sel, tx, ty)),
        4 => Message::Ack,
        5 => Message::BulkUpload {
            owner,
            columns: zs
                .into_iter()
                .enumerate()
                .map(|(i, d)| (arb_column(col_sel.wrapping_add(i as u8), attr), d))
                .collect(),
        },
        6 => Message::ShardRun {
            shard: owner,
            batch: batch(zs),
        },
        7 => Message::ShardOutputs {
            shard: owner,
            outputs: zs,
        },
        8 => Message::MaxCombine {
            uploads: zs
                .iter()
                .enumerate()
                .map(|(i, z)| BlindedMaxUpload {
                    shares: arb_widevec(z, col_sel.wrapping_add(i as u8)),
                })
                .collect(),
            threads,
            seq: ty,
        },
        9 => Message::AssembleFpos { claims: zs },
        // Owner-major, as servers relay it: one column of cells per owner.
        10 => Message::Fpos(
            (0..zs.len() as u32)
                .map(|j| data.iter().map(|x| x.rotate_left(j)).collect())
                .collect(),
        ),
        11 => Message::WideForwarded {
            rows: tx,
            width: owner,
            seq: ty,
        },
        12 => Message::WideUpload {
            server: owner,
            seq: ty,
            shares: arb_widevec(&data, col_sel),
        },
        13 => Message::AnnounceRun {
            cmd: if t_sel % 2 == 0 {
                AnnouncerCmd::FindMax
            } else {
                AnnouncerCmd::FindMedian
            },
            seq: ty,
            threads,
        },
        14 => Message::AnnounceReply(if t_sel % 2 == 0 {
            AnnouncerReply::Max(arb_announcement(&zs, &data, col_sel))
        } else {
            AnnouncerReply::Median(MedianAnnouncement {
                middles: (0..(t_sel % 3))
                    .map(|i| arb_announcement(&zs, &data, col_sel.wrapping_add(i)))
                    .collect(),
            })
        }),
        15 => Message::SetAnnouncerTamper(arb_announcer_tamper(t_sel, tx)),
        16 => Message::DeltaUpload {
            owner,
            start: tx,
            columns: zs
                .into_iter()
                .enumerate()
                .map(|(i, d)| (arb_column(col_sel.wrapping_add(i as u8), attr), d))
                .collect(),
            // Empty maps are the identity-extension encoding; non-empty
            // maps carry an explicit destination per appended row.
            pf_s1_ext: data.iter().map(|&x| x as u32).collect(),
            pf_s2_ext: if t_sel % 2 == 0 {
                Vec::new()
            } else {
                data.iter().map(|&x| (x >> 32) as u32).collect()
            },
        },
        17 => Message::RangeVersionProbe,
        18 => Message::Versions(data.chunks_exact(3).map(|c| (c[0], c[1], c[2])).collect()),
        19 => Message::FoldUpload {
            owner,
            epoch: tx,
            columns: zs
                .into_iter()
                .enumerate()
                .map(|(i, d)| (arb_column(col_sel.wrapping_add(i as u8), attr), d))
                .collect(),
        },
        // Per column a slice of the sum and a different number of owner
        // records, none included.
        20 => Message::Replay {
            columns: zs
                .into_iter()
                .enumerate()
                .map(|(i, summed)| ColumnCut {
                    column: arb_column(col_sel.wrapping_add(i as u8), attr),
                    summed,
                    held: data
                        .chunks_exact(2)
                        .skip(i)
                        .map(|c| Held {
                            rows: c[0] as usize,
                            epoch: c[1],
                        })
                        .collect(),
                })
                .collect(),
        },
        // Any UTF-8, multi-byte characters included.
        21 => Message::Refused(
            data.iter()
                .filter_map(|&x| char::from_u32(x as u32 % 0x11_0000))
                .collect(),
        ),
        22 => Message::Assign { start: tx, len: ty },
        23 => Message::Register {
            role: [
                NodeRole::ShardWorker,
                NodeRole::AnnouncerCtl,
                NodeRole::AnnouncerUpload,
            ][t_sel as usize % 3],
            domain: owner,
        },
        24 => Message::RegisterAck {
            accepted: t_sel % 2 == 1,
            node: tx,
            start: ty,
            len: tx ^ ty,
        },
        25 => Message::Ping { seq: tx },
        26 => Message::Pong { seq: ty },
        27 => Message::NodeDown { node: tx },
        _ => Message::Shutdown,
    }
}

/// Arms of [`build_message`]'s `sel`: one per tag of the message table
/// but the query envelope's, which `tagged` builds around them.
const ARMS: u8 = 29;

/// The generator reaches every row of the message table: its arms and the
/// query envelope put exactly the table's tags on the wire, and the
/// retired tags 0, 17 and 18 stay outside it, refused as `BadTag`.
#[test]
fn the_generator_covers_every_tag_of_the_table() {
    let mut generated: BTreeSet<u8> = (0..ARMS)
        .map(|sel| {
            let msg = build_message(sel, 1, 0, 0, vec![], vec![], vec![], 1, 0, 0, 0);
            msg.encode()[0]
        })
        .collect();
    generated.insert(Message::Ack.tagged(0).encode()[0]);
    assert_eq!(generated, TAGS.iter().copied().collect::<BTreeSet<u8>>());
    for retired in [0u8, 17, 18] {
        assert!(!TAGS.contains(&retired));
        assert_eq!(Message::decode(&[retired]), Err(WireError::BadTag(retired)));
    }
}

proptest! {
    #[test]
    fn every_message_roundtrips(
        sel in any::<u8>(),
        owner in any::<u32>(),
        col_sel in any::<u8>(),
        attr in any::<u8>(),
        data in vec(any::<u64>(), 0..40),
        zs in vec(vec(any::<u64>(), 0..24), 0..4),
        items_raw in vec((any::<u8>(), any::<u8>(), any::<u8>()), 0..6),
        threads in any::<u32>(),
        t_sel in any::<u8>(),
        tx in any::<u64>(),
        ty in any::<u64>(),
    ) {
        let msg = build_message(
            sel, owner, col_sel, attr, data, zs, items_raw, threads, t_sel, tx, ty,
        );
        let enc = msg.encode();
        prop_assert_eq!(Message::decode(&enc).unwrap(), msg);
    }

    #[test]
    fn every_truncation_is_rejected(
        sel in any::<u8>(),
        owner in any::<u32>(),
        col_sel in any::<u8>(),
        attr in any::<u8>(),
        data in vec(any::<u64>(), 0..12),
        zs in vec(vec(any::<u64>(), 0..8), 0..3),
        items_raw in vec((any::<u8>(), any::<u8>(), any::<u8>()), 0..4),
        threads in any::<u32>(),
        t_sel in any::<u8>(),
        tx in any::<u64>(),
        ty in any::<u64>(),
    ) {
        let msg = build_message(
            sel, owner, col_sel, attr, data, zs, items_raw, threads, t_sel, tx, ty,
        );
        let enc = msg.encode();
        for cut in 0..enc.len() {
            prop_assert!(
                Message::decode(&enc[..cut]).is_err(),
                "strict prefix of length {} decoded for {:?}",
                cut,
                Message::decode(&enc[..cut])
            );
        }
    }

    /// A restore's owner count is checked against the bytes the frame
    /// has left before anything is allocated: a `Replay` whose last
    /// column claims more owner records than follow — up to `u32::MAX` —
    /// is `Truncated`, however large the claim.
    #[test]
    fn replay_owner_counts_past_the_frame_are_refused(
        col_sel in any::<u8>(),
        attr in any::<u8>(),
        summed in vec(any::<u64>(), 0..8),
        held in vec((any::<u64>(), any::<u64>()), 0..6),
        excess in 1u32..=u32::MAX,
    ) {
        let owners = held.len();
        let msg = Message::Replay {
            columns: vec![ColumnCut {
                column: arb_column(col_sel, attr),
                summed,
                held: held
                    .into_iter()
                    .map(|(rows, epoch)| Held { rows: rows as usize, epoch })
                    .collect(),
            }],
        };
        let mut enc = msg.encode().to_vec();
        // The owner records close the frame, behind their u32 count.
        let at = enc.len() - 16 * owners - 4;
        let claimed = (owners as u32).saturating_add(excess);
        enc[at..at + 4].copy_from_slice(&claimed.to_le_bytes());
        prop_assert_eq!(Message::decode(&enc), Err(WireError::Truncated));
    }

    /// Arbitrary byte soup never panics the decoder, and anything that
    /// *does* decode is canonical: re-encoding it reproduces exactly the
    /// prefix the decoder consumed (there is no alternative encoding of
    /// any message, so a forged frame cannot smuggle extra state).
    #[test]
    fn garbage_decodes_canonically_or_errors(soup in vec(any::<u8>(), 0..256)) {
        if let Ok(msg) = Message::decode(&soup) {
            let enc = msg.encode();
            prop_assert!(enc.len() <= soup.len());
            prop_assert_eq!(&enc[..], &soup[..enc.len()]);
        }
    }

    /// Query-tagged envelopes around every message shape: the envelope
    /// round-trips bit-exactly and splits back into its tag and payload;
    /// every strict prefix is rejected (so a truncated envelope can never
    /// decode as a different query's frame); and wrapping the encoding in
    /// a second envelope is rejected as malformed (envelopes never nest,
    /// so one frame carries exactly one query identity).
    #[test]
    fn tagged_envelopes_roundtrip_and_reject_corruption(
        sel in any::<u8>(),
        owner in any::<u32>(),
        col_sel in any::<u8>(),
        attr in any::<u8>(),
        data in vec(any::<u64>(), 0..12),
        zs in vec(vec(any::<u64>(), 0..8), 0..3),
        items_raw in vec((any::<u8>(), any::<u8>(), any::<u8>()), 0..4),
        threads in any::<u32>(),
        t_sel in any::<u8>(),
        tx in any::<u64>(),
        ty in any::<u64>(),
        query in any::<u64>(),
    ) {
        let outer_query = query.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let inner = build_message(
            sel, owner, col_sel, attr, data, zs, items_raw, threads, t_sel, tx, ty,
        );
        let msg = inner.clone().tagged(query);
        let enc = msg.encode();
        prop_assert_eq!(Message::decode(&enc).unwrap(), msg.clone());
        prop_assert_eq!(msg.untag(), (Some(query), inner));
        for cut in 0..enc.len() {
            prop_assert!(
                Message::decode(&enc[..cut]).is_err(),
                "strict prefix of length {} of a tagged envelope decoded",
                cut
            );
        }
        // Hand-build the nested envelope (encode() debug-asserts against
        // producing one).
        let mut nested = vec![19u8];
        nested.extend_from_slice(&outer_query.to_le_bytes());
        nested.extend_from_slice(&enc);
        prop_assert!(Message::decode(&nested).is_err());
    }

    /// An in-process hop delivers what the wire would: over a channel
    /// link, every message shape, bare and in a query envelope, arrives
    /// equal to `decode(encode(msg))`, the link meters exactly
    /// `encoded_len()` bytes and one message for it, and a nested envelope
    /// fails at `recv` with the decoder's error.
    #[test]
    fn channel_hops_deliver_what_the_wire_would(
        sel in any::<u8>(),
        owner in any::<u32>(),
        col_sel in any::<u8>(),
        attr in any::<u8>(),
        data in vec(any::<u64>(), 0..40),
        zs in vec(vec(any::<u64>(), 0..24), 0..4),
        items_raw in vec((any::<u8>(), any::<u8>(), any::<u8>()), 0..6),
        threads in any::<u32>(),
        t_sel in any::<u8>(),
        tx in any::<u64>(),
        ty in any::<u64>(),
        query in any::<u64>(),
    ) {
        let (a, b) = channel_pair();
        let inner = build_message(
            sel, owner, col_sel, attr, data, zs, items_raw, threads, t_sel, tx, ty,
        );
        let tagged = inner.clone().tagged(query);
        for msg in [inner, tagged.clone()] {
            let (bytes, msgs) = a.stats().snapshot();
            a.send(&msg).unwrap();
            let wire = Message::decode(&msg.encode()).unwrap();
            prop_assert_eq!(b.recv().unwrap(), wire);
            let (sent_bytes, sent_msgs) = a.stats().snapshot();
            prop_assert_eq!(
                (sent_bytes - bytes, sent_msgs - msgs),
                (msg.encoded_len() as u64, 1)
            );
        }
        a.send(&tagged.tagged(query ^ 1)).unwrap();
        prop_assert!(matches!(
            b.recv(),
            Err(NetError::Wire(WireError::Malformed(_)))
        ));
    }

    /// One frame written raw into a TCP link's socket, then EOF: a length
    /// prefix past the link's limit, a prefix promising more bytes than
    /// follow, or an honest prefix over garbage (alone or after a valid
    /// encoding). `recv` answers with what `Message::decode` makes of the
    /// body or with a typed error — `FrameTooLarge` before a byte of the
    /// body is read, `Io` on the short read, `Wire` on a bad body — and
    /// never panics.
    #[test]
    fn framed_streams_with_adversarial_lengths_decode_or_error(
        shape in 0u8..3,
        lead in 0u8..3,
        soup in vec(any::<u8>(), 0..256),
        excess in 1u32..(1 << 20),
        huge in (MAX_FRAME_BYTES + 1)..=u32::MAX,
    ) {
        let mut body = match lead {
            0 => Vec::new(),
            1 => Message::Ack.encode().to_vec(),
            _ => Message::RangeVersionProbe.encode().to_vec(),
        };
        body.extend_from_slice(&soup);
        let prefix = match shape {
            0 => huge,
            1 => body.len() as u32 + excess,
            _ => body.len() as u32,
        };
        let (mut raw, link) = raw_pair();
        raw.write_all(&prefix.to_le_bytes()).unwrap();
        raw.write_all(&body).unwrap();
        raw.shutdown(Shutdown::Write).unwrap();
        match (shape, link.recv()) {
            (0, Err(NetError::FrameTooLarge { len })) => prop_assert_eq!(len, huge as usize),
            (1, Err(NetError::Io(e))) => prop_assert_eq!(e.kind(), ErrorKind::UnexpectedEof),
            (2, Ok(msg)) => prop_assert_eq!(Ok(msg), Message::decode(&body)),
            (2, Err(NetError::Wire(e))) => prop_assert_eq!(Err(e), Message::decode(&body)),
            (shape, other) => prop_assert!(false, "shape {}: {:?}", shape, other),
        }
    }
}
