//! Per-layer probes, run single-threaded in the `layers` child process:
//! each public function of a layer timed in isolation, at the shape of
//! the workload its number is predicted to move (README.md has the
//! table). Layer = crate.module; every record carries that workload's name.
//!
//! - `inmem_scan_large`'s shape: `core`, the `protocol` kernels, the
//!   shard fan-out, `storage` and `workload`;
//! - `tcp_wide_serial`'s shape: its query's own two `ServerCmd`s, their
//!   frames through `wire` and the transports, and the stage sum;
//! - no shape (recorded under `elastic_small_mix`, the workload of tiny
//!   frames): small-frame codec, link round trips, the multiplexer.
//!
//! The `replay.*` spans are one `tcp_wide_serial` query taken apart:
//! every stage of both rounds — encode, link, decode, execute, encode,
//! link, decode — run alone. Their sum is `net.cluster.stage_sum_ms`;
//! what the real query takes beyond it is the unattributed share ROADMAP
//! item 1 has to explain.

use crate::alloc::{allocs_of, set_counting, snapshot};
use crate::bench::{Cfg, Workload};
use crate::data::{generate, OwnerData, Shape};
use crate::report::{Record, Records};
use crate::stats::median;
use crate::trace::{now_ns, Span, SpanBuf};
use crate::workloads::inmem_scan_large::InmemScanLarge;
use crate::workloads::tcp_wide_serial::TcpWideSerial;
use crate::workloads::{initiate, share_all, Columns};
use prism_core::Prg;
use prism_net::{channel_pair, Admission, Column, Link, Message, MuxLink, TcpLink};
use prism_protocol::engine::{
    Announcer, AnnouncerCmd, AnnouncerReply, InMemoryExec, RoundOutcome, ServerCmd, ServerReply,
};
use prism_protocol::params::SHAMIR_SERVERS;
use prism_protocol::tables::{share_indicator, share_payload};
use prism_protocol::{plans, psi, psu, sum};
use prism_protocol::{Engine, QueryBatch, ServerExec, ServerNode, Setup, ShardedNode};
use prism_storage::{decode_column, encode_column, ServerStore};
use prism_workload::outsource::outsource_owner;
use prism_workload::LineItemConfig;
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Calls of a probed function: at least `MIN_CALLS`, then until
/// `BUDGET` is spent or `MAX_CALLS` are made. The median is reported.
const MIN_CALLS: usize = 3;
const MAX_CALLS: usize = 25;
const BUDGET: Duration = Duration::from_millis(120);
/// Round trips per small-message latency probe.
const SMALL_ROUND_TRIPS: usize = 2000;
/// One-way transfers per large-frame bandwidth probe.
const LARGE_TRANSFERS: usize = 12;

/// Median seconds of one call of `f`, after one warm-up call.
fn seconds(mut f: impl FnMut()) -> f64 {
    f();
    let started = Instant::now();
    let mut calls = Vec::with_capacity(MAX_CALLS);
    while calls.len() < MIN_CALLS || (calls.len() < MAX_CALLS && started.elapsed() < BUDGET) {
        let t = Instant::now();
        f();
        calls.push(t.elapsed().as_secs_f64());
    }
    median(&calls)
}

fn ms(f: impl FnMut()) -> f64 {
    seconds(f) * 1e3
}

/// Million cells per second when one call of `f` processes `cells`.
fn mcells_s(cells: usize, f: impl FnMut()) -> f64 {
    cells as f64 / 1e6 / seconds(f)
}

/// A backend decorator that keeps a copy of every round's commands — how
/// the probes get a workload-shaped query's own `ServerCmd`s.
struct Recording<'a, X: ServerExec> {
    inner: &'a X,
    rounds: Mutex<Vec<Vec<(usize, ServerCmd)>>>,
}

impl<X: ServerExec> ServerExec for Recording<'_, X> {
    fn round(&self, cmds: Vec<(usize, ServerCmd)>) -> prism_protocol::Result<RoundOutcome> {
        self.rounds
            .lock()
            .expect("single-threaded probe")
            .push(cmds.clone());
        self.inner.round(cmds)
    }

    fn announce(
        &self,
        cmd: AnnouncerCmd,
        seq: u64,
        threads: usize,
    ) -> prism_protocol::Result<(AnnouncerReply, Duration)> {
        self.inner.announce(cmd, seq, threads)
    }
}

/// Everything the probes share: parameters, plaintext, three unsharded
/// nodes holding the `OK`/`Agg(0)`/`aOK` shares, and a copy of what
/// server 0 holds (the kernels and the sharded node take it as input).
struct Bench {
    setup: Setup,
    data: Vec<OwnerData>,
    nodes: Vec<ServerNode>,
    /// Per owner, server 0's uploaded columns.
    server0: Vec<Columns>,
}

impl Bench {
    fn new(shape: Shape, seed: u64) -> Bench {
        let setup = initiate(shape, seed);
        let data = generate(seed, 0, shape);
        let mut nodes: Vec<ServerNode> =
            setup.servers.iter().cloned().map(ServerNode::new).collect();
        let mut server0 = Vec::with_capacity(data.len());
        for (j, per_server) in share_all(&setup.owner, &data, false, seed)
            .into_iter()
            .enumerate()
        {
            server0.push(per_server[0].clone());
            for (node, columns) in nodes.iter_mut().zip(per_server) {
                for (column, shares) in columns {
                    node.store(j, column, shares);
                }
            }
        }
        Bench {
            setup,
            data,
            nodes,
            server0,
        }
    }

    /// Every owner's share of `column` at server 0.
    fn at_server0(&self, column: Column) -> Vec<&[u64]> {
        self.server0
            .iter()
            .flatten()
            .filter(|(c, _)| *c == column)
            .map(|(_, shares)| shares.as_slice())
            .collect()
    }
}

/// Run every probe and write the `replay.*` spans to
/// `target/benchmark/trace-layers.jsonl`.
pub fn run(cfg: &Cfg) -> Vec<Record> {
    let mut spans = SpanBuf::recording(0, 64);
    let mut scan = Records::new(InmemScanLarge::NAME);
    {
        let shape = InmemScanLarge::shape(cfg);
        let b = Bench::new(shape, cfg.seed);
        core(&b, &mut scan);
        kernels(&b, &mut scan);
        let query = Query::record(&b);
        owner_kernels(&b, &query, &mut scan);
        fanout(&b, &query, &mut scan);
        storage_and_workload(shape, &b, cfg.seed, &mut scan);
    }
    let mut wide = Records::new(TcpWideSerial::NAME);
    let mut small = Records::new("elastic_small_mix");
    {
        let b = Bench::new(TcpWideSerial::shape(cfg), cfg.seed);
        let replay = replay(&b, &Query::record(&b), &mut spans, &mut wide);
        wide.put("net.cluster.stage_sum_ms", replay.stage_sum_ms());
        large_frames(&replay, &mut wide);
    }
    small_frames(&mut small);
    let path = std::path::Path::new("target/benchmark/trace-layers.jsonl");
    if let Err(e) = crate::trace::write_jsonl(path, "layers", &[spans]) {
        eprintln!("cannot write {}: {e}", path.display());
    }
    [scan.list, wide.list, small.list].concat()
}

fn core(b: &Bench, out: &mut Records) {
    let op = &b.setup.owner;
    let cells = op.b;
    let d = &b.data[0];
    let mut prg = Prg::from_seed(7);
    out.put(
        "core.shamir.share_mcells_s",
        mcells_s(cells, || {
            black_box(op.field.share_vector(&d.sums, SHAMIR_SERVERS, &mut prg));
        }),
    );
    out.put(
        "core.additive.share_mcells_s",
        mcells_s(cells, || {
            black_box(prism_core::share_vector2(&d.indicator, op.delta, &mut prg));
        }),
    );
    let cols = op.field.share_vector(&d.sums, SHAMIR_SERVERS, &mut prg);
    let lambda = op.field.lagrange_at_zero(SHAMIR_SERVERS);
    out.put(
        "core.shamir.reconstruct_mcells_s",
        mcells_s(cells, || {
            let mut acc = 0u64;
            for ((&y0, &y1), &y2) in cols[0].iter().zip(&cols[1]).zip(&cols[2]) {
                acc ^= op.field.reconstruct_raw_with(&[y0, y1, y2], &lambda);
            }
            black_box(acc);
        }),
    );
    let mut permuted = vec![0u64; cells];
    out.put(
        "core.perm.apply_mcells_s",
        mcells_s(cells, || {
            op.pf_db1.apply_into(&d.sums, &mut permuted);
            black_box(permuted[0]);
        }),
    );
    let mut blinding = vec![0u64; cells];
    out.put(
        "core.prg.blinding_mcells_s",
        mcells_s(cells, || {
            Prg::from_seed(11).blinding_into(&mut blinding, op.delta);
            black_box(blinding[0]);
        }),
    );
}

fn kernels(b: &Bench, out: &mut Records) {
    let op = &b.setup.owner;
    let sp = &b.setup.servers[0];
    let cells = op.b;
    let d = &b.data[0];
    let mut prg = Prg::from_seed(13);
    // One owner's three plaintext columns, as every set-up and append shares them.
    out.put(
        "protocol.tables.sharegen_mcells_s",
        mcells_s(3 * cells, || {
            black_box(share_indicator(&d.indicator, op.delta, &mut prg));
            black_box(share_payload(&d.sums, &op.field, &mut prg));
            black_box(share_payload(&d.counts, &op.field, &mut prg));
        }),
    );

    let ok = b.at_server0(Column::Ok);
    let agg = b.at_server0(Column::Agg(0));
    let table = sp.power_table();
    let mut rand = vec![0u64; cells];
    Prg::from_seed(sp.psu_prg_seed).blinding_into(&mut rand, sp.delta);
    let z = agg[0];
    let mut buf = vec![0u64; cells];
    let psi_round = |buf: &mut [u64]| {
        psi::server_psi_round_into(&ok, sp, &table, buf, 1).expect("psi round");
    };
    let psu_round = |buf: &mut [u64]| {
        psu::server_psu_round_into(&ok, &rand, sp, buf, 1).expect("psu round");
    };
    let sum_round = |buf: &mut [u64]| {
        sum::server_sum_round_into(&agg, z, sp, buf, 1).expect("sum round");
    };
    out.put(
        "protocol.psi.server_round_mcells_s",
        mcells_s(cells, || psi_round(&mut buf)),
    );
    out.put(
        "protocol.psu.server_round_mcells_s",
        mcells_s(cells, || psu_round(&mut buf)),
    );
    out.put(
        "protocol.sum.server_round_mcells_s",
        mcells_s(cells, || sum_round(&mut buf)),
    );
    let allocs = allocs_of(|| psi_round(&mut buf))
        + allocs_of(|| psu_round(&mut buf))
        + allocs_of(|| sum_round(&mut buf));
    out.put("protocol.kernels.allocs_per_call", allocs as f64);
}

/// One batched aggregation query at a probe's shape, run in process:
/// the engine's owner time, and per round every server's command with
/// the vectors it answered.
struct Query {
    owner_ms: f64,
    rounds: Vec<Vec<(ServerCmd, Vec<Vec<u64>>)>>,
}

impl Query {
    fn record(b: &Bench) -> Query {
        let announcer = Announcer::new(b.setup.announcer.clone());
        let direct = InMemoryExec::new(&b.nodes, &announcer);
        let recording = Recording {
            inner: &direct,
            rounds: Mutex::new(Vec::new()),
        };
        let batch = QueryBatch::new().sum(0).avg(0).count_tuples();
        let plan = plans::Batch {
            batch: &batch,
            seed: 17,
        };
        let engine = Engine::new(&recording, &b.setup.owner);
        let owner_times: Vec<f64> = (0..MIN_CALLS + 2)
            .map(|_| {
                let (_, stats) = engine.run(&plan).expect("batch query");
                stats.owner_time().as_secs_f64() * 1e3
            })
            .collect();
        let mut recorded = recording
            .rounds
            .into_inner()
            .expect("single-threaded probe");
        recorded.truncate(2); // one query is two rounds
        let rounds = recorded
            .into_iter()
            .map(|cmds| {
                cmds.into_iter()
                    .map(|(server, cmd)| {
                        let ServerReply::Vectors(vectors) =
                            b.nodes[server].execute(&cmd).expect("execute")
                        else {
                            unreachable!("Run answers with vectors")
                        };
                        (cmd, vectors)
                    })
                    .collect()
            })
            .collect();
        Query {
            owner_ms: median(&owner_times),
            rounds,
        }
    }
}

/// Owner finalize, on the servers' real outputs.
fn owner_kernels(b: &Bench, query: &Query, out: &mut Records) {
    let op = &b.setup.owner;
    let (psi_out, sum_out) = (&query.rounds[0], &query.rounds[1]);
    out.put(
        "protocol.psi.owner_combine_mcells_s",
        mcells_s(op.b, || {
            black_box(psi::owner_combine(&psi_out[0].1[0], &psi_out[1].1[0], op).expect("combine"));
        }),
    );
    out.put(
        "protocol.sum.owner_finalize_mcells_s",
        mcells_s(op.b, || {
            let columns = [
                &sum_out[0].1[0][..],
                &sum_out[1].1[0][..],
                &sum_out[2].1[0][..],
            ];
            black_box(sum::owner_finalize(columns, op).expect("finalize"));
        }),
    );
}

/// The round-2 command through a two-shard node against the plain node:
/// what fan-out, merge and the finishing permutation cost.
fn fanout(b: &Bench, query: &Query, out: &mut Records) {
    let (cmd, _) = &query.rounds[1][0];
    let plain_ms = ms(|| {
        black_box(b.nodes[0].execute(cmd).expect("execute"));
    });
    let mut sharded = ShardedNode::new(b.setup.servers[0].clone(), 2);
    for (j, columns) in b.server0.iter().enumerate() {
        for (column, shares) in columns {
            sharded.store(j, *column, shares.clone());
        }
    }
    let sharded_ms = ms(|| {
        black_box(sharded.execute(cmd).expect("sharded execute"));
    });
    out.put("protocol.shard.fanout_overhead_ms", sharded_ms - plain_ms);
}

/// One stage of the taken-apart query.
#[derive(Debug, Clone, Copy, Default)]
struct Frame {
    bytes: usize,
    encode_ms: f64,
    decode_ms: f64,
    link_ms: f64,
}

/// The isolated stages of one `tcp_wide_serial` query.
struct Replay {
    owner_ms: f64,
    /// Per round: request frame, server execute, reply frame.
    rounds: Vec<(Frame, f64, Frame)>,
    /// The round-2 request and reply, reused by the transport probes.
    request: Message,
    reply: Message,
}

impl Replay {
    fn stage_sum_ms(&self) -> f64 {
        self.owner_ms
            + self
                .rounds
                .iter()
                .map(|(req, execute, rep)| {
                    let frame = |f: &Frame| f.encode_ms + f.link_ms + f.decode_ms;
                    frame(req) + execute + frame(rep)
                })
                .sum::<f64>()
    }
}

fn frame(msg: &Message) -> Frame {
    let encoded = msg.encode();
    Frame {
        bytes: encoded.len(),
        encode_ms: ms(|| {
            black_box(msg.encode());
        }),
        decode_ms: ms(|| {
            black_box(Message::decode(&encoded).expect("decode"));
        }),
        link_ms: raw_tcp_ms(encoded.len() + 4),
    }
}

/// Milliseconds for `bytes` to cross a loopback TCP socket, written with
/// one `write_all` and read with one `read_exact` like a `TcpLink` frame,
/// but with no encoding at either end.
fn raw_tcp_ms(bytes: usize) -> f64 {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let mut tx = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
    let (mut rx, _) = listener.accept().expect("accept");
    tx.set_nodelay(true).ok();
    let payload = vec![0x5Au8; bytes];
    let mut sink = vec![0u8; bytes];
    std::thread::scope(|scope| {
        // The peer drains each frame and answers with one byte, so a
        // transfer is timed until its last byte has been read.
        scope.spawn(|| {
            while rx.read_exact(&mut sink).is_ok() {
                if rx.write_all(&[1]).is_err() {
                    break;
                }
            }
        });
        let mut ack = [0u8; 1];
        let t = ms(|| {
            tx.write_all(&payload).expect("write");
            tx.read_exact(&mut ack).expect("ack");
        });
        tx.shutdown(std::net::Shutdown::Both).ok();
        t
    })
}

fn replay_span(
    spans: &mut SpanBuf,
    parent: Option<u32>,
    name: &'static str,
    at: &mut u64,
    ms: f64,
) {
    let end = *at + (ms * 1e6) as u64;
    spans.push(Span {
        name,
        start_ns: *at,
        end_ns: end,
        parent,
        request: None,
    });
    *at = end;
}

/// Take `query` apart: each stage of both rounds timed alone. Servers
/// work in parallel, so the replay follows server 0, which is in both.
fn replay(b: &Bench, query: &Query, spans: &mut SpanBuf, out: &mut Records) -> Replay {
    let mut rounds = Vec::new();
    let mut round2 = None;
    for per_server in &query.rounds {
        let (cmd, vectors) = &per_server[0];
        let ServerCmd::Run(run) = cmd else {
            unreachable!("a batch plan issues only Run commands")
        };
        let execute_ms = ms(|| {
            black_box(b.nodes[0].execute(cmd).expect("execute"));
        });
        let request = Message::RunBatch(run.clone()).tagged(1);
        let reply = Message::Outputs(vectors.clone()).tagged(1);
        rounds.push((frame(&request), execute_ms, frame(&reply)));
        round2 = Some((request, reply));
    }
    out.put("protocol.engine.round1_execute_ms", rounds[0].1);
    out.put("protocol.engine.round2_execute_ms", rounds[1].1);

    let (request, reply) = round2.expect("two rounds");
    let (req, _, rep) = rounds[1];
    out.put("net.wire.encode_request_ms", req.encode_ms);
    out.put("net.wire.decode_request_ms", req.decode_ms);
    out.put("net.wire.encode_reply_ms", rep.encode_ms);
    out.put("net.wire.decode_reply_ms", rep.decode_ms);
    out.put("net.wire.request_bytes", req.bytes as f64);
    out.put("net.wire.reply_bytes", rep.bytes as f64);
    let encoded_reply = reply.encode();
    out.put(
        "net.wire.decode_allocs_per_frame",
        allocs_of(|| {
            black_box(Message::decode(&encoded_reply).expect("decode"));
        }) as f64,
    );

    // The taken-apart query as spans, laid end to end.
    let parent = spans.open("replay", None);
    let mut at = now_ns();
    replay_span(spans, parent, "replay.owner", &mut at, query.owner_ms);
    for (req, execute, rep) in &rounds {
        for (name, ms) in [
            ("replay.encode_request", req.encode_ms),
            ("replay.link_request", req.link_ms),
            ("replay.decode_request", req.decode_ms),
            ("replay.execute", *execute),
            ("replay.encode_reply", rep.encode_ms),
            ("replay.link_reply", rep.link_ms),
            ("replay.decode_reply", rep.decode_ms),
        ] {
            replay_span(spans, parent, name, &mut at, ms);
        }
    }
    spans.close_at(parent, at);

    Replay {
        owner_ms: query.owner_ms,
        rounds,
        request,
        reply,
    }
}

/// A peer that sends every message straight back.
fn echo(link: impl Link + 'static) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        while let Ok(msg) = link.recv() {
            if link.send(&msg).is_err() {
                break;
            }
        }
    })
}

/// Microseconds per round trip of a small message over `a`, whose peer echoes.
fn small_rtt_us(a: &dyn Link) -> f64 {
    let ping = Message::Ack.tagged(1);
    seconds(|| {
        for _ in 0..SMALL_ROUND_TRIPS {
            a.send(&ping).expect("send");
            black_box(a.recv().expect("recv"));
        }
    }) * 1e6
        / SMALL_ROUND_TRIPS as f64
}

/// MB/s of `msg` sent one way over `a` and acknowledged by `b`.
fn large_mb_s(a: &dyn Link, b: &(dyn Link + Sync), msg: &Message) -> f64 {
    let bytes = msg.encoded_len() as f64;
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for _ in 0..LARGE_TRANSFERS {
                black_box(b.recv().expect("recv"));
                b.send(&Message::Ack).expect("ack");
            }
        });
        let mut took = Vec::with_capacity(LARGE_TRANSFERS);
        for _ in 0..LARGE_TRANSFERS {
            let t = Instant::now();
            a.send(msg).expect("send");
            a.recv().expect("ack");
            took.push(t.elapsed().as_secs_f64());
        }
        bytes / 1e6 / median(&took)
    })
}

/// The replayed query's round-2 frames over both transports.
fn large_frames(replay: &Replay, out: &mut Records) {
    let (a, b) = TcpLink::loopback_pair().expect("loopback");
    out.put(
        "net.transport.tcp_large_mb_s",
        large_mb_s(&a, &b, &replay.reply),
    );
    let (a, b) = channel_pair();
    out.put(
        "net.transport.channel_large_mb_s",
        large_mb_s(&a, &b, &replay.request),
    );
}

/// What a message costs whatever its size: codec and link round trips of
/// a small frame, the multiplexer over the link, admission.
fn small_frames(out: &mut Records) {
    let small = Message::Ack.tagged(7);
    const SMALL_FRAMES: usize = 10_000;
    out.put(
        "net.wire.small_frame_roundtrip_ns",
        seconds(|| {
            for _ in 0..SMALL_FRAMES {
                black_box(Message::decode(&small.encode()).expect("decode"));
            }
        }) * 1e9
            / SMALL_FRAMES as f64,
    );

    // A frame that fits the socket buffer can be sent and received on one
    // thread, so the receive side's allocations are counted alone.
    let (a, b) = TcpLink::loopback_pair().expect("loopback");
    let modest = Message::Outputs(vec![vec![7u64; 1024]]);
    a.send(&modest).expect("send");
    b.recv().expect("recv");
    a.send(&modest).expect("send");
    set_counting(true);
    let before = snapshot().0;
    black_box(b.recv().expect("recv"));
    let after = snapshot().0;
    set_counting(false);
    out.put(
        "net.transport.tcp_recv_allocs_per_frame",
        (after - before) as f64,
    );
    let peer = echo(b);
    let tcp_rtt = small_rtt_us(&a);
    out.put("net.transport.tcp_small_rtt_us", tcp_rtt);

    // The multiplexer over the same echoing link: a tagged request comes
    // back tagged, so the pump routes it to the waiting slot.
    let a: Arc<TcpLink> = Arc::new(a);
    let mux = MuxLink::new(Arc::clone(&a) as Arc<dyn Link>);
    let mut id = 0u64;
    let mux_rtt = seconds(|| {
        for _ in 0..SMALL_ROUND_TRIPS {
            id += 1;
            black_box(mux.request(id, Message::Ack).expect("request"));
        }
    }) * 1e6
        / SMALL_ROUND_TRIPS as f64;
    out.put("net.mux.request_overhead_us", mux_rtt - tcp_rtt);
    a.shutdown();
    peer.join().expect("echo peer");
    drop(mux);

    let admission = Admission::new(16);
    const ACQUIRES: usize = 10_000;
    out.put(
        "net.mux.admission_acquire_ns",
        seconds(|| {
            for _ in 0..ACQUIRES {
                black_box(admission.acquire(0));
            }
        }) * 1e9
            / ACQUIRES as f64,
    );

    let (a, b) = channel_pair();
    let peer = echo(b);
    out.put("net.transport.channel_small_rtt_us", small_rtt_us(&a));
    drop(a);
    peer.join().expect("echo peer");
}

fn storage_and_workload(shape: Shape, b: &Bench, seed: u64, out: &mut Records) {
    let cells = shape.cells;
    let generator = LineItemConfig::full(cells as u64, seed);
    out.put(
        "workload.lineitem.generate_mrows_s",
        mcells_s(cells, || {
            black_box(generator.generate_owner(0));
        }),
    );
    let rows = generator.generate_owner(0);
    let op = &b.setup.owner;
    out.put(
        "workload.outsource.owner_mcells_s",
        mcells_s(cells, || {
            black_box(outsource_owner(&rows, op, 1, true, seed));
        }),
    );

    let column = b.at_server0(Column::Ok)[0];
    let user_mb = column.len() as f64 * 8.0 / 1e6;
    let encoded = encode_column(column);
    out.put(
        "storage.codec.encode_mb_s",
        user_mb
            / seconds(|| {
                black_box(encode_column(column));
            }),
    );
    out.put(
        "storage.codec.decode_mb_s",
        user_mb
            / seconds(|| {
                black_box(decode_column(&encoded).expect("decode"));
            }),
    );

    let table = outsource_owner(&rows, op, 1, true, seed)
        .tables
        .swap_remove(0);
    let table_mb = table.total_values() as f64 * 8.0 / 1e6;
    let dir = std::path::PathBuf::from(format!(
        "target/benchmark/probe-store-{}",
        std::process::id()
    ));
    let store = ServerStore::open(&dir).expect("store");
    out.put(
        "storage.store.put_mb_s",
        table_mb / seconds(|| store.put(0, &table).expect("put")),
    );
    out.put(
        "storage.store.fetch_mb_s",
        table_mb
            / seconds(|| {
                black_box(store.fetch(0).expect("fetch"));
            }),
    );
    out.put(
        "storage.store.disk_bytes_per_user_byte",
        store.disk_bytes().expect("disk bytes") as f64 / (table_mb * 1e6),
    );
    if let Err(e) = std::fs::remove_dir_all(&dir) {
        eprintln!("cannot remove {}: {e}", dir.display());
    }
}
