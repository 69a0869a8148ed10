//! The load model shared by the four workloads: closed-loop clients, a
//! fixed operation count per repetition, untimed warm-up, medians over
//! one-second repetitions, each read against the time the hypervisor let
//! the VM run — and the traced variant that yields the per-layer numbers.

use crate::data::Shape;
use crate::metrics::{spread_name, Better};
use crate::report::Records;
use crate::stats::{better_quartile, median, percentile, sorted, spread};
use crate::trace::{now_ns, Span, SpanBuf};
use crate::{alloc, procfs};
use prism_net::NetReport;
use prism_protocol::QueryStats;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// How long one timed repetition lasts at the commit the rates were
/// calibrated on; a run of `--seconds` S is S of them. Short, so that a
/// burst of host noise spoils a few repetitions and not the run, and so
/// that each can be read against the steal the host imposed on it; long
/// against the 10 ms tick `/proc/stat` counts steal in.
const REP_SECONDS: f64 = 1.0;
/// No repetition may write off more than this share of its time as
/// stolen: past it, it says nothing about the program.
const MAX_STOLEN: f64 = 0.5;
/// The traced run alternates untraced and traced repetitions in this
/// order, so a drift across the run (the streaming workload's domain
/// grows) weighs on both kinds alike.
const TRACED_REPS: [bool; 4] = [false, true, true, false];
/// Untimed warm-up operations, as a share of the timed ones.
const WARMUP_SHARE: f64 = 0.10;
/// `setup_s` is the better quartile of at least `MIN_SETUPS` full
/// set-ups, each in a fresh process; cheap set-ups are repeated until
/// `SETUP_BUDGET` is spent or `MAX_SETUPS` are done.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 15;
const SETUP_BUDGET: Duration = Duration::from_secs(3);
/// The percentile of each operation kind's latency that stands for what
/// the operation costs when the host leaves it alone (`query_quiet_ms`).
const QUIET_PERCENTILE: f64 = 5.0;
/// No workload may hold more than this resident.
pub const PEAK_RSS_LIMIT_MB: f64 = 512.0;

#[derive(Debug, Clone, Copy)]
pub struct Cfg {
    pub seed: u64,
    /// How long the timed repetitions of one run last at the commit the
    /// rates were calibrated on; fixes the operation count.
    pub seconds: f64,
    pub trace: bool,
    /// Domain ÷ 20, one repetition, one set-up: a smoke run.
    pub quick: bool,
    /// After a traced run, also run the `layers` child and report its
    /// probes (the driver's form does; `all` runs that child once).
    pub probes: bool,
}

impl Cfg {
    pub fn cells(&self, full: usize) -> usize {
        if self.quick {
            full / 20
        } else {
            full
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Psi,
    Psu,
    Count,
    Batch,
    PsiVerified,
    PsuVerified,
    CountVerified,
    SumVerified,
    Max,
    Median,
    /// A batch over a row range (the streaming workload's warm query).
    RangeBatch,
    /// A streaming append: a write, not a query.
    Append,
}

impl OpKind {
    /// Operations that have a `protocol.plans.<name>_p50_ms` metric.
    pub const PLANS: [OpKind; 10] = [
        OpKind::Psi,
        OpKind::Psu,
        OpKind::Count,
        OpKind::Batch,
        OpKind::PsiVerified,
        OpKind::PsuVerified,
        OpKind::CountVerified,
        OpKind::SumVerified,
        OpKind::Max,
        OpKind::Median,
    ];

    pub fn name(self) -> &'static str {
        match self {
            OpKind::Psi => "psi",
            OpKind::Psu => "psu",
            OpKind::Count => "count",
            OpKind::Batch => "batch",
            OpKind::PsiVerified => "psi_verified",
            OpKind::PsuVerified => "psu_verified",
            OpKind::CountVerified => "count_verified",
            OpKind::SumVerified => "sum_verified",
            OpKind::Max => "max",
            OpKind::Median => "median",
            OpKind::RangeBatch => "range_batch",
            OpKind::Append => "append",
        }
    }

    pub fn is_query(self) -> bool {
        self != OpKind::Append
    }

    /// Names of the three stages a sample of this kind breaks into.
    fn stages(self) -> [&'static str; 3] {
        if self.is_query() {
            ["query.owner", "query.server", "query.announcer"]
        } else {
            ["append.grow", "append.sharegen", "append.delta_upload"]
        }
    }
}

/// One timed operation. The answer was compared with the oracle after
/// `latency` was taken.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub kind: OpKind,
    pub start_ns: u64,
    pub latency: Duration,
    /// Returned `Ok` and equal to the oracle.
    pub ok: bool,
    pub stats: QueryStats,
    /// Time per stage, named by [`OpKind::stages`].
    pub stages: [Duration; 3],
}

/// Time a query, then check its answer outside the latency interval.
pub fn timed_query<T, E: std::fmt::Display>(
    kind: OpKind,
    run: impl FnOnce() -> Result<(T, QueryStats), E>,
    check: impl FnOnce(&T) -> bool,
) -> Sample {
    let start_ns = now_ns();
    let t = Instant::now();
    let result = run();
    let latency = t.elapsed();
    let (ok, stats) = match &result {
        Ok((answer, stats)) => (check(answer), *stats),
        Err(e) => {
            eprintln!("{} failed: {e}", kind.name());
            (false, QueryStats::default())
        }
    };
    if !ok && result.is_ok() {
        eprintln!("{} answered differently from the oracle", kind.name());
    }
    Sample {
        kind,
        start_ns,
        latency,
        ok,
        stats,
        stages: [
            stats.owner_time(),
            stats.server_time(),
            stats.announcer_time(),
        ],
    }
}

/// A deployment plus its data, driven through public API only.
pub trait Workload: Sync + Sized {
    const NAME: &'static str;
    /// MiB touched before any timer starts: 1.25 × the peak resident set
    /// seen at the commit that defined the benchmark.
    const PREFAULT_MB: usize;
    /// Cycles one client completes per second at that commit on the
    /// reference host; turns `--seconds` into a fixed operation count.
    const CYCLES_PER_SECOND: f64;
    /// The operations one client issues per cycle, in order.
    const CYCLE: &'static [OpKind];

    /// Owners and cells; the probes of `layers.rs` run at these shapes.
    fn shape(cfg: &Cfg) -> Shape;
    /// Everything between process start and the first possible query,
    /// recorded as children of `parent`.
    fn setup(cfg: &Cfg, spans: &mut SpanBuf, parent: Option<u32>) -> Self;
    /// Compute the oracle (outside `setup_s`: it is the benchmark's
    /// work, not the system's) and return the digest of the inputs.
    fn arm(&mut self) -> u64;
    fn clients(&self) -> usize {
        1
    }
    /// Client `client`'s `seq`-th operation.
    fn op(&self, client: usize, seq: usize, kind: OpKind) -> Sample;
    fn net_report(&self) -> Option<NetReport> {
        None
    }
    /// Replies the owner-side link pumps dropped; each counts as a failure.
    fn rejected_replies(&self) -> u64 {
        0
    }
    /// Layer metrics only this deployment can give, measured after the
    /// traced repetitions (may break the deployment: it runs last).
    /// Returns how many of its checks failed.
    fn layer_metrics(&mut self, _cfg: &Cfg, _spans: &mut SpanBuf, _out: &mut Records) -> u64 {
        0
    }
    fn teardown(self);
}

/// Bytes and messages on the metered links, from a `NetReport`.
#[derive(Debug, Clone, Copy, Default)]
struct Wire {
    owner_bytes: u64,
    announcer_bytes: u64,
    msgs: u64,
    router_bytes: u64,
}

impl Wire {
    fn of(report: Option<NetReport>) -> Wire {
        let Some(r) = report else {
            return Wire::default();
        };
        let msgs = |v: &[(u64, u64)]| v.iter().map(|&(_, m)| m).sum::<u64>();
        let bytes = |v: &[(u64, u64)]| v.iter().map(|&(b, _)| b).sum::<u64>();
        Wire {
            owner_bytes: r.total_bytes(),
            announcer_bytes: r.announcer_bytes(),
            msgs: msgs(&r.to_servers)
                + msgs(&r.from_servers)
                + r.to_announcer.1
                + r.from_announcer.1
                + msgs(&r.server_to_announcer),
            router_bytes: r
                .to_shards
                .iter()
                .chain(&r.from_shards)
                .map(|v| bytes(v))
                .sum(),
        }
    }

    fn since(self, before: Wire) -> Wire {
        Wire {
            owner_bytes: self.owner_bytes - before.owner_bytes,
            announcer_bytes: self.announcer_bytes - before.announcer_bytes,
            msgs: self.msgs - before.msgs,
            router_bytes: self.router_bytes - before.router_bytes,
        }
    }
}

/// One repetition: every client's samples plus what the process and the
/// links did meanwhile.
struct Rep {
    traced: bool,
    samples: Vec<Sample>,
    wall: Duration,
    cpu: Duration,
    stolen: Duration,
    wire: Wire,
    allocs: u64,
    alloc_bytes: u64,
    ctx_switches: u64,
    threads: u64,
    chunk_dispatches: u64,
    spans: Vec<SpanBuf>,
}

impl Rep {
    fn queries(&self) -> impl Iterator<Item = &Sample> {
        self.samples.iter().filter(|s| s.kind.is_query())
    }

    fn query_count(&self) -> f64 {
        self.queries().count().max(1) as f64
    }

    /// Ascending latencies in ms of the samples `keep` selects.
    fn latencies_ms(&self, keep: impl Fn(&Sample) -> bool) -> Vec<f64> {
        sorted(
            &self
                .samples
                .iter()
                .filter(|s| keep(s))
                .map(|s| s.latency.as_secs_f64() * 1e3)
                .collect::<Vec<_>>(),
        )
    }

    fn query_percentile(&self, p: f64) -> f64 {
        percentile(&self.latencies_ms(|s| s.kind.is_query()), p)
    }

    fn per_query(&self, total: f64) -> f64 {
        total / self.query_count()
    }

    /// The seconds of this repetition the hypervisor let the VM run. The
    /// loop is closed and a query uses the hardware threads in turn, so it
    /// stands still while either vCPU is withheld: the steal *summed*
    /// over the vCPUs comes off the wall time (README, "Noise", has the
    /// calibration).
    fn running_secs(&self) -> f64 {
        let wall = self.wall.as_secs_f64();
        wall - self.stolen.as_secs_f64().min(wall * MAX_STOLEN)
    }

    /// The share of the VM's CPU time the hypervisor withheld: the steal
    /// per vCPU over the wall time.
    fn stolen_share(&self) -> f64 {
        let capacity = self.wall.as_secs_f64() * procfs::nproc() as f64;
        (self.stolen.as_secs_f64() / capacity).min(MAX_STOLEN)
    }
}

/// Run one repetition of `cycles` cycles per client.
fn run_rep<W: Workload>(w: &W, cycles: usize, seq: &mut [usize], traced: bool, rep: u32) -> Rep {
    let clients = w.clients();
    let ops = cycles * W::CYCLE.len();
    let start = Barrier::new(clients + 1);
    let finished = Barrier::new(clients + 1);
    let release = Barrier::new(clients + 1);

    let wire0 = Wire::of(w.net_report());
    let (switch0, _) = procfs::ctx_switches_and_threads();
    let chunk0 = prism_protocol::chunk::parallel_dispatches();
    let allocs0 = alloc::snapshot();
    alloc::set_counting(traced);
    let cpu0 = procfs::cpu_time();
    let stolen0 = procfs::stolen_time();

    let mut wall = Duration::ZERO;
    let mut stolen = Duration::ZERO;
    let mut threads = 0;
    let mut cpu = Duration::ZERO;
    let per_client: Vec<(Vec<Sample>, SpanBuf)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let first = seq[c];
                let (start, finished, release) = (&start, &finished, &release);
                scope.spawn(move || {
                    let mut spans = if traced {
                        // One query span plus three stage spans per sample.
                        SpanBuf::recording(rep * 64 + c as u32, ops * 4)
                    } else {
                        SpanBuf::off()
                    };
                    let mut samples = Vec::with_capacity(ops);
                    start.wait();
                    for i in 0..ops {
                        let s = w.op(c, first + i, W::CYCLE[i % W::CYCLE.len()]);
                        record_spans(&mut spans, &s, c, first + i);
                        samples.push(s);
                    }
                    finished.wait();
                    release.wait();
                    (samples, spans)
                })
            })
            .collect();
        start.wait();
        let t = Instant::now();
        finished.wait();
        wall = t.elapsed();
        cpu = procfs::cpu_time().saturating_sub(cpu0);
        stolen = procfs::stolen_time().saturating_sub(stolen0);
        threads = procfs::ctx_switches_and_threads().1;
        release.wait();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    alloc::set_counting(false);
    for s in seq.iter_mut() {
        *s += ops;
    }

    let allocs1 = alloc::snapshot();
    let mut samples = Vec::with_capacity(clients * ops);
    let mut spans = Vec::with_capacity(clients);
    for (s, b) in per_client {
        samples.extend(s);
        spans.push(b);
    }
    Rep {
        traced,
        samples,
        wall,
        cpu,
        stolen,
        wire: Wire::of(w.net_report()).since(wire0),
        allocs: allocs1.0 - allocs0.0,
        alloc_bytes: allocs1.1 - allocs0.1,
        ctx_switches: procfs::ctx_switches_and_threads().0.saturating_sub(switch0),
        threads,
        chunk_dispatches: prism_protocol::chunk::parallel_dispatches() - chunk0,
        spans,
    }
}

/// A sample as spans: the operation, and its three stages laid end to
/// end inside it (their true positions are not visible from outside).
fn record_spans(spans: &mut SpanBuf, s: &Sample, client: usize, seq: usize) {
    if !spans.is_on() {
        return;
    }
    let parent = spans.push(Span {
        name: if s.kind.is_query() { "query" } else { "append" },
        start_ns: s.start_ns,
        end_ns: s.start_ns + s.latency.as_nanos() as u64,
        parent: None,
        request: Some((client as u32, seq as u32)),
    });
    let names = s.kind.stages();
    spans.synthesise(
        parent,
        &[
            (names[0], s.stages[0]),
            (names[1], s.stages[1]),
            (names[2], s.stages[2]),
        ],
    );
}

/// What one workload process measured.
pub struct Outcome {
    pub records: Records,
    pub attempted: u64,
    pub failed: u64,
}

fn context(recs: &mut Records, cfg: &Cfg, clients: usize, digest: u64) {
    recs.put_unit("ctx.seed", cfg.seed as f64, "seed");
    recs.put_unit("ctx.seconds", cfg.seconds, "s");
    recs.put_unit("ctx.nproc", procfs::nproc() as f64, "count");
    recs.put_unit("ctx.load_1m", procfs::load_average(), "load");
    recs.put_unit("ctx.clients", clients as f64, "count");
    // The low 52 bits survive the trip through a JSON number.
    recs.put_unit("ctx.data_digest", (digest & ((1 << 52) - 1)) as f64, "hash");
}

/// One full set-up, timed from outside.
fn timed_setup<W: Workload>(cfg: &Cfg, spans: &mut SpanBuf) -> (W, f64) {
    let span = spans.open("setup", None);
    let t = Instant::now();
    let w = W::setup(cfg, spans, span);
    let took = t.elapsed().as_secs_f64();
    spans.close(span);
    (w, took)
}

/// What the `setup` child process does: pre-fault, one timed set-up.
pub fn setup_only<W: Workload>(cfg: &Cfg) -> f64 {
    procfs::prefault(W::PREFAULT_MB);
    let (w, took) = timed_setup::<W>(cfg, &mut SpanBuf::off());
    w.teardown();
    took
}

/// One more set-up of `W`, in a fresh process of this binary, so it pays
/// what the first set-up of a process pays: cold allocator, cold caches.
fn fresh_setup<W: Workload>(cfg: &Cfg) -> f64 {
    let exe = std::env::current_exe().expect("this binary's path");
    let output = std::process::Command::new(exe)
        .args(["setup", "--workload", W::NAME])
        .args(["--seed", &cfg.seed.to_string()])
        .stderr(std::process::Stdio::inherit())
        .output()
        .expect("start the set-up process");
    let stdout = String::from_utf8_lossy(&output.stdout);
    stdout
        .trim()
        .strip_prefix("setup_s ")
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("the set-up process of {} printed {stdout:?}", W::NAME))
}

/// Run workload `W` as this process's only job.
pub fn run<W: Workload>(cfg: &Cfg) -> Outcome {
    procfs::prefault(W::PREFAULT_MB);
    let mut recs = Records::new(W::NAME);
    let mut spans = SpanBuf::recording(0, 128);
    let (mut w, first_setup) = timed_setup::<W>(cfg, &mut spans);
    let digest = w.arm();
    context(&mut recs, cfg, w.clients(), digest);

    // A quick run is one repetition of each kind, whatever `--seconds` says.
    let count = (cfg.seconds / REP_SECONDS).round() as usize;
    let reps: Vec<bool> = match (cfg.trace, cfg.quick) {
        (false, true) => vec![false],
        (true, true) => vec![false, true],
        (true, false) => TRACED_REPS.iter().copied().cycle().take(count).collect(),
        (false, false) => vec![false; count],
    };
    let cycles = ((REP_SECONDS * W::CYCLES_PER_SECOND).round() as usize).max(1);
    let warmup_cycles = ((cycles * reps.len()) as f64 * WARMUP_SHARE).ceil() as usize;

    let mut seq = vec![0usize; w.clients()];
    let warmup = run_rep(&w, warmup_cycles, &mut seq, false, 0);
    let mut done: Vec<Rep> = Vec::with_capacity(reps.len());
    for (i, &traced) in reps.iter().enumerate() {
        done.push(run_rep(&w, cycles, &mut seq, traced, i as u32 + 1));
    }
    let peak_rss_mb = procfs::peak_rss_mb();
    let all_samples = || {
        warmup
            .samples
            .iter()
            .chain(done.iter().flat_map(|r| &r.samples))
    };
    let mut attempted = all_samples().count() as u64;
    let rejected = w.rejected_replies();
    let mut failed = all_samples().filter(|s| !s.ok).count() as u64 + rejected;

    let untraced: Vec<&Rep> = done.iter().filter(|r| !r.traced).collect();
    end_to_end::<W>(&mut recs, &untraced);
    recs.put("peak_rss_mb", peak_rss_mb);
    if cfg.trace {
        let traced: Vec<&Rep> = done.iter().filter(|r| r.traced).collect();
        per_layer::<W>(&mut recs, &untraced, &traced);
        recs.put("net.mux.rejected_replies", rejected as f64);
        let unmet = w.layer_metrics(cfg, &mut spans, &mut recs);
        attempted += unmet;
        failed += unmet;
    }
    recs.put("failed_share", failed as f64 / attempted.max(1) as f64);
    w.teardown();

    // Further set-ups, each in a process of its own like the first.
    let mut setup_s = vec![first_setup];
    if !(cfg.trace || cfg.quick) {
        let started = Instant::now();
        while setup_s.len() < MIN_SETUPS
            || (setup_s.len() < MAX_SETUPS && started.elapsed() < SETUP_BUDGET)
        {
            setup_s.push(fresh_setup::<W>(cfg));
        }
    }
    // Memory the guest never touched and a busy disk only ever add to a
    // set-up, and add seconds to some: the better quartile repeats where
    // the median of so few does not.
    recs.put("setup_s", better_quartile(&setup_s, Better::Lower));
    recs.put_unit(&spread_name("setup_s"), spread(&setup_s), "share");
    recs.put_unit("ctx.setups", setup_s.len() as f64, "count");

    if cfg.trace {
        let mut bufs = vec![spans];
        bufs.extend(done.into_iter().flat_map(|r| r.spans));
        let path = format!("target/benchmark/trace-{}.jsonl", W::NAME);
        if let Err(e) = crate::trace::write_jsonl(std::path::Path::new(&path), W::NAME, &bufs) {
            eprintln!("cannot write {path}: {e}");
        }
    }
    Outcome {
        records: recs,
        attempted,
        failed,
    }
}

/// Ascending latencies in ms, over `reps`, of the samples `keep` selects.
fn pooled_ms(reps: &[&Rep], keep: impl Fn(&Sample) -> bool + Copy) -> Vec<f64> {
    sorted(
        &reps
            .iter()
            .flat_map(|r| r.latencies_ms(keep))
            .collect::<Vec<_>>(),
    )
}

/// The `p`-th percentile of each query kind's latency, averaged over the
/// queries of the cycle. The operations of a mix differ several-fold in
/// cost, so a percentile of the pooled latencies sits on the border
/// between two kinds and jumps from one to the other between runs; a
/// percentile per kind does not.
fn mix_percentile_ms<W: Workload>(reps: &[&Rep], p: f64) -> f64 {
    let queries: Vec<OpKind> = W::CYCLE.iter().copied().filter(|k| k.is_query()).collect();
    queries
        .iter()
        .map(|&kind| percentile(&pooled_ms(reps, |s| s.kind == kind), p))
        .sum::<f64>()
        / queries.len() as f64
}

/// What a query of the mix costs when the host does not interfere. Host
/// noise only ever adds to a latency, so the low end of each kind's
/// distribution is the part that repeats best from run to run.
fn quiet_ms<W: Workload>(reps: &[&Rep]) -> f64 {
    mix_percentile_ms::<W>(reps, QUIET_PERCENTILE)
}

/// The end-to-end metrics, from the untraced repetitions. The timings are
/// medians over the repetitions, each repetition read against the time
/// the hypervisor let the VM run; the `_raw` records are the same
/// quantities by the wall clock alone.
fn end_to_end<W: Workload>(recs: &mut Records, reps: &[&Rep]) {
    let queries: f64 = reps.iter().map(|r| r.query_count()).sum();
    let per_rep = |f: &dyn Fn(&Rep) -> f64| -> Vec<f64> { reps.iter().map(|r| f(r)).collect() };
    recs.put("query_quiet_ms", quiet_ms::<W>(reps));
    let p50 = per_rep(&|r| mix_percentile_ms::<W>(&[r], 50.0) * (1.0 - r.stolen_share()));
    recs.put("query_p50_ms", median(&p50));
    recs.put("query_p50_raw_ms", mix_percentile_ms::<W>(reps, 50.0));
    let latencies = pooled_ms(reps, |s| s.kind.is_query());
    recs.put("query_p95_ms", percentile(&latencies, 95.0));
    let correct = |r: &Rep| r.queries().filter(|s| s.ok).count() as f64;
    let qps = per_rep(&|r| correct(r) / r.running_secs());
    recs.put("queries_per_s", median(&qps));
    let wall: f64 = reps.iter().map(|r| r.wall.as_secs_f64()).sum();
    recs.put(
        "queries_per_s_raw",
        reps.iter().map(|r| correct(r)).sum::<f64>() / wall,
    );
    let cpu = per_rep(&|r| r.per_query(r.cpu.as_secs_f64() * 1e3));
    recs.put("cpu_ms_per_query", median(&cpu));
    recs.put(
        "rounds_per_query",
        reps.iter()
            .flat_map(|r| r.queries())
            .map(|s| s.stats.rounds() as f64)
            .sum::<f64>()
            / queries,
    );
    // Defined only where there is a wire, and where there are appends.
    let wire_bytes: u64 = reps
        .iter()
        .map(|r| r.wire.owner_bytes + r.wire.announcer_bytes)
        .sum();
    if wire_bytes > 0 {
        recs.put("wire_bytes_per_query", wire_bytes as f64 / queries);
    }
    let is_append = |s: &Sample| s.kind == OpKind::Append;
    if W::CYCLE.contains(&OpKind::Append) {
        recs.put(
            "append_p50_ms",
            percentile(&pooled_ms(reps, is_append), 50.0),
        );
    }

    // How far the repetitions of this run disagree, for `compare`.
    for (metric, values) in [
        ("query_p50_ms", p50),
        ("query_p95_ms", per_rep(&|r| r.query_percentile(95.0))),
        ("queries_per_s", qps),
        ("cpu_ms_per_query", cpu),
        (
            "append_p50_ms",
            per_rep(&|r| percentile(&r.latencies_ms(is_append), 50.0)),
        ),
    ] {
        // All zero where the workload has no such operation.
        if values.iter().any(|&v| v > 0.0) {
            recs.put_unit(&spread_name(metric), spread(&values), "share");
        }
    }
    // How much the host interfered: the share of this VM's CPU time the
    // hypervisor gave to someone else while the repetitions ran.
    let stolen: f64 = reps.iter().map(|r| r.stolen.as_secs_f64()).sum();
    recs.put_unit(
        "ctx.stolen_share",
        stolen / (wall * procfs::nproc() as f64),
        "share",
    );
    recs.put_unit("ctx.query_samples", latencies.len() as f64, "count");
    recs.put_unit(
        "ctx.highest_supported_percentile",
        crate::stats::highest_supported_percentile(latencies.len()).unwrap_or(0.0),
        "percentile",
    );
}

/// The per-layer metrics visible in the samples themselves: what the
/// returned `QueryStats` and `NetReport` say, per operation kind, plus
/// the process counters of the traced repetitions.
fn per_layer<W: Workload>(recs: &mut Records, untraced: &[&Rep], traced: &[&Rep]) {
    let queries: Vec<&Sample> = traced.iter().flat_map(|r| r.queries()).collect();
    let n = queries.len().max(1) as f64;
    let ms = |f: fn(&QueryStats) -> Duration| -> f64 {
        queries
            .iter()
            .map(|s| f(&s.stats).as_secs_f64() * 1e3)
            .sum::<f64>()
            / n
    };
    recs.put(
        "protocol.engine.owner_ms_per_query",
        ms(QueryStats::owner_time),
    );
    recs.put(
        "protocol.engine.server_ms_per_query",
        ms(QueryStats::server_time),
    );
    recs.put(
        "protocol.engine.announcer_ms_per_query",
        ms(QueryStats::announcer_time),
    );
    let total =
        |f: fn(&QueryStats) -> u64| -> f64 { queries.iter().map(|s| f(&s.stats) as f64).sum() };
    recs.put(
        "protocol.shard.dispatches_per_query",
        total(QueryStats::shard_dispatches) / n,
    );
    recs.put(
        "protocol.chunk.parallel_dispatches_per_query",
        traced
            .iter()
            .map(|r| r.chunk_dispatches as f64)
            .sum::<f64>()
            / n,
    );

    let (hits, misses) = (
        total(QueryStats::cache_hits),
        total(QueryStats::cache_misses),
    );
    recs.put(
        "protocol.cache.hit_share",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
    );
    let appends = traced
        .iter()
        .flat_map(|r| &r.samples)
        .filter(|s| s.kind == OpKind::Append)
        .count();
    if appends > 0 {
        recs.put(
            "protocol.cache.invalidations_per_append",
            total(QueryStats::cache_invalidations) / appends as f64,
        );
    }
    let p50_of =
        |keep: &dyn Fn(&Sample) -> bool| -> f64 { percentile(&pooled_ms(traced, keep), 50.0) };
    // Warm and cold only mean something where a cache serves rounds.
    if hits > 0.0 {
        recs.put(
            "protocol.cache.warm_query_p50_ms",
            p50_of(&|s| s.kind.is_query() && s.stats.rounds() == 0),
        );
        recs.put(
            "protocol.cache.cold_query_p50_ms",
            p50_of(&|s| s.kind.is_query() && s.stats.rounds() > 0),
        );
    }
    for kind in OpKind::PLANS.into_iter().filter(|k| W::CYCLE.contains(k)) {
        recs.put(
            &format!("protocol.plans.{}_p50_ms", kind.name()),
            p50_of(&|s| s.kind == kind),
        );
    }

    let per_query = |f: fn(&Rep) -> f64| -> f64 { traced.iter().map(|r| f(r)).sum::<f64>() / n };
    if traced.iter().any(|r| r.wire.msgs > 0) {
        recs.put(
            "net.cluster.msgs_per_query",
            per_query(|r| r.wire.msgs as f64),
        );
        recs.put(
            "net.cluster.router_bytes_per_query",
            per_query(|r| r.wire.router_bytes as f64),
        );
        recs.put(
            "net.cluster.announcer_bytes_per_query",
            per_query(|r| r.wire.announcer_bytes as f64),
        );
    }
    recs.put("proc.allocs_per_query", per_query(|r| r.allocs as f64));
    recs.put(
        "proc.alloc_mb_per_query",
        per_query(|r| r.alloc_bytes as f64 / (1 << 20) as f64),
    );
    recs.put(
        "proc.ctx_switches_per_query",
        per_query(|r| r.ctx_switches as f64),
    );
    recs.put(
        "proc.threads_peak",
        traced.iter().map(|r| r.threads).max().unwrap_or(0) as f64,
    );
    // Tracing costs what the quiet latency gains between the two kinds
    // of repetition: the medians are too noisy on a shared host to show
    // a sub-percent overhead.
    let base = quiet_ms::<W>(untraced);
    recs.put(
        "bench.trace_overhead_share",
        if base > 0.0 {
            quiet_ms::<W>(traced) / base - 1.0
        } else {
            0.0
        },
    );
}
