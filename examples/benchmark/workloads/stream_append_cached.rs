//! `stream_append_cached`: writes beside reads, with the PSI-round cache
//! on. Every cycle appends 500 cells as delta uploads, re-runs a pinned
//! windowed query over the untouched original domain twice (warm: zero
//! rounds), and runs one whole-domain query (cold: two rounds).
//!
//! The same layers as `tcp_wide_serial`, used differently: a read-path
//! gain that slows appends shows here, as does a cache or versioning
//! change that costs invalidation precision.

use super::{initiate, share_all, upload_all};
use crate::bench::{timed_query, Cfg, OpKind, Sample, Workload};
use crate::data::{digest, extend, generate, Oracle, OwnerData, Shape};
use crate::trace::{now_ns, SpanBuf};
use prism_net::{NetCluster, NetReport};
use prism_protocol::{AggResult, QueryBatch, QueryStats};
use std::sync::Mutex;
use std::time::Instant;

const OWNERS: usize = 3;
const CELLS: usize = 100_000;
const APPENDED: usize = 500;
const SHARDS: usize = 2;
const HOLD: f64 = 0.8;
const VALUE_MAX: u64 = 2000;
/// The z-share seed every query reuses, so round 2 is cacheable too.
const PINNED_SEED: u64 = 0x51EA_D5EE_D000_0001;

/// What an append mutates.
struct State {
    cluster: NetCluster,
    data: Vec<OwnerData>,
    oracle: Oracle,
    epoch: u64,
}

pub struct StreamAppendCached {
    state: Mutex<State>,
    batch: QueryBatch,
    /// Cells of the original domain, the warm window.
    window: usize,
    /// The warm window's answer: appends elsewhere never change it.
    expected_window: Vec<AggResult>,
    seed: u64,
}

impl StreamAppendCached {
    fn append(&self, st: &mut State) -> Sample {
        let start = st.cluster.setup().owner.b;
        st.epoch += 1;
        let delta = generate(
            self.seed,
            st.epoch,
            Shape {
                owners: OWNERS,
                cells: APPENDED,
                hold: HOLD,
                value_max: VALUE_MAX,
            },
        );

        let start_ns = now_ns();
        let t0 = Instant::now();
        let grown = st.cluster.setup().grow(APPENDED, st.epoch, self.seed);
        let grown_at = t0.elapsed();
        let mut ok = grown.is_ok();
        let mut stages = [grown_at; 3];
        if let Ok(grown) = grown {
            st.cluster.adopt_setup(grown);
            let op = &st.cluster.setup().owner;
            let shares = share_all(op, &delta, false, self.seed ^ st.epoch);
            let shared_at = t0.elapsed();
            for (j, per_server) in shares.into_iter().enumerate() {
                for (k, columns) in per_server.into_iter().enumerate() {
                    if let Err(e) = st.cluster.delta_upload(k, j, start, columns) {
                        eprintln!("delta upload failed: {e}");
                        ok = false;
                    }
                }
            }
            stages = [grown_at, shared_at - grown_at, t0.elapsed() - shared_at];
        }
        let latency = t0.elapsed();

        extend(&mut st.data, &delta);
        st.oracle.extend(&st.data, start);
        Sample {
            kind: OpKind::Append,
            start_ns,
            latency,
            ok,
            stats: QueryStats::default(),
            stages,
        }
    }
}

impl Workload for StreamAppendCached {
    const NAME: &'static str = "stream_append_cached";
    const PREFAULT_MB: usize = 360;
    const CYCLES_PER_SECOND: f64 = 7.5;
    const CYCLE: &'static [OpKind] = &[
        OpKind::Append,
        OpKind::RangeBatch,
        OpKind::RangeBatch,
        OpKind::Batch,
    ];

    fn shape(cfg: &Cfg) -> Shape {
        Shape {
            owners: OWNERS,
            cells: cfg.cells(CELLS),
            hold: HOLD,
            value_max: VALUE_MAX,
        }
    }

    fn setup(cfg: &Cfg, spans: &mut SpanBuf, parent: Option<u32>) -> Self {
        let shape = Self::shape(cfg);
        let setup = spans.timed("setup.initiator", parent, || initiate(shape, cfg.seed));
        let cluster = spans.timed("setup.bringup", parent, || {
            let mut cluster = NetCluster::start_local_sharded(setup, SHARDS);
            cluster.enable_cache();
            cluster
        });
        let data = spans.timed("setup.generate", parent, || generate(cfg.seed, 0, shape));
        let op = &cluster.setup().owner;
        let shares = spans.timed("setup.sharegen", parent, || {
            share_all(op, &data, false, cfg.seed)
        });
        spans.timed("setup.upload", parent, || upload_all(&cluster, shares));
        StreamAppendCached {
            state: Mutex::new(State {
                cluster,
                data,
                oracle: Oracle::default(),
                epoch: 0,
            }),
            batch: QueryBatch::new().sum(0).avg(0).count_tuples(),
            window: shape.cells,
            expected_window: Vec::new(),
            seed: cfg.seed,
        }
    }

    fn arm(&mut self) -> u64 {
        let st = self.state.get_mut().expect("no client ran yet");
        st.oracle = Oracle::of(&st.data);
        self.expected_window = st.oracle.batch(self.window);
        digest(&st.data)
    }

    fn op(&self, _client: usize, _seq: usize, kind: OpKind) -> Sample {
        // One client: the lock is never contended, it only lets an
        // append mutate the deployment behind `&self`.
        let mut st = self.state.lock().expect("a client panicked");
        match kind {
            OpKind::Append => self.append(&mut st),
            OpKind::RangeBatch => timed_query(
                kind,
                || {
                    st.cluster.psi_query_batch_range(
                        &self.batch,
                        PINNED_SEED,
                        (0, self.window as u64),
                    )
                },
                |answer| *answer == self.expected_window,
            ),
            _ => timed_query(
                kind,
                || st.cluster.psi_query_batch(&self.batch, PINNED_SEED),
                |answer| *answer == st.oracle.batch(st.oracle.sums.len()),
            ),
        }
    }

    fn net_report(&self) -> Option<NetReport> {
        Some(
            self.state
                .lock()
                .expect("a client panicked")
                .cluster
                .report(),
        )
    }

    fn rejected_replies(&self) -> u64 {
        let st = self.state.lock().expect("a client panicked");
        st.cluster.rejected_replies()
    }

    fn teardown(self) {
        let st = self.state.into_inner().expect("a client panicked");
        st.cluster.shutdown().expect("cluster shutdown");
    }
}
