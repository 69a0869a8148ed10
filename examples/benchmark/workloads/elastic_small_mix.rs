//! `elastic_small_mix`: the elastic control plane under a mixed, verified
//! load. Every server domain is two row ranges, each held by two TCP
//! `ShardWorker`s behind a router, with the announcer as its own node;
//! several clients cycle through the verified plans plus max and median.
//!
//! Frames are tiny, so per-message costs dominate: mux pump and condvar
//! hand-offs, admission, router fan-out, replica routing, syscalls. It is
//! the only workload on the control plane, the announcer and the verified
//! plans. An optimisation of copying or encoding must not move it; an
//! optimisation of hand-offs must not move `tcp_wide_serial`.

use super::{initiate, share_all, upload_all};
use crate::bench::{timed_query, Cfg, OpKind, Sample, Workload};
use crate::data::{digest, generate, Oracle, OwnerData, Shape};
use crate::procfs;
use crate::report::Records;
use crate::trace::SpanBuf;
use prism_net::{
    AnnouncerNode, ClusterListener, NetCluster, NetReport, RegistryConfig, ShardWorker,
};
use prism_protocol::plans::{self, DEFAULT_CELL_CHUNK};
use prism_protocol::{AggResult, QueryBatch};
use std::time::{Duration, Instant};

const OWNERS: usize = 4;
const CELLS: usize = 4096;
const SHARDS: usize = 2;
const REPLICATION: usize = 2;
const HOLD: f64 = 0.8;
const VALUE_MAX: u64 = 2000;
/// How long a node may take to dial in, and a heal to complete.
const PATIENCE: Duration = Duration::from_secs(30);

pub struct ElasticSmallMix {
    cluster: NetCluster,
    workers: Vec<ShardWorker>,
    announcer: AnnouncerNode,
    data: Vec<OwnerData>,
    oracle: Oracle,
    batch: QueryBatch,
    expected_batch: Vec<AggResult>,
    expected_max: Vec<(usize, u64, Vec<bool>)>,
    expected_median: Vec<(usize, Vec<u64>)>,
    clients: usize,
    seed: u64,
    uploaded_bytes: u64,
    /// Index into `workers` of a node killed by the heal measurement.
    killed: Option<usize>,
}

impl ElasticSmallMix {
    fn batch_query(&self, owner: u32, seed: u64) -> Sample {
        timed_query(
            OpKind::Batch,
            || {
                self.cluster.execute_as(
                    owner,
                    &plans::Batch {
                        batch: &self.batch,
                        seed,
                    },
                )
            },
            |a| *a == self.expected_batch,
        )
    }
}

impl Workload for ElasticSmallMix {
    const NAME: &'static str = "elastic_small_mix";
    const PREFAULT_MB: usize = 32;
    const CYCLES_PER_SECOND: f64 = 21.0;
    const CYCLE: &'static [OpKind] = &[
        OpKind::PsiVerified,
        OpKind::PsuVerified,
        OpKind::CountVerified,
        OpKind::Batch,
        OpKind::SumVerified,
        OpKind::Max,
        OpKind::Median,
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
        let (cluster, workers, announcer) = spans.timed("setup.bringup", parent, || {
            let registry = RegistryConfig {
                replication: REPLICATION,
                attach_timeout: PATIENCE,
                ..RegistryConfig::default()
            };
            let listener = ClusterListener::bind(setup.clone(), SHARDS, registry).expect("bind");
            let addr = listener.addr();
            let mut workers = Vec::new();
            for (k, params) in setup.servers.iter().enumerate() {
                for _ in 0..SHARDS * REPLICATION {
                    workers.push(
                        ShardWorker::connect(params.clone(), k, addr, PATIENCE).expect("worker"),
                    );
                }
            }
            let announcer =
                AnnouncerNode::connect(setup.announcer.clone(), addr, PATIENCE).expect("announcer");
            (listener.start().expect("attach"), workers, announcer)
        });
        let data = spans.timed("setup.generate", parent, || generate(cfg.seed, 0, shape));
        let op = &cluster.setup().owner;
        let shares = spans.timed("setup.sharegen", parent, || {
            share_all(op, &data, true, cfg.seed)
        });
        let uploaded_bytes = spans.timed("setup.upload", parent, || upload_all(&cluster, shares));
        ElasticSmallMix {
            cluster,
            workers,
            announcer,
            data,
            oracle: Oracle::default(),
            batch: QueryBatch::new().sum(0).avg(0).count_tuples(),
            expected_batch: Vec::new(),
            expected_max: Vec::new(),
            expected_median: Vec::new(),
            clients: procfs::nproc().min(4),
            seed: cfg.seed,
            uploaded_bytes,
            killed: None,
        }
    }

    fn arm(&mut self) -> u64 {
        self.oracle = Oracle::of(&self.data);
        self.expected_batch = self.oracle.batch(self.oracle.sums.len());
        self.expected_max = self.oracle.maxima(&self.data);
        self.expected_median = self.oracle.medians(&self.data);
        digest(&self.data)
    }

    fn clients(&self) -> usize {
        self.clients
    }

    fn op(&self, client: usize, seq: usize, kind: OpKind) -> Sample {
        let owner = client as u32;
        let seed = self.seed
            ^ (seq as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (client as u64) << 56;
        let o = &self.oracle;
        // Each owner's per-cell column: one tuple per cell, so the
        // per-cell maximum and the per-cell sum are the same column.
        let values: Vec<&[u64]> = self.data.iter().map(|d| d.sums.as_slice()).collect();
        match kind {
            OpKind::PsiVerified => timed_query(
                kind,
                || self.cluster.execute_as(owner, &plans::PsiVerified),
                |a| a.common == o.common,
            ),
            OpKind::PsuVerified => timed_query(
                kind,
                || self.cluster.execute_as(owner, &plans::PsuVerified),
                // Membership arrives in the composed permuted order: only
                // its size is comparable.
                |a| a.iter().filter(|&&m| m).count() == o.union_count(),
            ),
            OpKind::CountVerified => timed_query(
                kind,
                || self.cluster.execute_as(owner, &plans::CountVerified),
                |a| *a == o.common.len(),
            ),
            OpKind::SumVerified => timed_query(
                kind,
                || {
                    self.cluster
                        .execute_as(owner, &plans::SumVerified { attr: 0, seed })
                },
                |a| *a == o.sums,
            ),
            OpKind::Max => timed_query(
                kind,
                || {
                    self.cluster.execute_as(
                        owner,
                        &plans::Max {
                            values: values.clone(),
                            table: None,
                            seed,
                            cell_chunk: DEFAULT_CELL_CHUNK,
                        },
                    )
                },
                |(cells, holders)| {
                    cells.len() == self.expected_max.len()
                        && cells.iter().zip(holders).zip(&self.expected_max).all(
                            |((got, got_holders), (cell, max, want_holders))| {
                                got.cell == *cell
                                    && got.max == *max
                                    && got_holders == want_holders
                                    && want_holders[got.holder]
                            },
                        )
                },
            ),
            OpKind::Median => timed_query(
                kind,
                || {
                    self.cluster.execute_as(
                        owner,
                        &plans::Median {
                            values: values.clone(),
                            table: None,
                            seed,
                            cell_chunk: DEFAULT_CELL_CHUNK,
                        },
                    )
                },
                |cells| {
                    cells.len() == self.expected_median.len()
                        && cells
                            .iter()
                            .zip(&self.expected_median)
                            .all(|(got, (cell, mids))| got.cell == *cell && got.values == *mids)
                },
            ),
            _ => self.batch_query(owner, seed),
        }
    }

    fn net_report(&self) -> Option<NetReport> {
        Some(self.cluster.report())
    }

    fn rejected_replies(&self) -> u64 {
        self.cluster.rejected_replies()
    }

    /// Kill one primary worker and time the heal: until the registry has
    /// counted the failover *and* a query returns the pre-kill answer.
    fn layer_metrics(&mut self, _cfg: &Cfg, spans: &mut SpanBuf, out: &mut Records) -> u64 {
        out.put(
            "net.registry.attach_ms",
            spans.total("setup.bringup").as_secs_f64() * 1e3,
        );
        out.put(
            "net.cluster.upload_mb_s",
            self.uploaded_bytes as f64 / 1e6 / spans.total("setup.upload").as_secs_f64(),
        );

        let registry = self.cluster.registry().expect("elastic clusters have one");
        let heal = spans.open("heal", None);
        let t = Instant::now();
        self.workers[0].kill();
        self.killed = Some(0);
        let healed = loop {
            let answered = self.batch_query(0, self.seed).ok;
            if answered && registry.failovers() >= 1 {
                break true;
            }
            if t.elapsed() > PATIENCE {
                break false;
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        let heal_ms = t.elapsed().as_secs_f64() * 1e3;
        spans.close(heal);
        out.put("net.registry.failovers", registry.failovers() as f64);
        out.put("net.registry.promotions", registry.promotions() as f64);
        out.put(
            "net.registry.replayed_records",
            registry.replayed_records() as f64,
        );
        // With every range replicated, one death heals as exactly one
        // promotion; anything else is a failed run, not a heal time.
        if healed && registry.failovers() == 1 {
            out.put("net.registry.heal_ms", heal_ms);
            0
        } else {
            eprintln!(
                "the kill did not heal as one failover within {PATIENCE:?}: healed = {healed}, \
                 failovers = {}",
                registry.failovers()
            );
            1
        }
    }

    fn teardown(self) {
        self.cluster.shutdown().expect("cluster shutdown");
        self.announcer.join().expect("announcer exit");
        for (i, worker) in self.workers.into_iter().enumerate() {
            let joined = worker.join();
            if self.killed != Some(i) {
                joined.expect("worker exit");
            }
        }
    }
}
