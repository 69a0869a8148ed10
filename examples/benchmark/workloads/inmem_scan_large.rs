//! `inmem_scan_large`: no wire at all. The engine runs over sharded
//! in-process nodes filled from the on-disk share store, at the paper's
//! small-scale Exp 1 shape (ten owners, every owner holding the whole
//! domain).
//!
//! Server kernels, `chunk` fan-out, `shard` merge/permute and owner
//! finalize do nearly all the work here and `net` does none, so kernel,
//! SIMD and shared-scan work must show here and nowhere else. Set-up is
//! the §8.1 pipeline: generate, share, put, fetch, store.

use super::initiate;
use crate::bench::{timed_query, Cfg, OpKind, Sample, Workload};
use crate::data::{digest, Oracle, OwnerData, Shape};
use crate::procfs;
use crate::trace::SpanBuf;
use prism_protocol::engine::Announcer;
use prism_protocol::{plans, AggResult, Engine, OwnerParams, QueryBatch};
use prism_protocol::{ShardedExec, ShardedNode};
use prism_storage::ServerStore;
use prism_workload::lineitem::LineItemRow;
use prism_workload::outsource::{outsource_owner, table_columns};
use prism_workload::LineItemConfig;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

const OWNERS: usize = 10;
const CELLS: usize = 100_000;
const SHARDS: usize = 2;
/// LineItem part keys stay below this (`prism_bench::build::AGG_DOMAIN_MAX`).
const VALUE_MAX: u64 = 250_000;
/// Aggregation attributes outsourced: PK only.
const ATTRS: usize = 1;

pub struct InmemScanLarge {
    nodes: Vec<ShardedNode>,
    announcer: Announcer,
    owner: OwnerParams,
    threads: usize,
    data: Vec<OwnerData>,
    oracle: Oracle,
    batch: QueryBatch,
    expected_batch: Vec<AggResult>,
    seed: u64,
    store_dir: PathBuf,
}

/// One owner's LineItem rows as plaintext columns (the oracle's input).
fn columns_of(rows: &[LineItemRow], cells: usize) -> OwnerData {
    let mut d = OwnerData {
        indicator: vec![0; cells],
        sums: vec![0; cells],
        counts: vec![0; cells],
    };
    for r in rows {
        let i = r.ok as usize - 1;
        d.indicator[i] = 1;
        d.sums[i] += r.pk;
        d.counts[i] += 1;
    }
    d
}

impl InmemScanLarge {
    fn run<P: prism_protocol::Operation>(
        &self,
        plan: &P,
    ) -> prism_protocol::Result<(P::Output, prism_protocol::QueryStats)> {
        let exec = ShardedExec::new(&self.nodes, &self.announcer);
        Engine::new(&exec, &self.owner)
            .with_threads(self.threads)
            .run(plan)
    }
}

impl Workload for InmemScanLarge {
    const NAME: &'static str = "inmem_scan_large";
    const PREFAULT_MB: usize = 250;
    const CYCLES_PER_SECOND: f64 = 7.0;
    const CYCLE: &'static [OpKind] = &[
        OpKind::Psi,
        OpKind::Psu,
        OpKind::Count,
        OpKind::Batch,
        OpKind::PsiVerified,
    ];

    fn shape(cfg: &Cfg) -> Shape {
        Shape {
            owners: OWNERS,
            cells: cfg.cells(CELLS),
            hold: 1.0,
            value_max: VALUE_MAX,
        }
    }

    fn setup(cfg: &Cfg, spans: &mut SpanBuf, parent: Option<u32>) -> Self {
        static STORES: AtomicUsize = AtomicUsize::new(0);
        let shape = Self::shape(cfg);
        let setup = spans.timed("setup.initiator", parent, || initiate(shape, cfg.seed));
        let store_dir = PathBuf::from(format!(
            "target/benchmark/store-{}-{}",
            std::process::id(),
            STORES.fetch_add(1, Ordering::Relaxed)
        ));
        let (mut nodes, stores) = spans.timed("setup.bringup", parent, || {
            let nodes: Vec<ShardedNode> = setup
                .servers
                .iter()
                .map(|sp| ShardedNode::new(sp.clone(), SHARDS))
                .collect();
            let stores: Vec<ServerStore> = (0..nodes.len())
                .map(|k| ServerStore::open(store_dir.join(format!("server_{k}"))).expect("store"))
                .collect();
            (nodes, stores)
        });

        // One owner at a time, so only one owner's plaintext and tables
        // are resident beside the nodes.
        let generator = LineItemConfig::full(shape.cells as u64, cfg.seed);
        let mut data = Vec::with_capacity(shape.owners);
        for j in 0..shape.owners {
            let rows = spans.timed("setup.generate", parent, || generator.generate_owner(j));
            let shared = spans.timed("setup.sharegen", parent, || {
                outsource_owner(
                    &rows,
                    &setup.owner,
                    ATTRS,
                    true,
                    cfg.seed ^ (0x1A3E + j as u64),
                )
            });
            data.push(columns_of(&rows, shape.cells));
            drop(rows);
            spans.timed("setup.store", parent, || {
                for (store, table) in stores.iter().zip(&shared.tables) {
                    store.put(j, table).expect("store put");
                }
            });
            drop(shared);
            let fetched: Vec<_> = spans.timed("setup.store", parent, || {
                stores
                    .iter()
                    .map(|s| s.fetch(j).expect("store fetch").0)
                    .collect()
            });
            spans.timed("setup.upload", parent, || {
                for (node, table) in nodes.iter_mut().zip(&fetched) {
                    for (column, shares) in table_columns(table) {
                        node.store(j, column, shares);
                    }
                }
            });
        }

        InmemScanLarge {
            nodes,
            announcer: Announcer::new(setup.announcer.clone()),
            owner: setup.owner,
            threads: procfs::nproc().min(4),
            data,
            oracle: Oracle::default(),
            batch: QueryBatch::new().sum(0).avg(0).count_tuples(),
            expected_batch: Vec::new(),
            seed: cfg.seed,
            store_dir,
        }
    }

    fn arm(&mut self) -> u64 {
        self.oracle = Oracle::of(&self.data);
        self.expected_batch = self.oracle.batch(self.oracle.sums.len());
        // Only the expectation is needed from here on.
        digest(&std::mem::take(&mut self.data))
    }

    fn op(&self, _client: usize, seq: usize, kind: OpKind) -> Sample {
        let seed = self.seed ^ (seq as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let o = &self.oracle;
        match kind {
            OpKind::Psi => timed_query(kind, || self.run(&plans::Psi), |a| a.common == o.common),
            OpKind::Psu => timed_query(kind, || self.run(&plans::Psu), |a| *a == o.union),
            OpKind::Count => {
                timed_query(kind, || self.run(&plans::Count), |a| *a == o.common.len())
            }
            OpKind::PsiVerified => timed_query(
                kind,
                || self.run(&plans::PsiVerified),
                |a| a.common == o.common,
            ),
            _ => timed_query(
                kind,
                || {
                    self.run(&plans::Batch {
                        batch: &self.batch,
                        seed,
                    })
                },
                |a| *a == self.expected_batch,
            ),
        }
    }

    fn teardown(self) {
        if let Err(e) = std::fs::remove_dir_all(&self.store_dir) {
            eprintln!("cannot remove {}: {e}", self.store_dir.display());
        }
    }
}
