//! `ClusterConfig::threads` must not be decorative: for **every**
//! operation, running with `threads > 1` must (a) produce results
//! identical to the single-threaded run and (b) observably take the
//! chunked parallel path (`chunk::parallel_dispatches` counts only calls
//! that actually split work across scoped threads).
//!
//! It must not be wasteful either: a stored-column round divides its rows
//! **once**, so a server `Run` is exactly one parallel dispatch whatever
//! its item and shard counts, and `threads = 1` never spawns at all.
//!
//! The counter is process-global, so everything lives in one `#[test]`.

use prism_protocol::chunk;
use prism_protocol::driver::{Cluster, ClusterConfig, OwnerInput, QueryBatch};

const DOMAIN: usize = 96;
const THREADS: usize = 4;

fn build(threads: usize) -> Cluster {
    build_sharded(threads, 1)
}

fn build_sharded(threads: usize, shards: usize) -> Cluster {
    // 3 owners, two aggregation attributes, plenty of overlap so max /
    // median have common cells to pipeline.
    let inputs: Vec<OwnerInput> = (0..3u64)
        .map(|j| OwnerInput {
            rows: (1..=DOMAIN as u64)
                .filter(|v| v % (j + 2) != 1)
                .map(|v| (v, vec![v * 3 + j, v % 17 + j]))
                .collect(),
        })
        .collect();
    let mut cfg = ClusterConfig::new(DOMAIN).with_shards(shards);
    cfg.seed = 0xD15;
    cfg.agg_domain_max = 4000;
    cfg.threads = threads;
    Cluster::build(&inputs, cfg).unwrap()
}

/// Parallel dispatches `op` makes on `c`.
fn dispatches_of<T>(c: &Cluster, op: impl Fn(&Cluster) -> T) -> (T, u64) {
    let before = chunk::parallel_dispatches();
    let result = op(c);
    (result, chunk::parallel_dispatches() - before)
}

/// Run `op` on a single-threaded and a multi-threaded cluster; assert the
/// outputs agree, that the multi-threaded run dispatched in parallel and
/// that the single-threaded one never did.
fn check<T: PartialEq + std::fmt::Debug>(name: &str, op: impl Fn(&Cluster) -> T) {
    let (reference, serial) = dispatches_of(&build(1), &op);
    let (result, parallel) = dispatches_of(&build(THREADS), &op);
    assert_eq!(result, reference, "{name}: threads changed the result");
    assert_eq!(serial, 0, "{name}: threads=1 spawned");
    assert!(
        parallel > 0,
        "{name}: threads={THREADS} never took the parallel chunk path"
    );
}

#[test]
fn every_operation_parallelizes_and_matches_serial() {
    check("psi", |c| c.psi().unwrap().0.fop);
    check("psi_verified", |c| c.psi_verified().unwrap().0.fop);
    check("psu", |c| c.psu().unwrap().0);
    check("psu_verified", |c| c.psu_verified().unwrap().0);
    check("count", |c| c.psi_count().unwrap().0);
    check("count_verified", |c| c.psi_count_verified().unwrap().0);
    check("sum", |c| c.psi_sum(0).unwrap().0);
    check("sum_multi", |c| c.psi_sum_multi(&[0, 1]).unwrap().0);
    check("sum_verified", |c| c.psi_sum_verified(0).unwrap().0);
    check("average", |c| {
        c.psi_avg(0)
            .unwrap()
            .0
            .iter()
            .map(|cell| (cell.sum, cell.count))
            .collect::<Vec<_>>()
    });
    check("max", |c| {
        let (cells, holders, _) = c.psi_max(0).unwrap();
        (
            cells.iter().map(|m| (m.cell, m.max)).collect::<Vec<_>>(),
            holders,
        )
    });
    check("median", |c| {
        c.psi_median(0)
            .unwrap()
            .0
            .iter()
            .map(|m| (m.cell, m.values.clone()))
            .collect::<Vec<_>>()
    });
    let batch = QueryBatch::new().sum(0).avg(1).count_tuples();
    check("query_batch", |c| c.psi_query_batch(&batch).unwrap().0);

    // One division per server `Run`, whatever the item and shard counts:
    // PSI is one round on the two additive servers, the batch adds one
    // three-item round on the three Shamir servers.
    for shards in [1usize, 3] {
        let c = build_sharded(THREADS, shards);
        let (_, psi) = dispatches_of(&c, |c| c.psi().unwrap());
        assert_eq!(psi, 2, "psi, shards={shards}");
        let (_, batched) = dispatches_of(&c, |c| c.psi_query_batch(&batch).unwrap());
        assert_eq!(batched, 2 + 3, "query_batch, shards={shards}");
        let serial = build_sharded(1, shards);
        let (_, none) = dispatches_of(&serial, |c| c.psi_query_batch(&batch).unwrap());
        assert_eq!(none, 0, "query_batch at threads=1, shards={shards}");
    }
}
