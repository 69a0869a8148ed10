//! `ClusterConfig::threads` must not be decorative, and must not be
//! wasteful either. For **every** operation, any `threads` value must
//! produce results identical to the single-threaded run, and:
//!
//! * a stored-column round divides its rows **once**, and only when the
//!   division pays (`chunk`'s when-to-divide rule: one worker per 2¹⁸
//!   cell·items, `threads` at most). On a domain of twice that, every
//!   stored-column operation takes the chunked parallel path exactly once
//!   per server `Run`, whatever its item and shard counts; on a 96-cell
//!   domain no `threads` value spawns anything;
//! * the wide max / median rounds (hundreds of multiplications per row)
//!   divide whenever `threads > 1`, at the small domain too;
//! * `threads = 1` never spawns, at any size.
//!
//! `chunk::parallel_dispatches` counts only calls that actually split work
//! across scoped threads. The counter is process-global, so everything
//! lives in one `#[test]`.

use prism_protocol::average::AvgCell;
use prism_protocol::chunk;
use prism_protocol::driver::{Cluster, ClusterConfig, OwnerInput, QueryBatch};
use prism_protocol::AggResult;

/// Small enough that no stored-column round is worth a worker.
const SMALL: usize = 96;
/// Twice `chunk`'s cell·items per worker: a one-item round is worth two.
const LARGE: usize = 2 << 18;
const THREADS: usize = 4;

fn build(domain: usize, threads: usize, shards: usize) -> Cluster {
    // Two owners, two aggregation attributes, plenty of overlap so max /
    // median have common cells to pipeline.
    let inputs: Vec<OwnerInput> = (0..2u64)
        .map(|j| OwnerInput {
            rows: (1..=domain as u64)
                .filter(|v| v % (j + 2) != 1)
                .map(|v| (v, vec![v % 1000 * 3 + j, v % 17 + j]))
                .collect(),
        })
        .collect();
    let mut cfg = ClusterConfig::new(domain).with_shards(shards);
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

/// A stored-column operation: its name, the server `Run`s it issues (one
/// per server per round), and a closure running it to a comparable digest.
type StoredOp = (&'static str, u64, Box<dyn Fn(&Cluster) -> Vec<u64>>);

fn averages(cells: &[AvgCell]) -> Vec<u64> {
    cells.iter().flat_map(|a| [a.sum, a.count]).collect()
}

fn stored_ops() -> Vec<StoredOp> {
    let bits = |m: Vec<bool>| m.into_iter().map(u64::from).collect::<Vec<_>>();
    let batch = QueryBatch::new().sum(0).avg(1).count_tuples();
    vec![
        ("psi", 2, Box::new(|c| c.psi().unwrap().0.fop)),
        (
            "psi_verified",
            2,
            Box::new(|c| c.psi_verified().unwrap().0.fop),
        ),
        ("psu", 2, Box::new(move |c| bits(c.psu().unwrap().0))),
        (
            "psu_verified",
            2,
            Box::new(|c| vec![c.psu_verified().unwrap().0 as u64]),
        ),
        (
            "count",
            2,
            Box::new(|c| vec![c.psi_count().unwrap().0 as u64]),
        ),
        (
            "count_verified",
            2,
            Box::new(|c| vec![c.psi_count_verified().unwrap().0 as u64]),
        ),
        ("sum", 2 + 3, Box::new(|c| c.psi_sum(0).unwrap().0)),
        (
            "sum_multi",
            2 + 3,
            Box::new(|c| c.psi_sum_multi(&[0, 1]).unwrap().0.concat()),
        ),
        (
            "sum_verified",
            2 + 3,
            Box::new(|c| c.psi_sum_verified(0).unwrap().0),
        ),
        (
            "average",
            2 + 3,
            Box::new(|c| averages(&c.psi_avg(0).unwrap().0)),
        ),
        (
            "query_batch",
            2 + 3,
            Box::new(move |c| {
                let results = c.psi_query_batch(&batch).unwrap().0;
                results
                    .into_iter()
                    .flat_map(|r| match r {
                        AggResult::Sums(v) | AggResult::Counts(v) => v,
                        AggResult::Avg(cells) => averages(&cells),
                    })
                    .collect()
            }),
        ),
    ]
}

#[test]
fn every_operation_parallelizes_and_matches_serial() {
    let ops = stored_ops();

    // The large domain: exactly one division per server `Run`, the serial
    // result, and none at `threads = 1` — for one shard and for three.
    for shards in [1usize, 3] {
        let mut c = build(LARGE, 1, shards);
        let serial: Vec<Vec<u64>> = ops
            .iter()
            .map(|(name, _, op)| {
                let (result, spawned) = dispatches_of(&c, op);
                assert_eq!(spawned, 0, "{name}: threads=1 spawned, shards={shards}");
                result
            })
            .collect();
        c.set_threads(THREADS);
        for ((name, runs, op), reference) in ops.iter().zip(&serial) {
            let (result, spawned) = dispatches_of(&c, op);
            assert_eq!(
                &result, reference,
                "{name}: threads changed the result, shards={shards}"
            );
            assert_eq!(
                spawned, *runs,
                "{name}: one division per server Run, shards={shards}"
            );
        }
    }

    // The small domain: a stored-column round is never worth a worker.
    let mut c = build(SMALL, 1, 1);
    let serial: Vec<Vec<u64>> = ops.iter().map(|(_, _, op)| op(&c)).collect();
    for threads in [2, THREADS, 64] {
        c.set_threads(threads);
        for ((name, _, op), reference) in ops.iter().zip(&serial) {
            let (result, spawned) = dispatches_of(&c, op);
            assert_eq!(&result, reference, "{name}: threads={threads}");
            assert_eq!(
                spawned, 0,
                "{name}: {SMALL} cells spawned at threads={threads}"
            );
        }
    }

    // The wide rounds are not under the rule: they divide at the small
    // domain whenever they may, and never at `threads = 1`.
    let max = |c: &Cluster| {
        let (cells, holders, _) = c.psi_max(0).unwrap();
        (
            cells.iter().map(|m| (m.cell, m.max)).collect::<Vec<_>>(),
            holders,
        )
    };
    let median = |c: &Cluster| {
        let cells = c.psi_median(0).unwrap().0;
        cells
            .iter()
            .map(|m| (m.cell, m.values.clone()))
            .collect::<Vec<_>>()
    };
    c.set_threads(1);
    let (max_serial, max_spawned) = dispatches_of(&c, max);
    let (median_serial, median_spawned) = dispatches_of(&c, median);
    assert_eq!((max_spawned, median_spawned), (0, 0), "threads=1 spawned");
    c.set_threads(THREADS);
    let (max_parallel, max_spawned) = dispatches_of(&c, max);
    let (median_parallel, median_spawned) = dispatches_of(&c, median);
    assert_eq!(max_parallel, max_serial, "max: threads changed the result");
    assert_eq!(
        median_parallel, median_serial,
        "median: threads changed the result"
    );
    assert!(max_spawned > 0, "max never took the parallel chunk path");
    assert!(
        median_spawned > 0,
        "median never took the parallel chunk path"
    );
}
