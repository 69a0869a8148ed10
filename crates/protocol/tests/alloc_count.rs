//! Allocation-count regression wall for the flat hot paths.
//!
//! The engine's arena refactor promises that the warm PSI round-1 server
//! step performs **zero** heap allocations per call when the caller owns
//! the buffers (`server_psi_round_into` with a cached power table), and
//! that a warm `ServerNode::execute` stays at a small constant number of
//! allocations per query (the reply vector that escapes to the caller,
//! plus bookkeeping — never O(rows) beyond it). A counting global
//! allocator pins both properties so an accidental per-row `Vec` in a
//! kernel loop fails CI instead of silently costing throughput.
//!
//! Everything is asserted inside one `#[test]` so no sibling test thread
//! can allocate mid-measurement; each measurement additionally takes the
//! minimum over several reps to shrug off any stray allocation from the
//! harness itself.

use prism_core::Prg;
use prism_protocol::engine::{BatchItem, BatchQuery, Column, QueryOp, ServerCmd, ServerNode};
use prism_protocol::params::{Initiator, Setup, SystemConfig};
use prism_protocol::psi;
use prism_protocol::ShardedNode;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates verbatim to `System`; the counter bump has no effect
// on allocation behavior.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Allocation count of one call of `f`, minimized over `reps` warm calls.
fn min_allocs_of<F: FnMut()>(reps: usize, mut f: F) -> u64 {
    f(); // warm
    let mut min = u64::MAX;
    for _ in 0..reps {
        let before = allocs();
        f();
        min = min.min(allocs() - before);
    }
    min
}

const CELLS: usize = 1_024;
const OWNERS: usize = 3;

fn setup() -> Setup {
    Initiator::new(SystemConfig::new(OWNERS, CELLS).with_seed(77))
        .setup()
        .expect("setup")
}

fn owner_shares(delta: u64, b: usize) -> Vec<Vec<u64>> {
    let mut prg = Prg::from_seed(0xA110_C0DE);
    (0..OWNERS)
        .map(|_| (0..b).map(|_| prg.below(delta)).collect())
        .collect()
}

#[test]
fn warm_hot_paths_stay_allocation_free() {
    let setup = setup();
    let sp = &setup.servers[0];
    let shares = owner_shares(sp.delta, sp.b);

    // --- The raw kernel: zero allocations per warm call, exactly.
    {
        let refs: Vec<&[u64]> = shares.iter().map(|s| s.as_slice()).collect();
        let table = sp.power_table();
        let mut out = vec![0u64; sp.b];
        let psi_allocs = min_allocs_of(5, || {
            psi::server_psi_round_into(&refs, sp, &table, &mut out, 1).expect("psi round");
        });
        assert_eq!(
            psi_allocs, 0,
            "warm server_psi_round_into must not touch the heap"
        );
    }

    // --- The full node: the reply vector escapes to the caller, so a
    // warm execute may allocate it (plus O(1) bookkeeping), but nothing
    // per row beyond that.
    {
        let mut node = ServerNode::new(sp.clone());
        for (owner, data) in shares.iter().enumerate() {
            node.store(owner, Column::Ok, data.clone());
        }
        let batch = ServerCmd::Run(BatchQuery {
            zs: vec![],
            items: vec![BatchItem::plain(QueryOp::Psi)],
            threads: 1,
            range: None,
        });
        let node_allocs = min_allocs_of(5, || {
            node.execute(&batch).expect("execute");
        });
        assert!(
            node_allocs <= 8,
            "warm ServerNode::execute allocated {node_allocs} times per query; \
             expected a small constant (reply vector + bookkeeping)"
        );
        // The permuted ops stage through the arena: same bound.
        let count_batch = ServerCmd::Run(BatchQuery {
            zs: vec![],
            items: vec![BatchItem::plain(QueryOp::Count)],
            threads: 1,
            range: None,
        });
        let count_allocs = min_allocs_of(5, || {
            node.execute(&count_batch).expect("execute count");
        });
        assert!(
            count_allocs <= 8,
            "warm Count execute allocated {count_allocs} times per query"
        );
    }

    // --- The sharded domain: shards are row ranges of one round, not
    // sub-queries — a warm three-item `z`-carrying batch over two shards
    // allocates its three reply vectors plus the same small constant: no
    // per-shard `z` copies, no per-shard output vectors.
    {
        let mut node = ShardedNode::new(setup.servers[2].clone(), 2);
        let p = setup.servers[2].field.p;
        for column in [Column::Agg(0), Column::VAgg(0), Column::AOk] {
            for (owner, data) in owner_shares(p, CELLS).into_iter().enumerate() {
                node.store(owner, column, data);
            }
        }
        let batch = ServerCmd::Run(BatchQuery {
            zs: owner_shares(p, CELLS),
            items: vec![
                BatchItem::with_z(QueryOp::Sum(0), 0),
                BatchItem::with_z(QueryOp::SumVerify(0), 1),
                BatchItem::with_z(QueryOp::SumCounts, 2),
            ],
            threads: 1,
            range: None,
        });
        let sharded_allocs = min_allocs_of(5, || {
            node.execute(&batch).expect("sharded execute");
        });
        assert!(
            sharded_allocs <= 8 + 3,
            "warm two-shard execute of three items allocated {sharded_allocs} times per query"
        );
    }
}
