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
//! The same allocator counts **bytes**, and the warm in-process queries
//! are pinned by them: a whole query may request what it returns (plus,
//! for the aggregations, the three `z`-share columns it sends, and for
//! verified PSI one narrow table) and a few KB of bookkeeping — the reply
//! vectors come out of the row-buffer pool and go back. A `to_vec`, a
//! zero-fill-then-overwrite or an intermediate vector reintroduced on the
//! owner side is at least one more domain-length buffer, and fails here.
//!
//! Max and median are pinned on their two once-only rules: a served claim
//! relay allocates one vector per owner, not per cell, and the owners'
//! F-table is built by the first max of a parameter set and by no later
//! max or median.
//!
//! A streaming append costs what it adds. `Setup::grow` copies the five
//! Equation-1 family maps (the parent setup stays alive until it is
//! replaced) and nothing else domain-sized, and the nodes grow their
//! finish permutations in place: what an append requests beside those
//! five maps is the same at 8 192 and at 65 536 cells.
//!
//! Everything is asserted inside one `#[test]` so no sibling test thread
//! can allocate mid-measurement; each measurement additionally takes the
//! minimum over several reps to shrug off any stray allocation from the
//! harness itself.

use prism_core::Prg;
use prism_protocol::average::AvgCell;
use prism_protocol::driver::{Cluster, ClusterConfig, OwnerInput, QueryBatch};
use prism_protocol::engine::{BatchItem, BatchQuery, Column, QueryOp, ServerCmd, ServerNode};
use prism_protocol::params::{Initiator, Setup, SystemConfig};
use prism_protocol::ShardedNode;
use prism_protocol::{plans, psi};
use std::alloc::{GlobalAlloc, Layout, System};
use std::mem::size_of;
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates verbatim to `System`; the counter bumps have no effect
// on allocation behavior.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Bytes requested by one call of `f`, minimized over `reps` warm calls.
fn min_bytes_of<F: FnMut()>(reps: usize, mut f: F) -> usize {
    f(); // warm: the reply buffers exist and are home
    let mut min = u64::MAX;
    for _ in 0..reps {
        let before = BYTES.load(Ordering::Relaxed);
        f();
        min = min.min(BYTES.load(Ordering::Relaxed) - before);
    }
    min as usize
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
        // The permuted ops stage through the pool: same bound.
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

    // --- Ingest: a put adds the owner's shares into the one summed column
    // and keeps no row of them. The first owner's put requests that
    // column; every later put, and a fold, requests no row memory at all —
    // only the per-owner row count and epoch.
    {
        /// The owner record, the version stamps, the column list.
        const INGEST_BOOKKEEPING: usize = 192;
        let mut node = ServerNode::new(sp.clone());
        let mut puts = Vec::new();
        for (owner, data) in shares.iter().enumerate() {
            let columns = vec![(Column::Ok, data.clone())];
            let before = BYTES.load(Ordering::Relaxed);
            node.put(owner, 0, columns).expect("put");
            puts.push(BYTES.load(Ordering::Relaxed) - before);
        }
        let columns = vec![(Column::Ok, shares[0].clone())];
        let before = BYTES.load(Ordering::Relaxed);
        node.fold(0, 1, columns).expect("fold");
        let fold = BYTES.load(Ordering::Relaxed) - before;
        let column = sp.b * size_of::<u64>();
        assert!(
            puts[0] as usize <= column + INGEST_BOOKKEEPING,
            "the first put requested {} B beside its {column} B sum column",
            puts[0]
        );
        for (owner, &bytes) in puts.iter().enumerate().skip(1).chain([(0, &fold)]) {
            assert!(
                bytes as usize <= INGEST_BOOKKEEPING,
                "owner {owner}'s write requested {bytes} B: a row copy was kept"
            );
        }
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

    // --- The claim relay: a served `AssembleFpos` hands the owners'
    // claim columns back in owner order — the list and m row vectors,
    // never one vector per cell.
    {
        let node = ServerNode::new(sp.clone());
        let relay = ServerCmd::AssembleFpos {
            claims: owner_shares(sp.delta, CELLS),
        };
        let relay_allocs = min_allocs_of(5, || {
            node.execute(&relay).expect("assemble fpos");
        });
        assert!(
            relay_allocs <= OWNERS as u64 + 1,
            "a served AssembleFpos over {CELLS} cells allocated {relay_allocs} times"
        );
    }

    // --- One F-table per parameter set: the first max builds it, and no
    // later max or median on the same parameters builds another.
    {
        const B: usize = 64;
        const HI: u64 = 1 << 16;
        let inputs: Vec<OwnerInput> = (0..OWNERS as u64)
            .map(|j| OwnerInput::from_pairs((1..=B as u64).map(|v| (v, v * 7 % 1000 + j))))
            .collect();
        let mut cfg = ClusterConfig::new(B);
        cfg.agg_domain_max = HI;
        let cluster = Cluster::build(&inputs, cfg).expect("cluster");
        let table_bytes = (HI as usize + 2) * cluster.setup().owner.wide_width * size_of::<u64>();
        let before = BYTES.load(Ordering::Relaxed);
        cluster.psi_max(0).expect("first max");
        let first_bytes = BYTES.load(Ordering::Relaxed) - before;
        assert!(
            first_bytes as usize >= table_bytes,
            "the first max requested {first_bytes} B, less than its {table_bytes} B F-table"
        );
        let max_bytes = min_bytes_of(3, || {
            cluster.psi_max(0).expect("max");
        });
        let median_bytes = min_bytes_of(3, || {
            cluster.psi_median(0).expect("median");
        });
        assert!(
            max_bytes < table_bytes && median_bytes < table_bytes,
            "a repeat max requested {max_bytes} B and a median {median_bytes} B: \
             one rebuilt the {table_bytes} B F-table"
        );
    }

    // --- Whole warm queries through the engine, in bytes. Every owner
    // holds every cell, so `common` is as long as it gets.
    {
        const B: usize = 8_192;
        /// Commands, item lists, per-server reply lists, stats: O(1).
        const BOOKKEEPING: usize = 4_096;
        let inputs: Vec<OwnerInput> = (0..OWNERS as u64)
            .map(|j| OwnerInput::from_pairs((1..=B as u64).map(|v| (v, v % 50 + j))))
            .collect();
        let cluster = Cluster::build(&inputs, ClusterConfig::new(B)).expect("cluster");
        let word = size_of::<u64>();

        // PSI returns fop, members and common — and requests nothing else.
        let psi_result = B * word + B * size_of::<bool>() + B * size_of::<usize>();
        let psi_bytes = min_bytes_of(5, || {
            let (outcome, _) = cluster.execute(&plans::Psi).expect("psi");
            assert_eq!(outcome.common.len(), B);
        });
        assert!(
            psi_bytes <= psi_result + BOOKKEEPING,
            "warm PSI requested {psi_bytes} B for a {psi_result} B result"
        );

        // Verified PSI adds the table of residues mod η, four bytes a cell.
        let verified_bytes = min_bytes_of(5, || {
            cluster.execute(&plans::PsiVerified).expect("psi verified");
        });
        assert!(
            verified_bytes <= psi_result + B * size_of::<u32>() + BOOKKEEPING,
            "warm verified PSI requested {verified_bytes} B for a {psi_result} B result"
        );

        // PSU returns one byte a cell; count returns a number.
        let psu_bytes = min_bytes_of(5, || {
            cluster.execute(&plans::Psu).expect("psu");
        });
        assert!(
            psu_bytes <= B + BOOKKEEPING,
            "warm PSU requested {psu_bytes} B"
        );
        let count_bytes = min_bytes_of(5, || {
            let (count, _) = cluster.execute(&plans::Count).expect("count");
            assert_eq!(count, B);
        });
        assert!(
            count_bytes <= BOOKKEEPING,
            "warm count requested {count_bytes} B"
        );

        // The benchmark's batch: sums, averages and counts out, the three
        // z-share columns in; neither fop nor z nor a copied column.
        let batch = QueryBatch::new().sum(0).avg(0).count_tuples();
        let batch_result = B * (2 * word + size_of::<AvgCell>());
        let batch_bytes = min_bytes_of(5, || {
            cluster.psi_query_batch(&batch).expect("batch");
        });
        assert!(
            batch_bytes <= batch_result + 3 * B * word + BOOKKEEPING,
            "warm Batch{{sum,avg,count}} requested {batch_bytes} B for a {batch_result} B \
             result and three {} B z-share columns",
            B * word
        );
    }
    // --- Streaming appends: `Setup::grow` requests the five family maps
    // and O(added) besides; the whole append, those maps aside, requests
    // the same bytes at both domain sizes. The minimum over several
    // appends skips the ones where a growing `Vec` doubled.
    {
        const ADDED: usize = 64;
        const APPENDS: usize = 6;
        let mut beside_family = Vec::new();
        for b in [8_192usize, 65_536] {
            let inputs: Vec<OwnerInput> = (0..OWNERS as u64)
                .map(|j| OwnerInput::from_pairs((1..=b as u64).map(|v| (v, v % 50 + j))))
                .collect();
            let mut cluster = Cluster::build(&inputs, ClusterConfig::new(b)).expect("cluster");
            let mut min_beside = usize::MAX;
            for epoch in 1..=APPENDS as u64 {
                let start = cluster.setup().owner.b;
                let family = 5 * (start + ADDED) * size_of::<u32>();
                let before = BYTES.load(Ordering::Relaxed);
                let grown = cluster.setup().grow(ADDED, epoch, 9).expect("grow");
                let grow_bytes = (BYTES.load(Ordering::Relaxed) - before) as usize;
                drop(grown);
                assert!(
                    grow_bytes <= family + 64 * ADDED * size_of::<u32>() + 4_096,
                    "Setup::grow at b = {start} requested {grow_bytes} B beside the \
                     {family} B of the five family maps: a view re-copied a map"
                );
                let delta: Vec<OwnerInput> = (0..OWNERS as u64)
                    .map(|j| {
                        let rows =
                            (start as u64 + 1..=(start + ADDED) as u64).step_by(j as usize + 1);
                        OwnerInput::from_pairs(rows.map(|v| (v, v % 40 + j)))
                    })
                    .collect();
                let before = BYTES.load(Ordering::Relaxed);
                cluster.append(ADDED, &delta).expect("append");
                let append_bytes = (BYTES.load(Ordering::Relaxed) - before) as usize;
                if epoch > 1 {
                    min_beside = min_beside.min(append_bytes.saturating_sub(family));
                }
            }
            beside_family.push(min_beside);
        }
        assert_eq!(
            beside_family[0], beside_family[1],
            "an append requested {} B beside the family maps at 8 192 cells and {} B at \
             65 536: some node or view grew a domain-sized map by copying it",
            beside_family[0], beside_family[1]
        );
    }
}
