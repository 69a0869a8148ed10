//! Allocation wall for the wire decode hot path.
//!
//! The serving loops decode a fresh `Vec<u64>` per row vector on every
//! round and drop it after the kernel ran — with the decode-side buffer
//! pool (`wire::recycle_vec`), a warmed-up server instead reuses those
//! buffers, so a steady-state decode touches the allocator only for O(1)
//! bookkeeping (the outer vector and the message enum), never O(rows)
//! or O(columns × rows). A counting global allocator pins that bound so
//! an accidental per-row allocation on the hot path fails CI instead of
//! silently costing throughput.
//!
//! The serving side has the same wall for what it *computes*: a node's
//! reply vectors return to its arena once the reply frame is encoded, and
//! the owner's decoded copies return to the pool once the owner step has
//! read them, so a warm round asks the allocator for no `ROWS`-long `u64`
//! buffer anywhere in the process. A round the PSI-round cache serves
//! shares the cached vectors, so a fully warm query allocates no reply
//! buffer at all — only the row vectors its plan builds itself.
//!
//! Everything is asserted inside one `#[test]` so no sibling test thread
//! can allocate mid-measurement; each measurement takes the minimum over
//! several reps to shrug off stray harness allocations.

use prism_net::wire::recycle_vecs;
use prism_net::{Column, Message, NetCluster};
use prism_protocol::driver::{Cluster, ClusterConfig, OwnerInput};
use prism_protocol::malicious::Tamper;
use prism_protocol::plans::{self, QueryBatch};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// Requests shaped like one row vector: `ROWS` `u64`s, exactly. Frames are
/// byte buffers a header longer, so they never match.
static ROW_BUFFERS: AtomicU64 = AtomicU64::new(0);

fn note(size: usize, align: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    if size == ROWS * 8 && align == 8 {
        ROW_BUFFERS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: delegates verbatim to `System`; the counter bumps have no effect
// on allocation behavior.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), layout.align());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size, layout.align());
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
    f(); // warm the pool
    let mut min = u64::MAX;
    for _ in 0..reps {
        let before = allocs();
        f();
        min = min.min(allocs() - before);
    }
    min
}

const ROWS: usize = 4096;

#[test]
fn warm_decode_draws_row_buffers_from_the_pool() {
    // --- Server reply path: a four-item Outputs frame of 4096-row
    // vectors. Warm, the row buffers come back from the pool: only the
    // outer vector (and enum bookkeeping) may allocate.
    {
        let outputs: Vec<Vec<u64>> = (0..4u64)
            .map(|i| (0..ROWS as u64).map(|r| r * 31 + i).collect())
            .collect();
        let bytes = Message::Outputs(outputs.clone()).encode();
        let warm = min_allocs_of(5, || match Message::decode(&bytes).expect("decode") {
            Message::Outputs(got) => {
                assert_eq!(got, outputs, "pooling corrupted a decoded row vector");
                recycle_vecs(got);
            }
            other => panic!("decoded the wrong message: {other:?}"),
        });
        assert!(
            warm <= 6,
            "warm Outputs decode allocated {warm} times for {ROWS}-row vectors; \
             expected O(1) bookkeeping, not O(rows)"
        );
    }

    // --- Upload path: a BulkUpload frame (three 4096-row columns), the
    // shape every delta upload rides. Same bound.
    {
        let columns: Vec<(Column, Vec<u64>)> = [Column::Ok, Column::Agg(0), Column::AOk]
            .into_iter()
            .map(|c| (c, (0..ROWS as u64).collect()))
            .collect();
        let bytes = Message::BulkUpload {
            owner: 2,
            columns: columns.clone(),
        }
        .encode();
        let warm = min_allocs_of(5, || match Message::decode(&bytes).expect("decode") {
            Message::BulkUpload {
                owner,
                columns: got,
            } => {
                assert_eq!(owner, 2);
                assert_eq!(got, columns, "pooling corrupted a decoded column");
                recycle_vecs(got.into_iter().map(|(_, data)| data));
            }
            other => panic!("decoded the wrong message: {other:?}"),
        });
        assert!(
            warm <= 6,
            "warm BulkUpload decode allocated {warm} times for three {ROWS}-row \
             columns; expected O(1) bookkeeping, not O(columns × rows)"
        );
    }

    // --- A served round: `Count` over a channel cluster — at each
    // additive node one output buffer and one permutation staging buffer,
    // at the owner two decoded replies and a number for a result. The
    // first query allocates them; after it every one is back where the
    // next query looks for it.
    {
        let inputs: Vec<OwnerInput> = (0..2u64)
            .map(|j| OwnerInput::from_set((1..=ROWS as u64).filter(|v| v % (j + 2) != 0)))
            .collect();
        let mut cfg = ClusterConfig::new(ROWS);
        (cfg.with_verification, cfg.with_aggregation) = (false, false);
        let net = NetCluster::start_local(cfg.setup(inputs.len()).expect("setup"));
        let cluster = Cluster::over(net, &inputs, cfg).expect("outsource");
        let count = || cluster.execute(&plans::Count).expect("count").0;
        // A node hands its buffers back after answering, under the read
        // lock the round ran under; an (honest) tamper update takes the
        // write lock, so once it is acked they are home.
        let settle = || {
            for server in 0..2 {
                let net = cluster.deployment();
                net.set_tamper(server, Tamper::Honest).expect("barrier");
            }
        };
        let expected = count();
        settle();
        for _ in 0..3 {
            let before = ROW_BUFFERS.load(Ordering::Relaxed);
            assert_eq!(count(), expected);
            settle();
            let fresh = ROW_BUFFERS.load(Ordering::Relaxed) - before;
            assert_eq!(
                fresh, 0,
                "a warm served round allocated {fresh} row buffers: reply vectors \
                 must return to the node's arena and the owner's decode pool"
            );
        }
        cluster.into_deployment().shutdown().expect("shutdown");
    }

    // --- A fully warm cached query: `psi_query_batch` (sum, average and
    // tuple counts) on a cached channel cluster, both rounds served from
    // the cache. Served rounds share the cached vectors, so the only row
    // buffers are the plan's own: round 2's three z-shares and the two
    // finalized columns (sums and tuple counts) — five, no reply copies.
    {
        let inputs: Vec<OwnerInput> = (0..3u64)
            .map(|j| {
                let rows = (1..=ROWS as u64).filter(|v| v % (j + 2) != 0);
                OwnerInput::from_pairs(rows.map(|v| (v, v % 97 + j)))
            })
            .collect();
        let mut cfg = ClusterConfig::new(ROWS);
        cfg.with_verification = false;
        let mut net = NetCluster::start_local(cfg.setup(inputs.len()).expect("setup"));
        net.enable_cache();
        let cluster = Cluster::over(net, &inputs, cfg).expect("outsource");
        let batch = QueryBatch::new().sum(0).avg(0).count_tuples();
        let (expected, cold) = cluster.psi_query_batch(&batch).expect("cold batch");
        assert_eq!(cold.rounds, 2);
        for _ in 0..3 {
            let before = ROW_BUFFERS.load(Ordering::Relaxed);
            let (answer, warm) = cluster.psi_query_batch(&batch).expect("warm batch");
            let fresh = ROW_BUFFERS.load(Ordering::Relaxed) - before;
            assert_eq!((warm.rounds, warm.cache_hits), (0, 2));
            assert_eq!(answer, expected);
            assert_eq!(
                fresh, 5,
                "a fully warm batch allocated {fresh} row buffers; the plan's own \
                 are three z-shares and two finalized columns, and a served round \
                 must hand out the cached vectors, not copies"
            );
        }
        cluster.into_deployment().shutdown().expect("shutdown");
    }

    // --- Pool byte caps: the pool is bounded in *bytes*, not just in
    // buffer count, so a burst of huge frames cannot pin unbounded
    // memory behind the 64-slot limit.
    {
        use prism_net::wire::{
            recycle_vec, vec_pool_stats, VEC_POOL_MAX_BUFFER_BYTES, VEC_POOL_MAX_TOTAL_BYTES,
        };

        // An over-sized buffer is dropped, not pooled.
        let (_, bytes_before) = vec_pool_stats();
        recycle_vec(Vec::with_capacity(VEC_POOL_MAX_BUFFER_BYTES / 8 + 1));
        let (_, bytes_after) = vec_pool_stats();
        assert_eq!(
            bytes_after, bytes_before,
            "a buffer over VEC_POOL_MAX_BUFFER_BYTES must not enter the pool"
        );

        // Recycling a stream of max-size buffers saturates at the total
        // byte cap instead of filling all 64 slots.
        for _ in 0..64 {
            recycle_vec(Vec::with_capacity(VEC_POOL_MAX_BUFFER_BYTES / 8));
        }
        let (bufs, bytes) = vec_pool_stats();
        assert!(
            bytes <= VEC_POOL_MAX_TOTAL_BYTES,
            "pool holds {bytes} bytes, over the {VEC_POOL_MAX_TOTAL_BYTES}-byte cap"
        );
        assert!(bufs <= 64, "pool holds {bufs} buffers, over the slot cap");
    }
}
