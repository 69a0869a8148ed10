//! Chunked multithreading for server-side vector passes.
//!
//! §8.1 Exp 1: "identical computations are executed on each row of the
//! table, \[so\] we exploit multiple CPU cores by … dividing rows into
//! multiple blocks with each thread processing a single block". This module
//! is that division, and the **only** place in the crate that spawns
//! threads: `run_blocks` runs the first block on the calling thread and
//! each further block on its own scoped worker, so `threads` blocks cost
//! `threads − 1` spawns and a single block costs none. No unsafe, no work
//! stealing — the workload is perfectly uniform, so static partitioning is
//! both the fastest and the simplest correct choice.
//!
//! A stored-column round ([`crate::engine`]) divides **once**, and only
//! when dividing pays: `threads` is the caller's upper bound, and
//! `workers_for` lowers it to what the round's cell·items are worth
//! (one worker — no spawn at all — below `CELLS_PER_WORKER`). The rows of
//! every shard are then cut into that many blocks (`block_len`) and worker
//! `w` evaluates block `w` of every batch item, so a server `Run` is at most
//! one `run_blocks` call whatever its item and shard counts. The `fill_*`
//! helpers are the plain division — `threads` blocks whenever every block
//! gets two rows — for a single output vector (the multi-column reference
//! kernels, the wide max/median steps, whose per-row work is hundreds of
//! multiplications, not one). The
//! [`parallel_dispatches`] counter makes the division observable: it counts
//! one per call that actually spawned.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};

/// Count of parallel dispatches (calls that actually split work across
/// scoped threads) since process start. Serial fallbacks do not count.
static PARALLEL_DISPATCHES: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the global parallel-dispatch counter. Monotonic; take a
/// before/after difference to observe whether a code path parallelized.
pub fn parallel_dispatches() -> u64 {
    PARALLEL_DISPATCHES.load(Ordering::Relaxed)
}

/// Run `f` over every block — the first on the calling thread, each
/// further one on its own scoped worker — and collect the results in block
/// order. A block that panicked (on a worker *or* on the caller) surfaces
/// as `Err` with its payload once every block has finished, so one bad
/// block never takes the calling thread down with it.
pub(crate) fn run_blocks<B, R, F>(
    blocks: impl IntoIterator<Item = B>,
    f: F,
) -> std::thread::Result<Vec<R>>
where
    B: Send,
    R: Send,
    F: Fn(B) -> R + Sync,
{
    let mut blocks = blocks.into_iter();
    let Some(first) = blocks.next() else {
        return Ok(Vec::new());
    };
    let f = &f;
    let mine = || catch_unwind(AssertUnwindSafe(|| f(first)));
    // A single block never enters a scope (which allocates).
    let Some(second) = blocks.next() else {
        return mine().map(|r| vec![r]);
    };
    PARALLEL_DISPATCHES.fetch_add(1, Ordering::Relaxed);
    std::thread::scope(|scope| {
        let workers: Vec<_> = std::iter::once(second)
            .chain(blocks)
            .map(|b| scope.spawn(move || f(b)))
            .collect();
        let mine = mine();
        // Join every worker before looking at any result: an unjoined
        // panicked worker would re-panic out of the scope.
        let joined: Vec<_> = workers.into_iter().map(|w| w.join()).collect();
        std::iter::once(mine).chain(joined).collect()
    })
}

/// Cell·items (output cells × batch items) a stored-column round must have
/// per row-block worker before a further worker is worth its spawn.
///
/// The per-cell kernels run at about 1 ns per cell·item (0.7 the Equation-3
/// lookup, 1.4 the Equation-11 / 18 multiply: `benches/arith.rs`), so a
/// second worker takes at most `work / 2` ns off the round. What it costs is
/// not the bare spawn + join (15–25 µs on an idle 2-thread host) but that
/// plus the worker's wake-up on a core whose caches hold none of the
/// columns, the shared-cache traffic of two cores on one 800 KB column and
/// the join's futex round trip: 70–150 µs as the round sees it, measured as
/// the difference between `threads = 2` and `threads = 1` on the same round
/// (EXPERIMENTS.md "Per-cell loops at machine speed"). `work / 2` ns passes
/// 130 µs at `work` = 2^18 cell·items, so that is where the second worker
/// starts, and every further one needs as much again.
pub(crate) const CELLS_PER_WORKER: usize = 1 << 18;

/// The when-to-divide rule of a stored-column round: how many row-block
/// workers `work` cell·items are divided among, `threads` being the most the
/// caller allows — `min(threads, ⌈work / CELLS_PER_WORKER⌉)`, at least one.
pub(crate) fn workers_for(threads: usize, work: usize) -> usize {
    threads.min(work.div_ceil(CELLS_PER_WORKER)).max(1)
}

/// Rows per block when `n` rows are cut for `threads` workers: the whole
/// range when it is not worth dividing (`threads == 1` or fewer than two
/// rows per worker), else `ceil(n / threads)`.
pub(crate) fn block_len(n: usize, threads: usize) -> usize {
    if threads <= 1 || n < 2 * threads {
        n
    } else {
        n.div_ceil(threads)
    }
}

/// `run_blocks` for callers with no use for a caught panic: a block's
/// panic resumes on the caller, as it would have without threads.
pub(crate) fn map_blocks<B, R, F>(blocks: impl IntoIterator<Item = B>, f: F) -> Vec<R>
where
    B: Send,
    R: Send,
    F: Fn(B) -> R + Sync,
{
    run_blocks(blocks, f).unwrap_or_else(|panic| resume_unwind(panic))
}

/// Fill `out` by running `f(global_start_index, chunk)` on `threads`
/// contiguous chunks in parallel. `threads == 0` is treated as 1.
pub(crate) fn fill_chunks<T, F>(out: &mut [T], threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    fill_rows(out, 1, threads, f)
}

/// Row-aligned variant of [`fill_chunks`] for flat row-major buffers
/// (e.g. `WideVec::data`): `out` is split into chunks whose boundaries are
/// multiples of `stride`, and `f(first_row, chunk)` fills each chunk.
/// Used by the wide-share server steps (max/median round 2), whose unit of
/// work is a row, not a scalar.
pub(crate) fn fill_rows<T, F>(out: &mut [T], stride: usize, threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if out.is_empty() {
        return;
    }
    debug_assert!(stride > 0 && out.len() % stride == 0);
    let stride = stride.max(1);
    let chunk_rows = block_len(out.len() / stride, threads).max(1);
    map_blocks(
        out.chunks_mut(chunk_rows * stride).enumerate(),
        |(k, slice)| f(k * chunk_rows, slice),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `out[i] = f(i)` over a fresh vector, through [`fill_chunks`].
    fn map_indexed<T, F>(len: usize, threads: usize, f: F) -> Vec<T>
    where
        T: Send + Default + Clone,
        F: Fn(usize) -> T + Sync,
    {
        let mut out = vec![T::default(); len];
        fill_chunks(&mut out, threads, |start, chunk| {
            for (off, slot) in chunk.iter_mut().enumerate() {
                *slot = f(start + off);
            }
        });
        out
    }

    #[test]
    fn single_thread_matches_direct() {
        let mut out = vec![0u64; 100];
        fill_chunks(&mut out, 1, |start, chunk| {
            for (off, slot) in chunk.iter_mut().enumerate() {
                *slot = (start + off) as u64 * 2;
            }
        });
        assert!(out.iter().enumerate().all(|(i, &v)| v == i as u64 * 2));
    }

    #[test]
    fn many_threads_cover_all_indices() {
        for threads in [2usize, 3, 4, 5, 16] {
            let out = map_indexed(1000, threads, |i| i as u64 + 7);
            assert!(out.iter().enumerate().all(|(i, &v)| v == i as u64 + 7));
        }
    }

    #[test]
    fn more_threads_than_elements() {
        let out = map_indexed(3, 64, |i| i);
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn empty_and_zero_threads() {
        let out: Vec<u64> = map_indexed(0, 4, |_| unreachable!());
        assert!(out.is_empty());
        let out = map_indexed(5, 0, |i| i);
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn results_identical_across_thread_counts() {
        let reference = map_indexed(257, 1, |i| (i as u64).wrapping_mul(0x9E3779B9));
        for threads in 2..8 {
            assert_eq!(
                map_indexed(257, threads, |i| (i as u64).wrapping_mul(0x9E3779B9)),
                reference
            );
        }
    }

    #[test]
    fn fill_rows_respects_row_boundaries() {
        // 100 rows of stride 3; each row is stamped with its row index, so
        // a chunk split mid-row would mis-stamp the straddled row.
        let stride = 3usize;
        for threads in [1usize, 2, 4, 7] {
            let mut out = vec![0u64; 100 * stride];
            fill_rows(&mut out, stride, threads, |first_row, chunk| {
                for (r, row) in chunk.chunks_mut(stride).enumerate() {
                    row.fill((first_row + r) as u64);
                }
            });
            for (r, row) in out.chunks(stride).enumerate() {
                assert!(row.iter().all(|&v| v == r as u64), "threads={threads}");
            }
        }
    }

    #[test]
    fn first_block_runs_on_the_caller_and_the_rest_on_workers() {
        let me = std::thread::current().id();
        let ran_on = run_blocks(0..4, |k| (k, std::thread::current().id())).unwrap();
        assert_eq!(ran_on[0], (0, me));
        for (k, (block, id)) in ran_on.iter().enumerate().skip(1) {
            assert_eq!(*block, k, "results come back in block order");
            assert_ne!(*id, me, "block {k} ran on the caller");
        }
        // A single block never leaves the calling thread; none is a no-op.
        assert_eq!(
            run_blocks([7], |k| (k, std::thread::current().id())).unwrap(),
            [(7, me)]
        );
        assert!(run_blocks(0..0, |k| k).unwrap().is_empty());
    }

    #[test]
    fn a_panicking_block_is_an_error_not_a_dead_caller() {
        // Block 0 runs on the caller, block 2 on a worker: either way the
        // call returns, every other block has finished, and the next call
        // works.
        for bad in [0usize, 2] {
            let finished = AtomicU64::new(0);
            let outcome = run_blocks(0..4usize, |k| {
                assert_ne!(k, bad, "block {k} fails");
                finished.fetch_add(1, Ordering::Relaxed);
            });
            assert!(outcome.is_err(), "bad block {bad}");
            assert_eq!(finished.load(Ordering::Relaxed), 3, "bad block {bad}");
        }
        assert_eq!(run_blocks(0..3, |k| k * 2).unwrap(), [0, 2, 4]);
    }

    #[test]
    fn block_len_divides_only_when_every_worker_gets_two_rows() {
        assert_eq!(block_len(100, 1), 100);
        assert_eq!(block_len(100, 0), 100);
        assert_eq!(block_len(7, 4), 7);
        assert_eq!(block_len(8, 4), 2);
        assert_eq!(block_len(10, 4), 3);
        assert_eq!(block_len(0, 4), 0);
    }

    #[test]
    fn workers_follow_the_work_up_to_the_callers_bound() {
        const C: usize = CELLS_PER_WORKER;
        assert_eq!(workers_for(4, 0), 1);
        assert_eq!(workers_for(4, C), 1);
        assert_eq!(workers_for(4, C + 1), 2);
        assert_eq!(workers_for(4, 2 * C), 2);
        assert_eq!(workers_for(4, 3 * C + 1), 4);
        assert_eq!(workers_for(4, 100 * C), 4);
        assert_eq!(workers_for(1, 100 * C), 1);
        assert_eq!(workers_for(0, 100 * C), 1);
    }

    #[test]
    fn dispatch_counter_observes_parallel_path() {
        let before = parallel_dispatches();
        map_indexed(64, 1, |i| i); // serial: no dispatch
        let mut buf = vec![0u64; 64];
        fill_chunks(&mut buf, 1, |_, _| {});
        let serial = parallel_dispatches();
        // Other tests run concurrently in this binary, so only assert the
        // strictly-local property: a parallel call bumps the counter.
        map_indexed(64, 8, |i| i);
        assert!(parallel_dispatches() > serial);
        let _ = before;
    }
}
