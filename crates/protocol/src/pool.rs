//! The process-wide row-buffer pool.
//!
//! Outside the kernels, this implementation's work is moving row vectors:
//! share columns up, `z` columns down, per-item outputs back. Every layer
//! that would allocate one per round and drop it after draws it from this
//! one pool and hands it back: the wire decode, a node's round outputs and
//! permutation staging, a router's split, cut and merge buffers, the
//! cache's dropped entries and the owner's z-share columns. A warmed-up process therefore runs a round
//! on a growing domain without asking the allocator for a row buffer.
//!
//! The pool is one global `Mutex`, not thread-local, because buffers are
//! taken and returned on different threads — a link's pump decodes, a
//! round worker recycles — and in-process links move them between nodes.
//!
//! **Every cell is written before it is read.** [`take`] hands a buffer out
//! with whatever it last held, possibly another node's cells, so a taker
//! writes each cell before anything reads it. Test and debug builds poison
//! every recycled buffer with `u64::MAX`, so a cell a round failed to write
//! shows up in an answer instead of passing for one.
//!
//! **Growth-tolerant.** A request gets the smallest pooled buffer whose
//! capacity fits it and is at most twice its length, and a buffer the pool
//! allocates or grows gets an eighth of headroom: a domain that grows by
//! appends keeps drawing the buffers it drew before, and a half-domain
//! shard slice never takes a whole-domain buffer. Once the domain has
//! outgrown a buffer's headroom, the next request grows it rather than
//! leave it in the pool beside a fresh one. Capped on buffer count,
//! per-buffer bytes *and* total retained bytes, so a burst of giant rounds
//! cannot pin memory; a recycle past a cap evicts smaller buffers first.

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Most buffers the pool retains.
const VEC_POOL_CAP: usize = 64;
/// Largest single buffer the pool retains (bytes of backing capacity).
/// Generous enough to recycle per-shard row vectors at paper scale
/// (2M rows = 16 MiB); anything bigger is freed on recycle.
pub const VEC_POOL_MAX_BUFFER_BYTES: usize = 16 << 20;
/// Ceiling on the total bytes the pool may pin across all retained
/// buffers.
pub const VEC_POOL_MAX_TOTAL_BYTES: usize = 64 << 20;

/// What a cell holds until its taker writes it: `u64::MAX` in test and
/// debug builds, so an unwritten cell cannot pass for an answer.
const STALE: u64 = if cfg!(any(test, debug_assertions)) {
    u64::MAX
} else {
    0
};

/// The pooled buffers, ascending by capacity, and the bytes they hold.
struct VecPool {
    bytes: usize,
    bufs: Vec<Vec<u64>>,
}

static VEC_POOL: Mutex<VecPool> = Mutex::new(VecPool {
    bytes: 0,
    bufs: Vec::new(),
});

fn pool() -> MutexGuard<'static, VecPool> {
    // A panic mid-push or mid-pop leaves a consistent pool: at worst a
    // byte count off by one buffer.
    VEC_POOL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn bytes_of(v: &Vec<u64>) -> usize {
    v.capacity().saturating_mul(8)
}

/// What the pool allocates for `len` cells: an eighth more.
fn room(len: usize) -> usize {
    len + len / 8
}

/// The smallest pooled buffer that holds `len` cells without being more
/// than twice that. Failing one, the largest that a growing domain has
/// outgrown — at least half of `len` — grown to [`room`], so the pool
/// keeps as many buffers as rounds use at once instead of collecting
/// outgrown ones.
fn draw(len: usize) -> Option<Vec<u64>> {
    if len == 0 {
        return None;
    }
    let mut p = pool();
    let fits = p.bufs.partition_point(|b| b.capacity() < len);
    let i = match (p.bufs.get(fits), fits.checked_sub(1)) {
        (Some(b), _) if b.capacity() / 2 <= len => fits,
        (_, Some(below)) if p.bufs[below].capacity() >= len / 2 => below,
        _ => return None,
    };
    let mut v = p.bufs.remove(i);
    p.bytes -= bytes_of(&v);
    drop(p);
    if v.capacity() < len {
        // Stale cells need not move: grow an empty buffer.
        v.clear();
        v.reserve_exact(room(len));
    }
    Some(v)
}

/// A buffer of `len` cells whose contents are unspecified: the caller
/// writes every one before anything reads it.
pub fn take(len: usize) -> Vec<u64> {
    let mut v = draw(len).unwrap_or_else(|| {
        let mut fresh = vec![STALE; room(len)];
        fresh.truncate(len);
        fresh
    });
    v.resize(len, STALE);
    v
}

/// An empty buffer with room for `len` cells, for a caller that appends.
pub fn take_empty(len: usize) -> Vec<u64> {
    let mut v = draw(len).unwrap_or_else(|| Vec::with_capacity(room(len)));
    v.clear();
    v
}

/// `data` in a pooled buffer.
pub fn copy_of(data: &[u64]) -> Vec<u64> {
    let mut v = take_empty(data.len());
    v.extend_from_slice(data);
    v
}

/// Hand a row buffer back to the pool. Cheap and infallible: a buffer over
/// the per-buffer cap is freed, and one that would push the pool past its
/// count or byte cap evicts smaller pooled buffers or, if none is smaller,
/// is freed itself.
pub fn recycle_vec(mut v: Vec<u64>) {
    let bytes = bytes_of(&v);
    if bytes == 0 || bytes > VEC_POOL_MAX_BUFFER_BYTES {
        return;
    }
    if cfg!(any(test, debug_assertions)) {
        v.fill(STALE);
    }
    // Declared before the guard, so evicted buffers are freed after the
    // lock is released.
    let mut evicted = Vec::new();
    let mut p = pool();
    while p.bufs.len() >= VEC_POOL_CAP || p.bytes + bytes > VEC_POOL_MAX_TOTAL_BYTES {
        if p.bufs
            .first()
            .map_or(true, |b| b.capacity() >= v.capacity())
        {
            return;
        }
        let gone = p.bufs.remove(0);
        p.bytes -= bytes_of(&gone);
        evicted.push(gone);
    }
    let at = p.bufs.partition_point(|b| b.capacity() < v.capacity());
    p.bytes += bytes;
    p.bufs.insert(at, v);
}

/// Recycle a whole reply's worth of row buffers at once.
pub fn recycle_vecs<I: IntoIterator<Item = Vec<u64>>>(vecs: I) {
    for v in vecs {
        recycle_vec(v);
    }
}

/// Pool introspection for tests and ops: `(buffers, retained_bytes)`.
pub fn vec_pool_stats() -> (usize, usize) {
    let p = pool();
    (p.bufs.len(), p.bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pool is process-wide, so each case uses lengths no other test
    /// of this crate asks for.
    #[test]
    fn a_request_draws_the_smallest_fitting_buffer_and_never_one_twice_its_size() {
        let (small, large) = (take(70_000), take(120_000));
        assert!(
            small.capacity() >= 70_000 + 70_000 / 8,
            "fresh buffers carry headroom"
        );
        let (small_at, large_at) = (small.as_ptr(), large.as_ptr());
        recycle_vecs([large, small]);
        let grown = take(70_500);
        assert_eq!(
            grown.as_ptr(),
            small_at,
            "a little growth reuses the tight fit"
        );
        assert!(
            grown.iter().all(|&c| c == STALE),
            "recycled cells are poisoned"
        );
        let half = take_empty(60_000);
        assert_ne!(
            half.as_ptr(),
            large_at,
            "a half-size request took a large buffer"
        );
        let copied = copy_of(&[5; 100_000]);
        assert_eq!(copied.as_ptr(), large_at);
        assert_eq!(copied, vec![5; 100_000]);
    }
}
