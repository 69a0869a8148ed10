//! One counter vocabulary, counted once. [`Counter`] names every event the
//! system counts; [`Counts`] tallies them for one round (a
//! [`RoundOutcome`]) or one query (a [`QueryStats`]); [`Metrics`] is the
//! matching atomic store, one per deployment, shared by `Arc` with every
//! component that records into it, and the only cumulative total.
//!
//! [`Metrics::record`] counts an event into the store and its round's
//! `Counts` in one call, so over any window of queries the per-query
//! `Counts` sum to the `Metrics` delta. Events no query causes (a heal, a
//! dropped reply, a tamper invalidating the cache) go to the store alone
//! ([`Metrics::add`]).
//!
//! Time has the same shape: [`Stage`] names where an owner's query spends
//! it, and a [`QueryTrace`] — fixed arrays, no allocation — holds one
//! round's or one query's time per stage, carried in the `RoundOutcome`
//! beside its `Counts` and summed into the `QueryStats` the same way.
//!
//! [`RoundOutcome`]: crate::engine::RoundOutcome
//! [`QueryStats`]: crate::engine::QueryStats

use std::ops::{Index, IndexMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Every counter the system keeps: the per-query ones first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Counter {
    /// Shard sub-commands fanned out: `shards` per command of a split round.
    ShardDispatches,
    /// Rounds served straight from the PSI-round cache.
    CacheHits,
    /// Cache-eligible rounds that executed for real.
    CacheMisses,
    /// Cache entries dropped as stale (version mismatch or tamper).
    CacheInvalidations,
    /// Shard-worker failovers the control plane healed.
    Failovers,
    /// Failovers healed as metadata-only replica promotions.
    Promotions,
    /// Summed replay-log records restored, one per replaying heal.
    ReplayedRecords,
    /// Replies an owner-side link pump dropped: no query claimed them.
    RejectedReplies,
}

impl Counter {
    /// Every counter, in report order.
    pub const ALL: [Counter; 8] = [
        Counter::ShardDispatches,
        Counter::CacheHits,
        Counter::CacheMisses,
        Counter::CacheInvalidations,
        Counter::Failovers,
        Counter::Promotions,
        Counter::ReplayedRecords,
        Counter::RejectedReplies,
    ];

    /// The counter's name in reports.
    pub fn name(self) -> &'static str {
        match self {
            Counter::ShardDispatches => "shard_dispatches",
            Counter::CacheHits => "cache_hits",
            Counter::CacheMisses => "cache_misses",
            Counter::CacheInvalidations => "cache_invalidations",
            Counter::Failovers => "failovers",
            Counter::Promotions => "promotions",
            Counter::ReplayedRecords => "replayed_records",
            Counter::RejectedReplies => "rejected_replies",
        }
    }

    /// Whether a query's rounds carry this counter (every one declared
    /// before [`Counter::Promotions`]); the rest are only cumulative.
    pub fn per_query(self) -> bool {
        self < Counter::Promotions
    }
}

const N: usize = Counter::ALL.len();

/// A plain tally of every [`Counter`]: one round's or one query's.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts([u64; N]);

impl Counts {
    /// Add every counter of `other` into this tally.
    pub fn merge(&mut self, other: &Counts) {
        for (mine, theirs) in self.0.iter_mut().zip(other.0) {
            *mine += theirs;
        }
    }
}

impl Index<Counter> for Counts {
    type Output = u64;

    fn index(&self, c: Counter) -> &u64 {
        &self.0[c as usize]
    }
}

impl IndexMut<Counter> for Counts {
    fn index_mut(&mut self, c: Counter) -> &mut u64 {
        &mut self.0[c as usize]
    }
}

/// The cumulative store of every [`Counter`], one per deployment.
#[derive(Debug, Default)]
pub struct Metrics([AtomicU64; N]);

impl Metrics {
    /// The counter's total so far.
    pub fn get(&self, c: Counter) -> u64 {
        self.0[c as usize].load(Ordering::Relaxed)
    }

    /// Count `n` events that belong to no query.
    pub fn add(&self, c: Counter, n: u64) {
        self.0[c as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Count `n` events of the round tallied in `round`: into the store
    /// and the round at once.
    pub fn record(&self, c: Counter, n: u64, round: &mut Counts) {
        self.add(c, n);
        round[c] += n;
    }

    /// Every counter's total, each read on its own.
    pub fn snapshot(&self) -> Counts {
        Counts(std::array::from_fn(|i| self.0[i].load(Ordering::Relaxed)))
    }
}

/// Where an owner's query spends its time, as the owner side sees it.
/// Router- and worker-side stages are not split out: they sit inside
/// [`Stage::WireWait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Waiting for an admission permit (networked deployments).
    AdmissionWait,
    /// Handing a round's commands to the links: framing and writing them
    /// over TCP, a move over a channel.
    Encode,
    /// Blocked on a round's replies: transit, the servers' compute and,
    /// over TCP, the reply frames' decode on the links' pump threads.
    WireWait,
    /// Turning a round's reply messages into engine replies.
    Decode,
    /// An in-process round's server compute: its slowest server.
    ServerCompute,
    /// Owner-side result construction (Table 14's metric).
    OwnerStep,
}

impl Stage {
    /// Every stage, in query order.
    pub const ALL: [Stage; 6] = [
        Stage::AdmissionWait,
        Stage::Encode,
        Stage::WireWait,
        Stage::Decode,
        Stage::ServerCompute,
        Stage::OwnerStep,
    ];

    /// The stage's name in reports.
    pub fn name(self) -> &'static str {
        match self {
            Stage::AdmissionWait => "admission_wait",
            Stage::Encode => "encode",
            Stage::WireWait => "wire_wait",
            Stage::Decode => "decode",
            Stage::ServerCompute => "server_compute",
            Stage::OwnerStep => "owner_step",
        }
    }

    /// Whether the stage is server-side cost (`QueryStats::server_time`):
    /// a round's wire stages, or its in-process compute.
    pub fn is_server(self) -> bool {
        matches!(
            self,
            Stage::Encode | Stage::WireWait | Stage::Decode | Stage::ServerCompute
        )
    }
}

const STAGES: usize = Stage::ALL.len();

/// Time spent per [`Stage`], and how many times each was recorded: one
/// round's (a round records each of its stages once) or one query's.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryTrace {
    spent: [Duration; STAGES],
    records: [u32; STAGES],
}

impl QueryTrace {
    /// A trace holding one record: `d` spent in `stage`.
    pub fn of(stage: Stage, d: Duration) -> QueryTrace {
        let mut trace = QueryTrace::default();
        trace.record(stage, d);
        trace
    }

    /// Add one record: `d` spent in `stage`.
    pub fn record(&mut self, stage: Stage, d: Duration) {
        self.spent[stage as usize] += d;
        self.records[stage as usize] += 1;
    }

    /// Add every stage of `other` into this trace.
    pub fn merge(&mut self, other: &QueryTrace) {
        for i in 0..STAGES {
            self.spent[i] += other.spent[i];
            self.records[i] += other.records[i];
        }
    }

    /// Time spent in `stage`.
    pub fn spent(&self, stage: Stage) -> Duration {
        self.spent[stage as usize]
    }

    /// How many times `stage` was recorded.
    pub fn records(&self, stage: Stage) -> u32 {
        self.records[stage as usize]
    }

    /// Time spent in every stage together.
    pub fn total(&self) -> Duration {
        self.spent.iter().sum()
    }

    /// The server-side stages' time ([`Stage::is_server`]).
    pub fn server_time(&self) -> Duration {
        Stage::ALL
            .into_iter()
            .filter(|s| s.is_server())
            .map(|s| self.spent(s))
            .sum()
    }
}
