//! # prism-protocol
//!
//! The PRISM protocol layer: every operation from the paper — PSI (§5),
//! PSU (§7), and the aggregations over PSI (§6: count, sum, average,
//! maximum, median) — with result verification, multi-attribute extension,
//! and the bucketization optimization (§6.6).
//!
//! The crate is organized in three layers:
//!
//! * *pure step functions* (owner step / server step / owner finalize) in
//!   the per-operation modules;
//! * the [`engine`]: one [`engine::ServerNode`] executor for the server
//!   side, one [`engine::Engine`] for the owner side, and the
//!   [`engine::Operation`] round plans in [`plans`] that compose the step
//!   functions — written once, run over any [`engine::ServerExec`]
//!   backend;
//! * one owner-side facade, [`driver::Cluster`], that constructs plans
//!   and hands them to a [`driver::Deployment`]: the in-process one here,
//!   or the channel/TCP `NetCluster` in `prism-net`.
//!
//! The [`shard`] module scales the server side *out*: a domain's columns
//! split into row-range shards, each its own [`engine::ServerNode`], with
//! a router that fans every round across the shard nodes and merges the
//! rows back — bit-identical results for any shard count, on any
//! transport.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod average;
pub mod bucket;
pub mod cache;
pub mod chunk;
pub mod count;
pub mod driver;
pub mod engine;
pub mod error;
pub mod malicious;
pub mod max;
pub mod median;
pub mod multiattr;
pub mod params;
pub mod plans;
pub mod psi;
pub mod psu;
pub mod shard;
pub mod sum;
pub mod tables;

pub use cache::{CachedExec, PsiRoundCache};
pub use engine::{Engine, ExecMeters, Operation, QueryStats, ServerExec, ServerNode};
pub use error::{ProtocolError, Result};
pub use params::{
    AnnouncerParams, Initiator, OwnerParams, ServerParams, Setup, SystemConfig, ADDITIVE_SERVERS,
    SHAMIR_SERVERS,
};
pub use plans::{AggResult, Aggregate, PsiOutcome, QueryBatch};
pub use shard::{ShardPlan, ShardSpec, ShardedExec, ShardedNode};
pub use tables::OwnerTable;
