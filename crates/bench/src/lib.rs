//! # prism-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! PRISM evaluation (§8):
//!
//! | module | artifact |
//! |---|---|
//! | [`exp1`] | Figure 3 (threads sweep + data fetch) and Table 12 |
//! | [`exp2`] | Figure 4 (owners sweep) |
//! | [`exp3`] | Table 14 (owner result-construction time) |
//! | [`exp4`] | Figure 5 (bucketization) |
//! | [`table13`] | Table 13 (baseline comparison) |
//! | [`sharegen`] | §8.1 share-generation times |
//!
//! The `exp_harness` binary drives them at `--scale small|medium|full`;
//! the Criterion benches under `benches/` track the same code paths at
//! fixed small sizes for regression detection. Everything beyond the
//! paper's evaluation (sharding, caching, streaming appends, concurrent
//! serving, failover, per-layer kernels) is measured by the repository
//! benchmark instead: `BENCHMARK.json` and `examples/benchmark/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod build;
pub mod exp1;
pub mod exp2;
pub mod exp3;
pub mod exp4;
pub mod report;
pub mod sharegen;
pub mod table13;
