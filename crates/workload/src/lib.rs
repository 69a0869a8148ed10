//! # prism-workload
//!
//! Workload generation for PRISM's evaluation: the TPC-H-style `LineItem`
//! tables of §8.1, the hospital running example of §2, the Phase-1
//! share-outsourcing pipeline (Table 11), and the experiment parameter
//! grids for every table and figure in §8.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod configs;
pub mod hospitals;
pub mod lineitem;
pub mod outsource;

pub use configs::Scale;
pub use lineitem::{LineItemConfig, LineItemRow};
pub use outsource::{group_by_ok, outsource_owner};
