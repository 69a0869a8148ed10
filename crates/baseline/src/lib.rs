//! # prism-baseline
//!
//! The comparison systems for PRISM's evaluation (§8.2, Table 13):
//!
//! * [`plaintext`] — the exact, insecure oracle every secure result is
//!   tested against;
//! * [`GmwPsi`] — a real two-server GMW/Beaver circuit evaluator with
//!   metered server↔server communication, standing in for Jana/Sharemind/
//!   SMCQL (closed or unavailable systems);
//! * [`pairwise`] — a concrete two-party delegated PSI extended pairwise
//!   to m owners, reproducing the `(nm)²` communication blow-up the paper
//!   cites for \[3\].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod mpc_circuit;
pub mod pairwise;
pub mod plaintext;

pub use mpc_circuit::{CircuitCost, GmwPsi};
pub use pairwise::{multiparty_psi_by_pairwise, PairwiseCost};
pub use plaintext::PlainDataset;
