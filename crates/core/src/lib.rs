//! # prism-core
//!
//! Cryptographic building blocks for the PRISM private set computation
//! system (Li et al., SIGMOD 2021): modular arithmetic, additive and Shamir
//! secret sharing, cyclic-group parameter construction, seeded permutations,
//! a portable PRG, domain maps, big integers, and the order-preserving
//! blinding polynomial.
//!
//! Everything here is deterministic given explicit seeds, which is what
//! lets two non-communicating servers agree on blinding streams and lets
//! tests replay the paper's worked examples bit-for-bit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod additive;
pub mod arith;
pub(crate) mod bigint;
pub mod domain;
pub mod group;
pub mod perm;
pub mod polynomial;
pub mod prg;
pub mod shamir;
pub mod wide;

pub use additive::{reconstruct2, reconstruct2_into, share2, share_vector2};
pub use arith::MERSENNE_61;
pub use bigint::BigUint;
pub use domain::{DenseIntDomain, DomainMap, EnumeratedDomain, ProductDomain};
pub use group::{choose_delta, GroupError, GroupParams};
pub use perm::{Permutation, PermutationFamily};
pub use polynomial::{OrderPolynomial, PolyTable};
pub use prg::Prg;
pub use shamir::ShamirCtx;
pub use wide::WideVec;
