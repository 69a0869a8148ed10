//! # prism-storage
//!
//! Server-side share storage for PRISM: the 11-column secret-shared table
//! layout of §8.1 (Table 11), a checksummed binary columnar codec, and a
//! directory-backed store whose fetch path is timed — reproducing the
//! "Data Fetch Time" series of Figure 3 without the paper's MySQL
//! dependency.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod store;
pub mod table11;

pub use codec::{decode_column, encode_column, CodecError};
pub use store::{ServerStore, StoreError};
pub use table11::SharedTable;
