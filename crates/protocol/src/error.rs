//! Protocol-level errors.

use serde::{Deserialize, Serialize};

/// Everything that can go wrong while running a PRISM query.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Eq)]
pub enum ProtocolError {
    /// A verification equation failed — servers misbehaved or data was
    /// corrupted in flight. Carries the first offending cell index.
    VerificationFailed {
        /// Which operation's verification tripped.
        operation: &'static str,
        /// First cell (in owner-visible order) where the check failed.
        cell: usize,
    },
    /// Entity parameters disagree (e.g. table lengths, owner counts).
    ParameterMismatch(String),
    /// A value fell outside the declared domain during table construction.
    OutOfDomain {
        /// The offending value (rendered).
        value: String,
    },
    /// The announcer (or a server) returned a structurally invalid reply.
    MalformedResponse(&'static str),
    /// Max/median inversion failed: no `z` with `F(z) ≤ v < F(z+1)` in the
    /// declared aggregation domain — evidence of tampering.
    InversionFailed,
    /// The query needs at least one common element but PSI found none.
    EmptyIntersection,
    /// A server refused an upload that would add shares twice or out of
    /// place — a second put of rows an owner holds, a fold at a stale or
    /// repeated epoch, a malformed delta. Its store is unchanged.
    UploadRefused(String),
    /// The transport backing an engine round failed, or the backend does
    /// not implement the requested step (e.g. wide-share rounds over a
    /// vector-only wire). Carries the backend's rendered error.
    Transport(String),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::VerificationFailed { operation, cell } => {
                write!(f, "{operation} verification failed at cell {cell}")
            }
            ProtocolError::ParameterMismatch(msg) => write!(f, "parameter mismatch: {msg}"),
            ProtocolError::OutOfDomain { value } => {
                write!(f, "value {value} is outside the declared domain")
            }
            ProtocolError::MalformedResponse(what) => write!(f, "malformed response: {what}"),
            ProtocolError::InversionFailed => {
                write!(f, "order-polynomial inversion failed (possible tampering)")
            }
            ProtocolError::EmptyIntersection => write!(f, "intersection is empty"),
            ProtocolError::UploadRefused(why) => write!(f, "upload refused: {why}"),
            ProtocolError::Transport(msg) => write!(f, "transport: {msg}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// Convenience alias used across the crate.
pub type Result<T, E = ProtocolError> = std::result::Result<T, E>;

/// `Ok` iff `what` holds the `want` cells the parameters call for.
pub(crate) fn check_cells(what: &str, got: usize, want: usize) -> Result<()> {
    if got == want {
        Ok(())
    } else {
        Err(ProtocolError::ParameterMismatch(format!(
            "{what} holds {got} cells, expected {want}"
        )))
    }
}
