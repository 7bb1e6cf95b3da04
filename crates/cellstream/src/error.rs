//! The crate's unified error type (hand-rolled `Display`/`Error` impls
//! in the workspace's house style — the `thiserror` derive is
//! deliberately not a dependency).
//!
//! The fine-grained enums ([`IngestError`], [`ChaosError`]) stay on the
//! functions that produce them; this type is the one a caller driving
//! the whole subsystem (the CLI's `stream` subcommand) matches on, with
//! `From` conversions from each layer. It is also what the checkpoint
//! decoder ([`crate::Snapshot::from_bytes`]) refuses bytes with.

use std::fmt;
use std::io;

use cellseal::SealError;

use crate::engine::IngestError;
use crate::faultsim::ChaosError;

/// Why a streaming run could not complete.
#[derive(Debug)]
pub enum StreamError {
    /// The ingest engine refused or failed an operation.
    Ingest(IngestError),
    /// A checkpoint failed its seal (too short, wrong length, CRC
    /// mismatch) or its body ended early or late.
    Integrity(SealError),
    /// A checkpoint passed its seal but breaks an invariant of the
    /// format.
    Corrupt(String),
    /// A checkpoint from a newer format version.
    UnsupportedVersion(u32),
    /// A fault-injected (chaos) run could not be supervised to the end.
    Chaos(ChaosError),
    /// Checkpoint or plan I/O failed.
    Io(io::Error),
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Ingest(e) => write!(f, "ingest error: {e}"),
            StreamError::Integrity(e) => write!(f, "checkpoint integrity error: {e}"),
            StreamError::Corrupt(why) => write!(f, "corrupt checkpoint: {why}"),
            StreamError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint version {v}")
            }
            StreamError::Chaos(e) => write!(f, "chaos run failed: {e}"),
            StreamError::Io(e) => write!(f, "stream I/O error: {e}"),
        }
    }
}

impl std::error::Error for StreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StreamError::Ingest(e) => Some(e),
            StreamError::Integrity(e) => Some(e),
            StreamError::Corrupt(_) | StreamError::UnsupportedVersion(_) => None,
            StreamError::Chaos(e) => Some(e),
            StreamError::Io(e) => Some(e),
        }
    }
}

impl From<IngestError> for StreamError {
    fn from(e: IngestError) -> Self {
        StreamError::Ingest(e)
    }
}

impl From<SealError> for StreamError {
    fn from(e: SealError) -> Self {
        StreamError::Integrity(e)
    }
}

impl From<ChaosError> for StreamError {
    fn from(e: ChaosError) -> Self {
        StreamError::Chaos(e)
    }
}

impl From<io::Error> for StreamError {
    fn from(e: io::Error) -> Self {
        StreamError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraps_every_layer_with_chain() {
        let e: StreamError = IngestError::Finished { epochs: 4 }.into();
        assert!(e.to_string().contains("ingest error"));
        assert!(std::error::Error::source(&e).is_some());

        let e: StreamError = SealError::TrailerMagic.into();
        assert!(e.to_string().contains("integrity"));
        assert!(std::error::Error::source(&e).is_some());

        let e: StreamError = ChaosError::RestartsExhausted { limit: 2 }.into();
        assert!(e.to_string().contains("chaos"));

        let e: StreamError = io::Error::new(io::ErrorKind::NotFound, "gone").into();
        assert!(e.to_string().contains("I/O"));
    }
}
