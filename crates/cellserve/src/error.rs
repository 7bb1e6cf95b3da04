//! Error type for artifact decoding and query parsing.

use std::fmt;

/// Why a cellserve operation failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The artifact bytes failed integrity or structural validation:
    /// bad magic, broken seal (length or CRC-32 mismatch), truncated
    /// body, or an invariant violation (unsorted keys, out-of-range
    /// label index, non-canonical prefix key). The string names the
    /// first check that failed.
    Corrupt(String),
    /// The artifact was sealed with a format version this build cannot
    /// serve: a newer one, or CELLSERV v1, which is readable only by
    /// `cellspot index migrate`.
    UnsupportedVersion(u32),
    /// A query address failed to parse as IPv4 or IPv6.
    BadAddress(String),
    /// Opening or reading an artifact file failed before any bytes
    /// could be validated. The string carries the OS error text.
    Io(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Corrupt(why) => write!(f, "corrupt artifact: {why}"),
            ServeError::UnsupportedVersion(1) => write!(
                f,
                "unsupported artifact version 1: CELLSERV v1 files are no longer served; \
                 convert with `cellspot index migrate --in OLD --out NEW`"
            ),
            ServeError::UnsupportedVersion(v) => {
                write!(f, "unsupported artifact version {v}")
            }
            ServeError::BadAddress(s) => write!(f, "bad IP address {s:?}"),
            ServeError::Io(why) => write!(f, "artifact I/O error: {why}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<cellseal::SealError> for ServeError {
    fn from(e: cellseal::SealError) -> Self {
        ServeError::Corrupt(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failure() {
        assert!(ServeError::Corrupt("CRC mismatch".into())
            .to_string()
            .contains("CRC mismatch"));
        assert!(ServeError::UnsupportedVersion(7).to_string().contains('7'));
        // The one version an operator can act on says how.
        assert!(ServeError::UnsupportedVersion(1)
            .to_string()
            .contains("cellspot index migrate"));
        assert!(!ServeError::UnsupportedVersion(7)
            .to_string()
            .contains("migrate"));
        assert!(ServeError::BadAddress("nope".into())
            .to_string()
            .contains("nope"));
    }
}
