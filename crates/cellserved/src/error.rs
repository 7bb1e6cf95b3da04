//! Error type for the serving daemon.

use std::fmt;

use celldelta::DeltaError;
use cellserve::ServeError;

/// Why a daemon operation failed.
#[derive(Debug)]
pub enum ServedError {
    /// A socket or file operation failed.
    Io(std::io::Error),
    /// An artifact failed validation (seal, structure, or version); see
    /// [`cellserve::ServeError`] for the taxonomy.
    Artifact(ServeError),
    /// A delta artifact failed validation or did not chain on the live
    /// generation (wrong base hash, stale epoch, broken seal, patch
    /// conflict); see [`celldelta::DeltaError`] for the taxonomy.
    Delta(DeltaError),
    /// A peer sent bytes that do not follow the framing protocol.
    Protocol(String),
    /// The daemon shed this request to protect itself: the connection
    /// budget ([`ServeConfig::max_conns`](crate::ServeConfig::max_conns))
    /// was spent. The daemon itself answers that with an HTTP 503 or a
    /// framed close rather than a value of this type; `cellload`'s HTTP
    /// replay client maps a 503 it receives to this variant.
    Overloaded,
    /// A [`FramedClient`](crate::FramedClient) exhausted its retry
    /// policy; `last` is the error from the final attempt.
    GaveUp {
        /// Lookup attempts made (including the first).
        attempts: u32,
        /// The failure that ended the final attempt.
        last: Box<ServedError>,
    },
    /// The daemon configuration is inconsistent (e.g. `reload_watch`
    /// without an artifact path to watch).
    Config(String),
}

impl fmt::Display for ServedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServedError::Io(e) => write!(f, "i/o: {e}"),
            ServedError::Artifact(e) => write!(f, "artifact: {e}"),
            ServedError::Delta(e) => write!(f, "delta: {e}"),
            ServedError::Protocol(why) => write!(f, "protocol: {why}"),
            ServedError::Overloaded => f.write_str("daemon is overloaded; request shed"),
            ServedError::GaveUp { attempts, last } => {
                write!(f, "gave up after {attempts} attempt(s): {last}")
            }
            ServedError::Config(why) => write!(f, "config: {why}"),
        }
    }
}

impl std::error::Error for ServedError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServedError::Io(e) => Some(e),
            ServedError::Artifact(e) => Some(e),
            ServedError::Delta(e) => Some(e),
            ServedError::GaveUp { last, .. } => Some(last.as_ref()),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ServedError {
    fn from(e: std::io::Error) -> Self {
        ServedError::Io(e)
    }
}

impl From<ServeError> for ServedError {
    fn from(e: ServeError) -> Self {
        ServedError::Artifact(e)
    }
}

impl From<DeltaError> for ServedError {
    fn from(e: DeltaError) -> Self {
        ServedError::Delta(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failure() {
        assert!(ServedError::Protocol("bad frame".into())
            .to_string()
            .contains("bad frame"));
        assert!(ServedError::Artifact(ServeError::UnsupportedVersion(9))
            .to_string()
            .contains('9'));
        assert!(ServedError::Delta(DeltaError::StaleEpoch {
            current: 5,
            delta: 3
        })
        .to_string()
        .contains("stale"));
        assert!(ServedError::Config("x".into()).to_string().contains("x"));
        assert!(ServedError::Overloaded.to_string().contains("overloaded"));
        let gave_up = ServedError::GaveUp {
            attempts: 3,
            last: Box::new(ServedError::Protocol("reset".into())),
        };
        assert!(gave_up.to_string().contains('3'));
        assert!(gave_up.to_string().contains("reset"));
        assert!(std::error::Error::source(&gave_up).is_some());
    }
}
