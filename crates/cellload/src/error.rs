//! Error type for trace decoding.

/// Why a CLOAD trace file was rejected.
#[derive(Debug)]
pub enum LoadError {
    /// The bytes fail the seal or a structural invariant.
    Corrupt(String),
    /// The file is a CLOAD trace from a newer format version.
    UnsupportedVersion(u32),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Corrupt(why) => write!(f, "corrupt trace file: {why}"),
            LoadError::UnsupportedVersion(v) => {
                write!(f, "unsupported trace version {v}")
            }
        }
    }
}

impl std::error::Error for LoadError {}

impl From<cellseal::SealError> for LoadError {
    fn from(e: cellseal::SealError) -> Self {
        LoadError::Corrupt(e.to_string())
    }
}
