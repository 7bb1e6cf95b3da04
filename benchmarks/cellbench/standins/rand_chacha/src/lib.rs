//! Offline stand-in for the published `rand_chacha` 0.3 crate: the
//! generators live in the `rand` stand-in (see its crate docs for why
//! stand-ins exist); this crate gives them their published paths.

pub use rand::chacha::{ChaCha12Rng, ChaCha20Rng, ChaCha8Rng};

/// The core traits, at the path `rand_chacha` re-exports them.
pub mod rand_core {
    pub use rand::{RngCore, SeedableRng};
}
