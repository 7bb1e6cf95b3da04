//! # cellserve — frozen classification artifact + lookup engine
//!
//! The paper's methodology ends with a *classification*: the set of
//! /24 and /48 blocks labeled cellular, each with its origin AS. Every
//! operational consumer of that result — traffic steering, analytics
//! enrichment, abuse triage — asks the same question at high volume:
//! *given an IP address, is it cellular, and under which operator?*
//! This crate is that serving layer:
//!
//! * **Sealed artifact** — [`Artifact::encode`]/[`Artifact::open`]
//!   snapshot a classification into a compact, versioned binary format
//!   sealed with the shared [`cellseal`] envelope; any single-byte
//!   corruption is rejected at load, never served. The served format
//!   is the 8-byte-aligned flat-array **v2**, whose body validates *in
//!   place*, so a file is `mmap`ed and served with near-zero cold-start
//!   copies. The original interleaved **v1** is a migrate-only codec
//!   ([`Artifact::decode`] → [`Artifact::encode`]); loading a v1 file
//!   is refused with a pointer to `cellspot index migrate`.
//! * **One representation** — validated v2 bytes ([`MappedIndex`] over
//!   borrowed bytes, [`ArtifactHandle`] over an mmap or aligned buffer)
//!   are the only thing that answers lookups and the only thing a
//!   CELLDELT delta patches. [`IndexView`] is the borrowed read API
//!   consumers are generic over; its single implementation is pinned
//!   against [`netaddr::PrefixTrie`] in `tests/lpm_oracle.rs`.
//!   [`FrozenIndex`] is the builder-side canonical entry set that
//!   [`Artifact::encode`] consumes — it does not serve.
//! * **[`QueryEngine`]** — batch lookups over any [`IndexView`] fan
//!   out over rayon in fixed-size chunks, each fronted by a small
//!   hot-block cache whose hit/miss counters are deterministic at any
//!   thread count; an attached [`Observer`](cellobs::Observer)
//!   collects `serve.*` counters and a lookup-latency histogram.
//!
//! The `cellspot index build`, `cellspot index migrate`, and
//! `cellspot lookup` CLI subcommands wrap this crate, and the
//! `cellbench` lookup workloads measure cold-start copies and lookup
//! throughput.
//!
//! ## Quick tour
//!
//! ```
//! use cellserve::{Artifact, ArtifactFormat, AsClass, FrozenIndex, IndexView, ServeLabel};
//! use netaddr::{Asn, Ipv4Net};
//!
//! let mut builder = FrozenIndex::builder();
//! builder.insert_v4(
//!     "203.0.113.0/24".parse::<Ipv4Net>().unwrap(),
//!     ServeLabel { asn: Asn(7), class: AsClass::Dedicated },
//! );
//! let index = builder.build();
//!
//! // Seal to bytes; loading verifies the seal before serving anything.
//! let bytes = Artifact::encode(&index, ArtifactFormat::V2);
//! let loaded = Artifact::from_bytes(&bytes).unwrap();
//! let (net, label) = loaded.lookup_v4(0xCB007105).unwrap(); // 203.0.113.5
//! assert_eq!(net.to_string(), "203.0.113.0/24");
//! assert_eq!(label.asn, Asn(7));
//! ```

mod artifact;
mod engine;
mod error;
mod frozen;
mod handle;
mod hash;
mod v2;
mod view;

pub use artifact::{ARTIFACT_MAGIC, ARTIFACT_VERSION};
pub use engine::{BatchStats, IpKey, LookupMatch, MatchedPrefix, QueryEngine, QUERY_CHUNK};
pub use error::ServeError;
pub use frozen::{AsClass, FrozenIndex, FrozenIndexBuilder, PrefixCodec, ServeLabel};
pub use handle::{Artifact, ArtifactBytes, ArtifactFormat, ArtifactHandle};
pub use hash::{content_hash, hash_hex};
pub use v2::{MappedIndex, ARTIFACT_V2_VERSION};
pub use view::IndexView;

/// The serving surface in one import: everything needed to load an
/// artifact and answer lookups, without the build-side types.
pub mod prelude {
    pub use crate::engine::{IpKey, LookupMatch, QueryEngine};
    pub use crate::frozen::{AsClass, ServeLabel};
    pub use crate::handle::{Artifact, ArtifactFormat, ArtifactHandle};
    pub use crate::view::IndexView;
}
