//! # cellseal — the sealed-file envelope
//!
//! Everything the system writes for another process to read — CELLSERV
//! artifacts, CELLDELT deltas, CELLLOAD traces, ingest checkpoints —
//! leaves as a sealed file, and the decision "is this file intact?" is
//! made here, once:
//!
//! ```text
//! body      format-specific; by convention 8-byte magic, u32 version, …
//! trailer   16 bytes:
//!   body_len   u64 LE   length of everything before the trailer
//!   crc32      u32 LE   CRC-32 (IEEE) of the body
//!   magic      4 bytes  per-format trailer magic ("CSRV", "CDLT", "CLDT")
//! ```
//!
//! [`seal`] appends the trailer, [`open`] verifies it — trailer magic,
//! then length, then CRC, the same order for every format — and hands
//! back the body, which the format then parses with the bounds-checked
//! [`Reader`]. CRC-32 detects every single-byte error in the body and
//! each trailer field is checked directly, so any single-byte
//! corruption or truncation of a sealed file is rejected before a
//! format parser sees a byte of it.
//!
//! The crate also owns the two checksums the formats are built from
//! ([`crc32`], FNV-1a 64 as [`fnv1a64`]/[`fnv1a64_nested`]/[`Fnv64`])
//! and the crash-safe
//! [`write_atomic_bytes`] every sealed file is published with. It
//! depends on nothing, so a crate that only needs to seal or verify a
//! file does not link the ingest engine to do it.

mod atomic;
mod checksum;
mod envelope;
mod reader;

pub use atomic::write_atomic_bytes;
pub use checksum::{crc32, fnv1a64, fnv1a64_nested, Fnv64};
pub use envelope::{open, reseal, seal, seal_in_place, SealError, TRAILER_LEN};
pub use reader::Reader;
