//! Content hashing for sealed artifacts.
//!
//! A generation's identity is the FNV-1a 64 hash of its sealed artifact
//! bytes. Because the CELLSERV encoding is canonical
//! (`encode(decode(b)) == b`), two artifacts hash equal iff they
//! serve byte-identical answers — which is what lets the CELLDELT delta
//! format chain on a base generation by hash alone, and lets operators
//! correlate an `index build` summary line with what a running daemon
//! reports at `/generation`.

/// FNV-1a 64 over the full sealed artifact bytes.
pub use cellseal::fnv1a64 as content_hash;

/// The canonical 16-hex-digit rendering of a content hash, as printed
/// by `index build` and reported by the daemon's `/generation`.
pub fn hash_hex(hash: u64) -> String {
    format!("{hash:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_rendering_is_fixed_width() {
        assert_eq!(hash_hex(0), "0000000000000000");
        assert_eq!(hash_hex(0xdead_beef), "00000000deadbeef");
        assert_eq!(hash_hex(u64::MAX), "ffffffffffffffff");
    }
}
