//! Property suite for the sealed artifact formats.
//!
//! Lookup behaviour lives in `lpm_oracle.rs`; this suite pins what the
//! bytes themselves promise:
//!
//! * **Corruption rejection** — any single-byte corruption of a sealed
//!   artifact, at any position with any nonzero XOR pattern, is
//!   rejected at load, as is truncation to any shorter length — for
//!   the served v2 format through [`cellserve::MappedIndex`] and
//!   [`cellserve::Artifact::from_bytes`], and for the migrate-only v1
//!   codec through [`cellserve::Artifact::decode`]. (`tests/sealed_formats.rs`
//!   at the workspace root additionally sweeps every bit of a fixed
//!   fixture exhaustively.)
//! * **Lossless, canonical codecs** — decoding either format returns
//!   the sealed entry set exactly, and re-encoding it is byte-identical.
//! * **Migration determinism** — `index migrate`'s core
//!   (decode + re-encode) is byte-deterministic: v1→v2 equals a direct
//!   v2 seal, v1→v2→v1 is the identity, and re-encoding is stable.

use proptest::prelude::*;

use cellserve::{Artifact, ArtifactFormat, AsClass, FrozenIndexBuilder, MappedIndex, ServeLabel};
use netaddr::{Asn, Ipv4Net, Ipv6Net};

fn arb_label() -> impl Strategy<Value = ServeLabel> {
    (0u32..50, 0u8..3).prop_map(|(asn, c)| ServeLabel {
        asn: Asn(asn),
        class: match c {
            0 => AsClass::Dedicated,
            1 => AsClass::Mixed,
            _ => AsClass::Unknown,
        },
    })
}

/// Arbitrary v4 prefix as raw parts; `Ipv4Net::new` masks host bits.
fn arb_v4() -> impl Strategy<Value = (u32, u8, ServeLabel)> {
    (any::<u32>(), 0u8..=32, arb_label())
}

/// Arbitrary v6 prefix as raw parts.
fn arb_v6() -> impl Strategy<Value = (u128, u8, ServeLabel)> {
    (any::<u128>(), 0u8..=128, arb_label())
}

fn build_index(
    v4_entries: &[(u32, u8, ServeLabel)],
    v6_entries: &[(u128, u8, ServeLabel)],
) -> cellserve::FrozenIndex {
    let mut builder = FrozenIndexBuilder::new();
    for &(addr, len, label) in v4_entries {
        builder.insert_v4(Ipv4Net::new(addr, len).expect("len ≤ 32"), label);
    }
    for &(addr, len, label) in v6_entries {
        builder.insert_v6(Ipv6Net::new(addr, len).expect("len ≤ 128"), label);
    }
    builder.build()
}

proptest! {
    /// Any single-byte corruption of the v2 bytes, at any position with
    /// any nonzero XOR pattern, is rejected — both by the borrowed view
    /// and through the sniffing `Artifact::from_bytes` entry point.
    #[test]
    fn random_single_byte_corruption_of_v2_is_rejected(
        v4_entries in prop::collection::vec(arb_v4(), 0..24),
        v6_entries in prop::collection::vec(arb_v6(), 0..8),
        pos_seed in any::<usize>(),
        xor in 1u8..=255,
    ) {
        let frozen = build_index(&v4_entries, &v6_entries);
        let mut bytes = Artifact::encode(&frozen, ArtifactFormat::V2);
        let pos = pos_seed % bytes.len();
        bytes[pos] ^= xor;
        prop_assert!(
            MappedIndex::new(&bytes).is_err(),
            "mapped view accepted flip {:#04x} at byte {}", xor, pos
        );
        prop_assert!(
            Artifact::from_bytes(&bytes).is_err(),
            "from_bytes accepted flip {:#04x} at byte {}", xor, pos
        );
    }

    /// Truncating the v2 bytes anywhere — including to an empty buffer —
    /// is rejected at load.
    #[test]
    fn truncation_of_v2_is_rejected(
        v4_entries in prop::collection::vec(arb_v4(), 0..24),
        cut_seed in any::<usize>(),
    ) {
        let frozen = build_index(&v4_entries, &[]);
        let bytes = Artifact::encode(&frozen, ArtifactFormat::V2);
        let cut = cut_seed % bytes.len();
        prop_assert!(
            MappedIndex::new(&bytes[..cut]).is_err(),
            "mapped view accepted truncation to {} of {} bytes", cut, bytes.len()
        );
        prop_assert!(
            Artifact::from_bytes(&bytes[..cut]).is_err(),
            "from_bytes accepted truncation to {} of {} bytes", cut, bytes.len()
        );
    }

    /// The v1 codec (what `index migrate` reads old files with) is
    /// lossless and canonical, exactly like v2.
    #[test]
    fn both_codecs_roundtrip_losslessly_and_canonically(
        v4_entries in prop::collection::vec(arb_v4(), 0..32),
        v6_entries in prop::collection::vec(arb_v6(), 0..32),
    ) {
        let index = build_index(&v4_entries, &v6_entries);
        for format in [ArtifactFormat::V1, ArtifactFormat::V2] {
            let bytes = Artifact::encode(&index, format);
            let decoded = Artifact::decode(&bytes);
            prop_assert_eq!(decoded.as_ref(), Ok(&index), "{}", format);
            prop_assert_eq!(
                Artifact::encode(&decoded.expect("just matched"), format),
                bytes,
                "{} re-encoding", format
            );
        }
    }

    /// Any single-byte corruption of v1 bytes, at any position, with
    /// any nonzero XOR pattern, is rejected by the decoder.
    #[test]
    fn random_single_byte_corruption_of_v1_is_rejected(
        entries in prop::collection::vec(arb_v4(), 0..24),
        pos_seed in any::<usize>(),
        xor in 1u8..=255,
    ) {
        let mut bytes = Artifact::encode(&build_index(&entries, &[]), ArtifactFormat::V1);
        let pos = pos_seed % bytes.len();
        bytes[pos] ^= xor;
        prop_assert!(
            Artifact::decode(&bytes).is_err(),
            "flip {:#04x} at byte {} accepted", xor, pos
        );
    }

    /// Migration is byte-deterministic: decoding the v1 seal and
    /// re-encoding as v2 equals sealing the index as v2 directly, the
    /// round trip v1→v2→v1 is the identity, and repeating either
    /// conversion changes nothing.
    #[test]
    fn migrate_roundtrip_is_byte_deterministic(
        v4_entries in prop::collection::vec(arb_v4(), 0..24),
        v6_entries in prop::collection::vec(arb_v6(), 0..8),
    ) {
        let frozen = build_index(&v4_entries, &v6_entries);
        let v1_bytes = Artifact::encode(&frozen, ArtifactFormat::V1);
        let v2_bytes = Artifact::encode(&frozen, ArtifactFormat::V2);

        let migrated_up = Artifact::encode(
            &Artifact::decode(&v1_bytes).expect("sealed v1 decodes"),
            ArtifactFormat::V2,
        );
        prop_assert_eq!(&migrated_up, &v2_bytes, "v1→v2 must equal a direct v2 seal");

        let migrated_down = Artifact::encode(
            &Artifact::decode(&migrated_up).expect("migrated v2 decodes"),
            ArtifactFormat::V1,
        );
        prop_assert_eq!(&migrated_down, &v1_bytes, "v1→v2→v1 must be the identity");

        let again = Artifact::encode(
            &Artifact::decode(&v1_bytes).expect("sealed v1 decodes"),
            ArtifactFormat::V2,
        );
        prop_assert_eq!(again, migrated_up, "repeating the conversion must be stable");
    }
}
