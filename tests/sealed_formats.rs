//! Every file this workspace seals — CELLSERV v1 and v2 artifacts,
//! CELLDELT deltas, CELLLOAD traces, sealed checkpoints — pinned byte
//! for byte: one tiny fixed fixture per format and the FNV-1a 64 content
//! hash of its sealed bytes. A change to any encoder, or to the
//! envelope they share, that moves a single byte fails here first.

use cellspotting::cellserve::{
    content_hash, Artifact, ArtifactFormat, AsClass, FrozenIndex, IpKey, ServeLabel,
};
use cellspotting::cellstream;
use cellspotting::netaddr::Asn;

use celldelta::{Delta, PatchChange, PatchOp};
use cellload::{Trace, TraceSegment};

fn index() -> FrozenIndex {
    let label = |asn: u32, class: AsClass| ServeLabel {
        asn: Asn(asn),
        class,
    };
    let mut b = FrozenIndex::builder();
    b.insert_v4(
        "10.0.0.0/8".parse().expect("cidr"),
        label(1, AsClass::Mixed),
    );
    b.insert_v4(
        "10.1.0.0/16".parse().expect("cidr"),
        label(2, AsClass::Dedicated),
    );
    b.insert_v4(
        "203.0.113.0/24".parse().expect("cidr"),
        label(2, AsClass::Dedicated),
    );
    b.insert_v6(
        "2001:db8::/48".parse().expect("cidr"),
        label(3, AsClass::Unknown),
    );
    b.insert_v6(
        "2001:db8:1::/64".parse().expect("cidr"),
        label(1, AsClass::Mixed),
    );
    b.build()
}

fn delta() -> Delta {
    Delta {
        base_hash: 0x1111_2222_3333_4444,
        target_hash: 0x5555_6666_7777_8888,
        base_epoch: 3,
        epoch: 4,
        v4: vec![
            PatchOp {
                len: 8,
                key: 0x0A00_0000,
                change: PatchChange::Add {
                    asn: 64500,
                    class: 1,
                },
            },
            PatchOp {
                len: 24,
                key: 0xC000_0200,
                change: PatchChange::Update {
                    asn: 64501,
                    class: 2,
                },
            },
            PatchOp {
                len: 24,
                key: 0xC633_6400,
                change: PatchChange::Remove,
            },
        ],
        v6: vec![PatchOp {
            len: 48,
            key: 0x2001_0db8_0000_0000_0000_0000_0000_0000,
            change: PatchChange::Add {
                asn: 64502,
                class: 2,
            },
        }],
    }
}

fn trace() -> Trace {
    Trace {
        preset: "steady".to_string(),
        seed: 42,
        segments: vec![
            TraceSegment {
                epoch: 0,
                queries: vec![IpKey::V4(0x0A00_0001), IpKey::V6(1 << 80)],
            },
            TraceSegment {
                epoch: 1,
                queries: vec![IpKey::V4(0xC000_0201)],
            },
        ],
    }
}

/// The five sealed formats: name, sealed bytes of the fixture, and the
/// content hash those bytes had when the fixture was first pinned.
fn formats() -> Vec<(&'static str, Vec<u8>, u64)> {
    vec![
        (
            "CELLSERV v1",
            Artifact::encode(&index(), ArtifactFormat::V1),
            0x41ca_3b62_0e37_7043,
        ),
        (
            "CELLSERV v2",
            Artifact::encode(&index(), ArtifactFormat::V2),
            0xfae2_a39e_77c4_328e,
        ),
        ("CELLDELT", delta().to_bytes(), 0x45c2_4163_d716_379e),
        ("CELLLOAD", trace().to_bytes(), 0x208e_1d64_b89a_fc2c),
        (
            "checkpoint",
            cellstream::seal("{\"payload\": [1, 2, 3]}\n").into_bytes(),
            0xaa07_0de9_3e7a_9ae1,
        ),
    ]
}

#[test]
fn sealed_bytes_match_their_golden_hashes() {
    let moved: Vec<String> = formats()
        .into_iter()
        .filter(|(_, bytes, golden)| content_hash(bytes) != *golden)
        .map(|(name, bytes, golden)| {
            format!(
                "{name}: {} sealed bytes hash to {:#018x}, pinned {golden:#018x}",
                bytes.len(),
                content_hash(&bytes)
            )
        })
        .collect();
    assert!(
        moved.is_empty(),
        "sealed bytes moved:\n{}",
        moved.join("\n")
    );
}
