//! Building and applying deltas against sealed CELLSERV v2 artifacts.
//!
//! Both directions run on *validated views* of bytes — bytes are what
//! the hashes chain on, and the one serving representation
//! ([`cellserve::MappedIndex`]) is the only way to hold them: its
//! validation pass sums the content hash, and its traversal order
//! (shortest prefix first, keys ascending) is exactly the `(len, key)`
//! order a delta's ops are sorted in. [`build_delta`] validates base
//! and target, merge-joins the two walks, and seals the differing
//! prefixes with both views' content hashes embedded.
//! [`apply_to_view`] is the one apply path — [`apply_delta`] opens base
//! bytes into a view for it, the daemon hands it the view it is serving
//! — and verifies the base hash, merges the base walk against the
//! sorted op list in **one pass** — strictly: an add of a present
//! prefix or an update/remove of an absent one is a conflict — straight
//! into the canonical [`cellserve::FrozenIndexBuilder`] (which, fed in
//! order, sorts nothing), encodes v2, and verifies the result hashes to
//! the delta's target. Because the CELLSERV encoding is canonical, the
//! patched bytes are *byte-identical* to what a full rebuild at the
//! delta's epoch would have produced — the equivalence the crate's
//! property suite pins down.
//!
//! Apply is O(entries), not O(ops), and that is the chain rule's cost,
//! not the merge's: the base hash before and the target hash after
//! each cover the whole canonical artifact. What apply does *not* do is
//! pay that more than once: a base is hashed and validated when it
//! becomes a view, never again.
//!
//! CELLSERV v1 artifacts are not patchable; convert them first with
//! `cellspot index migrate`.

use cellserve::{
    content_hash, Artifact, ArtifactFormat, AsClass, FrozenIndexBuilder, IndexView, MappedIndex,
    PrefixCodec, ServeError, ServeLabel,
};
use netaddr::{Asn, Ipv4Net, Ipv6Net};

use crate::wire::{Delta, DeltaError, PatchChange, PatchOp};

fn artifact_err(e: impl std::fmt::Display) -> DeltaError {
    DeltaError::Artifact(e.to_string())
}

/// Validate `bytes` as the v2 artifact a delta can chain on.
fn open_v2<'a>(role: &str, bytes: &'a [u8]) -> Result<MappedIndex<&'a [u8]>, DeltaError> {
    MappedIndex::new(bytes).map_err(|e| {
        DeltaError::Artifact(match e {
            ServeError::UnsupportedVersion(v) => format!(
                "{role} artifact is CELLSERV v{v}; deltas chain on v2 bytes only — \
                 migrate first (`cellspot index migrate`)"
            ),
            e => format!("{role} artifact: {e}"),
        })
    })
}

/// What the diff and the merge need to know about one address family:
/// how its keys map to the net type the view yields and the builder
/// takes. Implemented for `u32` (IPv4) and `u128` (IPv6).
trait Family: PrefixCodec {
    type Net: Copy;
    fn at(net: &Self::Net) -> (u8, Self);
    fn net(len: u8, key: Self) -> Result<Self::Net, DeltaError>;
    fn walk(view: &dyn IndexView, f: &mut dyn FnMut(Self::Net, ServeLabel));
    fn insert(builder: &mut FrozenIndexBuilder, net: Self::Net, label: ServeLabel);
}

impl Family for u32 {
    type Net = Ipv4Net;
    fn at(net: &Ipv4Net) -> (u8, u32) {
        (net.len(), net.addr())
    }
    fn net(len: u8, key: u32) -> Result<Ipv4Net, DeltaError> {
        Ipv4Net::new(key, len).map_err(artifact_err)
    }
    fn walk(view: &dyn IndexView, f: &mut dyn FnMut(Ipv4Net, ServeLabel)) {
        view.for_each_v4(f)
    }
    fn insert(builder: &mut FrozenIndexBuilder, net: Ipv4Net, label: ServeLabel) {
        builder.insert_v4(net, label)
    }
}

impl Family for u128 {
    type Net = Ipv6Net;
    fn at(net: &Ipv6Net) -> (u8, u128) {
        (net.len(), net.addr())
    }
    fn net(len: u8, key: u128) -> Result<Ipv6Net, DeltaError> {
        Ipv6Net::new(key, len).map_err(artifact_err)
    }
    fn walk(view: &dyn IndexView, f: &mut dyn FnMut(Ipv6Net, ServeLabel)) {
        view.for_each_v6(f)
    }
    fn insert(builder: &mut FrozenIndexBuilder, net: Ipv6Net, label: ServeLabel) {
        builder.insert_v6(net, label)
    }
}

fn at<K: Copy>(op: &PatchOp<K>) -> (u8, K) {
    (op.len, op.key)
}

fn conflict<K: PrefixCodec>(what: &str, op: &PatchOp<K>) -> DeltaError {
    DeltaError::PatchConflict(format!("{what} prefix {:x}/{}", op.key, op.len))
}

fn label(asn: u32, class: u8) -> Result<ServeLabel, DeltaError> {
    let class = AsClass::from_byte(class)
        .ok_or_else(|| DeltaError::Artifact(format!("invalid class byte {class}")))?;
    Ok(ServeLabel {
        asn: Asn(asn),
        class,
    })
}

/// One family's entries in canonical order, which is `(len, key)`
/// ascending — the order ops are sorted in on the wire.
fn entries<K: Family>(view: &dyn IndexView) -> Vec<((u8, K), ServeLabel)> {
    let mut out = Vec::new();
    K::walk(view, &mut |net, label| out.push((K::at(&net), label)));
    out
}

/// The minimal patch turning `base` into `target`: a sorted merge-join
/// over the two canonical walks emitting one op per differing prefix.
fn diff_family<K: Family>(base: &dyn IndexView, target: &dyn IndexView) -> Vec<PatchOp<K>> {
    let (base, target) = (entries::<K>(base), entries::<K>(target));
    let (mut b, mut t) = (base.iter().peekable(), target.iter().peekable());
    let mut ops = Vec::new();
    let set = |l: &ServeLabel| (l.asn.value(), l.class.to_byte());
    loop {
        let cmp = match (b.peek(), t.peek()) {
            (None, None) => break,
            (Some(_), None) => std::cmp::Ordering::Less,
            (None, Some(_)) => std::cmp::Ordering::Greater,
            (Some((bk, _)), Some((tk, _))) => bk.cmp(tk),
        };
        let (&((len, key), _), change) = match cmp {
            std::cmp::Ordering::Less => (b.next().expect("peeked"), PatchChange::Remove),
            std::cmp::Ordering::Greater => {
                let e = t.next().expect("peeked");
                let (asn, class) = set(&e.1);
                (e, PatchChange::Add { asn, class })
            }
            std::cmp::Ordering::Equal => {
                let (old, new) = (b.next().expect("peeked"), t.next().expect("peeked"));
                if old.1 == new.1 {
                    continue;
                }
                let (asn, class) = set(&new.1);
                (new, PatchChange::Update { asn, class })
            }
        };
        ops.push(PatchOp { len, key, change });
    }
    ops
}

/// An op naming a prefix the base lacks: only an add is consistent.
fn apply_absent<K: Family>(
    op: &PatchOp<K>,
    out: &mut FrozenIndexBuilder,
) -> Result<(), DeltaError> {
    match op.change {
        PatchChange::Add { asn, class } => {
            K::insert(out, K::net(op.len, op.key)?, label(asn, class)?);
            Ok(())
        }
        PatchChange::Update { .. } => Err(conflict("update of absent", op)),
        PatchChange::Remove => Err(conflict("remove of absent", op)),
    }
}

/// Merge one family of `base` against its sorted patch ops, in one
/// pass, into `out`. Strict: an add of a present prefix, or an
/// update/remove of an absent one, is a [`DeltaError::PatchConflict`] —
/// the delta was built against a different base than it is being
/// applied to.
fn patch_family<K: Family>(
    base: &dyn IndexView,
    ops: &[PatchOp<K>],
    out: &mut FrozenIndexBuilder,
) -> Result<(), DeltaError> {
    // One pass is only sound over masked, strictly ascending ops.
    // `Delta::from_bytes` guarantees that; a `Delta` built in memory
    // reaches `apply_to_view` unchecked.
    for (i, op) in ops.iter().enumerate() {
        if op.len > K::BITS || op.key.and(K::mask(op.len)) != op.key {
            return Err(DeltaError::Corrupt(format!("non-canonical key in op {i}")));
        }
        if i > 0 && at(&ops[i - 1]) >= at(op) {
            return Err(DeltaError::Corrupt(format!("ops out of order at op {i}")));
        }
    }
    let mut next = 0;
    let mut result = Ok(());
    K::walk(base, &mut |net, base_label| {
        if result.is_err() {
            return;
        }
        result = (|| {
            let here = K::at(&net);
            while next < ops.len() && at(&ops[next]) < here {
                apply_absent(&ops[next], out)?;
                next += 1;
            }
            let Some(op) = ops.get(next).filter(|op| at(op) == here) else {
                K::insert(out, net, base_label);
                return Ok(());
            };
            next += 1;
            match op.change {
                PatchChange::Remove => {}
                PatchChange::Update { asn, class } => K::insert(out, net, label(asn, class)?),
                PatchChange::Add { .. } => return Err(conflict("add of already-present", op)),
            }
            Ok(())
        })();
    });
    result?;
    ops[next..].iter().try_for_each(|op| apply_absent(op, out))
}

/// Build a sealed delta advancing `base_bytes` (built at `base_epoch`)
/// to `target_bytes` (built at `epoch`). Both inputs must be valid
/// sealed CELLSERV v2 artifacts, and `epoch` must advance past
/// `base_epoch`.
pub fn build_delta(
    base_bytes: &[u8],
    target_bytes: &[u8],
    base_epoch: u64,
    epoch: u64,
) -> Result<Vec<u8>, DeltaError> {
    if epoch <= base_epoch {
        return Err(DeltaError::StaleEpoch {
            current: base_epoch,
            delta: epoch,
        });
    }
    let base = open_v2("base", base_bytes)?;
    let target = open_v2("target", target_bytes)?;
    let delta = Delta {
        base_hash: base.content_hash(),
        target_hash: target.content_hash(),
        base_epoch,
        epoch,
        v4: diff_family(&base, &target),
        v6: diff_family(&base, &target),
    };
    Ok(delta.to_bytes())
}

/// Apply an already-decoded delta to a validated base view — the one
/// apply path: [`apply_delta`] opens base bytes into a view first, the
/// daemon hands over the view it is serving. Verifies the base hash
/// (the one validation summed) before touching anything and the target
/// hash after re-encoding; on success the returned bytes are
/// byte-identical to the artifact the delta was built from.
pub fn apply_to_view<B: AsRef<[u8]> + Sync>(
    base: &MappedIndex<B>,
    delta: &Delta,
) -> Result<Vec<u8>, DeltaError> {
    let artifact = base.content_hash();
    if artifact != delta.base_hash {
        return Err(DeltaError::BaseMismatch {
            delta_base: delta.base_hash,
            artifact,
        });
    }
    let mut patched = FrozenIndexBuilder::new();
    patch_family(base, &delta.v4, &mut patched)?;
    patch_family(base, &delta.v6, &mut patched)?;
    let bytes = Artifact::encode(&patched.build(), ArtifactFormat::V2);
    let actual = content_hash(&bytes);
    if actual != delta.target_hash {
        return Err(DeltaError::TargetMismatch {
            expected: delta.target_hash,
            actual,
        });
    }
    Ok(bytes)
}

/// Decode a sealed delta and apply it to base artifact bytes — the
/// full validation path: both seals, both structures, base hash, strict
/// patch, target hash.
pub fn apply_delta(base_bytes: &[u8], delta_bytes: &[u8]) -> Result<Vec<u8>, DeltaError> {
    let delta = Delta::from_bytes(delta_bytes)?;
    apply_to_view(&open_v2("base", base_bytes)?, &delta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellserve::FrozenIndex;

    fn index(entries: &[(&str, u32, AsClass)]) -> FrozenIndex {
        let mut b = FrozenIndex::builder();
        for &(cidr, asn, class) in entries {
            b.insert_v4(
                cidr.parse().expect("cidr"),
                ServeLabel {
                    asn: Asn(asn),
                    class,
                },
            );
        }
        b.build()
    }

    fn artifact(entries: &[(&str, u32, AsClass)]) -> Vec<u8> {
        Artifact::encode(&index(entries), ArtifactFormat::V2)
    }

    #[test]
    fn build_then_apply_is_byte_identical() {
        let base = artifact(&[
            ("10.0.0.0/24", 1, AsClass::Dedicated),
            ("10.0.1.0/24", 1, AsClass::Dedicated),
            ("192.0.2.0/24", 2, AsClass::Mixed),
        ]);
        let target = artifact(&[
            ("10.0.0.0/24", 1, AsClass::Mixed), // label update
            ("10.0.1.0/24", 1, AsClass::Mixed),
            ("198.51.100.0/24", 3, AsClass::Dedicated), // added; 192.0.2.0/24 removed
        ]);
        let delta_bytes = build_delta(&base, &target, 1, 2).expect("build");
        let delta = Delta::from_bytes(&delta_bytes).expect("decode");
        assert_eq!(delta.op_count(), 4);
        assert_eq!(delta.base_epoch, 1);
        assert_eq!(delta.epoch, 2);
        let patched = apply_delta(&base, &delta_bytes).expect("apply");
        assert_eq!(patched, target, "apply reproduces the target bytes exactly");
    }

    #[test]
    fn identical_artifacts_diff_to_an_empty_patch() {
        let base = artifact(&[("10.0.0.0/24", 1, AsClass::Dedicated)]);
        let delta_bytes = build_delta(&base, &base, 1, 2).expect("build");
        let delta = Delta::from_bytes(&delta_bytes).expect("decode");
        assert_eq!(delta.op_count(), 0);
        assert_eq!(apply_delta(&base, &delta_bytes).expect("apply"), base);
    }

    #[test]
    fn wrong_base_is_rejected_before_any_patching() {
        let base = artifact(&[("10.0.0.0/24", 1, AsClass::Dedicated)]);
        let target = artifact(&[("10.0.0.0/24", 1, AsClass::Mixed)]);
        let other = artifact(&[("192.0.2.0/24", 9, AsClass::Mixed)]);
        let delta_bytes = build_delta(&base, &target, 1, 2).expect("build");
        let err = apply_delta(&other, &delta_bytes).expect_err("wrong base");
        assert!(matches!(err, DeltaError::BaseMismatch { .. }), "{err}");
    }

    #[test]
    fn v1_endpoints_are_refused_with_the_migrate_hint() {
        let idx = index(&[("10.0.0.0/24", 1, AsClass::Dedicated)]);
        let v1 = Artifact::encode(&idx, ArtifactFormat::V1);
        let v2 = Artifact::encode(&idx, ArtifactFormat::V2);
        for (base, target) in [(&v1, &v2), (&v2, &v1), (&v1, &v1)] {
            let err = build_delta(base, target, 1, 2).expect_err("v1 endpoint");
            assert!(matches!(err, DeltaError::Artifact(_)), "{err}");
            assert!(err.to_string().contains("migrate first"), "{err}");
        }
        // A delta that names a v1 file as its base does not apply either.
        let delta = Delta {
            base_hash: content_hash(&v1),
            target_hash: content_hash(&v2),
            base_epoch: 1,
            epoch: 2,
            v4: Vec::new(),
            v6: Vec::new(),
        };
        let err = apply_delta(&v1, &delta.to_bytes()).expect_err("v1 base");
        assert!(matches!(err, DeltaError::Artifact(_)), "{err}");
        assert!(err.to_string().contains("migrate first"), "{err}");
    }

    #[test]
    fn non_advancing_epoch_is_rejected_at_build_time() {
        let base = artifact(&[("10.0.0.0/24", 1, AsClass::Dedicated)]);
        let err = build_delta(&base, &base, 2, 2).expect_err("same epoch");
        assert!(matches!(err, DeltaError::StaleEpoch { .. }), "{err}");
    }

    #[test]
    fn garbage_base_bytes_are_an_artifact_error() {
        let base = artifact(&[("10.0.0.0/24", 1, AsClass::Dedicated)]);
        let target = artifact(&[("10.0.0.0/24", 1, AsClass::Mixed)]);
        let delta_bytes = build_delta(&base, &target, 1, 2).expect("build");
        let mut garbage = base.clone();
        let mid = garbage.len() / 2;
        garbage[mid] ^= 0x40;
        // Base bytes become a view before anything reads their hash, so
        // validation stops them — the delta never chains onto corrupted
        // bytes, whether or not it was forged to name their hash.
        let mut forged = Delta::from_bytes(&delta_bytes).expect("decode");
        forged.base_hash = content_hash(&garbage);
        for delta_bytes in [delta_bytes, forged.to_bytes()] {
            let err = apply_delta(&garbage, &delta_bytes).expect_err("corrupt base");
            assert!(matches!(err, DeltaError::Artifact(_)), "{err}");
        }
        assert!(
            build_delta(&garbage, &target, 1, 2).is_err(),
            "corrupt base fails validation"
        );
    }

    /// Canonical order of the three base entries: the /8 first, then
    /// the two /24s ascending — so there is room for an op before the
    /// first entry, between entries, and after the last.
    const BASE: [(&str, u32, AsClass); 3] = [
        ("10.0.0.0/8", 1, AsClass::Dedicated),
        ("192.0.2.0/24", 2, AsClass::Mixed),
        ("198.51.100.0/24", 3, AsClass::Unknown),
    ];
    const BEFORE: (u8, u32) = (4, 0x1000_0000);
    const BETWEEN: (u8, u32) = (24, 0xC100_0000);
    const AFTER: (u8, u32) = (32, 0x0102_0304);
    const PRESENT: [(u8, u32); 3] = [(8, 0x0A00_0000), (24, 0xC000_0200), (24, 0xC633_6400)];

    /// Apply hand-built v4 ops to [`BASE`] through `apply_to_view`, the
    /// base hash matching so only the merge can object.
    fn apply_ops(ops: Vec<PatchOp<u32>>, target_hash: u64) -> Result<Vec<u8>, DeltaError> {
        let base = artifact(&BASE);
        let delta = Delta {
            base_hash: content_hash(&base),
            target_hash,
            base_epoch: 1,
            epoch: 2,
            v4: ops,
            v6: Vec::new(),
        };
        apply_to_view(&open_v2("base", &base)?, &delta)
    }

    fn op((len, key): (u8, u32), change: PatchChange) -> PatchOp<u32> {
        PatchOp { len, key, change }
    }

    #[test]
    fn each_conflict_class_is_refused_wherever_the_op_sorts() {
        for at in PRESENT {
            let err = apply_ops(vec![op(at, PatchChange::Add { asn: 9, class: 1 })], 0)
                .expect_err("add of a present prefix");
            assert!(matches!(err, DeltaError::PatchConflict(_)), "{at:?}: {err}");
            assert!(err.to_string().contains("already-present"), "{err}");
        }
        for at in [BEFORE, BETWEEN, AFTER] {
            let err = apply_ops(vec![op(at, PatchChange::Update { asn: 9, class: 1 })], 0)
                .expect_err("update of an absent prefix");
            assert!(matches!(err, DeltaError::PatchConflict(_)), "{at:?}: {err}");
            assert!(err.to_string().contains("update of absent"), "{err}");

            let err =
                apply_ops(vec![op(at, PatchChange::Remove)], 0).expect_err("remove of an absent");
            assert!(matches!(err, DeltaError::PatchConflict(_)), "{at:?}: {err}");
            assert!(err.to_string().contains("remove of absent"), "{err}");
        }
        // A conflict behind valid ops is still found: the merge does
        // not stop checking once it has passed the last base entry.
        let err = apply_ops(
            vec![
                op(BEFORE, PatchChange::Add { asn: 9, class: 1 }),
                op(PRESENT[1], PatchChange::Remove),
                op(AFTER, PatchChange::Remove),
            ],
            0,
        )
        .expect_err("trailing remove of an absent prefix");
        assert!(matches!(err, DeltaError::PatchConflict(_)), "{err}");
    }

    #[test]
    fn out_of_range_class_bytes_are_an_artifact_error_not_a_panic() {
        for at in [BEFORE, BETWEEN, AFTER] {
            let err = apply_ops(vec![op(at, PatchChange::Add { asn: 9, class: 3 })], 0)
                .expect_err("class byte 3 in an add");
            assert!(matches!(err, DeltaError::Artifact(_)), "{at:?}: {err}");
        }
        for at in PRESENT {
            let err = apply_ops(vec![op(at, PatchChange::Update { asn: 9, class: 255 })], 0)
                .expect_err("class byte 255 in an update");
            assert!(matches!(err, DeltaError::Artifact(_)), "{at:?}: {err}");
        }
    }

    #[test]
    fn hand_built_ops_must_be_canonical_and_sorted() {
        let add = PatchChange::Add { asn: 9, class: 1 };
        // Descending, and a duplicate key.
        for ops in [
            vec![op(AFTER, add), op(BEFORE, add)],
            vec![op(BETWEEN, add), op(BETWEEN, add)],
        ] {
            let err = apply_ops(ops, 0).expect_err("unsorted ops");
            assert!(matches!(err, DeltaError::Corrupt(_)), "{err}");
        }
        // Host bits below the mask, and a length no IPv4 prefix has.
        for at in [(8, 0x0A00_0001), (33, 0)] {
            let err = apply_ops(vec![op(at, add)], 0).expect_err("non-canonical op");
            assert!(matches!(err, DeltaError::Corrupt(_)), "{at:?}: {err}");
        }
    }

    #[test]
    fn ops_at_every_position_merge_and_the_target_hash_is_enforced() {
        let ops = vec![
            op(BEFORE, PatchChange::Add { asn: 7, class: 2 }),
            op(PRESENT[0], PatchChange::Update { asn: 1, class: 2 }),
            op(PRESENT[1], PatchChange::Remove),
            op(BETWEEN, PatchChange::Add { asn: 8, class: 0 }),
            op(AFTER, PatchChange::Add { asn: 9, class: 1 }),
        ];
        let target = artifact(&[
            ("16.0.0.0/4", 7, AsClass::Mixed),
            ("10.0.0.0/8", 1, AsClass::Mixed),
            ("193.0.0.0/24", 8, AsClass::Unknown),
            ("198.51.100.0/24", 3, AsClass::Unknown),
            ("1.2.3.4/32", 9, AsClass::Dedicated),
        ]);
        let patched = apply_ops(ops.clone(), content_hash(&target)).expect("clean merge");
        assert_eq!(patched, target);

        // The same ops under any other promised hash are refused after
        // the merge: the delta was built against different contents.
        let err = apply_ops(ops, content_hash(&target) ^ 1).expect_err("wrong target hash");
        assert_eq!(
            err,
            DeltaError::TargetMismatch {
                expected: content_hash(&target) ^ 1,
                actual: content_hash(&target),
            }
        );
    }
}
