//! Command implementations for the `cellspot` binary. Each command takes
//! parsed inputs and returns its output as a string (plus files written
//! by the caller), so tests can exercise them directly.

use asdb::{AsDatabase, CarrierGroundTruth};
use cdnsim::{BeaconDataset, DemandDataset};
use celldelta::{Delta, DeltaError, EpochCounters};
use cellserve::{
    Artifact, ArtifactFormat, BatchStats, IndexView, IpKey, QueryEngine, ServeError, QUERY_CHUNK,
};
use cellspot::{
    aggregate_by_as, identify_cellular_ases, threshold_sweep, validate_carrier, BlockIndex,
    CellspotError, Classification, FilterConfig, MixedAnalysis, Pipeline, WorldView, DEDICATED_CFD,
    DEFAULT_THRESHOLD,
};
use netaddr::CONTINENTS;

use crate::io::block_to_string;

/// `classify`: label every block and emit a CSV of the cellular ones.
///
/// Output columns: `block,asn,cellular_ratio,netinfo_hits,du`.
///
/// Errors (instead of panicking) when a classified block cannot be found
/// in the joined index — possible only when the input CSVs violate the
/// datasets' uniqueness invariant (duplicate block rows survive release
/// builds), so adversarial input reaches the CLI's error path.
pub fn classify(
    beacons: &BeaconDataset,
    demand: &DemandDataset,
    threshold: Option<f64>,
    obs: &cellobs::Observer,
) -> Result<(String, usize), CellspotError> {
    let t = threshold.unwrap_or(DEFAULT_THRESHOLD);
    let (index, class) = Pipeline::new(beacons, demand)
        .threshold(t)
        .observer(obs.clone())
        .classify()?;
    let mut out = String::from("block,asn,cellular_ratio,netinfo_hits,du\n");
    for (block, asn) in class.iter() {
        let obs = index.get(block).ok_or_else(|| {
            CellspotError::InconsistentDatasets(format!(
                "classified block {} is missing from the joined index \
                 (duplicate block rows?)",
                block_to_string(block)
            ))
        })?;
        out.push_str(&format!(
            "{},{},{:.4},{},{:.4}\n",
            block_to_string(block),
            asn.value(),
            obs.cellular_ratio().unwrap_or(0.0),
            obs.netinfo_hits,
            obs.du
        ));
    }
    let n = class.len();
    Ok((out, n))
}

/// `identify-as`: run the §5 pipeline and emit the cellular AS list plus
/// a human-readable funnel report.
pub fn identify_as(
    beacons: &BeaconDataset,
    demand: &DemandDataset,
    as_db: &AsDatabase,
    min_cell_du: f64,
    min_hits: f64,
) -> (String, String) {
    let index = BlockIndex::build(beacons, demand);
    let class = Classification::with_default_threshold(&index);
    let aggs = aggregate_by_as(&index, &class);
    let outcome = identify_cellular_ases(
        &aggs,
        as_db,
        &FilterConfig {
            min_cell_du,
            min_netinfo_hits: min_hits,
        },
    );
    let mixed = MixedAnalysis::build(&outcome.cellular_ases, &aggs, DEDICATED_CFD);

    let mut csv = String::from("asn,country,cell_du,total_du,cfd,kind\n");
    for v in &mixed.verdicts {
        let country = as_db
            .get(v.asn)
            .map(|r| r.country.as_str().to_string())
            .unwrap_or_else(|| "??".into());
        csv.push_str(&format!(
            "{},{},{:.4},{:.4},{:.4},{}\n",
            v.asn.value(),
            country,
            v.cell_du,
            v.cell_du / v.cfd.max(1e-12),
            v.cfd,
            if v.is_mixed { "mixed" } else { "dedicated" }
        ));
    }

    let (c, r1, r2, r3) = outcome.table5_counts();
    let (n_mixed, n_dedicated) = mixed.counts();
    let report = format!(
        "candidates {c} -> after demand rule {r1} -> after hits rule {r2} -> final {r3}\n\
         mixed {n_mixed} / dedicated {n_dedicated} ({:.1}% mixed)\n",
        100.0 * mixed.mixed_fraction()
    );
    (csv, report)
}

/// `index build`: run the classification and freeze it into a sealed
/// serving artifact. Returns the artifact bytes (the caller writes them
/// atomically) plus a one-line human summary carrying the artifact's
/// content hash, for correlating with the daemon's `/generation`.
///
/// Every AS holding at least one cellular block gets a mixed/dedicated
/// verdict here — the §5 demand/hits funnel filters *which ASes count as
/// cellular operators*, but the serving artifact must label every prefix
/// it ships, so the funnel is deliberately not applied.
///
/// Routed through [`celldelta::classify_epoch`], the same canonical
/// classifier the delta pipeline uses, so `delta apply` on an artifact
/// built here is byte-identical to rebuilding from scratch.
pub fn index_build(
    beacons: &BeaconDataset,
    demand: &DemandDataset,
    threshold: Option<f64>,
    obs: &cellobs::Observer,
) -> Result<(Vec<u8>, String), CellspotError> {
    let t = threshold.unwrap_or(DEFAULT_THRESHOLD);
    let index = BlockIndex::build(beacons, demand);
    let counters = EpochCounters::from_index(0, &index);
    let frozen = celldelta::classify_epoch(&counters, t);
    let bytes = Artifact::encode(&frozen, ArtifactFormat::V2);
    let hash = cellserve::content_hash(&bytes);
    obs.counter("index.blocks").add(counters.len() as u64);
    obs.counter("index.ases").add(frozen.as_count() as u64);
    obs.gauge("index.artifact.hash").set(hash);
    let (v4, v6) = frozen.prefix_counts();
    let summary = format!(
        "frozen {v4} IPv4 + {v6} IPv6 prefixes, {} labels over {} ASes from {} blocks, \
         {} bytes (format v2), content hash {}\n",
        frozen.label_count(),
        frozen.as_count(),
        counters.len(),
        bytes.len(),
        cellserve::hash_hex(hash),
    );
    Ok((bytes, summary))
}

/// `index migrate`: convert a sealed artifact between formats without
/// reclassifying anything — the one place a CELLSERV v1 file is still
/// read (`lookup`, `serve` and `delta` take v2 only). The conversion is
/// byte-deterministic — both encoders are canonical, so migrating the
/// same input always yields the same output, and a v1→v2→v1 round trip
/// reproduces the v1 bytes. Migrating to the format the artifact
/// already has is an error (the output would be the input; copy the
/// file instead).
pub fn index_migrate(bytes: &[u8], to: ArtifactFormat) -> Result<(Vec<u8>, String), ServeError> {
    let from = Artifact::sniff_format(bytes).ok_or_else(|| {
        ServeError::Corrupt("unrecognized artifact (bad magic or unknown version)".into())
    })?;
    if from == to {
        return Err(ServeError::Corrupt(format!(
            "artifact is already {to}; nothing to migrate"
        )));
    }
    let migrated = Artifact::encode(&Artifact::decode(bytes)?, to);
    let summary = format!(
        "migrated {from} ({} bytes, hash {}) -> {to} ({} bytes, hash {})\n",
        bytes.len(),
        cellserve::hash_hex(cellserve::content_hash(bytes)),
        migrated.len(),
        cellserve::hash_hex(cellserve::content_hash(&migrated)),
    );
    Ok((migrated, summary))
}

/// `delta build`: classify the given datasets at `epoch` and seal the
/// changes against `base_bytes` as a CELLDELT delta chained on the
/// base's content hash. Returns the delta bytes (the caller writes them
/// atomically) plus a one-line summary.
pub fn delta_build(
    base_bytes: &[u8],
    beacons: &BeaconDataset,
    demand: &DemandDataset,
    threshold: Option<f64>,
    base_epoch: u64,
    epoch: u64,
    obs: &cellobs::Observer,
) -> Result<(Vec<u8>, String), DeltaError> {
    let t = threshold.unwrap_or(DEFAULT_THRESHOLD);
    let index = BlockIndex::build(beacons, demand);
    let counters = EpochCounters::from_index(epoch, &index);
    let target = Artifact::encode(&celldelta::classify_epoch(&counters, t), ArtifactFormat::V2);
    let bytes = celldelta::build_delta(base_bytes, &target, base_epoch, epoch)?;
    let delta = Delta::from_bytes(&bytes)?;
    obs.counter("delta.ops").add(delta.op_count() as u64);
    obs.gauge("delta.bytes").set(bytes.len() as u64);
    let summary = format!(
        "delta {} op(s), {} bytes ({:.1}% of the {}-byte full artifact), \
         epoch {} -> {}, base {} -> target {}\n",
        delta.op_count(),
        bytes.len(),
        100.0 * bytes.len() as f64 / target.len() as f64,
        target.len(),
        base_epoch,
        epoch,
        cellserve::hash_hex(delta.base_hash),
        cellserve::hash_hex(delta.target_hash),
    );
    Ok((bytes, summary))
}

/// `delta apply`: patch a base artifact with a sealed delta, verifying
/// the base-hash chain before patching and the promised target hash
/// after. Returns the patched artifact bytes plus a one-line summary.
pub fn delta_apply(base_bytes: &[u8], delta_bytes: &[u8]) -> Result<(Vec<u8>, String), DeltaError> {
    let patched = celldelta::apply_delta(base_bytes, delta_bytes)?;
    let summary = format!(
        "patched artifact {} bytes, content hash {}\n",
        patched.len(),
        cellserve::hash_hex(cellserve::content_hash(&patched)),
    );
    Ok((patched, summary))
}

/// Queries `lookup` answers per engine run (64 B of answer each). A
/// multiple of [`QUERY_CHUNK`], so the engine's chunk boundaries — and
/// with them every cache reset and counter — fall where one run over
/// the whole list would put them.
const LOOKUP_WINDOW: usize = 64 * QUERY_CHUNK;

/// `lookup`: answer a batch of IPs against a loaded artifact — in
/// practice a [`cellserve::ArtifactHandle`] straight off an mmap.
///
/// Streams the result CSV (`ip,prefix,asn,class`, with `-` columns for
/// misses, one row per query in input order) straight to `out`: the
/// engine runs over `LOOKUP_WINDOW` queries at a time and each
/// window's rows are written before the next window is answered, so
/// neither the answers nor the output are ever held whole — output size
/// is bounded by the writer, not by memory. Returns the stderr summary
/// line with the match rate and cache counters; an empty batch says so
/// instead of reporting a fake 0% match rate.
pub fn lookup_batch<V: IndexView + ?Sized>(
    index: &V,
    queries: &[IpKey],
    obs: &cellobs::Observer,
    out: &mut dyn std::io::Write,
) -> std::io::Result<String> {
    let engine = QueryEngine::new(index).with_observer(obs.clone());
    let mut stats = BatchStats::default();
    out.write_all(b"ip,prefix,asn,class\n")?;
    // An empty list is still one (empty) run: the metrics export names
    // the `serve.*` counters whether or not anything was asked.
    let windows = queries.chunks(LOOKUP_WINDOW);
    for window in windows.chain(queries.is_empty().then_some(queries)) {
        let (results, window_stats) = engine.run(window);
        stats += window_stats;
        for (ip, res) in window.iter().zip(&results) {
            match res {
                Some(m) => writeln!(
                    out,
                    "{ip},{},{},{}",
                    m.prefix,
                    m.label.asn.value(),
                    m.label.class
                )?,
                None => writeln!(out, "{ip},-,-,-")?,
            }
        }
    }
    out.flush()?;
    if stats.lookups == 0 {
        return Ok("0 lookups\n".to_string());
    }
    let pct = 100.0 * stats.matched as f64 / stats.lookups as f64;
    Ok(format!(
        "{} lookups: {} matched ({pct:.1}%), cache {} hit(s) / {} miss(es) / {} uncached\n",
        stats.lookups, stats.matched, stats.cache_hits, stats.cache_misses, stats.uncached,
    ))
}

/// `stream`: summarize a finalized streaming ingest run — dataset sizes,
/// classification counts over the streamed snapshot, and the sketch
/// estimates with their error bounds.
pub fn stream_summary(
    outputs: &cellstream::StreamOutputs,
    threshold: Option<f64>,
) -> Result<String, CellspotError> {
    let t = threshold.unwrap_or(DEFAULT_THRESHOLD);
    let (_, class) = Pipeline::new(&outputs.beacons, &outputs.demand)
        .threshold(t)
        .classify()?;
    let (v4, v6) = class.block_counts();
    let s = &outputs.sketches;
    let mut out = String::new();
    out.push_str(&format!(
        "beacons: {} blocks / {} hits; demand: {} blocks / {:.0} du\n",
        outputs.beacons.len(),
        outputs.beacons.hits_total(),
        outputs.demand.len(),
        outputs.demand.total_du()
    ));
    out.push_str(&format!(
        "cellular blocks at threshold {t:.2}: {} ({v4} /24, {v6} /48)\n",
        class.len()
    ));
    if let Some(busiest) = s
        .resolver_clients
        .iter()
        .max_by(|a, b| a.estimated_clients.total_cmp(&b.estimated_clients))
    {
        out.push_str(&format!(
            "resolvers sketched: {} (busiest ~{:.0} distinct client blocks, std error {:.1}%)\n",
            s.resolver_clients.len(),
            busiest.estimated_clients,
            100.0 * busiest.std_error,
        ));
    }
    out.push_str(&format!(
        "top demand blocks (over-count <= {:.3} of {:.1} raw demand):\n",
        s.heavy_error_bound, s.total_demand_weight
    ));
    for h in s.heavy_hitters.iter().take(5) {
        out.push_str(&format!(
            "  {} est {:.3} (err <= {:.3})\n",
            block_to_string(h.block),
            h.weight,
            h.error
        ));
    }
    Ok(out)
}

/// `validate`: score against ground truth at the default threshold and
/// report the F1 sweep.
pub fn validate(
    beacons: &BeaconDataset,
    demand: &DemandDataset,
    gt: &CarrierGroundTruth,
    sweep_steps: usize,
) -> String {
    let index = BlockIndex::build(beacons, demand);
    let class = Classification::with_default_threshold(&index);
    let v = validate_carrier(gt, &class, &index);
    let mut out = String::new();
    out.push_str(&format!(
        "{} at threshold {:.2}:\n",
        gt.name, DEFAULT_THRESHOLD
    ));
    for (basis, c) in [("cidr", &v.by_cidr), ("demand", &v.by_demand)] {
        out.push_str(&format!(
            "  {basis:<7} tp {:.1} fp {:.1} tn {:.1} fn {:.1}  precision {:.3} recall {:.3} f1 {:.3}\n",
            c.tp, c.fp, c.tn, c.fn_, c.precision(), c.recall(), c.f1()
        ));
    }
    if sweep_steps > 0 {
        let curve = threshold_sweep(gt, &index, sweep_steps);
        out.push_str("threshold,f1_cidr,f1_demand\n");
        for p in &curve.points {
            out.push_str(&format!(
                "{:.3},{:.4},{:.4}\n",
                p.threshold, p.f1_cidr, p.f1_demand
            ));
        }
        if let Some((lo, hi)) = curve.stable_range(0.05) {
            out.push_str(&format!("stable range: [{lo:.2}, {hi:.2}]\n"));
        }
    }
    out
}

/// `stats`: the geographic rollup (Tables 4 and 8 in one report).
pub fn stats(beacons: &BeaconDataset, demand: &DemandDataset, as_db: &AsDatabase) -> String {
    let index = BlockIndex::build(beacons, demand);
    let class = Classification::with_default_threshold(&index);
    let view = WorldView::build(&index, &class, as_db);
    let mut out = String::new();
    out.push_str("continent,cell24,cell48,pct_active_v4,pct_active_v6,cell_fraction_pct,global_cell_share_pct\n");
    for c in CONTINENTS {
        let s = &view.subnets[c.index()];
        let d = &view.demand[c.index()];
        out.push_str(&format!(
            "{},{},{},{:.2},{:.2},{:.2},{:.2}\n",
            c.code(),
            s.cell24,
            s.cell48,
            s.pct_active_v4(),
            s.pct_active_v6(),
            d.cellular_fraction_pct(),
            view.continent_cell_share_pct(c)
        ));
    }
    out.push_str(&format!(
        "global cellular: {:.2}% of demand\n",
        view.global_cellular_pct()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdnsim::generate_datasets;
    use worldgen::{World, WorldConfig};

    fn setup() -> (World, BeaconDataset, DemandDataset) {
        let world = World::generate(WorldConfig::mini());
        let (b, d) = generate_datasets(&world);
        (world, b, d)
    }

    #[test]
    fn classify_emits_csv_rows() {
        let (_, b, d) = setup();
        let obs = cellobs::Observer::disabled();
        let (csv, n) = classify(&b, &d, None, &obs).expect("consistent datasets classify");
        assert!(n > 100);
        assert_eq!(csv.lines().count(), n + 1);
        assert!(csv.starts_with("block,asn,"));
        // Higher threshold → fewer rows.
        let (_, n95) = classify(&b, &d, Some(0.95), &obs).expect("consistent datasets classify");
        assert!(n95 < n);
        // An enabled observer sees the two front stages.
        let obs = cellobs::Observer::enabled();
        classify(&b, &d, None, &obs).expect("classifies");
        let snap = obs.snapshot();
        assert!(snap.counters.contains_key("pipeline.join.items"));
        assert!(snap.counters.contains_key("pipeline.classify.items"));
    }

    #[test]
    fn identify_as_reports_funnel() {
        let (world, b, d) = setup();
        let min_hits = world.config.scaled_min_beacon_hits();
        let (csv, report) = identify_as(&b, &d, &world.as_db, 0.1, min_hits);
        assert!(csv.lines().count() > 500, "most of the 669 ASes detected");
        assert!(report.contains("candidates"));
        assert!(report.contains("% mixed"));
    }

    #[test]
    fn stream_summary_reports_counts_and_sketches() {
        let (world, b, d) = setup();
        let dns = dnssim::generate_dns(&world);
        let source = cdnsim::EventSource::new(&world, cdnsim::CdnConfig::default(), 3);
        let mut engine = cellstream::IngestEngine::for_source(
            cellstream::StreamConfig::default(),
            &source,
            cellstream::ResolverMap::from_dns(&dns),
        );
        engine.run_to_end(&source);
        let outputs = engine.finalize();
        // The streamed datasets equal the batch ones, so the summary's
        // classification count matches a direct batch classification.
        let (_, batch_class) = Pipeline::new(&b, &d).classify().expect("default threshold");
        let out = stream_summary(&outputs, None).expect("valid threshold");
        assert!(out.contains("beacons:"));
        assert!(out.contains(&format!(
            "cellular blocks at threshold 0.50: {}",
            batch_class.len()
        )));
        assert!(out.contains("resolvers sketched:"));
        assert!(out.contains("top demand blocks"));
    }

    #[test]
    fn validate_scores_carrier() {
        let (world, b, d) = setup();
        let out = validate(&b, &d, &world.carriers[1], 10);
        assert!(out.contains("Carrier B"));
        assert!(out.contains("precision"));
        assert!(out.contains("stable range"));
    }

    #[test]
    fn index_build_freezes_the_classification() {
        let (_, b, d) = setup();
        let obs = cellobs::Observer::disabled();
        let (bytes, summary) = index_build(&b, &d, None, &obs).expect("consistent datasets");
        assert!(summary.contains("IPv4"), "{summary}");
        assert!(summary.contains("format v2"), "{summary}");
        let frozen = Artifact::from_bytes(&bytes).expect("sealed artifact loads");
        let (_, class) = Pipeline::new(&b, &d).classify().expect("default threshold");
        assert_eq!(frozen.len(), class.len());
        // Every classified block answers a lookup with its own AS, and
        // carries a definite mixed/dedicated verdict (no Unknowns: every
        // AS with a cellular block is analyzed at build time).
        for (block, asn) in class.iter() {
            let got = match block {
                netaddr::BlockId::V4(blk) => frozen.lookup_v4(blk.addr(9)).map(|(_, l)| l),
                netaddr::BlockId::V6(blk) => frozen.lookup_v6(blk.addr(3, 9)).map(|(_, l)| l),
            };
            let label = got.expect("classified block is served");
            assert_eq!(label.asn, asn);
            assert_ne!(label.class, cellserve::AsClass::Unknown);
        }
    }

    #[test]
    fn index_build_reports_hash_and_counts() {
        let (_, b, d) = setup();
        let obs = cellobs::Observer::enabled();
        let (bytes, summary) = index_build(&b, &d, None, &obs).expect("consistent datasets");
        let hash = cellserve::content_hash(&bytes);
        assert!(summary.contains(&cellserve::hash_hex(hash)), "{summary}");
        assert!(summary.contains("ASes"), "{summary}");
        let snap = obs.snapshot();
        assert_eq!(snap.gauges["index.artifact.hash"], hash);
        assert!(snap.counters["index.blocks"] > 0);
        assert!(snap.counters["index.ases"] > 0);
    }

    #[test]
    fn delta_build_then_apply_matches_a_full_index_build() {
        let (_, b, d) = setup();
        let obs = cellobs::Observer::enabled();
        let (base, _) = index_build(&b, &d, None, &obs).expect("base build");
        // A different threshold guarantees label churn between "epochs".
        let (delta, summary) =
            delta_build(&base, &b, &d, Some(0.95), 0, 1, &obs).expect("delta build");
        assert!(summary.contains("op(s)"), "{summary}");
        assert!(summary.contains("epoch 0 -> 1"), "{summary}");

        let (patched, apply_summary) = delta_apply(&base, &delta).expect("delta apply");
        let (full, _) = index_build(&b, &d, Some(0.95), &obs).expect("full build");
        assert_eq!(patched, full, "apply(base, delta) == full rebuild");
        assert!(
            apply_summary.contains(&cellserve::hash_hex(cellserve::content_hash(&full))),
            "{apply_summary}"
        );
        assert!(obs.snapshot().counters["delta.ops"] > 0);

        // A flipped delta byte never applies; the base is untouched.
        let mut bad = delta.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x04;
        assert!(delta_apply(&base, &bad).is_err());
        // Wrong base: the patched artifact is not the delta's base.
        assert!(matches!(
            delta_apply(&patched, &delta),
            Err(DeltaError::BaseMismatch { .. })
        ));
    }

    #[test]
    fn index_migrate_is_deterministic_and_roundtrips() {
        let (_, b, d) = setup();
        let obs = cellobs::Observer::disabled();
        let (v2_direct, _) = index_build(&b, &d, None, &obs).expect("v2 build");
        // `index build` seals v2 only; a v1 file comes from migrating down.
        let (v1, summary) = index_migrate(&v2_direct, ArtifactFormat::V1).expect("v2 -> v1");
        assert!(summary.contains("migrated v2"), "{summary}");
        assert_eq!(Artifact::sniff_format(&v1), Some(ArtifactFormat::V1));
        assert!(
            Artifact::from_bytes(&v1).is_err(),
            "the v1 file is readable by migrate only"
        );

        let (v2, summary) = index_migrate(&v1, ArtifactFormat::V2).expect("v1 -> v2");
        assert!(summary.contains("migrated v1"), "{summary}");
        assert_eq!(v2, v2_direct, "migration equals building v2 directly");
        let (v2_again, _) = index_migrate(&v1, ArtifactFormat::V2).expect("repeat migrate");
        assert_eq!(v2, v2_again, "byte-deterministic");

        let (back, _) = index_migrate(&v2, ArtifactFormat::V1).expect("v2 -> v1");
        assert_eq!(back, v1, "round trip reproduces the v1 bytes");

        // Same-format migration is refused, as is garbage input.
        assert!(index_migrate(&v2, ArtifactFormat::V2).is_err());
        assert!(index_migrate(b"CELLJUNK", ArtifactFormat::V2).is_err());
    }

    #[test]
    fn lookup_batch_reports_rows_and_match_rate() {
        let (_, b, d) = setup();
        let obs = cellobs::Observer::disabled();
        let (bytes, _) = index_build(&b, &d, None, &obs).expect("consistent datasets");
        // The batch runs over the zero-copy handle, not a decoded copy.
        let frozen = Artifact::from_bytes(&bytes).expect("artifact loads");
        let (_, class) = Pipeline::new(&b, &d).classify().expect("default threshold");
        let probe = class
            .iter()
            .find_map(|(block, _)| match block {
                netaddr::BlockId::V4(blk) => Some(blk.addr(1)),
                netaddr::BlockId::V6(_) => None,
            })
            .expect("mini world has v4 cellular blocks");
        let (net, label) = frozen.lookup_v4(probe).expect("classified block hits");
        let queries = [
            cellserve::IpKey::V4(net.first()),
            cellserve::IpKey::V4(net.first()), // repeat → a cache hit
            cellserve::IpKey::parse("192.0.2.1").expect("valid"),
        ];
        let mut sink = Vec::new();
        let summary = lookup_batch(&frozen, &queries, &obs, &mut sink).expect("vec write");
        let csv = String::from_utf8(sink).expect("utf-8 csv");
        assert_eq!(csv.lines().count(), 4, "header + one row per query");
        assert!(csv.starts_with("ip,prefix,asn,class\n"));
        assert!(
            csv.contains(&format!("{net},{}", label.asn.value())),
            "{csv}"
        );
        assert!(csv.contains("192.0.2.1,-,-,-"), "miss renders dashes");
        assert!(summary.contains("3 lookups: 2 matched"), "{summary}");
        assert!(summary.contains("uncached"), "{summary}");
    }

    #[test]
    fn lookup_batch_with_no_queries_says_so() {
        let (_, b, d) = setup();
        let obs = cellobs::Observer::enabled();
        let (bytes, _) = index_build(&b, &d, None, &obs).expect("consistent datasets");
        let frozen = Artifact::from_bytes(&bytes).expect("artifact loads");
        let mut sink = Vec::new();
        let summary = lookup_batch(&frozen, &[], &obs, &mut sink).expect("vec write");
        assert_eq!(summary, "0 lookups\n", "no fabricated match rate");
        assert_eq!(
            String::from_utf8(sink).expect("utf-8"),
            "ip,prefix,asn,class\n"
        );
        assert_eq!(obs.snapshot().counters.get("serve.lookups"), Some(&0));
    }

    #[test]
    fn stats_rolls_up_continents() {
        let (world, b, d) = setup();
        let out = stats(&b, &d, &world.as_db);
        assert!(out.contains("global cellular:"));
        for code in ["AF", "AS", "EU", "NA", "OC", "SA"] {
            assert!(
                out.contains(&format!("\n{code},")) || out.starts_with(&format!("{code},")),
                "missing {code} row"
            );
        }
    }
}
