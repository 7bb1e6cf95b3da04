//! `cellspot` — command-line interface to the Cell Spotting methodology.
//!
//! Run `cellspot --help` for usage. All heavy lifting lives in the
//! library (`cli::commands`); this file only parses arguments and does
//! file I/O. Failures exit with documented codes (see `cli::error`):
//! 2 usage, 3 I/O, 4 bad data, 5 pipeline, 6 streaming.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::exit;
use std::str::FromStr;
use std::sync::Arc;

use cellobs::{ExportFormat, Observer};
use cli::{commands, io, CliError};

/// Minimal signal handling without a dependency: `signal(2)` handlers
/// that set a flag, installed for SIGINT and SIGTERM so `serve` drains
/// gracefully under process supervisors as well as on stdin EOF.
#[cfg(unix)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    static REQUESTED: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        // Only async-signal-safe work here: a single atomic store.
        REQUESTED.store(true, Ordering::SeqCst);
    }

    /// Install the handlers; call once, before serving.
    pub fn install() {
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }

    /// Whether SIGINT or SIGTERM has been received.
    pub fn requested() -> bool {
        REQUESTED.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod sig {
    pub fn install() {}

    pub fn requested() -> bool {
        false
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        usage("missing command");
    };
    let rest = &args[1..];
    if let Err(e) = check_flags(cmd, rest) {
        usage(&e);
    }
    let result = match cmd.as_str() {
        "synth" => synth(rest),
        "stream" => stream(rest),
        "classify" => classify(rest),
        "identify-as" => identify_as(rest),
        "validate" => validate(rest),
        "stats" => stats(rest),
        "index" => index(rest),
        "delta" => delta(rest),
        "lookup" => lookup(rest),
        "serve" => serve(rest),
        "replay" => replay(rest),
        "--help" | "-h" | "help" => {
            usage("");
        }
        other => usage(&format!("unknown command {other:?}")),
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        exit(e.exit_code());
    }
}

type CmdResult = Result<(), CliError>;

/// What each subcommand accepts besides `--threads N`, which all of
/// them take: (command, flags that take a value, bare switches), each
/// list space-separated. `flag_value` only looks for names it knows, so
/// this table is what turns a misspelt or retired flag into a usage
/// error instead of a run on defaults.
const ACCEPTED_FLAGS: &[(&str, &str, &str)] = &[
    ("synth", "--scale --seed --out", ""),
    (
        "stream",
        "--scale --seed --epochs --shards --checkpoint --retain --stop-after-epoch \
         --fault-plan --threshold --out --emit-deltas --metrics --metrics-format",
        "--resume",
    ),
    (
        "classify",
        "--beacons --demand --threshold --out --metrics --metrics-format",
        "",
    ),
    (
        "identify-as",
        "--beacons --demand --asdb --min-du --min-hits --out",
        "",
    ),
    ("validate", "--beacons --demand --ground-truth", "--sweep"),
    ("stats", "--beacons --demand --asdb", ""),
    (
        "index build",
        "--beacons --demand --threshold --out --metrics --metrics-format",
        "",
    ),
    ("index migrate", "--in --to --out", ""),
    (
        "delta build",
        "--base --beacons --demand --threshold --base-epoch --epoch --out \
         --metrics --metrics-format",
        "",
    ),
    ("delta apply", "--base --delta --out", ""),
    (
        "lookup",
        "--index --ips --out --metrics --metrics-format",
        "",
    ),
    (
        "serve",
        "--index --listen --tcp --reload-poll-ms --delta-watch --shutdown-after-ms \
         --max-conns --io-timeout-ms --max-requests-per-conn --drain-timeout-ms \
         --metrics --metrics-format",
        "--reload-watch",
    ),
    (
        "replay",
        "--preset --seed --queries --epochs --scale --threshold --mode --clients --frame \
         --trace-out --trace-in --out --metrics --metrics-format",
        "",
    ),
];

/// Reject any argument the subcommand does not accept (see
/// [`ACCEPTED_FLAGS`]). An unknown command or `index`/`delta`
/// subcommand passes through: dispatch names it.
fn check_flags(cmd: &str, args: &[String]) -> Result<(), String> {
    let (name, flags) = match (cmd, args.split_first()) {
        ("index" | "delta", Some((sub, flags))) => (format!("{cmd} {sub}"), flags),
        _ => (cmd.to_string(), args),
    };
    let Some((_, values, switches)) = ACCEPTED_FLAGS.iter().find(|(n, ..)| *n == name) else {
        return Ok(());
    };
    let listed = |list: &str, flag: &str| list.split_whitespace().any(|f| f == flag);
    let mut it = flags.iter().map(String::as_str);
    while let Some(flag) = it.next() {
        if flag == "--threads" || listed(values, flag) {
            it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        } else if !listed(switches, flag) {
            return Err(format!("unknown flag {flag:?} for `cellspot {name}`"));
        }
    }
    Ok(())
}

/// Pull the value following a `--flag`, if present.
fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn required(args: &[String], flag: &str) -> Result<String, CliError> {
    flag_value(args, flag).ok_or_else(|| CliError::Usage(format!("missing required {flag} FILE")))
}

fn read(path: &str) -> Result<String, CliError> {
    fs::read_to_string(path).map_err(|e| CliError::Io(format!("{path}: {e}")))
}

fn write(path: &PathBuf, content: &str) -> Result<(), CliError> {
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)
            .map_err(|e| CliError::Io(format!("{}: {e}", parent.display())))?;
    }
    fs::write(path, content).map_err(|e| CliError::Io(format!("{}: {e}", path.display())))
}

fn load_datasets(
    args: &[String],
) -> Result<(cdnsim::BeaconDataset, cdnsim::DemandDataset), CliError> {
    let beacons = io::parse_beacons(&read(&required(args, "--beacons")?)?)
        .map_err(|e| CliError::Data(format!("beacons: {e}")))?;
    let demand = io::parse_demand(&read(&required(args, "--demand")?)?)
        .map_err(|e| CliError::Data(format!("demand: {e}")))?;
    Ok((beacons, demand))
}

/// Parse the shared `--threshold` knob (cellular-ratio cutoff in 0..1).
fn parse_threshold(args: &[String]) -> Result<Option<f64>, CliError> {
    match flag_value(args, "--threshold") {
        Some(t) => Ok(Some(
            t.parse::<f64>()
                .ok()
                .filter(|t| (0.0..=1.0).contains(t))
                .ok_or_else(|| CliError::Usage("bad --threshold (expected 0..1)".into()))?,
        )),
        None => Ok(None),
    }
}

/// Apply the shared `--threads` knob: flag beats `CELLSPOT_THREADS`
/// beats rayon's auto width. Every subcommand accepts it; results never
/// depend on the resolved width.
fn setup_threads(args: &[String]) -> Result<(), CliError> {
    let flag = match flag_value(args, "--threads") {
        Some(v) => Some(v.parse::<usize>().ok().filter(|&n| n > 0).ok_or_else(|| {
            CliError::Usage("bad --threads (expected a positive integer)".into())
        })?),
        None => None,
    };
    let choice = cellspot::resolve_threads(flag);
    if let Some(n) = cellspot::configure_threads(choice) {
        eprintln!("thread pool pinned to {n} (from {})", choice.source());
    }
    Ok(())
}

/// Parse the shared `--metrics FILE [--metrics-format json|prometheus]`
/// knobs. `--metrics-format` without `--metrics` is a usage error.
fn parse_metrics(args: &[String]) -> Result<Option<(PathBuf, ExportFormat)>, CliError> {
    let path = flag_value(args, "--metrics");
    let format = flag_value(args, "--metrics-format");
    match (path, format) {
        (Some(p), f) => {
            let fmt = match f {
                Some(f) => ExportFormat::from_str(&f).map_err(CliError::Usage)?,
                None => ExportFormat::Json,
            };
            Ok(Some((PathBuf::from(p), fmt)))
        }
        (None, Some(_)) => Err(CliError::Usage(
            "--metrics-format needs --metrics FILE".into(),
        )),
        (None, None) => Ok(None),
    }
}

/// An observer wired to the `--metrics` knobs: enabled only when an
/// export was requested (a disabled observer is near-zero cost).
fn observer_for(metrics: &Option<(PathBuf, ExportFormat)>) -> Observer {
    if metrics.is_some() {
        Observer::enabled()
    } else {
        Observer::disabled()
    }
}

/// Render and write the metrics export, if one was requested.
fn write_metrics(metrics: &Option<(PathBuf, ExportFormat)>, obs: &Observer) -> CmdResult {
    if let Some((path, format)) = metrics {
        write(path, &format.render(&obs.snapshot()))?;
        eprintln!("metrics ({format}) → {}", path.display());
    }
    Ok(())
}

fn world_config(args: &[String]) -> Result<(String, worldgen::WorldConfig), CliError> {
    let scale = flag_value(args, "--scale").unwrap_or_else(|| "demo".into());
    let mut config = match scale.as_str() {
        "mini" => worldgen::WorldConfig::mini(),
        "demo" => worldgen::WorldConfig::demo(),
        "paper" => worldgen::WorldConfig::paper(),
        other => {
            return Err(CliError::Usage(format!(
                "unknown scale {other:?} (mini|demo|paper)"
            )))
        }
    };
    if let Some(seed) = flag_value(args, "--seed") {
        config.seed = seed
            .parse()
            .map_err(|_| CliError::Usage("bad --seed value".into()))?;
    }
    Ok((scale, config))
}

/// `synth`: generate a world and write its observable datasets as CSVs.
fn synth(args: &[String]) -> CmdResult {
    setup_threads(args)?;
    let (scale, config) = world_config(args)?;
    let out = PathBuf::from(flag_value(args, "--out").unwrap_or_else(|| "data".into()));
    let min_hits = config.scaled_min_beacon_hits();
    eprintln!("generating {scale} world (seed {:#x}) …", config.seed);
    let world = worldgen::World::generate(config);
    let (beacons, demand) = cdnsim::generate_datasets(&world);
    write(&out.join("beacons.csv"), &io::beacons_to_csv(&beacons))?;
    write(&out.join("demand.csv"), &io::demand_to_csv(&demand))?;
    write(&out.join("asdb.csv"), &io::asdb_to_csv(&world.as_db))?;
    for gt in &world.carriers {
        let mut csv = String::from(io::GROUNDTRUTH_HEADER);
        csv.push('\n');
        for e in &gt.entries {
            match e {
                asdb::GroundTruthEntry::V4(net, a) => {
                    csv.push_str(&format!("{net},{a}\n"));
                }
                asdb::GroundTruthEntry::V6(net, a) => {
                    csv.push_str(&format!("{net},{a}\n"));
                }
            }
        }
        let name = gt.name.to_lowercase().replace(' ', "_");
        write(&out.join(format!("{name}_groundtruth.csv")), &csv)?;
    }
    eprintln!(
        "wrote beacons.csv ({} blocks), demand.csv ({} blocks), asdb.csv ({} ASes), \
         3 ground-truth files to {} (rule-2 hit threshold for this scale: {min_hits})",
        beacons.len(),
        demand.len(),
        world.as_db.len(),
        out.display()
    );
    Ok(())
}

/// `stream`: run the streaming ingest engine over the built-in world's
/// event stream, with optional per-epoch checkpointing and resume.
fn stream(args: &[String]) -> CmdResult {
    setup_threads(args)?;
    let (scale, config) = world_config(args)?;
    let epochs: u32 = flag_value(args, "--epochs")
        .map(|v| v.parse())
        .transpose()
        .map_err(|_| CliError::Usage("bad --epochs".into()))?
        .unwrap_or(8);
    let shards: u32 = flag_value(args, "--shards")
        .map(|v| v.parse())
        .transpose()
        .map_err(|_| CliError::Usage("bad --shards".into()))?
        .unwrap_or(4);
    if epochs == 0 || shards == 0 {
        return Err(CliError::Usage(
            "--epochs and --shards must be at least 1".into(),
        ));
    }
    let stop_after: Option<u32> = flag_value(args, "--stop-after-epoch")
        .map(|v| v.parse())
        .transpose()
        .map_err(|_| CliError::Usage("bad --stop-after-epoch".into()))?;
    let threshold = parse_threshold(args)?;
    let retain: usize = flag_value(args, "--retain")
        .map(|v| v.parse())
        .transpose()
        .map_err(|_| CliError::Usage("bad --retain".into()))?
        .unwrap_or(cellstream::DEFAULT_RETAIN);
    if retain == 0 {
        return Err(CliError::Usage("--retain must be at least 1".into()));
    }
    let metrics = parse_metrics(args)?;
    let obs = observer_for(&metrics);
    let ckpt_store = flag_value(args, "--checkpoint").map(|d| {
        cellstream::CheckpointStore::new(PathBuf::from(d), retain).with_observer(obs.clone())
    });
    let fault_plan = flag_value(args, "--fault-plan");
    let resume = args.iter().any(|a| a == "--resume");
    let out_dir = flag_value(args, "--out").map(PathBuf::from);
    let emit_dir = flag_value(args, "--emit-deltas").map(PathBuf::from);
    if emit_dir.is_some() && fault_plan.is_some() {
        return Err(CliError::Usage(
            "--emit-deltas needs the plain epoch loop; drop --fault-plan".into(),
        ));
    }

    eprintln!("generating {scale} world (seed {:#x}) …", config.seed);
    let world = worldgen::World::generate_with(config, &obs);
    let dns = dnssim::generate_dns(&world);
    let resolvers = cellstream::ResolverMap::from_dns(&dns);
    let stream_cfg = cellstream::StreamConfig {
        shards,
        ..Default::default()
    };

    if let Some(plan_path) = fault_plan {
        // Chaos mode: run the whole stream under the fault plan's injected
        // failures, recovering through the checkpoint store.
        let store = ckpt_store
            .as_ref()
            .ok_or_else(|| CliError::Usage("--fault-plan needs --checkpoint DIR".into()))?;
        if stop_after.is_some() {
            return Err(CliError::Usage(
                "--fault-plan runs the full stream; drop --stop-after-epoch".into(),
            ));
        }
        let plan = cellstream::FaultPlan::read_from(Path::new(&plan_path))
            .map_err(|e| CliError::Data(format!("{plan_path}: {e}")))?;
        let injector = Arc::new(cellstream::FaultInjector::new(plan));
        let gate: Arc<dyn cdnsim::EpochGate> = injector.clone();
        let source =
            cdnsim::EventSource::new(&world, cdnsim::CdnConfig::default(), epochs).with_gate(gate);
        let mut span = obs.span("ingest");
        let (engine, report) = cellstream::run_chaos_observed(
            &source, stream_cfg, &resolvers, store, &injector, 32, &obs,
        )
        .map_err(cellstream::StreamError::from)?;
        span.set_items(engine.events_seen());
        drop(span);
        for line in &report.log {
            eprintln!("chaos: {line}");
        }
        eprintln!(
            "chaos run survived {} crash(es), {} shard recovery(ies) ({} epoch(s) replayed), \
             {} stall(s); {} checkpoint read(s) rejected",
            report.crashes,
            report.shard_recoveries,
            report.replayed_epochs,
            report.stalls,
            report.checkpoints_rejected
        );
        let outputs = engine.finalize();
        write_stream_outputs(&out_dir, &outputs)?;
        print!("{}", commands::stream_summary(&outputs, threshold)?);
        write_metrics(&metrics, &obs)?;
        return Ok(());
    }

    let source = cdnsim::EventSource::new(&world, cdnsim::CdnConfig::default(), epochs);

    let mut engine = if resume {
        let store = ckpt_store
            .as_ref()
            .ok_or_else(|| CliError::Usage("--resume needs --checkpoint DIR".into()))?;
        let rec = store
            .load_latest_good()
            .map_err(|e| CliError::Io(format!("{}: {e}", store.dir().display())))?;
        for (path, why) in &rec.skipped {
            eprintln!(
                "warning: skipping corrupt checkpoint {}: {why}",
                path.display()
            );
        }
        let (snap, path) = rec.snapshot.ok_or_else(|| {
            CliError::Data(format!("no usable checkpoint in {}", store.dir().display()))
        })?;
        if snap.epochs_total != epochs || snap.config.shards != shards {
            return Err(CliError::Usage(format!(
                "checkpoint layout mismatch: {} epochs / {} shards on disk vs \
                 {epochs} / {shards} requested",
                snap.epochs_total, snap.config.shards
            )));
        }
        eprintln!(
            "resuming at epoch {}/{} from {}",
            snap.epochs_done,
            snap.epochs_total,
            path.display()
        );
        cellstream::IngestEngine::try_restore(&snap, resolvers)
            .map_err(cellstream::StreamError::from)?
    } else {
        cellstream::IngestEngine::try_for_source(stream_cfg, &source, resolvers)
            .map_err(cellstream::StreamError::from)?
    }
    .with_observer(obs.clone());

    let wants_more = |done: u32| match stop_after {
        Some(k) => done < k,
        None => true,
    };
    let mut delta_emitter = match emit_dir {
        Some(dir) => Some(DeltaEmitter::new(dir, threshold, &obs)?),
        None => None,
    };
    let mut span = obs.span("ingest");
    while !engine.finished() && wants_more(engine.epochs_done()) {
        let e = engine
            .try_ingest_epoch(&source, None)
            .map_err(cellstream::StreamError::from)?;
        eprintln!(
            "epoch {}/{epochs}: {} events folded, ~{} KiB live state",
            e + 1,
            engine.events_seen(),
            engine.state_bytes() / 1024
        );
        if let Some(store) = &ckpt_store {
            store
                .save(&engine.snapshot())
                .map_err(|e| CliError::Io(format!("{}: {e}", store.dir().display())))?;
        }
        if let Some(em) = &mut delta_emitter {
            em.emit_epoch(&engine)?;
        }
    }
    span.set_items(engine.events_seen());
    drop(span);
    if let Some(em) = &delta_emitter {
        em.finish();
    }
    if !engine.finished() {
        eprintln!(
            "stopped after epoch {} of {epochs}; continue with --resume --checkpoint DIR",
            engine.epochs_done()
        );
        write_metrics(&metrics, &obs)?;
        return Ok(());
    }
    let outputs = engine.finalize();
    write_stream_outputs(&out_dir, &outputs)?;
    print!("{}", commands::stream_summary(&outputs, threshold)?);
    write_metrics(&metrics, &obs)?;
    Ok(())
}

/// Write the streamed datasets as CSVs when `--out` was given.
fn write_stream_outputs(
    out_dir: &Option<PathBuf>,
    outputs: &cellstream::StreamOutputs,
) -> CmdResult {
    if let Some(dir) = out_dir {
        write(
            &dir.join("beacons.csv"),
            &io::beacons_to_csv(&outputs.beacons),
        )?;
        write(&dir.join("demand.csv"), &io::demand_to_csv(&outputs.demand))?;
        eprintln!(
            "wrote streamed beacons.csv and demand.csv to {}",
            dir.display()
        );
    }
    Ok(())
}

/// `classify`: beacons + demand → cellular block CSV.
fn classify(args: &[String]) -> CmdResult {
    setup_threads(args)?;
    let (beacons, demand) = load_datasets(args)?;
    let threshold = parse_threshold(args)?;
    let metrics = parse_metrics(args)?;
    let obs = observer_for(&metrics);
    let (csv, n) = commands::classify(&beacons, &demand, threshold, &obs)?;
    match flag_value(args, "--out") {
        Some(path) => {
            write(&PathBuf::from(&path), &csv)?;
            eprintln!("{n} cellular blocks → {path}");
        }
        None => print!("{csv}"),
    }
    write_metrics(&metrics, &obs)?;
    Ok(())
}

/// `identify-as`: the §5 AS pipeline.
fn identify_as(args: &[String]) -> CmdResult {
    setup_threads(args)?;
    let (beacons, demand) = load_datasets(args)?;
    let as_db = io::parse_asdb(&read(&required(args, "--asdb")?)?)
        .map_err(|e| CliError::Data(format!("asdb: {e}")))?;
    let min_du: f64 = flag_value(args, "--min-du")
        .map(|v| v.parse())
        .transpose()
        .map_err(|_| CliError::Usage("bad --min-du".into()))?
        .unwrap_or(0.1);
    let min_hits: f64 = flag_value(args, "--min-hits")
        .map(|v| v.parse())
        .transpose()
        .map_err(|_| CliError::Usage("bad --min-hits".into()))?
        .unwrap_or(300.0);
    let (csv, report) = commands::identify_as(&beacons, &demand, &as_db, min_du, min_hits);
    eprint!("{report}");
    match flag_value(args, "--out") {
        Some(path) => write(&PathBuf::from(path), &csv)?,
        None => print!("{csv}"),
    }
    Ok(())
}

/// `validate`: score against a ground-truth CSV.
fn validate(args: &[String]) -> CmdResult {
    setup_threads(args)?;
    let (beacons, demand) = load_datasets(args)?;
    let gt_path = required(args, "--ground-truth")?;
    let gt = io::parse_ground_truth("ground truth", &read(&gt_path)?)
        .map_err(|e| CliError::Data(format!("ground truth: {e}")))?;
    let sweep = if args.iter().any(|a| a == "--sweep") {
        50
    } else {
        0
    };
    print!("{}", commands::validate(&beacons, &demand, &gt, sweep));
    Ok(())
}

/// `stats`: the geographic rollup.
fn stats(args: &[String]) -> CmdResult {
    setup_threads(args)?;
    let (beacons, demand) = load_datasets(args)?;
    let as_db = io::parse_asdb(&read(&required(args, "--asdb")?)?)
        .map_err(|e| CliError::Data(format!("asdb: {e}")))?;
    print!("{}", commands::stats(&beacons, &demand, &as_db));
    Ok(())
}

/// `index build` / `index migrate`: freeze the classification into a
/// sealed serving artifact file, or convert an already-sealed artifact
/// between formats without reclassifying.
fn index(args: &[String]) -> CmdResult {
    match args.first().map(String::as_str) {
        Some("build") => index_build(&args[1..]),
        Some("migrate") => index_migrate(&args[1..]),
        Some(other) => Err(CliError::Usage(format!(
            "unknown index subcommand {other:?} (expected build or migrate)"
        ))),
        None => Err(CliError::Usage(
            "missing index subcommand (expected build or migrate)".into(),
        )),
    }
}

fn index_build(args: &[String]) -> CmdResult {
    setup_threads(args)?;
    let (beacons, demand) = load_datasets(args)?;
    let threshold = parse_threshold(args)?;
    let out = PathBuf::from(required(args, "--out")?);
    let metrics = parse_metrics(args)?;
    let obs = observer_for(&metrics);
    let (bytes, summary) = commands::index_build(&beacons, &demand, threshold, &obs)?;
    // Same crash-safe sequence the checkpoint store uses: temp file →
    // fsync → rename → parent-dir fsync. A serving artifact must never
    // be observable half-written.
    cellstream::write_atomic_bytes(&out, &bytes)
        .map_err(|e| CliError::Io(format!("{}: {e}", out.display())))?;
    eprint!("{summary}");
    eprintln!("artifact → {}", out.display());
    write_metrics(&metrics, &obs)?;
    Ok(())
}

fn index_migrate(args: &[String]) -> CmdResult {
    let in_path = required(args, "--in")?;
    let bytes = fs::read(&in_path).map_err(|e| CliError::Io(format!("{in_path}: {e}")))?;
    let to = match flag_value(args, "--to") {
        Some(v) => cellserve::ArtifactFormat::parse(&v)
            .ok_or_else(|| CliError::Usage(format!("bad --to {v:?} (expected v1 or v2)")))?,
        None => cellserve::ArtifactFormat::V2,
    };
    let out = PathBuf::from(required(args, "--out")?);
    // A malformed or already-converted input is bad data (exit 4), the
    // same contract as `lookup` on a corrupt artifact.
    let (migrated, summary) = commands::index_migrate(&bytes, to)
        .map_err(|e| CliError::Data(format!("{in_path}: {e}")))?;
    cellstream::write_atomic_bytes(&out, &migrated)
        .map_err(|e| CliError::Io(format!("{}: {e}", out.display())))?;
    eprint!("{summary}");
    eprintln!("artifact → {}", out.display());
    Ok(())
}

/// `delta build` / `delta apply`: incremental refresh of a sealed
/// artifact. `build` classifies the given datasets as a new epoch and
/// seals only the labels that changed relative to a base artifact,
/// chained on the base's content hash; `apply` patches a base artifact
/// with such a delta, reproducing the full rebuild byte for byte.
fn delta(args: &[String]) -> CmdResult {
    match args.first().map(String::as_str) {
        Some("build") => delta_build(&args[1..]),
        Some("apply") => delta_apply(&args[1..]),
        Some(other) => Err(CliError::Usage(format!(
            "unknown delta subcommand {other:?} (expected build or apply)"
        ))),
        None => Err(CliError::Usage(
            "missing delta subcommand (expected build or apply)".into(),
        )),
    }
}

fn delta_build(args: &[String]) -> CmdResult {
    setup_threads(args)?;
    let base_path = required(args, "--base")?;
    let base = fs::read(&base_path).map_err(|e| CliError::Io(format!("{base_path}: {e}")))?;
    let (beacons, demand) = load_datasets(args)?;
    let threshold = parse_threshold(args)?;
    let parse_epoch = |flag: &str, default: u64| -> Result<u64, CliError> {
        flag_value(args, flag)
            .map(|v| v.parse())
            .transpose()
            .map_err(|_| CliError::Usage(format!("bad {flag} (expected an integer epoch)")))
            .map(|v| v.unwrap_or(default))
    };
    let base_epoch = parse_epoch("--base-epoch", 0)?;
    let epoch = parse_epoch("--epoch", base_epoch + 1)?;
    let out = PathBuf::from(required(args, "--out")?);
    let metrics = parse_metrics(args)?;
    let obs = observer_for(&metrics);
    // A malformed base or an epoch that does not advance is bad data
    // (exit 4), matching how `lookup` treats a corrupt artifact.
    let (bytes, summary) =
        commands::delta_build(&base, &beacons, &demand, threshold, base_epoch, epoch, &obs)
            .map_err(|e| CliError::Data(format!("{base_path}: {e}")))?;
    cellstream::write_atomic_bytes(&out, &bytes)
        .map_err(|e| CliError::Io(format!("{}: {e}", out.display())))?;
    eprint!("{summary}");
    eprintln!("delta → {}", out.display());
    write_metrics(&metrics, &obs)?;
    Ok(())
}

fn delta_apply(args: &[String]) -> CmdResult {
    setup_threads(args)?;
    let base_path = required(args, "--base")?;
    let base = fs::read(&base_path).map_err(|e| CliError::Io(format!("{base_path}: {e}")))?;
    let delta_path = required(args, "--delta")?;
    let delta = fs::read(&delta_path).map_err(|e| CliError::Io(format!("{delta_path}: {e}")))?;
    let out = PathBuf::from(required(args, "--out")?);
    let (bytes, summary) = commands::delta_apply(&base, &delta)
        .map_err(|e| CliError::Data(format!("{delta_path}: {e}")))?;
    cellstream::write_atomic_bytes(&out, &bytes)
        .map_err(|e| CliError::Io(format!("{}: {e}", out.display())))?;
    eprint!("{summary}");
    eprintln!("patched artifact → {}", out.display());
    Ok(())
}

/// Per-epoch delta emitter behind `stream --emit-deltas DIR`: the first
/// ingested epoch seals the full base artifact (`base.cellserv`); every
/// later epoch re-classifies with per-AS memoization and seals only the
/// changed labels as a `CELLDELT` delta chained on the previous
/// artifact's content hash. Each delta lands both under its epoch name
/// and as an atomically-replaced `latest.cdlt` — the file a serving
/// daemon's `--delta-watch` follows.
struct DeltaEmitter {
    dir: PathBuf,
    classifier: celldelta::IncrementalClassifier,
    obs: Observer,
    /// Last sealed artifact bytes and the epoch they labeled.
    live: Option<(Vec<u8>, u64)>,
}

impl DeltaEmitter {
    fn new(
        dir: PathBuf,
        threshold: Option<f64>,
        export_obs: &Observer,
    ) -> Result<DeltaEmitter, CliError> {
        fs::create_dir_all(&dir).map_err(|e| CliError::Io(format!("{}: {e}", dir.display())))?;
        // Memo-hit accounting should be real even without --metrics, so
        // the classifier always gets an enabled observer; with --metrics
        // it shares the export observer and the counters ship in the
        // export too.
        let obs = if export_obs.is_enabled() {
            export_obs.clone()
        } else {
            Observer::enabled()
        };
        Ok(DeltaEmitter {
            dir,
            classifier: celldelta::IncrementalClassifier::new(
                threshold.unwrap_or(cellspot::DEFAULT_THRESHOLD),
                obs.clone(),
            ),
            obs,
            live: None,
        })
    }

    fn write_file(&self, name: &str, bytes: &[u8]) -> CmdResult {
        let path = self.dir.join(name);
        cellstream::write_atomic_bytes(&path, bytes)
            .map_err(|e| CliError::Io(format!("{}: {e}", path.display())))
    }

    fn emit_epoch(&mut self, engine: &cellstream::IngestEngine) -> CmdResult {
        let epoch = u64::from(engine.epochs_done());
        let counters = celldelta::EpochCounters::from_engine(epoch, engine);
        let target = cellserve::Artifact::encode(
            &self.classifier.classify(&counters),
            cellserve::ArtifactFormat::V2,
        );
        match self.live.take() {
            None => {
                self.write_file("base.cellserv", &target)?;
                eprintln!(
                    "epoch {epoch}: base artifact {} bytes (hash {}) → base.cellserv",
                    target.len(),
                    cellserve::hash_hex(cellserve::content_hash(&target)),
                );
            }
            Some((live, live_epoch)) => {
                let delta = celldelta::build_delta(&live, &target, live_epoch, epoch)
                    .map_err(|e| CliError::Data(format!("epoch {epoch} delta: {e}")))?;
                let name = format!("delta-ep{epoch:06}.cdlt");
                self.write_file(&name, &delta)?;
                self.write_file("latest.cdlt", &delta)?;
                eprintln!(
                    "epoch {epoch}: delta {} bytes vs {} full → {name} (+ latest.cdlt)",
                    delta.len(),
                    target.len(),
                );
            }
        }
        self.live = Some((target, epoch));
        Ok(())
    }

    fn finish(&self) {
        let snap = self.obs.snapshot();
        let hits = snap.counters.get("delta.memo.hits").copied().unwrap_or(0);
        let misses = snap.counters.get("delta.memo.misses").copied().unwrap_or(0);
        eprintln!(
            "delta series → {} ({hits} memoized AS classification(s) reused, {misses} recomputed)",
            self.dir.display()
        );
    }
}

/// `lookup`: batch longest-prefix-match queries against a sealed
/// artifact, opened through [`cellserve::Artifact`] and served
/// zero-copy straight off an mmap. A corrupt, truncated, or CELLSERV v1
/// artifact is bad data (exit 4, the v1 message naming `index
/// migrate`), not an I/O failure.
fn lookup(args: &[String]) -> CmdResult {
    setup_threads(args)?;
    let index_path = required(args, "--index")?;
    let index =
        cellserve::Artifact::open(std::path::Path::new(&index_path)).map_err(|e| match e {
            cellserve::ServeError::Io(why) => CliError::Io(why),
            other => CliError::Data(format!("{index_path}: {other}")),
        })?;
    let ips_path = required(args, "--ips")?;
    let queries = io::parse_ip_list(&read(&ips_path)?)
        .map_err(|e| CliError::Data(format!("{ips_path}: {e}")))?;
    let metrics = parse_metrics(args)?;
    let obs = observer_for(&metrics);
    // Rows stream to the destination as they are produced; the result
    // set is never held in memory as one string.
    let summary = match flag_value(args, "--out") {
        Some(path) => {
            let path = PathBuf::from(&path);
            if let Some(parent) = path.parent() {
                fs::create_dir_all(parent)
                    .map_err(|e| CliError::Io(format!("{}: {e}", parent.display())))?;
            }
            let file = fs::File::create(&path)
                .map_err(|e| CliError::Io(format!("{}: {e}", path.display())))?;
            let mut out = std::io::BufWriter::new(file);
            let summary = commands::lookup_batch(&index, &queries, &obs, &mut out)
                .map_err(|e| CliError::Io(format!("{}: {e}", path.display())))?;
            eprintln!("lookup results → {}", path.display());
            summary
        }
        None => {
            let stdout = std::io::stdout();
            let mut out = std::io::BufWriter::new(stdout.lock());
            commands::lookup_batch(&index, &queries, &obs, &mut out)
                .map_err(|e| CliError::Io(format!("stdout: {e}")))?
        }
    };
    eprint!("{summary}");
    write_metrics(&metrics, &obs)?;
    Ok(())
}

/// `serve`: run the long-lived lookup daemon over a sealed artifact.
/// Shuts down on SIGTERM/SIGINT, stdin EOF, a `quit` line, or after
/// `--shutdown-after-ms` — whichever the caller wired up; every path
/// drains in-flight queries before exiting. A corrupt or truncated
/// artifact is bad data (exit 4), matching `lookup`.
fn serve(args: &[String]) -> CmdResult {
    setup_threads(args)?;
    sig::install();
    let index_path = required(args, "--index")?;
    let metrics = parse_metrics(args)?;
    let parse_ms = |flag: &str, default: u64| -> Result<u64, CliError> {
        flag_value(args, flag)
            .map(|v| v.parse())
            .transpose()
            .map_err(|_| CliError::Usage(format!("bad {flag} (expected milliseconds)")))
            .map(|v| v.unwrap_or(default))
    };
    let parse_count = |flag: &str, default: usize| -> Result<usize, CliError> {
        flag_value(args, flag)
            .map(|v| v.parse())
            .transpose()
            .map_err(|_| CliError::Usage(format!("bad {flag} (expected a count; 0 = unlimited)")))
            .map(|v| v.unwrap_or(default))
    };
    let defaults = cellserved::ServeConfig::default();
    let config = cellserved::ServeConfig {
        http_listen: Some(flag_value(args, "--listen").unwrap_or_else(|| "127.0.0.1:7077".into())),
        tcp_listen: flag_value(args, "--tcp"),
        reload_watch: args.iter().any(|a| a == "--reload-watch"),
        reload_poll: std::time::Duration::from_millis(parse_ms("--reload-poll-ms", 250)?),
        delta_watch: flag_value(args, "--delta-watch").map(PathBuf::from),
        // Hardening knobs: connection budget, per-socket deadlines,
        // keep-alive request cap. 0 disables each one.
        max_conns: parse_count("--max-conns", defaults.max_conns)?,
        io_timeout: std::time::Duration::from_millis(parse_ms(
            "--io-timeout-ms",
            defaults.io_timeout.as_millis() as u64,
        )?),
        max_requests_per_conn: parse_count(
            "--max-requests-per-conn",
            defaults.max_requests_per_conn,
        )?,
        drain_timeout: std::time::Duration::from_millis(parse_ms(
            "--drain-timeout-ms",
            defaults.drain_timeout.as_millis() as u64,
        )?),
    };
    let shutdown_after = flag_value(args, "--shutdown-after-ms")
        .map(|v| v.parse::<u64>())
        .transpose()
        .map_err(|_| CliError::Usage("bad --shutdown-after-ms (expected milliseconds)".into()))?;

    // The daemon always observes itself: /metrics serves live quantiles
    // whether or not a --metrics export file was requested.
    let obs = Observer::enabled();
    let daemon = cellserved::Daemon::start(config, Path::new(&index_path), obs.clone())
        .map_err(|e| served_error(&index_path, e))?;
    if let Some(addr) = daemon.http_addr() {
        eprintln!("http endpoint on {addr} (/lookup /metrics /healthz /generation)");
    }
    if let Some(addr) = daemon.tcp_addr() {
        eprintln!("framed tcp endpoint on {addr}");
    }

    match shutdown_after {
        Some(ms) => {
            // Bounded run (tests, smoke checks): sleep in short slices so
            // a signal still ends it early.
            let deadline = std::time::Instant::now() + std::time::Duration::from_millis(ms);
            while !sig::requested() {
                let left = deadline.saturating_duration_since(std::time::Instant::now());
                if left.is_zero() {
                    break;
                }
                std::thread::sleep(left.min(std::time::Duration::from_millis(50)));
            }
        }
        None => {
            eprintln!("serving; stdin EOF, a 'quit' line, or SIGTERM shuts down gracefully");
            // stdin blocks, so it gets its own thread; the main thread
            // polls the signal flag between channel timeouts.
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let mut line = String::new();
                loop {
                    line.clear();
                    match std::io::stdin().read_line(&mut line) {
                        Ok(0) | Err(_) => break,
                        Ok(_) if matches!(line.trim(), "quit" | "shutdown") => break,
                        Ok(_) => {}
                    }
                }
                let _ = tx.send(());
            });
            while !sig::requested() {
                match rx.recv_timeout(std::time::Duration::from_millis(50)) {
                    Ok(()) | Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => break,
                    Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {}
                }
            }
        }
    }
    if sig::requested() {
        eprintln!("signal received; shutting down gracefully");
    }

    let snap = daemon.shutdown();
    let lookups = snap.counters.get("serve.lookups").copied().unwrap_or(0);
    let generation = snap.gauges.get("served.generation").copied().unwrap_or(1);
    let p99 = snap.gauges.get("serve.lookup.ns.p99").copied().unwrap_or(0);
    eprintln!(
        "shutdown: {lookups} lookup(s) served, final generation {generation}, p99 ≤ {p99} ns"
    );
    write_metrics(&metrics, &obs)?;
    Ok(())
}

/// `replay`: generate (or load) a sealed seeded query trace for a named
/// workload preset and replay it closed-loop — directly through the
/// query engine, or against an in-process daemon over framed TCP or
/// bulk HTTP — writing a replay record (`--out`). The `workload`
/// half of the record is a pure function of `(preset, seed, queries,
/// epochs, universe)` and is byte-identical at any `--threads`; the
/// `replay` half carries the measured numbers. The `churn` preset
/// crosses delta epochs: each segment boundary seals a `CELLDELT` delta
/// and hot-patches the daemon before that epoch's traffic flows.
fn replay(args: &[String]) -> CmdResult {
    setup_threads(args)?;
    let metrics = parse_metrics(args)?;
    let threshold = parse_threshold(args)?.unwrap_or(cellspot::DEFAULT_THRESHOLD);
    let mode = flag_value(args, "--mode").unwrap_or_else(|| "engine".into());
    if !matches!(mode.as_str(), "engine" | "tcp" | "http") {
        return Err(CliError::Usage(format!(
            "unknown mode {mode:?} (expected engine, tcp, or http)"
        )));
    }
    let parse_count = |flag: &str, default: usize| -> Result<usize, CliError> {
        flag_value(args, flag)
            .map(|v| v.parse())
            .transpose()
            .map_err(|_| CliError::Usage(format!("bad {flag} (expected a positive integer)")))
            .map(|v| v.unwrap_or(default))
            .and_then(|n| {
                if n == 0 {
                    Err(CliError::Usage(format!("{flag} must be at least 1")))
                } else {
                    Ok(n)
                }
            })
    };
    let clients = parse_count("--clients", 4)?;
    let frame = parse_count("--frame", 256)?;
    let queries = parse_count("--queries", 100_000)?;
    let epochs_flag = parse_count("--epochs", 4)? as u64;
    let out =
        PathBuf::from(flag_value(args, "--out").unwrap_or_else(|| "BENCH_replay.json".into()));

    // Trace source: a sealed CELLLOAD file replays verbatim; otherwise
    // the preset generates one (deterministically, at any --threads).
    let trace_in = match flag_value(args, "--trace-in") {
        Some(path) => {
            let bytes = fs::read(&path).map_err(|e| CliError::Io(format!("{path}: {e}")))?;
            Some(
                cellload::Trace::from_bytes(&bytes)
                    .map_err(|e| CliError::Data(format!("{path}: {e}")))?,
            )
        }
        None => None,
    };
    let preset = match (&trace_in, flag_value(args, "--preset")) {
        (Some(t), flag) => {
            let p = cellload::Preset::parse(&t.preset).ok_or_else(|| {
                CliError::Data(format!("trace carries unknown preset {:?}", t.preset))
            })?;
            if flag.is_some_and(|f| f != t.preset) {
                return Err(CliError::Usage(format!(
                    "--preset conflicts with the trace's preset {:?}",
                    t.preset
                )));
            }
            p
        }
        (None, Some(f)) => cellload::Preset::parse(&f).ok_or_else(|| {
            CliError::Usage(format!(
                "unknown preset {f:?} (steady|diurnal|flashcrowd|scan|churn)"
            ))
        })?,
        (None, None) => {
            return Err(CliError::Usage(
                "missing --preset (steady|diurnal|flashcrowd|scan|churn)".into(),
            ))
        }
    };
    let epochs = match &trace_in {
        Some(t) => t.segments.iter().map(|s| s.epoch).max().unwrap_or(0) + 1,
        None if preset == cellload::Preset::Churn => epochs_flag.max(2),
        None => 1,
    };

    // Per-epoch serving artifacts and their prefix universes. Non-churn
    // presets serve one frozen classification; churn classifies every
    // epoch of the built-in churn world so segment boundaries have real
    // label deltas to cross. Every mode replays these loaded handles —
    // the engine directly, tcp/http through a daemon serving them.
    let load = |index: &cellserve::FrozenIndex| {
        let sealed = cellserve::Artifact::encode(index, cellserve::ArtifactFormat::V2);
        Arc::new(cellserve::Artifact::from_bytes(&sealed).expect("just-encoded artifact validates"))
    };
    let mut artifacts: Vec<Arc<cellserve::ArtifactHandle>> = Vec::new();
    let mut universes: Vec<cellload::Universe> = Vec::new();
    let seed;
    if preset == cellload::Preset::Churn {
        seed = flag_value(args, "--seed")
            .map(|v| v.parse())
            .transpose()
            .map_err(|_| CliError::Usage("bad --seed value".into()))?
            .unwrap_or(42);
        eprintln!("churn world (seed {seed:#x}): classifying {epochs} epoch(s) …");
        let world = celldelta::ChurnWorld::demo(seed);
        for e in 0..epochs {
            let handle = load(&celldelta::classify_epoch(
                &world.epoch_counters(e),
                threshold,
            ));
            universes.push(cellload::Universe::from_view(&handle));
            artifacts.push(handle);
        }
    } else {
        let (scale, config) = world_config(args)?;
        seed = config.seed;
        eprintln!("generating {scale} world (seed {seed:#x}) and freezing its classification …");
        let world = worldgen::World::generate(config);
        let (beacons, demand) = cdnsim::generate_datasets(&world);
        let (_, class) = cellspot::Pipeline::new(&beacons, &demand)
            .threshold(threshold)
            .classify()?;
        universes.push(cellload::Universe::from_classification(&class));
        artifacts.push(load(&cellserve::FrozenIndex::from_classification(
            &class, None,
        )));
    }

    let trace = match trace_in {
        Some(t) => t,
        None => cellload::TraceSpec {
            preset,
            seed,
            queries,
            epochs,
        }
        .generate(&universes),
    };
    if let Some(path) = flag_value(args, "--trace-out") {
        let path = PathBuf::from(path);
        cellstream::write_atomic_bytes(&path, &trace.to_bytes())
            .map_err(|e| CliError::Io(format!("{}: {e}", path.display())))?;
        eprintln!(
            "sealed trace ({} queries, digest {}) → {}",
            trace.total_queries(),
            cellserve::hash_hex(trace.digest()),
            path.display()
        );
    }

    // The record always carries latency and cache numbers, so the
    // replay observer is enabled even without a --metrics export.
    let obs = Observer::enabled();
    let last = artifacts.len() - 1;
    let outcome = match mode.as_str() {
        "engine" => {
            cellload::replay_engine(&trace, &obs, |e| artifacts[(e as usize).min(last)].clone())
        }
        _ => {
            // Seal consecutive-epoch deltas up front; the segment hook
            // hot-patches the daemon right before each epoch's traffic.
            let mut deltas: Vec<Vec<u8>> = Vec::new();
            for (i, pair) in artifacts.windows(2).enumerate() {
                let e = i as u64;
                deltas.push(
                    celldelta::build_delta(
                        pair[0].sealed_bytes(),
                        pair[1].sealed_bytes(),
                        e,
                        e + 1,
                    )
                    .map_err(|err| CliError::Data(format!("epoch {} delta: {err}", e + 1)))?,
                );
            }
            let listen = Some("127.0.0.1:0".to_string());
            let config = cellserved::ServeConfig {
                http_listen: if mode == "http" { listen.clone() } else { None },
                tcp_listen: if mode == "tcp" { listen } else { None },
                ..cellserved::ServeConfig::default()
            };
            // The daemon gets its own handle on the epoch-0 bytes (a
            // generation owns its artifact; the engine legs share theirs).
            let base = cellserve::Artifact::from_bytes(artifacts[0].sealed_bytes())
                .map_err(|e| CliError::Data(format!("base artifact: {e}")))?;
            let daemon = cellserved::Daemon::start_with_handle(config, base, obs.clone())
                .map_err(|e| served_error("in-process daemon", e))?;
            let hook = |epoch: u64| -> Result<(), cellload::ReplayError> {
                if epoch == 0 {
                    return Ok(());
                }
                let delta = deltas.get(epoch as usize - 1).ok_or_else(|| {
                    cellload::ReplayError::Hook(format!("no delta sealed for epoch {epoch}"))
                })?;
                daemon.apply_delta_now(delta).map_err(|e| {
                    cellload::ReplayError::Hook(format!("epoch {epoch} hot-patch: {e}"))
                })?;
                Ok(())
            };
            let cfg = cellload::ReplayConfig {
                clients,
                frame,
                ..cellload::ReplayConfig::default()
            };
            let result = match mode.as_str() {
                "tcp" => {
                    let addr = daemon.tcp_addr().expect("tcp endpoint configured");
                    cellload::replay_framed(addr, &trace, &cfg, &obs, hook)
                }
                _ => {
                    let addr = daemon.http_addr().expect("http endpoint configured");
                    cellload::replay_http(addr, &trace, &cfg, &obs, hook)
                }
            };
            let outcome = result.map_err(|e| CliError::Io(format!("replay ({mode}): {e}")))?;
            daemon.shutdown();
            outcome
        }
    };
    if outcome.dropped > 0 {
        return Err(CliError::Data(format!(
            "replay dropped {} of {} queries",
            outcome.dropped,
            trace.total_queries()
        )));
    }

    let record = cellload::bench_replay_record(
        rayon::current_num_threads(),
        cellload::workload_json(&trace, &universes[0]),
        cellload::replay_json(&outcome, &obs),
    );
    write(&out, &format!("{record:#}\n"))?;
    eprintln!(
        "{} `{}` queries replayed ({mode}): {:.0} lookups/s, {} matched, \
         answer digest {} → {}",
        outcome.lookups,
        preset.name(),
        outcome.lookups_per_sec(),
        outcome.matched,
        cellserve::hash_hex(outcome.answer_digest),
        out.display()
    );
    write_metrics(&metrics, &obs)?;
    Ok(())
}

/// Map daemon start-up failures onto the CLI's exit-code taxonomy.
fn served_error(index_path: &str, e: cellserved::ServedError) -> CliError {
    match e {
        cellserved::ServedError::Artifact(a) => CliError::Data(format!("{index_path}: {a}")),
        cellserved::ServedError::Delta(d) => CliError::Data(format!("{index_path}: {d}")),
        cellserved::ServedError::Io(io) => CliError::Io(format!("{index_path}: {io}")),
        other => CliError::Usage(other.to_string()),
    }
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}\n");
    }
    eprintln!(
        "cellspot — cellular subnet identification from CDN logs\n\
         \n\
         commands:\n\
           synth       --scale mini|demo|paper [--seed N] [--out DIR]\n\
           stream      --scale mini|demo|paper [--seed N] [--epochs E] [--shards N]\n\
                       [--checkpoint DIR] [--retain N] [--resume] [--stop-after-epoch K]\n\
                       [--fault-plan FILE] [--threshold T] [--out DIR] [--emit-deltas DIR]\n\
           classify    --beacons F --demand F [--threshold T] [--out F]\n\
           identify-as --beacons F --demand F --asdb F [--min-du X] [--min-hits N] [--out F]\n\
           validate    --beacons F --demand F --ground-truth F [--sweep]\n\
           stats       --beacons F --demand F --asdb F\n\
           index build --beacons F --demand F [--threshold T] --out ARTIFACT\n\
           index migrate --in ARTIFACT [--to v1|v2] --out ARTIFACT\n\
           delta build --base ARTIFACT --beacons F --demand F [--threshold T]\n\
                       [--base-epoch N] [--epoch N] --out DELTA\n\
           delta apply --base ARTIFACT --delta DELTA --out ARTIFACT\n\
           lookup      --index ARTIFACT --ips F [--out F]\n\
           serve       --index ARTIFACT [--listen ADDR] [--tcp ADDR] [--reload-watch]\n\
                       [--reload-poll-ms N] [--delta-watch FILE] [--shutdown-after-ms N]\n\
                       [--max-conns N] [--io-timeout-ms N] [--max-requests-per-conn N]\n\
                       [--drain-timeout-ms N]   (0 disables the respective limit)\n\
           replay      --preset steady|diurnal|flashcrowd|scan|churn [--seed N]\n\
                       [--queries N] [--epochs E] [--scale mini|demo|paper]\n\
                       [--threshold T] [--mode engine|tcp|http] [--clients N] [--frame N]\n\
                       [--trace-out FILE] [--trace-in FILE] [--out BENCH_replay.json]\n\
         \n\
         global flags:\n\
           --threads N                 pin the rayon pool (flag > CELLSPOT_THREADS > auto)\n\
           --metrics FILE              export observability metrics (classify, stream,\n\
                                       index build, delta build, lookup, serve, replay)\n\
           --metrics-format json|prometheus   export format (default json)\n\
         \n\
         exit codes: 2 usage, 3 I/O, 4 bad data, 5 pipeline, 6 streaming\n\
         CSV formats: see crates/cli/src/io.rs docs."
    );
    exit(if err.is_empty() { 0 } else { 2 });
}
