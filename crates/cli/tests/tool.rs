//! End-to-end tests of the `cellspot` binary: synth → classify →
//! identify-as → validate → stats, via real process invocations, plus
//! the serving path (index build → lookup → serve, corrupted-artifact
//! rejection) and error-path behaviour (bad flags, malformed CSV).

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use cellobs::json::Json;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_cellspot")
}

fn run(args: &[&str]) -> Output {
    Command::new(bin())
        .args(args)
        .output()
        .expect("binary spawns")
}

/// Parse a JSON file the binary wrote.
fn read_json(path: &Path) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cellspot_test_{name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn full_tool_workflow() {
    let dir = tmpdir("workflow");
    let data = dir.join("data");
    let data_s = data.to_str().expect("utf8 path");

    // synth
    let out = run(&["synth", "--scale", "mini", "--out", data_s]);
    assert!(out.status.success(), "synth failed: {out:?}");
    for f in [
        "beacons.csv",
        "demand.csv",
        "asdb.csv",
        "carrier_a_groundtruth.csv",
    ] {
        assert!(data.join(f).exists(), "{f} missing");
    }
    let beacons = data.join("beacons.csv");
    let demand = data.join("demand.csv");
    let (b, d) = (
        beacons.to_str().expect("utf8"),
        demand.to_str().expect("utf8"),
    );

    // classify to a file
    let cells = dir.join("cellular.csv");
    let out = run(&[
        "classify",
        "--beacons",
        b,
        "--demand",
        d,
        "--out",
        cells.to_str().expect("utf8"),
    ]);
    assert!(out.status.success(), "classify failed: {out:?}");
    let content = std::fs::read_to_string(&cells).expect("output written");
    assert!(content.starts_with("block,asn,cellular_ratio"));
    assert!(content.lines().count() > 100);

    // identify-as with the scaled hit threshold for a mini world
    let out = run(&[
        "identify-as",
        "--beacons",
        b,
        "--demand",
        d,
        "--asdb",
        data.join("asdb.csv").to_str().expect("utf8"),
        "--min-hits",
        "0.6",
    ]);
    assert!(out.status.success(), "identify-as failed: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("candidates"), "funnel report on stderr");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.lines().count() > 400, "AS list on stdout");

    // validate against Carrier B (dedicated: near-perfect recall)
    let out = run(&[
        "validate",
        "--beacons",
        b,
        "--demand",
        d,
        "--ground-truth",
        data.join("carrier_b_groundtruth.csv")
            .to_str()
            .expect("utf8"),
        "--sweep",
    ]);
    assert!(out.status.success(), "validate failed: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("precision 1.000"), "{stdout}");
    assert!(stdout.contains("stable range"));

    // stats
    let out = run(&[
        "stats",
        "--beacons",
        b,
        "--demand",
        d,
        "--asdb",
        data.join("asdb.csv").to_str().expect("utf8"),
    ]);
    assert!(out.status.success(), "stats failed: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("global cellular:"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stream_checkpoints_and_resumes() {
    let dir = tmpdir("stream");
    // Separate checkpoint dirs per scenario: the store retains several
    // checkpoints, and a resume must not see another run's newer files.
    let ckpt_full = dir.join("ckpt_full");
    let ckpt_partial = dir.join("ckpt_partial");
    let args_with_ckpt = |ckpt: &str| {
        vec![
            "stream".to_string(),
            "--scale".to_string(),
            "mini".to_string(),
            "--epochs".to_string(),
            "4".to_string(),
            "--shards".to_string(),
            "3".to_string(),
            "--checkpoint".to_string(),
            ckpt.to_string(),
        ]
    };
    let run_owned = |args: &[String]| {
        let refs: Vec<&str> = args.iter().map(|s| s.as_str()).collect();
        run(&refs)
    };

    // Run to completion in one go, capturing the reference summary.
    let mut full = args_with_ckpt(ckpt_full.to_str().expect("utf8"));
    full.extend([
        "--out".to_string(),
        dir.join("full").to_str().expect("utf8").to_string(),
    ]);
    let out = run_owned(&full);
    assert!(out.status.success(), "stream failed: {out:?}");
    let reference = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        reference.contains("cellular blocks at threshold"),
        "{reference}"
    );
    assert!(reference.contains("top demand blocks"), "{reference}");
    assert!(dir.join("full/beacons.csv").exists());
    assert!(dir.join("full/demand.csv").exists());
    let full_ckpt =
        std::fs::read(ckpt_full.join("ckpt-ep000004.ckpt")).expect("final checkpoint written");
    assert!(
        !ckpt_full.join("ckpt-ep000001.ckpt").exists(),
        "default retention prunes the oldest checkpoint"
    );

    // Now "kill" a run after 2 epochs …
    let mut partial = args_with_ckpt(ckpt_partial.to_str().expect("utf8"));
    partial.extend(["--stop-after-epoch".to_string(), "2".to_string()]);
    let out = run_owned(&partial);
    assert!(out.status.success(), "partial stream failed: {out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("stopped after epoch 2"));

    // … and resume from its checkpoint: same summary, same final state.
    let mut resumed = args_with_ckpt(ckpt_partial.to_str().expect("utf8"));
    resumed.push("--resume".to_string());
    let out = run_owned(&resumed);
    assert!(out.status.success(), "resume failed: {out:?}");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        reference,
        "resumed run must reproduce the uninterrupted summary"
    );
    let resumed_ckpt =
        std::fs::read(ckpt_partial.join("ckpt-ep000004.ckpt")).expect("final checkpoint rewritten");
    assert_eq!(
        resumed_ckpt, full_ckpt,
        "final checkpoint must be byte-identical to the uninterrupted run's"
    );

    // A resume that only finds corrupt checkpoints fails cleanly.
    let ckpt_bad = dir.join("ckpt_bad");
    std::fs::create_dir_all(&ckpt_bad).expect("mkdir");
    std::fs::write(ckpt_bad.join("ckpt-ep000002.ckpt"), "{ torn").expect("write");
    let mut from_bad = args_with_ckpt(ckpt_bad.to_str().expect("utf8"));
    from_bad.push("--resume".to_string());
    let out = run_owned(&from_bad);
    assert!(!out.status.success(), "corrupt-only store must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("skipping corrupt checkpoint"),
        "warns per corrupt file: {stderr}"
    );
    assert!(
        stderr.contains("no usable checkpoint"),
        "clean error, no panic: {stderr}"
    );

    // Layout mismatches are rejected instead of silently mixing state.
    let mismatched = vec![
        "stream".to_string(),
        "--scale".to_string(),
        "mini".to_string(),
        "--epochs".to_string(),
        "5".to_string(),
        "--shards".to_string(),
        "3".to_string(),
        "--checkpoint".to_string(),
        ckpt_partial.to_str().expect("utf8").to_string(),
        "--resume".to_string(),
    ];
    let out = run_owned(&mismatched);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("layout mismatch"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stream_survives_a_fault_plan() {
    let dir = tmpdir("chaos");
    let ckpt_ref = dir.join("ckpt_ref");
    let ckpt_chaos = dir.join("ckpt_chaos");
    let base = |ckpt: &std::path::Path| {
        vec![
            "stream".to_string(),
            "--scale".to_string(),
            "mini".to_string(),
            "--epochs".to_string(),
            "4".to_string(),
            "--shards".to_string(),
            "3".to_string(),
            "--checkpoint".to_string(),
            ckpt.to_str().expect("utf8").to_string(),
        ]
    };
    let run_owned = |args: &[String]| {
        let refs: Vec<&str> = args.iter().map(|s| s.as_str()).collect();
        run(&refs)
    };

    // Fault-free reference.
    let out = run_owned(&base(&ckpt_ref));
    assert!(out.status.success(), "reference stream failed: {out:?}");
    let reference = String::from_utf8_lossy(&out.stdout).to_string();

    // Crash at the epoch-2 boundary with the newest checkpoint bit-flipped:
    // recovery must fall back to the epoch-1 checkpoint and still finish
    // with the exact reference summary.
    let plan = dir.join("plan.json");
    std::fs::write(
        &plan,
        r#"{
  "seed": 9,
  "faults": [
    { "Crash": { "epoch": 2, "after_events": 0 } },
    { "FlipCheckpointBytes": { "epoch": 2, "flips": 2 } }
  ]
}
"#,
    )
    .expect("write plan");
    let mut chaos = base(&ckpt_chaos);
    chaos.extend([
        "--fault-plan".to_string(),
        plan.to_str().expect("utf8").to_string(),
    ]);
    let out = run_owned(&chaos);
    assert!(out.status.success(), "chaos stream failed: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("crashed process"), "crash fired: {stderr}");
    assert!(
        stderr.contains("rejected checkpoint"),
        "corrupt checkpoint skipped: {stderr}"
    );
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        reference,
        "chaos run must reproduce the fault-free summary"
    );

    // --fault-plan without a checkpoint dir is a clean error.
    let out = run(&[
        "stream",
        "--scale",
        "mini",
        "--epochs",
        "4",
        "--fault-plan",
        plan.to_str().expect("utf8"),
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("needs --checkpoint"));

    // A plan with a misspelt field is bad data (exit 4) naming the
    // field, not a run of some other scenario.
    std::fs::write(
        &plan,
        r#"{"seed": 9, "faults": [{"Crash": {"epoch": 2, "after_event": 0, "after_events": 9}}]}"#,
    )
    .expect("write misspelt plan");
    let out = run_owned(&chaos);
    assert_eq!(out.status.code(), Some(4), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(r#"fault 0: Crash: unknown field "after_event""#),
        "{stderr}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn classification_is_deterministic_across_runs() {
    let dir = tmpdir("determinism");
    let data = dir.join("data");
    let data_s = data.to_str().expect("utf8");
    assert!(run(&["synth", "--scale", "mini", "--out", data_s])
        .status
        .success());
    let beacons = data.join("beacons.csv");
    let demand = data.join("demand.csv");
    let args = [
        "classify",
        "--beacons",
        beacons.to_str().expect("utf8"),
        "--demand",
        demand.to_str().expect("utf8"),
    ];
    let a = run(&args);
    let b = run(&args);
    assert!(a.status.success() && b.status.success());
    assert_eq!(a.stdout, b.stdout, "same inputs, same output");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn error_paths_are_clean() {
    // Unknown command.
    let out = run(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    // Missing required flag.
    let out = run(&["classify", "--beacons", "/nonexistent.csv"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error:"));

    // Malformed CSV gets a line-numbered error, not a panic.
    let dir = tmpdir("badcsv");
    let bad = dir.join("bad.csv");
    std::fs::write(&bad, "block,asn,du\nnot-a-cidr,1,5\n").expect("write");
    let good_beacons = dir.join("beacons.csv");
    std::fs::write(
        &good_beacons,
        "block,asn,hits_total,netinfo_hits,cellular_hits,wifi_hits,other_hits\n\
         203.0.113.0/24,1,10,5,5,0,0\n",
    )
    .expect("write");
    let out = run(&[
        "classify",
        "--beacons",
        good_beacons.to_str().expect("utf8"),
        "--demand",
        bad.to_str().expect("utf8"),
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("line 2"), "line-numbered error: {stderr}");

    // --help exits 0.
    let out = run(&["--help"]);
    assert!(out.status.success());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn index_build_and_lookup_roundtrip() {
    let dir = tmpdir("serving");
    let data = dir.join("data");
    let data_s = data.to_str().expect("utf8");
    assert!(run(&["synth", "--scale", "mini", "--out", data_s])
        .status
        .success());
    let beacons = data.join("beacons.csv");
    let demand = data.join("demand.csv");
    let (b, d) = (
        beacons.to_str().expect("utf8"),
        demand.to_str().expect("utf8"),
    );

    // Freeze the classification into a sealed artifact.
    let artifact = dir.join("cells.idx");
    let art_s = artifact.to_str().expect("utf8");
    let out = run(&[
        "index",
        "build",
        "--beacons",
        b,
        "--demand",
        d,
        "--out",
        art_s,
    ]);
    assert!(out.status.success(), "index build failed: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("frozen"), "build summary: {stderr}");
    let sealed = std::fs::read(&artifact).expect("artifact written");
    assert!(!sealed.is_empty());

    // A cellular block from `classify` must resolve through `lookup`;
    // 192.0.2.1 (TEST-NET-1, never generated) must miss.
    let out = run(&["classify", "--beacons", b, "--demand", d]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    let hit_net = stdout
        .lines()
        .skip(1)
        .find(|l| !l.contains(':'))
        .and_then(|l| l.split(',').next())
        .expect("a v4 cellular block")
        .to_string();
    let hit_ip = hit_net.split('/').next().expect("cidr has an address");
    let ips = dir.join("ips.txt");
    std::fs::write(&ips, format!("# probes\n{hit_ip}\n192.0.2.1\n")).expect("write");
    let metrics = dir.join("metrics.json");
    let out = run(&[
        "lookup",
        "--index",
        art_s,
        "--ips",
        ips.to_str().expect("utf8"),
        "--metrics",
        metrics.to_str().expect("utf8"),
    ]);
    assert!(out.status.success(), "lookup failed: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("ip,prefix,asn,class\n"), "{stdout}");
    assert!(
        stdout.contains(&format!("{hit_ip},{hit_net},")),
        "hit row names its prefix: {stdout}"
    );
    assert!(stdout.contains("192.0.2.1,-,-,-"), "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("2 lookups: 1 matched"), "{stderr}");
    let exported = std::fs::read_to_string(&metrics).expect("metrics written");
    assert!(exported.contains("serve.lookups"), "{exported}");

    // Lookup results land in a file with --out.
    let results = dir.join("results.csv");
    let out = run(&[
        "lookup",
        "--index",
        art_s,
        "--ips",
        ips.to_str().expect("utf8"),
        "--out",
        results.to_str().expect("utf8"),
    ]);
    assert!(out.status.success(), "lookup --out failed: {out:?}");
    assert!(std::fs::read_to_string(&results)
        .expect("results written")
        .contains(&hit_net));

    std::fs::remove_dir_all(&dir).ok();
}

/// `lookup` answers a long list a window of queries at a time, and the
/// windowing is invisible: for a list longer than one window (64 engine
/// chunks) the CSV, the summary line and the exported counters are
/// those of a single `QueryEngine::run` over the whole list — which
/// holds only if every window boundary is also a chunk boundary.
#[test]
fn lookup_over_a_long_list_equals_one_engine_run() {
    use cellserve::{IndexView, IpKey, QueryEngine, QUERY_CHUNK};

    let dir = tmpdir("long_lookup");
    let data = dir.join("data");
    assert!(run(&[
        "synth",
        "--scale",
        "mini",
        "--out",
        data.to_str().expect("utf8")
    ])
    .status
    .success());
    let artifact = dir.join("cells.idx");
    let art_s = artifact.to_str().expect("utf8");
    assert!(run(&[
        "index",
        "build",
        "--beacons",
        data.join("beacons.csv").to_str().expect("utf8"),
        "--demand",
        data.join("demand.csv").to_str().expect("utf8"),
        "--out",
        art_s,
    ])
    .status
    .success());

    // A cycle of served blocks spread over the index, shorter than a
    // chunk: every chunk pays the cycle's cold misses once, so a chunk
    // boundary that moves shows in the cache counters. Unserved
    // TEST-NET-1 addresses in between; one window plus a ragged tail.
    let index = cellserve::Artifact::open(&artifact).expect("artifact opens");
    let mut served = Vec::new();
    index.for_each_v4(&mut |net, _| served.push(IpKey::V4(net.addr())));
    index.for_each_v6(&mut |net, _| served.push(IpKey::V6(net.addr())));
    let cycle: Vec<IpKey> = served
        .iter()
        .step_by((served.len() / 300).max(1))
        .copied()
        .take(300)
        .collect();
    let queries: Vec<IpKey> = (0..64 * QUERY_CHUNK + 2 * QUERY_CHUNK + 17)
        .map(|i| match i % 11 {
            10 => IpKey::V4(0xC000_0200 + (i % 256) as u32),
            _ => cycle[i % cycle.len()],
        })
        .collect();
    let ips = dir.join("ips.txt");
    let list: String = queries.iter().map(|ip| format!("{ip}\n")).collect();
    std::fs::write(&ips, list).expect("write");

    let (answers, stats) = QueryEngine::new(&index).run(&queries);
    let mut want_csv = String::from("ip,prefix,asn,class\n");
    for (ip, answer) in queries.iter().zip(&answers) {
        want_csv.push_str(&match answer {
            Some(m) => format!(
                "{ip},{},{},{}\n",
                m.prefix,
                m.label.asn.value(),
                m.label.class
            ),
            None => format!("{ip},-,-,-\n"),
        });
    }
    assert!(
        0 < stats.matched && stats.matched < stats.lookups && stats.cache_hits > 0,
        "the list exercises hits, misses and the cache: {stats:?}"
    );

    let metrics = dir.join("metrics.json");
    let out = run(&[
        "lookup",
        "--index",
        art_s,
        "--ips",
        ips.to_str().expect("utf8"),
        "--metrics",
        metrics.to_str().expect("utf8"),
    ]);
    assert!(out.status.success(), "lookup failed: {out:?}");
    assert!(
        String::from_utf8_lossy(&out.stdout) == want_csv,
        "windowed CSV differs from the whole-list run"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    let want_summary = format!(
        "{} lookups: {} matched ({:.1}%), cache {} hit(s) / {} miss(es) / {} uncached\n",
        stats.lookups,
        stats.matched,
        100.0 * stats.matched as f64 / stats.lookups as f64,
        stats.cache_hits,
        stats.cache_misses,
        stats.uncached,
    );
    assert!(stderr.contains(&want_summary), "{stderr}");
    let exported = read_json(&metrics);
    for (name, want) in [
        ("serve.lookups", stats.lookups),
        ("serve.matched", stats.matched),
        ("serve.cache.hits", stats.cache_hits),
        ("serve.cache.misses", stats.cache_misses),
        ("serve.cache.uncached", stats.uncached),
    ] {
        assert_eq!(exported["counters"][name], Json::Int(want), "{name}");
    }
    assert_eq!(
        exported["histograms"]["serve.lookup.ns"]["count"],
        Json::Int(stats.lookups)
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_artifacts_are_rejected_as_bad_data() {
    let dir = tmpdir("corrupt_artifact");
    let data = dir.join("data");
    assert!(run(&[
        "synth",
        "--scale",
        "mini",
        "--out",
        data.to_str().expect("utf8")
    ])
    .status
    .success());
    let artifact = dir.join("cells.idx");
    let art_s = artifact.to_str().expect("utf8");
    assert!(run(&[
        "index",
        "build",
        "--beacons",
        data.join("beacons.csv").to_str().expect("utf8"),
        "--demand",
        data.join("demand.csv").to_str().expect("utf8"),
        "--out",
        art_s,
    ])
    .status
    .success());
    let ips = dir.join("ips.txt");
    std::fs::write(&ips, "192.0.2.1\n").expect("write");
    let ips_s = ips.to_str().expect("utf8");

    // Flip one byte in the middle: exit 4 (bad data), precise error.
    let sealed = std::fs::read(&artifact).expect("artifact");
    let mut torn = sealed.clone();
    let mid = torn.len() / 2;
    torn[mid] ^= 0x40;
    std::fs::write(&artifact, &torn).expect("rewrite");
    let out = run(&["lookup", "--index", art_s, "--ips", ips_s]);
    assert_eq!(
        out.status.code(),
        Some(4),
        "corruption is bad data: {out:?}"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("corrupt artifact"), "{stderr}");

    // Truncation is rejected the same way.
    std::fs::write(&artifact, &sealed[..sealed.len() - 7]).expect("rewrite");
    let out = run(&["lookup", "--index", art_s, "--ips", ips_s]);
    assert_eq!(
        out.status.code(),
        Some(4),
        "truncation is bad data: {out:?}"
    );

    // Restore the good artifact: a malformed IP line is also exit 4,
    // with its line number.
    std::fs::write(&artifact, &sealed).expect("restore");
    std::fs::write(&ips, "192.0.2.1\nnot-an-ip\n").expect("write");
    let out = run(&["lookup", "--index", art_s, "--ips", ips_s]);
    assert_eq!(out.status.code(), Some(4), "bad IP is bad data: {out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("line 2"));

    // Usage errors stay exit 2.
    let out = run(&["index", "frobnicate"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let out = run(&["lookup", "--ips", ips_s]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");

    std::fs::remove_dir_all(&dir).ok();
}

/// A CELLSERV v1 file is readable by `index migrate` and nothing else:
/// `lookup`, `serve` and `delta build` refuse it as bad data (exit 4)
/// with a message that says what to run, and the migrated file serves.
#[test]
fn legacy_v1_artifacts_are_refused_until_migrated() {
    let dir = tmpdir("legacy_v1");
    let data = dir.join("data");
    assert!(run(&[
        "synth",
        "--scale",
        "mini",
        "--out",
        data.to_str().expect("utf8")
    ])
    .status
    .success());
    let beacons = data.join("beacons.csv");
    let demand = data.join("demand.csv");
    let (b, d) = (
        beacons.to_str().expect("utf8"),
        demand.to_str().expect("utf8"),
    );
    let built = dir.join("cells.idx");
    let built_s = built.to_str().expect("utf8");
    assert!(run(&[
        "index",
        "build",
        "--beacons",
        b,
        "--demand",
        d,
        "--out",
        built_s
    ])
    .status
    .success());

    // Manufacture the legacy file the only way left: migrate down.
    let legacy = dir.join("legacy.idx");
    let legacy_s = legacy.to_str().expect("utf8");
    let out = run(&[
        "index", "migrate", "--in", built_s, "--to", "v1", "--out", legacy_s,
    ]);
    assert!(out.status.success(), "migrate to v1 failed: {out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("migrated v2"));

    let ips = dir.join("ips.txt");
    std::fs::write(&ips, "192.0.2.1\n").expect("write");
    let ips_s = ips.to_str().expect("utf8");
    let refusals = [
        run(&["lookup", "--index", legacy_s, "--ips", ips_s]),
        run(&[
            "serve",
            "--index",
            legacy_s,
            "--listen",
            "127.0.0.1:0",
            "--shutdown-after-ms",
            "50",
        ]),
        run(&[
            "delta",
            "build",
            "--base",
            legacy_s,
            "--beacons",
            b,
            "--demand",
            d,
            "--out",
            dir.join("never.cdlt").to_str().expect("utf8"),
        ]),
    ];
    for out in &refusals {
        assert_eq!(out.status.code(), Some(4), "v1 is bad data: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("cellspot index migrate"), "{stderr}");
    }

    // Migrating it (v2 is the default target) restores the built bytes
    // exactly, and that file answers and serves.
    let migrated = dir.join("migrated.idx");
    let migrated_s = migrated.to_str().expect("utf8");
    let out = run(&["index", "migrate", "--in", legacy_s, "--out", migrated_s]);
    assert!(out.status.success(), "migrate to v2 failed: {out:?}");
    assert_eq!(
        std::fs::read(&migrated).expect("migrated"),
        std::fs::read(&built).expect("built"),
        "v2 -> v1 -> v2 is the identity"
    );
    let out = run(&["lookup", "--index", migrated_s, "--ips", ips_s]);
    assert!(out.status.success(), "lookup after migrate: {out:?}");
    let out = run(&[
        "serve",
        "--index",
        migrated_s,
        "--listen",
        "127.0.0.1:0",
        "--shutdown-after-ms",
        "100",
    ]);
    assert!(out.status.success(), "serve after migrate: {out:?}");

    // Nothing to do is an error, and a bogus target a usage error.
    let out = run(&[
        "index", "migrate", "--in", built_s, "--to", "v2", "--out", migrated_s,
    ]);
    assert_eq!(out.status.code(), Some(4), "already v2: {out:?}");
    let out = run(&[
        "index", "migrate", "--in", built_s, "--to", "v3", "--out", migrated_s,
    ]);
    assert_eq!(out.status.code(), Some(2), "unknown format: {out:?}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_runs_shuts_down_and_exports_metrics() {
    let dir = tmpdir("serve");
    let data = dir.join("data");
    assert!(run(&[
        "synth",
        "--scale",
        "mini",
        "--out",
        data.to_str().expect("utf8")
    ])
    .status
    .success());
    let artifact = dir.join("cells.idx");
    let art_s = artifact.to_str().expect("utf8");
    assert!(run(&[
        "index",
        "build",
        "--beacons",
        data.join("beacons.csv").to_str().expect("utf8"),
        "--demand",
        data.join("demand.csv").to_str().expect("utf8"),
        "--out",
        art_s,
    ])
    .status
    .success());

    // Boot the daemon on ephemeral ports, let it idle briefly, shut
    // down on the timer, and export the final metrics snapshot.
    let metrics = dir.join("serve-metrics.json");
    let out = run(&[
        "serve",
        "--index",
        art_s,
        "--listen",
        "127.0.0.1:0",
        "--tcp",
        "127.0.0.1:0",
        "--shutdown-after-ms",
        "200",
        "--metrics",
        metrics.to_str().expect("utf8"),
    ]);
    assert!(out.status.success(), "serve failed: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("http endpoint on 127.0.0.1:"), "{stderr}");
    assert!(
        stderr.contains("framed tcp endpoint on 127.0.0.1:"),
        "{stderr}"
    );
    assert!(stderr.contains("shutdown:"), "{stderr}");
    let exported = std::fs::read_to_string(&metrics).expect("metrics written");
    assert!(exported.contains("served.generation"), "{exported}");

    // A corrupt artifact refuses to serve: exit 4, like `lookup`.
    let sealed = std::fs::read(&artifact).expect("artifact");
    let mut torn = sealed.clone();
    let mid = torn.len() / 2;
    torn[mid] ^= 0x40;
    std::fs::write(&artifact, &torn).expect("rewrite");
    let out = run(&[
        "serve",
        "--index",
        art_s,
        "--listen",
        "127.0.0.1:0",
        "--shutdown-after-ms",
        "50",
    ]);
    assert_eq!(out.status.code(), Some(4), "corrupt artifact: {out:?}");

    std::fs::remove_dir_all(&dir).ok();
}

/// `delta build` against a base artifact, then `delta apply`, must
/// reproduce a from-scratch `index build` at the new settings byte for
/// byte; corrupt deltas and bogus subcommands fail with the right exit
/// codes.
#[test]
fn delta_build_apply_matches_full_rebuild() {
    let dir = tmpdir("delta_cli");
    let data = dir.join("data");
    assert!(run(&[
        "synth",
        "--scale",
        "mini",
        "--out",
        data.to_str().expect("utf8")
    ])
    .status
    .success());
    let b = data.join("beacons.csv");
    let d = data.join("demand.csv");
    let (b, d) = (b.to_str().expect("utf8"), d.to_str().expect("utf8"));

    // Base artifact at the default threshold, reference artifact at a
    // stricter one — the delta carries exactly the label churn between
    // the two classifications.
    let base = dir.join("base.idx");
    let base_s = base.to_str().expect("utf8");
    assert!(run(&[
        "index",
        "build",
        "--beacons",
        b,
        "--demand",
        d,
        "--out",
        base_s
    ])
    .status
    .success());
    let reference = dir.join("reference.idx");
    let out = run(&[
        "index",
        "build",
        "--beacons",
        b,
        "--demand",
        d,
        "--threshold",
        "0.95",
        "--out",
        reference.to_str().expect("utf8"),
    ]);
    assert!(out.status.success(), "reference build failed: {out:?}");

    let delta = dir.join("step.cdlt");
    let delta_s = delta.to_str().expect("utf8");
    let out = run(&[
        "delta",
        "build",
        "--base",
        base_s,
        "--beacons",
        b,
        "--demand",
        d,
        "--threshold",
        "0.95",
        "--out",
        delta_s,
    ]);
    assert!(out.status.success(), "delta build failed: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("op(s)"), "delta summary: {stderr}");
    assert!(stderr.contains("epoch 0 -> 1"), "epoch chain: {stderr}");
    let delta_bytes = std::fs::read(&delta).expect("delta written");
    let reference_bytes = std::fs::read(&reference).expect("reference written");

    let patched = dir.join("patched.idx");
    let out = run(&[
        "delta",
        "apply",
        "--base",
        base_s,
        "--delta",
        delta_s,
        "--out",
        patched.to_str().expect("utf8"),
    ]);
    assert!(out.status.success(), "delta apply failed: {out:?}");
    assert_eq!(
        std::fs::read(&patched).expect("patched written"),
        reference_bytes,
        "apply(base, delta) must equal the full rebuild byte for byte"
    );

    // A bit-flipped delta is bad data (exit 4), and applying a delta to
    // the wrong base is too.
    let mut torn = delta_bytes.clone();
    let mid = torn.len() / 2;
    torn[mid] ^= 0x20;
    std::fs::write(&delta, &torn).expect("rewrite");
    let out = run(&[
        "delta",
        "apply",
        "--base",
        base_s,
        "--delta",
        delta_s,
        "--out",
        patched.to_str().expect("utf8"),
    ]);
    assert_eq!(out.status.code(), Some(4), "corrupt delta: {out:?}");
    std::fs::write(&delta, &delta_bytes).expect("restore");
    let out = run(&[
        "delta",
        "apply",
        "--base",
        reference.to_str().expect("utf8"),
        "--delta",
        delta_s,
        "--out",
        patched.to_str().expect("utf8"),
    ]);
    assert_eq!(out.status.code(), Some(4), "wrong base: {out:?}");

    // Usage errors stay exit 2.
    let out = run(&["delta", "frobnicate"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");

    std::fs::remove_dir_all(&dir).ok();
}

/// `stream --emit-deltas DIR` seals a base artifact at the first epoch
/// and a chained delta per later epoch; replaying the chain with
/// `delta apply` must stay consistent, and `latest.cdlt` must always be
/// the newest delta.
#[test]
fn stream_emits_a_replayable_delta_chain() {
    let dir = tmpdir("emit_deltas");
    let deltas = dir.join("deltas");
    let deltas_s = deltas.to_str().expect("utf8");
    let out = run(&[
        "stream",
        "--scale",
        "mini",
        "--epochs",
        "3",
        "--emit-deltas",
        deltas_s,
    ]);
    assert!(out.status.success(), "stream failed: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("base artifact"), "{stderr}");
    assert!(stderr.contains("delta series →"), "{stderr}");

    let base = std::fs::read(deltas.join("base.cellserv")).expect("base sealed");
    let step2 = deltas.join("delta-ep000002.cdlt");
    let step3 = deltas.join("delta-ep000003.cdlt");
    assert_eq!(
        std::fs::read(&step3).expect("epoch-3 delta"),
        std::fs::read(deltas.join("latest.cdlt")).expect("latest delta"),
        "latest.cdlt tracks the newest delta"
    );

    // Replay the chain through the CLI: base —ep2→ —ep3→.
    let a2 = dir.join("a2.idx");
    let a3 = dir.join("a3.idx");
    let base_path = deltas.join("base.cellserv");
    let out = run(&[
        "delta",
        "apply",
        "--base",
        base_path.to_str().expect("utf8"),
        "--delta",
        step2.to_str().expect("utf8"),
        "--out",
        a2.to_str().expect("utf8"),
    ]);
    assert!(out.status.success(), "epoch-2 apply failed: {out:?}");
    let out = run(&[
        "delta",
        "apply",
        "--base",
        a2.to_str().expect("utf8"),
        "--delta",
        step3.to_str().expect("utf8"),
        "--out",
        a3.to_str().expect("utf8"),
    ]);
    assert!(out.status.success(), "epoch-3 apply failed: {out:?}");
    // The epoch-3 delta chains on epoch 2's output, never on the base.
    let out = run(&[
        "delta",
        "apply",
        "--base",
        base_path.to_str().expect("utf8"),
        "--delta",
        step3.to_str().expect("utf8"),
        "--out",
        a3.to_str().expect("utf8"),
    ]);
    if std::fs::read(&a2).expect("a2") != base {
        assert_eq!(out.status.code(), Some(4), "skipping an epoch: {out:?}");
    }

    // Chaos mode cannot emit per-epoch deltas; that's a usage error.
    let out = run(&[
        "stream",
        "--scale",
        "mini",
        "--emit-deltas",
        deltas_s,
        "--fault-plan",
        "plan.json",
    ]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");

    std::fs::remove_dir_all(&dir).ok();
}

/// The content hash `index build` prints is the same value the daemon
/// exports as the `served.artifact.hash` gauge, so operators can check
/// what a running daemon serves against what they built.
#[test]
fn index_build_hash_correlates_with_served_generation() {
    let dir = tmpdir("hash_corr");
    let data = dir.join("data");
    assert!(run(&[
        "synth",
        "--scale",
        "mini",
        "--out",
        data.to_str().expect("utf8")
    ])
    .status
    .success());
    let artifact = dir.join("cells.idx");
    let art_s = artifact.to_str().expect("utf8");
    let out = run(&[
        "index",
        "build",
        "--beacons",
        data.join("beacons.csv").to_str().expect("utf8"),
        "--demand",
        data.join("demand.csv").to_str().expect("utf8"),
        "--out",
        art_s,
    ]);
    assert!(out.status.success(), "index build failed: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let hex = stderr
        .split("content hash ")
        .nth(1)
        .map(|rest| &rest[..16])
        .expect("build summary names the content hash");
    let built_hash = u64::from_str_radix(hex, 16).expect("16 hex digits");

    let metrics = dir.join("metrics.json");
    let out = run(&[
        "serve",
        "--index",
        art_s,
        "--listen",
        "127.0.0.1:0",
        "--shutdown-after-ms",
        "100",
        "--metrics",
        metrics.to_str().expect("utf8"),
    ]);
    assert!(out.status.success(), "serve failed: {out:?}");
    let exported = std::fs::read_to_string(&metrics).expect("metrics written");
    let served_hash: u64 = exported
        .split("\"served.artifact.hash\"")
        .nth(1)
        .map(|rest| {
            rest.chars()
                .skip_while(|c| !c.is_ascii_digit())
                .take_while(char::is_ascii_digit)
                .collect::<String>()
        })
        .expect("gauge exported")
        .parse()
        .expect("decimal gauge value");
    assert_eq!(
        served_hash, built_hash,
        "daemon must serve exactly the artifact the build reported"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// SIGTERM must drain in-flight work and exit cleanly, exactly like
/// stdin EOF: the daemon answers a lookup, takes the signal, and still
/// reports that lookup in its shutdown line.
#[cfg(unix)]
#[test]
fn sigterm_shuts_the_daemon_down_gracefully() {
    use std::io::{BufRead, BufReader, Read, Write};

    let dir = tmpdir("sigterm");
    let data = dir.join("data");
    assert!(run(&[
        "synth",
        "--scale",
        "mini",
        "--out",
        data.to_str().expect("utf8")
    ])
    .status
    .success());
    let artifact = dir.join("cells.idx");
    let art_s = artifact.to_str().expect("utf8");
    assert!(run(&[
        "index",
        "build",
        "--beacons",
        data.join("beacons.csv").to_str().expect("utf8"),
        "--demand",
        data.join("demand.csv").to_str().expect("utf8"),
        "--out",
        art_s,
    ])
    .status
    .success());

    // No --shutdown-after-ms and a held-open stdin: only the signal can
    // end this process.
    let mut child = Command::new(bin())
        .args(["serve", "--index", art_s, "--listen", "127.0.0.1:0"])
        .stdin(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("daemon spawns");
    let mut stderr = BufReader::new(child.stderr.take().expect("stderr piped"));
    let addr = loop {
        let mut line = String::new();
        assert!(
            stderr.read_line(&mut line).expect("daemon stderr") > 0,
            "daemon exited before announcing its endpoint"
        );
        if let Some(rest) = line.trim().strip_prefix("http endpoint on ") {
            break rest
                .split_whitespace()
                .next()
                .expect("addr token")
                .to_string();
        }
    };

    // One real query in flight before the signal.
    let mut conn = std::net::TcpStream::connect(&addr).expect("daemon accepts");
    conn.write_all(b"GET /lookup?ip=192.0.2.1 HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
        .expect("request sent");
    let mut resp = String::new();
    conn.read_to_string(&mut resp).expect("response read");
    assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");

    assert!(Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("kill runs")
        .success());
    let status = child.wait().expect("daemon exits");
    assert!(status.success(), "graceful exit on SIGTERM: {status:?}");
    let mut rest = String::new();
    stderr.read_to_string(&mut rest).expect("stderr drained");
    assert!(
        rest.contains("signal received; shutting down gracefully"),
        "{rest}"
    );
    assert!(
        rest.contains("shutdown: 1 lookup(s) served"),
        "the drained lookup shows up in the final accounting: {rest}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// The replay acceptance contract: for a fixed preset + seed, the
/// sealed trace file and the record's `workload` section are
/// byte-identical at any `--threads`, and the tcp-mode replay — which
/// hot-patches the daemon with a CELLDELT delta at every segment
/// boundary — answers exactly like the cold engine-mode replay.
#[test]
fn replay_is_thread_invariant_and_mode_agnostic() {
    let dir = tmpdir("replay");
    let record_for = |threads: &str, mode: &str, tag: &str| -> Json {
        let trace = dir.join(format!("trace-{tag}.cload"));
        let out_path = dir.join(format!("replay-{tag}.json"));
        let out = run(&[
            "replay",
            "--preset",
            "churn",
            "--seed",
            "9",
            "--queries",
            "6000",
            "--epochs",
            "3",
            "--threads",
            threads,
            "--mode",
            mode,
            "--trace-out",
            trace.to_str().expect("utf8"),
            "--out",
            out_path.to_str().expect("utf8"),
        ]);
        assert!(out.status.success(), "replay {tag} failed: {out:?}");
        read_json(&out_path)
    };

    let one = record_for("1", "engine", "t1");
    let two = record_for("2", "engine", "t2");
    let tcp = record_for("2", "tcp", "tcp");

    let t1 = std::fs::read(dir.join("trace-t1.cload")).expect("trace 1");
    let t2 = std::fs::read(dir.join("trace-t2.cload")).expect("trace 2");
    assert_eq!(t1, t2, "sealed traces must not depend on --threads");
    assert_eq!(
        one["workload"], two["workload"],
        "workload sections must not depend on --threads"
    );

    // The record's shape: every key, at every level, under its parent.
    let keys = |v: &Json| -> Vec<String> {
        let Json::Obj(members) = v else {
            panic!("expected an object, got {v}");
        };
        let mut keys: Vec<String> = members.iter().map(|(k, _)| k.clone()).collect();
        keys.sort();
        keys
    };
    assert_eq!(keys(&one), ["bench", "replay", "threads", "workload"]);
    assert_eq!(
        keys(&one["workload"]),
        [
            "preset",
            "queries",
            "seed",
            "segments",
            "trace_digest",
            "universe"
        ]
    );
    assert_eq!(
        keys(&one["workload"]["universe"]),
        ["v4_blocks", "v6_blocks"]
    );
    assert_eq!(
        keys(&one["replay"]),
        [
            "answer_digest",
            "cache",
            "dropped",
            "latency",
            "lookups",
            "lookups_per_sec",
            "matched",
            "mode",
            "segments",
            "wall_secs"
        ]
    );
    assert_eq!(
        keys(&one["replay"]["cache"]),
        ["hit_rate", "hits", "misses", "uncached"]
    );
    assert_eq!(
        keys(&one["replay"]["latency"]),
        ["count", "p50", "p99", "p999", "source", "unit"]
    );
    let segments = |section: &str| match &one[section]["segments"] {
        Json::Arr(segments) => segments.as_slice(),
        other => panic!("{section} segments: {other}"),
    };
    assert_eq!(segments("workload").len(), 3);
    assert_eq!(keys(&segments("workload")[0]), ["epoch", "queries"]);
    assert_eq!(segments("replay").len(), 3);
    assert_eq!(
        keys(&segments("replay")[0]),
        ["answer_digest", "dropped", "epoch", "lookups", "matched"]
    );

    assert_eq!(one["bench"], Json::from("replay"));
    assert_eq!(one["workload"]["preset"], Json::from("churn"));
    assert_eq!(one["workload"]["seed"], Json::Int(9));
    assert_eq!(one["workload"]["queries"], Json::Int(6000));
    // Digests are 16 lowercase hex digits, as `hash_hex` prints them.
    for digest in [
        &one["replay"]["answer_digest"],
        &one["workload"]["trace_digest"],
    ] {
        let Json::Str(digest) = digest else {
            panic!("digest string: {digest}");
        };
        assert_eq!(digest.len(), 16, "{digest}");
        assert!(
            digest
                .bytes()
                .all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')),
            "{digest}"
        );
    }
    assert!(
        matches!(one["replay"]["lookups_per_sec"], Json::Num(rate) if rate > 0.0),
        "{}",
        one["replay"]["lookups_per_sec"]
    );
    // Every lookup lands in exactly one cache-accounting bucket, and
    // the trace drew from a non-empty prefix universe.
    let count = |v: &Json| match v {
        Json::Int(n) => *n,
        other => panic!("count: {other}"),
    };
    let cache = &one["replay"]["cache"];
    assert_eq!(
        count(&cache["hits"]) + count(&cache["misses"]) + count(&cache["uncached"]),
        6000
    );
    let universe = &one["workload"]["universe"];
    assert!(count(&universe["v4_blocks"]) + count(&universe["v6_blocks"]) > 0);

    // Same trace, same answers — across two live hot-patches.
    assert_eq!(
        one["workload"]["trace_digest"],
        tcp["workload"]["trace_digest"]
    );
    assert_eq!(
        one["replay"]["answer_digest"], tcp["replay"]["answer_digest"],
        "daemon answers diverge from the engine replay"
    );
    assert_eq!(tcp["replay"]["dropped"], Json::Int(0));
    assert_eq!(tcp["replay"]["lookups"], Json::Int(6000));

    std::fs::remove_dir_all(&dir).ok();
}

/// Sealed traces replay verbatim through `--trace-in`; a corrupted
/// trace is bad data (exit 4) and a bogus preset is a usage error
/// (exit 2).
#[test]
fn replay_traces_reload_verbatim_and_reject_corruption() {
    let dir = tmpdir("replay_trace");
    let trace = dir.join("scan.cload");
    let trace_s = trace.to_str().expect("utf8");
    let first = dir.join("first.json");
    let second = dir.join("second.json");

    let out = run(&[
        "replay",
        "--preset",
        "scan",
        "--scale",
        "mini",
        "--queries",
        "4000",
        "--trace-out",
        trace_s,
        "--out",
        first.to_str().expect("utf8"),
    ]);
    assert!(out.status.success(), "scan replay failed: {out:?}");

    // Replay the sealed file — no --preset, no --seed: everything the
    // generator knew is in the trace.
    let out = run(&[
        "replay",
        "--scale",
        "mini",
        "--trace-in",
        trace_s,
        "--out",
        second.to_str().expect("utf8"),
    ]);
    assert!(out.status.success(), "trace-in replay failed: {out:?}");
    let a = read_json(&first);
    let b = read_json(&second);
    assert_eq!(
        a["workload"], b["workload"],
        "a reloaded trace must describe the identical workload"
    );
    assert_eq!(a["replay"]["answer_digest"], b["replay"]["answer_digest"]);

    // One flipped byte must be rejected as bad data, not replayed.
    let mut bytes = std::fs::read(&trace).expect("trace bytes");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&trace, &bytes).expect("corrupt trace");
    let out = run(&["replay", "--scale", "mini", "--trace-in", trace_s]);
    assert_eq!(
        out.status.code(),
        Some(4),
        "corrupt trace must exit 4: {out:?}"
    );

    let out = run(&["replay", "--preset", "nope"]);
    assert_eq!(
        out.status.code(),
        Some(2),
        "unknown preset must exit 2: {out:?}"
    );
    let out = run(&["replay", "--preset", "steady", "--mode", "carrier-pigeon"]);
    assert_eq!(
        out.status.code(),
        Some(2),
        "unknown mode must exit 2: {out:?}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// `flag_value` only scans for names it knows, so before the
/// per-subcommand table a misspelt or retired flag ran on defaults
/// (`--thresold 0.9` classified at 0.5; `index build --format v1` wrote
/// a v2 file). Both are usage errors now, and every flag the usage text
/// lists for a subcommand still parses there.
#[test]
fn unknown_flags_are_usage_errors() {
    let assert_rejects = |line: &str, flag: &str| {
        let out = run(&line.split_whitespace().collect::<Vec<_>>());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{line}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown flag {flag:?}")),
            "`{line}` must name {flag}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "`{line}` must not run");
    };
    assert_rejects(
        "classify --beacons b.csv --demand d.csv --thresold 0.9",
        "--thresold",
    );
    assert_rejects(
        "index build --beacons b.csv --demand d.csv --format v1 --out x.idx",
        "--format",
    );
    // Removed with the request queue and worker pool they configured.
    assert_rejects("serve --index x.idx --workers 4", "--workers");
    assert_rejects("serve --index x.idx --queue-depth 64", "--queue-depth");
    assert_rejects("serve --index x.idx --max-linger-us 0", "--max-linger-us");
    assert_rejects("replay --preset steady --workers 2", "--workers");

    // Every flag of every command line in the usage text, probed as
    // `<command> <flag> [value] --no-such-flag --nor-this`: the check
    // runs left to right, so the error names `--no-such-flag` exactly
    // when the listed flag parsed as the usage text shows it (a value
    // flag taken for a switch would name its value, a switch taken for
    // a value flag would swallow the marker and name `--nor-this`).
    let help = run(&["--help"]);
    let help = String::from_utf8_lossy(&help.stderr).into_owned();
    let commands = help
        .split("commands:")
        .nth(1)
        .and_then(|rest| rest.split("global flags:").next())
        .expect("usage text has a commands section");
    let mut probed = 0;
    let mut probe = |command: &str, flag: &str, takes_value: bool| {
        let value = if takes_value { "x" } else { "" };
        assert_rejects(
            &format!("{command} {flag} {value} --no-such-flag --nor-this"),
            "--no-such-flag",
        );
        probed += 1;
    };
    let is_flag = |w: &str| w.starts_with("--") || w.starts_with("[--");
    let mut command = String::new();
    for line in commands.lines() {
        let words: Vec<&str> = line.split_whitespace().collect();
        if words
            .first()
            .is_some_and(|w| w.starts_with(char::is_alphabetic))
        {
            let name: Vec<&str> = words.iter().copied().take_while(|w| !is_flag(w)).collect();
            command = name.join(" ");
            probe(&command, "--threads", true);
            // The subcommands the usage text's `--metrics` line names.
            if matches!(
                command.as_str(),
                "classify"
                    | "stream"
                    | "index build"
                    | "delta build"
                    | "lookup"
                    | "serve"
                    | "replay"
            ) {
                probe(&command, "--metrics", true);
                probe(&command, "--metrics-format", true);
            }
        }
        for w in words.iter().filter(|w| is_flag(w)) {
            let flag = w.trim_start_matches('[').trim_end_matches(']');
            probe(&command, flag, !w.ends_with(']'));
        }
    }
    assert!(probed > 100, "usage text parsed: {probed} flags probed");
}

#[test]
fn threshold_flag_is_validated() {
    let dir = tmpdir("threshold");
    let beacons = dir.join("b.csv");
    let demand = dir.join("d.csv");
    std::fs::write(
        &beacons,
        "block,asn,hits_total,netinfo_hits,cellular_hits,wifi_hits,other_hits\n\
         203.0.113.0/24,1,100,50,45,5,0\n",
    )
    .expect("write");
    std::fs::write(&demand, "block,asn,du\n203.0.113.0/24,1,5\n").expect("write");
    let base = [
        "classify",
        "--beacons",
        beacons.to_str().expect("utf8"),
        "--demand",
        demand.to_str().expect("utf8"),
    ];
    let mut bad = base.to_vec();
    bad.extend(["--threshold", "1.5"]);
    let out = run(&bad);
    assert!(!out.status.success());
    let mut good = base.to_vec();
    good.extend(["--threshold", "0.8"]);
    let out = run(&good);
    assert!(out.status.success());
    // Ratio 0.9 ≥ 0.8 → the single block is cellular.
    assert!(String::from_utf8_lossy(&out.stdout).contains("203.0.113.0/24"));
    std::fs::remove_dir_all(&dir).ok();
}
