//! The `cellbench` command end to end, on `--smoke` inputs: every
//! workload completes, repeats exactly for a seed, differs across
//! seeds, prints the contract's result line, and a wrong answer leaves
//! no record behind. Also the `compare` gate and the ledger.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use cellbench::json::Json;
use cellbench::record::Record;
use cellbench::spec;

const WORKLOADS: [&str; 4] = ["lookup-skew", "lookup-scan", "serve-tcp", "refresh"];

fn cellbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cellbench"))
        .args(args)
        .output()
        .expect("spawn cellbench")
}

/// A scratch path unique to one test.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cellbench-tests");
    std::fs::create_dir_all(&dir).expect("create scratch directory");
    dir.join(name)
}

fn path_str(p: &Path) -> &str {
    p.to_str().expect("scratch paths are UTF-8")
}

/// Run one smoke workload to `out`, asserting success.
fn smoke(workload: &str, seed: u64, traced: bool, out: &Path) -> (Record, Json) {
    let seed = seed.to_string();
    let output = cellbench(&[
        "run",
        "--workload",
        workload,
        "--seed",
        &seed,
        "--trace",
        if traced { "1" } else { "0" },
        "--smoke",
        "--out",
        path_str(out),
    ]);
    assert!(
        output.status.success(),
        "{workload} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
    let last = stdout.lines().last().expect("a result line");
    (
        Record::read(out).expect("record parses"),
        Json::parse(last).expect("result line is JSON"),
    )
}

fn metric_names(result: &Json) -> Vec<String> {
    result
        .get("metrics")
        .and_then(Json::as_obj)
        .expect("metrics object")
        .iter()
        .map(|(k, _)| k.clone())
        .collect()
}

#[test]
fn every_workload_completes_under_smoke_and_prints_the_contract_line() {
    for workload in WORKLOADS {
        for traced in [false, true] {
            let out = scratch(&format!("smoke-{workload}-{traced}.json"));
            let (record, result) = smoke(workload, 5, traced, &out);
            assert!(record.smoke && record.traced == traced && record.workload == workload);

            let keys: Vec<&str> = result
                .as_obj()
                .expect("object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(
                keys,
                ["correct", "attempted", "failed", "metrics"],
                "{workload}"
            );
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
            assert!(
                result
                    .get("attempted")
                    .and_then(Json::as_f64)
                    .expect("attempted")
                    >= 1.0
            );
            assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
            let expected: Vec<String> = if traced {
                spec::PER_LAYER.iter().map(|m| m.name.to_owned()).collect()
            } else {
                spec::END_TO_END.iter().map(|m| m.name.to_owned()).collect()
            };
            assert_eq!(
                metric_names(&result),
                expected,
                "{workload} traced={traced}"
            );
            if !traced {
                for (name, m) in result
                    .get("metrics")
                    .and_then(Json::as_obj)
                    .expect("metrics")
                {
                    assert!(
                        m.get("value").and_then(Json::as_f64).expect("value") > 0.0,
                        "{workload}: {name} must never be 0"
                    );
                }
            }
            let trace_file = PathBuf::from(format!("{}.trace.json", path_str(&out)));
            assert_eq!(
                trace_file.exists(),
                traced,
                "span file is written exactly when traced"
            );
            if traced {
                let spans = Json::parse(&std::fs::read_to_string(&trace_file).expect("read spans"))
                    .expect("spans parse");
                assert!(!spans
                    .get("spans")
                    .and_then(Json::as_arr)
                    .expect("span list")
                    .is_empty());
            }
        }
    }
}

#[test]
fn a_seed_repeats_exactly_and_another_seed_differs() {
    for workload in WORKLOADS {
        let (a, _) = smoke(
            workload,
            11,
            false,
            &scratch(&format!("det-{workload}-a.json")),
        );
        let (b, _) = smoke(
            workload,
            11,
            false,
            &scratch(&format!("det-{workload}-b.json")),
        );
        let (c, _) = smoke(
            workload,
            12,
            false,
            &scratch(&format!("det-{workload}-c.json")),
        );
        assert_eq!(
            (a.trace_digest, a.answer_digest),
            (b.trace_digest, b.answer_digest),
            "{workload}: same seed, same digests"
        );
        assert_eq!(a.attempted, b.attempted);
        let exact = |r: &Record| -> Vec<(String, f64)> {
            r.metrics
                .0
                .iter()
                .filter(|m| m.exact)
                .map(|m| (m.name.clone(), m.value))
                .collect()
        };
        assert!(!exact(&a).is_empty(), "{workload} reports exact counts");
        assert_eq!(exact(&a), exact(&b), "{workload}: exact counts repeat");
        assert_ne!(
            a.trace_digest, c.trace_digest,
            "{workload}: another seed, other inputs"
        );
        assert_ne!(
            a.answer_digest, c.answer_digest,
            "{workload}: another seed, other answers"
        );
    }
}

#[test]
fn a_wrong_answer_exits_non_zero_and_writes_no_record() {
    let good = scratch("wrong-good.json");
    let (record, _) = smoke("lookup-skew", 21, false, &good);
    // Flip one bit of the digest the answers are expected to hash to.
    let flipped = format!("{:016x}", record.answer_digest ^ 1);
    let bad = scratch("wrong-bad.json");
    let _ = std::fs::remove_file(&bad);
    let output = cellbench(&[
        "run",
        "--workload",
        "lookup-skew",
        "--seed",
        "21",
        "--smoke",
        "--out",
        path_str(&bad),
        "--expect-answer-digest",
        &flipped,
    ]);
    assert!(!output.status.success());
    assert!(!bad.exists(), "no record for a wrong answer");
    assert!(
        !String::from_utf8_lossy(&output.stdout).contains("\"correct\""),
        "no result line either"
    );
    // The true digest passes.
    let right = format!("{:016x}", record.answer_digest);
    assert!(cellbench(&[
        "run",
        "--workload",
        "lookup-skew",
        "--seed",
        "21",
        "--smoke",
        "--expect-answer-digest",
        &right
    ])
    .status
    .success());
}

#[test]
fn bad_arguments_are_refused() {
    for args in [
        &["run", "--workload", "nope", "--seed", "1", "--smoke"][..],
        &["run", "--workload", "refresh", "--smoke"],
        &[
            "run",
            "--workload",
            "refresh",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--smoke",
        ],
        &[
            "run",
            "--workload",
            "refresh",
            "--seed",
            "1",
            "--trace",
            "2",
            "--smoke",
        ],
        &["frobnicate"],
    ] {
        let output = cellbench(args);
        assert!(!output.status.success(), "{args:?} should fail");
        assert!(output.stdout.is_empty(), "{args:?} printed a result");
    }
}

/// Rewrite one top-level field of a record file.
fn edit_record(src: &Path, dst: &Path, field: &str, value: Json) {
    let mut doc =
        Json::parse(&std::fs::read_to_string(src).expect("read record")).expect("record parses");
    let Json::Obj(members) = &mut doc else {
        panic!("record is an object")
    };
    members
        .iter_mut()
        .find(|(k, _)| k == field)
        .expect("field exists")
        .1 = value;
    std::fs::write(dst, doc.pretty()).expect("write record");
}

/// Scale one metric of a record file.
fn scale_metric(src: &Path, dst: &Path, metric: &str, factor: f64) {
    let mut doc =
        Json::parse(&std::fs::read_to_string(src).expect("read record")).expect("record parses");
    let Json::Obj(members) = &mut doc else {
        panic!("record is an object")
    };
    let Json::Obj(metrics) = &mut members
        .iter_mut()
        .find(|(k, _)| k == "metrics")
        .expect("metrics")
        .1
    else {
        panic!("metrics is an object")
    };
    let Json::Obj(fields) = &mut metrics
        .iter_mut()
        .find(|(k, _)| k == metric)
        .expect("metric exists")
        .1
    else {
        panic!("metric is an object")
    };
    let value = &mut fields
        .iter_mut()
        .find(|(k, _)| k == "value")
        .expect("value")
        .1;
    *value = Json::Num(value.as_f64().expect("number") * factor);
    std::fs::write(dst, doc.pretty()).expect("write record");
}

#[test]
fn compare_gates_on_the_bound_and_refuses_unlike_pairs() {
    let base = scratch("cmp-base.json");
    smoke("refresh", 31, false, &base);
    let compare = |new: &Path| cellbench(&["compare", path_str(&base), path_str(new)]);

    // A record against itself: every pair within bound, exit 0.
    let same = compare(&base);
    assert!(
        same.status.success(),
        "{}",
        String::from_utf8_lossy(&same.stderr)
    );
    let table = String::from_utf8(same.stdout).expect("UTF-8");
    for metric in spec::END_TO_END {
        assert!(
            table.lines().any(|l| l.starts_with("refresh")
                && l.contains(metric.name)
                && l.contains("within bound")),
            "{table}"
        );
    }

    assert!(
        table
            .lines()
            .any(|l| l.contains("failed_share") && l.contains("within bound")),
        "{table}"
    );

    // Throughput (on `refresh`, the ingest rate) down by a third:
    // regressed, exit non-zero.
    let slower = scratch("cmp-slower.json");
    scale_metric(&base, &slower, "ingest_events_per_s", 0.66);
    let regressed = compare(&slower);
    assert_eq!(regressed.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&regressed.stdout).contains("REGRESSED"));

    // Throughput up: better, exit 0.
    let faster = scratch("cmp-faster.json");
    scale_metric(&base, &faster, "ingest_events_per_s", 1.5);
    let better = compare(&faster);
    assert!(better.status.success());
    assert!(String::from_utf8_lossy(&better.stdout).contains("better"));

    // Smoke against full, another dependency set, or other digests for
    // the same seed: refused.
    let full = scratch("cmp-full.json");
    edit_record(&base, &full, "smoke", Json::Bool(false));
    let refused = compare(&full);
    assert_eq!(refused.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&refused.stderr).contains("smoke"));
    let other_deps = scratch("cmp-deps.json");
    edit_record(&base, &other_deps, "deps", Json::from("another-set"));
    let refused = compare(&other_deps);
    assert_eq!(refused.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&refused.stderr).contains("another-set"));
    let relabelled = scratch("cmp-relabelled.json");
    edit_record(
        &base,
        &relabelled,
        "answer_digest",
        Json::from("00000000deadbeef"),
    );
    let refused = compare(&relabelled);
    assert_eq!(refused.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&refused.stderr).contains("digests differ"));
}

#[test]
fn the_ledger_refuses_a_duplicate_key() {
    let record = scratch("ledger-record.json");
    smoke("lookup-scan", 41, false, &record);
    let ledger = scratch("ledger.jsonl");
    let _ = std::fs::remove_file(&ledger);
    let add = |run: &str| {
        cellbench(&[
            "ledger",
            "add",
            "--ledger",
            path_str(&ledger),
            "--commit",
            "abc1234",
            "--machine",
            "test-box",
            "--run",
            run,
            path_str(&record),
        ])
    };
    assert!(add("set1").status.success());
    let again = add("set1");
    assert!(!again.status.success());
    assert!(String::from_utf8_lossy(&again.stderr).contains("already records"));
    assert!(
        add("set2").status.success(),
        "another run label is another key"
    );
    let lines: Vec<Json> = std::fs::read_to_string(&ledger)
        .expect("read ledger")
        .lines()
        .map(|l| Json::parse(l).expect("ledger line parses"))
        .collect();
    assert_eq!(lines.len(), 2);
    assert_eq!(
        lines[0].get("workload").and_then(Json::as_str),
        Some("lookup-scan")
    );
    assert_eq!(
        lines[0].get("record").and_then(Json::as_str),
        Some("ledger-record.json"),
        "paths are stored relative to the ledger"
    );
    assert!(lines[0]
        .get("end_to_end")
        .and_then(|e| e.get("throughput_per_s"))
        .is_some());
}
