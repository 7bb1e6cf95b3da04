//! `BENCHMARK.json` is `spec::benchmark_json()` printed, and obeys the
//! limits of the benchmark contract it is checked against.

use std::collections::BTreeSet;
use std::path::Path;

use cellbench::json::Json;
use cellbench::spec;

fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn the_committed_contract_is_the_spec_printed() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024);
    assert_eq!(
        Json::parse(&text).expect("BENCHMARK.json parses"),
        spec::benchmark_json(),
        "BENCHMARK.json and src/spec.rs must change together"
    );
}

#[test]
fn the_spec_obeys_the_contract_limits() {
    let doc = spec::benchmark_json();
    let keys: Vec<&str> = doc
        .as_obj()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );

    let command = doc.get("command").and_then(Json::as_arr).expect("command");
    assert!(command.len() <= 32);
    for part in command {
        let part = part.as_str().expect("string");
        assert!(part.len() <= 200 && !part.starts_with('/') && !part.split('/').any(|c| c == ".."));
    }
    assert!((1..=16).contains(&spec::PATHS.len()));
    assert!((1..=60).contains(&spec::RUN_SECONDS));

    let mut names = BTreeSet::new();
    assert!((2..=8).contains(&spec::WORKLOADS.len()));
    for (name, why) in spec::WORKLOADS {
        assert!(is_name(name), "{name}");
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "{name}: why is {} characters",
            why.len()
        );
        assert!(names.insert(name), "{name} is used twice");
    }
    assert!((1..=16).contains(&spec::END_TO_END.len()));
    for m in spec::END_TO_END {
        assert!(is_name(m.name) && is_unit(m.unit), "{}", m.name);
        assert!((0.0..=0.25).contains(&m.bound), "{}", m.name);
        assert!(names.insert(m.name), "{} is used twice", m.name);
    }
    let setup = spec::END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert!(setup.unit == "s" && setup.better == spec::Better::Lower);
    assert!(
        spec::END_TO_END.iter().all(|m| m.bound <= setup.bound),
        "setup_s carries the largest bound"
    );
    for s in spec::SLOTS {
        assert!(spec::WORKLOADS.iter().any(|(w, _)| *w == s.workload));
        assert!(spec::END_TO_END.iter().any(|m| m.name == s.slot));
        assert!(
            spec::PER_LAYER.iter().any(|m| m.name == s.source),
            "{} reads a listed metric",
            s.slot
        );
    }
    assert!((1..=128).contains(&spec::PER_LAYER.len()));
    for m in spec::PER_LAYER {
        assert!(is_name(m.name) && is_unit(m.unit), "{}", m.name);
        assert!(names.insert(m.name), "{} is used twice", m.name);
    }
}
