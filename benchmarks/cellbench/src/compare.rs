//! `cellbench compare <base> <new>`: the regression gate.
//!
//! Each side is a record file or a directory of record files (one
//! run-set). For every workload both sides have, and every end-to-end
//! metric of `BENCHMARK.json` (`spec::END_TO_END`; a test keeps the two
//! equal), the medians are compared under the metric's own bound; one
//! row is printed per (workload, metric), and one for `failed_share`,
//! whose bound is 0.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use cellserve::hash_hex;

use crate::record::Record;
use crate::spec::{self, Better};
use crate::stats::summarize;

/// The verdict on one (workload, metric) pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The new median is better, or every new run beats every base run.
    Better,
    /// Worse by no more than the bound.
    WithinBound,
    /// Worse by more than the bound.
    Regressed,
    /// The run-to-run spread is wider than the bound, so neither
    /// "unchanged" nor "regressed" can be said.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within bound",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// A gated metric as `BENCHMARK.json` declares it.
#[derive(Clone, Debug, PartialEq)]
pub struct Gate {
    /// Metric name.
    pub name: String,
    /// `true` when larger is better.
    pub higher_is_better: bool,
    /// Share of the base median by which the metric may worsen.
    pub bound: f64,
}

/// The gates of the contract, plus `failed_share` at bound 0: any rise
/// in the share of operations that failed is a regression.
pub fn gates() -> Vec<Gate> {
    let mut gates: Vec<Gate> = spec::END_TO_END
        .iter()
        .map(|m| Gate {
            name: m.name.to_owned(),
            higher_is_better: m.better == Better::Higher,
            bound: m.bound,
        })
        .collect();
    gates.push(Gate {
        name: "failed_share".to_owned(),
        higher_is_better: false,
        bound: 0.0,
    });
    gates
}

/// Decide one pair from the per-run values of each side. The spread is
/// the run-to-run interquartile range over the median, taken on the
/// noisier side; a side with fewer than three runs has no spread to
/// take (`None`), and the bound alone decides.
pub fn decide(gate: &Gate, base: &[f64], new: &[f64]) -> (Verdict, f64, Option<f64>) {
    let (b, n) = (summarize(base), summarize(new));
    let spread = (b.n >= 3 && n.n >= 3).then(|| b.spread().max(n.spread()));
    // Positive = worse, as a share of the base median (of 1, where the
    // base median is 0: a share of failures that rises from nothing).
    let scale = if b.median == 0.0 { 1.0 } else { b.median };
    let worse_by = if gate.higher_is_better {
        (b.median - n.median) / scale
    } else {
        (n.median - b.median) / scale
    };
    let beats = |x: f64, y: f64| if gate.higher_is_better { x > y } else { x < y };
    let every_run_better = new.iter().all(|x| base.iter().all(|y| beats(*x, *y)));
    let verdict = if every_run_better {
        Verdict::Better
    } else if spread.is_some_and(|s| s > gate.bound) {
        Verdict::Unresolved
    } else if worse_by > gate.bound {
        Verdict::Regressed
    } else if worse_by < 0.0 {
        Verdict::Better
    } else {
        Verdict::WithinBound
    };
    (verdict, worse_by, spread)
}

/// The record files an argument names: itself, or every `*.json` in
/// the directory that is not a span trace.
fn record_paths(arg: &Path) -> Result<Vec<PathBuf>, String> {
    if !arg.is_dir() {
        return Ok(vec![arg.to_path_buf()]);
    }
    let mut paths: Vec<PathBuf> = std::fs::read_dir(arg)
        .map_err(|e| format!("{}: {e}", arg.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| {
            p.extension().is_some_and(|x| x == "json")
                && !p.to_string_lossy().ends_with(".trace.json")
        })
        .collect();
    paths.sort();
    Ok(paths)
}

/// Untraced records of a side, by workload.
fn load_side(arg: &Path) -> Result<BTreeMap<String, Vec<Record>>, String> {
    let mut by_workload: BTreeMap<String, Vec<Record>> = BTreeMap::new();
    for path in record_paths(arg)? {
        let record = Record::read(&path)?;
        if !record.traced {
            by_workload
                .entry(record.workload.clone())
                .or_default()
                .push(record);
        }
    }
    if by_workload.is_empty() {
        return Err(format!("{}: no untraced cellbench records", arg.display()));
    }
    Ok(by_workload)
}

/// What `compare` found.
pub struct Comparison {
    /// The printed table.
    pub table: String,
    /// Number of regressed pairs.
    pub regressed: usize,
}

/// Compare two sides under [`gates`].
///
/// # Errors
/// Refuses — before judging any number — a smoke record against a full
/// one, records built against different dependency sets, and records of
/// the same (workload, seed) whose input or answer digests or exact
/// counts differ: those are different workloads, or different labels,
/// and the series restarts.
pub fn compare(base: &Path, new: &Path) -> Result<Comparison, String> {
    let gates = gates();
    let (base_side, new_side) = (load_side(base)?, load_side(new)?);
    let mut table = format!(
        "{:<12} {:<18} {:>14} {:>14} {:>8} {:>7} {:>7}  verdict\n",
        "workload", "metric", "base", "new", "change", "spread", "bound"
    );
    let mut regressed = 0;
    for (workload, base_records) in &base_side {
        let Some(new_records) = new_side.get(workload) else {
            continue;
        };
        for b in base_records {
            for n in new_records {
                if b.smoke != n.smoke {
                    return Err(format!(
                        "{workload}: refusing to compare a smoke record with a full one"
                    ));
                }
                if b.deps != n.deps {
                    return Err(format!(
                        "{workload}: refusing to compare a build against {} with one against {}",
                        b.deps, n.deps
                    ));
                }
                if b.seconds != n.seconds {
                    return Err(format!(
                        "{workload}: refusing to compare runs of {} s and {} s",
                        b.seconds, n.seconds
                    ));
                }
                if b.seed != n.seed {
                    continue;
                }
                if b.trace_digest != n.trace_digest || b.answer_digest != n.answer_digest {
                    return Err(format!(
                        "{workload} seed {}: digests differ (trace {} vs {}, answers {} vs {}) — the workload or the labels changed, the series restarts",
                        b.seed,
                        hash_hex(b.trace_digest),
                        hash_hex(n.trace_digest),
                        hash_hex(b.answer_digest),
                        hash_hex(n.answer_digest)
                    ));
                }
                for m in b.metrics.0.iter().filter(|m| m.exact) {
                    if let Some(other) = n.metrics.get(&m.name) {
                        if other.value != m.value {
                            return Err(format!(
                                "{workload} seed {}: exact count `{}` differs ({} vs {})",
                                b.seed, m.name, m.value, other.value
                            ));
                        }
                    }
                }
            }
        }
        for gate in &gates {
            // A slot reads the named metric `spec::SLOTS` assigns it.
            let (source, scale) = spec::source_of(workload, &gate.name);
            let values = |records: &[Record]| -> Result<Vec<f64>, String> {
                records
                    .iter()
                    .map(|r| {
                        r.metrics
                            .get(source)
                            .map(|m| m.value * scale)
                            .ok_or_else(|| format!("{workload}: a record has no `{source}`"))
                    })
                    .collect()
            };
            let (base_values, new_values) = (values(base_records)?, values(new_records)?);
            let (verdict, worse_by, spread) = decide(gate, &base_values, &new_values);
            regressed += usize::from(verdict == Verdict::Regressed);
            table.push_str(&format!(
                "{:<12} {:<18} {:>14.4} {:>14.4} {:>+7.2}% {:>7} {:>6.2}%  {}\n",
                workload,
                gate.name,
                summarize(&base_values).median,
                summarize(&new_values).median,
                // Shown in the metric's own direction: positive = the value went up.
                if gate.higher_is_better {
                    -worse_by * 100.0
                } else {
                    worse_by * 100.0
                },
                spread.map_or_else(|| "n/a".to_owned(), |s| format!("{:.2}%", s * 100.0)),
                gate.bound * 100.0,
                verdict.label()
            ));
        }
    }
    Ok(Comparison { table, regressed })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate(higher: bool, bound: f64) -> Gate {
        Gate {
            name: "m".to_owned(),
            higher_is_better: higher,
            bound,
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        // 3 % slower under a 10 % bound.
        assert_eq!(
            decide(&gate(false, 0.10), &steady, &steady.map(|v| v * 1.03)).0,
            Verdict::WithinBound
        );
        // 20 % slower.
        assert_eq!(
            decide(&gate(false, 0.10), &steady, &steady.map(|v| v * 1.2)).0,
            Verdict::Regressed
        );
        // 20 % faster, lower-is-better and higher-is-better.
        assert_eq!(
            decide(&gate(false, 0.10), &steady, &steady.map(|v| v * 0.8)).0,
            Verdict::Better
        );
        assert_eq!(
            decide(&gate(true, 0.10), &steady, &steady.map(|v| v * 1.2)).0,
            Verdict::Better
        );
        assert_eq!(
            decide(&gate(true, 0.05), &steady, &steady.map(|v| v * 0.9)).0,
            Verdict::Regressed
        );
        // Spread wider than the bound: nothing can be said either way …
        let noisy = [80.0, 120.0, 100.0, 90.0, 110.0];
        assert_eq!(
            decide(&gate(false, 0.10), &noisy, &noisy.map(|v| v * 1.05)).0,
            Verdict::Unresolved
        );
        // … unless every new run beats every base run.
        assert_eq!(
            decide(&gate(false, 0.10), &noisy, &noisy.map(|v| v * 0.5)).0,
            Verdict::Better
        );
        // One run a side: no spread to take, the bound alone decides.
        assert_eq!(
            decide(&gate(false, 0.10), &[100.0], &[104.0]),
            (Verdict::WithinBound, 0.04, None)
        );
        assert_eq!(
            decide(&gate(false, 0.10), &[100.0], &[115.0]).0,
            Verdict::Regressed
        );
    }
}
