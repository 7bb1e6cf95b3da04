//! `cellbench ledger add`: the index of committed baseline records.
//!
//! `ledger.jsonl` has one line per record, keyed on (commit, machine,
//! workload, seed, trace digest, run label, traced); a second record
//! with the same key is refused — the `UNIQUE(input_hash, accessor_path)`
//! shape: one measurement per identified input, ever.

use std::io::Write as _;
use std::path::Path;

use crate::json::Json;
use crate::obj;
use cellserve::hash_hex;

use crate::record::Record;

/// What identifies a ledger line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Key {
    /// Commit of the code measured.
    pub commit: String,
    /// Name of the machine it ran on.
    pub machine: String,
    /// Workload name.
    pub workload: String,
    /// Run seed.
    pub seed: u64,
    /// Input digest, hex.
    pub trace_digest: String,
    /// Label of the run-set (`set1`, `set2`, …).
    pub run: String,
    /// Per-layer (traced) or end-to-end (untraced) record.
    pub traced: bool,
}

impl Key {
    fn of_line(line: &Json) -> Option<Key> {
        Some(Key {
            commit: line.get("commit")?.as_str()?.to_owned(),
            machine: line.get("machine")?.as_str()?.to_owned(),
            workload: line.get("workload")?.as_str()?.to_owned(),
            seed: line.get("seed")?.as_f64()? as u64,
            trace_digest: line.get("trace_digest")?.as_str()?.to_owned(),
            run: line.get("run")?.as_str()?.to_owned(),
            traced: line.get("traced")?.as_bool()?,
        })
    }
}

/// The ledger line for `record`, stored at `record_path`.
pub fn line_for(
    record: &Record,
    record_path: &str,
    commit: &str,
    machine: &str,
    run: &str,
) -> Json {
    // An untraced record carries every end-to-end metric; a traced one
    // is indexed without a headline.
    let headline: Vec<(String, Json)> = record
        .end_to_end()
        .unwrap_or_default()
        .into_iter()
        .map(|(m, _, value)| (m.name.to_owned(), Json::from(value)))
        .collect();
    obj! {
        "commit" => commit,
        "machine" => machine,
        "workload" => record.workload.as_str(),
        "seed" => record.seed,
        "trace_digest" => hash_hex(record.trace_digest),
        "run" => run,
        "traced" => record.traced,
        "smoke" => record.smoke,
        "deps" => record.deps.as_str(),
        "answer_digest" => hash_hex(record.answer_digest),
        "record" => record_path,
        "end_to_end" => Json::Obj(headline),
    }
}

/// Append `line` to the ledger at `ledger`, refusing a duplicate key.
pub fn add(ledger: &Path, line: &Json) -> Result<(), String> {
    let key = Key::of_line(line).ok_or("ledger line is missing a key field")?;
    let existing = match std::fs::read_to_string(ledger) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
        Err(e) => return Err(format!("{}: {e}", ledger.display())),
    };
    for (no, text) in existing
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let parsed =
            Json::parse(text).map_err(|e| format!("{} line {}: {e}", ledger.display(), no + 1))?;
        if Key::of_line(&parsed).as_ref() == Some(&key) {
            return Err(format!(
                "{}: line {} already records {key:?}",
                ledger.display(),
                no + 1
            ));
        }
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(ledger)
        .map_err(|e| format!("{}: {e}", ledger.display()))?;
    writeln!(file, "{}", line.compact()).map_err(|e| format!("{}: {e}", ledger.display()))
}
