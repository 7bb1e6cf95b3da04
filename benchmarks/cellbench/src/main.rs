//! The `cellbench` command line.
//!
//! ```text
//! cellbench run --workload W --seed N [--seconds S] [--trace 0|1] [--smoke] [--out FILE]
//!               [--expect-answer-digest HEX]
//! cellbench compare <base> <new>
//! cellbench ledger add --ledger FILE --commit C --machine M --run LABEL <record.json>...
//! ```
//!
//! `run` prints every metric by name with its unit, then — as the last
//! line of standard output — the one-line JSON result the benchmark
//! contract asks for. A wrong answer anywhere exits non-zero with no
//! record and no result line.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use cellbench::compare::compare;
use cellbench::record::Record;
use cellbench::trace::Tracer;
use cellbench::workloads::{self, RunArgs};
use cellbench::{ledger, spec};

const USAGE: &str = "usage:
  cellbench run --workload lookup-skew|lookup-scan|serve-tcp|refresh --seed N
                [--seconds S] [--trace 0|1] [--smoke] [--out FILE]
                [--expect-answer-digest HEX]
  cellbench compare <base.json|dir> <new.json|dir>
  cellbench ledger add --ledger FILE --commit C --machine M --run LABEL <record.json>...";

/// `--name value` pairs and bare words of an argument list.
struct Args {
    flags: Vec<(String, String)>,
    words: Vec<String>,
}

impl Args {
    /// `switches` are flags that take no value.
    fn parse(raw: &[String], switches: &[&str]) -> Result<Args, String> {
        let (mut flags, mut words) = (Vec::new(), Vec::new());
        let mut it = raw.iter();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some(name) if switches.contains(&name) => {
                    flags.push((name.to_owned(), "1".to_owned()))
                }
                Some(name) => {
                    let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                    flags.push((name.to_owned(), value.clone()));
                }
                None => words.push(arg.clone()),
            }
        }
        Ok(Args { flags, words })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn required(&self, name: &str) -> Result<&str, String> {
        self.get(name)
            .ok_or_else(|| format!("--{name} is required"))
    }

    fn number(&self, name: &str, default: Option<u64>) -> Result<u64, String> {
        match (self.get(name), default) {
            (Some(v), _) => v
                .parse()
                .map_err(|_| format!("--{name}: `{v}` is not a whole number")),
            (None, Some(d)) => Ok(d),
            (None, None) => Err(format!("--{name} is required")),
        }
    }

    fn only(&self, known: &[&str]) -> Result<(), String> {
        match self
            .flags
            .iter()
            .find(|(n, _)| !known.contains(&n.as_str()))
        {
            Some((n, _)) => Err(format!("unknown option --{n}")),
            None => Ok(()),
        }
    }
}

fn run(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw, &["smoke"])?;
    args.only(&[
        "workload",
        "seed",
        "seconds",
        "trace",
        "smoke",
        "out",
        "expect-answer-digest",
    ])?;
    if !args.words.is_empty() {
        return Err(format!("unexpected argument `{}`", args.words[0]));
    }
    let workload = args.required("workload")?;
    let run_args = RunArgs {
        seed: args.number("seed", None)?,
        seconds: args.number("seconds", Some(spec::RUN_SECONDS))?,
        traced: match args.number("trace", Some(0))? {
            0 => false,
            1 => true,
            other => return Err(format!("--trace takes 0 or 1, not {other}")),
        },
        smoke: args.get("smoke").is_some(),
    };
    if !(1..=60).contains(&run_args.seconds) {
        return Err(format!(
            "--seconds must be 1..=60, not {}",
            run_args.seconds
        ));
    }
    let mut tracer = Tracer::new(run_args.traced);
    let record = workloads::run(workload, run_args, &mut tracer)?;
    // A pinned digest (a CI job, a test) that the verified answers do
    // not hash to is a wrong answer like any other: no record.
    if let Some(expected) = args.get("expect-answer-digest") {
        let got = cellserve::hash_hex(record.answer_digest);
        if !expected.eq_ignore_ascii_case(&got) {
            return Err(format!("answer digest is {got}, expected {expected}"));
        }
    }
    let result_line = record.result_line()?;
    if let Some(out) = args.get("out") {
        let out = Path::new(out);
        std::fs::write(out, record.to_json().pretty())
            .map_err(|e| format!("{}: {e}", out.display()))?;
        if run_args.traced {
            let mut trace_path = out.as_os_str().to_owned();
            trace_path.push(".trace.json");
            std::fs::write(&trace_path, tracer.to_json().compact())
                .map_err(|e| format!("{}: {e}", Path::new(&trace_path).display()))?;
        }
    }
    println!(
        "cellbench {} seed {} seconds {} {} deps {}{}",
        record.workload,
        record.seed,
        record.seconds,
        if record.traced { "traced" } else { "untraced" },
        record.deps,
        if record.smoke { " SMOKE" } else { "" }
    );
    println!(
        "trace_digest {:016x}  answer_digest {:016x}  attempted {}  failed {}",
        record.trace_digest, record.answer_digest, record.attempted, record.failed
    );
    print!("{}", record.table());
    println!("{result_line}");
    Ok(())
}

fn compare_command(raw: &[String]) -> Result<ExitCode, String> {
    let args = Args::parse(raw, &[])?;
    args.only(&[])?;
    let [base, new] = args.words.as_slice() else {
        return Err("compare takes exactly two records or directories".to_owned());
    };
    let comparison = compare(Path::new(base), Path::new(new))?;
    print!("{}", comparison.table);
    if comparison.regressed > 0 {
        eprintln!(
            "cellbench compare: {} pair(s) regressed beyond their bound",
            comparison.regressed
        );
        return Ok(ExitCode::from(1));
    }
    Ok(ExitCode::SUCCESS)
}

fn ledger_command(raw: &[String]) -> Result<(), String> {
    if raw.first().map(String::as_str) != Some("add") {
        return Err("ledger knows one verb: add".to_owned());
    }
    let args = Args::parse(&raw[1..], &[])?;
    args.only(&["ledger", "commit", "machine", "run"])?;
    let ledger_path = PathBuf::from(args.required("ledger")?);
    let (commit, machine, run_label) = (
        args.required("commit")?,
        args.required("machine")?,
        args.required("run")?,
    );
    if args.words.is_empty() {
        return Err("ledger add needs at least one record file".to_owned());
    }
    // Paths are stored relative to the ledger, so the index moves with
    // the directory it indexes.
    let base = ledger_path
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
        .unwrap_or(Path::new("."));
    for word in &args.words {
        let path = Path::new(word);
        let record = Record::read(path)?;
        let stored = path
            .strip_prefix(base)
            .unwrap_or(path)
            .to_string_lossy()
            .into_owned();
        ledger::add(
            &ledger_path,
            &ledger::line_for(&record, &stored, commit, machine, run_label),
        )?;
        println!("ledger: added {stored}");
    }
    Ok(())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match raw.first().map(String::as_str) {
        Some("run") => run(&raw[1..]).map(|()| ExitCode::SUCCESS),
        Some("compare") => compare_command(&raw[1..]),
        Some("ledger") => ledger_command(&raw[1..]).map(|()| ExitCode::SUCCESS),
        _ => Err(USAGE.to_owned()),
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("cellbench: {message}");
        ExitCode::from(2)
    })
}
