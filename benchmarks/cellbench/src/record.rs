//! The one record shape every workload writes, and the result line the
//! benchmark contract asks for.

use std::path::Path;

use cellserve::hash_hex;

use crate::json::Json;
use crate::obj;
use crate::spec;
use crate::stats::Summary;

/// Version of the record layout.
pub const SCHEMA: u64 = 1;

/// One measured quantity.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name (a `spec` name, or an extra the workload prints besides).
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit.
    pub unit: String,
    /// Median, quartiles and count of the samples behind `value`, for
    /// metrics that summarise samples.
    pub samples: Option<Summary>,
    /// A count that must repeat exactly for the same seed and commit.
    pub exact: bool,
}

/// The metrics of one run, in the order they were measured.
#[derive(Clone, Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    fn push(&mut self, name: &str, value: f64, unit: &str, samples: Option<Summary>, exact: bool) {
        self.0.push(Metric {
            name: name.to_owned(),
            value,
            unit: unit.to_owned(),
            samples,
            exact,
        });
    }

    /// A timing or rate.
    pub fn put(&mut self, name: &str, value: f64, unit: &str) {
        self.push(name, value, unit, None, false);
    }

    /// A value that summarises `samples` (already in `unit`).
    pub fn put_summarized(&mut self, name: &str, value: f64, unit: &str, samples: Summary) {
        self.push(name, value, unit, Some(samples), false);
    }

    /// A count or ratio of counts that repeats exactly for the same seed.
    pub fn put_exact(&mut self, name: &str, value: f64, unit: &str) {
        self.push(name, value, unit, None, true);
    }

    /// The metric of that name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.0.iter().find(|m| m.name == name)
    }
}

/// Everything one `cellbench run` measured.
#[derive(Clone, Debug)]
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// The `--seed` argument.
    pub seed: u64,
    /// The `--seconds` argument the work counts were scaled to.
    pub seconds: u64,
    /// Mini world and ~1/100 counts: never comparable to a full run.
    pub smoke: bool,
    /// Whether spans were recorded (per-layer run).
    pub traced: bool,
    /// Which dependency set the binary was built against: `crates.io`,
    /// or `standins` (the offline stand-ins of `standins/`). Numbers of
    /// the two are never comparable.
    pub deps: String,
    /// Digest of the generated inputs.
    pub trace_digest: u64,
    /// Digest of the verified outputs.
    pub answer_digest: u64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The frozen work counts this run used.
    pub plan: Json,
    /// CPU model, core count, kernel.
    pub machine: Json,
    /// What was measured.
    pub metrics: Metrics,
}

/// The dependency set this binary was built against. `bench.sh`'s
/// offline configuration (`standins/offline.toml`) sets the variable at
/// compile time; a plain build leaves it unset.
pub fn built_against() -> &'static str {
    match option_env!("CELLBENCH_DEPS") {
        Some("standins") => "standins",
        _ => "crates.io",
    }
}

impl Record {
    /// Every end-to-end metric of the contract as this workload reports
    /// it — a slot reads the named metric `spec::SLOTS` assigns it —
    /// with the name of the metric it was read from.
    pub fn end_to_end(&self) -> Result<Vec<(spec::EndToEnd, &str, f64)>, String> {
        spec::END_TO_END
            .iter()
            .map(|m| {
                let (source, scale) = spec::source_of(&self.workload, m.name);
                let got = self
                    .metrics
                    .get(source)
                    .ok_or_else(|| format!("{} did not measure `{source}`", self.workload))?;
                let value = got.value * scale;
                if value.is_nan() || value <= 0.0 {
                    return Err(format!(
                        "end-to-end metric `{}` must be positive, measured {value}",
                        m.name
                    ));
                }
                Ok((*m, source, value))
            })
            .collect()
    }

    /// The record as a JSON document.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .0
            .iter()
            .map(|m| {
                let mut members = vec![
                    ("value".to_owned(), Json::from(m.value)),
                    ("unit".to_owned(), Json::from(m.unit.as_str())),
                ];
                if let Some(s) = m.samples {
                    members.push(("n".to_owned(), Json::from(s.n)));
                    members.push(("q1".to_owned(), Json::from(s.q1)));
                    members.push(("median".to_owned(), Json::from(s.median)));
                    members.push(("q3".to_owned(), Json::from(s.q3)));
                }
                if m.exact {
                    members.push(("exact".to_owned(), Json::from(true)));
                }
                (m.name.clone(), Json::Obj(members))
            })
            .collect();
        obj! {
            "schema" => SCHEMA,
            "bench" => "cellbench",
            "workload" => self.workload.as_str(),
            "seed" => self.seed,
            "seconds" => self.seconds,
            "smoke" => self.smoke,
            "traced" => self.traced,
            "deps" => self.deps.as_str(),
            "trace_digest" => hash_hex(self.trace_digest),
            "answer_digest" => hash_hex(self.answer_digest),
            "correct" => true,
            "attempted" => self.attempted,
            "failed" => self.failed,
            "plan" => self.plan.clone(),
            "machine" => self.machine.clone(),
            "metrics" => Json::Obj(metrics),
        }
    }

    /// Read a record back.
    pub fn from_json(doc: &Json) -> Result<Record, String> {
        let field = |name: &str| {
            doc.get(name)
                .ok_or_else(|| format!("record has no `{name}`"))
        };
        let num = |name: &str| {
            field(name)?
                .as_f64()
                .ok_or_else(|| format!("record `{name}` is not a number"))
        };
        let flag = |name: &str| {
            field(name)?
                .as_bool()
                .ok_or_else(|| format!("record `{name}` is not a boolean"))
        };
        let text = |name: &str| {
            field(name)?
                .as_str()
                .ok_or_else(|| format!("record `{name}` is not a string"))
        };
        let digest = |name: &str| {
            u64::from_str_radix(text(name)?, 16)
                .map_err(|_| format!("record `{name}` is not a hex digest"))
        };
        if field("bench")?.as_str() != Some("cellbench") || num("schema")? as u64 != SCHEMA {
            return Err(format!("not a cellbench schema-{SCHEMA} record"));
        }
        let mut metrics = Metrics::default();
        for (name, m) in field("metrics")?
            .as_obj()
            .ok_or("record `metrics` is not an object")?
        {
            let get = |key: &str| m.get(key).and_then(Json::as_f64);
            let samples = match (get("n"), get("q1"), get("median"), get("q3")) {
                (Some(n), Some(q1), Some(median), Some(q3)) => Some(Summary {
                    n: n as usize,
                    q1,
                    median,
                    q3,
                }),
                _ => None,
            };
            metrics.0.push(Metric {
                name: name.clone(),
                value: get("value").ok_or_else(|| format!("metric `{name}` has no value"))?,
                unit: m
                    .get("unit")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_owned(),
                samples,
                exact: m.get("exact").and_then(Json::as_bool).unwrap_or(false),
            });
        }
        Ok(Record {
            workload: text("workload")?.to_owned(),
            seed: num("seed")? as u64,
            seconds: num("seconds")? as u64,
            smoke: flag("smoke")?,
            traced: flag("traced")?,
            deps: text("deps")?.to_owned(),
            trace_digest: digest("trace_digest")?,
            answer_digest: digest("answer_digest")?,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            plan: field("plan")?.clone(),
            machine: field("machine")?.clone(),
            metrics,
        })
    }

    /// Read a record file.
    pub fn read(path: &Path) -> Result<Record, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Json::parse(&text)
            .and_then(|doc| Record::from_json(&doc))
            .map_err(|e| format!("{}: {e}", path.display()))
    }

    /// The last line of standard output: exactly the contract's keys,
    /// with every end-to-end metric (untraced run) or every per-layer
    /// metric (traced run; 0 for a layer this workload does not enter).
    pub fn result_line(&self) -> Result<String, String> {
        let mut members = Vec::new();
        if self.traced {
            for m in spec::PER_LAYER {
                let value = self.metrics.get(m.name).map_or(0.0, |x| x.value);
                members.push((m.name.to_owned(), obj! {"value" => value, "unit" => m.unit}));
            }
        } else {
            for (m, _, value) in self.end_to_end()? {
                members.push((m.name.to_owned(), obj! {"value" => value, "unit" => m.unit}));
            }
        }
        Ok(obj! {
            "correct" => true,
            "attempted" => self.attempted,
            "failed" => self.failed,
            "metrics" => Json::Obj(members),
        }
        .compact())
    }

    /// Every metric by name with its unit, one per line; the two slots
    /// of the contract first, each with the metric it reads.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let slots = self.end_to_end().unwrap_or_default();
        for (m, source, value) in slots.iter().filter(|(m, source, _)| m.name != *source) {
            out.push_str(&format!(
                "{:<44} {:>16} {}   (= {source})\n",
                m.name,
                format_value(*value),
                m.unit
            ));
        }
        for m in &self.metrics.0 {
            out.push_str(&format!(
                "{:<44} {:>16} {}",
                m.name,
                format_value(m.value),
                m.unit
            ));
            if let Some(s) = m.samples {
                out.push_str(&format!(
                    "   (n={} q1={} median={} q3={})",
                    s.n,
                    format_value(s.q1),
                    format_value(s.median),
                    format_value(s.q3)
                ));
            }
            out.push('\n');
        }
        out
    }
}

fn format_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.4}")
    }
}

/// CPU model, core count and kernel of the machine the run is on.
pub fn machine() -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_owned(), |s| s.trim().to_owned());
    obj! {
        "cpu" => cpu,
        "nproc" => std::thread::available_parallelism().map_or(1, usize::from),
        "kernel" => kernel,
        "os" => std::env::consts::OS,
        "arch" => std::env::consts::ARCH,
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

/// Minor page faults and CPU ticks of this process so far (all
/// threads), from `/proc/self/stat`.
#[derive(Clone, Copy, Debug)]
pub struct Usage {
    minor_faults: u64,
    user_ticks: u64,
    sys_ticks: u64,
}

impl Usage {
    /// Read the counters now.
    pub fn now() -> Result<Usage, String> {
        let stat = std::fs::read_to_string("/proc/self/stat")
            .map_err(|e| format!("/proc/self/stat: {e}"))?;
        // The command name (field 2) may hold spaces; the numbered
        // fields start after its closing parenthesis, at field 3.
        let fields: Vec<&str> = stat
            .rsplit_once(')')
            .map_or("", |(_, rest)| rest)
            .split_whitespace()
            .collect();
        let field = |no: usize| {
            fields
                .get(no - 3)
                .and_then(|f| f.parse::<u64>().ok())
                .ok_or_else(|| format!("/proc/self/stat has no numeric field {no}"))
        };
        Ok(Usage {
            minor_faults: field(10)?,
            user_ticks: field(14)?,
            sys_ticks: field(15)?,
        })
    }

    /// Minor faults taken since `earlier`, and the share of the CPU
    /// time used since then that was spent in the kernel.
    pub fn since(&self, earlier: &Usage) -> (u64, f64) {
        let sys = self.sys_ticks - earlier.sys_ticks;
        let total = sys + self.user_ticks - earlier.user_ticks;
        (
            self.minor_faults - earlier.minor_faults,
            if total == 0 {
                0.0
            } else {
                sys as f64 / total as f64
            },
        )
    }
}
