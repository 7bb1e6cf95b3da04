//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro [--scale mini|demo|paper|<float>] [--seed N] [--threads N]
//!       [--out DIR] [--metrics FILE [--metrics-format json|prometheus]]
//!       [ids…]
//! ```
//!
//! Without ids, all 25 artifacts are produced (the paper's 20 tables and
//! figures plus five extension experiments). Each artifact is printed
//! and written to `DIR/<id>.txt` and `DIR/<id>.csv`; a `summary.txt`
//! collects every headline note (measured vs. paper).
//!
//! `--metrics FILE` additionally exports the full observability snapshot
//! — spans, counters, gauges, histograms — in canonical JSON (default)
//! or Prometheus text format. Its spans (`worldgen`, `datasets`, `dns`,
//! `study/<stage>`, `artifacts`, each with `millis` and `items`) are the
//! one place stage wall-clock is read.
//!
//! `--threads N` (or the `CELLSPOT_THREADS` environment variable) pins
//! the rayon pool for reproducible benchmarking; every result is
//! byte-identical regardless of the thread count.

use std::fs;
use std::path::PathBuf;
use std::str::FromStr;
use std::time::Instant;

use bench::config_for_scale;
use cellobs::{ExportFormat, Observer};
use cellspotting::{Pipeline, PipelineReport};

fn main() {
    let mut scale = "demo".to_string();
    let mut seed: Option<u64> = None;
    let mut threads: Option<usize> = None;
    let mut out_dir = PathBuf::from("results");
    let mut metrics: Option<PathBuf> = None;
    let mut metrics_format = ExportFormat::Json;
    let mut ids: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                scale = args
                    .next()
                    .unwrap_or_else(|| usage("missing --scale value"))
            }
            "--seed" => {
                let v = args.next().unwrap_or_else(|| usage("missing --seed value"));
                seed = Some(v.parse().unwrap_or_else(|_| usage("bad --seed value")));
            }
            "--threads" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| usage("missing --threads value"));
                threads = Some(v.parse().unwrap_or_else(|_| usage("bad --threads value")));
            }
            "--out" => {
                out_dir = PathBuf::from(args.next().unwrap_or_else(|| usage("missing --out value")))
            }
            "--metrics" => {
                metrics = Some(PathBuf::from(
                    args.next()
                        .unwrap_or_else(|| usage("missing --metrics value")),
                ))
            }
            "--metrics-format" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| usage("missing --metrics-format value"));
                metrics_format = ExportFormat::from_str(&v).unwrap_or_else(|e| usage(&e));
            }
            "--help" | "-h" => usage(""),
            id => ids.push(id.to_string()),
        }
    }

    // Shared precedence: --threads beats CELLSPOT_THREADS beats auto.
    let choice = cellspot::resolve_threads(threads);
    if let Some(n) = cellspot::configure_threads(choice) {
        eprintln!(
            "rayon pool pinned to {n} thread(s) (from {})",
            choice.source()
        );
    }

    let mut config = config_for_scale(&scale).unwrap_or_else(|e| usage(&e));
    if let Some(s) = seed {
        config.seed = s;
    }

    let obs = if metrics.is_some() {
        Observer::enabled()
    } else {
        Observer::disabled()
    };

    eprintln!(
        "generating world (block_scale {:.3}, seed {:#x}) …",
        config.block_scale, config.seed
    );
    let t0 = Instant::now();
    let run = Pipeline::new(config)
        .observer(obs.clone())
        .run()
        .expect("the default study config is valid");
    let dns = run.dns.as_ref().expect("the facade generates DNS");
    eprintln!(
        "world: {} operators, {} blocks; BEACON {} blocks, DEMAND {} blocks ({:.1}s)",
        run.world.operators.ops.len(),
        run.world.blocks.records.len(),
        run.beacons.len(),
        run.demand.len(),
        t0.elapsed().as_secs_f64()
    );

    let mut span = obs.span("artifacts");
    let mut artifacts = report::all_artifacts(&run.study, &run.world.as_db, dns);
    artifacts.extend(report::ablation_artifacts(&run.study, &run.world.as_db));
    artifacts.push(temporal_artifact(&run));
    span.set_items(artifacts.len() as u64);
    drop(span);
    fs::create_dir_all(&out_dir).expect("create output directory");

    let mut summary = String::new();
    summary.push_str(&format!(
        "Cell Spotting reproduction — scale {scale}, seed {:#x}\n\n",
        run.world.config.seed
    ));
    let mut produced = 0;
    for a in &artifacts {
        if !ids.is_empty() && !ids.iter().any(|i| i == a.id) {
            continue;
        }
        let text = a.render();
        println!("{text}");
        fs::write(out_dir.join(format!("{}.txt", a.id)), &text).expect("write artifact text");
        fs::write(out_dir.join(format!("{}.csv", a.id)), a.to_csv()).expect("write artifact csv");
        summary.push_str(&format!("== {} — {} ==\n", a.id, a.title));
        for n in &a.notes {
            summary.push_str(&format!("  - {n}\n"));
        }
        summary.push('\n');
        produced += 1;
    }
    fs::write(out_dir.join("summary.txt"), &summary).expect("write summary");
    if let Some(path) = &metrics {
        fs::write(path, metrics_format.render(&obs.snapshot())).expect("write metrics export");
        eprintln!("metrics ({metrics_format}) → {}", path.display());
    }
    eprintln!(
        "wrote {produced} artifacts to {} in {:.1}s total",
        out_dir.display(),
        t0.elapsed().as_secs_f64()
    );
    if produced == 0 {
        usage("no artifact ids matched; valid ids are table1..table8, fig1..fig12");
    }
}

/// The §8 future-work extension: evolve the world over six months,
/// re-measure and re-classify each month, and analyze the stability of
/// the cellular set.
fn temporal_artifact(run: &PipelineReport) -> report::Artifact {
    use rayon::prelude::*;
    let churn = worldgen::ChurnConfig::default();
    // Months are independent (each derives deterministically from the
    // base world and its month index), so they re-measure in parallel
    // and collect in month order.
    let month_ids: Vec<u32> = (0..=6).collect();
    let months: Vec<(cellspot::Classification, cellspot::BlockIndex)> = month_ids
        .par_iter()
        .map(|&m| {
            let w = worldgen::world_at_month(&run.world, &churn, m);
            let (beacons, demand) = cdnsim::generate_datasets(&w);
            let index = cellspot::BlockIndex::build(&beacons, &demand);
            let class = cellspot::Classification::with_default_threshold(&index);
            (class, index)
        })
        .collect();
    let analysis = cellspot::TemporalAnalysis::build(&months);
    report::experiments::ext_temporal(&analysis)
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: repro [--scale mini|demo|paper|<float>] [--seed N] [--threads N] [--out DIR]\n\
         \x20            [--metrics FILE [--metrics-format json|prometheus]] [ids…]\n\
         ids: table1 table2 table3 table4 table5 table6 table7 table8\n\
              fig1 fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12\n\
              ext-asn-level ext-granularity ext-rules ext-confidence ext-temporal"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}
