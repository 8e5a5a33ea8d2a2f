//! Experiment runner: regenerates the paper's tables and figures.
//!
//! ```text
//! experiments [IDS...] [--full] [--smoke] [--json PATH] [--metrics json|PATH]
//!
//!   IDS       experiment ids (e1..e11, a1..a5); default: all
//!   --full    paper-scale corpora (much slower than the default quick run)
//!   --smoke   CI mode: runs only the bound table (A5) on a tiny corpus,
//!             which panics if a bound exceeds the EMD
//!   --json    additionally write the tables as JSON to PATH
//!   --metrics record an emd-obs registry over the whole run and dump it
//!             as schema-versioned JSON ("json" = stdout, else a path)
//! ```

// CLI glue: panicking on a malformed run is the desired behavior.
#![allow(clippy::expect_used, clippy::unwrap_used)]

use emd_bench::experiments;
use emd_bench::report::{tables_to_json, Table};
use emd_bench::setup::Scale;
use std::process::ExitCode;
use std::time::Instant;

/// `--smoke`: the A5 bound table on a tiny corpus — every filter and the
/// chain end to end, asserting every bound `<= EMD` (a violation panics) —
/// checked in release mode on every CI push.
fn smoke() -> ExitCode {
    let scale = Scale {
        tiling_per_class: 6,
        color_per_class: 4,
        queries: 6,
        sample: 8,
    };
    println!("\n{}", experiments::a5(&scale, true));
    println!("# smoke OK: every bound at or below the EMD");
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut ids: Vec<String> = Vec::new();
    let mut run_all = false;
    let mut full = false;
    let mut json_path: Option<String> = None;
    let mut metrics: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--full" => full = true,
            "--smoke" => return smoke(),
            "--json" => match args.next() {
                Some(path) => json_path = Some(path),
                None => {
                    eprintln!("--json requires a path");
                    return ExitCode::FAILURE;
                }
            },
            "--metrics" => match args.next() {
                Some(sink) => metrics = Some(sink),
                None => {
                    eprintln!("--metrics requires \"json\" or a path");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                eprintln!(
                    "usage: experiments [IDS...] [--full] [--smoke] [--json PATH] [--metrics json|PATH]"
                );
                return ExitCode::SUCCESS;
            }
            "all" => run_all = true,
            id => ids.push(id.to_owned()),
        }
    }

    let scale = if full { Scale::full() } else { Scale::quick() };
    let quick = !full;
    println!(
        "# flexemd experiment suite ({} scale)",
        if full { "full" } else { "quick" }
    );

    let recording = metrics.as_ref().map(|_| emd_obs::Recording::start());
    let mut tables: Vec<Table> = Vec::new();
    let started = Instant::now();
    let flush = || {
        use std::io::Write;
        let _ = std::io::stdout().flush();
    };
    if run_all || ids.is_empty() {
        ids = experiments::IDS.map(str::to_owned).to_vec();
    }
    // Run one at a time so progress is visible as it happens.
    for id in &ids {
        match experiments::by_id(id, &scale, quick) {
            Some(table) => {
                println!("\n{table}");
                flush();
                tables.push(table);
            }
            None => {
                eprintln!("unknown experiment id: {id}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!(
        "\n# suite finished in {:.1}s",
        started.elapsed().as_secs_f64()
    );

    if let (Some(sink), Some(recording)) = (metrics, recording) {
        let rendered = recording.finish().to_json_string();
        if sink == "json" {
            println!("{rendered}");
        } else if let Err(e) = std::fs::write(&sink, rendered) {
            eprintln!("failed to write {sink}: {e}");
            return ExitCode::FAILURE;
        } else {
            println!("# wrote metrics to {sink}");
        }
    }

    if let Some(path) = json_path {
        match std::fs::write(&path, tables_to_json(&tables)) {
            Ok(()) => println!("# wrote {path}"),
            Err(e) => {
                eprintln!("failed to write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
