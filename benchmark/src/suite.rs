//! The commands: one run of one workload in this process, the suite and
//! the traced suite (each workload in a child process of this binary, so
//! memory is per workload), the A/A self-check, and the result-file check.

use crate::fsutil::{work_root, Scratch};
use crate::metrics::{Better, Res, RunResult, Spec, END_TO_END};
use crate::protocol::{run_timed, run_traced, RunInfo, Workload};
use crate::stats::{iqr_spread, quartiles, worsening};
use crate::workloads::{clustered, ingest_window, serve_mixed, tiling_chain};
use crate::{Options, RUN_SECONDS};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

const SPREAD_LINE: &str = "harness.round_spread =";

fn measure(
    name: &str,
    smoke: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
    work: &Path,
) -> Res<(RunResult, RunInfo, Option<String>)> {
    fn go<W: Workload>(
        workload: &W,
        seed: u64,
        seconds: f64,
        trace: bool,
        work: &Path,
    ) -> Res<(RunResult, RunInfo, Option<String>)> {
        if trace {
            let (result, info, spans) = run_traced(workload, seed, work)?;
            Ok((result, info, Some(spans)))
        } else {
            let (result, info) = run_timed(workload, seed, seconds, work)?;
            Ok((result, info, None))
        }
    }
    match name {
        tiling_chain::NAME => go(
            &tiling_chain::TilingChain::new(smoke),
            seed,
            seconds,
            trace,
            work,
        ),
        clustered::NAME => go(
            &clustered::Clustered::new(smoke),
            seed,
            seconds,
            trace,
            work,
        ),
        serve_mixed::NAME => go(
            &serve_mixed::ServeMixed::new(smoke),
            seed,
            seconds,
            trace,
            work,
        ),
        ingest_window::NAME => go(
            &ingest_window::IngestWindow::new(smoke),
            seed,
            seconds,
            trace,
            work,
        ),
        other => Err(format!("unknown workload `{other}`").into()),
    }
}

/// `--seconds`: a floor on the time spent in rounds; the mandatory ten are
/// made whatever it says, and a smoke run makes exactly those.
fn seconds_of(options: &Options) -> Res<f64> {
    let default = if options.flag("smoke") {
        0.0
    } else {
        RUN_SECONDS as f64
    };
    options.number("seconds", default)
}

/// `--workload NAME --seed N --seconds S --trace 0|1`: one run, in this
/// process. Everything printed before the last line is for people.
pub fn single(options: &Options) -> Res<ExitCode> {
    if options.text("workload").is_none() {
        return Err("`--workload NAME` is required".into());
    }
    let name = options.workloads()?[0];
    let seed: u64 = options.number("seed", 1)?;
    let seconds = seconds_of(options)?;
    let trace = options.number("trace", 0u8)? != 0;

    let scratch = Scratch::new(name)?;
    let (result, info, spans) = measure(
        name,
        options.flag("smoke"),
        seed,
        seconds,
        trace,
        scratch.path(),
    )?;
    drop(scratch);
    for line in &info.lines {
        println!("{line}");
    }
    for (metric, value, unit) in &result.metrics {
        println!("  {metric:<36} {value:>16.4} {unit}");
    }
    if let Some(spans) = spans {
        let path = work_root().join("trace").join(format!("{name}.json"));
        std::fs::create_dir_all(path.parent().ok_or("trace file has a parent")?)?;
        std::fs::write(&path, spans)?;
        println!("spans written to {}", path.display());
    }
    println!("{SPREAD_LINE} {}", info.round_spread);
    println!("{}", result.to_json_line());
    Ok(if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

struct ChildRun {
    result: RunResult,
    round_spread: f64,
    wall_s: f64,
}

/// One run of one workload in a child process of this binary, its report
/// forwarded to stdout.
fn child(name: &str, seed: u64, seconds: f64, trace: bool, smoke: bool) -> Res<ChildRun> {
    let mut command = Command::new(std::env::current_exe()?);
    command
        .args(["--workload", name, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stdout(Stdio::piped());
    if smoke {
        command.arg("--smoke");
    }
    let started = Instant::now();
    let output = command.spawn()?.wait_with_output()?;
    let wall_s = started.elapsed().as_secs_f64();
    let stdout = String::from_utf8(output.stdout)?;
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines
        .pop()
        .ok_or_else(|| format!("{name}: the run printed nothing"))?;
    let result = RunResult::from_json_line(last).map_err(|e| {
        format!(
            "{name}: no result line ({e}); exit status {}",
            output.status
        )
    })?;
    let round_spread = lines
        .iter()
        .find_map(|line| line.strip_prefix(SPREAD_LINE))
        .and_then(|rest| rest.trim().parse().ok())
        .unwrap_or(0.0);
    for line in lines.iter().filter(|line| !line.starts_with(SPREAD_LINE)) {
        println!("{line}");
    }
    println!("  ({wall_s:.1} s wall)\n");
    Ok(ChildRun {
        result,
        round_spread,
        wall_s,
    })
}

fn results_json(kind: &str, seed: u64, smoke: bool, runs: &[(&str, ChildRun)]) -> String {
    let mut out =
        format!("{{\"schema\": \"flexbench/v1\", \"kind\": \"{kind}\", \"seed\": {seed}, \"smoke\": {smoke}, \"results\": {{");
    for (index, (name, run)) in runs.iter().enumerate() {
        let sep = if index == 0 { "" } else { "," };
        let _ = write!(out, "{sep}\n\"{name}\": {}", run.result.to_json_line());
    }
    out.push_str("\n}}\n");
    out
}

/// `run` and `trace`: every selected workload, each in its own process.
pub fn run(options: &Options, trace: bool) -> Res<ExitCode> {
    let seed: u64 = options.number("seed", 1)?;
    let seconds = seconds_of(options)?;
    let smoke = options.flag("smoke");
    let started = Instant::now();
    let mut runs = Vec::new();
    for name in options.workloads()? {
        runs.push((name, child(name, seed, seconds, trace, smoke)?));
    }
    let kind = if trace { "per_layer" } else { "end_to_end" };
    let default = work_root().join(format!("{kind}.json"));
    let out = options.text("out").map_or(default, PathBuf::from);
    if let Some(parent) = out.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(&out, results_json(kind, seed, smoke, &runs))?;
    let failed: u64 = runs.iter().map(|(_, run)| run.result.failed).sum();
    let correct = runs.iter().all(|(_, run)| run.result.correct);
    println!(
        "suite: {} workloads in {:.1} s, ops_failed {failed}, results in {}",
        runs.len(),
        started.elapsed().as_secs_f64(),
        out.display()
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn repo_spec() -> Res<Spec> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Spec::parse(&std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?)
}

/// `check --result FILE`: every workload and metric `BENCHMARK.json`
/// declares is in the result file with the declared unit, nothing failed.
pub fn check(options: &Options) -> Res<ExitCode> {
    use emd_store::json::{self, Value};
    let path = options
        .text("result")
        .ok_or("`--result FILE` is required")?;
    let spec = repo_spec()?;
    let value = json::parse(&std::fs::read_to_string(path)?)?;
    let object = value.as_object().ok_or("result file is not an object")?;
    let defs: Vec<(String, String)> = match object.get("kind").and_then(Value::as_str) {
        Some("end_to_end") => spec
            .end_to_end
            .iter()
            .map(|m| (m.0.clone(), m.1.clone()))
            .collect(),
        Some("per_layer") => spec
            .per_layer
            .iter()
            .map(|m| (m.0.clone(), m.1.clone()))
            .collect(),
        _ => return Err("result file lacks `kind`".into()),
    };
    let results = object
        .get("results")
        .and_then(Value::as_object)
        .ok_or("no `results`")?;
    println!(
        "BENCHMARK.json: {} workloads, {} end-to-end and {} per-layer metrics, run_seconds {}",
        spec.workloads.len(),
        spec.end_to_end.len(),
        spec.per_layer.len(),
        spec.run_seconds
    );
    let mut problems = 0;
    for name in &spec.workloads {
        let outcome = match results.get(name) {
            None => Err("workload is missing".to_owned()),
            Some(entry) => RunResult::from_value(entry)
                .map_err(|e| e.to_string())
                .and_then(|result| result.check_against(&defs)),
        };
        match outcome {
            Ok(()) => println!("ok      {name}: {} metrics", defs.len()),
            Err(problem) => {
                problems += 1;
                println!("FAILED  {name}: {problem}");
            }
        }
    }
    Ok(if problems == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// `aa`: the suite in alternating sets on the same build. Run `r` of every
/// set uses seed `seed + r` (the same seed for all with `--same-seed`), so
/// the sets differ by nothing but the machine's noise, and the spread
/// within a set is what the acceptance procedure computes: the distance
/// between the quartiles as a share of the median. Prints markdown.
pub fn aa(options: &Options) -> Res<ExitCode> {
    let sets: usize = options.number("sets", 2)?;
    let runs: usize = options.number("runs", 3)?;
    let seed: u64 = options.number("seed", 1)?;
    let same_seed = options.flag("same-seed");
    let smoke = options.flag("smoke");
    if sets < 2 || runs < 2 {
        return Err("aa needs at least 2 sets of 2 runs".into());
    }
    let names = options.workloads()?;
    // values[workload][metric][set] = one value per run
    let mut values: BTreeMap<(&str, &str), Vec<Vec<f64>>> = BTreeMap::new();
    let mut spreads: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut walls: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut failed = 0;
    for run in 0..runs {
        for set in 0..sets {
            for &name in &names {
                let run_seed = if same_seed { seed } else { seed + run as u64 };
                let outcome = child(name, run_seed, seconds_of(options)?, false, smoke)?;
                failed += outcome.result.failed + u64::from(!outcome.result.correct);
                spreads.entry(name).or_default().push(outcome.round_spread);
                walls.entry(name).or_default().push(outcome.wall_s);
                for def in END_TO_END {
                    let value = outcome.result.metric(def.name).ok_or("metric missing")?;
                    let per_set = values
                        .entry((name, def.name))
                        .or_insert_with(|| vec![Vec::new(); sets]);
                    per_set[set].push(value);
                }
            }
        }
    }

    let seeds = if same_seed {
        format!("seed {seed} for every run")
    } else {
        format!("seeds {seed}..={}", seed + runs as u64 - 1)
    };
    println!("## A/A: {sets} alternating sets x {runs} runs, {seeds}\n");
    println!("`spread` = (q3 - q1) / median of a set's runs; `diff` = how much worse the later set's median is than set 1's; both are checked against `bound`.\n");
    let mut exceeded = 0;
    for &name in &names {
        println!("### {name}\n");
        println!("| metric | unit | set | q1 | median | q3 | spread | max/min | diff | bound | verdict |");
        println!("| --- | --- | --- | --- | --- | --- | --- | --- | --- | --- | --- |");
        for def in END_TO_END {
            let per_set = &values[&(name, def.name)];
            let first_median = quartiles(&per_set[0]).1;
            for (set, runs) in per_set.iter().enumerate() {
                let (q1, median, q3) = quartiles(runs);
                let spread = iqr_spread(runs);
                let max = runs.iter().copied().fold(f64::MIN, f64::max);
                let min = runs.iter().copied().fold(f64::MAX, f64::min);
                let diff = worsening(first_median, median, def.better == Better::Lower);
                // set-up is sampled three times a run, so its spread is
                // reported but, as in the acceptance procedure, not gated.
                let spread_ok = def.name == "setup_s" || spread <= def.bound;
                let ok = spread_ok && diff.abs() <= def.bound;
                exceeded += usize::from(!ok);
                println!(
                    "| `{}` | {} | {} | {q1:.4} | {median:.4} | {q3:.4} | {spread:.4} | {:.3} | {diff:+.4} | {} | {} |",
                    def.name,
                    def.unit,
                    set + 1,
                    max / min,
                    def.bound,
                    if ok { "ok" } else { "EXCEEDED" }
                );
            }
        }
        let spread = &spreads[name];
        let wall = &walls[name];
        println!(
            "\n`harness.round_spread` over the {} runs: median {:.3}, max {:.3}; wall per run: median {:.1} s, max {:.1} s\n",
            spread.len(),
            quartiles(spread).1,
            spread.iter().copied().fold(0.0, f64::max),
            quartiles(wall).1,
            wall.iter().copied().fold(0.0, f64::max),
        );
    }
    println!(
        "{exceeded} workload/metric/set rows exceeded their bound; {failed} failed operations."
    );
    Ok(if exceeded == 0 && failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}
