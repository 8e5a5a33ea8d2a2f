//! `flexbench` — the repository's one fixed benchmark.
//!
//! It measures every layer of flexemd from outside: it times calls into
//! public functions and reads the `emd-obs` counters and span histograms
//! the program already emits. It generates all inputs from `--seed` and
//! hands the program only the generated data. See `benchmark/README.md`.
//!
//! ```text
//! flexbench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//!     one run of one workload; the last line of stdout is the JSON result
//!     (end-to-end metrics with --trace 0, per-layer metrics with --trace 1)
//! flexbench run   [--workload NAME] [--seed N] [--seconds S] [--out FILE] [--smoke]
//! flexbench trace [--workload NAME] [--seed N] [--out FILE] [--smoke]
//! flexbench aa    [--sets 2] [--runs 3] [--seed N] [--same-seed] [--smoke]
//! flexbench check --result FILE
//! ```

mod crash;
mod fsutil;
mod gate;
mod inputs;
mod metrics;
mod micro;
mod obsview;
mod protocol;
mod spans;
mod stats;
mod suite;
mod workloads;

use metrics::Res;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// `run_seconds` of `BENCHMARK.json`: the floor on the time a run spends in
/// rounds. Every workload's ten mandatory rounds already take longer, so
/// at the default a run is exactly ten rounds of fixed work.
pub const RUN_SECONDS: u64 = 10;

/// `--key value` pairs and bare `--flag`s after the subcommand.
pub struct Options {
    values: BTreeMap<String, String>,
}

impl Options {
    const FLAGS: [&'static str; 2] = ["smoke", "same-seed"];

    fn parse(args: &[String]) -> Res<Self> {
        let mut values = BTreeMap::new();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let key = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument `{arg}`"))?;
            let value = if Self::FLAGS.contains(&key) {
                "1".to_owned()
            } else {
                args.next()
                    .ok_or_else(|| format!("`--{key}` needs a value"))?
                    .clone()
            };
            values.insert(key.to_owned(), value);
        }
        Ok(Options { values })
    }

    pub fn text(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    pub fn flag(&self, key: &str) -> bool {
        self.values.contains_key(key)
    }

    pub fn number<T: std::str::FromStr>(&self, key: &str, default: T) -> Res<T> {
        match self.values.get(key) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("`--{key} {raw}` is not a number").into()),
        }
    }

    /// The workloads `--workload` selects (all of them without it).
    pub fn workloads(&self) -> Res<Vec<&'static str>> {
        match self.text("workload") {
            None => Ok(workloads::NAMES.to_vec()),
            Some(name) => match workloads::NAMES.iter().find(|n| **n == name) {
                Some(name) => Ok(vec![name]),
                None => {
                    Err(format!("unknown workload `{name}`; one of {:?}", workloads::NAMES).into())
                }
            },
        }
    }
}

fn dispatch(args: &[String]) -> Res<ExitCode> {
    let (command, rest) = match args.first().map(String::as_str) {
        Some(first) if !first.starts_with("--") => (first, &args[1..]),
        _ => ("single", args),
    };
    let options = Options::parse(rest)?;
    match command {
        "single" => suite::single(&options),
        "run" => suite::run(&options, false),
        "trace" => suite::run(&options, true),
        "aa" => suite::aa(&options),
        "check" => suite::check(&options),
        other => Err(format!("unknown command `{other}`; see benchmark/README.md").into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(error) => {
            eprintln!("flexbench: {error}");
            ExitCode::from(2)
        }
    }
}
