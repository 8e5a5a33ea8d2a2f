//! Command-line entry point of the repo-local static-analysis engine,
//! `cargo xtask lint [--write-budget] [--json PATH|-] [--sites CLASS]`,
//! and the size counter, `cargo xtask stats` (no flags).
//!
//! The lints themselves live in the `xtask` library crate (lexer, pass
//! engine, budgets, JSON report) so the test suite and the comparison
//! baseline can exercise them directly; this binary only parses
//! arguments and maps the outcome to an exit code.

#![forbid(unsafe_code)]

use std::process::ExitCode;
use xtask::engine::{run_lint, workspace_root, Options};

const USAGE: &str =
    "usage: cargo xtask lint [--write-budget] [--json PATH|-] [--sites CLASS]\n       cargo xtask stats";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => {
            let mut options = Options::default();
            let mut rest = args.iter().skip(1);
            while let Some(arg) = rest.next() {
                match arg.as_str() {
                    "--write-budget" => options.write_budget = true,
                    "--json" => match rest.next() {
                        Some(path) => options.json = Some(path.clone()),
                        None => {
                            eprintln!("--json requires a path (or `-` for stdout)");
                            return ExitCode::FAILURE;
                        }
                    },
                    "--sites" => {
                        match rest.next() {
                            Some(class) => options.sites = Some(class.clone()),
                            None => {
                                eprintln!("--sites requires a lint class name (e.g. unjustified-indexing)");
                                return ExitCode::FAILURE;
                            }
                        }
                    }
                    other => {
                        eprintln!("unknown flag `{other}`");
                        eprintln!("{USAGE}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            let json_on_stdout = options.json.as_deref() == Some("-");
            match run_lint(&options) {
                Ok(summary) => {
                    // Keep stdout pure JSON under `--json -` so the
                    // report can be piped straight into a parser.
                    if json_on_stdout {
                        eprintln!("{summary}");
                    } else {
                        println!("{summary}");
                    }
                    ExitCode::SUCCESS
                }
                Err(failure_report) => {
                    eprint!("{failure_report}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("stats") => {
            if let Some(other) = args.get(1) {
                eprintln!("unknown flag `{other}`: stats takes no flags");
                eprintln!("{USAGE}");
                return ExitCode::FAILURE;
            }
            match workspace_root().and_then(|root| xtask::stats::render(&root)) {
                Ok(table) => {
                    print!("{table}");
                    ExitCode::SUCCESS
                }
                Err(error) => {
                    eprintln!("{error}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => {
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}
