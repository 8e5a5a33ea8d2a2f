//! End-to-end test of the `flexemd` command-line tool: generate a corpus,
//! ingest it into an index directory, run a query — all through the real
//! binary.

// Test helpers outside #[test] fns still get test-style panic latitude.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

fn flexemd() -> Command {
    Command::new(env!("CARGO_BIN_EXE_flexemd"))
}

/// A scratch directory owned by one test: named after the test and this
/// process, created empty, removed when the test ends — pass or fail.
/// Tests run on parallel threads, so none may work in (or remove) a
/// directory another test's files live under.
struct TestDir(PathBuf);

impl TestDir {
    fn new(test: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("flexemd-cli-{}-{test}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TestDir(dir)
    }

    fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A corpus and an index over it (`ingest --reduction kmed:6` into a new
/// directory) in a directory of their own.
fn corpus_and_index(test: &str) -> (TestDir, PathBuf, PathBuf) {
    let dir = TestDir::new(test);
    let data = dir.join("corpus.json");
    let index = dir.join("index");
    let generate = flexemd()
        .args(["generate", "--kind", "gaussian", "--out"])
        .arg(&data)
        .args(["--classes", "3", "--per-class", "10", "--seed", "7"])
        .output()
        .unwrap();
    assert!(generate.status.success());
    create_index(&data, &index, &["--reduction", "kmed:6"]);
    (dir, data, index)
}

/// `ingest --index INDEX --data DATA` plus `extra`, which must exit 0; its
/// stdout.
fn ingest(data: &Path, index: &Path, extra: &[&str]) -> String {
    let out = flexemd()
        .arg("ingest")
        .arg("--index")
        .arg(index)
        .arg("--data")
        .arg(data)
        .args(extra)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "ingest {extra:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).to_string()
}

/// [`ingest`] into a directory that holds no index, which bulk-loads it.
fn create_index(data: &Path, index: &Path, extra: &[&str]) -> String {
    let stdout = ingest(data, index, extra);
    assert!(stdout.contains("wrote index for "), "{stdout}");
    stdout
}

#[test]
fn full_workflow() {
    let (dir, data, index) = corpus_and_index("full_workflow");
    assert!(index.join("CURRENT").exists());

    let info = flexemd()
        .arg("info")
        .arg("--data")
        .arg(&data)
        .output()
        .unwrap();
    assert!(info.status.success());
    let info_text = String::from_utf8_lossy(&info.stdout).to_string();
    assert!(info_text.contains("objects     : 30"), "{info_text}");
    assert!(info_text.contains("metric cost : yes"), "{info_text}");

    let query_text = query_stdout(&index, &[]);
    // The query object is its own nearest neighbor at distance 0.
    assert!(query_text.contains("#1"), "{query_text}");
    assert!(query_text.contains("refinements"), "{query_text}");

    // The same query with --metrics json appends the schema-versioned
    // registry dump: stage spans, solver counters, per-span event log.
    let metrics_text = query_stdout(&index, &["--metrics", "json"]);
    assert!(
        metrics_text.contains("\"schema\": \"flexemd-metrics/v1\""),
        "{metrics_text}"
    );
    assert!(
        metrics_text.contains("\"query.queries\": 1"),
        "{metrics_text}"
    );
    assert!(metrics_text.contains("transport.solve"), "{metrics_text}");
    assert!(metrics_text.contains("\"events\""), "{metrics_text}");

    // --metrics with a path writes the same document to a file.
    let metrics_file = dir.join("metrics.json");
    query_stdout(&index, &["--metrics", metrics_file.to_str().unwrap()]);
    let written = std::fs::read_to_string(&metrics_file).unwrap();
    assert!(written.contains("\"schema\": \"flexemd-metrics/v1\""));
}

/// A Euclidean grid is a metric at any scale: `info` admits an 8x6 grid
/// whose distances are scaled by 1e7 at the same slack the query plans
/// and the path recognizer use.
#[test]
fn info_admits_a_scaled_euclidean_grid() {
    use flexemd::core::ground::{self, Metric};
    use flexemd::core::{CostMatrix, Histogram};
    let dir = TestDir::new("info_admits_a_scaled_euclidean_grid");
    let data = dir.join("scaled.json");
    let unit = ground::grid2(8, 6, Metric::Euclidean).unwrap();
    let scaled = unit.entries().iter().map(|c| c * 1e7).collect();
    let positions = ground::grid2_positions(8, 6).into_iter();
    let dataset = flexemd::data::Dataset {
        name: "grid-8x6-1e7".to_owned(),
        histograms: (0..4)
            .map(|bin| Histogram::unit(48, bin).unwrap())
            .collect(),
        labels: vec![0; 4],
        cost: CostMatrix::new(48, 48, scaled).unwrap(),
        positions: Some(
            positions
                .map(|p| p.into_iter().map(|x| x * 1e7).collect())
                .collect(),
        ),
    };
    flexemd::data::io::save(&dataset, &data).unwrap();
    let info = flexemd()
        .arg("info")
        .arg("--data")
        .arg(&data)
        .output()
        .unwrap();
    assert!(info.status.success());
    let info_text = String::from_utf8_lossy(&info.stdout).to_string();
    assert!(info_text.contains("metric cost : yes"), "{info_text}");
}

/// Every `flexemd` command in README.md's code blocks (`\` continuations
/// joined) but `serve` runs, in order, to exit 0 in one directory: the
/// README's workflow works as written. (`serve` lines are held to the
/// verbs' options by the binary's unit tests.)
#[test]
fn readme_commands_run_in_order() {
    let dir = TestDir::new("readme_commands_run_in_order");
    let mut commands = Vec::new();
    let mut command = String::new();
    let mut in_block = false;
    for line in include_str!("../README.md").lines() {
        if line.starts_with("```") {
            in_block = !in_block;
        } else if in_block {
            let continued = line.trim_end().strip_suffix('\\');
            command.push_str(continued.unwrap_or(line));
            command.push(' ');
            if continued.is_none() {
                commands.push(std::mem::take(&mut command));
            }
        }
    }
    let mut ran = 0;
    for command in &commands {
        let mut words = command.split_whitespace();
        if words.find(|word| word.ends_with("flexemd")).is_none() {
            continue;
        }
        let args: Vec<&str> = words.take_while(|word| *word != "#").collect();
        if args.first() == Some(&"serve") {
            continue;
        }
        let out = flexemd().args(&args).current_dir(&dir.0).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "README runs `{command}`: {stderr}");
        ran += 1;
    }
    assert!(ran >= 9, "only {ran} commands ran: README moved");
}

#[test]
fn query_metrics_cover_the_open_and_keep_the_query_counters() {
    let (dir, data, _index) = corpus_and_index("query_metrics_cover_the_open");
    let clustered = dir.join("clustered");
    create_index(&data, &clustered, &["--reduction", "kmed:6", "--cluster"]);
    let out = flexemd()
        .arg("query")
        .arg("--index")
        .arg(&clustered)
        .args(["--k", "5", "--query", "7", "--metrics", "json"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let metrics = String::from_utf8_lossy(&out.stdout).to_string();
    // The open is recorded, layer by layer, under `store.open`.
    for span in ["\"store.open\"", "\"store.checksum\"", "\"store.decode\""] {
        assert!(metrics.contains(span), "{span} missing: {metrics}");
    }
    // The query's own counters are what they were when the recording
    // started after the open: opening solves no EMD.
    assert!(metrics.contains("\"core.emd.solves\": 11,"), "{metrics}");
    assert!(metrics.contains("\"query.queries\": 1,"), "{metrics}");
}

#[test]
fn ingest_missing_dataset_is_one_line_diagnostic() {
    let out = flexemd()
        .args([
            "ingest",
            "--index",
            "/nonexistent/index-dir",
            "--data",
            "/nonexistent/corpus.json",
            "--reduction",
            "kmed:4",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(stderr.contains("/nonexistent/corpus.json"), "{stderr}");
    assert_eq!(stderr.trim_end().lines().count(), 1, "{stderr}");
}

#[test]
fn query_missing_index_is_one_line_diagnostic() {
    let out = flexemd()
        .args(["query", "--index", "/nonexistent/index-dir"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(stderr.contains("/nonexistent/index-dir"), "{stderr}");
    assert_eq!(stderr.trim_end().lines().count(), 1, "{stderr}");
}

/// A `--data` file nested past the parser's bound is a one-line
/// diagnostic naming the file and exit code 1. (The unbounded parser
/// these files used to go through overflowed the stack: SIGABRT.)
#[test]
fn deeply_nested_dataset_is_an_error_not_an_abort() {
    let dir = TestDir::new("deeply_nested");
    let deep = dir.join("deep.json");
    std::fs::write(&deep, "[".repeat(200_000)).unwrap();
    let out = flexemd()
        .arg("info")
        .arg("--data")
        .arg(&deep)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{:?}", out.status);
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(stderr.contains("json error in "), "{stderr}");
    assert!(stderr.contains("deep.json"), "{stderr}");
    assert!(stderr.contains("nesting deeper than 64"), "{stderr}");
    assert_eq!(stderr.trim_end().lines().count(), 1, "{stderr}");
}

/// `query --index INDEX --k 3 --query 1` plus `extra`.
fn query_output(index: &Path, extra: &[&str]) -> std::process::Output {
    flexemd()
        .arg("query")
        .arg("--index")
        .arg(index)
        .args(["--k", "3", "--query", "1"])
        .args(extra)
        .output()
        .unwrap()
}

/// [`query_output`], which must exit 0; its stdout.
fn query_stdout(index: &Path, extra: &[&str]) -> String {
    let out = query_output(index, extra);
    assert!(
        out.status.success(),
        "query {extra:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).to_string()
}

#[test]
fn zero_deadline_degrades_with_banner_and_exit_zero() {
    let (_dir, _data, index) = corpus_and_index("zero_deadline_degrades_with_banner_and_exit_zero");

    // A deadline of 0 ms fires at the first budget probe: deterministic
    // degradation, still a successful exit.
    let stdout = query_stdout(&index, &["--deadline-ms", "0"]);
    let banners = stdout
        .lines()
        .filter(|l| l.starts_with("DEGRADED (deadline)"))
        .count();
    assert_eq!(banners, 1, "exactly one banner line: {stdout}");
}

#[test]
fn pivot_cap_degrades_to_lower_bound_ranking() {
    let (_dir, _data, index) = corpus_and_index("pivot_cap_degrades_to_lower_bound_ranking");
    let stdout = query_stdout(&index, &["--max-pivots", "0"]);
    assert!(stdout.contains("DEGRADED (pivot cap)"), "{stdout}");
    // Degraded rows render bounds, not exact distances.
    assert!(stdout.contains("bound"), "{stdout}");
}

#[test]
fn generous_budget_matches_unbudgeted_output() {
    let (_dir, _data, index) = corpus_and_index("generous_budget_matches_unbudgeted_output");
    let neighbors = |extra: &[&str]| -> String {
        query_stdout(&index, extra)
            .lines()
            .filter(|l| l.trim_start().starts_with('#'))
            .map(str::to_owned)
            .collect::<Vec<_>>()
            .join("\n")
    };
    let unbudgeted = neighbors(&[]);
    let budgeted = neighbors(&["--deadline-ms", "60000", "--max-pivots", "100000000"]);
    assert_eq!(
        unbudgeted, budgeted,
        "generous budget must not change results"
    );
}

#[test]
fn injected_worker_panic_is_one_line_nonzero_exit() {
    let (_dir, _data, index) = corpus_and_index("injected_worker_panic_is_one_line_nonzero_exit");
    let out = query_output(&index, &["--faults", "panic:0"]);
    assert!(!out.status.success(), "worker panic must exit nonzero");
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(stderr.contains("worker 0 panicked"), "{stderr}");
    assert_eq!(
        stderr.trim_end().lines().count(),
        1,
        "one-line diagnostic: {stderr}"
    );
}

/// An armed worker failpoint that never fires (`panic:9`; the query runs
/// as worker 0) must not cost the query its budget.
#[test]
fn zero_deadline_still_degrades_beside_an_armed_panic_fault() {
    let (_dir, _data, index) =
        corpus_and_index("zero_deadline_still_degrades_beside_an_armed_panic_fault");
    let stdout = query_stdout(&index, &["--deadline-ms", "0", "--faults", "panic:9"]);
    assert!(stdout.contains("DEGRADED (deadline)"), "{stdout}");
}

#[test]
fn injected_solve_fault_still_degrades_beside_an_armed_panic_fault() {
    let (_dir, _data, index) =
        corpus_and_index("injected_solve_fault_still_degrades_beside_an_armed_panic_fault");
    let alone = query_stdout(&index, &["--faults", "solve:1"]);
    assert!(alone.contains("DEGRADED (injected)"), "{alone}");
    let armed = query_stdout(&index, &["--faults", "solve:1,panic:9"]);
    assert!(armed.contains("DEGRADED (injected)"), "{armed}");
}

/// `flexemd query ... | head -1`: the reader closing the pipe ends the run
/// quietly, not with a `println!` panic and a backtrace.
#[test]
fn closed_stdout_pipe_is_a_quiet_exit() {
    let (_dir, _data, index) = corpus_and_index("closed_stdout_pipe_is_a_quiet_exit");
    let mut child = flexemd()
        .arg("query")
        .arg("--index")
        .arg(&index)
        .args(["--k", "3", "--query", "1"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    // Close the read end before the child has opened its index, so its
    // first write meets a broken pipe.
    drop(child.stdout.take());
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(stderr.trim().is_empty(), "nothing to report: {stderr}");
    assert!(out.status.success(), "a closed pipe is not a failure");
}

#[test]
fn injected_read_fault_fails_index_open_then_clean_open_works() {
    let (_dir, _data, index) =
        corpus_and_index("injected_read_fault_fails_index_open_then_clean_open_works");

    let faulted = query_output(&index, &["--faults", "read:1"]);
    assert!(!faulted.status.success(), "injected read fault must fail");
    let stderr = String::from_utf8_lossy(&faulted.stderr).to_string();
    assert!(stderr.contains("injected read fault"), "{stderr}");
    assert_eq!(stderr.trim_end().lines().count(), 1, "{stderr}");

    // Clean open right after: injection never touches the directory.
    query_stdout(&index, &[]);
}

#[test]
fn rejects_bad_input() {
    let unknown = flexemd().arg("frobnicate").output().unwrap();
    assert!(!unknown.status.success());

    let missing = flexemd()
        .args(["info", "--data", "/nonexistent/x.json"])
        .output()
        .unwrap();
    assert!(!missing.status.success());

    let no_command = flexemd().output().unwrap();
    assert!(!no_command.status.success());

    // The shared QuerySpec vocabulary rejects contradictory shapes the
    // same way on every verb.
    let both = flexemd()
        .args([
            "query",
            "--index",
            "/nonexistent",
            "--k",
            "3",
            "--range",
            "1.5",
        ])
        .output()
        .unwrap();
    assert!(!both.status.success());
    let stderr = String::from_utf8_lossy(&both.stderr).to_string();
    assert!(stderr.contains("not both"), "{stderr}");
}

/// `args`, which must fail with exactly one stderr line equal to
/// `expected` and print nothing on stdout.
fn fails_with(args: &[&str], expected: &str) {
    let output = flexemd().args(args).output().unwrap();
    assert_eq!(output.status.code(), Some(1), "{args:?}");
    assert!(output.stdout.is_empty(), "{args:?} ran");
    let stderr = String::from_utf8_lossy(&output.stderr).to_string();
    assert_eq!(stderr.trim_end(), expected, "{args:?}");
}

/// A mistyped or retired option is an error that names it, before the
/// verb touches anything: `--deadline_ms 0` must not run as a query with
/// no deadline.
#[test]
fn unknown_option_is_a_one_line_error_on_every_verb() {
    let (dir, data, index) = corpus_and_index("unknown_option");
    let (data, index) = (data.display(), index.display());
    let out = dir.join("never-written");
    let out = out.display();
    // Scratch paths hold no whitespace, so a command line splits on it.
    let typos = [
        (
            format!("query --index {index} --k 3 --sorce clustered --deadline_ms 0"),
            "deadline_ms",
        ),
        // A flag no verb knows, last on the line.
        (format!("query --index {index} --k 3 --chain"), "chain"),
        // The retired JSON-artifact route.
        (format!("query --data {data} --index {index} --k 3"), "data"),
        (
            format!("query --index {index} --reduction {data}"),
            "reduction",
        ),
        (
            format!("serve --index {out} --writable --adr 127.0.0.1:0"),
            "adr",
        ),
        (
            format!("ingest --index {out} --data {data} --compcat"),
            "compcat",
        ),
        (
            format!("ingest --index {out} --data {data} --method kmed"),
            "method",
        ),
        (
            format!("ingest --index {out} --data {data} --dims 8"),
            "dims",
        ),
        (
            format!("ingest --index {out} --data {data} --clusters 1"),
            "clusters",
        ),
        (
            format!("ingest --index {out} --data {data} --reductions kmed:4"),
            "reductions",
        ),
    ];
    for (line, option) in &typos {
        let args = line.split_whitespace().collect::<Vec<_>>();
        let expected = format!("error: unknown option --{option} for `{}`", args[0]);
        fails_with(&args, &expected);
    }
    assert!(
        !dir.join("never-written").exists(),
        "a rejected verb wrote {out}"
    );
    for verb in [
        "generate",
        "info",
        "ingest",
        "query",
        "serve",
        "wal-inspect",
    ] {
        let expected = format!("error: unknown option --no-such-option for `{verb}`");
        fails_with(&[verb, "--no-such-option", "x"], &expected);
    }
    fails_with(
        &["reduce", "--data", &data.to_string()],
        "error: unknown command `reduce`",
    );
}

/// A malformed `--reduction` spec is a one-line error, and nothing is
/// written.
#[test]
fn malformed_reduction_spec_is_a_one_line_error() {
    let (dir, data, _index) = corpus_and_index("malformed_reduction_spec");
    let data = data.to_str().unwrap();
    let out = dir.join("never-written");
    let out = out.to_str().unwrap();
    for (spec, expected) in [
        ("kmed", "bad reduction spec `kmed` (expected `method:dims`)"),
        ("kmed:x", "bad dimension count in reduction spec `kmed:x`"),
        (
            "kmed:0",
            "reduced dimensionality must be between 1 and 32 (got 0)",
        ),
        ("nope:4", "unknown reduction method `nope`"),
    ] {
        fails_with(
            &[
                "ingest",
                "--index",
                out,
                "--data",
                data,
                "--reduction",
                spec,
            ],
            &format!("error: {expected}"),
        );
    }
    assert!(
        !dir.join("never-written").exists(),
        "a rejected verb wrote {out}"
    );
}

/// An existing directory keeps the reduction and clustering it was
/// created with, so the options that would choose others are an error,
/// not silently dropped.
#[test]
fn ingest_into_an_existing_directory_rejects_reduction_options() {
    let (_dir, data, index) = corpus_and_index("ingest_existing_directory");
    let (index, data) = (index.to_str().unwrap(), data.to_str().unwrap());
    for option in [
        &["--reduction", "fb-all:12"][..],
        &["--sample", "5"],
        &["--seed", "3"],
        &["--cluster"],
    ] {
        let args = [&["ingest", "--index", index, "--data", data][..], option].concat();
        fails_with(
            &args,
            &format!(
                "error: {index} already holds a durable index: {} applies only when ingest \
                 creates one",
                option[0]
            ),
        );
    }
    // Nothing was appended by the rejected runs: the WAL holds only the
    // record that opens epoch 1.
    let inspect = flexemd()
        .args(["wal-inspect", "--index", index])
        .output()
        .unwrap();
    let text = String::from_utf8_lossy(&inspect.stdout).to_string();
    assert!(text.contains("records    : 1"), "{text}");
    assert!(
        text.contains("compact-epoch  epoch 1, next id 30"),
        "{text}"
    );
}

/// A training option the chosen reduction does not read is an error
/// naming the methods that read it, not a run as if it were absent.
#[test]
fn a_training_option_the_reduction_ignores_is_an_error() {
    let (dir, data, _index) = corpus_and_index("training_option_ignored");
    let tiling = dir.join("tiling.json");
    let generate = flexemd()
        .args(["generate", "--kind", "tiling", "--out"])
        .arg(&tiling)
        .args(["--classes", "2", "--per-class", "3"])
        .output()
        .unwrap();
    assert!(generate.status.success());
    let out = dir.join("never-written");
    let (data, tiling, out) = (
        data.to_str().unwrap(),
        tiling.to_str().unwrap(),
        out.to_str().unwrap(),
    );
    let sample = "--sample is read only by reductions fb-mod, fb-all";
    let seed = "--seed is read only by reductions kmed, fb-mod, fb-all";
    for (corpus, spec, option, expected) in [
        (
            data,
            "kmed:8",
            ["--sample", "50"],
            format!("{sample}; kmed ignores it"),
        ),
        (
            tiling,
            "grid:12",
            ["--seed", "99"],
            format!("{seed}; grid ignores it"),
        ),
        (
            tiling,
            "grid:12",
            ["--sample", "3"],
            format!("{sample}; grid ignores it"),
        ),
    ] {
        let args = [
            &[
                "ingest",
                "--index",
                out,
                "--data",
                corpus,
                "--reduction",
                spec,
            ][..],
            &option,
        ]
        .concat();
        fails_with(&args, &format!("error: {expected}"));
    }
    assert!(!dir.join("never-written").exists());
    // The options the method reads still train it.
    create_index(
        Path::new(data),
        &dir.join("fb-mod"),
        &["--reduction", "fb-mod:8", "--sample", "6", "--seed", "3"],
    );
}

/// A corpus of no objects makes a directory too: it bulk-loads, reopens
/// and grows.
#[test]
fn an_empty_corpus_makes_an_index_that_grows() {
    let (dir, data, _index) = corpus_and_index("empty_corpus");
    let empty = dir.join("empty.json");
    let generate = flexemd()
        .args(["generate", "--kind", "gaussian", "--out"])
        .arg(&empty)
        .args(["--classes", "1", "--per-class", "0"])
        .output()
        .unwrap();
    assert!(generate.status.success());
    let index = dir.join("grown");
    let created = create_index(&empty, &index, &["--reduction", "kmed:4"]);
    assert!(
        created.contains("(0 objects, 32 -> 4 dimensions"),
        "{created}"
    );
    let grown = ingest(&data, &index, &[]);
    assert!(
        grown.contains("epoch 1, 0 sealed + 1 replayed records, 0 live objects"),
        "{grown}"
    );
    assert!(grown.contains("external ids 0.."), "{grown}");
    let stdout = query_stdout(&index, &[]);
    assert!(stdout.contains("of 30 objects"), "{stdout}");
}

/// The retired index vocabulary fails loudly and writes nothing: the
/// `build-index` verb, `--out` and `--sync-each` on `ingest`, and `--wal`
/// wherever it named the directory.
#[test]
fn retired_index_vocabulary_is_an_error() {
    let (dir, data, index) = corpus_and_index("retired_vocabulary");
    let out = dir.join("never-written");
    let (data, index, out) = (
        data.to_str().unwrap(),
        index.to_str().unwrap(),
        out.to_str().unwrap(),
    );
    fails_with(
        &[
            "build-index",
            "--data",
            data,
            "--reduction",
            "kmed:4",
            "--out",
            out,
        ],
        "error: unknown command `build-index`",
    );
    for (args, option) in [
        (&["ingest", "--out", out, "--data", data][..], "out"),
        (
            &["ingest", "--index", out, "--data", data, "--sync-each"],
            "sync-each",
        ),
        (&["ingest", "--wal", out, "--data", data], "wal"),
        (&["serve", "--wal", index], "wal"),
        (&["wal-inspect", "--wal", index], "wal"),
    ] {
        let expected = format!("error: unknown option --{option} for `{}`", args[0]);
        fails_with(args, &expected);
    }
    assert!(!dir.join("never-written").exists());
}

/// `generate --classes 0` is a one-line error for every corpus kind, not
/// a generator assertion with a backtrace, and writes nothing.
#[test]
fn generate_rejects_zero_classes() {
    let dir = TestDir::new("generate_zero_classes");
    let out = dir.join("never-written.json");
    let out = out.to_str().unwrap();
    for kind in ["tiling", "color", "gaussian"] {
        fails_with(
            &["generate", "--kind", kind, "--out", out, "--classes", "0"],
            "error: --classes must be at least 1",
        );
    }
    assert!(!dir.join("never-written.json").exists());
}

/// A directory in the retired `flexemd-store/v1` static format
/// (`index.json`, no `CURRENT`): `ingest` refuses it with a typed error
/// naming the format, writes no index files beside it, and `query`
/// refuses it the same way.
#[test]
fn ingest_refuses_a_static_index_directory() {
    let (dir, data, _index) = corpus_and_index("ingest_static_directory");
    let retired = dir.join("retired");
    std::fs::create_dir_all(&retired).unwrap();
    std::fs::write(retired.join("index.json"), "{}").unwrap();
    let (data, retired_arg) = (data.to_str().unwrap(), retired.to_str().unwrap());
    let refusal = format!(
        "bad index checkpoint {retired_arg}/index.json: this is a flexemd-store/v1 index, \
         which this build no longer reads: rebuild it with `flexemd ingest` into a new \
         directory"
    );
    fails_with(
        &["ingest", "--index", retired_arg, "--data", data],
        &format!("error: {refusal}"),
    );
    for written in ["CURRENT", "base.seg", "sealed-1.seg", "wal-1.log"] {
        assert!(!retired.join(written).exists(), "ingest wrote {written}");
    }
    fails_with(
        &["query", "--index", retired_arg],
        &format!("error: {refusal}"),
    );
}

/// `ingest` extends a directory it bulk-loaded: the n loaded objects
/// keep their ids, the m ingested ones follow, and `query --index`
/// answers over all n + m.
#[test]
fn ingest_extends_a_built_index_and_query_sees_every_object() {
    let (_dir, data, index) = corpus_and_index("ingest_extends_a_built_index");
    let text = ingest(&data, &index, &[]);
    assert!(
        text.contains("epoch 1, 30 sealed + 1 replayed records"),
        "{text}"
    );
    assert!(text.contains("external ids 30.."), "{text}");
    assert!(text.contains("60 live objects"), "{text}");

    // Object 35 is object 5 ingested again: its nearest neighbors are
    // itself and its twin, both at distance 0.
    let stdout = query_stdout(&index, &["--query", "35", "--k", "2"]);
    assert!(stdout.contains("of 60 objects"), "{stdout}");
    assert!(
        stdout.contains("#5 ") && stdout.contains("#35 "),
        "{stdout}"
    );
}

/// A clustering serves until the first append: after `ingest --cluster`
/// the cluster traversal feeds the chain, after one `ingest` into the
/// directory every object does, and `--compact` writes no clustering.
#[test]
fn a_clustering_serves_until_the_first_append() {
    let dir = TestDir::new("clustering_until_append");
    let (data, index) = (dir.join("corpus.json"), dir.join("index"));
    let generate = flexemd()
        .args(["generate", "--kind", "gaussian", "--out"])
        .arg(&data)
        .args(["--classes", "3", "--per-class", "20", "--seed", "7"])
        .output()
        .unwrap();
    assert!(generate.status.success());
    create_index(&data, &index, &["--reduction", "kmed:4", "--cluster"]);
    let chain = ["anchor(a=4)", "red-im(d'=4/4)", "red-emd(d'=4/4)"];
    let stdout = query_stdout(&index, &[]);
    assert!(stdout.contains("clustered(d'=4, k=8, closed)"), "{stdout}");
    assert!(chain.iter().all(|row| !stdout.contains(row)), "{stdout}");
    for extra in [&[][..], &["--compact"]] {
        ingest(&data, &index, extra);
        let stdout = query_stdout(&index, &[]);
        assert!(!stdout.contains("clustered("), "{extra:?}: {stdout}");
        assert!(
            chain.iter().all(|row| stdout.contains(row)),
            "{extra:?}: {stdout}"
        );
    }
}

/// Read-only opens answer in the directory's ids, which are positions
/// only while no object was removed: after `serve --writable` removes
/// one, `query --index` is a typed error that points to `serve
/// --writable`.
#[test]
fn query_refuses_an_index_an_object_was_removed_from() {
    let (_dir, _data, index) = corpus_and_index("query_refuses_removed");
    let (mut child, addr, _stdout) = spawn_writable_server(&index, &[]);
    let (status, body) = call(&addr, "POST", "/v1/remove", Some("{\"id\": 3}"));
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"removed\":true"), "{body}");
    drop(child.stdin.take());
    assert!(
        child.wait().unwrap().success(),
        "serve --writable did not drain"
    );

    let out = query_output(&index, &[]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(
        stderr.contains("open it with `flexemd serve --writable`"),
        "{stderr}"
    );
    assert_eq!(stderr.trim_end().lines().count(), 1, "{stderr}");
}

#[test]
fn range_query_prints_range_heading() {
    let (_dir, _data, index) = corpus_and_index("range_query_prints_range_heading");
    let out = flexemd()
        .arg("query")
        .arg("--index")
        .arg(&index)
        .args(["--range", "2.5", "--query", "1"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "range query failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        stdout.contains("range(epsilon = 2.5) of object 1"),
        "{stdout}"
    );
}

/// Boot `flexemd serve` on an ephemeral port (with `--drain-stdin`, so
/// dropping the stdin pipe drains it), returning the child process and
/// the bound address parsed from its banner line.
fn spawn_server(
    index: &std::path::Path,
    extra: &[&str],
) -> (
    std::process::Child,
    String,
    std::io::BufReader<std::process::ChildStdout>,
) {
    use std::io::BufRead;
    let mut child = flexemd()
        .arg("serve")
        .arg("--index")
        .arg(index)
        .args(["--addr", "127.0.0.1:0", "--workers", "2", "--drain-stdin"])
        .args(extra)
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("serve boots");
    let stdout = child.stdout.take().expect("stdout piped");
    let mut reader = std::io::BufReader::new(stdout);
    let mut banner = String::new();
    reader.read_line(&mut banner).expect("banner line");
    let addr = banner
        .split("http://")
        .nth(1)
        .unwrap_or_else(|| panic!("banner has no address: {banner}"))
        .trim()
        .to_owned();
    // The reader must stay alive until the child exits: dropping it
    // closes the pipe and the server's drain message would hit EPIPE.
    (child, addr, reader)
}

/// One HTTP request against a spawned server.
fn call(addr: &str, method: &str, path: &str, body: Option<&str>) -> (u16, String) {
    use std::net::ToSocketAddrs;
    let addr = addr.to_socket_addrs().unwrap().next().unwrap();
    flexemd::serve::http::http_call(addr, method, path, body, std::time::Duration::from_secs(10))
        .expect("request completes")
}

#[test]
fn serve_answers_http_and_drains_on_stdin_eof() {
    let (_dir, _data, index) = corpus_and_index("serve_answers_http_and_drains_on_stdin_eof");

    let (mut child, addr, _stdout) = spawn_server(&index, &[]);

    let (status, body) = call(&addr, "GET", "/healthz", None);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"objects\":30"), "{body}");

    // A served kNN answer matches the direct `query --index` output:
    // same neighbor ids in the same order.
    let (status, body) = call(
        &addr,
        "POST",
        "/v1/knn",
        Some("{\"query_id\": 4, \"k\": 3}"),
    );
    assert_eq!(status, 200, "{body}");
    let direct = flexemd()
        .arg("query")
        .arg("--index")
        .arg(&index)
        .args(["--k", "3", "--query", "4"])
        .output()
        .unwrap();
    assert!(direct.status.success());
    let direct_ids: Vec<String> = String::from_utf8_lossy(&direct.stdout)
        .lines()
        .filter_map(|line| {
            let id = line.trim_start().strip_prefix('#')?;
            Some(id.split_whitespace().next().unwrap_or("").to_owned())
        })
        .collect();
    let served_ids: Vec<String> = body
        .split("\"id\":")
        .skip(1)
        .map(|chunk| {
            chunk
                .chars()
                .take_while(char::is_ascii_digit)
                .collect::<String>()
        })
        .collect();
    assert_eq!(served_ids, direct_ids, "served: {body}");

    // Degraded request over HTTP: 200 with the deadline reason.
    let (status, body) = call(
        &addr,
        "POST",
        "/v1/knn",
        Some("{\"query_id\": 0, \"k\": 3, \"deadline_ms\": 0}"),
    );
    assert_eq!(status, 200);
    assert!(body.contains("\"degraded\":true"), "{body}");
    assert!(body.contains("\"reason\":\"deadline\""), "{body}");

    let (status, body) = call(&addr, "GET", "/metrics", None);
    assert_eq!(status, 200);
    assert!(body.contains("serve.requests"), "{body}");

    // Closing stdin drains the server; the process exits 0.
    drop(child.stdin.take());
    let status = child.wait().unwrap();
    assert!(status.success(), "serve did not drain cleanly");
}

#[test]
fn zero_capacity_serve_sheds_with_429_and_drains() {
    let (_dir, _data, index) = corpus_and_index("zero_capacity_serve_sheds_with_429_and_drains");

    let (mut child, addr, _stdout) = spawn_server(&index, &["--max-inflight", "0"]);
    let (status, body) = call(
        &addr,
        "POST",
        "/v1/knn",
        Some("{\"query_id\": 0, \"k\": 3}"),
    );
    assert_eq!(status, 429, "{body}");
    let (status, body) = call(&addr, "GET", "/healthz", None);
    assert_eq!(status, 429, "{body}");

    // Shedding is not wedging: closing stdin still drains, exit 0.
    drop(child.stdin.take());
    assert!(
        child.wait().unwrap().success(),
        "serve did not drain cleanly"
    );
}

/// Boot `flexemd serve --index INDEX --writable` on an ephemeral port.
/// Unlike [`spawn_server`], the banner is not the first stdout line (the
/// open report prints before it), so scan until the address appears.
fn spawn_writable_server(
    index: &std::path::Path,
    extra: &[&str],
) -> (
    std::process::Child,
    String,
    std::io::BufReader<std::process::ChildStdout>,
) {
    use std::io::BufRead;
    let mut child = flexemd()
        .arg("serve")
        .arg("--index")
        .arg(index)
        .args(["--writable", "--addr", "127.0.0.1:0", "--workers", "2"])
        .arg("--drain-stdin")
        .args(extra)
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("serve --writable boots");
    let stdout = child.stdout.take().expect("stdout piped");
    let mut reader = std::io::BufReader::new(stdout);
    let addr = loop {
        let mut line = String::new();
        assert!(
            reader.read_line(&mut line).expect("banner line") > 0,
            "server exited before printing its address"
        );
        if let Some(rest) = line.split("http://").nth(1) {
            break rest.trim().to_owned();
        }
    };
    (child, addr, reader)
}

#[test]
fn ingest_wal_inspect_and_writable_serve_round_trip() {
    let (dir, data, _index) = corpus_and_index("ingest_wal_inspect_and_writable_serve_round_trip");
    let index = dir.join("grown");

    // The first ingest creates the directory: it derives a reduction and
    // bulk-loads the corpus as epoch 1.
    let text = create_index(&data, &index, &["--reduction", "kmed:6", "--seed", "7"]);
    assert!(
        text.contains("(30 objects, 32 -> 6 dimensions by kmed:6)"),
        "{text}"
    );
    assert!(index.join("CURRENT").exists());

    // The second appends to the existing index and compacts.
    let text = ingest(&data, &index, &["--compact"]);
    assert!(text.contains("ingested 30 objects"), "{text}");
    assert!(text.contains("60 live objects"), "{text}");
    assert!(text.contains("compacted to epoch 2"), "{text}");

    // wal-inspect prints the checkpoint and the mandatory compact-epoch
    // record that heads every post-compaction WAL.
    let inspect = flexemd()
        .arg("wal-inspect")
        .arg("--index")
        .arg(&index)
        .output()
        .unwrap();
    assert!(
        inspect.status.success(),
        "wal-inspect failed: {}",
        String::from_utf8_lossy(&inspect.stderr)
    );
    let text = String::from_utf8_lossy(&inspect.stdout).to_string();
    assert!(text.contains("flexemd-durable/v1 2"), "{text}");
    assert!(
        text.contains("compact-epoch  epoch 2, next id 60"),
        "{text}"
    );
    assert!(text.contains("torn tail  : none"), "{text}");

    // The served corpus is writable: query it, insert through it, and
    // see the durable ack plus the grown object count.
    let (mut child, addr, _stdout) = spawn_writable_server(&index, &[]);
    let (status, body) = call(&addr, "GET", "/healthz", None);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"objects\":60"), "{body}");
    assert!(body.contains("\"writable\":true"), "{body}");
    assert!(body.contains("\"index\":\"gaussian-32\""), "{body}");

    let (status, body) = call(
        &addr,
        "POST",
        "/v1/knn",
        Some("{\"query_id\": 4, \"k\": 3}"),
    );
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"neighbors\""), "{body}");

    let dim = 32; // the gaussian generator's default bin count
    let weights: Vec<String> = (0..dim)
        .map(|i| {
            if i == 0 {
                "1.0".to_owned()
            } else {
                "0.0".to_owned()
            }
        })
        .collect();
    let insert_body = format!("{{\"weights\":[{}]}}", weights.join(","));
    let (status, body) = call(&addr, "POST", "/v1/insert", Some(&insert_body));
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"durable\":true"), "{body}");
    assert!(body.contains("\"objects\":61"), "{body}");

    drop(child.stdin.take());
    assert!(
        child.wait().unwrap().success(),
        "serve --writable did not drain"
    );

    // The HTTP insert survives: wal-inspect now shows one insert record
    // after the compact-epoch.
    let inspect = flexemd()
        .arg("wal-inspect")
        .arg("--index")
        .arg(&index)
        .output()
        .unwrap();
    assert!(inspect.status.success());
    let text = String::from_utf8_lossy(&inspect.stdout).to_string();
    assert!(text.contains("insert"), "{text}");
    assert!(text.contains("records    : 2"), "{text}");
}

/// `--faults` reaches a writable server: the plan rides every request's
/// budget, so `solve:1` degrades the first kNN reply and only that one.
#[test]
fn writable_serve_honours_faults() {
    let (_dir, _data, index) = corpus_and_index("writable_serve_honours_faults");
    let (mut child, addr, _stdout) = spawn_writable_server(&index, &["--faults", "solve:1"]);
    let knn = || {
        call(
            &addr,
            "POST",
            "/v1/knn",
            Some("{\"query_id\": 4, \"k\": 3}"),
        )
    };
    let (status, body) = knn();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"degraded\":true"), "{body}");
    assert!(body.contains("\"reason\":\"injected\""), "{body}");
    let (status, body) = knn();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"degraded\":false"), "{body}");

    drop(child.stdin.take());
    assert!(
        child.wait().unwrap().success(),
        "serve --writable did not drain"
    );
}

/// `--faults read:K` walks the file reads of the one open path on
/// `serve --writable` too: `read:1` fails the checkpoint read, and the
/// server never starts.
#[test]
fn writable_serve_honours_read_faults() {
    let (_dir, _data, index) = corpus_and_index("writable_serve_honours_read_faults");
    let out = flexemd()
        .arg("serve")
        .arg("--index")
        .arg(&index)
        .args(["--writable", "--faults", "read:1", "--drain-stdin"])
        .stdin(Stdio::null())
        .output()
        .unwrap();
    assert!(!out.status.success(), "an injected read fault must fail");
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(stderr.contains("injected read fault"), "{stderr}");
    assert_eq!(stderr.trim_end().lines().count(), 1, "{stderr}");
    assert!(!String::from_utf8_lossy(&out.stdout).contains("serving"));
}

/// The `"index"` field of a server's `/healthz` body.
fn healthz_index(addr: &str) -> String {
    let (status, body) = call(addr, "GET", "/healthz", None);
    assert_eq!(status, 200, "{body}");
    let rest = body.split("\"index\":\"").nth(1).expect("an index name");
    rest.split('"').next().unwrap().to_owned()
}

/// A directory `ingest` creates records its corpus name, and both
/// servers report it: on `/healthz` and in the banner.
#[test]
fn writable_serve_reports_the_name_the_index_records() {
    let (_dir, _data, index) = corpus_and_index("writable_serve_reports_the_name");
    let name = "gaussian-32";
    let (mut child, addr, _stdout) = spawn_server(&index, &[]);
    assert_eq!(healthz_index(&addr), name);
    drop(child.stdin.take());
    assert!(child.wait().unwrap().success(), "serve did not drain");

    let (mut child, addr, _stdout) = spawn_writable_server(&index, &[]);
    assert_eq!(healthz_index(&addr), name);
    drop(child.stdin.take());
    assert!(
        child.wait().unwrap().success(),
        "serve --writable did not drain"
    );

    // With stdin closed from the start, each server prints its banner and
    // drains at once.
    let banner = |extra: &[&str]| {
        let out = flexemd()
            .arg("serve")
            .arg("--index")
            .arg(&index)
            .args(extra)
            .args(["--addr", "127.0.0.1:0", "--drain-stdin"])
            .stdin(Stdio::null())
            .output()
            .unwrap();
        assert!(out.status.success(), "serve {extra:?} failed");
        let stdout = String::from_utf8_lossy(&out.stdout).to_string();
        let line = stdout.lines().find(|line| line.starts_with("serving "));
        let line = line.unwrap_or_else(|| panic!("no banner: {stdout}"));
        line.split(" on http://").next().unwrap().to_owned()
    };
    assert_eq!(banner(&[]), format!("serving {name} (30 objects)"));
    assert_eq!(
        banner(&["--writable"]),
        format!("serving {name} (30 objects) writable")
    );
}

/// A writable open of a directory that does not exist names the missing
/// checkpoint, as the read-only open does — not the lock file it never
/// got to create — and creates nothing.
#[test]
fn writable_serve_on_a_missing_directory_names_its_checkpoint() {
    let dir = TestDir::new("writable_serve_on_a_missing_directory");
    let missing = dir.join("nx");
    let missing_arg = missing.to_str().unwrap();
    let error =
        format!("io error on {missing_arg}/CURRENT: No such file or directory (os error 2)");
    fails_with(
        &["query", "--index", missing_arg],
        &format!("error: {error}"),
    );
    fails_with(
        &["serve", "--index", missing_arg, "--writable"],
        &format!("error: {error}"),
    );
    assert!(!missing.exists());
}

/// A writable open of a directory that holds no index fails before it
/// takes the lock: an empty directory stays empty, and one in the
/// retired format gets the retired format's error and no lock file.
#[test]
fn writable_serve_on_a_directory_without_an_index_writes_nothing() {
    let dir = TestDir::new("writable_serve_on_a_directory_without_an_index");
    let empty = dir.join("empty");
    std::fs::create_dir_all(&empty).unwrap();
    let empty_arg = empty.to_str().unwrap();
    fails_with(
        &["serve", "--index", empty_arg, "--writable"],
        &format!(
            "error: io error on {empty_arg}/CURRENT: No such file or directory \
             (os error 2)"
        ),
    );
    let left: Vec<_> = std::fs::read_dir(&empty).unwrap().collect();
    assert!(left.is_empty(), "serve --writable left {left:?}");

    let retired = dir.join("retired");
    std::fs::create_dir_all(&retired).unwrap();
    std::fs::write(retired.join("index.json"), "{}").unwrap();
    let retired_arg = retired.to_str().unwrap();
    fails_with(
        &["serve", "--index", retired_arg, "--writable"],
        &format!(
            "error: bad index checkpoint {retired_arg}/index.json: this is a \
             flexemd-store/v1 index, which this build no longer reads: rebuild it with \
             `flexemd ingest` into a new directory"
        ),
    );
    assert!(
        !retired.join("LOCK").exists(),
        "serve --writable took the lock"
    );
}
