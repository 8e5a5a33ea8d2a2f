//! End-to-end test of the `flexemd` command-line tool: generate a corpus,
//! build an index, run a query — all through the real binary.

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

/// A corpus and an index over it (`build-index --reduction kmed:6`) in
/// a directory of their own.
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
    let build = flexemd()
        .arg("build-index")
        .arg("--data")
        .arg(&data)
        .args(["--reduction", "kmed:6", "--out"])
        .arg(&index)
        .output()
        .unwrap();
    assert!(
        build.status.success(),
        "build-index failed: {}",
        String::from_utf8_lossy(&build.stderr)
    );
    (dir, data, index)
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

#[test]
fn build_index_missing_dataset_is_one_line_diagnostic() {
    let out = flexemd()
        .args([
            "build-index",
            "--data",
            "/nonexistent/corpus.json",
            "--reduction",
            "kmed:4",
            "--out",
            "/tmp/flexemd-cli-unused-index",
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
        (format!("serve --wal {out} --adr 127.0.0.1:0"), "adr"),
        (
            format!("ingest --wal {out} --data {data} --sync-eahc 1"),
            "sync-eahc",
        ),
        (
            format!("ingest --wal {out} --data {data} --method kmed"),
            "method",
        ),
        (format!("ingest --wal {out} --data {data} --dims 8"), "dims"),
        (
            format!("build-index --data {data} --reduction kmed:4 --out {out} --clusters 1"),
            "clusters",
        ),
        (
            format!("build-index --data {data} --reductions kmed:4 --out {out}"),
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
        "build-index",
        "query",
        "serve",
        "ingest",
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

/// A malformed `--reduction` spec is a one-line error on both verbs
/// that take one, and neither writes anything.
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
        let expected = format!("error: {expected}");
        let build = [
            "build-index",
            "--data",
            data,
            "--reduction",
            spec,
            "--out",
            out,
        ];
        fails_with(&build, &expected);
        fails_with(
            &["ingest", "--wal", out, "--data", data, "--reduction", spec],
            &expected,
        );
    }
    assert!(
        !dir.join("never-written").exists(),
        "a rejected verb wrote {out}"
    );
}

/// An existing durable directory keeps the reduction it was created
/// with, so the options that would choose another are an error, not
/// silently dropped.
#[test]
fn ingest_into_an_existing_directory_rejects_reduction_options() {
    let (dir, data, _index) = corpus_and_index("ingest_existing_directory");
    let wal = dir.join("wal");
    let (wal, data) = (wal.to_str().unwrap(), data.to_str().unwrap());
    let created = flexemd()
        .args([
            "ingest",
            "--wal",
            wal,
            "--data",
            data,
            "--reduction",
            "kmed:6",
        ])
        .output()
        .unwrap();
    assert!(created.status.success());
    for (option, value) in [("reduction", "fb-all:12"), ("sample", "5"), ("seed", "3")] {
        let flag = format!("--{option}");
        fails_with(
            &["ingest", "--wal", wal, "--data", data, &flag, value],
            &format!(
                "error: {wal} already holds a durable index: --{option} applies only when \
                 ingest creates one"
            ),
        );
    }
    // Nothing was appended by the rejected runs.
    let inspect = flexemd()
        .args(["wal-inspect", "--wal", wal])
        .output()
        .unwrap();
    let text = String::from_utf8_lossy(&inspect.stdout).to_string();
    assert!(text.contains("records    : 30"), "{text}");
}

/// `serve` reads one corpus: given both a static index and a durable
/// directory it serves neither, rather than silently picking one.
#[test]
fn serve_rejects_index_beside_wal() {
    let (dir, data, index) = corpus_and_index("serve_index_beside_wal");
    let wal = dir.join("wal");
    let (wal, data, index) = (
        wal.to_str().unwrap(),
        data.to_str().unwrap(),
        index.to_str().unwrap(),
    );
    let created = flexemd()
        .args(["ingest", "--wal", wal, "--data", data])
        .output()
        .unwrap();
    assert!(created.status.success());
    // Stdin is closed, so a server that did start would drain and exit.
    fails_with(
        &[
            "serve",
            "--index",
            index,
            "--wal",
            wal,
            "--addr",
            "127.0.0.1:0",
            "--drain-stdin",
        ],
        "error: `serve` takes --index or --wal, not both",
    );
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

/// `build-index` refuses a directory that already holds an index —
/// one `ingest` grew or one `build-index` wrote — so it never destroys
/// ingested objects, and writes nothing there.
#[test]
fn build_index_refuses_a_durable_directory() {
    let (dir, data, index) = corpus_and_index("build_index_durable_directory");
    let wal = dir.join("wal");
    let (wal, data) = (wal.to_str().unwrap(), data.to_str().unwrap());
    let created = flexemd()
        .args(["ingest", "--wal", wal, "--data", data])
        .output()
        .unwrap();
    assert!(created.status.success());
    let before = std::fs::read(index.join("sealed-1.seg")).unwrap();
    for out in [wal, index.to_str().unwrap()] {
        fails_with(
            &[
                "build-index",
                "--data",
                data,
                "--reduction",
                "kmed:6",
                "--out",
                out,
            ],
            &format!(
                "error: io error on {out}/CURRENT: the directory already holds an index: a new \
                 one needs a directory of its own"
            ),
        );
    }
    assert!(!dir.join("wal").join("sealed-1.seg").exists());
    assert_eq!(std::fs::read(index.join("sealed-1.seg")).unwrap(), before);
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
         which this build no longer reads: rebuild it with `flexemd build-index` into a new \
         directory"
    );
    fails_with(
        &["ingest", "--wal", retired_arg, "--data", data],
        &format!("error: {refusal}"),
    );
    for written in ["CURRENT", "base.seg", "wal-0.log"] {
        assert!(!retired.join(written).exists(), "ingest wrote {written}");
    }
    fails_with(
        &["query", "--index", retired_arg],
        &format!("error: {refusal}"),
    );
}

/// `ingest` extends a directory `build-index` wrote: the n built objects
/// keep their ids, the m ingested ones follow, and `query --index`
/// answers over all n + m.
#[test]
fn ingest_extends_a_built_index_and_query_sees_every_object() {
    let (_dir, data, index) = corpus_and_index("ingest_extends_a_built_index");
    let ingest = flexemd()
        .arg("ingest")
        .arg("--wal")
        .arg(&index)
        .arg("--data")
        .arg(&data)
        .output()
        .unwrap();
    assert!(
        ingest.status.success(),
        "ingest failed: {}",
        String::from_utf8_lossy(&ingest.stderr)
    );
    let text = String::from_utf8_lossy(&ingest.stdout).to_string();
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

/// Read-only opens answer in the directory's ids, which are positions
/// only while no object was removed: after `serve --wal` removes one,
/// `query --index` is a typed error that points to `serve --wal`.
#[test]
fn query_refuses_an_index_an_object_was_removed_from() {
    let (_dir, _data, index) = corpus_and_index("query_refuses_removed");
    let (mut child, addr, _stdout) = spawn_wal_server(&index, &[]);
    let (status, body) = call(&addr, "POST", "/v1/remove", Some("{\"id\": 3}"));
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"removed\":true"), "{body}");
    drop(child.stdin.take());
    assert!(child.wait().unwrap().success(), "serve --wal did not drain");

    let out = query_output(&index, &[]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(stderr.contains("serve --wal"), "{stderr}");
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

/// Boot `flexemd serve --wal` on an ephemeral port. Unlike
/// [`spawn_server`], the banner is not the first stdout line (the open
/// report prints before it), so scan until the address appears.
fn spawn_wal_server(
    wal: &std::path::Path,
    extra: &[&str],
) -> (
    std::process::Child,
    String,
    std::io::BufReader<std::process::ChildStdout>,
) {
    use std::io::BufRead;
    let mut child = flexemd()
        .arg("serve")
        .arg("--wal")
        .arg(wal)
        .args(["--addr", "127.0.0.1:0", "--workers", "2", "--drain-stdin"])
        .args(extra)
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("serve --wal boots");
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
    let wal = dir.join("wal");

    // First ingest creates the durable directory and derives a reduction.
    let ingest = flexemd()
        .arg("ingest")
        .arg("--wal")
        .arg(&wal)
        .arg("--data")
        .arg(&data)
        .args(["--reduction", "kmed:6", "--seed", "7"])
        .output()
        .unwrap();
    assert!(
        ingest.status.success(),
        "ingest failed: {}",
        String::from_utf8_lossy(&ingest.stderr)
    );
    let text = String::from_utf8_lossy(&ingest.stdout).to_string();
    assert!(text.contains("ingested 30 objects"), "{text}");
    assert!(wal.join("CURRENT").exists());

    // Second ingest appends to the existing index and compacts.
    let again = flexemd()
        .arg("ingest")
        .arg("--wal")
        .arg(&wal)
        .arg("--data")
        .arg(&data)
        .args(["--sync-each", "--compact"])
        .output()
        .unwrap();
    assert!(
        again.status.success(),
        "second ingest failed: {}",
        String::from_utf8_lossy(&again.stderr)
    );
    let text = String::from_utf8_lossy(&again.stdout).to_string();
    assert!(text.contains("60 live objects"), "{text}");
    assert!(text.contains("compacted to epoch 1"), "{text}");

    // wal-inspect prints the checkpoint and the mandatory compact-epoch
    // record that heads every post-compaction WAL.
    let inspect = flexemd()
        .arg("wal-inspect")
        .arg("--wal")
        .arg(&wal)
        .output()
        .unwrap();
    assert!(
        inspect.status.success(),
        "wal-inspect failed: {}",
        String::from_utf8_lossy(&inspect.stderr)
    );
    let text = String::from_utf8_lossy(&inspect.stdout).to_string();
    assert!(text.contains("flexemd-durable/v1 1"), "{text}");
    assert!(text.contains("compact-epoch"), "{text}");
    assert!(text.contains("60 sealed ids"), "{text}");
    assert!(text.contains("torn tail  : none"), "{text}");

    // The served corpus is writable: query it, insert through it, and
    // see the durable ack plus the grown object count.
    let (mut child, addr, _stdout) = spawn_wal_server(&wal, &[]);
    let (status, body) = call(&addr, "GET", "/healthz", None);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"objects\":60"), "{body}");
    assert!(body.contains("\"writable\":true"), "{body}");

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
    assert!(child.wait().unwrap().success(), "serve --wal did not drain");

    // The HTTP insert survives: wal-inspect now shows one insert record
    // after the compact-epoch.
    let inspect = flexemd()
        .arg("wal-inspect")
        .arg("--wal")
        .arg(&wal)
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
    let (dir, data, _index) = corpus_and_index("writable_serve_honours_faults");
    let wal = dir.join("wal");
    let ingest = flexemd()
        .arg("ingest")
        .arg("--wal")
        .arg(&wal)
        .arg("--data")
        .arg(&data)
        .args(["--reduction", "kmed:6", "--seed", "7"])
        .output()
        .unwrap();
    assert!(
        ingest.status.success(),
        "ingest failed: {}",
        String::from_utf8_lossy(&ingest.stderr)
    );

    let (mut child, addr, _stdout) = spawn_wal_server(&wal, &["--faults", "solve:1"]);
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
    assert!(child.wait().unwrap().success(), "serve --wal did not drain");
}

/// `--faults read:K` walks the file reads of the one open path on
/// `serve --wal` too: `read:1` fails the checkpoint read, and the
/// server never starts.
#[test]
fn writable_serve_honours_read_faults() {
    let (_dir, _data, index) = corpus_and_index("writable_serve_honours_read_faults");
    let out = flexemd()
        .arg("serve")
        .arg("--wal")
        .arg(&index)
        .args(["--faults", "read:1", "--drain-stdin"])
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

/// `serve --wal` reports the name the directory's `base.seg` records, as
/// `serve --index` does: on `/healthz` and in its banner.
#[test]
fn writable_serve_reports_the_name_the_index_records() {
    let (_dir, _data, index) = corpus_and_index("writable_serve_reports_the_name");
    let (mut child, addr, _stdout) = spawn_server(&index, &[]);
    let name = healthz_index(&addr);
    drop(child.stdin.take());
    assert!(child.wait().unwrap().success(), "serve did not drain");
    assert!(name.starts_with("gaussian"), "{name}");

    let (mut child, addr, _stdout) = spawn_wal_server(&index, &[]);
    assert_eq!(healthz_index(&addr), name);
    drop(child.stdin.take());
    assert!(child.wait().unwrap().success(), "serve --wal did not drain");

    // With stdin closed from the start, each server prints its banner and
    // drains at once.
    let banner = |mode: &str| {
        let out = flexemd()
            .args(["serve", mode])
            .arg(&index)
            .args(["--addr", "127.0.0.1:0", "--drain-stdin"])
            .stdin(Stdio::null())
            .output()
            .unwrap();
        assert!(out.status.success(), "serve {mode} failed");
        let stdout = String::from_utf8_lossy(&out.stdout).to_string();
        let line = stdout.lines().find(|line| line.starts_with("serving "));
        let line = line.unwrap_or_else(|| panic!("no banner: {stdout}"));
        line.split(" on http://").next().unwrap().to_owned()
    };
    assert_eq!(banner("--index"), format!("serving {name} (30 objects)"));
    assert_eq!(
        banner("--wal"),
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
    fails_with(&["serve", "--wal", missing_arg], &format!("error: {error}"));
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
        &["serve", "--wal", empty_arg],
        &format!(
            "error: io error on {empty_arg}/CURRENT: No such file or directory \
             (os error 2)"
        ),
    );
    let left: Vec<_> = std::fs::read_dir(&empty).unwrap().collect();
    assert!(left.is_empty(), "serve --wal left {left:?}");

    let retired = dir.join("retired");
    std::fs::create_dir_all(&retired).unwrap();
    std::fs::write(retired.join("index.json"), "{}").unwrap();
    let retired_arg = retired.to_str().unwrap();
    fails_with(
        &["serve", "--wal", retired_arg],
        &format!(
            "error: bad index checkpoint {retired_arg}/index.json: this is a \
             flexemd-store/v1 index, which this build no longer reads: rebuild it with \
             `flexemd build-index` into a new directory"
        ),
    );
    assert!(!retired.join("LOCK").exists(), "serve --wal took the lock");
}
