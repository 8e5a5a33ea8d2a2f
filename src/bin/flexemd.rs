//! `flexemd` — command-line front end for EMD similarity search; `USAGE`
//! below is its synopsis.
//!
//! `generate` writes a synthetic corpus. `ingest` is the one verb that
//! writes an index directory: into a new one it trains one combining
//! reduction for the corpus (`METHOD:DIMS`, e.g. `kmed:8` or `fb-all:12`)
//! and bulk-loads it — histograms, cost matrix and reductions, checksummed;
//! the reduced data is derived on open — and into an existing one it
//! appends the corpus through the WAL. `ingest --cluster` additionally
//! runs greedy k-center clustering over the reduced arena and persists the
//! geometry (pivots, assignments, radii). `query --index` opens the
//! directory read-only and runs one query through the filter-and-refine
//! pipeline, reporting what the filter saved. The plan follows the index:
//! over a clustered index it runs the same `anchor -> Red-IM -> Red-EMD`
//! chain over a cluster traversal instead of every object, with
//! bit-identical answers. `--metrics` records an `emd-obs` registry over
//! the open and the query — the open's layers under `store.open`,
//! per-stage spans, solver counters, lower-bound evaluations — and dumps
//! it as schema-versioned JSON (`json` = stdout, anything else = a file
//! path).
//!
//! `--deadline-ms` / `--max-pivots` put the query under an execution
//! budget: if it fires, the best-effort ranking prints under a one-line
//! `DEGRADED (<reason>)` banner and the process still exits 0. `--faults`
//! injects deterministic failures (`read:K,solve:J,panic:W`) for
//! resilience testing — the plan rides each query's budget; an injected
//! worker panic exits nonzero with a one-line diagnostic.
//!
//! `serve` keeps the opened snapshot resident and answers the same
//! queries over HTTP (`POST /v1/knn`, `POST /v1/range`, `GET /healthz`,
//! `GET /metrics`) with per-request budgets, 429 shedding beyond
//! `--max-inflight`, and per-request panic isolation; drain with
//! `POST /admin/drain` (or close stdin under `--drain-stdin`). Under
//! `--writable` it also takes inserts, removals and compactions.

use flexemd::core::Histogram;
use flexemd::data::{io as dataio, Dataset};
use flexemd::faultkit::{FailPlan, InjectedPanic, NoFaults};
use flexemd::query::durable::CHECKPOINT_FILE;
use flexemd::query::{
    ClusteredIndex, Database, DurableIndex, EmdDistance, Executor, QueryError, QueryMode,
    QueryOutcome, QueryPlan,
};
use flexemd::reduction::fb::{fb_all, fb_mod, FbOptions};
use flexemd::reduction::flow_sample::{draw_sample, FlowSample};
use flexemd::reduction::grid::block_merge;
use flexemd::reduction::kmedoids::kmedoids_reduction_restarts;
use flexemd::reduction::{CombiningReduction, PersistedReduction, ReducedEmd};
use flexemd::serve::{QuerySpec, ServeConfig, Server, Snapshot};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(command) = args.next() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let options = match Options::parse(args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("error: {message}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    // Every verb writes through this one locked handle, so a closed pipe
    // (`flexemd query ... | head -1`) comes back as an error to handle
    // here rather than as a `println!` panic.
    let stdout = &mut std::io::stdout().lock();
    let result = match VERBS.iter().find(|(verb, ..)| *verb == command) {
        Some((verb, run, accepted)) => options
            .reject_unknown(verb, accepted)
            .map_err(CliError::from)
            .and_then(|()| run(&options, stdout)),
        None if matches!(command.as_str(), "--help" | "-h" | "help") => {
            writeln!(stdout, "{USAGE}").map_err(CliError::from)
        }
        None => Err(format!("unknown command `{command}`").into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        // The reader went away: nobody is left to tell.
        Err(CliError::Output(error)) if error.kind() == std::io::ErrorKind::BrokenPipe => {
            ExitCode::SUCCESS
        }
        Err(CliError::Output(error)) => {
            eprintln!("error: writing output: {error}");
            ExitCode::FAILURE
        }
        Err(CliError::Message(message)) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

type Verb = fn(&Options, &mut dyn Write) -> Result<(), CliError>;

/// Every verb: its handler and the options it accepts. Any other key is
/// an error before the handler runs — a mistyped `--deadline-ms` must not
/// run as a query without a deadline.
#[rustfmt::skip]
const VERBS: &[(&str, Verb, &[&str])] = &[
    ("generate", generate, &["kind", "out", "classes", "per-class", "seed"]),
    ("info", info, &["data"]),
    ("ingest", ingest, &[
        "index", "data", "reduction", "sample", "seed", "cluster", "compact",
    ]),
    ("query", query, &[
        "index", "k", "range", "query", "metrics", "deadline-ms", "max-pivots", "faults",
    ]),
    ("serve", serve, &[
        "index", "writable", "addr", "workers", "max-inflight", "drain-stdin", "faults",
    ]),
    ("wal-inspect", wal_inspect, &["index"]),
];

/// Why a verb stopped: a one-line diagnostic, or a failed write to stdout.
enum CliError {
    Message(String),
    Output(std::io::Error),
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError::Message(message)
    }
}

impl From<std::io::Error> for CliError {
    fn from(error: std::io::Error) -> Self {
        CliError::Output(error)
    }
}

const USAGE: &str = "\
flexemd — EMD similarity search with flexible dimensionality reduction

USAGE:
  flexemd generate    --kind tiling|color|gaussian --out data.json
                      [--classes N] [--per-class N] [--seed S]
  flexemd info        --data data.json
  flexemd ingest      --index index-dir --data data.json
                      [--reduction METHOD:DIMS] [--sample N] [--seed S]
                      [--cluster] [--compact]
  flexemd query       --index index-dir
                      [--k K | --range EPS] [--query I]
                      [--metrics json|PATH]
                      [--deadline-ms N] [--max-pivots N] [--faults SPEC]
  flexemd serve       --index index-dir [--writable] [--addr HOST:PORT]
                      [--workers N] [--max-inflight N] [--drain-stdin]
                      [--faults SPEC]
  flexemd wal-inspect --index index-dir

Index directories: ingest is the one verb that writes one. Into a new
directory it trains the reduction and bulk-loads the corpus (sealed at
epoch 1); into one that holds an index it appends every corpus object to
the WAL with one fsync at the end, and --compact then folds the WAL into
a new sealed segment. query and serve open a directory read-only and
answer in its ids, so they refuse one an object was removed from; serve
--writable opens it writable and additionally answers POST /v1/insert,
POST /v1/remove and POST /admin/compact, where a 200 is a durability
acknowledgment (record fsynced, reader snapshot swapped). wal-inspect
replays a directory's log read-only and prints every record plus any
torn tail.

Reductions: METHOD:DIMS (default kmed:2) names one combining reduction to
DIMS dimensions, METHOD one of kmed, fb-mod, fb-all or grid (tiling
corpora only). fb-mod and fb-all train on a flow sample of --sample
objects (default 24); kmed, fb-mod and fb-all fix their training with
--seed (default 42); an option the method does not read is an error.
--cluster persists greedy k-center clustering geometry over the reduced
arena (about sqrt(n) clusters). These options apply only when ingest
creates the directory; an existing one keeps its reduction, and its
clustering only until the first append: from then on every object feeds
the chain, and --compact writes no clustering.

Queries: every query runs the anchor -> Red-IM -> Red-EMD -> EMD chain,
and the index chooses what feeds it: a clustered index only the members
of clusters the triangle inequality cannot prune, any other every
object. Both return bit-identical answers.

Serving: serve answers POST /v1/knn and /v1/range (JSON bodies carrying
query_id or weights plus k/epsilon/deadline_ms/max_pivots), GET /healthz
and GET /metrics; connections beyond --max-inflight are shed with 429 +
Retry-After, per-request panics isolate to a 500 for that request, and
POST /admin/drain (or stdin EOF under --drain-stdin) drains gracefully.

Budgets: --deadline-ms / --max-pivots bound a query's wall clock / solver
work; when a budget fires, the best-effort ranking prints under a
`DEGRADED (<reason>)` banner and the exit code stays 0.
Faults: SPEC is a comma list of read:K (fail the K-th index-file read),
solve:J (exhaust the budget at the J-th solve), panic:W (panic in
worker W: the CLI query runs as worker 0, served requests are numbered
from 0) — deterministic failpoints for resilience testing.";

/// Parsed `--key value` options (every option takes a value except the
/// boolean flags `--cluster`, `--compact`, `--drain-stdin` and
/// `--writable`).
struct Options {
    values: HashMap<String, String>,
    /// The first option given without a value: an error, reported once
    /// the verb has accepted every key (a flag no verb knows is an unknown
    /// option, wherever it stands).
    valueless: Option<String>,
}

impl Options {
    fn parse(args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut values = HashMap::new();
        let mut valueless = None;
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            let Some(key) = arg.strip_prefix("--") else {
                return Err(format!("unexpected argument `{arg}`"));
            };
            if matches!(key, "cluster" | "compact" | "drain-stdin" | "writable") {
                values.insert(key.to_owned(), "true".to_owned());
                continue;
            }
            let value = args.next_if(|next| !next.starts_with("--"));
            if value.is_none() {
                valueless.get_or_insert_with(|| key.to_owned());
            }
            values.insert(key.to_owned(), value.unwrap_or_default());
        }
        Ok(Options { values, valueless })
    }

    /// Fail on the first (alphabetically) key `verb` does not accept, then
    /// on the first option given without a value.
    fn reject_unknown(&self, verb: &str, accepted: &[&str]) -> Result<(), String> {
        let unknown = self
            .values
            .keys()
            .filter(|key| !accepted.contains(&key.as_str()));
        if let Some(key) = unknown.min() {
            return Err(format!("unknown option --{key} for `{verb}`"));
        }
        match &self.valueless {
            Some(key) => Err(format!("--{key} requires a value")),
            None => Ok(()),
        }
    }

    fn required(&self, key: &str) -> Result<&str, String> {
        self.values
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing required option --{key}"))
    }

    fn numeric<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.values.get(key) {
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("--{key} expects a number, got `{raw}`")),
            None => Ok(default),
        }
    }

    fn flag(&self, key: &str) -> bool {
        self.values.contains_key(key)
    }

    fn path(&self, key: &str) -> Result<PathBuf, String> {
        Ok(PathBuf::from(self.required(key)?))
    }
}

fn generate(options: &Options, stdout: &mut dyn Write) -> Result<(), CliError> {
    let kind = options.required("kind")?;
    let out = options.path("out")?;
    let classes = options.numeric("classes", 6usize)?;
    if classes == 0 {
        return Err("--classes must be at least 1".to_owned().into());
    }
    let per_class = options.numeric("per-class", 50usize)?;
    let seed = options.numeric("seed", 42u64)?;
    let mut rng = StdRng::seed_from_u64(seed);

    let dataset = match kind {
        "tiling" => flexemd::data::tiling::generate(
            &flexemd::data::tiling::TilingParams {
                num_classes: classes,
                per_class,
                ..Default::default()
            },
            &mut rng,
        ),
        "color" => flexemd::data::color::generate(
            &flexemd::data::color::ColorParams {
                num_classes: classes,
                per_class,
                ..Default::default()
            },
            &mut rng,
        ),
        "gaussian" => flexemd::data::gaussian::generate(
            &flexemd::data::gaussian::GaussianParams {
                num_classes: classes,
                per_class,
                ..Default::default()
            },
            &mut rng,
        ),
        other => return Err(format!("unknown corpus kind `{other}`").into()),
    };
    dataio::save(&dataset, &out).map_err(|e| e.to_string())?;
    writeln!(
        stdout,
        "wrote {} ({} objects, {} dimensions) to {}",
        dataset.name,
        dataset.len(),
        dataset.dim(),
        out.display()
    )?;
    Ok(())
}

fn info(options: &Options, stdout: &mut dyn Write) -> Result<(), CliError> {
    let dataset = load_dataset(&options.path("data")?)?;
    writeln!(stdout, "corpus      : {}", dataset.name)?;
    writeln!(stdout, "objects     : {}", dataset.len())?;
    writeln!(stdout, "dimensions  : {}", dataset.dim())?;
    let classes = dataset
        .labels
        .iter()
        .collect::<std::collections::HashSet<_>>();
    writeln!(stdout, "classes     : {}", classes.len())?;
    writeln!(
        stdout,
        "metric cost : {}",
        if dataset.cost.is_metric() {
            "yes"
        } else {
            "no"
        }
    )?;
    let mean_support: f64 = dataset
        .histograms
        .iter()
        .map(|h| h.support_size() as f64)
        .sum::<f64>()
        / dataset.len().max(1) as f64;
    writeln!(stdout, "mean support: {mean_support:.1} non-zero bins")?;
    Ok(())
}

/// Every reduction method and the training options it reads.
const METHODS: &[(&str, &[&str])] = &[
    ("kmed", &["seed"]),
    ("fb-mod", &["sample", "seed"]),
    ("fb-all", &["sample", "seed"]),
    ("grid", &[]),
];

/// Build the combining reduction a `METHOD:DIMS` spec names, trained
/// deterministically under `--sample` (default 24) and `--seed` (default
/// 42). A training option the method does not read is an error: it must
/// not run as if it were absent.
fn build_reduction(
    options: &Options,
    dataset: &Dataset,
    spec: &str,
) -> Result<CombiningReduction, String> {
    let (method, dims) = spec
        .split_once(':')
        .ok_or_else(|| format!("bad reduction spec `{spec}` (expected `method:dims`)"))?;
    let dims: usize = dims
        .parse()
        .map_err(|_| format!("bad dimension count in reduction spec `{spec}`"))?;
    let sample_size = options.numeric("sample", 24usize)?;
    let seed = options.numeric("seed", 42u64)?;
    if dims == 0 || dims > dataset.dim() {
        return Err(format!(
            "reduced dimensionality must be between 1 and {} (got {dims})",
            dataset.dim()
        ));
    }
    let (_, reads) = METHODS
        .iter()
        .find(|(name, _)| *name == method)
        .ok_or_else(|| format!("unknown reduction method `{method}`"))?;
    if let Some(key) = ["sample", "seed"]
        .into_iter()
        .find(|key| options.flag(key) && !reads.contains(key))
    {
        let readers: Vec<&str> = METHODS
            .iter()
            .filter(|(_, reads)| reads.contains(&key))
            .map(|(name, _)| *name)
            .collect();
        return Err(format!(
            "--{key} is read only by reductions {}; {method} ignores it",
            readers.join(", ")
        ));
    }
    let mut rng = StdRng::seed_from_u64(seed);

    let kmed = || -> Result<CombiningReduction, String> {
        Ok(
            kmedoids_reduction_restarts(&dataset.cost, dims, 4, &mut StdRng::seed_from_u64(seed))
                .map_err(|e| e.to_string())?
                .reduction,
        )
    };
    let flows = |rng: &mut StdRng| -> Result<FlowSample, String> {
        let sample: Vec<Histogram> = draw_sample(&dataset.histograms, sample_size, rng)
            .into_iter()
            .cloned()
            .collect();
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        FlowSample::from_histograms_parallel(&sample, &dataset.cost, threads)
            .map_err(|e| e.to_string())
    };

    match method {
        "fb-mod" => {
            let flows = flows(&mut rng)?;
            Ok(fb_mod(kmed()?, &flows, &dataset.cost, FbOptions::default()).reduction)
        }
        "fb-all" => {
            let flows = flows(&mut rng)?;
            Ok(fb_all(kmed()?, &flows, &dataset.cost, FbOptions::default()).reduction)
        }
        "grid" => {
            // Infer a tiling from the corpus name ("tiling-WxH").
            let (width, height) = dataset
                .name
                .strip_prefix("tiling-")
                .and_then(|s| s.split_once('x'))
                .and_then(|(w, h)| Some((w.parse().ok()?, h.parse().ok()?)))
                .ok_or("reduction `grid` needs a tiling corpus (name `tiling-WxH`)")?;
            let block = ((width * height) as f64 / dims as f64).sqrt().ceil() as usize;
            block_merge(width, height, block.max(1), block.max(1)).map_err(|e| e.to_string())
        }
        // `kmed`: `METHODS` names no other method.
        _ => kmed(),
    }
}

/// `ingest` into a directory that holds no index: train the reduction
/// `--reduction` names (default `kmed:2`) and bulk-load `dataset` as
/// epoch 1, clustered under `--cluster`.
fn create_index(
    options: &Options,
    stdout: &mut dyn Write,
    dir: &Path,
    dataset: &Dataset,
) -> Result<(), CliError> {
    let spec = options
        .values
        .get("reduction")
        .map_or("kmed:2", String::as_str);
    let reduction = build_reduction(options, dataset, spec)?;

    let cost = Arc::new(dataset.cost.clone());
    let database =
        Database::new(dataset.histograms.clone(), cost.clone()).map_err(|e| e.to_string())?;
    let reduced = ReducedEmd::new(&cost, reduction).map_err(|e| e.to_string())?;
    let bundle = PersistedReduction::precompute(spec, reduced, database.histograms())
        .map_err(|e| e.to_string())?;

    let clustering = if options.flag("cluster") {
        let index = ClusteredIndex::from_persisted(&database, &bundle, 1.0)
            .map_err(|e| format!("clustering {spec}: {e}"))?;
        writeln!(
            stdout,
            "clustered {spec:<12} into {} clusters",
            index.clusters()
        )?;
        Some(index.to_stored())
    } else {
        None
    };
    database
        .save_with_clusterings(
            dir,
            &dataset.name,
            std::slice::from_ref(&bundle),
            &[clustering],
        )
        .map_err(|e| e.to_string())?;
    writeln!(
        stdout,
        "wrote index for {} ({} objects, {} -> {} dimensions by {spec}) to {}",
        dataset.name,
        database.len(),
        dataset.dim(),
        bundle.reduced().r2().reduced_dim(),
        dir.display()
    )?;
    Ok(())
}

/// Parse a `--faults` spec (`read:K,solve:J,panic:W`, any subset) into a
/// deterministic failpoint plan.
fn parse_faults(spec: &str) -> Result<FailPlan, String> {
    let mut plan = FailPlan::new();
    for part in spec.split(',') {
        let (site, value) = part
            .split_once(':')
            .ok_or_else(|| format!("bad fault `{part}` (expected `site:index`)"))?;
        match site {
            "read" => {
                let k = value
                    .parse()
                    .map_err(|_| format!("bad read index in fault `{part}`"))?;
                plan = plan.fail_read(k);
            }
            "solve" => {
                let j = value
                    .parse()
                    .map_err(|_| format!("bad solve index in fault `{part}`"))?;
                plan = plan.exhaust_solve(j);
            }
            "panic" => {
                let w = value
                    .parse()
                    .map_err(|_| format!("bad worker index in fault `{part}`"))?;
                plan = plan.panic_worker(w);
            }
            other => return Err(format!("unknown fault site `{other}` in `{part}`")),
        }
    }
    Ok(plan)
}

/// Suppress the default panic-hook backtrace for *injected* panics only;
/// the isolation layer converts them into typed errors, so the hook
/// noise would drown the one-line diagnostic. Genuine panics still print.
fn quiet_injected_panics() {
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if info.payload().downcast_ref::<InjectedPanic>().is_none() {
            previous(info);
        }
    }));
}

/// Everything `query` and `serve` assemble before running: the snapshot,
/// the plan over it (filter stages or a stage-1 candidate source ahead of
/// the exact refiner) and the corpus name.
struct Corpus {
    name: String,
    database: Database,
    plan: QueryPlan,
}

/// The exact-EMD refiner over `database`, with no stage ahead of it.
fn refiner_only(database: &Database) -> Result<QueryPlan, QueryError> {
    QueryPlan::sequential(Box::new(EmdDistance::new(database)?))
}

/// Parse `--faults`, installing the quiet panic hook when present.
fn fault_options(options: &Options) -> Result<Option<Arc<FailPlan>>, String> {
    match options.values.get("faults") {
        Some(spec) => {
            let plan = parse_faults(spec)?;
            quiet_injected_panics();
            Ok(Some(Arc::new(plan)))
        }
        None => Ok(None),
    }
}

/// Open the persisted index at `--index`. The plan follows the index:
/// `QueryPlan::chain`, inside the cluster index when the index persisted
/// a clustering.
fn prepare_corpus(options: &Options, fault_plan: Option<&Arc<FailPlan>>) -> Result<Corpus, String> {
    let index_dir = options.path("index")?;
    let opened = match fault_plan {
        Some(plan) => Database::open_with(&index_dir, plan.as_ref()),
        None => Database::open(&index_dir),
    }
    .map_err(|e| e.to_string())?;
    let database = opened.database;
    let bundle = opened
        .reductions
        .into_iter()
        .next()
        .ok_or_else(|| format!("index {} holds no reductions", index_dir.display()))?;
    // Persisted geometry reattaches without re-clustering.
    let plan = match opened.clusterings.into_iter().next().flatten() {
        Some(stored) => ClusteredIndex::from_stored(&database, &bundle, &stored)
            .and_then(|index| refiner_only(&database)?.with_source(Box::new(index))),
        None => QueryPlan::chain(&database, &bundle),
    }
    .map_err(|e| e.to_string())?;
    Ok(Corpus {
        name: opened.name,
        database,
        plan,
    })
}

/// The shared query-shape flags (`--k`, `--range`, `--deadline-ms`,
/// `--max-pivots`) parsed through the same [`QuerySpec`] the server
/// uses — one vocabulary, one validation.
fn query_spec(options: &Options) -> Result<QuerySpec, String> {
    QuerySpec::from_raw(
        options.values.get("k").map(String::as_str),
        options.values.get("range").map(String::as_str),
        options.values.get("deadline-ms").map(String::as_str),
        options.values.get("max-pivots").map(String::as_str),
    )
    .map_err(|e| e.to_string())
}

fn query(options: &Options, stdout: &mut dyn Write) -> Result<(), CliError> {
    let spec = query_spec(options)?;
    let query_index = options.numeric("query", 0usize)?;
    let fault_plan = fault_options(options)?;

    // The recording covers the open too: `store.open` and its layers.
    let metrics = options.values.get("metrics").cloned();
    let recording = metrics
        .as_ref()
        .map(|_| flexemd::obs::Recording::with_events());
    let Corpus {
        name: _,
        database,
        plan,
    } = prepare_corpus(options, fault_plan.as_ref())?;

    let query = database.get(query_index).ok_or_else(|| {
        format!(
            "--query index {query_index} out of range (corpus has {})",
            database.len()
        )
    })?;
    let executor = Executor::new(plan);

    // The fault plan rides the query's budget: `solve:J` fires inside the
    // solver, `panic:W` at the executor's worker probe.
    let mut request = spec.query_for(query.clone());
    if let Some(plan) = fault_plan {
        request.budget = request.budget.with_faults(plan);
    }

    let started = std::time::Instant::now();
    // Panic isolation turns an injected (or genuine) worker panic into a
    // typed one-line diagnostic and a nonzero exit, not a crashed process.
    let (outcome, stats) = executor
        .run_isolated(&request, 0)
        .map_err(|e| e.to_string())?;
    let elapsed = started.elapsed();
    let registry = recording.map(flexemd::obs::Recording::finish);

    let heading = match spec.mode() {
        QueryMode::Knn(k) => format!("{k}-NN of object {query_index}"),
        QueryMode::Range(epsilon) => format!("range(epsilon = {epsilon}) of object {query_index}"),
    };
    writeln!(stdout, "{heading}:")?;
    match &outcome {
        QueryOutcome::Exact(neighbors) => {
            for n in neighbors {
                writeln!(stdout, "  #{:<5} distance {:<10.5}", n.id, n.distance)?;
            }
        }
        QueryOutcome::Degraded(result) => {
            writeln!(
                stdout,
                "DEGRADED ({}): best-effort ranking by tightest known lower bound",
                result.reason
            )?;
            for c in &result.candidates {
                writeln!(
                    stdout,
                    "  #{:<5} bound    {:<10.5} {}",
                    c.id,
                    c.bound,
                    if c.exact { "exact" } else { "lower bound" }
                )?;
            }
        }
    }
    writeln!(stdout)?;
    for (stage, evaluations) in &stats.filter_evaluations {
        writeln!(stdout, "{stage:<20} {evaluations} evaluations")?;
    }
    writeln!(
        stdout,
        "exact EMD refinements: {} of {} objects ({:.1}%), {} cut at the threshold",
        stats.refinements,
        database.len(),
        100.0 * stats.refinements as f64 / database.len() as f64,
        stats.refinements_cut
    )?;
    writeln!(stdout, "query time: {:.1} ms", elapsed.as_secs_f64() * 1e3)?;

    if let (Some(sink), Some(registry)) = (metrics, registry) {
        let rendered = registry.to_json_string();
        if sink == "json" {
            writeln!(stdout, "{rendered}")?;
        } else {
            std::fs::write(&sink, rendered).map_err(|e| e.to_string())?;
            writeln!(stdout, "wrote metrics to {sink}")?;
        }
    }
    Ok(())
}

/// Open the index at `--index` writable, with `fault_plan` probed at
/// every file read and WAL write, reporting what replay found.
fn open_durable(
    options: &Options,
    stdout: &mut dyn Write,
    fault_plan: Option<&Arc<FailPlan>>,
) -> Result<DurableIndex, CliError> {
    let dir = options.path("index")?;
    let (index, report) = match fault_plan {
        Some(plan) => DurableIndex::open_with(&dir, Arc::clone(plan) as _),
        None => DurableIndex::open(&dir),
    }
    .map_err(|e| e.to_string())?;
    if let Some(torn) = &report.torn_tail {
        eprintln!(
            "warning: discarded torn WAL tail at byte {} ({} bytes, {})",
            torn.offset, torn.discarded_bytes, torn.reason
        );
    }
    writeln!(
        stdout,
        "opened {} (epoch {}, {} sealed + {} replayed records, {} live objects)",
        dir.display(),
        report.epoch,
        report.sealed_objects,
        report.replayed_records,
        index.len()
    )?;
    Ok(index)
}

/// The one verb that writes an index directory: a new one is bulk-loaded
/// ([`create_index`]); an existing one takes every corpus object through
/// its WAL, made durable by one final sync, and folds it into a new sealed
/// segment under `--compact`.
fn ingest(options: &Options, stdout: &mut dyn Write) -> Result<(), CliError> {
    let dir = options.path("index")?;
    let dataset = load_dataset(&options.path("data")?)?;
    if !dir.join(CHECKPOINT_FILE).exists() {
        return create_index(options, stdout, &dir, &dataset);
    }
    // The directory's reduction and clustering were fixed when it was
    // created.
    if let Some(key) = ["reduction", "sample", "seed", "cluster"]
        .iter()
        .find(|k| options.flag(k))
    {
        return Err(format!(
            "{} already holds a durable index: --{key} applies only when ingest creates one",
            dir.display()
        )
        .into());
    }
    let mut index = open_durable(options, stdout, None)?;

    let started = std::time::Instant::now();
    let mut first_id = None;
    for histogram in &dataset.histograms {
        let id = index
            .append_insert(histogram.clone())
            .map_err(|e| e.to_string())?;
        first_id.get_or_insert(id);
    }
    index.sync().map_err(|e| e.to_string())?;
    writeln!(
        stdout,
        "ingested {} objects (external ids {}..) in {:.1} ms ({} live objects total)",
        dataset.len(),
        first_id.unwrap_or(0),
        started.elapsed().as_secs_f64() * 1e3,
        index.len()
    )?;
    if options.flag("compact") {
        let report = index.compact().map_err(|e| e.to_string())?;
        writeln!(
            stdout,
            "compacted to epoch {} ({} objects sealed, {} WAL bytes folded)",
            report.epoch, report.sealed_objects, report.folded_wal_bytes
        )?;
    }
    Ok(())
}

fn wal_inspect(options: &Options, stdout: &mut dyn Write) -> Result<(), CliError> {
    use flexemd::query::durable::{read_checkpoint, replay_wal, WalRecord, CHECKPOINT_SCHEMA};
    let dir = options.path("index")?;
    let epoch = read_checkpoint(&dir, &NoFaults).map_err(|e| e.to_string())?;
    writeln!(stdout, "checkpoint : {CHECKPOINT_SCHEMA} {epoch}")?;
    let (wal_file, replay) = replay_wal(&dir, epoch).map_err(|e| e.to_string())?;
    writeln!(stdout, "wal file   : {}", wal_file.display())?;
    writeln!(stdout, "records    : {}", replay.records.len())?;
    writeln!(stdout, "valid bytes: {}", replay.valid_len)?;
    for (lsn, record) in &replay.records {
        match record {
            WalRecord::Insert {
                external_id,
                histogram,
            } => writeln!(
                stdout,
                "  lsn {lsn:>6}  insert         id {external_id} ({} bins)",
                histogram.dim()
            )?,
            WalRecord::Remove { external_id } => {
                writeln!(stdout, "  lsn {lsn:>6}  remove         id {external_id}")?;
            }
            WalRecord::CompactEpoch {
                epoch,
                next_external,
            } => writeln!(
                stdout,
                "  lsn {lsn:>6}  compact-epoch  epoch {epoch}, next id {next_external}"
            )?,
        }
    }
    match &replay.torn_tail {
        Some(torn) => writeln!(
            stdout,
            "torn tail  : {} bytes at offset {} ({}) — discarded on next open",
            torn.discarded_bytes, torn.offset, torn.reason
        )?,
        None => writeln!(stdout, "torn tail  : none")?,
    }
    Ok(())
}

/// `serve --writable`: a writable server over an index directory.
fn serve_writable(options: &Options, stdout: &mut dyn Write) -> Result<(), CliError> {
    let fault_plan = fault_options(options)?;
    let index = open_durable(options, stdout, fault_plan.as_ref())?;
    let name = index.name().to_owned();
    let banner = format!("{} ({} objects) writable", banner_name(&name), index.len());
    let dim = index.cost().cols();
    let cost = Arc::clone(index.cost());
    let ingest_state =
        Arc::new(flexemd::serve::IngestState::new(index).map_err(|e| e.to_string())?);

    // The static executor/database pair is dead weight in dynamic mode
    // (queries route through the ingest snapshot), but the Snapshot type
    // requires them — a one-object placeholder satisfies the invariants.
    let uniform = Histogram::new(vec![1.0 / dim as f64; dim]).map_err(|e| e.to_string())?;
    let database = Database::new(vec![uniform], cost).map_err(|e| e.to_string())?;
    let executor = Executor::new(refiner_only(&database).map_err(|e| e.to_string())?);
    let snapshot = Snapshot {
        executor,
        database,
        name,
        faults: fault_plan.map(|plan| plan as Arc<dyn flexemd::faultkit::FaultInjector>),
        ingest: Some(ingest_state),
    };

    serve_until_drained(
        options,
        stdout,
        snapshot,
        &banner,
        "POST /v1/knn | /v1/range | /v1/insert | /v1/remove | /admin/compact | \
         /admin/drain | GET /healthz | /metrics",
    )
}

fn serve(options: &Options, stdout: &mut dyn Write) -> Result<(), CliError> {
    if options.flag("writable") {
        return serve_writable(options, stdout);
    }
    let fault_plan = fault_options(options)?;

    let Corpus {
        name,
        database,
        plan,
    } = prepare_corpus(options, fault_plan.as_ref())?;
    let executor = Executor::new(plan);
    let objects = database.len();
    let banner = format!("{} ({objects} objects)", banner_name(&name));
    let snapshot = Snapshot {
        executor,
        database,
        name,
        faults: fault_plan.map(|plan| plan as Arc<dyn flexemd::faultkit::FaultInjector>),
        ingest: None,
    };

    serve_until_drained(
        options,
        stdout,
        snapshot,
        &banner,
        "POST /v1/knn | POST /v1/range | GET /healthz | GET /metrics | POST /admin/drain",
    )
}

/// What the banner calls an index: the name its directory records, or
/// `corpus` when it records none.
fn banner_name(name: &str) -> &str {
    if name.is_empty() {
        "corpus"
    } else {
        name
    }
}

/// The tail `serve` and `serve --writable` share: start the server on
/// `snapshot`, print the banner, and block until it has drained.
fn serve_until_drained(
    options: &Options,
    stdout: &mut dyn Write,
    snapshot: Snapshot,
    serving: &str,
    routes: &str,
) -> Result<(), CliError> {
    let config = ServeConfig {
        addr: options
            .values
            .get("addr")
            .cloned()
            .unwrap_or_else(|| "127.0.0.1:7878".to_owned()),
        workers: options.numeric("workers", 4usize)?,
        max_inflight: options.numeric("max-inflight", 64usize)?,
    };
    let server = Server::start(snapshot, config).map_err(|e| e.to_string())?;
    writeln!(stdout, "serving {serving} on http://{}", server.addr())?;
    writeln!(stdout, "routes: {routes}")?;

    if options.flag("drain-stdin") {
        // Opt-in: treat stdin EOF as a drain request, so a supervising
        // process (or Ctrl-D) can stop the server without signals.
        let handle = server.shutdown_handle();
        std::thread::spawn(move || {
            use std::io::Read;
            let mut sink = [0u8; 256];
            let mut stdin = std::io::stdin();
            while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}
            handle.drain();
        });
    }

    server.join().map_err(|e| e.to_string())?;
    writeln!(stdout, "drained; all workers stopped")?;
    Ok(())
}

fn load_dataset(path: &Path) -> Result<Dataset, String> {
    dataio::load(path).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::{USAGE, VERBS};

    /// The options `verb` accepts; a panic when no verb has that name.
    fn accepted(verb: &str) -> &'static [&'static str] {
        let entry = VERBS.iter().find(|(name, ..)| *name == verb);
        entry.unwrap_or_else(|| panic!("no verb `{verb}`")).2
    }

    /// `USAGE` and the `VERBS` table agree: every `--option` the synopsis
    /// shows under a verb, and every `VERB --option` its prose names, is
    /// one that verb accepts.
    #[test]
    fn every_usage_option_is_accepted_by_its_verb() {
        let mut lines = USAGE.lines().skip_while(|line| *line != "USAGE:").skip(1);
        let mut options: &[&str] = &[];
        let mut checked = 0;
        for line in lines.by_ref().take_while(|line| !line.is_empty()) {
            let mut words = line.split_whitespace().peekable();
            if words.next_if_eq(&"flexemd").is_some() {
                options = accepted(words.next().unwrap());
            }
            for option in words.filter_map(|word| word.trim_matches(['[', ']']).strip_prefix("--"))
            {
                assert!(options.contains(&option), "`{line}` shows --{option}");
                checked += 1;
            }
        }
        assert!(checked >= 25, "only {checked} options found: USAGE moved");
        let prose: Vec<&str> = lines.flat_map(str::split_whitespace).collect();
        for pair in prose.windows(2) {
            let option = pair[1].trim_end_matches([',', '.', ';']).strip_prefix("--");
            if let (Some(option), true) = (option, VERBS.iter().any(|(verb, ..)| *verb == pair[0]))
            {
                assert!(accepted(pair[0]).contains(&option), "USAGE says `{pair:?}`");
            }
        }
    }

    /// Every `flexemd VERB --option …` command in README.md's code blocks
    /// (`\` continuations joined) names a verb and options it accepts.
    #[test]
    fn readme_commands_are_the_cli_vocabulary() {
        let mut commands = Vec::new();
        let mut command = String::new();
        let mut in_block = false;
        for line in include_str!("../../README.md").lines() {
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
        let mut checked = 0;
        for command in &commands {
            let mut words = command
                .split_whitespace()
                .skip_while(|word| *word != "flexemd" && !word.ends_with("/flexemd"));
            if words.next().is_none() {
                continue;
            }
            let options = accepted(words.next().unwrap_or_default());
            for option in words
                .take_while(|word| *word != "#")
                .filter_map(|word| word.strip_prefix("--"))
            {
                assert!(options.contains(&option), "README runs `{command}`");
                checked += 1;
            }
        }
        assert!(checked >= 20, "only {checked} options found: README moved");
    }
}
