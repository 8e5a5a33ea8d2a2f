//! The measurement protocol shared by every workload.
//!
//! 1. *Fixed work.* A workload is a seed-derived, finite sequence of
//!    operations; every operation has an identity (client, index) and the
//!    identical payload in every round and every run.
//! 2. *Rounds.* A run is [`MIN_ROUNDS`] rounds (more only while the
//!    `--seconds` budget is unspent). Every round starts from a
//!    byte-identical on-disk state and replays the identical sequence.
//!    Each of the ten first rebuilds that state from the seed (ten set-up
//!    samples, compared byte for byte with round 0's); any further round
//!    restores a file copy of round 0's.
//! 3. *Per-operation minimum.* An operation's latency is the minimum of its
//!    round samples; percentiles and rates are taken over those minima,
//!    phase timings are the best round.
//! 4. *Determinism.* Every round's answers must equal round 0's, bit for
//!    bit; a mismatch, a non-200, a degraded answer or a typed error is a
//!    failed operation.
//! 5. *No tracing in timed runs.* The traced run is separate
//!    ([`run_traced`]) and never the source of an end-to-end number.

use crate::fsutil::{copy_dir, dir_bytes, dirs_equal, peak_rss_mb, remove_dir};
use crate::metrics::{Res, RunResult, Values};
use crate::obsview::ObsView;
use crate::spans::{self, Tracer};
use crate::stats::{per_op_min, percentile, queries_per_s, samples_beyond};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Neighbours asked of every kNN operation.
pub const K: usize = 10;

/// Rounds every timed run makes, whatever `--seconds` says.
pub const MIN_ROUNDS: usize = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Knn,
    Insert,
}

/// One execution of one operation.
#[derive(Debug, Clone)]
pub struct OpSample {
    pub kind: OpKind,
    pub client: usize,
    pub index: usize,
    pub start: Instant,
    pub end: Instant,
    /// kNN: `(id, f64::to_bits(distance))` per neighbour. Insert: the
    /// acknowledged id (ids depend on how the clients interleave, so they
    /// are exempt from the cross-round comparison).
    pub answer: Vec<(u64, u64)>,
    pub refinements: u64,
    /// False for a typed error, a non-200 or a degraded answer.
    pub ok: bool,
}

impl OpSample {
    pub fn nanos(&self) -> u64 {
        u64::try_from((self.end - self.start).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Shared by every span of this operation.
    pub fn op_id(&self) -> u64 {
        self.client as u64 * 1_000_000 + self.index as u64
    }
}

/// Pass/fail bookkeeping for everything that is checked rather than timed.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Checks {
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(what());
            }
        }
    }

    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
    }
}

/// The directory a workload persists into, plus the copy of round 0's
/// state that later rounds start from.
pub struct StateDir {
    state: PathBuf,
    pristine: PathBuf,
}

impl StateDir {
    fn new(work: &Path) -> Self {
        StateDir {
            state: work.join("state"),
            pristine: work.join("pristine"),
        }
    }

    pub fn path(&self) -> &Path {
        &self.state
    }

    fn clear(&self) -> Res<()> {
        Ok(remove_dir(&self.state)?)
    }

    fn keep_as_pristine(&self) -> Res<()> {
        Ok(copy_dir(&self.state, &self.pristine)?)
    }

    fn matches_pristine(&self) -> Res<bool> {
        Ok(dirs_equal(&self.state, &self.pristine)?)
    }

    /// Put the state back to what round 0's set-up left.
    pub fn restore(&self) -> Res<()> {
        Ok(copy_dir(&self.pristine, &self.state)?)
    }
}

/// What `Workload::setup` hands back besides the state on disk.
pub struct Setup<P> {
    pub plan: P,
    /// Share of the set-up spent generating inputs (harness work, reported
    /// as `data.generate_s`, excluded from the bulk-load rate).
    pub generate: Duration,
    /// Objects the persisted state holds.
    pub objects: usize,
    /// `emd-obs` registry of the set-up, when traced.
    pub obs: Option<ObsView>,
}

/// A streamed ingest phase, cut into parts that recur in every round.
pub struct Ingest {
    /// WAL records acknowledged by a `sync()`.
    pub records: u64,
    /// Nanoseconds of each batch of appends and each compaction, in
    /// order, the wait inside `sync()` left out. The phase's time is the
    /// sum of the per-part minima over the rounds: the per-operation
    /// minimum applied to writes.
    pub parts: Vec<u64>,
}

/// One round: reopen the persisted state, replay the operations.
pub struct Round {
    /// Persisted state -> first query answerable.
    pub reopen: Duration,
    /// Every operation, clients in order, each client's in sequence order.
    pub ops: Vec<OpSample>,
    /// The ingest phase, for workloads that have one.
    pub ingest: Option<Ingest>,
    pub checks: Checks,
    /// Live objects in the state directory when the round ends.
    pub live_objects: usize,
    /// `emd-obs` registry of the round, when traced.
    pub obs: Option<ObsView>,
    /// Filter stages of the measured plan, in chain order.
    pub stage_names: Vec<String>,
    /// Per-layer values only the workload can read off (traced rounds).
    pub extras: Vec<(&'static str, f64)>,
}

pub trait Workload {
    /// The seed-derived operation plan plus whatever the gate needs.
    type Plan;

    fn name(&self) -> &'static str;
    /// Closed-loop callers issuing operations at the same time.
    fn clients(&self) -> usize {
        1
    }
    /// Bins per histogram (user bytes per object = `dim * 8`).
    fn dim(&self) -> usize;
    /// Seed -> state in `dir` ready to be opened.
    fn setup(&self, seed: u64, dir: &Path, tracer: &Tracer) -> Res<Setup<Self::Plan>>;
    /// Reopen `dir` and replay the plan.
    fn round(&self, plan: &Self::Plan, dir: &Path, tracer: &Tracer) -> Res<Round>;
    /// Correctness gate, outside every timed region: `last` is the final
    /// round (whose end state `dir` still holds).
    fn gate(&self, plan: &Self::Plan, dir: &Path, last: &Round) -> Res<Checks>;
    /// Byte rendering of the operation sequence, for determinism checks.
    fn op_log(&self, plan: &Self::Plan) -> Vec<u8>;
    /// Per-layer measurements that need runs of their own (traced run).
    fn trace_extras(&self, _plan: &Self::Plan, _dir: &StateDir, _layers: &mut Values) -> Res<()> {
        Ok(())
    }
}

/// Human-readable facts about a run that have no place in the result line.
#[derive(Debug, Default)]
pub struct RunInfo {
    pub lines: Vec<String>,
    pub round_spread: f64,
}

fn ms(nanos: u64) -> f64 {
    nanos as f64 / 1e6
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Operations whose answers or status differ from round 0's.
fn diverging_ops(reference: &Round, round: &Round) -> usize {
    if reference.ops.len() != round.ops.len() {
        return reference.ops.len().max(round.ops.len());
    }
    reference
        .ops
        .iter()
        .zip(&round.ops)
        .filter(|(a, b)| {
            let same_identity = (a.kind, a.client, a.index) == (b.kind, b.client, b.index);
            let same_answer = a.kind == OpKind::Insert || a.answer == b.answer;
            !(same_identity && same_answer && b.ok)
        })
        .count()
}

/// Determinism and status of every operation of every round, and the
/// rounds' own checks: `(operations attempted, operations failed)`.
fn judge_rounds(rounds: &mut [Round], checks: &mut Checks) -> (u64, u64) {
    let (mut attempted, mut failed) = (0, 0);
    for (r, round) in rounds.iter().enumerate() {
        attempted += round.ops.len() as u64;
        let diverging = diverging_ops(&rounds[0], round) as u64;
        if diverging > 0 {
            checks.notes.push(format!(
                "round {r}: {diverging} operations failed or diverged"
            ));
        }
        failed += diverging;
    }
    for round in rounds {
        checks.absorb(std::mem::take(&mut round.checks));
    }
    (attempted, failed)
}

/// `max / min - 1` over the rounds' wall times.
fn round_spread(walls: &[Duration]) -> f64 {
    let max = walls.iter().max().map_or(0.0, |d| secs(*d));
    let min = walls.iter().min().map_or(0.0, |d| secs(*d));
    if min > 0.0 {
        max / min - 1.0
    } else {
        0.0
    }
}

/// Closed-loop query rate of a single round (no minima involved).
pub fn round_queries_per_s(clients: usize, round: &Round) -> f64 {
    let queries = round.ops.iter().filter(|op| op.kind == OpKind::Knn).count();
    queries_per_s(
        clients,
        queries,
        round.ops.iter().map(OpSample::nanos).sum(),
    )
}

/// The timed run: end-to-end metrics only, tracing off.
pub fn run_timed<W: Workload>(
    workload: &W,
    seed: u64,
    seconds: f64,
    work: &Path,
) -> Res<(RunResult, RunInfo)> {
    let tracer = Tracer::new(false);
    let dir = StateDir::new(work);
    let mut checks = Checks::default();
    let mut setups: Vec<(Duration, Duration)> = Vec::new();
    let mut first: Option<(W::Plan, usize, Vec<u8>)> = None;
    let mut rounds: Vec<Round> = Vec::new();
    let mut walls: Vec<Duration> = Vec::new();

    while rounds.len() < MIN_ROUNDS || secs(walls.iter().sum()) < seconds {
        let r = rounds.len();
        if r < MIN_ROUNDS {
            dir.clear()?;
            let started = Instant::now();
            let setup = workload.setup(seed, dir.path(), &tracer)?;
            setups.push((started.elapsed(), setup.generate));
            match &first {
                None => {
                    dir.keep_as_pristine()?;
                    let log = workload.op_log(&setup.plan);
                    first = Some((setup.plan, setup.objects, log));
                }
                Some((_, _, log)) => {
                    checks.expect(dir.matches_pristine()?, || {
                        format!("round {r}: rebuilt state differs from round 0's bytes")
                    });
                    checks.expect(&workload.op_log(&setup.plan) == log, || {
                        format!("round {r}: regenerated operations differ from round 0's")
                    });
                }
            }
        } else {
            dir.restore()?;
        }
        let (plan, _, _) = first.as_ref().ok_or("round 0 always sets up")?;
        let started = Instant::now();
        rounds.push(workload.round(plan, dir.path(), &tracer)?);
        walls.push(started.elapsed());
    }
    let (plan, objects, _) = first.as_ref().ok_or("round 0 always sets up")?;
    let rss_mb = peak_rss_mb()?;
    let index_bytes = dir_bytes(dir.path())?;

    let (op_attempts, op_failures) = judge_rounds(&mut rounds, &mut checks);
    let last = rounds.last().ok_or("at least ten rounds ran")?;
    checks.absorb(workload.gate(plan, dir.path(), last)?);

    // Per-operation minima over the rounds.
    let samples: Vec<Vec<u64>> = rounds
        .iter()
        .map(|round| round.ops.iter().map(OpSample::nanos).collect())
        .collect();
    let minima = per_op_min(&samples);
    let kinds: Vec<OpKind> = rounds[0].ops.iter().map(|op| op.kind).collect();
    let of_kind = |kind: OpKind| -> Vec<u64> {
        minima
            .iter()
            .zip(&kinds)
            .filter(|(_, k)| **k == kind)
            .map(|(m, _)| *m)
            .collect()
    };
    let mut knn_ms: Vec<f64> = of_kind(OpKind::Knn).into_iter().map(ms).collect();
    knn_ms.sort_by(f64::total_cmp);
    let insert_ns = of_kind(OpKind::Insert);

    let knn_samples: Vec<&OpSample> = rounds
        .iter()
        .flat_map(|round| round.ops.iter().filter(|op| op.kind == OpKind::Knn))
        .collect();
    let refinements = knn_samples
        .iter()
        .map(|op| op.refinements as f64)
        .sum::<f64>()
        / knn_samples.len().max(1) as f64;

    let best_setup = setups.iter().map(|s| s.0).min().ok_or("ten set-ups ran")?;
    let best_build = setups
        .iter()
        .map(|s| s.0.saturating_sub(s.1))
        .min()
        .ok_or("ten set-ups ran")?;
    let ingest_parts: Vec<Vec<u64>> = rounds
        .iter()
        .filter_map(|round| round.ingest.as_ref())
        .map(|i| i.parts.clone())
        .collect();
    // Objects made durable per second: the streamed ingest phase where a
    // workload has one, else the bulk build from in-memory corpus to
    // persisted, queryable state (set-up minus input generation).
    let (ingest_per_s, ingest_basis) = if let Some(ingest) = &rounds[0].ingest {
        let parts = per_op_min(&ingest_parts);
        (
            ingest.records as f64 / (parts.iter().sum::<u64>() as f64 * 1e-9),
            format!(
                "{} WAL records in {} batches and compactions, per-part minima",
                ingest.records,
                parts.len()
            ),
        )
    } else {
        (
            *objects as f64 / secs(best_build),
            format!("{objects} objects, best bulk build"),
        )
    };

    let mut values = Values::end_to_end();
    values.set("setup_s", secs(best_setup));
    values.set(
        "reopen_ms",
        rounds
            .iter()
            .map(|r| secs(r.reopen))
            .fold(f64::MAX, f64::min)
            * 1e3,
    );
    values.set("query_p50_ms", percentile(&knn_ms, 0.5));
    values.set("query_p90_ms", percentile(&knn_ms, 0.9));
    values.set(
        "queries_per_s",
        queries_per_s(workload.clients(), knn_ms.len(), minima.iter().sum()),
    );
    values.set("refinements_per_query", refinements);
    values.set("ingest_per_s", ingest_per_s);
    values.set("peak_rss_mb", rss_mb);
    values.set(
        "disk_bytes_per_user_byte",
        index_bytes as f64 / (last.live_objects * workload.dim() * 8) as f64,
    );

    let attempted = op_attempts + checks.attempted;
    let failed = op_failures + checks.failed;
    let result = RunResult::new(failed == 0, attempted, failed, &values)?;

    let spread = round_spread(&walls);
    let mut info = RunInfo {
        round_spread: spread,
        ..RunInfo::default()
    };
    let walls_text: Vec<String> = walls.iter().map(|w| format!("{:.2}", secs(*w))).collect();
    info.lines.push(format!(
        "{} seed {seed}: {} rounds [{}] s, harness.round_spread {spread:.3}, {} set-ups",
        workload.name(),
        rounds.len(),
        walls_text.join(" "),
        setups.len()
    ));
    info.lines.push(format!(
        "samples: {} kNN operations x {} rounds ({} beyond p90), {} inserts, {} clients; ingest_per_s from {ingest_basis}",
        knn_ms.len(),
        rounds.len(),
        samples_beyond(knn_ms.len(), 0.9),
        insert_ns.len(),
        workload.clients(),
    ));
    info.lines.push(format!(
        "ops_attempted {attempted} ({op_attempts} timed operations + {} checks), ops_failed {failed}",
        checks.attempted
    ));
    info.lines
        .extend(checks.notes.iter().map(|note| format!("FAILED: {note}")));
    Ok((result, info))
}

/// The traced run: one set-up and three rounds (untraced, traced,
/// untraced) under harness spans and `emd_obs::Recording`, plus the
/// workload's own extra measurements. Returns the per-layer metrics and the
/// contents of `trace.json`.
pub fn run_traced<W: Workload>(
    workload: &W,
    seed: u64,
    work: &Path,
) -> Res<(RunResult, RunInfo, String)> {
    let tracer = Tracer::new(true);
    let quiet = Tracer::new(false);
    let dir = StateDir::new(work);
    dir.clear()?;
    let setup = workload.setup(seed, dir.path(), &tracer)?;
    dir.keep_as_pristine()?;

    let mut rounds = Vec::new();
    let mut walls = Vec::new();
    for tracer in [&quiet, &tracer, &quiet] {
        dir.restore()?;
        let started = Instant::now();
        rounds.push(workload.round(&setup.plan, dir.path(), tracer)?);
        walls.push(started.elapsed());
    }
    let index_bytes = dir_bytes(dir.path())?;
    let mut checks = Checks::default();
    let (op_attempts, op_failures) = judge_rounds(&mut rounds, &mut checks);

    let traced = &rounds[1];
    let obs = traced
        .obs
        .as_ref()
        .ok_or("a traced round records emd-obs metrics")?;
    // Set-up and round together, for what both write (the WAL).
    let mut whole = obs.clone();
    if let Some(setup_obs) = &setup.obs {
        whole.merge(setup_obs);
    }
    let queries = traced
        .ops
        .iter()
        .filter(|op| op.kind == OpKind::Knn)
        .count()
        .max(1) as f64;
    let per_query = |count: u64| count as f64 / queries;
    let span_s = |name: &str| tracer.total_ns(name) as f64 / 1e9;
    let span_mean_ms = |name: &str| match tracer.count(name) {
        0 => 0.0,
        n => tracer.total_ns(name) as f64 / n as f64 / 1e6,
    };

    let mut layers = Values::per_layer();
    // Harness spans around calls into each layer's public functions.
    layers.set("data.generate_s", span_s("data.generate"));
    layers.set("reduction.flow_sample_s", span_s("reduction.flow_sample"));
    layers.set("reduction.kmedoids_s", span_s("reduction.kmedoids"));
    layers.set("reduction.fb_all_s", span_s("reduction.fb_all"));
    layers.set("reduction.precompute_s", span_s("reduction.precompute"));
    layers.set("cluster.build_s", span_s("cluster.build"));
    layers.set("cluster.attach_ms", span_mean_ms("cluster.attach"));
    layers.set("store.save_ms", span_mean_ms("store.save"));
    layers.set("store.open_ms", span_mean_ms("store.open"));
    layers.set("store.index_bytes", index_bytes as f64);
    layers.set("durable.open_ms", span_mean_ms("durable.open"));
    layers.set("durable.sync_ms", span_mean_ms("durable.sync"));
    layers.set("durable.syncs", tracer.count("durable.sync") as f64);
    layers.set("durable.compact_ms", span_mean_ms("durable.compact"));
    layers.set(
        "durable.compactions",
        tracer.count("durable.compact") as f64,
    );
    layers.set(
        "durable.snapshot_us",
        span_mean_ms("durable.snapshot") * 1e3,
    );
    // emd-obs counters and span histograms the program itself emits.
    layers.set(
        "core.emd_solves_per_query",
        per_query(obs.counter("core.emd.solves")),
    );
    layers.set(
        "core.lb_im_evals_per_query",
        per_query(obs.counter("core.lb_im.evaluations")),
    );
    let pivots = obs.counter("transport.simplex.pivots");
    let repairs = obs.counter("transport.warm.repair_pivots");
    let solve_ns = obs.span_ns("transport.solve");
    layers.set(
        "transport.solves_per_query",
        per_query(obs.counter("transport.solve.calls")),
    );
    layers.set("transport.pivots_per_query", per_query(pivots));
    layers.set("transport.repair_pivots_per_query", per_query(repairs));
    layers.set(
        "transport.warm_hit_ratio",
        obs.counter("transport.warm.hits") as f64
            / obs.counter("transport.warm.attempts").max(1) as f64,
    );
    layers.set("transport.solve_ms_per_query", ms(solve_ns) / queries);
    layers.set(
        "transport.ns_per_pivot",
        solve_ns as f64 / (pivots + repairs).max(1) as f64,
    );
    for (metric, stage) in [
        "query.stage1_evals_per_query",
        "query.stage2_evals_per_query",
    ]
    .iter()
    .zip(&traced.stage_names)
    {
        let counter = format!("query.stage.{stage}.evaluations");
        layers.set(metric, per_query(obs.counter(&counter)));
    }
    let scan = obs.span_ns("query.scan");
    let knop = obs.span_ns("query.knop");
    let prepare =
        obs.span_ns_where(|name| name.starts_with("query.") && name.ends_with(".prepare"));
    let execute = obs.span_ns("query.execute");
    layers.set("query.scan_ms_per_query", ms(scan) / queries);
    layers.set("query.knop_ms_per_query", ms(knop) / queries);
    layers.set("query.prepare_ms_per_query", ms(prepare) / queries);
    layers.set("query.execute_ms_per_query", ms(execute) / queries);
    layers.set(
        "query.unaccounted_ratio",
        1.0 - (scan + knop + prepare) as f64 / execute.max(1) as f64,
    );
    layers.set(
        "cluster.visited_per_query",
        per_query(obs.counter("index.clusters_visited")),
    );
    layers.set(
        "cluster.pruned_per_query",
        per_query(obs.counter("index.clusters_pruned")),
    );
    layers.set(
        "cluster.emitted_per_query",
        per_query(obs.counter("index.candidates_emitted")),
    );
    layers.set("store.bytes_read", obs.counter("store.bytes_read") as f64);
    layers.set(
        "store.sections_verified",
        obs.counter("store.sections_verified") as f64,
    );
    let appends = whole.counter("wal.appends");
    layers.set("wal.appends", appends as f64);
    layers.set("wal.synced_bytes", whole.counter("wal.synced_bytes") as f64);
    layers.set(
        "wal.bytes_per_record",
        whole.counter("wal.synced_bytes") as f64 / appends.max(1) as f64,
    );
    layers.set("serve.shed", obs.counter("serve.shed") as f64);
    layers.set(
        "serve.status_5xx",
        obs.counters_where(|name| name.starts_with("serve.status.5")) as f64,
    );
    layers.set("serve.snapshot_swaps", obs.counter("snapshot.swaps") as f64);
    layers.set("serve.handler_knn_ms", obs.span_mean_ms("serve.route.knn"));
    layers.set(
        "serve.handler_insert_ms",
        obs.span_mean_ms("serve.route.insert"),
    );
    // Client-side latencies of the traced round's operations.
    let client_ms = |kind: OpKind| -> Vec<f64> {
        let mut all: Vec<f64> = traced
            .ops
            .iter()
            .filter(|op| op.kind == kind)
            .map(|op| ms(op.nanos()))
            .collect();
        all.sort_by(f64::total_cmp);
        all
    };
    let inserts = client_ms(OpKind::Insert);
    if !inserts.is_empty() {
        layers.set("serve.insert_p50_ms", percentile(&inserts, 0.5));
        layers.set("serve.insert_p90_ms", percentile(&inserts, 0.9));
    }
    if obs.span_ns("serve.route.knn") > 0 {
        let knn = client_ms(OpKind::Knn);
        let mean = knn.iter().sum::<f64>() / knn.len().max(1) as f64;
        layers.set(
            "serve.wire_overhead_ms",
            mean - obs.span_mean_ms("serve.route.knn"),
        );
    }
    for &(name, value) in &traced.extras {
        layers.set(name, value);
    }
    // How far these numbers can be trusted: the tracing overhead with its
    // base, and how much identical untraced rounds differ on this machine.
    let untraced = [&rounds[0], &rounds[2]]
        .iter()
        .map(|round| round_queries_per_s(workload.clients(), round))
        .fold(0.0, f64::max);
    layers.set("obs.untraced_queries_per_s", untraced);
    layers.set(
        "obs.trace_overhead_ratio",
        round_queries_per_s(workload.clients(), traced) / untraced,
    );
    let spread = round_spread(&[walls[0], walls[2]]);
    layers.set("harness.round_spread", spread);

    workload.trace_extras(&setup.plan, &dir, &mut layers)?;
    crate::micro::run(&mut layers)?;

    let attempted = op_attempts + checks.attempted;
    let failed = op_failures + checks.failed;
    let result = RunResult::new(failed == 0, attempted, failed, &layers)?;
    let mut info = RunInfo {
        round_spread: spread,
        ..RunInfo::default()
    };
    info.lines.push(format!(
        "{} seed {seed}: traced run, {} operations per round, ops_attempted {attempted}, ops_failed {failed}",
        workload.name(),
        traced.ops.len()
    ));
    info.lines
        .extend(checks.notes.iter().map(|note| format!("FAILED: {note}")));
    let trace = spans::trace_json(workload.name(), seed, &tracer.spans());
    Ok((result, info, trace))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(kind: OpKind, index: usize, answer: Vec<(u64, u64)>, ok: bool) -> OpSample {
        let now = Instant::now();
        OpSample {
            kind,
            client: 0,
            index,
            start: now,
            end: now + Duration::from_micros(5),
            answer,
            refinements: 3,
            ok,
        }
    }

    fn round(ops: Vec<OpSample>) -> Round {
        Round {
            reopen: Duration::ZERO,
            ops,
            ingest: None,
            checks: Checks::default(),
            live_objects: 1,
            obs: None,
            stage_names: Vec::new(),
            extras: Vec::new(),
        }
    }

    #[test]
    fn divergence_counts_changed_answers_failures_and_missing_ops() {
        let reference = round(vec![
            op(OpKind::Knn, 0, vec![(1, 10)], true),
            op(OpKind::Insert, 1, vec![(100, 0)], true),
            op(OpKind::Knn, 2, vec![(2, 20)], true),
        ]);
        assert_eq!(diverging_ops(&reference, &reference), 0);
        // Insert ids may differ between rounds; kNN bits may not.
        let other = round(vec![
            op(OpKind::Knn, 0, vec![(1, 11)], true),
            op(OpKind::Insert, 1, vec![(101, 0)], true),
            op(OpKind::Knn, 2, vec![(2, 20)], false),
        ]);
        assert_eq!(diverging_ops(&reference, &other), 2);
        let short = round(vec![op(OpKind::Knn, 0, vec![(1, 10)], true)]);
        assert_eq!(diverging_ops(&reference, &short), 3);
    }

    #[test]
    fn round_spread_is_max_over_min_minus_one() {
        let walls = [
            Duration::from_secs(10),
            Duration::from_secs(12),
            Duration::from_secs(11),
        ];
        assert!((round_spread(&walls) - 0.2).abs() < 1e-12);
        assert_eq!(round_spread(&[]), 0.0);
    }

    #[test]
    fn checks_count_and_keep_notes_of_failures() {
        let mut checks = Checks::default();
        checks.expect(true, || unreachable!());
        checks.expect(false, || "broken".to_owned());
        assert_eq!((checks.attempted, checks.failed), (2, 1));
        assert_eq!(checks.notes, vec!["broken".to_owned()]);
    }
}
