//! `gauss32-ingest-window-1k`: the durable layer as a write path.
//!
//! Same corpus family and reduction as the served workload. Set-up =
//! corpus + FB-All training + an empty `DurableIndex::create`. Every round
//! streams 50 000 inserts through a sliding window of 1 000 live objects
//! (every insert past the window is followed by `append_remove` of the
//! object that left it), with a group commit (`sync()`) every 64 inserts
//! and `compact()` every 261 commits: two compactions, then 16 592
//! inserts and as many removes stay in the log for recovery to replay. Then
//! the crash: 5 unsynced appends, the index is dropped, and the harness
//! truncates the active WAL to at most 11 bytes past its length at the last
//! `sync()` (see `crate::crash`).
//! Recovery reopens the directory and 100 kNN (k = 10) run on the
//! recovered snapshot. WAL append, fsync, tombstones, compaction, replay
//! and space amplification are all exercised, with the query path idle
//! during ingest; recovery must return exactly the acknowledged prefix.
//!
//! Flush policy: group commit every 64 inserts, nothing time-triggered.
//! One thread; no client concurrency.

use crate::crash::{discard_unsynced, TORN_BYTES};
use crate::gate::oracle_gate;
use crate::inputs::{gaussian32, gaussian32_training_sample, log_histogram, rng, train_fb_all};
use crate::metrics::{Res, Values};
use crate::obsview::ObsView;
use crate::protocol::{Checks, Ingest, Round, Setup, StateDir, Workload, K};
use crate::spans::Tracer;
use crate::workloads::{durable_answer, replay_knn, stage_names};
use emd_core::{CostMatrix, Histogram};
use emd_query::{Database, DurableIndex};
use emd_reduction::ReducedEmd;
use rand::seq::SliceRandom;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

pub const NAME: &str = "gauss32-ingest-window-1k";

const CLASSES: usize = 8;
const D_RED: usize = 8;
const SYNC_EVERY: usize = 64;
/// Appends issued after the last `sync()`; the crash loses them.
const UNSYNCED_APPENDS: usize = 5;

pub struct IngestWindow {
    /// Inserts streamed per round.
    stream: usize,
    /// Live objects kept.
    window: usize,
    /// Group commits between compactions.
    compact_every: usize,
    queries: usize,
    sample: usize,
}

pub struct Plan {
    /// `stream + UNSYNCED_APPENDS` histograms, in arrival order.
    stream: Vec<Histogram>,
    queries: Vec<Histogram>,
    cost: Arc<CostMatrix>,
    reduced: ReducedEmd,
}

impl IngestWindow {
    pub fn new(smoke: bool) -> Self {
        if smoke {
            IngestWindow {
                stream: 2_000,
                window: 200,
                compact_every: 8,
                queries: 20,
                sample: 16,
            }
        } else {
            IngestWindow {
                stream: 50_000,
                window: 1_000,
                compact_every: 261,
                queries: 100,
                sample: 64,
            }
        }
    }

    /// kNN operations per round.
    #[cfg(test)]
    pub fn query_operations(&self) -> usize {
        self.queries
    }

    /// External ids live after the acknowledged prefix: the last `window`
    /// inserts (ids are assigned in arrival order, from 0).
    fn window_ids(&self) -> std::ops::Range<usize> {
        self.stream - self.window..self.stream
    }
}

impl Workload for IngestWindow {
    type Plan = Plan;

    fn name(&self) -> &'static str {
        NAME
    }

    fn dim(&self) -> usize {
        32
    }

    fn setup(&self, seed: u64, dir: &Path, tracer: &Tracer) -> Res<Setup<Plan>> {
        let _setup = tracer.enter("setup");
        let recording = ObsView::record(tracer);
        let started = Instant::now();
        let (stream, queries, sample, cost) = {
            let _span = tracer.enter("data.generate");
            let total = self.stream + UNSYNCED_APPENDS + self.queries;
            let dataset = gaussian32(CLASSES, total.div_ceil(CLASSES), &mut rng(seed, 0));
            let mut histograms = dataset.histograms;
            histograms.shuffle(&mut rng(seed, 1));
            let queries = histograms.split_off(histograms.len() - self.queries);
            histograms.truncate(self.stream + UNSYNCED_APPENDS);
            let sample = gaussian32_training_sample(CLASSES, self.sample);
            (histograms, queries, sample, Arc::new(dataset.cost))
        };
        let generate = started.elapsed();

        let reduced = train_fb_all(&cost, &sample, D_RED, tracer)?;
        {
            let _span = tracer.enter("durable.create");
            DurableIndex::create(dir, Arc::clone(&cost), reduced.clone())?;
        }
        Ok(Setup {
            objects: self.window,
            plan: Plan {
                stream,
                queries,
                cost,
                reduced,
            },
            generate,
            obs: ObsView::harvest(recording),
        })
    }

    fn round(&self, plan: &Plan, dir: &Path, tracer: &Tracer) -> Res<Round> {
        let recording = ObsView::record(tracer);
        let mut checks = Checks::default();
        let (acknowledged, unsynced) = plan.stream.split_at(self.stream);

        // Ingest phase: sliding window, group commit, periodic compaction.
        let (mut index, _) = DurableIndex::open(dir)?;
        let mut parts = Vec::new();
        let mut append_ns = 0u64;
        let nanos =
            |from: Instant, to: Instant| u64::try_from((to - from).as_nanos()).unwrap_or(u64::MAX);
        for (batch, chunk) in acknowledged.chunks(SYNC_EVERY).enumerate() {
            let first = batch * SYNC_EVERY;
            let begun = Instant::now();
            for (offset, histogram) in chunk.iter().enumerate() {
                let arrived = first + offset;
                index.append_insert(histogram.clone())?;
                if arrived >= self.window {
                    index.append_remove((arrived - self.window) as u64)?;
                }
            }
            let appended = Instant::now();
            index.sync()?;
            let synced = Instant::now();
            tracer.record("durable.append", begun, appended, batch as u64);
            tracer.record("durable.sync", appended, synced, batch as u64);
            // The flush wait is this sandbox's virtual disk, not the
            // program: it moves by 30 % for minutes at a time. It stays out
            // of the rate and is reported per layer, with count and bytes.
            parts.push(nanos(begun, appended));
            append_ns += nanos(begun, appended);
            if (batch + 1) % self.compact_every == 0 && first + chunk.len() < self.stream {
                index.compact()?;
                let compacted = Instant::now();
                tracer.record("durable.compact", synced, compacted, batch as u64);
                parts.push(nanos(synced, compacted));
            }
        }
        let records = (self.stream + self.stream - self.window) as u64;

        // Crash: appends the last sync never covered, then the harness
        // (not the OS) discards what was not flushed.
        let wal = dir.join(format!("wal-{}.log", index.epoch()));
        let synced_len = std::fs::metadata(&wal)?.len();
        for histogram in unsynced {
            index.append_insert(histogram.clone())?;
        }
        drop(index);
        let discarded = discard_unsynced(&wal, synced_len)?;
        checks.expect(discarded.torn == TORN_BYTES, || {
            format!(
                "expected a {TORN_BYTES}-byte torn tail, left {}",
                discarded.torn
            )
        });

        // Recovery: persisted state -> first query answerable.
        let started = Instant::now();
        let reopen_span = tracer.enter("reopen");
        let (index, report) = {
            let _span = tracer.enter("durable.open");
            DurableIndex::open(dir)?
        };
        let snapshot = {
            let _span = tracer.enter("durable.snapshot");
            index.snapshot()?
        };
        drop(reopen_span);
        let reopen = started.elapsed();

        // The recovered live set is exactly the acknowledged prefix, and
        // the cut tail was reported.
        let torn = report.torn_tail.as_ref().map_or(0, |t| t.discarded_bytes);
        checks.expect(torn == discarded.torn, || {
            format!(
                "recovery reported {torn} torn bytes, {} were left",
                discarded.torn
            )
        });
        let window = self.window_ids();
        let recovered = window
            .clone()
            .all(|id| index.get(id as u64) == Some(&plan.stream[id]));
        let nothing_else = index.len() == self.window
            && index.get(window.start as u64 - 1).is_none()
            && index.get(window.end as u64).is_none();
        checks.expect(recovered && nothing_else, || {
            "recovered live set is not the acknowledged prefix".to_owned()
        });

        let ops = replay_knn(&plan.queries, tracer, "executor.knn", |query| {
            snapshot
                .knn(query, K)
                .map(|(neighbors, stats)| (durable_answer(&neighbors), stats))
        });
        let stage_names = stage_names(snapshot.executor());
        Ok(Round {
            reopen,
            ops,
            ingest: Some(Ingest { records, parts }),
            checks,
            live_objects: index.len(),
            stage_names,
            obs: ObsView::harvest(recording),
            extras: vec![
                ("durable.replayed_records", report.replayed_records as f64),
                ("durable.torn_tail_bytes", torn as f64),
                ("durable.append_us", append_ns as f64 / 1e3 / records as f64),
            ],
        })
    }

    fn gate(&self, plan: &Plan, _dir: &Path, last: &Round) -> Res<Checks> {
        let mut checks = Checks::default();
        let window = self.window_ids();
        let external: Vec<u64> = window.clone().map(|id| id as u64).collect();
        let database = Database::new(plan.stream[window].to_vec(), Arc::clone(&plan.cost))?;
        let probes: Vec<_> = plan
            .queries
            .iter()
            .zip(&last.ops)
            .map(|(q, op)| (q, op.answer.as_slice()))
            .collect();
        oracle_gate(&database, &plan.reduced, &external, &probes, &mut checks)?;
        Ok(checks)
    }

    fn op_log(&self, plan: &Plan) -> Vec<u8> {
        let mut log = Vec::new();
        for histogram in plan.stream.iter().chain(&plan.queries) {
            log_histogram(&mut log, histogram);
        }
        log
    }

    fn trace_extras(&self, plan: &Plan, dir: &StateDir, layers: &mut Values) -> Res<()> {
        // The state directory still holds the last round's recovered index.
        let (index, _) = DurableIndex::open(dir.path())?;
        let snapshot = index.snapshot()?;
        let database = Database::new(
            plan.stream[self.window_ids()].to_vec(),
            Arc::clone(&plan.cost),
        )?;
        let queries: Vec<&Histogram> = plan.queries.iter().take(60).collect();
        let ratio = super::dynamic_vs_static(&snapshot, &database, &plan.reduced, &queries)?;
        layers.set("dynamic.knn_vs_static_ratio", ratio);
        Ok(())
    }
}
