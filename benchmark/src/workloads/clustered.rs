//! `gauss32-clustered-20k`: many objects, small LPs.
//!
//! `emd_data::gaussian` 32 bins, 4 classes, 20 000 objects and 100 held-out
//! queries, shuffled; k-medoids reduction to d' = 8;
//! `PersistedReduction::precompute`, `ClusteredIndex::from_persisted(.., 1.0)`
//! and `save_with_clusterings`; reopened from disk and queried through the
//! clustered `CandidateSource`, k = 10. The arenas (about 6.5 MB) exceed
//! this box's 4 MiB L2, so the cluster build, candidate generation and the
//! store's open/save dominate where the tiling workload has none of them;
//! this is the row ROADMAP item 3 (cut exact solves per query) targets.

use crate::inputs::{gaussian32, rng, train_kmed};
use crate::metrics::Res;
use crate::obsview::ObsView;
use crate::protocol::{Checks, Round, Setup, Workload, K};
use crate::spans::Tracer;
use crate::workloads::{replay_knn, static_answer, StaticPlan};
use emd_query::{ClusteredIndex, Database, EmdDistance, Executor, QueryPlan};
use emd_reduction::PersistedReduction;
use rand::seq::SliceRandom;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

pub const NAME: &str = "gauss32-clustered-20k";

const CLASSES: usize = 4;
const D_RED: usize = 8;
/// Clusters = factor * sqrt(n).
const CLUSTER_FACTOR: f64 = 1.0;

pub struct Clustered {
    objects: usize,
    queries: usize,
}

impl Clustered {
    pub fn new(smoke: bool) -> Self {
        if smoke {
            Clustered {
                objects: 2_000,
                queries: 30,
            }
        } else {
            Clustered {
                objects: 20_000,
                queries: 100,
            }
        }
    }

    /// kNN operations per round.
    #[cfg(test)]
    pub fn query_operations(&self) -> usize {
        self.queries
    }
}

impl Workload for Clustered {
    type Plan = StaticPlan;

    fn name(&self) -> &'static str {
        NAME
    }

    fn dim(&self) -> usize {
        32
    }

    fn setup(&self, seed: u64, dir: &Path, tracer: &Tracer) -> Res<Setup<StaticPlan>> {
        let _setup = tracer.enter("setup");
        let recording = ObsView::record(tracer);
        let started = Instant::now();
        let (objects, queries, cost) = {
            let _span = tracer.enter("data.generate");
            let per_class = (self.objects + self.queries).div_ceil(CLASSES);
            let dataset = gaussian32(CLASSES, per_class, &mut rng(seed, 0));
            let mut histograms = dataset.histograms;
            histograms.shuffle(&mut rng(seed, 1));
            let queries = histograms.split_off(histograms.len() - self.queries);
            histograms.truncate(self.objects);
            (histograms, queries, Arc::new(dataset.cost))
        };
        let generate = started.elapsed();

        let reduced = train_kmed(&cost, D_RED, tracer)?;
        let database = Database::new(objects, cost)?;
        let bundle = {
            let _span = tracer.enter("reduction.precompute");
            PersistedReduction::precompute("kmed:8", reduced.clone(), database.histograms())?
        };
        let clustering = {
            let _span = tracer.enter("cluster.build");
            ClusteredIndex::from_persisted(&database, &bundle, CLUSTER_FACTOR)?.to_stored()
        };
        {
            let _span = tracer.enter("store.save");
            database.save_with_clusterings(dir, NAME, &[bundle], &[Some(clustering)])?;
        }
        Ok(Setup {
            objects: database.len(),
            plan: StaticPlan {
                queries,
                database,
                reduced,
            },
            generate,
            obs: ObsView::harvest(recording),
        })
    }

    fn round(&self, plan: &StaticPlan, dir: &Path, tracer: &Tracer) -> Res<Round> {
        let recording = ObsView::record(tracer);
        let started = Instant::now();
        let (executor, source_name) = {
            let _reopen = tracer.enter("reopen");
            let opened = {
                let _span = tracer.enter("store.open");
                Database::open(dir)?
            };
            let _span = tracer.enter("cluster.attach");
            let bundle = opened.reductions.first().ok_or("index holds a reduction")?;
            let stored = opened
                .clusterings
                .first()
                .and_then(Option::as_ref)
                .ok_or("index holds a clustering")?;
            let index = ClusteredIndex::from_stored(&opened.database, bundle, stored)?;
            let source_name = emd_query::CandidateSource::name(&index).to_owned();
            let refiner = Box::new(EmdDistance::new(&opened.database)?);
            let plan = QueryPlan::new(Vec::new(), refiner)?.with_source(Box::new(index))?;
            (Executor::new(plan), source_name)
        };
        let reopen = started.elapsed();

        let ops = replay_knn(&plan.queries, tracer, "executor.knn", |query| {
            executor
                .knn(query, K)
                .map(|(neighbors, stats)| (static_answer(&neighbors), stats))
        });
        Ok(Round {
            reopen,
            ops,
            ingest: None,
            checks: Checks::default(),
            live_objects: executor.len(),
            stage_names: vec![source_name],
            obs: ObsView::harvest(recording),
            extras: Vec::new(),
        })
    }

    fn gate(&self, plan: &StaticPlan, _dir: &Path, last: &Round) -> Res<Checks> {
        plan.gate(last)
    }

    fn op_log(&self, plan: &StaticPlan) -> Vec<u8> {
        plan.op_log()
    }
}
