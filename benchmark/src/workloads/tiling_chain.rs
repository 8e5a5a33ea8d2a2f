//! `tiling48-chain-200`: few objects, large LPs.
//!
//! `emd_data::tiling` on an 8x6 grid (48 bins, Euclidean ground distance),
//! 200 objects and 150 held-out queries drawn class-balanced from the
//! family's population; FB-All from the k-medoids start, d' = 12, flow
//! sample |S| = 24; the paper's chain `Red-IM -> Red-EMD -> EMD` over the
//! scan source, k = 10; persisted with `Database::save`, reopened with
//! `Database::open`. The exact 48-bin transportation problems dominate
//! every query, and the reduction training (flow sample + FB-All) nearly
//! all of the set-up; stage 1, the store and the server do almost nothing.

use crate::inputs::{rng, train_fb_all, FAMILY_SEED};
use crate::metrics::Res;
use crate::obsview::ObsView;
use crate::protocol::{Checks, Round, Setup, Workload, K};
use crate::spans::Tracer;
use crate::workloads::{replay_knn, stage_names, static_answer, StaticPlan};
use emd_core::Histogram;
use emd_data::tiling::{self, TilingParams};
use emd_query::{
    Database, EmdDistance, Executor, Filter, QueryPlan, ReducedEmdFilter, ReducedImFilter,
};
use emd_reduction::flow_sample::draw_sample;
use emd_reduction::PersistedReduction;
use rand::seq::SliceRandom;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

pub const NAME: &str = "tiling48-chain-200";

const WIDTH: usize = 8;
const HEIGHT: usize = 6;
const CLASSES: usize = 10;
const D_RED: usize = 12;

pub struct TilingChain {
    /// Members per class in the family's population.
    population_per_class: usize,
    /// Database objects per class.
    objects_per_class: usize,
    /// Held-out queries per class.
    queries_per_class: usize,
    /// Flow-sample size |S|.
    sample: usize,
}

impl TilingChain {
    pub fn new(smoke: bool) -> Self {
        if smoke {
            TilingChain {
                population_per_class: 40,
                objects_per_class: 6,
                queries_per_class: 3,
                sample: 8,
            }
        } else {
            TilingChain {
                population_per_class: 400,
                objects_per_class: 20,
                queries_per_class: 15,
                sample: 24,
            }
        }
    }

    /// kNN operations per round.
    #[cfg(test)]
    pub fn query_operations(&self) -> usize {
        CLASSES * self.queries_per_class
    }
}

impl Workload for TilingChain {
    type Plan = StaticPlan;

    fn name(&self) -> &'static str {
        NAME
    }

    fn dim(&self) -> usize {
        WIDTH * HEIGHT
    }

    fn setup(&self, seed: u64, dir: &Path, tracer: &Tracer) -> Res<Setup<StaticPlan>> {
        let _setup = tracer.enter("setup");
        let recording = ObsView::record(tracer);
        let started = Instant::now();
        let (objects, queries, sample, cost) = {
            let _span = tracer.enter("data.generate");
            let params = TilingParams {
                width: WIDTH,
                height: HEIGHT,
                num_classes: CLASSES,
                per_class: self.population_per_class,
                ..TilingParams::default()
            };
            let population = tiling::generate(&params, &mut rng(FAMILY_SEED, 0));
            let sample: Vec<Histogram> = draw_sample(
                &population.histograms,
                self.sample,
                &mut rng(FAMILY_SEED, 2),
            )
            .into_iter()
            .cloned()
            .collect();
            // Class-balanced draw: difficulty differs between classes far
            // more than within one, so equal shares keep seeds comparable.
            let mut draw = rng(seed, 0);
            let (mut objects, mut queries) = (Vec::new(), Vec::new());
            for class in 0..CLASSES {
                let mut members: Vec<usize> = (0..self.population_per_class)
                    .map(|i| class * self.population_per_class + i)
                    .collect();
                members.shuffle(&mut draw);
                let (for_objects, rest) = members.split_at(self.objects_per_class);
                objects.extend(
                    for_objects
                        .iter()
                        .map(|&i| population.histograms[i].clone()),
                );
                queries.extend(
                    rest.iter()
                        .take(self.queries_per_class)
                        .map(|&i| population.histograms[i].clone()),
                );
            }
            objects.shuffle(&mut draw);
            queries.shuffle(&mut draw);
            (objects, queries, sample, Arc::new(population.cost))
        };
        let generate = started.elapsed();

        let reduced = train_fb_all(&cost, &sample, D_RED, tracer)?;
        let database = Database::new(objects, cost)?;
        let bundle = {
            let _span = tracer.enter("reduction.precompute");
            PersistedReduction::precompute(
                "fb-all-kmed:12",
                reduced.clone(),
                database.histograms(),
            )?
        };
        {
            let _span = tracer.enter("store.save");
            database.save(dir, NAME, &[bundle])?;
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
        let executor = {
            let _reopen = tracer.enter("reopen");
            let opened = {
                let _span = tracer.enter("store.open");
                Database::open(dir)?
            };
            let _span = tracer.enter("filters.attach");
            let bundle = opened
                .reductions
                .into_iter()
                .next()
                .ok_or("index holds a reduction")?;
            let stages: Vec<Box<dyn Filter>> = vec![
                Box::new(ReducedImFilter::from_persisted(
                    &opened.database,
                    bundle.clone(),
                )?),
                Box::new(ReducedEmdFilter::from_persisted(&opened.database, bundle)?),
            ];
            let refiner = Box::new(EmdDistance::new(&opened.database)?);
            Executor::new(QueryPlan::new(stages, refiner)?)
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
            stage_names: stage_names(&executor),
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
