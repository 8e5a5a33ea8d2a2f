//! The four lifecycle workloads. Each stresses layers the others leave
//! idle; `benchmark/README.md` says why each exists.

pub mod clustered;
pub mod ingest_window;
pub mod serve_mixed;
pub mod tiling_chain;

use crate::gate::{oracle_gate, red_emd_scan};
use crate::inputs::log_histogram;
use crate::metrics::Res;
use crate::protocol::{Checks, OpKind, OpSample, Round, K};
use crate::spans::Tracer;
use emd_core::Histogram;
use emd_query::{Database, DurableSnapshot, Executor, Neighbor, QueryError, QueryStats};
use emd_reduction::ReducedEmd;
use std::time::Instant;

/// Workload names, in the order the suite runs them.
pub const NAMES: [&str; 4] = [
    tiling_chain::NAME,
    clustered::NAME,
    serve_mixed::NAME,
    ingest_window::NAME,
];

/// What the two static-index workloads keep from set-up: the queries to
/// replay, and the in-memory corpus and reduction the gate's oracles are
/// built from (never the persisted copy the rounds measure).
pub struct StaticPlan {
    pub queries: Vec<Histogram>,
    pub database: Database,
    pub reduced: ReducedEmd,
}

impl StaticPlan {
    pub fn gate(&self, last: &Round) -> Res<Checks> {
        let mut checks = Checks::default();
        let external: Vec<u64> = (0..self.database.len() as u64).collect();
        let probes: Vec<_> = self
            .queries
            .iter()
            .zip(&last.ops)
            .map(|(q, op)| (q, op.answer.as_slice()))
            .collect();
        oracle_gate(
            &self.database,
            &self.reduced,
            &external,
            &probes,
            &mut checks,
        )?;
        Ok(checks)
    }

    pub fn op_log(&self) -> Vec<u8> {
        let mut log = Vec::new();
        for query in &self.queries {
            log_histogram(&mut log, query);
        }
        log
    }
}

/// Time of `queries` through a dynamic snapshot over time through a static
/// `Red-EMD -> EMD` scan executor built over the same objects.
pub fn dynamic_vs_static(
    snapshot: &DurableSnapshot,
    database: &Database,
    reduced: &ReducedEmd,
    queries: &[&Histogram],
) -> Res<f64> {
    let executor = red_emd_scan(database, reduced)?;
    let started = Instant::now();
    for query in queries {
        std::hint::black_box(snapshot.knn(query, K)?);
    }
    let dynamic = started.elapsed();
    let started = Instant::now();
    for query in queries {
        std::hint::black_box(executor.knn(query, K)?);
    }
    Ok(dynamic.as_secs_f64() / started.elapsed().as_secs_f64())
}

/// The filter stages of an executor's plan, in chain order.
pub fn stage_names(executor: &Executor) -> Vec<String> {
    let names = executor.plan().stage_names();
    names.into_iter().map(str::to_owned).collect()
}

/// A static executor's answer as `(id, distance bits)`.
pub fn static_answer(neighbors: &[Neighbor]) -> Vec<(u64, u64)> {
    neighbors
        .iter()
        .map(|n| (n.id as u64, n.distance.to_bits()))
        .collect()
}

/// A durable snapshot's answer as `(external id, distance bits)`.
pub fn durable_answer(neighbors: &[(u64, f64)]) -> Vec<(u64, u64)> {
    neighbors
        .iter()
        .map(|&(id, distance)| (id, distance.to_bits()))
        .collect()
}

/// Replay `queries` one after the other on this thread, timing each call
/// to `knn`. A typed error is a failed operation, not the end of the run.
pub fn replay_knn(
    queries: &[Histogram],
    tracer: &Tracer,
    span: &str,
    mut knn: impl FnMut(&Histogram) -> Result<(Vec<(u64, u64)>, QueryStats), QueryError>,
) -> Vec<OpSample> {
    queries
        .iter()
        .enumerate()
        .map(|(index, query)| {
            let start = Instant::now();
            let outcome = knn(query);
            let end = Instant::now();
            tracer.record(span, start, end, index as u64);
            let (answer, refinements, ok) = match outcome {
                Ok((answer, stats)) => (answer, stats.refinements as u64, true),
                Err(_) => (Vec::new(), 0, false),
            };
            OpSample {
                kind: OpKind::Knn,
                client: 0,
                index,
                start,
                end,
                answer,
                refinements,
                ok,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Workload;

    /// Protocol steps 1 and 3 at the sizes the benchmark really runs:
    /// enough query operations for a p90 with ten samples beyond it, and
    /// byte-identical operation sequences from equal seeds.
    fn check_plan<W: Workload>(full: &W, smoke: &W, min_queries_at_full: usize) {
        let scratch =
            crate::fsutil::Scratch::new(&format!("test-plan-{}", smoke.name())).expect("scratch");
        let tracer = Tracer::new(false);
        let plan = |seed: u64, tag: &str| {
            smoke
                .setup(seed, &scratch.path().join(tag), &tracer)
                .expect("smoke set-up")
                .plan
        };
        let (a, b, c) = (plan(7, "a"), plan(7, "b"), plan(8, "c"));
        assert!(!smoke.op_log(&a).is_empty());
        assert_eq!(
            smoke.op_log(&a),
            smoke.op_log(&b),
            "same seed, same operations"
        );
        assert_ne!(
            smoke.op_log(&a),
            smoke.op_log(&c),
            "the seed changes the operations"
        );
        assert!(
            crate::fsutil::dirs_equal(&scratch.path().join("a"), &scratch.path().join("b"))
                .expect("compare"),
            "same seed, byte-identical state"
        );
        assert!(
            min_queries_at_full >= 100,
            "{} needs 100 query operations",
            full.name()
        );
        assert!(crate::stats::samples_beyond(min_queries_at_full, 0.9) >= 10);
    }

    #[test]
    fn equal_seeds_issue_byte_identical_operation_sequences() {
        use clustered::Clustered;
        use ingest_window::IngestWindow;
        use serve_mixed::ServeMixed;
        use tiling_chain::TilingChain;
        let (full, smoke) = (TilingChain::new(false), TilingChain::new(true));
        check_plan(&full, &smoke, full.query_operations());
        let (full, smoke) = (Clustered::new(false), Clustered::new(true));
        check_plan(&full, &smoke, full.query_operations());
        let (full, smoke) = (ServeMixed::new(false), ServeMixed::new(true));
        check_plan(&full, &smoke, full.query_operations());
        let (full, smoke) = (IngestWindow::new(false), IngestWindow::new(true));
        check_plan(&full, &smoke, full.query_operations());
    }
}
