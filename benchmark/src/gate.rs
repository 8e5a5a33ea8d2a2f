//! The correctness gate: measured answers against two oracles that share
//! no index, no persisted state and no warm solver state with the
//! measured path. It runs after the rounds, outside every timed region.
//!
//! * the brute-force `QueryPlan::sequential` oracle (every object refined
//!   with a cold exact EMD) for [`BRUTE_FORCE_PROBES`] queries;
//! * a freshly built single-stage `Red-EMD -> EMD` scan plan for
//!   [`SCAN_PROBES`] queries.
//!
//! Ids must match exactly. Distances must agree to [`DISTANCE_TOLERANCE`]
//! relative: the measured paths solve warm, and on the integer-valued
//! ground distances used here a warm and a cold solve may stop at
//! different, equally optimal bases (DESIGN.md, "Warm answers and ties");
//! their objectives were seen to differ by up to 9e-12 relative, far below
//! the gap between any two neighbours. Bit-for-bit equality is checked
//! where it must hold: between the rounds of one run.

use crate::metrics::Res;
use crate::protocol::{Checks, K};
use emd_core::Histogram;
use emd_query::{Database, EmdDistance, Executor, Filter, Neighbor, QueryPlan, ReducedEmdFilter};
use emd_reduction::ReducedEmd;

pub const BRUTE_FORCE_PROBES: usize = 2;
pub const SCAN_PROBES: usize = 10;
pub const DISTANCE_TOLERANCE: f64 = 1e-9;

/// A measured kNN answer: `(id, f64::to_bits(distance))` per neighbour.
pub type Answer = [(u64, u64)];

/// Whether `measured` is the oracle's answer; `external[dense]` is the id
/// the measured path reports for the oracle's object `dense`.
pub fn same_answer(measured: &Answer, oracle: &[Neighbor], external: &[u64]) -> bool {
    measured.len() == oracle.len()
        && measured.iter().zip(oracle).all(|(&(id, bits), neighbor)| {
            let distance = f64::from_bits(bits);
            let scale = distance.abs().max(neighbor.distance.abs());
            external.get(neighbor.id) == Some(&id)
                && (distance - neighbor.distance).abs() <= DISTANCE_TOLERANCE * scale
        })
}

/// A freshly built single-stage `Red-EMD -> EMD` scan plan over `database`.
pub fn red_emd_scan(database: &Database, reduced: &ReducedEmd) -> Res<Executor> {
    let stage: Box<dyn Filter> = Box::new(ReducedEmdFilter::new(database, reduced.clone())?);
    let refiner = Box::new(EmdDistance::new(database)?);
    Ok(Executor::new(QueryPlan::new(vec![stage], refiner)?))
}

/// Check the first probes against both oracles built over `database`.
pub fn oracle_gate(
    database: &Database,
    reduced: &ReducedEmd,
    external: &[u64],
    probes: &[(&Histogram, &Answer)],
    checks: &mut Checks,
) -> Res<()> {
    let brute = Executor::new(QueryPlan::sequential(Box::new(
        EmdDistance::new(database)?.with_warm_start(false),
    ))?);
    let scan = red_emd_scan(database, reduced)?;
    for (oracle, name, count) in [
        (&brute, "brute-force", BRUTE_FORCE_PROBES),
        (&scan, "Red-EMD scan", SCAN_PROBES),
    ] {
        for (index, (query, measured)) in probes.iter().take(count).enumerate() {
            let (expected, _) = oracle.knn(query, K)?;
            checks.expect(same_answer(measured, &expected, external), || {
                let measured: Vec<_> =
                    measured.iter().map(|&(id, bits)| (id, f64::from_bits(bits))).collect();
                let expected: Vec<_> = expected
                    .iter()
                    .map(|n| (external.get(n.id).copied(), n.distance))
                    .collect();
                format!(
                    "probe {index} differs from the {name} oracle: measured {measured:?}, oracle {expected:?}"
                )
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn answers_match_on_ids_and_nearly_equal_distances() {
        let oracle = vec![
            Neighbor {
                id: 0,
                distance: 0.5,
            },
            Neighbor {
                id: 2,
                distance: 1.0,
            },
        ];
        let external = [10, 11, 12];
        let exact = [(10, 0.5f64.to_bits()), (12, 1.0f64.to_bits())];
        assert!(same_answer(&exact, &oracle, &external));
        let last_bit = [(10, 0.5f64.to_bits() + 1), (12, 1.0f64.to_bits())];
        assert!(same_answer(&last_bit, &oracle, &external));
        let off = [(10, 0.5000001f64.to_bits()), (12, 1.0f64.to_bits())];
        assert!(!same_answer(&off, &oracle, &external));
        let wrong_id = [(11, 0.5f64.to_bits()), (12, 1.0f64.to_bits())];
        assert!(!same_answer(&wrong_id, &oracle, &external));
        assert!(!same_answer(&exact[..1], &oracle, &external));
    }
}
