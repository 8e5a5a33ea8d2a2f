//! Per-query cost accounting: the `QueryStats` façade every execution
//! path reports through (and, under an `emd-obs` recording scope, the
//! numbers the executor mirrors into the metrics registry).

/// Per-query cost accounting.
///
/// The paper's evaluation reports the number of expensive refinements
/// (full-dimensional EMD computations) and the per-stage filter
/// evaluations — the quantities that dimensionality reduction exists to
/// shrink. All counters in this crate feed into `QueryStats`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryStats {
    /// `(stage name, evaluations)` for every filter stage, in chain order.
    pub filter_evaluations: Vec<(String, usize)>,
    /// Number of exact (original-dimensionality) EMD computations.
    pub refinements: usize,
    /// The subset of `refinements` that stopped early on a lower bound
    /// above the k-th distance (or ε) instead of running to the exact
    /// distance. At most `refinements - results` on an exact k-NN answer:
    /// every returned neighbor was solved to the end.
    pub refinements_cut: usize,
    /// Number of results returned.
    pub results: usize,
}

impl QueryStats {
    /// Total filter evaluations across all stages.
    pub fn total_filter_evaluations(&self) -> usize {
        self.filter_evaluations.iter().map(|(_, n)| n).sum()
    }

    /// Merge another query's stats into an aggregate. Stages are matched
    /// *by name* wherever they sit in either list (chains of different
    /// shapes merge correctly); unseen stages are appended in encounter
    /// order. The merge is associative and commutative up to stage order,
    /// so a workload's totals do not depend on the order its queries
    /// answered in.
    pub fn accumulate(&mut self, other: &QueryStats) {
        for (name, count) in &other.filter_evaluations {
            match self
                .filter_evaluations
                .iter_mut()
                .find(|(existing, _)| existing == name)
            {
                Some((_, total)) => *total += count,
                None => self.filter_evaluations.push((name.clone(), *count)),
            }
        }
        self.refinements += other.refinements;
        self.refinements_cut += other.refinements_cut;
        self.results += other.results;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulate_sums_matching_stages() {
        let mut total = QueryStats {
            filter_evaluations: vec![("red-im".into(), 100), ("red-emd".into(), 10)],
            refinements: 5,
            refinements_cut: 2,
            results: 10,
        };
        total.accumulate(&QueryStats {
            filter_evaluations: vec![("red-im".into(), 100), ("red-emd".into(), 20)],
            refinements: 7,
            refinements_cut: 4,
            results: 10,
        });
        assert_eq!(total.filter_evaluations[0].1, 200);
        assert_eq!(total.filter_evaluations[1].1, 30);
        assert_eq!(total.refinements, 12);
        assert_eq!(total.refinements_cut, 6);
        assert_eq!(total.results, 20);
        assert_eq!(total.total_filter_evaluations(), 230);
    }

    #[test]
    fn accumulate_merges_mismatched_chains_by_name() {
        // Regression: positional matching used to append a duplicate
        // entry when stage lists disagreed at some index, double-counting
        // the stage in totals.
        let mut total = QueryStats {
            filter_evaluations: vec![("red-im".into(), 100)],
            refinements: 1,
            results: 1,
            ..QueryStats::default()
        };
        total.accumulate(&QueryStats {
            filter_evaluations: vec![("scaled-l1".into(), 50), ("red-im".into(), 30)],
            refinements: 2,
            results: 3,
            ..QueryStats::default()
        });
        assert_eq!(
            total.filter_evaluations,
            vec![("red-im".into(), 130), ("scaled-l1".into(), 50)],
            "stages merge by name, no duplicates"
        );
        assert_eq!(total.total_filter_evaluations(), 180);
        assert_eq!(total.refinements, 3);
        assert_eq!(total.results, 4);
    }

    #[test]
    fn accumulate_is_order_insensitive_in_totals() {
        let a = QueryStats {
            filter_evaluations: vec![("s1".into(), 10), ("s2".into(), 5)],
            refinements: 2,
            results: 1,
            ..QueryStats::default()
        };
        let b = QueryStats {
            filter_evaluations: vec![("s2".into(), 7)],
            refinements: 1,
            results: 2,
            ..QueryStats::default()
        };
        let mut ab = QueryStats::default();
        ab.accumulate(&a);
        ab.accumulate(&b);
        let mut ba = QueryStats::default();
        ba.accumulate(&b);
        ba.accumulate(&a);
        for stats in [&ab, &ba] {
            assert_eq!(stats.total_filter_evaluations(), 22);
            assert_eq!(stats.refinements, 3);
            assert_eq!(stats.results, 3);
        }
    }
}
