//! Step 1 and 2 of the flow-based reduction (Figure 6): sample the
//! database and aggregate the optimal EMD flows of all sample pairs into
//! the average flow matrix `F^S`.

use crate::ReductionError;
use emd_core::{emd_with_flows, CostMatrix, Histogram};
use rand::seq::SliceRandom;
use rand::Rng;
use std::sync::mpsc;

/// Pairs a flow-sample worker solves per hand-over to the summing thread:
/// enough that the wake-up and the one cross-thread free cost nothing next
/// to the solves, few enough that a small sample still spreads over the
/// workers.
const PAIRS_PER_HANDOFF: usize = 64;

/// One block's flows, pair after pair, and how many belong to each pair.
type SolvedBlock = (Vec<(usize, usize, f64)>, Vec<usize>);

/// Sums sparse flow lists into a dense `dim x dim` flow matrix, row-major.
#[derive(Debug)]
struct FlowAccumulator {
    dim: usize,
    sums: Vec<f64>,
    count: usize,
}

impl FlowAccumulator {
    fn new(dim: usize) -> Self {
        FlowAccumulator {
            dim,
            sums: vec![0.0; dim * dim],
            count: 0,
        }
    }

    /// Add one optimal flow list (as `emd_with_flows` returns it).
    fn add(&mut self, flows: &[(usize, usize, f64)]) {
        for &(i, j, f) in flows {
            debug_assert!(i < self.dim && j < self.dim);
            self.sums[i * self.dim + j] += f; // bounds: a flow's cells index the dim x dim matrix
        }
        self.count += 1;
    }

    /// The average flow matrix `F^S`: zeros if no flows were added.
    fn average(&self) -> Vec<f64> {
        if self.count == 0 {
            return self.sums.clone();
        }
        let scale = 1.0 / self.count as f64;
        self.sums.iter().map(|s| s * scale).collect()
    }
}

/// The aggregated flow information of a database sample.
#[derive(Debug, Clone)]
pub struct FlowSample {
    dim: usize,
    /// Dense row-major average flow matrix `F^S`.
    average: Vec<f64>,
    /// Number of histogram pairs that contributed.
    pairs: usize,
}

impl FlowSample {
    /// Compute `F^S` from a sample of histograms by solving the *unreduced*
    /// EMD for every unordered pair and summing both flow orientations
    /// (`F(x,y)` and its transpose `F(y,x)`), which matches the paper's
    /// sum over all ordered pairs.
    ///
    /// This is the paper's one-off preprocessing investment: `O(|S|^2)`
    /// full-dimensional EMD computations, repaid by faster queries. The
    /// solves are independent, so `threads` workers share them out: this
    /// thread and `threads - 1` scoped helpers. Whoever solves a pair, this
    /// thread adds every pair's flows in pair order, so `F^S` is
    /// bit-identical at every thread count and the thread count moves only
    /// wall-clock time. (Metrics record only this thread's solves: all of
    /// them at one thread.)
    ///
    /// # Errors
    ///
    /// Returns [`ReductionError`] when the sample has fewer than two
    /// histograms, histograms disagree in dimensionality with `cost`, or an
    /// exact EMD computation fails. `threads == 0` is clamped to 1.
    pub fn from_histograms_parallel(
        sample: &[Histogram],
        cost: &CostMatrix,
        threads: usize,
    ) -> Result<Self, ReductionError> {
        if sample.len() < 2 {
            return Err(ReductionError::SampleTooSmall(sample.len()));
        }
        let dim = cost.rows();
        for h in sample {
            if h.dim() != dim {
                return Err(ReductionError::DimensionMismatch {
                    expected: dim,
                    got: h.dim(),
                });
            }
        }
        let pairs: Vec<(usize, usize)> = (0..sample.len())
            .flat_map(|a| ((a + 1)..sample.len()).map(move |b| (a, b)))
            .collect();
        let blocks: Vec<&[(usize, usize)]> = pairs.chunks(PAIRS_PER_HANDOFF).collect();
        let workers = threads.clamp(1, blocks.len());
        // A block's flows, pair after pair, in one buffer: a helper hands
        // them over in one allocation, not one per pair.
        let solve = |block: &[(usize, usize)]| -> Result<SolvedBlock, ReductionError> {
            let mut flows = Vec::new();
            let mut lens = Vec::with_capacity(block.len());
            for &(a, b) in block {
                let report = emd_with_flows(&sample[a], &sample[b], cost)?;
                flows.extend_from_slice(&report.flows);
                lens.push(report.flows.len());
            }
            Ok((flows, lens))
        };

        let mut accumulator = FlowAccumulator::new(dim);
        let mut transposed: Vec<(usize, usize, f64)> = Vec::new();
        // lint: allow(nondeterminism): helpers only solve; every block is
        // summed here, in pair order, whichever thread solved it.
        std::thread::scope(|scope| -> Result<(), ReductionError> {
            // Block i is solved by worker i % workers: this thread is worker
            // 0, and helpers 1.. hand theirs over as they finish.
            let helpers: Vec<_> = (1..workers)
                .map(|worker| {
                    let (send, receive) = mpsc::sync_channel(1);
                    let mine = blocks.iter().skip(worker).step_by(workers);
                    scope.spawn(move || {
                        for block in mine {
                            // A closed channel means this thread stopped on an error.
                            if send.send(solve(block)).is_err() {
                                break;
                            }
                        }
                    });
                    receive
                })
                .collect();
            let solvers = std::iter::once(None).chain(helpers.iter().map(Some));
            for (helper, block) in solvers.cycle().zip(&blocks) {
                let solved = match helper.map(mpsc::Receiver::recv) {
                    None => solve(block),
                    Some(Ok(solved)) => solved,
                    // A helper that hung up early panicked; the scope re-raises it.
                    Some(Err(_)) => break,
                };
                let (flows, lens) = solved?;
                let mut rest = flows.as_slice();
                for len in lens {
                    let (pair, tail) = rest.split_at(len);
                    rest = tail;
                    accumulator.add(pair);
                    transposed.clear();
                    transposed.extend(pair.iter().map(|&(i, j, f)| (j, i, f)));
                    accumulator.add(&transposed);
                }
            }
            Ok(())
        })?;
        Ok(FlowSample {
            dim,
            average: accumulator.average(),
            pairs: accumulator.count,
        })
    }

    /// Wrap a precomputed dense flow matrix (row-major `dim x dim`).
    ///
    /// # Errors
    ///
    /// Returns [`ReductionError`] when `average` is not `dim * dim` long or
    /// contains a negative or non-finite flow.
    pub fn from_dense(dim: usize, average: Vec<f64>) -> Result<Self, ReductionError> {
        if average.len() != dim * dim {
            return Err(ReductionError::DimensionMismatch {
                expected: dim * dim,
                got: average.len(),
            });
        }
        Ok(FlowSample {
            dim,
            average,
            pairs: 0,
        })
    }

    /// Histogram dimensionality `d`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of (ordered) pairs aggregated.
    pub fn pairs(&self) -> usize {
        self.pairs
    }

    /// Average flow from original dimension `i` to `j`.
    #[inline]
    pub fn flow(&self, i: usize, j: usize) -> f64 {
        self.average[i * self.dim + j]
    }

    /// The dense average flow matrix.
    pub fn dense(&self) -> &[f64] {
        &self.average
    }
}

/// Draw a random sample of `size` histograms from a database (without
/// replacement; the whole database if `size >= len`).
pub fn draw_sample<'a>(
    database: &'a [Histogram],
    size: usize,
    rng: &mut impl Rng,
) -> Vec<&'a Histogram> {
    let mut indices: Vec<usize> = (0..database.len()).collect();
    indices.shuffle(rng);
    indices.truncate(size.min(database.len()));
    indices.into_iter().map(|i| &database[i]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use emd_core::ground;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn h(bins: &[f64]) -> Histogram {
        Histogram::new(bins.to_vec()).unwrap()
    }

    #[test]
    fn averages_added_flows() {
        let mut acc = FlowAccumulator::new(3);
        acc.add(&[(0, 1, 0.5), (2, 2, 0.5)]);
        acc.add(&[(0, 1, 0.1)]);
        assert_eq!(acc.count, 2);
        let avg = acc.average();
        assert!((avg[1] - 0.3).abs() < 1e-12); // (0.5 + 0.1) / 2
        assert!((avg[8] - 0.25).abs() < 1e-12); // 0.5 / 2
        assert_eq!(avg[0], 0.0);
    }

    #[test]
    fn empty_accumulator_yields_zeros() {
        let acc = FlowAccumulator::new(2);
        assert_eq!(acc.average(), vec![0.0; 4]);
        assert_eq!(acc.count, 0);
    }

    #[test]
    fn sums_scale_like_average() {
        let mut acc = FlowAccumulator::new(2);
        acc.add(&[(0, 0, 1.0)]);
        acc.add(&[(0, 0, 0.5), (1, 0, 0.5)]);
        let avg = acc.average();
        for (s, a) in acc.sums.iter().zip(avg.iter()) {
            assert!((s - a * 2.0).abs() < 1e-12);
        }
    }

    #[test]
    fn aggregates_pairwise_flows() {
        let sample = vec![h(&[1.0, 0.0, 0.0]), h(&[0.0, 0.0, 1.0])];
        let cost = ground::linear(3).unwrap();
        let flows = FlowSample::from_histograms_parallel(&sample, &cost, 1).unwrap();
        // One unordered pair, aggregated in both orientations.
        assert_eq!(flows.pairs(), 2);
        // Average of f(0->2)=1 in one orientation and 0 in the other: 0.5.
        assert!((flows.flow(0, 2) - 0.5).abs() < 1e-12);
        assert!((flows.flow(2, 0) - 0.5).abs() < 1e-12);
        assert_eq!(flows.flow(0, 1), 0.0);
    }

    #[test]
    fn flow_matrix_is_symmetric_for_symmetric_costs() {
        let sample = vec![
            h(&[0.5, 0.3, 0.2]),
            h(&[0.1, 0.1, 0.8]),
            h(&[0.3, 0.4, 0.3]),
        ];
        let cost = ground::linear(3).unwrap();
        let flows = FlowSample::from_histograms_parallel(&sample, &cost, 1).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert!((flows.flow(i, j) - flows.flow(j, i)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn total_average_flow_equals_total_mass() {
        // Each pair's flow matrix ships total mass 1, so the average over
        // pairs also sums to 1.
        let sample = vec![
            h(&[0.5, 0.5, 0.0, 0.0]),
            h(&[0.0, 0.0, 0.5, 0.5]),
            h(&[0.25, 0.25, 0.25, 0.25]),
        ];
        let cost = ground::linear(4).unwrap();
        let flows = FlowSample::from_histograms_parallel(&sample, &cost, 1).unwrap();
        let total: f64 = flows.dense().iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_small_samples_and_mismatches() {
        let cost = ground::linear(3).unwrap();
        assert!(matches!(
            FlowSample::from_histograms_parallel(&[h(&[1.0, 0.0, 0.0])], &cost, 1).unwrap_err(),
            ReductionError::SampleTooSmall(1)
        ));
        let mixed = vec![h(&[1.0, 0.0, 0.0]), h(&[0.5, 0.5])];
        assert!(matches!(
            FlowSample::from_histograms_parallel(&mixed, &cost, 1).unwrap_err(),
            ReductionError::DimensionMismatch { .. }
        ));
    }

    #[test]
    fn draw_sample_without_replacement() {
        let database: Vec<Histogram> = (0..10)
            .map(|i| {
                let mut bins = vec![0.0; 10];
                bins[i] = 1.0;
                Histogram::new(bins).unwrap()
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(3);
        let sample = draw_sample(&database, 4, &mut rng);
        assert_eq!(sample.len(), 4);
        // Oversized requests return the whole database.
        let all = draw_sample(&database, 100, &mut rng);
        assert_eq!(all.len(), 10);
    }

    #[test]
    fn parallel_matches_sequential() {
        // Irregular bins and a non-linear cost, so the pairs' flows are
        // spread over many cells and a different summation order would
        // move bits; 276 pairs are several hand-overs, so several workers.
        let sample: Vec<Histogram> = (0..24)
            .map(|i| {
                let bins = (0..8).map(|j| 0.05 + ((i * 7 + j * 3) % 29) as f64 / 31.0);
                Histogram::normalized(bins.collect()).unwrap()
            })
            .collect();
        let costs = (0..64).map(|c| (((c / 8) as f64 - (c % 8) as f64).abs()).sqrt());
        let cost = CostMatrix::new(8, 8, costs.collect()).unwrap();
        let sequential = FlowSample::from_histograms_parallel(&sample, &cost, 1).unwrap();
        assert_eq!(sequential.pairs(), 24 * 23);
        let bits = |flows: &FlowSample| {
            flows
                .dense()
                .iter()
                .map(|f| f.to_bits())
                .collect::<Vec<_>>()
        };
        for threads in [0, 1, 2, 3, 4, 16] {
            let parallel = FlowSample::from_histograms_parallel(&sample, &cost, threads).unwrap();
            assert_eq!(parallel.pairs(), sequential.pairs(), "threads={threads}");
            assert_eq!(bits(&parallel), bits(&sequential), "threads={threads}");
        }
    }

    #[test]
    fn parallel_rejects_small_samples() {
        let cost = ground::linear(3).unwrap();
        assert!(matches!(
            FlowSample::from_histograms_parallel(&[h(&[1.0, 0.0, 0.0])], &cost, 4).unwrap_err(),
            ReductionError::SampleTooSmall(1)
        ));
    }

    #[test]
    fn from_dense_validates_shape() {
        assert!(FlowSample::from_dense(2, vec![0.0; 4]).is_ok());
        assert!(FlowSample::from_dense(2, vec![0.0; 3]).is_err());
    }
}
