//! Dense flow-matrix accumulation.
//!
//! The paper's flow-based reduction (Section 3.4) averages the optimal flow
//! matrices of all histogram pairs in a database sample:
//! `F^S = [f^S_ij]`, `f^S_ij = 1/|S|^2 * sum_{x,y in S} f_ij(x, y)`.
//! [`FlowAccumulator`] collects those flows incrementally.

/// Accumulates sparse flow lists into a dense average flow matrix.
#[derive(Debug, Clone)]
pub struct FlowAccumulator {
    dim: usize,
    sums: Vec<f64>,
    count: usize,
}

impl FlowAccumulator {
    /// Create an accumulator for `dim x dim` flow matrices.
    pub fn new(dim: usize) -> Self {
        FlowAccumulator {
            dim,
            sums: vec![0.0; dim * dim],
            count: 0,
        }
    }

    /// Dimensionality of the accumulated matrices.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of flow matrices added so far.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Add one optimal flow list (as returned by
    /// [`crate::emd_with_flows`]).
    pub fn add(&mut self, flows: &[(usize, usize, f64)]) {
        for &(i, j, f) in flows {
            debug_assert!(i < self.dim && j < self.dim);
            self.sums[i * self.dim + j] += f;
        }
        self.count += 1;
    }

    /// The average flow matrix `F^S`, dense row-major. Returns zeros if no
    /// flows were added.
    pub fn average(&self) -> Vec<f64> {
        if self.count == 0 {
            return self.sums.clone();
        }
        let scale = 1.0 / self.count as f64;
        self.sums.iter().map(|s| s * scale).collect()
    }

    /// The raw (unnormalized) flow sums. The flow-based reduction's
    /// tightness objective is invariant under positive scaling of `F`, so
    /// the sums work as well as the average and avoid a copy.
    pub fn sums(&self) -> &[f64] {
        &self.sums
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn averages_added_flows() {
        let mut acc = FlowAccumulator::new(3);
        acc.add(&[(0, 1, 0.5), (2, 2, 0.5)]);
        acc.add(&[(0, 1, 0.1)]);
        assert_eq!(acc.count(), 2);
        let avg = acc.average();
        assert!((avg[1] - 0.3).abs() < 1e-12); // (0.5 + 0.1) / 2
        assert!((avg[8] - 0.25).abs() < 1e-12); // 0.5 / 2
        assert_eq!(avg[0], 0.0);
    }

    #[test]
    fn empty_accumulator_yields_zeros() {
        let acc = FlowAccumulator::new(2);
        assert_eq!(acc.average(), vec![0.0; 4]);
        assert_eq!(acc.count(), 0);
    }

    #[test]
    fn sums_scale_like_average() {
        let mut acc = FlowAccumulator::new(2);
        acc.add(&[(0, 0, 1.0)]);
        acc.add(&[(0, 0, 0.5), (1, 0, 0.5)]);
        let sums = acc.sums().to_vec();
        let avg = acc.average();
        for (s, a) in sums.iter().zip(avg.iter()) {
            assert!((s - a * 2.0).abs() < 1e-12);
        }
    }
}
