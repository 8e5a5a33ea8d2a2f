//! Combining reduction matrices (Definition 3): each original dimension
//! joins exactly one reduced dimension, none left empty.

use crate::error::ReductionError;
use emd_core::Histogram;

/// A *combining* dimensionality reduction (Definition 3 of the paper).
///
/// Conceptually a 0/1 matrix `R in {0,1}^{d x d'}` with exactly one 1 per
/// row (each original dimension joins exactly one reduced dimension —
/// restrictions (6) and (7)) and at least one 1 per column (no reduced
/// dimension is empty — restriction (8)). Because rows are unit vectors,
/// the matrix is stored compactly as an assignment vector:
/// `assignment[i] = i'` iff `r_{ii'} = 1`.
///
/// Restriction (7) makes reduction mass-preserving: `x * R` sums the
/// masses of each group, so reduced vectors remain valid Definition 1
/// operands.
///
/// ```
/// use emd_core::Histogram;
/// use emd_reduction::CombiningReduction;
///
/// // Merge 4 dimensions into 2 groups: {0, 1} and {2, 3}.
/// let r = CombiningReduction::new(vec![0, 0, 1, 1], 2)?;
/// let x = Histogram::new(vec![0.1, 0.2, 0.3, 0.4])?;
/// let reduced = r.reduce(&x)?;
/// assert!((reduced.mass(0) - 0.3).abs() < 1e-12);
/// assert!((reduced.mass(1) - 0.7).abs() < 1e-12);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CombiningReduction {
    assignment: Box<[u32]>,
    reduced_dim: usize,
    /// Cached group sizes; `group_sizes[i'] >= 1` is restriction (8).
    group_sizes: Box<[u32]>,
}

impl CombiningReduction {
    /// Build a reduction from an assignment vector
    /// (`assignment[i]` = reduced dimension of original dimension `i`).
    ///
    /// # Errors
    ///
    /// Returns [`ReductionError`] when `reduced_dim` is zero or larger than the
    /// original dimensionality, an assignment target is out of range, or some
    /// reduced dimension receives no original dimension.
    pub fn new(assignment: Vec<usize>, reduced_dim: usize) -> Result<Self, ReductionError> {
        let original_dim = assignment.len();
        if reduced_dim == 0 || reduced_dim > original_dim {
            return Err(ReductionError::InvalidTargetDimension {
                original_dim,
                reduced_dim,
            });
        }
        let mut group_sizes = vec![0u32; reduced_dim];
        for (original, &target) in assignment.iter().enumerate() {
            if target >= reduced_dim {
                return Err(ReductionError::AssignmentOutOfRange {
                    original,
                    target,
                    reduced_dim,
                });
            }
            group_sizes[target] += 1;
        }
        if let Some(empty) = group_sizes.iter().position(|&s| s == 0) {
            return Err(ReductionError::EmptyReducedDimension(empty));
        }
        Ok(CombiningReduction {
            assignment: assignment.iter().map(|&a| a as u32).collect(),
            reduced_dim,
            group_sizes: group_sizes.into_boxed_slice(),
        })
    }

    /// The identity reduction (`d' = d`, every dimension its own group).
    ///
    /// # Errors
    ///
    /// Returns [`ReductionError`] when `dim` is zero.
    pub fn identity(dim: usize) -> Result<Self, ReductionError> {
        Self::new((0..dim).collect(), dim)
    }

    /// The paper's `Base` initial solution for the flow-based algorithms:
    /// all original dimensions assigned to reduced dimension 0. Only
    /// valid as a `d' = 1` reduction; the FB algorithms then spread
    /// dimensions across the remaining target dimensions.
    ///
    /// Because Definition 3 forbids empty reduced dimensions, the `Base`
    /// start for a `d'`-target optimization is modelled here as "first
    /// `d' - 1` dimensions pinned to their own group, everything else in
    /// the last group", the closest valid analogue that gives the
    /// optimizer the same freedom.
    ///
    /// # Errors
    ///
    /// Returns [`ReductionError`] when `reduced_dim` is zero or exceeds
    /// `original_dim`.
    pub fn base(original_dim: usize, reduced_dim: usize) -> Result<Self, ReductionError> {
        if reduced_dim == 0 || reduced_dim > original_dim {
            return Err(ReductionError::InvalidTargetDimension {
                original_dim,
                reduced_dim,
            });
        }
        let assignment = (0..original_dim).map(|i| i.min(reduced_dim - 1)).collect();
        Self::new(assignment, reduced_dim)
    }

    /// Original dimensionality `d`.
    #[inline]
    pub fn original_dim(&self) -> usize {
        self.assignment.len()
    }

    /// Reduced dimensionality `d'`.
    #[inline]
    pub fn reduced_dim(&self) -> usize {
        self.reduced_dim
    }

    /// Reduced dimension of original dimension `i`.
    #[inline]
    pub fn target_of(&self, original: usize) -> usize {
        self.assignment[original] as usize
    }

    /// The assignment vector.
    #[inline]
    pub fn assignment(&self) -> &[u32] {
        &self.assignment
    }

    /// Materialize the groups: `groups()[i']` lists the original
    /// dimensions combined into `i'`.
    pub fn groups(&self) -> Vec<Vec<usize>> {
        let mut groups = vec![Vec::new(); self.reduced_dim];
        for (original, &target) in self.assignment.iter().enumerate() {
            groups[target as usize].push(original);
        }
        groups
    }

    /// Reassign original dimension `original` to reduced dimension
    /// `target`. Returns `false` (and leaves the reduction unchanged) if
    /// the move would empty the source group, which would violate
    /// restriction (8); the flow-based optimizers skip such moves.
    pub(crate) fn try_reassign(&mut self, original: usize, target: usize) -> bool {
        debug_assert!(original < self.assignment.len() && target < self.reduced_dim);
        let source = self.assignment[original] as usize;
        if source == target {
            return true;
        }
        if self.group_sizes[source] == 1 {
            return false;
        }
        self.group_sizes[source] -= 1;
        self.group_sizes[target] += 1;
        self.assignment[original] = target as u32;
        true
    }

    /// Apply the reduction to a histogram: `x' = x * R`
    /// (mass of each group summed).
    ///
    /// # Errors
    ///
    /// Returns [`ReductionError::DimensionMismatch`]-style failures when `x` does
    /// not have the reduction's original dimensionality.
    pub fn reduce(&self, x: &Histogram) -> Result<Histogram, ReductionError> {
        self.reduce_with(x, &mut Vec::new())
    }

    /// [`reduce`](Self::reduce), summing the groups in `scratch`: a caller
    /// reducing a whole arena passes one buffer, so each reduced
    /// histogram costs one allocation, its own.
    pub(crate) fn reduce_with(
        &self,
        x: &Histogram,
        scratch: &mut Vec<f64>,
    ) -> Result<Histogram, ReductionError> {
        if x.dim() != self.assignment.len() {
            return Err(ReductionError::DimensionMismatch {
                expected: self.assignment.len(),
                got: x.dim(),
            });
        }
        scratch.clear();
        scratch.resize(self.reduced_dim, 0.0);
        for (i, mass) in x.nonzero() {
            scratch[self.assignment[i] as usize] += mass;
        }
        Ok(Histogram::from_slice(scratch)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_assignment_accepted() {
        let r = CombiningReduction::new(vec![0, 0, 1, 1], 2).unwrap();
        assert_eq!(r.original_dim(), 4);
        assert_eq!(r.reduced_dim(), 2);
        assert_eq!(r.groups(), vec![vec![0, 1], vec![2, 3]]);
    }

    #[test]
    fn rejects_empty_reduced_dimension() {
        assert_eq!(
            CombiningReduction::new(vec![0, 0, 0], 2).unwrap_err(),
            ReductionError::EmptyReducedDimension(1)
        );
    }

    #[test]
    fn rejects_out_of_range_target() {
        assert!(matches!(
            CombiningReduction::new(vec![0, 2], 2).unwrap_err(),
            ReductionError::AssignmentOutOfRange {
                original: 1,
                target: 2,
                ..
            }
        ));
    }

    #[test]
    fn rejects_invalid_target_dim() {
        assert!(matches!(
            CombiningReduction::new(vec![0, 0], 0).unwrap_err(),
            ReductionError::InvalidTargetDimension { .. }
        ));
        assert!(matches!(
            CombiningReduction::new(vec![0], 2).unwrap_err(),
            ReductionError::InvalidTargetDimension { .. }
        ));
    }

    #[test]
    fn reduce_sums_group_masses() {
        let r = CombiningReduction::new(vec![0, 0, 1, 1, 1], 2).unwrap();
        let x = Histogram::new(vec![0.1, 0.2, 0.3, 0.2, 0.2]).unwrap();
        let reduced = r.reduce(&x).unwrap();
        assert_eq!(reduced.dim(), 2);
        assert!((reduced.mass(0) - 0.3).abs() < 1e-12);
        assert!((reduced.mass(1) - 0.7).abs() < 1e-12);
        // Restriction (7): total mass preserved.
        assert!((reduced.total_mass() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reduce_rejects_wrong_dimension() {
        let r = CombiningReduction::new(vec![0, 1], 2).unwrap();
        let x = Histogram::new(vec![0.5, 0.25, 0.25]).unwrap();
        assert!(matches!(
            r.reduce(&x).unwrap_err(),
            ReductionError::DimensionMismatch {
                expected: 2,
                got: 3
            }
        ));
    }

    #[test]
    fn identity_is_noop() {
        let r = CombiningReduction::identity(3).unwrap();
        let x = Histogram::new(vec![0.2, 0.3, 0.5]).unwrap();
        assert_eq!(r.reduce(&x).unwrap(), x);
    }

    #[test]
    fn base_pins_prefix() {
        let r = CombiningReduction::base(6, 3).unwrap();
        assert_eq!(r.assignment(), &[0, 1, 2, 2, 2, 2]);
    }

    #[test]
    fn try_reassign_respects_nonempty_constraint() {
        let mut r = CombiningReduction::new(vec![0, 1, 1], 2).unwrap();
        // Moving dimension 0 would empty group 0.
        assert!(!r.try_reassign(0, 1));
        assert_eq!(r.assignment(), &[0, 1, 1]);
        // Moving dimension 1 is fine.
        assert!(r.try_reassign(1, 0));
        assert_eq!(r.assignment(), &[0, 0, 1]);
        // Self-move is a no-op success.
        assert!(r.try_reassign(2, 1));
    }

    #[test]
    fn dense_matrix_satisfies_definition_three() {
        let r = CombiningReduction::new(vec![0, 1, 1, 0], 2).unwrap();
        let groups = r.groups();
        // Restrictions (6)/(7): every row of the 0/1 matrix holds exactly
        // one 1, i.e. every original dimension sits in exactly one group.
        let mut members: Vec<usize> = groups.iter().flatten().copied().collect();
        members.sort_unstable();
        assert_eq!(members, vec![0, 1, 2, 3]);
        // Restriction (8): every column holds at least one 1.
        assert!(groups.iter().all(|group| !group.is_empty()));
    }
}
