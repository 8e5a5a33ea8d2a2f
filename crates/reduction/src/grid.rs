//! Grid-based merging reductions — the special case of reference \[14\]
//! (Ljosa et al.) that the paper generalizes in Section 3.1.
//!
//! For image features on a `width x height` tiling, \[14\] builds a
//! hierarchy of filters by merging *spatially adjacent* tiles, shrinking
//! the dimensionality by a fixed factor of 4 per level (2x2 blocks).
//! [`block_merge`] expresses one level of that scheme — at any block size
//! — as a [`CombiningReduction`], making it directly comparable to the
//! paper's flexible reductions (`flexemd ingest --reduction grid:N`).

use crate::matrix::CombiningReduction;
use crate::ReductionError;

/// Merge a `width x height` tiling (row-major bins) into blocks of
/// `block_w x block_h` tiles. Partial blocks at the right/bottom edges are
/// allowed and simply contain fewer tiles.
///
/// # Errors
///
/// Returns [`ReductionError`] when any of the four sizes is zero.
pub fn block_merge(
    width: usize,
    height: usize,
    block_w: usize,
    block_h: usize,
) -> Result<CombiningReduction, ReductionError> {
    if width == 0 || height == 0 || block_w == 0 || block_h == 0 {
        return Err(ReductionError::InvalidTargetDimension {
            original_dim: width * height,
            reduced_dim: 0,
        });
    }
    let blocks_x = width.div_ceil(block_w);
    let blocks_y = height.div_ceil(block_h);
    let assignment: Vec<usize> = (0..width * height)
        .map(|bin| {
            let x = bin % width;
            let y = bin / width;
            (y / block_h) * blocks_x + (x / block_w)
        })
        .collect();
    CombiningReduction::new(assignment, blocks_x * blocks_y)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_by_two_blocks_on_4x4() {
        let r = block_merge(4, 4, 2, 2).unwrap();
        assert_eq!(r.original_dim(), 16);
        assert_eq!(r.reduced_dim(), 4);
        // Top-left 2x2 block: bins 0, 1, 4, 5.
        assert_eq!(r.target_of(0), 0);
        assert_eq!(r.target_of(1), 0);
        assert_eq!(r.target_of(4), 0);
        assert_eq!(r.target_of(5), 0);
        // Bottom-right block: bins 10, 11, 14, 15.
        assert_eq!(r.target_of(15), 3);
        assert_eq!(r.target_of(10), 3);
    }

    #[test]
    fn partial_blocks_at_edges() {
        // 5x3 grid with 2x2 blocks: 3x2 = 6 blocks, edge blocks partial.
        let r = block_merge(5, 3, 2, 2).unwrap();
        assert_eq!(r.reduced_dim(), 6);
        // Bin (4, 0) lives in block column 2.
        assert_eq!(r.target_of(4), 2);
        // Bin (0, 2) lives in block row 1.
        assert_eq!(r.target_of(10), 3);
    }

    #[test]
    fn rejects_zero_sizes() {
        assert!(block_merge(0, 4, 2, 2).is_err());
        assert!(block_merge(4, 4, 0, 2).is_err());
    }
}
