//! Typed payload codecs for segment sections.
//!
//! Each codec pairs an `encode_*` function producing the little-endian
//! payload bytes with a `decode_*` function that parses them **through
//! the engine's own constructors** — [`Histogram::new`] (mass
//! normalization tolerance), [`CostMatrix::new`] (shape and
//! non-negativity), [`CombiningReduction::new`] (Definition 3
//! well-formedness) — so a payload that passes its CRC but violates an
//! invariant still fails the open path with a typed
//! [`DurableError::Invalid`] instead of reaching a query.
//!
//! Floats are stored as their IEEE-754 bit patterns via
//! `f64::to_le_bytes`, making write→read round trips bit-identical.

use std::path::Path;

use emd_core::{CostMatrix, Histogram};
use emd_reduction::CombiningReduction;

use crate::error::DurableError;

/// Little-endian reader over one (already checksum-verified) payload —
/// a segment section's, or a WAL record's.
///
/// A shortfall here means the *encoder* and declared counts disagree —
/// structural corruption the CRC could not catch — so everything maps
/// to [`DurableError::Invalid`] with the section name attached.
pub(super) struct Payload<'a> {
    bytes: &'a [u8],
    offset: usize,
    path: &'a Path,
    section: &'a str,
}

impl<'a> Payload<'a> {
    pub(super) fn new(path: &'a Path, section: &'a str, bytes: &'a [u8]) -> Self {
        Payload {
            bytes,
            offset: 0,
            path,
            section,
        }
    }

    /// An empty vector reserved for `count` items of at least
    /// `item_bytes` encoded bytes each — but never for more items than the
    /// unread payload could hold: a declared count is untrusted, and a
    /// wrong one must fail as [`DurableError::Invalid`] when the bytes run
    /// out, not as a failed allocation up front. (Reserving at all is
    /// measured: growing a 20k-histogram arena by doubling costs about a
    /// tenth of the time to open the index.)
    fn reserve<T>(&self, count: usize, item_bytes: usize) -> Vec<T> {
        let holds = (self.bytes.len() - self.offset) / item_bytes.max(1);
        Vec::with_capacity(count.min(holds))
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], DurableError> {
        let available = self.bytes.len() - self.offset;
        if n > available {
            return Err(DurableError::invalid(
                self.path,
                self.section,
                format!("payload too short for {what}: need {n} bytes, {available} left"),
            ));
        }
        // bounds: the shortfall check above guarantees offset + n <= len.
        let slice = &self.bytes[self.offset..self.offset + n];
        self.offset += n;
        Ok(slice)
    }

    pub(super) fn u64(&mut self, what: &str) -> Result<u64, DurableError> {
        let bytes = self.take(8, what)?;
        let mut raw = [0u8; 8];
        raw.copy_from_slice(bytes);
        Ok(u64::from_le_bytes(raw))
    }

    /// A `u64` that must fit the platform's `usize` (count or dimension).
    pub(super) fn length(&mut self, what: &str) -> Result<usize, DurableError> {
        let value = self.u64(what)?;
        usize::try_from(value).map_err(|_| {
            DurableError::invalid(
                self.path,
                self.section,
                format!("{what} {value} exceeds the platform word size"),
            )
        })
    }

    pub(super) fn f64s(&mut self, count: usize, what: &str) -> Result<Vec<f64>, DurableError> {
        let byte_len = count.checked_mul(8).ok_or_else(|| {
            DurableError::invalid(
                self.path,
                self.section,
                format!("{what} count {count} overflows the payload length"),
            )
        })?;
        let bytes = self.take(byte_len, what)?;
        let mut out = Vec::with_capacity(count);
        for chunk in bytes.chunks_exact(8) {
            let mut raw = [0u8; 8];
            raw.copy_from_slice(chunk);
            out.push(f64::from_le_bytes(raw));
        }
        Ok(out)
    }

    fn u32s(&mut self, count: usize, what: &str) -> Result<Vec<u32>, DurableError> {
        let byte_len = count.checked_mul(4).ok_or_else(|| {
            DurableError::invalid(
                self.path,
                self.section,
                format!("{what} count {count} overflows the payload length"),
            )
        })?;
        let bytes = self.take(byte_len, what)?;
        let mut out = Vec::with_capacity(count);
        for chunk in bytes.chunks_exact(4) {
            let mut raw = [0u8; 4];
            raw.copy_from_slice(chunk);
            out.push(u32::from_le_bytes(raw));
        }
        Ok(out)
    }

    /// Require the payload to be fully consumed.
    pub(super) fn finish(self) -> Result<(), DurableError> {
        let leftover = self.bytes.len() - self.offset;
        if leftover != 0 {
            return Err(DurableError::invalid(
                self.path,
                self.section,
                format!("{leftover} unexpected trailing payload bytes"),
            ));
        }
        Ok(())
    }

    fn invalid(&self, reason: impl std::fmt::Display) -> DurableError {
        DurableError::invalid(self.path, self.section, reason.to_string())
    }
}

/// Encode an arena of equal-dimensional histograms.
///
/// Layout: `count: u64 | dim: u64 | count * dim * f64` (row-major).
/// `dim` is passed explicitly so an empty arena still records the
/// dimensionality the caller expects back on decode.
pub(super) fn encode_histogram_arena(dim: usize, items: &[Histogram]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + items.len() * dim * 8);
    out.extend_from_slice(&(items.len() as u64).to_le_bytes());
    out.extend_from_slice(&(dim as u64).to_le_bytes());
    for histogram in items {
        for &mass in histogram.bins() {
            out.extend_from_slice(&mass.to_le_bytes());
        }
    }
    out
}

/// Decode a histogram arena, re-validating every histogram through
/// [`Histogram::new`]. Returns the recorded dimensionality alongside the
/// histograms so callers can check shape agreement even when the arena
/// is empty.
///
/// # Errors
///
/// Returns [`DurableError::Invalid`] when the payload is structurally
/// short, carries trailing bytes, or any histogram violates the
/// non-negativity / finiteness / unit-mass invariants.
pub(super) fn decode_histogram_arena(
    path: &Path,
    section: &str,
    payload: &[u8],
) -> Result<(usize, Vec<Histogram>), DurableError> {
    let mut p = Payload::new(path, section, payload);
    let count = p.length("histogram count")?;
    let dim = p.length("histogram dimensionality")?;
    let mut items = p.reserve(count, dim.saturating_mul(8));
    for index in 0..count {
        let bins = p.f64s(dim, "histogram bins")?;
        let histogram = Histogram::new(bins)
            .map_err(|e| p.invalid(format!("histogram {index} rejected: {e}")))?;
        items.push(histogram);
    }
    p.finish()?;
    Ok((dim, items))
}

/// Encode a cost matrix.
///
/// Layout: `rows: u64 | cols: u64 | rows * cols * f64` (row-major).
pub(super) fn encode_cost_matrix(matrix: &CostMatrix) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + matrix.entries().len() * 8);
    out.extend_from_slice(&(matrix.rows() as u64).to_le_bytes());
    out.extend_from_slice(&(matrix.cols() as u64).to_le_bytes());
    for &entry in matrix.entries() {
        out.extend_from_slice(&entry.to_le_bytes());
    }
    out
}

/// Decode a cost matrix through [`CostMatrix::new`].
///
/// # Errors
///
/// Returns [`DurableError::Invalid`] when the payload is structurally
/// short, carries trailing bytes, or the entries violate the shape /
/// non-negativity / finiteness invariants.
pub(super) fn decode_cost_matrix(
    path: &Path,
    section: &str,
    payload: &[u8],
) -> Result<CostMatrix, DurableError> {
    let mut p = Payload::new(path, section, payload);
    let rows = p.length("cost rows")?;
    let cols = p.length("cost cols")?;
    let cells = rows.checked_mul(cols).ok_or_else(|| {
        DurableError::invalid(path, section, format!("cost shape {rows}x{cols} overflows"))
    })?;
    let entries = p.f64s(cells, "cost entries")?;
    let matrix = CostMatrix::new(rows, cols, entries)
        .map_err(|e| p.invalid(format!("cost rejected: {e}")))?;
    p.finish()?;
    Ok(matrix)
}

/// Encode a combining reduction (Definition 3 assignment vector).
///
/// Layout: `original_dim: u64 | reduced_dim: u64 | original_dim * u32`.
pub(super) fn encode_reduction(reduction: &CombiningReduction) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + reduction.original_dim() * 4);
    out.extend_from_slice(&(reduction.original_dim() as u64).to_le_bytes());
    out.extend_from_slice(&(reduction.reduced_dim() as u64).to_le_bytes());
    for &target in reduction.assignment() {
        out.extend_from_slice(&target.to_le_bytes());
    }
    out
}

/// Decode a combining reduction through [`CombiningReduction::new`],
/// which re-checks the Definition 3 restrictions (every assignment in
/// range, no empty reduced dimension, `0 < d' <= d`).
///
/// # Errors
///
/// Returns [`DurableError::Invalid`] when the payload is structurally
/// short, carries trailing bytes, or the assignment violates
/// Definition 3.
pub(super) fn decode_reduction(
    path: &Path,
    section: &str,
    payload: &[u8],
) -> Result<CombiningReduction, DurableError> {
    let mut p = Payload::new(path, section, payload);
    let original_dim = p.length("original dimensionality")?;
    let reduced_dim = p.length("reduced dimensionality")?;
    let assignment: Vec<usize> = p
        .u32s(original_dim, "assignment vector")?
        .into_iter()
        .map(|t| t as usize)
        .collect();
    let reduction = CombiningReduction::new(assignment, reduced_dim)
        .map_err(|e| p.invalid(format!("reduction rejected: {e}")))?;
    p.finish()?;
    Ok(reduction)
}

/// A persisted greedy k-center clustering over one reduction's
/// precomputed arena.
///
/// Three parallel structures: `pivots[c]` and `radii[c]` describe
/// cluster `c` (pivot object id and covering radius under the reduced
/// EMD); `assignments[i]` names the cluster of database object `i`.
/// This type carries only structurally validated data — whether the
/// radii genuinely cover the members is re-established by the query
/// layer when a clustering is attached to a live index.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredClustering {
    /// Database object id of each cluster's pivot, indexed by cluster.
    pub pivots: Vec<u32>,
    /// Cluster id of each database object, indexed by object.
    pub assignments: Vec<u32>,
    /// Covering radius of each cluster (max member reduced EMD to the
    /// pivot), indexed by cluster.
    pub radii: Vec<f64>,
}

/// Encode a clustering.
///
/// Layout: `clusters: u64 | objects: u64 | clusters * u32 (pivots) |
/// objects * u32 (assignments) | clusters * f64 (radii)`. Radii are
/// stored as IEEE-754 bit patterns, so a save → open round trip is
/// bit-identical.
pub(super) fn encode_clustering(clustering: &StoredClustering) -> Vec<u8> {
    let clusters = clustering.pivots.len();
    let objects = clustering.assignments.len();
    let mut out = Vec::with_capacity(16 + clusters * 12 + objects * 4);
    out.extend_from_slice(&(clusters as u64).to_le_bytes());
    out.extend_from_slice(&(objects as u64).to_le_bytes());
    for &pivot in &clustering.pivots {
        out.extend_from_slice(&pivot.to_le_bytes());
    }
    for &cluster in &clustering.assignments {
        out.extend_from_slice(&cluster.to_le_bytes());
    }
    for &radius in &clustering.radii {
        out.extend_from_slice(&radius.to_le_bytes());
    }
    out
}

/// Decode a clustering, re-checking every structural invariant: each
/// pivot is a valid object id assigned to its own cluster, each
/// assignment names a valid cluster, and every radius is finite and
/// non-negative.
///
/// # Errors
///
/// Returns [`DurableError::Invalid`] when the payload is structurally
/// short, carries trailing bytes, or violates any invariant above.
pub(super) fn decode_clustering(
    path: &Path,
    section: &str,
    payload: &[u8],
) -> Result<StoredClustering, DurableError> {
    let mut p = Payload::new(path, section, payload);
    let clusters = p.length("cluster count")?;
    let objects = p.length("object count")?;
    if objects > 0 && (clusters == 0 || clusters > objects) {
        return Err(p.invalid(format!(
            "{clusters} clusters cannot partition {objects} objects"
        )));
    }
    if objects == 0 && clusters != 0 {
        return Err(p.invalid(format!("{clusters} clusters over an empty database")));
    }
    let pivots = p.u32s(clusters, "pivot ids")?;
    let assignments = p.u32s(objects, "assignment vector")?;
    let radii = p.f64s(clusters, "covering radii")?;
    p.finish()?;
    let path_err = |reason: String| DurableError::invalid(path, section, reason);
    for (cluster, &pivot) in pivots.iter().enumerate() {
        if pivot as usize >= objects {
            return Err(path_err(format!(
                "cluster {cluster} pivot {pivot} exceeds the {objects}-object database"
            )));
        }
        match assignments.get(pivot as usize) {
            Some(&home) if home as usize == cluster => {}
            Some(&home) => {
                return Err(path_err(format!(
                    "cluster {cluster} pivot {pivot} is assigned to cluster {home}"
                )));
            }
            None => {
                return Err(path_err(format!(
                    "cluster {cluster} pivot {pivot} has no assignment entry"
                )));
            }
        }
    }
    for (object, &cluster) in assignments.iter().enumerate() {
        if cluster as usize >= clusters {
            return Err(path_err(format!(
                "object {object} is assigned to cluster {cluster}, only {clusters} exist"
            )));
        }
    }
    for (cluster, &radius) in radii.iter().enumerate() {
        if !radius.is_finite() || radius < 0.0 {
            return Err(path_err(format!(
                "cluster {cluster} covering radius {radius} is not a finite non-negative value"
            )));
        }
    }
    Ok(StoredClustering {
        pivots,
        assignments,
        radii,
    })
}

/// Encode a dense `position -> external id` map (sealed WAL segments).
///
/// Layout: `count: u64 | count * u64`.
pub(super) fn encode_id_map(ids: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + ids.len() * 8);
    let count = u64::try_from(ids.len()).unwrap_or(u64::MAX);
    out.extend_from_slice(&count.to_le_bytes());
    for &id in ids {
        out.extend_from_slice(&id.to_le_bytes());
    }
    out
}

/// Decode a dense id map, rejecting one that is not strictly ascending.
/// Ids are allocated in insertion order and sealed in that order, so
/// every map ever written ascends; the live index looks ids up by binary
/// search, and a sealed segment with swapped or repeated ids could
/// answer queries with the wrong object.
///
/// # Errors
///
/// Returns [`DurableError::Invalid`] when the payload is structurally
/// short, carries trailing bytes, or does not strictly ascend.
pub(super) fn decode_id_map(
    path: &Path,
    section: &str,
    payload: &[u8],
) -> Result<Vec<u64>, DurableError> {
    let mut p = Payload::new(path, section, payload);
    let count = p.length("id count")?;
    let mut ids = p.reserve(count, 8);
    for _ in 0..count {
        ids.push(p.u64("external id")?);
    }
    p.finish()?;
    if ids.windows(2).any(|pair| pair.first() >= pair.last()) {
        return Err(DurableError::invalid(
            path,
            section,
            "id map is not strictly ascending",
        ));
    }
    Ok(ids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn path() -> PathBuf {
        PathBuf::from("/test.seg")
    }

    #[test]
    fn histogram_arena_roundtrip_is_bit_identical() {
        let items = vec![
            Histogram::new(vec![0.25, 0.75]).unwrap(),
            Histogram::new(vec![0.5, 0.5]).unwrap(),
        ];
        let payload = encode_histogram_arena(2, &items);
        let (dim, back) = decode_histogram_arena(&path(), "histograms", &payload).unwrap();
        assert_eq!(dim, 2);
        assert_eq!(back.len(), 2);
        for (a, b) in items.iter().zip(&back) {
            for (x, y) in a.bins().iter().zip(b.bins()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn empty_arena_keeps_dimensionality() {
        let payload = encode_histogram_arena(7, &[]);
        let (dim, back) = decode_histogram_arena(&path(), "histograms", &payload).unwrap();
        assert_eq!(dim, 7);
        assert!(back.is_empty());
    }

    #[test]
    fn denormalized_histogram_is_rejected() {
        // Bypass Histogram::new by hand-crafting the payload.
        let mut payload = Vec::new();
        payload.extend_from_slice(&1u64.to_le_bytes());
        payload.extend_from_slice(&2u64.to_le_bytes());
        payload.extend_from_slice(&0.9f64.to_le_bytes());
        payload.extend_from_slice(&0.9f64.to_le_bytes());
        let err = decode_histogram_arena(&path(), "histograms", &payload).unwrap_err();
        assert!(matches!(err, DurableError::Invalid { .. }), "{err}");
    }

    #[test]
    fn cost_matrix_roundtrip() {
        let c = CostMatrix::new(2, 3, vec![0.0, 1.0, 2.0, 1.0, 0.0, 1.0]).unwrap();
        let payload = encode_cost_matrix(&c);
        let back = decode_cost_matrix(&path(), "cost", &payload).unwrap();
        assert_eq!(c, back);
    }

    #[test]
    fn negative_cost_is_rejected() {
        let mut payload = Vec::new();
        payload.extend_from_slice(&1u64.to_le_bytes());
        payload.extend_from_slice(&1u64.to_le_bytes());
        payload.extend_from_slice(&(-1.0f64).to_le_bytes());
        assert!(matches!(
            decode_cost_matrix(&path(), "cost", &payload),
            Err(DurableError::Invalid { .. })
        ));
    }

    #[test]
    fn reduction_roundtrip() {
        let r = CombiningReduction::new(vec![0, 0, 1, 2, 1], 3).unwrap();
        let payload = encode_reduction(&r);
        let back = decode_reduction(&path(), "r1", &payload).unwrap();
        assert_eq!(back.assignment(), r.assignment());
        assert_eq!(back.reduced_dim(), 3);
    }

    #[test]
    fn empty_reduced_dimension_is_rejected() {
        let mut payload = Vec::new();
        payload.extend_from_slice(&2u64.to_le_bytes());
        payload.extend_from_slice(&2u64.to_le_bytes());
        payload.extend_from_slice(&0u32.to_le_bytes());
        payload.extend_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            decode_reduction(&path(), "r1", &payload),
            Err(DurableError::Invalid { .. })
        ));
    }

    fn clustering_fixture() -> StoredClustering {
        StoredClustering {
            pivots: vec![0, 3],
            assignments: vec![0, 0, 1, 1, 0],
            radii: vec![0.25, 0.5],
        }
    }

    #[test]
    fn clustering_roundtrip_is_bit_identical() {
        let clustering = clustering_fixture();
        let payload = encode_clustering(&clustering);
        let back = decode_clustering(&path(), "clustering", &payload).unwrap();
        assert_eq!(back.pivots, clustering.pivots);
        assert_eq!(back.assignments, clustering.assignments);
        for (a, b) in clustering.radii.iter().zip(&back.radii) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn clustering_with_out_of_range_assignment_is_rejected() {
        let mut clustering = clustering_fixture();
        clustering.assignments = vec![0, 0, 1, 1, 7];
        let payload = encode_clustering(&clustering);
        let err = decode_clustering(&path(), "clustering", &payload).unwrap_err();
        assert!(matches!(err, DurableError::Invalid { .. }), "{err}");
    }

    #[test]
    fn clustering_with_foreign_pivot_is_rejected() {
        // Pivot 3 sits in cluster 1; claiming it as cluster 0's pivot
        // breaks the pivot-owns-its-cluster invariant.
        let mut clustering = clustering_fixture();
        clustering.pivots = vec![3, 3];
        let payload = encode_clustering(&clustering);
        let err = decode_clustering(&path(), "clustering", &payload).unwrap_err();
        assert!(matches!(err, DurableError::Invalid { .. }), "{err}");
    }

    #[test]
    fn clustering_with_non_finite_radius_is_rejected() {
        let mut clustering = clustering_fixture();
        clustering.radii = vec![0.25, f64::NAN];
        let payload = encode_clustering(&clustering);
        let err = decode_clustering(&path(), "clustering", &payload).unwrap_err();
        assert!(matches!(err, DurableError::Invalid { .. }), "{err}");
    }

    #[test]
    fn empty_clustering_roundtrips() {
        let clustering = StoredClustering {
            pivots: vec![],
            assignments: vec![],
            radii: vec![],
        };
        let payload = encode_clustering(&clustering);
        let back = decode_clustering(&path(), "clustering", &payload).unwrap();
        assert!(back.pivots.is_empty());
        assert!(back.assignments.is_empty());
    }

    #[test]
    fn clustering_with_more_clusters_than_objects_is_rejected() {
        let clustering = StoredClustering {
            pivots: vec![0, 0, 0],
            assignments: vec![0],
            radii: vec![0.0, 0.0, 0.0],
        };
        let payload = encode_clustering(&clustering);
        assert!(matches!(
            decode_clustering(&path(), "clustering", &payload),
            Err(DurableError::Invalid { .. })
        ));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let c = CostMatrix::new(1, 1, vec![0.0]).unwrap();
        let mut payload = encode_cost_matrix(&c);
        payload.push(0);
        assert!(matches!(
            decode_cost_matrix(&path(), "cost", &payload),
            Err(DurableError::Invalid { .. })
        ));
    }

    #[test]
    fn id_map_roundtrip() {
        let ids = vec![0u64, 3, 7, u64::MAX];
        let payload = encode_id_map(&ids);
        let decoded = decode_id_map(&path(), "external-ids", &payload).unwrap();
        assert_eq!(decoded, ids);
        assert_eq!(
            decode_id_map(&path(), "external-ids", &encode_id_map(&[])).unwrap(),
            Vec::<u64>::new()
        );
    }

    #[test]
    fn id_map_rejects_duplicates_and_trailing_bytes() {
        for unsorted in [[1, 2, 1], [1, 2, 2], [2, 1, 3]] {
            let payload = encode_id_map(&unsorted);
            assert!(matches!(
                decode_id_map(&path(), "external-ids", &payload),
                Err(DurableError::Invalid { .. })
            ));
        }
        let mut payload = encode_id_map(&[1, 2]);
        payload.push(0);
        assert!(matches!(
            decode_id_map(&path(), "external-ids", &payload),
            Err(DurableError::Invalid { .. })
        ));
        assert!(matches!(
            decode_id_map(&path(), "external-ids", &payload[..9]),
            Err(DurableError::Invalid { .. })
        ));
    }

    #[test]
    fn implausible_counts_are_invalid_not_an_allocation() {
        // 2^40 declared items over a handful of bytes: reserving for the
        // declared count would ask the allocator for terabytes.
        let huge = (1u64 << 40).to_le_bytes();
        let mut ids = huge.to_vec();
        ids.extend_from_slice(&7u64.to_le_bytes());
        assert!(matches!(
            decode_id_map(&path(), "external-ids", &ids),
            Err(DurableError::Invalid { .. })
        ));
        for dim in [0u64, 4] {
            let mut arena = huge.to_vec();
            arena.extend_from_slice(&dim.to_le_bytes());
            arena.extend_from_slice(&[0u8; 32]);
            assert!(matches!(
                decode_histogram_arena(&path(), "histograms", &arena),
                Err(DurableError::Invalid { .. })
            ));
        }
    }
}
