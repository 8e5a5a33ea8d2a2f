//! A vantage-point tree over the exact EMD.
//!
//! The paper notes that reducing database vectors to low dimensionality
//! enables "indexing in multidimensional structures". This module provides
//! the metric-space counterpart for comparison: a VP-tree that prunes with
//! the triangle inequality of the EMD itself (the EMD is a metric whenever
//! the ground distance is — see `CostMatrix::is_metric`).
//!
//! Trade-off versus the filter pipelines: the VP-tree pays `O(N log N)`
//! *exact* EMD computations once at build time and needs no reduction
//! tuning, but every pruning decision during search is again a full
//! EMD — so its queries beat a linear scan only when the triangle
//! inequality prunes aggressively. The ablation bench (A4) puts both
//! approaches side by side; the tree lives in this crate because that
//! ablation is its only caller.

use emd_core::{emd, CostMatrix, Histogram};
use emd_query::{Database, Neighbor, QueryError};
use std::collections::BinaryHeap;

/// One tree node: a vantage object, the median distance to its subtree,
/// and the inner (<= radius) / outer (> radius) children.
#[derive(Debug, Clone)]
struct Node {
    object: u32,
    radius: f64,
    inner: i32,
    outer: i32,
}

const NO_CHILD: i32 = -1;

/// A static VP-tree over a histogram database under the exact EMD.
#[derive(Debug, Clone)]
pub struct VpTree {
    database: Database,
    nodes: Vec<Node>,
    root: i32,
}

/// Search statistics: how many exact EMD computations the traversal
/// needed (the quantity to compare against a scan's `N`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VpSearchStats {
    /// Exact EMD evaluations during the search.
    pub distance_computations: usize,
}

impl VpTree {
    /// Build the tree. Costs `O(N log N)` exact EMD computations.
    ///
    /// Correct pruning requires the EMD to satisfy the triangle
    /// inequality, which holds when `cost` is a metric (symmetric, zero
    /// diagonal, triangle inequality) and all histograms share total
    /// mass 1 — both enforced elsewhere in this workspace; the metric
    /// property of `cost` is the caller's responsibility and can be
    /// checked with [`CostMatrix::is_metric`].
    ///
    /// # Errors
    ///
    /// Returns [`QueryError::EmptyDatabase`] for an empty snapshot, or the
    /// error of a failed vantage-point distance computation.
    pub fn build(database: &Database) -> Result<Self, QueryError> {
        if database.is_empty() {
            return Err(QueryError::EmptyDatabase);
        }
        let mut ids: Vec<u32> = (0..database.len() as u32).collect();
        let mut nodes = Vec::with_capacity(database.len());
        let root = build_recursive(database.histograms(), database.cost(), &mut ids, &mut nodes)?;
        Ok(VpTree {
            database: database.clone(),
            nodes,
            root,
        })
    }

    /// Exact k-NN by best-first traversal with triangle-inequality
    /// pruning. Returns ascending by distance (ties by id), plus stats.
    ///
    /// # Errors
    ///
    /// Returns [`QueryError`] on query shape mismatch or when a distance
    /// computation fails during traversal.
    pub fn knn(
        &self,
        query: &Histogram,
        k: usize,
    ) -> Result<(Vec<Neighbor>, VpSearchStats), QueryError> {
        if k == 0 {
            return Err(QueryError::ZeroK);
        }
        let mut stats = VpSearchStats::default();
        // Max-heap of the current k best (distance, id).
        let mut best: BinaryHeap<(OrdF64, u32)> = BinaryHeap::new();
        self.search(self.root, query, k, &mut best, &mut stats)?;
        let mut neighbors: Vec<Neighbor> = best
            .into_iter()
            .map(|(OrdF64(distance), id)| Neighbor {
                id: id as usize,
                distance,
            })
            .collect();
        neighbors.sort_by(|a, b| a.distance.total_cmp(&b.distance).then(a.id.cmp(&b.id)));
        Ok((neighbors, stats))
    }

    /// Exact range query with triangle-inequality pruning.
    ///
    /// # Errors
    ///
    /// Returns [`QueryError`] on query shape mismatch, a negative `epsilon`, or
    /// a failed distance computation during traversal.
    pub fn range(
        &self,
        query: &Histogram,
        epsilon: f64,
    ) -> Result<(Vec<Neighbor>, VpSearchStats), QueryError> {
        let mut stats = VpSearchStats::default();
        let mut hits = Vec::new();
        self.range_search(self.root, query, epsilon, &mut hits, &mut stats)?;
        hits.sort_by(|a, b| a.distance.total_cmp(&b.distance).then(a.id.cmp(&b.id)));
        Ok((hits, stats))
    }

    fn distance(
        &self,
        query: &Histogram,
        object: u32,
        stats: &mut VpSearchStats,
    ) -> Result<f64, QueryError> {
        stats.distance_computations += 1;
        let object = self
            .database
            .get(object as usize)
            .ok_or(QueryError::UnknownObject(object as usize))?;
        Ok(emd(query, object, self.database.cost())?)
    }

    fn search(
        &self,
        node_index: i32,
        query: &Histogram,
        k: usize,
        best: &mut BinaryHeap<(OrdF64, u32)>,
        stats: &mut VpSearchStats,
    ) -> Result<(), QueryError> {
        if node_index == NO_CHILD {
            return Ok(());
        }
        let node = &self.nodes[node_index as usize]; // bounds: child links index `nodes`; NO_CHILD returned above
        let d = self.distance(query, node.object, stats)?;
        if best.len() < k {
            best.push((OrdF64(d), node.object));
        } else if let Some(&(OrdF64(worst), _)) = best.peek() {
            if d < worst {
                best.pop();
                best.push((OrdF64(d), node.object));
            }
        }
        // Visit the side containing the query first; prune the other side
        // when the annulus |d - radius| already exceeds the current k-th
        // best distance (re-read after the near descent tightened it).
        let (near, far) = if d <= node.radius {
            (node.inner, node.outer)
        } else {
            (node.outer, node.inner)
        };
        self.search(near, query, k, best, stats)?;
        let threshold = if best.len() < k {
            f64::INFINITY
        } else {
            best.peek().map_or(f64::INFINITY, |&(OrdF64(w), _)| w)
        };
        if (d - node.radius).abs() <= threshold {
            self.search(far, query, k, best, stats)?;
        }
        Ok(())
    }

    fn range_search(
        &self,
        node_index: i32,
        query: &Histogram,
        epsilon: f64,
        hits: &mut Vec<Neighbor>,
        stats: &mut VpSearchStats,
    ) -> Result<(), QueryError> {
        if node_index == NO_CHILD {
            return Ok(());
        }
        let node = &self.nodes[node_index as usize]; // bounds: child links index `nodes`; NO_CHILD returned above
        let d = self.distance(query, node.object, stats)?;
        if d <= epsilon {
            hits.push(Neighbor {
                id: node.object as usize,
                distance: d,
            });
        }
        // Triangle inequality: the inner ball can contain results only if
        // d - radius <= epsilon; the outer shell only if radius - d <= eps.
        if d - node.radius <= epsilon {
            self.range_search(node.inner, query, epsilon, hits, stats)?;
        }
        if node.radius - d <= epsilon {
            self.range_search(node.outer, query, epsilon, hits, stats)?;
        }
        Ok(())
    }
}

/// Build subtree over `ids`, returning its node index (or NO_CHILD).
fn build_recursive(
    database: &[Histogram],
    cost: &CostMatrix,
    ids: &mut [u32],
    nodes: &mut Vec<Node>,
) -> Result<i32, QueryError> {
    let Some((&vantage, rest)) = ids.split_first() else {
        return Ok(NO_CHILD);
    };
    if rest.is_empty() {
        nodes.push(Node {
            object: vantage,
            radius: 0.0,
            inner: NO_CHILD,
            outer: NO_CHILD,
        });
        return Ok(nodes.len() as i32 - 1);
    }

    // Distance of every remaining object to the vantage point.
    let mut with_distance: Vec<(f64, u32)> = rest
        .iter()
        .map(|&id| {
            Ok((
                // bounds: ids are 0..database.len()
                emd(&database[vantage as usize], &database[id as usize], cost)?,
                id,
            ))
        })
        .collect::<Result<_, QueryError>>()?;
    with_distance.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let (inner_side, outer_side) = with_distance.split_at(with_distance.len() / 2);
    // Radius = largest inner distance, so `<= radius` matches the split;
    // a single remaining object sits alone on the outer side.
    let radius = match (inner_side.last(), outer_side.first()) {
        (Some(&(largest_inner, _)), _) => largest_inner,
        (None, Some(&(only, _))) => only / 2.0,
        (None, None) => 0.0,
    };

    let mut inner_ids: Vec<u32> = inner_side.iter().map(|&(_, id)| id).collect();
    let mut outer_ids: Vec<u32> = outer_side.iter().map(|&(_, id)| id).collect();

    let inner = build_recursive(database, cost, &mut inner_ids, nodes)?;
    let outer = build_recursive(database, cost, &mut outer_ids, nodes)?;
    nodes.push(Node {
        object: vantage,
        radius,
        inner,
        outer,
    });
    Ok(nodes.len() as i32 - 1)
}

/// Total-ordered f64 for the result heap (distances are never NaN).
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrdF64(f64);

impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emd_core::ground;
    use emd_query::scan::{brute_force_knn, brute_force_range};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;

    fn random_database(n: usize, dim: usize, seed: u64) -> Vec<Histogram> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let bins: Vec<f64> = (0..dim).map(|_| rng.gen_range(0.0..1.0)).collect();
                Histogram::normalized(bins).unwrap()
            })
            .collect()
    }

    #[test]
    fn knn_matches_brute_force() {
        let cost = Arc::new(ground::linear(8).unwrap());
        assert!(cost.is_metric(), "pruning requires a metric");
        let database = Database::new(random_database(40, 8, 1), cost).unwrap();
        let tree = VpTree::build(&database).unwrap();
        let queries = random_database(5, 8, 2);
        for query in &queries {
            for k in [1, 3, 7] {
                let expected =
                    brute_force_knn(query, database.histograms(), database.cost(), k).unwrap();
                let (got, stats) = tree.knn(query, k).unwrap();
                let e: Vec<i64> = expected
                    .iter()
                    .map(|n| (n.distance * 1e9).round() as i64)
                    .collect();
                let g: Vec<i64> = got
                    .iter()
                    .map(|n| (n.distance * 1e9).round() as i64)
                    .collect();
                assert_eq!(g, e, "k={k}");
                assert!(stats.distance_computations <= database.len());
            }
        }
    }

    #[test]
    fn range_matches_brute_force() {
        let cost = Arc::new(ground::linear(6).unwrap());
        let database = Database::new(random_database(30, 6, 3), cost).unwrap();
        let tree = VpTree::build(&database).unwrap();
        let queries = random_database(4, 6, 4);
        for query in &queries {
            for epsilon in [0.1, 0.5, 1.5] {
                let expected =
                    brute_force_range(query, database.histograms(), database.cost(), epsilon)
                        .unwrap();
                let (got, _) = tree.range(query, epsilon).unwrap();
                assert_eq!(
                    got.iter().map(|n| n.id).collect::<Vec<_>>(),
                    expected.iter().map(|n| n.id).collect::<Vec<_>>(),
                    "epsilon={epsilon}"
                );
            }
        }
    }

    #[test]
    fn pruning_beats_scan_on_clustered_data() {
        // Two tight clusters far apart: the tree should prune the far one.
        let mut database = Vec::new();
        let mut rng = StdRng::seed_from_u64(5);
        for center in [2usize, 17] {
            for _ in 0..15 {
                let mut bins = vec![0.001; 20];
                bins[center] += 0.9 + rng.gen_range(0.0..0.1);
                bins[center + 1] += 0.1;
                database.push(Histogram::normalized(bins).unwrap());
            }
        }
        let cost = Arc::new(ground::linear(20).unwrap());
        let database = Database::new(database, cost).unwrap();
        let tree = VpTree::build(&database).unwrap();
        let (_, stats) = tree.knn(database.get(0).unwrap(), 3).unwrap();
        assert!(
            stats.distance_computations < database.len(),
            "expected pruning, got {} of {}",
            stats.distance_computations,
            database.len()
        );
    }

    #[test]
    fn single_object_tree() {
        let cost = Arc::new(ground::linear(3).unwrap());
        let database = Database::new(vec![Histogram::unit(3, 1).unwrap()], cost).unwrap();
        let tree = VpTree::build(&database).unwrap();
        let query = Histogram::unit(3, 0).unwrap();
        let (neighbors, _) = tree.knn(&query, 5).unwrap();
        assert_eq!(neighbors.len(), 1);
        assert!((neighbors[0].distance - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_empty_and_zero_k() {
        let cost = Arc::new(ground::linear(3).unwrap());
        let empty = Database::new(Vec::new(), cost.clone()).unwrap();
        assert!(matches!(
            VpTree::build(&empty).unwrap_err(),
            QueryError::EmptyDatabase
        ));
        let database = Database::new(vec![Histogram::unit(3, 0).unwrap()], cost).unwrap();
        let tree = VpTree::build(&database).unwrap();
        assert!(matches!(
            tree.knn(&Histogram::unit(3, 0).unwrap(), 0).unwrap_err(),
            QueryError::ZeroK
        ));
    }

    #[test]
    fn duplicate_objects_are_all_retrievable() {
        let h = Histogram::new(vec![0.5, 0.5]).unwrap();
        let cost = Arc::new(ground::linear(2).unwrap());
        let database = Database::new(vec![h.clone(), h.clone(), h.clone()], cost).unwrap();
        let tree = VpTree::build(&database).unwrap();
        let (neighbors, _) = tree.knn(&h, 3).unwrap();
        assert_eq!(neighbors.len(), 3);
        assert!(neighbors.iter().all(|n| n.distance < 1e-12));
    }
}
