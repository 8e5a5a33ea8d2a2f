//! Test oracle: successive shortest paths with node potentials, a
//! reference min-cost-flow solver for the transportation simplex.
//!
//! Structurally unrelated to the transportation simplex, so agreement
//! between the two on random instances is strong evidence of correctness.
//! The cross-checks that use it (`proptest_solvers`,
//! `proptest_degenerate`, `warm_chain`, `certificates`) are its only
//! callers; it is compiled into test builds alone.
//!
//! Runs Dijkstra on the residual network with reduced costs; every
//! augmentation saturates at least one supply or demand, so at most
//! `m + n` augmentations occur.
//!
//! Requires non-negative costs (always true for EMD ground distances).

use crate::certify::{certify_solution, CERT_EPS};
use crate::error::TransportError;
use crate::problem::{Solution, TransportProblem};
use crate::EPS;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A residual arc of the bipartite flow network.
#[derive(Debug, Clone, Copy)]
struct Arc {
    to: usize,
    /// Index of the reverse arc in `graph[to]`.
    rev: usize,
    capacity: f64,
    cost: f64,
}

/// Min-heap entry for Dijkstra.
#[derive(Debug, PartialEq)]
struct HeapEntry {
    dist: f64,
    node: usize,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for a min-heap; distances are finite by construction.
        other
            .dist
            .total_cmp(&self.dist)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Solve a transportation problem exactly by successive shortest paths.
///
/// Requires non-negative costs (checked by `debug_assert`; the EMD never
/// produces negative ones). Returns [`TransportError::IterationLimit`] if
/// the augmentation cap is ever hit; the `Result` keeps the signature
/// aligned with `simplex::solve` for cross-checking. Panics when its
/// own solution fails the certificate.
pub fn solve_ssp(problem: &TransportProblem) -> Result<Solution, TransportError> {
    let m = problem.num_sources();
    let n = problem.num_targets();
    debug_assert!(
        problem.costs().iter().all(|&c| c >= 0.0),
        "successive shortest paths requires non-negative costs"
    );

    // Nodes: 0 = super-source, 1..=m supplies, m+1..=m+n demands,
    // m+n+1 = super-sink.
    let source = 0;
    let sink = m + n + 1;
    let num_nodes = m + n + 2;
    let mut graph: Vec<Vec<Arc>> = vec![Vec::new(); num_nodes];

    let add_arc = |graph: &mut Vec<Vec<Arc>>, from: usize, to: usize, cap: f64, cost: f64| {
        let rev_from = graph[to].len();
        let rev_to = graph[from].len();
        graph[from].push(Arc {
            to,
            rev: rev_from,
            capacity: cap,
            cost,
        });
        graph[to].push(Arc {
            to: from,
            rev: rev_to,
            capacity: 0.0,
            cost: -cost,
        });
    };

    for (i, &s) in problem.supplies().iter().enumerate() {
        if s > 0.0 {
            add_arc(&mut graph, source, 1 + i, s, 0.0);
        }
    }
    for (j, &d) in problem.demands().iter().enumerate() {
        if d > 0.0 {
            add_arc(&mut graph, 1 + m + j, sink, d, 0.0);
        }
    }
    for i in 0..m {
        if problem.supplies()[i] <= 0.0 {
            continue;
        }
        for j in 0..n {
            if problem.demands()[j] <= 0.0 {
                continue;
            }
            add_arc(
                &mut graph,
                1 + i,
                1 + m + j,
                f64::INFINITY,
                problem.cost(i, j),
            );
        }
    }

    let total_mass: f64 = problem.supplies().iter().sum();
    let mut potentials = vec![0.0_f64; num_nodes];
    let mut shipped = 0.0;
    let mut objective = 0.0;

    let mut dist = vec![f64::INFINITY; num_nodes];
    let mut prev: Vec<(usize, usize)> = vec![(usize::MAX, usize::MAX); num_nodes];

    // The bottleneck of an augmenting path may be a reverse (rerouting) arc,
    // so the number of augmentations is not bounded by m + n; use a generous
    // cap and report failure if it is ever hit.
    let max_augmentations = 64 * (m + n) * (m + n) + 4096;
    let mut augmentations = 0usize;
    while shipped < total_mass - EPS {
        augmentations += 1;
        if augmentations > max_augmentations {
            return Err(TransportError::IterationLimit {
                iterations: max_augmentations,
            });
        }
        // Dijkstra with reduced costs.
        dist.iter_mut().for_each(|d| *d = f64::INFINITY);
        prev.iter_mut().for_each(|p| *p = (usize::MAX, usize::MAX));
        dist[source] = 0.0;
        let mut heap = BinaryHeap::new();
        heap.push(HeapEntry {
            dist: 0.0,
            node: source,
        });
        while let Some(HeapEntry { dist: d, node }) = heap.pop() {
            if d > dist[node] {
                continue;
            }
            for (arc_index, arc) in graph[node].iter().enumerate() {
                if arc.capacity <= EPS {
                    continue;
                }
                let reduced = arc.cost + potentials[node] - potentials[arc.to];
                let candidate = d + reduced.max(0.0);
                if candidate < dist[arc.to] - 1e-15 {
                    dist[arc.to] = candidate;
                    prev[arc.to] = (node, arc_index);
                    heap.push(HeapEntry {
                        dist: candidate,
                        node: arc.to,
                    });
                }
            }
        }
        if !dist[sink].is_finite() {
            break; // All remaining mass is zero within tolerance.
        }
        for node in 0..num_nodes {
            if dist[node].is_finite() {
                potentials[node] += dist[node];
            }
        }
        // Bottleneck along the path.
        let mut bottleneck = total_mass - shipped;
        let mut node = sink;
        while node != source {
            let (p, arc_index) = prev[node];
            bottleneck = bottleneck.min(graph[p][arc_index].capacity);
            node = p;
        }
        if bottleneck <= EPS {
            break;
        }
        // Apply augmentation.
        let mut node = sink;
        while node != source {
            let (p, arc_index) = prev[node];
            let rev = graph[p][arc_index].rev;
            graph[p][arc_index].capacity -= bottleneck;
            graph[node][rev].capacity += bottleneck;
            objective += bottleneck * graph[p][arc_index].cost;
            node = p;
        }
        shipped += bottleneck;
    }

    // Extract flows from the reverse arcs of supply->demand edges.
    let mut flows = Vec::new();
    for i in 0..m {
        let from = 1 + i;
        for arc in &graph[from] {
            if arc.to > m && arc.to <= m + n && arc.cost >= 0.0 {
                let j = arc.to - 1 - m;
                let flow = graph[arc.to][arc.rev].capacity;
                if flow > EPS {
                    flows.push((i, j, flow));
                }
            }
        }
    }
    let solution = Solution { objective, flows };
    if let Err(violation) = certify_solution(problem, &solution, CERT_EPS) {
        panic!("ssp emitted an infeasible solution: {violation}");
    }
    Ok(solution)
}
