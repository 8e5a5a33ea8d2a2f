//! Spanning-tree representation of a transportation-simplex basis.
//!
//! Nodes `0..m` are supply nodes, nodes `m..m+n` are demand nodes. A basis
//! of the transportation polytope is a spanning tree with exactly
//! `m + n - 1` edges, each edge being a basic tableau cell `(i, j)`.
//!
//! The tree is stored *rooted* at supply node 0 in flat arrays: every
//! other node knows its parent, the edge slot leading there, and its
//! children through first-child / sibling links. That is what makes a
//! pivot local:
//!
//! * deleting an edge cuts off exactly the subtree hanging below it, so
//!   the dual-repair cut is one subtree walk ([`BasisTree::mark_cut`]);
//! * the cycle an entering cell closes is two parent walks meeting at the
//!   lowest common ancestor ([`BasisTree::cycle_into`]);
//! * exchanging the leaving for the entering edge re-hangs only the *stem*
//!   — the nodes between the entering endpoint inside the cut and the
//!   cut's root ([`BasisTree::pivot`]).
//!
//! Edge slots are stable: the tree always holds exactly `m + n - 1` of
//! them and the entering cell takes over the leaving cell's slot, so slot
//! order (which breaks ties in the leaving-edge scans) depends only on
//! the pivot history.

use crate::error::TransportError;

/// Absent link: the root's parent, a leaf's first child, a list end.
const NONE: usize = usize::MAX;

/// The simplex basis as a rooted spanning tree in flat arrays.
#[derive(Debug, Clone, Default)]
pub(crate) struct BasisTree {
    m: usize,
    n: usize,
    /// Edge slots, struct-of-arrays: tableau row, column and flow.
    rows: Vec<usize>,
    cols: Vec<usize>,
    flows: Vec<f64>,
    /// Per node: parent node and the slot of the edge leading to it
    /// (`NONE` for the root).
    parent: Vec<usize>,
    parent_edge: Vec<usize>,
    /// Per node: doubly linked child list, so a node unlinks in O(1).
    first_child: Vec<usize>,
    next_sibling: Vec<usize>,
    prev_sibling: Vec<usize>,
    /// `mark[node] == stamp` flags the ancestors found by the current
    /// cycle search; bumping `stamp` clears all marks at once.
    mark: Vec<usize>,
    stamp: usize,
    /// Traversal stack, and the CSR incidence lists `reset` roots from.
    stack: Vec<usize>,
    offsets: Vec<usize>,
    incident: Vec<usize>,
}

impl BasisTree {
    #[cfg(test)]
    pub(crate) fn new(m: usize, n: usize, cells: &[(usize, usize, f64)]) -> Self {
        let mut tree = BasisTree::default();
        tree.reset(m, n, cells.iter().copied());
        tree
    }

    /// Rebuild the tree in place for a (possibly different) tableau
    /// shape, reusing every allocation of the previous basis. `cells`
    /// must be the `m + n - 1` cells of a spanning tree; slot ids follow
    /// their order.
    pub(crate) fn reset(
        &mut self,
        m: usize,
        n: usize,
        cells: impl Iterator<Item = (usize, usize, f64)>,
    ) {
        let nodes = m + n;
        self.m = m;
        self.n = n;
        self.rows.clear();
        self.cols.clear();
        self.flows.clear();
        for (row, col, flow) in cells {
            self.rows.push(row);
            self.cols.push(col);
            self.flows.push(flow);
        }
        debug_assert_eq!(self.rows.len(), nodes - 1, "basis must be a spanning tree");
        for links in [
            &mut self.parent,
            &mut self.parent_edge,
            &mut self.first_child,
            &mut self.next_sibling,
            &mut self.prev_sibling,
        ] {
            links.clear();
            links.resize(nodes, NONE);
        }
        self.mark.clear();
        self.mark.resize(nodes, 0);
        self.stamp = 0;

        // CSR incidence lists: count, prefix-sum to each node's end, then
        // fill backwards so every offset lands on its node's start.
        self.offsets.clear();
        self.offsets.resize(nodes + 1, 0);
        for (&row, &col) in self.rows.iter().zip(&self.cols) {
            self.offsets[row] += 1; // bounds: basis rows < m <= nodes
            self.offsets[m + col] += 1; // bounds: m + col < m + n = nodes
        }
        let mut running = 0;
        for offset in &mut self.offsets {
            running += *offset;
            *offset = running;
        }
        self.incident.clear();
        self.incident.resize(running, 0);
        for (id, (&row, &col)) in self.rows.iter().zip(&self.cols).enumerate() {
            for node in [row, m + col] {
                self.offsets[node] -= 1; // bounds: node < nodes, as counted above
                let at = self.offsets[node]; // bounds: node < nodes
                self.incident[at] = id; // bounds: at < running: each node fills only its own counted range
            }
        }

        // Root at supply node 0: hang every neighbour not yet in the tree
        // (the test also keeps a malformed cell list from looping).
        self.stack.clear();
        self.stack.push(0);
        while let Some(node) = self.stack.pop() {
            let (lo, hi) = (self.offsets[node], self.offsets[node + 1]); // bounds: node < nodes, offsets has nodes + 1 entries
            for at in lo..hi {
                let id = self.incident[at]; // bounds: at < hi <= incident.len()
                let other = self.far_end(id, node);
                // bounds: edge endpoints are node ids
                if other != 0 && self.parent[other] == NONE {
                    self.link(other, node, id);
                    self.stack.push(other);
                }
            }
        }
        debug_assert_eq!(self.validate(), Ok(()));
    }

    #[inline]
    pub(crate) fn demand_node(&self, col: usize) -> usize {
        self.m + col
    }

    /// Tableau cell `(row, col)` held by slot `id`.
    #[inline]
    pub(crate) fn cell(&self, id: usize) -> (usize, usize) {
        (self.rows[id], self.cols[id]) // bounds: slot ids < m + n - 1 = rows.len() = cols.len()
    }

    /// The basic cells in slot order.
    pub(crate) fn cells(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.rows.iter().copied().zip(self.cols.iter().copied())
    }

    /// Flow per slot.
    #[inline]
    pub(crate) fn flows(&self) -> &[f64] {
        &self.flows
    }

    #[inline]
    pub(crate) fn flows_mut(&mut self) -> &mut [f64] {
        &mut self.flows
    }

    /// The endpoint of edge `id` that is not `node`.
    #[inline]
    fn far_end(&self, id: usize, node: usize) -> usize {
        let (row, col) = self.cell(id);
        if node == row {
            self.m + col
        } else {
            row
        }
    }

    /// Hang `node` below `parent` through edge `edge`, at the head of the
    /// parent's child list.
    #[inline]
    fn link(&mut self, node: usize, parent: usize, edge: usize) {
        // bounds: node and parent are node ids < m + n, the length of every per-node array
        let head = std::mem::replace(&mut self.first_child[parent], node);
        self.parent[node] = parent; // bounds: node id
        self.parent_edge[node] = edge; // bounds: node id
        self.prev_sibling[node] = NONE; // bounds: node id
        self.next_sibling[node] = head; // bounds: node id
        if head != NONE {
            self.prev_sibling[head] = node; // bounds: list entries are node ids
        }
    }

    /// Take `node` out of its parent's child list.
    #[inline]
    fn unlink(&mut self, node: usize) {
        // bounds: node is a non-root node id, so its parent is a node id too
        let (prev, next) = (self.prev_sibling[node], self.next_sibling[node]);
        if prev == NONE {
            let parent = self.parent[node]; // bounds: node id
            self.first_child[parent] = next; // bounds: parent of a non-root node is a node id
        } else {
            self.next_sibling[prev] = next; // bounds: list entries are node ids
        }
        if next != NONE {
            self.prev_sibling[next] = prev; // bounds: list entries are node ids
        }
    }

    /// The node hanging below edge `id`: the endpoint whose parent-edge
    /// it is.
    #[inline]
    fn child_end(&self, id: usize) -> usize {
        let (row, col) = self.cell(id);
        // bounds: basis rows are node ids
        if self.parent_edge[row] == id {
            row
        } else {
            self.m + col
        }
    }

    /// Compute the dual variables `u` (supplies) and `v` (demands) defined
    /// by `u[i] + v[j] = cost(i, j)` on every basic cell, anchored at
    /// `u[0] = 0`. Every dual derives from its parent's, so the values do
    /// not depend on the traversal order.
    pub(crate) fn duals(
        &mut self,
        cost: impl Fn(usize, usize) -> f64,
        u: &mut Vec<f64>,
        v: &mut Vec<f64>,
    ) {
        u.clear();
        // float: nan — deliberate poison: any dual read before assignment must be visible
        u.resize(self.m, f64::NAN);
        v.clear();
        // float: nan — deliberate poison: any dual read before assignment must be visible
        v.resize(self.n, f64::NAN);
        u[0] = 0.0; // bounds: u was resized to m >= 1 just above
        self.stack.clear();
        self.stack.push(0);
        while let Some(node) = self.stack.pop() {
            let mut child = self.first_child[node]; // bounds: stack holds node ids
            while child != NONE {
                let (row, col) = self.cell(self.parent_edge[child]); // bounds: child lists hold node ids
                if child < self.m {
                    // bounds: (row, col) is a tableau cell: row < m = u.len(), col < n = v.len()
                    u[row] = cost(row, col) - v[col];
                } else {
                    // bounds: (row, col) is a tableau cell: row < m = u.len(), col < n = v.len()
                    v[col] = cost(row, col) - u[row];
                }
                self.stack.push(child);
                child = self.next_sibling[child]; // bounds: child lists hold node ids
            }
        }
        debug_assert!(
            u.iter().chain(v.iter()).all(|x| !x.is_nan()),
            "basis must span all nodes"
        );
    }

    /// Mark the component of edge `skip`'s demand endpoint in the forest
    /// obtained by deleting `skip`: `side[node]` is `true` exactly for the
    /// nodes on that side. The cut is the subtree below `skip`, so only it
    /// is walked; when the supply endpoint hangs below, the marks are the
    /// complement. Used by the dual-simplex repair to find the cut an
    /// entering edge must cross.
    pub(crate) fn mark_cut(&mut self, skip: usize, side: &mut Vec<bool>) {
        let root = self.child_end(skip);
        let below = root >= self.m;
        side.clear();
        side.resize(self.m + self.n, !below);
        self.stack.clear();
        self.stack.push(root);
        while let Some(node) = self.stack.pop() {
            side[node] = below; // bounds: stack holds node ids < m + n = side.len()
            let mut child = self.first_child[node]; // bounds: stack holds node ids
            while child != NONE {
                self.stack.push(child);
                child = self.next_sibling[child]; // bounds: child lists hold node ids
            }
        }
    }

    /// Write the edge ids of the unique tree path from `start` to `goal`,
    /// in path order, into `path`: `goal`'s ancestors are stamped, `start`
    /// walks up to the first stamped node (the lowest common ancestor),
    /// then `goal` walks up to it.
    pub(crate) fn cycle_into(&mut self, start: usize, goal: usize, path: &mut Vec<usize>) {
        self.stamp += 1;
        let mut node = goal;
        while node != NONE {
            self.mark[node] = self.stamp; // bounds: start/goal and their ancestors are node ids
            node = self.parent[node]; // bounds: node id, checked against NONE above
        }
        path.clear();
        let mut node = start;
        // bounds: node ids; the root is stamped, so the walk stops before leaving the tree
        while self.mark[node] != self.stamp {
            path.push(self.parent_edge[node]); // bounds: node id
            node = self.parent[node]; // bounds: node id
        }
        let meet = node;
        let turn = path.len();
        let mut node = goal;
        while node != meet {
            path.push(self.parent_edge[node]); // bounds: node id below `meet`, so not the root
            node = self.parent[node]; // bounds: node id
        }
        // bounds: turn = path.len() before the second walk
        path[turn..].reverse();
    }

    /// Exchange basic edges: slot `leaving` now holds cell `(row, col)`
    /// with flow `flow`, and the subtree the leaving edge cut off hangs
    /// from the entering edge instead. Exactly one entering endpoint lies
    /// inside the cut; the parent links between it and the cut's root (the
    /// stem) are reversed, every other node keeps its place.
    pub(crate) fn pivot(&mut self, leaving: usize, row: usize, col: usize, flow: f64) {
        let cut_root = self.child_end(leaving);
        let demand = self.demand_node(col);
        let mut node = row;
        // bounds: node ids up to the root
        while node != cut_root && self.parent[node] != NONE {
            node = self.parent[node]; // bounds: node id
        }
        let (inside, outside) = if node == cut_root {
            (row, demand)
        } else {
            (demand, row)
        };
        self.rows[leaving] = row; // bounds: slot ids < m + n - 1 = rows.len()
        self.cols[leaving] = col; // bounds: slot ids < m + n - 1 = cols.len()
        self.flows[leaving] = flow; // bounds: slot ids < m + n - 1 = flows.len()

        let (mut node, mut new_parent, mut new_edge) = (inside, outside, leaving);
        loop {
            // bounds: stem nodes are non-root node ids inside the cut
            let (old_parent, old_edge) = (self.parent[node], self.parent_edge[node]);
            self.unlink(node);
            self.link(node, new_parent, new_edge);
            if node == cut_root {
                break;
            }
            (new_parent, new_edge, node) = (node, old_edge, old_parent);
        }
        debug_assert_eq!(self.validate(), Ok(()));
    }

    /// Structural self-check, run under `debug_assert!` after `reset` and
    /// after every pivot: `m + n - 1` edges, each the parent-edge of
    /// exactly one node and joining that node to its parent; child lists
    /// mirror the parent links; every node hangs below the root.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Internal`] naming the first broken
    /// invariant.
    pub(crate) fn validate(&self) -> Result<(), TransportError> {
        let broken = |detail| Err(TransportError::Internal { detail });
        let nodes = self.m + self.n;
        let edges = self.rows.len();
        if edges + 1 != nodes || self.cols.len() != edges || self.flows.len() != edges {
            return broken("a spanning tree has m + n - 1 edges");
        }
        if self.parent.first() != Some(&NONE) || self.parent_edge.first() != Some(&NONE) {
            return broken("supply node 0 must be the root");
        }
        let mut owned = vec![false; edges];
        for node in 1..nodes {
            let (parent, edge) = (self.parent[node], self.parent_edge[node]); // bounds: node < nodes
            if parent >= nodes || edge >= edges {
                return broken("non-root node without a parent edge");
            }
            let (row, demand) = (self.rows[edge], self.m + self.cols[edge]); // bounds: edge < edges, checked above
            if (row, demand) != (node, parent) && (row, demand) != (parent, node) {
                return broken("parent edge does not join the node to its parent");
            }
            // bounds: edge < edges = owned.len()
            if std::mem::replace(&mut owned[edge], true) {
                return broken("edge is the parent edge of two nodes");
            }
        }
        // Every edge is now owned exactly once (m + n - 1 nodes, as many
        // edges). Walk the child lists: reaching all nodes from the root
        // through links that agree with `parent` proves both symmetry and
        // that every node reaches the root.
        let mut reached = 0;
        let mut stack = vec![0];
        while let Some(node) = stack.pop() {
            reached += 1;
            if reached > nodes {
                return broken("child lists contain a cycle");
            }
            let (mut child, mut prev) = (self.first_child[node], NONE); // bounds: stack holds node ids
            while child != NONE {
                // bounds: checked `child < nodes` first
                if child >= nodes || self.parent[child] != node || self.prev_sibling[child] != prev
                {
                    return broken("child list disagrees with parent links");
                }
                stack.push(child);
                (prev, child) = (child, self.next_sibling[child]); // bounds: child < nodes
            }
        }
        if reached != nodes {
            return broken("a node does not hang below the root");
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Basis for a 2x2 tableau:  edges (0,0), (0,1), (1,1).
    fn small_tree() -> BasisTree {
        BasisTree::new(2, 2, &[(0, 0, 0.25), (0, 1, 0.25), (1, 1, 0.5)])
    }

    /// A 3x3 staircase basis: a path 0 - d0 - 1 - d1 - 2 - d2.
    fn staircase() -> BasisTree {
        BasisTree::new(
            3,
            3,
            &[
                (0, 0, 0.1),
                (1, 0, 0.2),
                (1, 1, 0.3),
                (2, 1, 0.15),
                (2, 2, 0.25),
            ],
        )
    }

    #[test]
    fn duals_satisfy_basic_cells() {
        let mut tree = small_tree();
        let cost = |i: usize, j: usize| (i * 2 + j) as f64 + 1.0;
        let (mut u, mut v) = (Vec::new(), Vec::new());
        tree.duals(cost, &mut u, &mut v);
        for (row, col) in tree.cells() {
            assert!((u[row] + v[col] - cost(row, col)).abs() < 1e-12);
        }
        assert_eq!(u[0], 0.0);
    }

    #[test]
    fn cycle_connects_endpoints_in_path_order() {
        let mut tree = small_tree();
        let mut path = Vec::new();
        // Path from supply 1 (node 1) to demand 0 (node 2):
        // (1,1) -> (0,1) -> (0,0)
        tree.cycle_into(1, 2, &mut path);
        let cells: Vec<_> = path.iter().map(|&id| tree.cell(id)).collect();
        assert_eq!(cells, vec![(1, 1), (0, 1), (0, 0)]);
        // And back: the same edges reversed.
        tree.cycle_into(2, 1, &mut path);
        let cells: Vec<_> = path.iter().map(|&id| tree.cell(id)).collect();
        assert_eq!(cells, vec![(0, 0), (0, 1), (1, 1)]);
    }

    #[test]
    fn reset_reuses_storage_across_shapes() {
        let mut tree = small_tree();
        tree.reset(
            2,
            3,
            [(0, 0, 0.2), (0, 1, 0.3), (1, 1, 0.0), (1, 2, 0.5)].into_iter(),
        );
        assert_eq!(tree.flows().len(), 4);
        assert_eq!(tree.demand_node(2), 4);
        // Shrinking works too, and ids restart from zero.
        tree.reset(2, 2, [(0, 0, 0.5), (1, 0, 0.25), (1, 1, 0.25)].into_iter());
        assert_eq!(tree.flows().len(), 3);
        assert_eq!(tree.cell(0), (0, 0));
        assert_eq!(tree.cell(2), (1, 1));
    }

    #[test]
    fn mark_cut_flags_the_demand_side() {
        let mut tree = staircase();
        let mut side = Vec::new();
        // Deleting (1,1) leaves {0, d0, 1} and {d1, 2, d2}; the demand
        // endpoint d1 (node 4) hangs below.
        tree.mark_cut(2, &mut side);
        assert_eq!(side, vec![false, false, true, false, true, true]);
        // Deleting (1,0): the supply endpoint 1 hangs below, so the demand
        // side is the complement {0, d0}.
        tree.mark_cut(1, &mut side);
        assert_eq!(side, vec![true, false, false, true, false, false]);
    }

    #[test]
    fn pivot_keeps_the_slot_and_rehangs_the_stem() {
        let mut tree = staircase();
        // (0,2) enters, (1,1) in slot 2 leaves: the cut {d1, 2, d2} is
        // re-rooted at d2 and hung below supply 0.
        tree.pivot(2, 0, 2, 0.05);
        assert_eq!(tree.cell(2), (0, 2));
        assert_eq!(tree.flows()[2], 0.05);
        assert_eq!(tree.validate(), Ok(()));
        let mut path = Vec::new();
        // d1 (node 4) now reaches supply 1 around the new edge.
        tree.cycle_into(4, 1, &mut path);
        let cells: Vec<_> = path.iter().map(|&id| tree.cell(id)).collect();
        assert_eq!(cells, vec![(2, 1), (2, 2), (0, 2), (0, 0), (1, 0)]);
        let cost = |i: usize, j: usize| ((i * 5 + j * 3) % 7) as f64;
        let (mut u, mut v) = (Vec::new(), Vec::new());
        tree.duals(cost, &mut u, &mut v);
        for (row, col) in tree.cells() {
            assert!((u[row] + v[col] - cost(row, col)).abs() < 1e-12);
        }
    }

    #[test]
    fn validate_rejects_a_broken_tree() {
        let mut tree = staircase();
        tree.parent[3] = 2;
        assert!(tree.validate().is_err());
        let mut tree = staircase();
        tree.next_sibling[3] = 3;
        assert!(tree.validate().is_err());
        let mut tree = staircase();
        tree.rows.pop();
        assert!(tree.validate().is_err());
    }
}
