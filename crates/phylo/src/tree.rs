//! Unrooted binary phylogenetic trees, with NNI and SPR edit operations.
//!
//! # Representation
//!
//! An unrooted binary tree over `n ≥ 2` taxa is stored *rooted at taxon 0*:
//! the root node is the leaf for taxon 0 with exactly one child, and every
//! internal node has exactly two children. This keeps one uniform invariant
//! (binary internal nodes everywhere) so the topology editors need no special
//! cases for a trifurcating "virtual root". Likelihood under time-reversible
//! models is invariant to the rooting, so nothing is lost.
//!
//! Node bookkeeping uses an index arena; NNI and SPR conserve the node count,
//! so indices stay stable across moves (only parent/child links change).

use serde::{Deserialize, Serialize};
use simkit::SimRng;
use std::collections::HashSet;

/// One node in the arena.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Node {
    /// Parent index (`None` only for the root leaf).
    pub parent: Option<usize>,
    /// Child indices: empty for leaves, two for internal nodes, one for root.
    pub children: Vec<usize>,
    /// Length of the edge to the parent (unused on the root).
    pub branch_length: f64,
    /// Taxon index for leaves, `None` for internal nodes.
    pub taxon: Option<usize>,
}

/// An unrooted binary tree over `num_taxa` leaves, rooted at taxon 0.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tree {
    nodes: Vec<Node>,
    root: usize,
    num_taxa: usize,
}

/// A normalized bipartition of the taxon set: the bitset of the side *not*
/// containing taxon 0 (one `u64` word per 64 taxa).
pub type Split = Vec<u64>;

impl Tree {
    // -- construction -------------------------------------------------------

    /// The unique (unrooted) topology for two or three taxa, or a caterpillar
    /// ("comb") for larger `n` — deterministic, useful in tests.
    ///
    /// # Panics
    /// Panics if `num_taxa < 2`.
    pub fn caterpillar(num_taxa: usize, branch_length: f64) -> Tree {
        assert!(num_taxa >= 2, "need at least 2 taxa");
        let mut t = Tree::two_taxon(branch_length);
        for taxon in 2..num_taxa {
            // Always attach on the edge above the most recently added leaf.
            let leaf = t.leaf_node(taxon - 1);
            t.attach_leaf(taxon, leaf, branch_length);
        }
        t.check_invariants();
        t
    }

    /// Uniformly random topology by random sequential addition.
    ///
    /// # Panics
    /// Panics if `num_taxa < 2`.
    pub fn random_topology(num_taxa: usize, rng: &mut SimRng) -> Tree {
        assert!(num_taxa >= 2, "need at least 2 taxa");
        let mut t = Tree::two_taxon(0.1);
        for taxon in 2..num_taxa {
            let edges = t.edge_nodes();
            let at = *rng.choose(&edges);
            let bl = rng.range_f64(0.01, 0.3);
            t.attach_leaf(taxon, at, bl);
        }
        t.check_invariants();
        t
    }

    /// Build a tree from an undirected edge list over vertex ids, where ids
    /// `0..num_taxa` are the leaves (taxon = id) and larger ids are internal
    /// vertices of degree 3. The tree is rooted at taxon 0. Vertex ids must
    /// be dense (`0..total_vertices`).
    ///
    /// # Panics
    /// Panics if the edge list does not describe a connected unrooted binary
    /// tree over the taxa (wrong degrees, cycles, disconnected parts).
    pub fn from_edges(num_taxa: usize, edges: &[(usize, usize, f64)]) -> Tree {
        assert!(num_taxa >= 2, "need at least 2 taxa");
        let num_vertices = edges
            .iter()
            .flat_map(|&(a, b, _)| [a, b])
            .max()
            .map_or(0, |m| m + 1);
        let mut adj: Vec<Vec<(usize, f64)>> = vec![Vec::new(); num_vertices];
        for &(a, b, w) in edges {
            assert!(w.is_finite() && w >= 0.0, "invalid edge weight {w}");
            adj[a].push((b, w));
            adj[b].push((a, w));
        }
        for (v, neigh) in adj.iter().enumerate() {
            let expected = if v < num_taxa { 1 } else { 3 };
            assert_eq!(
                neigh.len(),
                expected,
                "vertex {v} has degree {}, expected {expected}",
                neigh.len()
            );
        }
        let mut nodes: Vec<Node> = (0..num_vertices)
            .map(|v| Node {
                parent: None,
                children: Vec::new(),
                branch_length: 0.0,
                taxon: (v < num_taxa).then_some(v),
            })
            .collect();
        // Root at taxon 0 and orient edges by BFS.
        let mut visited = vec![false; num_vertices];
        visited[0] = true;
        let mut queue = std::collections::VecDeque::from([0usize]);
        while let Some(v) = queue.pop_front() {
            for &(w, bl) in &adj[v] {
                if !visited[w] {
                    visited[w] = true;
                    nodes[w].parent = Some(v);
                    nodes[w].branch_length = bl;
                    nodes[v].children.push(w);
                    queue.push_back(w);
                }
            }
        }
        assert!(visited.iter().all(|&v| v), "edge list is disconnected");
        let t = Tree {
            nodes,
            root: 0,
            num_taxa,
        };
        t.check_invariants();
        t
    }

    /// Two leaves joined by one edge (taxon 0 is the root).
    fn two_taxon(branch_length: f64) -> Tree {
        let nodes = vec![
            Node {
                parent: None,
                children: vec![1],
                branch_length: 0.0,
                taxon: Some(0),
            },
            Node {
                parent: Some(0),
                children: vec![],
                branch_length,
                taxon: Some(1),
            },
        ];
        Tree {
            nodes,
            root: 0,
            num_taxa: 2,
        }
    }

    /// Attach a new leaf for `taxon` in the middle of the edge above node
    /// `below`, giving the new leaf branch length `leaf_bl`.
    fn attach_leaf(&mut self, taxon: usize, below: usize, leaf_bl: f64) {
        let parent = self.nodes[below]
            .parent
            .expect("cannot attach above the root");
        let old_bl = self.nodes[below].branch_length;
        // New internal node splices into the edge.
        let mid = self.nodes.len();
        self.nodes.push(Node {
            parent: Some(parent),
            children: vec![below],
            branch_length: old_bl / 2.0,
            taxon: None,
        });
        let leaf = self.nodes.len();
        self.nodes.push(Node {
            parent: Some(mid),
            children: vec![],
            branch_length: leaf_bl,
            taxon: Some(taxon),
        });
        self.nodes[mid].children.push(leaf);
        let slot = self.nodes[parent]
            .children
            .iter()
            .position(|&c| c == below)
            .expect("parent/child link broken");
        self.nodes[parent].children[slot] = mid;
        self.nodes[below].parent = Some(mid);
        self.nodes[below].branch_length = old_bl / 2.0;
        self.num_taxa = self.num_taxa.max(taxon + 1);
    }

    // -- accessors ----------------------------------------------------------

    /// Number of taxa (leaves).
    pub fn num_taxa(&self) -> usize {
        self.num_taxa
    }

    /// Total number of nodes in the arena.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The root node index (the leaf for taxon 0).
    pub fn root(&self) -> usize {
        self.root
    }

    /// Immutable node access.
    pub fn node(&self, i: usize) -> &Node {
        &self.nodes[i]
    }

    /// The node index of the leaf for `taxon`.
    ///
    /// # Panics
    /// Panics if no such leaf exists.
    pub fn leaf_node(&self, taxon: usize) -> usize {
        self.nodes
            .iter()
            .position(|n| n.taxon == Some(taxon))
            .expect("taxon not in tree")
    }

    /// True iff node `i` is a leaf.
    pub fn is_leaf(&self, i: usize) -> bool {
        self.nodes[i].taxon.is_some()
    }

    /// Branch length of the edge above node `i`.
    pub fn branch_length(&self, i: usize) -> f64 {
        self.nodes[i].branch_length
    }

    /// Set the branch length of the edge above node `i`.
    ///
    /// # Panics
    /// Panics on non-finite or negative lengths, or if `i` is the root.
    pub fn set_branch_length(&mut self, i: usize, bl: f64) {
        assert!(i != self.root, "root has no branch");
        assert!(bl.is_finite() && bl >= 0.0, "invalid branch length {bl}");
        self.nodes[i].branch_length = bl;
    }

    /// Sum of all branch lengths.
    pub fn tree_length(&self) -> f64 {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != self.root)
            .map(|(_, n)| n.branch_length)
            .sum()
    }

    /// All non-root node indices — each defines the edge to its parent.
    pub fn edge_nodes(&self) -> Vec<usize> {
        (0..self.nodes.len()).filter(|&i| i != self.root).collect()
    }

    /// Internal-edge designators: internal nodes whose parent is also
    /// internal (the edge above each such node joins two internal nodes).
    /// NNI moves are defined exactly on these edges.
    pub fn internal_edge_nodes(&self) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&i| {
                i != self.root && !self.is_leaf(i) && self.nodes[i].parent != Some(self.root)
            })
            .collect()
    }

    /// Postorder traversal (children before parents), ending at the root.
    pub fn postorder(&self) -> Vec<usize> {
        let mut order = Vec::with_capacity(self.nodes.len());
        self.postorder_into(&mut order, &mut Vec::new());
        order
    }

    /// [`Tree::postorder`] into reused buffers: `order` is overwritten with
    /// the traversal; `stack` is scratch.
    pub(crate) fn postorder_into(&self, order: &mut Vec<usize>, stack: &mut Vec<(usize, bool)>) {
        order.clear();
        stack.clear();
        stack.push((self.root, false));
        while let Some((node, expanded)) = stack.pop() {
            if expanded {
                order.push(node);
            } else {
                stack.push((node, true));
                for &c in &self.nodes[node].children {
                    stack.push((c, false));
                }
            }
        }
    }

    /// Taxa in the subtree rooted at `node` (inclusive).
    pub fn subtree_taxa(&self, node: usize) -> Vec<usize> {
        let mut taxa = Vec::new();
        let mut stack = vec![node];
        while let Some(n) = stack.pop() {
            if let Some(t) = self.nodes[n].taxon {
                taxa.push(t);
            }
            stack.extend_from_slice(&self.nodes[n].children);
        }
        taxa.sort_unstable();
        taxa
    }

    fn subtree_contains(&self, root: usize, target: usize) -> bool {
        let mut stack = vec![root];
        while let Some(n) = stack.pop() {
            if n == target {
                return true;
            }
            stack.extend_from_slice(&self.nodes[n].children);
        }
        false
    }

    // -- topology editors ---------------------------------------------------

    /// Perform a nearest-neighbor interchange across the internal edge above
    /// node `v` (which must be internal and non-root), exchanging child
    /// `variant ∈ {0, 1}` of `v` with `v`'s sibling.
    ///
    /// # Panics
    /// Panics if `v` is the root or a leaf.
    pub fn nni(&mut self, v: usize, variant: usize) {
        assert!(
            v != self.root && !self.is_leaf(v),
            "NNI needs an internal non-root edge"
        );
        let u = self.nodes[v].parent.expect("non-root node has a parent");
        assert!(u != self.root, "edge above v must join two internal nodes");
        let a = self.nodes[v].children[variant % 2];
        // Sibling of v under u. `u` may be the root's single child, in which
        // case it still has two children because it is internal.
        let c = *self.nodes[u]
            .children
            .iter()
            .find(|&&x| x != v)
            .expect("internal node must have a sibling for NNI");
        self.swap_subtrees(a, c);
        self.check_invariants_debug();
    }

    /// Swap the positions of two disjoint subtrees (each keeps its branch
    /// length).
    fn swap_subtrees(&mut self, a: usize, c: usize) {
        debug_assert!(!self.subtree_contains(a, c) && !self.subtree_contains(c, a));
        let pa = self.nodes[a].parent.expect("subtree root must have parent");
        let pc = self.nodes[c].parent.expect("subtree root must have parent");
        let ia = self.nodes[pa]
            .children
            .iter()
            .position(|&x| x == a)
            .unwrap();
        let ic = self.nodes[pc]
            .children
            .iter()
            .position(|&x| x == c)
            .unwrap();
        self.nodes[pa].children[ia] = c;
        self.nodes[pc].children[ic] = a;
        self.nodes[a].parent = Some(pc);
        self.nodes[c].parent = Some(pa);
    }

    /// Subtree-prune-and-regraft: detach the subtree rooted at `prune` and
    /// reinsert it in the middle of the edge above `graft`.
    ///
    /// Returns `false` (leaving the tree untouched) when the move is
    /// degenerate: `graft` inside the pruned subtree, `graft` being the
    /// pruned node's sibling or parent (which would recreate the same
    /// topology), or `prune` hanging directly off the root.
    pub fn spr(&mut self, prune: usize, graft: usize) -> bool {
        if prune == self.root || graft == self.root {
            return false;
        }
        let p = self.nodes[prune].parent.expect("non-root has parent");
        if p == self.root {
            // The root leaf has a single child; pruning it would disconnect
            // taxon 0. Disallow.
            return false;
        }
        if self.subtree_contains(prune, graft) {
            return false;
        }
        let sibling = *self.nodes[p]
            .children
            .iter()
            .find(|&&x| x != prune)
            .unwrap();
        if graft == sibling || graft == p {
            return false; // no-op topology
        }
        let g = self.nodes[p].parent.expect("p is not root");

        // Detach: sibling takes p's place under g.
        let slot = self.nodes[g].children.iter().position(|&x| x == p).unwrap();
        self.nodes[g].children[slot] = sibling;
        self.nodes[sibling].parent = Some(g);
        self.nodes[sibling].branch_length += self.nodes[p].branch_length;

        // `graft` may have been `p`'s parent edge target (g==graft is fine).
        // Reuse node p as the new attachment point above `graft`.
        let gp = self.nodes[graft].parent.expect("graft is not root");
        let gslot = self.nodes[gp]
            .children
            .iter()
            .position(|&x| x == graft)
            .unwrap();
        let old_bl = self.nodes[graft].branch_length;
        self.nodes[gp].children[gslot] = p;
        self.nodes[p].parent = Some(gp);
        self.nodes[p].branch_length = old_bl / 2.0;
        self.nodes[p].children = vec![graft, prune];
        self.nodes[graft].parent = Some(p);
        self.nodes[graft].branch_length = old_bl / 2.0;
        self.nodes[prune].parent = Some(p);
        self.check_invariants_debug();
        true
    }

    // -- splits & distances -------------------------------------------------

    /// Non-trivial splits (bipartitions) induced by internal edges, each
    /// normalized to the side not containing taxon 0.
    pub fn splits(&self) -> HashSet<Split> {
        let words = self.num_taxa.div_ceil(64);
        let mut result = HashSet::new();
        // Bottom-up accumulation of leaf sets.
        let mut below: Vec<Split> = vec![vec![0u64; words]; self.nodes.len()];
        for i in self.postorder() {
            if let Some(t) = self.nodes[i].taxon {
                below[i][t / 64] |= 1u64 << (t % 64);
            } else {
                let children = self.nodes[i].children.clone();
                for c in children {
                    let (src, dst) = (below[c].clone(), &mut below[i]);
                    for (d, s) in dst.iter_mut().zip(src) {
                        *d |= s;
                    }
                }
            }
            if i != self.root && !self.is_leaf(i) {
                let side = &below[i];
                let count: u32 = side.iter().map(|w| w.count_ones()).sum();
                // Skip trivial splits (single leaf or all-but-one).
                if count >= 2 && (count as usize) <= self.num_taxa - 2 {
                    // Taxon 0 is never below a non-root node's subtree... it
                    // can't be: taxon 0 is the root. So sides are already
                    // normalized.
                    result.insert(side.clone());
                }
            }
        }
        result
    }

    /// Robinson–Foulds distance: size of the symmetric difference of the two
    /// trees' non-trivial split sets.
    ///
    /// # Panics
    /// Panics if the trees have different taxon counts.
    pub fn robinson_foulds(&self, other: &Tree) -> usize {
        assert_eq!(self.num_taxa, other.num_taxa, "taxon sets differ");
        let a = self.splits();
        let b = other.splits();
        a.symmetric_difference(&b).count()
    }

    /// True iff the two trees induce identical split sets (same unrooted
    /// topology).
    pub fn same_topology(&self, other: &Tree) -> bool {
        self.num_taxa == other.num_taxa && self.robinson_foulds(other) == 0
    }

    // -- invariants ----------------------------------------------------------

    /// Validate structural invariants; used by tests and after topology moves
    /// in debug builds.
    pub fn check_invariants(&self) {
        assert_eq!(self.nodes[self.root].taxon, Some(0), "root must be taxon 0");
        assert_eq!(
            self.nodes[self.root].children.len(),
            1,
            "root has one child"
        );
        assert!(self.nodes[self.root].parent.is_none());
        let mut seen_taxa = HashSet::new();
        let mut visited = 0usize;
        for i in self.postorder() {
            visited += 1;
            let n = &self.nodes[i];
            match n.taxon {
                Some(t) => {
                    assert!(
                        i == self.root || n.children.is_empty(),
                        "leaf with children"
                    );
                    assert!(seen_taxa.insert(t), "duplicate taxon {t}");
                }
                None => {
                    assert_eq!(n.children.len(), 2, "internal node {i} must be binary");
                }
            }
            for &c in &n.children {
                assert_eq!(self.nodes[c].parent, Some(i), "parent link broken at {c}");
            }
            if i != self.root {
                assert!(
                    n.branch_length.is_finite() && n.branch_length >= 0.0,
                    "bad branch length on {i}"
                );
            }
        }
        assert_eq!(
            visited,
            self.nodes.len(),
            "arena contains disconnected nodes"
        );
        assert_eq!(seen_taxa.len(), self.num_taxa, "missing taxa");
    }

    #[inline]
    fn check_invariants_debug(&self) {
        #[cfg(debug_assertions)]
        self.check_invariants();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caterpillar_structure() {
        let t = Tree::caterpillar(5, 0.1);
        assert_eq!(t.num_taxa(), 5);
        assert_eq!(t.num_nodes(), 2 * 5 - 2);
        t.check_invariants();
        // 5-taxon unrooted binary tree has 2 non-trivial splits.
        assert_eq!(t.splits().len(), 2);
    }

    #[test]
    fn random_topology_valid_for_many_sizes() {
        let mut rng = SimRng::new(11);
        for n in 2..40 {
            let t = Tree::random_topology(n, &mut rng);
            assert_eq!(t.num_taxa(), n);
            assert_eq!(t.num_nodes(), 2 * n - 2);
            t.check_invariants();
            if n >= 4 {
                assert_eq!(
                    t.splits().len(),
                    n - 3,
                    "unrooted binary: n-3 internal edges"
                );
            }
        }
    }

    #[test]
    fn postorder_children_first() {
        let mut rng = SimRng::new(2);
        let t = Tree::random_topology(12, &mut rng);
        let order = t.postorder();
        let pos: std::collections::HashMap<usize, usize> =
            order.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        for i in 0..t.num_nodes() {
            for &c in &t.node(i).children {
                assert!(pos[&c] < pos[&i], "child {c} must precede parent {i}");
            }
        }
        assert_eq!(*order.last().unwrap(), t.root());
    }

    #[test]
    fn rf_identical_is_zero() {
        let mut rng = SimRng::new(3);
        let t = Tree::random_topology(10, &mut rng);
        assert_eq!(t.robinson_foulds(&t.clone()), 0);
        assert!(t.same_topology(&t.clone()));
    }

    #[test]
    fn nni_changes_topology_by_two_splits() {
        let mut rng = SimRng::new(4);
        let t = Tree::random_topology(10, &mut rng);
        let mut u = t.clone();
        let internal = u.internal_edge_nodes();
        u.nni(internal[0], 0);
        u.check_invariants();
        // One NNI changes exactly one split: RF distance 2.
        assert_eq!(t.robinson_foulds(&u), 2);
    }

    #[test]
    fn nni_is_involution_on_same_variant() {
        let mut rng = SimRng::new(5);
        let t = Tree::random_topology(8, &mut rng);
        let mut u = t.clone();
        let v = u.internal_edge_nodes()[1];
        u.nni(v, 0);
        u.nni(v, 0);
        // Applying the same swap twice restores the topology (the same two
        // subtrees swap back).
        assert!(t.same_topology(&u));
    }

    #[test]
    fn spr_preserves_invariants_and_taxa() {
        let mut rng = SimRng::new(6);
        for trial in 0..200 {
            let mut t = Tree::random_topology(9, &mut rng);
            let before: Vec<usize> = t.subtree_taxa(t.root());
            let nodes = t.edge_nodes();
            let prune = *rng.choose(&nodes);
            let graft = *rng.choose(&nodes);
            let moved = t.spr(prune, graft);
            t.check_invariants();
            assert_eq!(t.subtree_taxa(t.root()), before, "trial {trial} lost taxa");
            let _ = moved;
        }
    }

    #[test]
    fn spr_rejects_degenerate_moves() {
        let mut t = Tree::caterpillar(6, 0.1);
        let root = t.root();
        assert!(!t.spr(root, 1));
        // Graft inside pruned subtree: pick an internal node and one of its
        // descendants.
        let v = t.internal_edge_nodes()[0];
        let child = t.node(v).children[0];
        assert!(!t.spr(v, child));
    }

    #[test]
    fn spr_can_change_topology() {
        let mut rng = SimRng::new(7);
        let t = Tree::random_topology(10, &mut rng);
        let mut changed = false;
        for _ in 0..50 {
            let mut u = t.clone();
            let nodes = u.edge_nodes();
            let prune = *rng.choose(&nodes);
            let graft = *rng.choose(&nodes);
            if u.spr(prune, graft) && !t.same_topology(&u) {
                changed = true;
                break;
            }
        }
        assert!(changed, "SPR never produced a different topology");
    }

    #[test]
    fn branch_length_ops() {
        let mut t = Tree::caterpillar(4, 0.1);
        let e = t.edge_nodes()[0];
        t.set_branch_length(e, 0.5);
        assert_eq!(t.branch_length(e), 0.5);
        assert!(t.tree_length() > 0.0);
    }

    #[test]
    #[should_panic(expected = "invalid branch length")]
    fn negative_branch_length_rejected() {
        let mut t = Tree::caterpillar(4, 0.1);
        let e = t.edge_nodes()[0];
        t.set_branch_length(e, -1.0);
    }

    #[test]
    fn splits_normalized_without_taxon_zero() {
        let mut rng = SimRng::new(8);
        let t = Tree::random_topology(12, &mut rng);
        for s in t.splits() {
            assert_eq!(s[0] & 1, 0, "taxon 0 must not appear in any split side");
        }
    }

    #[test]
    fn two_and_three_taxon_trees() {
        let t2 = Tree::caterpillar(2, 0.2);
        assert_eq!(t2.num_nodes(), 2);
        assert!(t2.splits().is_empty());
        let t3 = Tree::caterpillar(3, 0.2);
        assert_eq!(t3.num_nodes(), 4);
        assert!(t3.splits().is_empty());
        t3.check_invariants();
    }

    #[test]
    fn subtree_taxa_sorted_complete() {
        let t = Tree::caterpillar(6, 0.1);
        let all = t.subtree_taxa(t.root());
        assert_eq!(all, vec![0, 1, 2, 3, 4, 5]);
    }
}
