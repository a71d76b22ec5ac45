//! Communication trees and their SMP-aware embedding (paper §2.1).
//!
//! SRM embeds the collective tree into the cluster so that as much of
//! it as possible lies *inside* SMP nodes: one subtree per node, and an
//! inter-node tree connecting only the node **masters**. When every
//! node hosts `p` of the `P = n·p` tasks, the embedding adds no height:
//! `⌈log₂ P⌉ ≥ ⌈log₂ n⌉ + ⌈log₂ p⌉` fails in general, but the paper's
//! observation is about the *total number of dependent steps*, which is
//! `⌈log₂ n⌉ + ⌈log₂ p⌉` for the embedded tree — equal to `⌈log₂ P⌉`
//! when `n` and `p` are powers of two, and never more than one step
//! above it otherwise (see the `height_optimality` tests).
//!
//! Three inter-node tree shapes are supported because the authors
//! "implemented and experimented with the three tree types and found
//! binomial trees perform the best": binomial (distance power-of-two),
//! binary, and Fibonacci (postal-model trees for send latency 2).

/// Shape of the inter-node (and intra-node reduce) tree.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TreeKind {
    /// Distance-power-of-two binomial tree — SRM's default and the
    /// paper's experimental winner.
    Binomial,
    /// Complete binary tree (children `2i+1`, `2i+2`).
    Binary,
    /// Postal-model tree with forwarding delay 2 rounds: subtree sizes
    /// grow as Fibonacci numbers.
    Fibonacci,
}

/// Parent of vertex `v` (relative numbering, root 0) in a tree of
/// `size` vertices.
pub fn parent(kind: TreeKind, v: usize, size: usize) -> Option<usize> {
    assert!(v < size);
    if v == 0 {
        return None;
    }
    match kind {
        TreeKind::Binomial => {
            let mut mask = 1usize;
            while mask < size {
                if v & mask != 0 {
                    return Some(v - mask);
                }
                mask <<= 1;
            }
            unreachable!("v has a set bit below size")
        }
        TreeKind::Binary => Some((v - 1) / 2),
        TreeKind::Fibonacci => Some(rounds_tree_parents(size, 2)[v]),
    }
}

/// Children of vertex `v`, in the order a broadcast should send to them
/// (subtrees that take longest first).
pub fn children(kind: TreeKind, v: usize, size: usize) -> Vec<usize> {
    assert!(v < size);
    match kind {
        TreeKind::Binomial => {
            let stop = match parent(kind, v, size) {
                Some(p) => v - p, // mask at which the parent link was found
                None => {
                    let mut m = 1usize;
                    while m < size {
                        m <<= 1;
                    }
                    m
                }
            };
            let mut out = Vec::new();
            let mut mask = stop >> 1;
            while mask > 0 {
                if v + mask < size {
                    out.push(v + mask);
                }
                mask >>= 1;
            }
            out
        }
        TreeKind::Binary => [2 * v + 1, 2 * v + 2]
            .into_iter()
            .filter(|&c| c < size)
            .collect(),
        TreeKind::Fibonacci => {
            let parents = rounds_tree_parents(size, 2);
            (0..size).filter(|&c| c != 0 && parents[c] == v).collect()
        }
    }
}

/// Children in increasing-completion order — the order a reduce should
/// receive them.
pub fn children_ascending(kind: TreeKind, v: usize, size: usize) -> Vec<usize> {
    let mut c = children(kind, v, size);
    c.reverse();
    c
}

/// Hops from vertex `v` up to the root.
pub fn depth(kind: TreeKind, v: usize, size: usize) -> usize {
    std::iter::successors(Some(v), |&u| parent(kind, u, size)).count() - 1
}

/// Height (number of dependent hops root→deepest leaf) of the tree.
pub fn height(kind: TreeKind, size: usize) -> usize {
    (0..size).map(|v| depth(kind, v, size)).max().unwrap_or(0)
}

/// Parent table of the round-based postal tree: in every round each
/// already-informed vertex starts informing the next unassigned vertex;
/// a vertex becomes a sender `delay` rounds after it was reached.
/// `delay = 1` reproduces the binomial tree; `delay = 2` gives the
/// Fibonacci tree.
fn rounds_tree_parents(size: usize, delay: usize) -> Vec<usize> {
    assert!(size >= 1 && delay >= 1);
    let mut parent = vec![0usize; size];
    let mut ready_at = vec![0usize; size]; // round from which vertex can send
    let mut assigned = 1usize;
    let mut round = 0usize;
    while assigned < size {
        for v in 0..assigned.min(size) {
            if ready_at[v] <= round && assigned < size {
                parent[assigned] = v;
                ready_at[assigned] = round + delay;
                assigned += 1;
            }
        }
        round += 1;
    }
    parent
}

/// One group node's place in the inter-node tree of a rooted
/// operation: the tree over a communicator's **group-node indices**
/// (`0..nodes`), rotated so the root's node is relative vertex 0. This
/// is the one description of the embedded tree: the planners walk it to
/// emit the master-to-master legs, and
/// [`CommGroup::inter_edges`](crate::CommGroup::inter_edges) lists its
/// edges. On the world communicator group-node indices are world node
/// ids.
#[derive(Clone, Debug)]
pub struct GroupTree {
    root: usize,
    parent: Option<usize>,
    down: Vec<usize>,
}

impl GroupTree {
    /// The view from group node `my_node` of the `kind` tree over
    /// `nodes` group nodes rooted at group node `root_node`.
    pub fn new(kind: TreeKind, nodes: usize, root_node: usize, my_node: usize) -> Self {
        assert!(root_node < nodes && my_node < nodes);
        let v = (my_node + nodes - root_node) % nodes;
        let node_of = |v: usize| (v + root_node) % nodes;
        GroupTree {
            root: root_node,
            parent: parent(kind, v, nodes).map(node_of),
            down: children(kind, v, nodes).into_iter().map(node_of).collect(),
        }
    }

    /// The group node the tree is rooted at.
    pub fn root(&self) -> usize {
        self.root
    }

    /// My parent group node (None on the root's node).
    pub fn parent(&self) -> Option<usize> {
        self.parent
    }

    /// My child group nodes in broadcast send order (subtrees that take
    /// longest first).
    pub fn down(&self) -> &[usize] {
        &self.down
    }

    /// My child group nodes in reduce receive order: the reverse.
    pub fn up(&self) -> impl Iterator<Item = usize> + '_ {
        self.down.iter().rev().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::CommGroup;
    use simnet::{Rank, Topology};
    use std::collections::HashSet;

    fn check_spanning(kind: TreeKind, size: usize) {
        let mut seen = HashSet::from([0usize]);
        for v in 0..size {
            for c in children(kind, v, size) {
                assert_eq!(parent(kind, c, size), Some(v), "{kind:?} size {size}");
                assert!(seen.insert(c), "{kind:?} size {size}: {c} reached twice");
            }
        }
        assert_eq!(seen.len(), size, "{kind:?} size {size}: not spanning");
    }

    #[test]
    fn all_kinds_span_all_sizes() {
        for kind in [TreeKind::Binomial, TreeKind::Binary, TreeKind::Fibonacci] {
            for size in 1..=40 {
                check_spanning(kind, size);
            }
        }
    }

    #[test]
    fn binomial_heights() {
        assert_eq!(height(TreeKind::Binomial, 8), 3);
        assert_eq!(height(TreeKind::Binomial, 16), 4);
        // Hop-height of a clipped binomial tree is the maximum popcount
        // below the size: for 9 vertices the deepest is 7 (0b111).
        assert_eq!(height(TreeKind::Binomial, 9), 3);
    }

    #[test]
    fn binary_heights() {
        assert_eq!(height(TreeKind::Binary, 7), 2);
        assert_eq!(height(TreeKind::Binary, 8), 3);
        assert_eq!(height(TreeKind::Binary, 15), 3);
    }

    #[test]
    fn fibonacci_tree_counts_grow_like_fibonacci() {
        // With delay 2, the number of informed vertices after round r
        // follows the Fibonacci sequence 2, 3, 5, 8, 13, ... — checked
        // here through the exact parent table of the 8-vertex tree:
        // rounds inform {1}, {2}, {3,4}, {5,6,7}.
        assert_eq!(rounds_tree_parents(8, 2), vec![0, 0, 0, 0, 1, 0, 1, 2]);
        // And the delay-1 table floods twice as fast (binomial growth):
        // rounds inform {1}, {2,3}, {4,5,6,7}.
        assert_eq!(rounds_tree_parents(8, 1), vec![0, 0, 0, 1, 0, 1, 2, 3]);
    }

    #[test]
    fn fibonacci_root_sends_over_more_rounds_than_binomial() {
        // The postal delay slows the flood, so covering the same vertex
        // count takes more rounds — and the root, which sends once per
        // round, ends up with more children.
        for size in [16usize, 64, 256] {
            assert!(
                children(TreeKind::Fibonacci, 0, size).len()
                    > children(TreeKind::Binomial, 0, size).len()
            );
        }
    }

    /// The communicator of `ranks` (comm rank order) on `topo`, binomial.
    fn group(topo: Topology, ranks: &[Rank]) -> CommGroup {
        CommGroup::new(topo, TreeKind::Binomial, 1, ranks.to_vec())
    }

    fn world(nodes: usize, tpn: usize) -> CommGroup {
        group(
            Topology::new(nodes, tpn),
            &(0..nodes * tpn).collect::<Vec<_>>(),
        )
    }

    #[test]
    fn embedding_figure1_shape() {
        // The paper's Figure 1: 128 procs on 8 x 16.
        let g = world(8, 16);
        // Inter-node binomial on 8 nodes from node 0.
        assert_eq!(g.tree(0, 0).down(), [4, 2, 1]);
        assert_eq!(g.tree(0, 3).parent(), Some(2));
        assert_eq!(g.tree(0, 0).parent(), None);
        // Intra-node subtree over each node's slots, rooted at the
        // master (slot 0).
        assert_eq!(parent(TreeKind::Binomial, 1, 16), Some(0));
        assert_eq!(parent(TreeKind::Binomial, 8, 16), Some(0));
        // Total steps: log2(16) + log2(8) = 4 + 3 = 7 = log2(128).
        assert_eq!(g.embedded_height(), 7);
    }

    #[test]
    fn height_optimality_power_of_two() {
        // n*p a power of two: embedding adds no steps.
        for (n, p) in [(8usize, 16usize), (16, 16), (4, 8), (2, 2)] {
            let flat = height(TreeKind::Binomial, n * p);
            assert_eq!(world(n, p).embedded_height(), flat, "{n}x{p}");
        }
    }

    #[test]
    fn height_optimality_fifteen_of_sixteen() {
        // The paper's 15-of-16 daemons case: the embedding is still
        // optimal — intra (15 slots, deepest 0b111 = 3 hops) plus inter
        // (8 nodes, 3 hops) equals the flat tree on 120 (deepest
        // 0b1110111 = 6 hops).
        let g = world(8, 15);
        assert_eq!(g.embedded_height(), 6);
        assert_eq!(g.embedded_height(), height(TreeKind::Binomial, 120));
    }

    #[test]
    fn arbitrary_root_rotates_node_tree() {
        let g = world(4, 4);
        let root_node = g.coord_of(9).0;
        assert_eq!(root_node, 2);
        assert_eq!(g.tree(root_node, 2).parent(), None);
        // Node children of root's node: vnodes 2,1 -> nodes (2+2)%4=0, 3.
        assert_eq!(g.tree(root_node, 2).down(), [0, 3]);
        // All nodes reachable.
        let mut seen = HashSet::from([2usize]);
        for node in 0..4 {
            for &c in g.tree(root_node, node).down() {
                assert!(seen.insert(c));
                assert_eq!(g.tree(root_node, c).parent(), Some(node));
            }
        }
        assert_eq!(seen.len(), 4);
    }

    #[test]
    fn smp_children_orders_are_reversed() {
        assert_eq!(children_ascending(TreeKind::Binomial, 0, 8), [1, 2, 4]);
        let t = GroupTree::new(TreeKind::Binomial, 8, 3, 3);
        assert_eq!(t.down(), [7, 5, 4]);
        assert_eq!(t.up().collect::<Vec<_>>(), [4, 5, 7]);
    }

    #[test]
    fn group_embedding_spans_arbitrary_subsets() {
        let topo = Topology::new(4, 4);
        for ranks in [
            vec![0usize, 1, 2, 3],          // one node
            vec![3, 7, 11, 15],             // one rank per node
            vec![1, 2, 5, 9, 10, 14],       // mixed
            vec![6],                        // singleton
            vec![0, 4, 8, 12, 1, 5, 9, 13], // two per node
        ] {
            let g = group(topo, &ranks);
            let root = ranks.len() / 2;
            // The network edges hang every node's master off the master
            // of the root's node (the root is one shared-memory hop
            // from it, as is every member from its own master).
            let edges = g.inter_edges(root);
            let mut reached = HashSet::from([g.master_of(g.coord_of(root).0)]);
            while let Some(&(_, c)) = edges
                .iter()
                .find(|&&(p, c)| reached.contains(&p) && !reached.contains(&c))
            {
                reached.insert(c);
            }
            let masters: HashSet<Rank> = (0..g.node_count()).map(|n| g.master_of(n)).collect();
            assert_eq!(reached, masters);
            assert_eq!(edges.len(), masters.len() - 1, "a tree: one parent each");
        }
    }

    #[test]
    fn group_embedding_cuts_network_edges() {
        // A group of 4 full nodes listed in round-robin-over-nodes
        // communicator order (a common application pattern: "one
        // process per node first"): the embedding uses node_count-1
        // network edges, while the same tree built over communicator
        // rank order crosses nodes on almost every edge.
        let topo = Topology::new(4, 8);
        let ranks: Vec<Rank> = (0..8)
            .flat_map(|slot| (0..4).map(move |node| topo.rank_of(node, slot)))
            .collect();
        let g = group(topo, &ranks);
        assert_eq!(g.inter_edges(0).len(), 3);
        let naive = (1..ranks.len())
            .filter(|&v| {
                let p = parent(TreeKind::Binomial, v, ranks.len()).expect("non-root");
                !topo.same_node(ranks[v], ranks[p])
            })
            .count();
        assert!(naive > 4 * 3, "naive {naive} vs aware 3");
    }

    #[test]
    fn group_masters_lead_their_nodes() {
        let topo = Topology::new(3, 4);
        let ranks = [2usize, 3, 5, 6, 9, 11];
        let g = group(topo, &ranks);
        assert_eq!(g.node_count(), 3);
        // A node's master is its lowest member whatever the root: the
        // rank that issues the puts (rooted at 5, node 1's is still 5
        // only because 5 < 6).
        assert_eq!(
            (0..3).map(|n| g.master_of(n)).collect::<Vec<_>>(),
            [2, 5, 9]
        );
        // Each inter edge connects masters of distinct nodes.
        for root in 0..ranks.len() {
            for (p, c) in g.inter_edges(root) {
                assert!(!topo.same_node(p, c));
                assert!([2, 5, 9].contains(&p) && [2, 5, 9].contains(&c));
            }
        }
    }

    #[test]
    fn group_embedding_height_never_exceeds_naive_plus_one_level() {
        let g = group(Topology::new(4, 4), &[0, 1, 4, 5, 8, 9, 12, 13]);
        // 4 nodes x 2 members: 1 + 2 = 3 hops; flat tree on 8: 3.
        assert_eq!(g.embedded_height(), 3);
    }

    #[test]
    #[should_panic(expected = "root out of communicator range")]
    fn group_requires_root_membership() {
        let _ = group(Topology::new(2, 2), &[0, 1]).inter_edges(3);
    }

    #[test]
    #[should_panic(expected = "empty communicator group")]
    fn empty_group_rejected() {
        let _ = group(Topology::new(2, 2), &[]);
    }
}
