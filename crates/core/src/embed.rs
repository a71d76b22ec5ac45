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
//! Five tree shapes. Three because the authors "implemented and
//! experimented with the three tree types and found binomial trees
//! perform the best" — a latency result: binomial (distance
//! power-of-two), binary, and Fibonacci (postal-model trees for send
//! latency 2). Two because a multi-chunk pipeline is bound by its
//! busiest vertex, not its height ([`crate::SrmModel::trees`] picks
//! per call): the chain, and a binary tree hung under a root that
//! keeps one child.
//!
//! The calls between nodes that run no tree exchange in k-ary rounds
//! instead, which [`Rounds`] enumerates.

use simnet::SimTime;
use std::ops::Range;

/// Shape of the inter-node (and intra-node reduce) tree.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TreeKind {
    /// Distance-power-of-two binomial tree — the paper's experimental
    /// winner, and what every one-chunk call runs on by default.
    Binomial,
    /// Complete binary tree (children `2i+1`, `2i+2`).
    Binary,
    /// Postal-model tree with forwarding delay 2 rounds: subtree sizes
    /// grow as Fibonacci numbers.
    Fibonacci,
    /// Every vertex has one child: the deepest tree and the narrowest.
    Chain,
    /// A binary tree over vertices `1..size` hung under the root
    /// (children of `v ≥ 1` are `2v`, `2v+1`): the root handles one
    /// operand per chunk whatever the size.
    HungBinary,
}

impl TreeKind {
    /// Every kind, in declaration order.
    pub const ALL: [TreeKind; 5] = [
        TreeKind::Binomial,
        TreeKind::Binary,
        TreeKind::Fibonacci,
        TreeKind::Chain,
        TreeKind::HungBinary,
    ];
}

/// Parent of vertex `v` (relative numbering, root 0) in a tree of
/// `size` vertices. A parent's number is below its child's in every
/// kind.
pub fn parent(kind: TreeKind, v: usize, size: usize) -> Option<usize> {
    assert!(v < size);
    (v != 0).then(|| match kind {
        TreeKind::Binomial => v & (v - 1),
        TreeKind::Binary => (v - 1) / 2,
        TreeKind::Fibonacci => rounds_tree_parents(size, 2)[v],
        TreeKind::Chain => v - 1,
        TreeKind::HungBinary => v / 2,
    })
}

/// [`parent`] of every vertex (the root's entry is 0).
fn parents(kind: TreeKind, size: usize) -> Vec<usize> {
    if kind == TreeKind::Fibonacci {
        return rounds_tree_parents(size, 2);
    }
    let up = |v| parent(kind, v, size).unwrap_or(0);
    (0..size).map(up).collect()
}

/// Children of vertex `v`, in the order a broadcast should send to them
/// (subtrees that take longest first).
pub fn children(kind: TreeKind, v: usize, size: usize) -> Vec<usize> {
    assert!(v < size);
    let kids: Vec<usize> = match kind {
        TreeKind::Binomial => {
            // Below the bit that links `v` to its parent (every bit,
            // for the root), highest first.
            let top = if v == 0 {
                size.next_power_of_two()
            } else {
                v & v.wrapping_neg()
            };
            let masks = std::iter::successors(Some(top >> 1), |m| Some(m >> 1));
            masks.take_while(|&m| m > 0).map(|m| v + m).collect()
        }
        TreeKind::Binary => vec![2 * v + 1, 2 * v + 2],
        TreeKind::Chain => vec![v + 1],
        TreeKind::HungBinary if v == 0 => vec![1],
        TreeKind::HungBinary => vec![2 * v, 2 * v + 1],
        TreeKind::Fibonacci => {
            let parents = rounds_tree_parents(size, 2);
            (1..size).filter(|&c| parents[c] == v).collect()
        }
    };
    kids.into_iter().filter(|&c| c < size).collect()
}

/// Children in increasing-completion order — the order a reduce should
/// receive them.
pub fn children_ascending(kind: TreeKind, v: usize, size: usize) -> Vec<usize> {
    let mut c = children(kind, v, size);
    c.reverse();
    c
}

/// Hops from every vertex up to the root, in one pass over the parent
/// table.
fn depths(kind: TreeKind, size: usize) -> Vec<usize> {
    let up = parents(kind, size);
    let mut depth = vec![0; size];
    for v in 1..size {
        depth[v] = depth[up[v]] + 1;
    }
    depth
}

/// Hops from vertex `v` up to the root: a walk over the closed-form
/// parents (the Fibonacci tree has a table to build instead).
pub fn depth(kind: TreeKind, v: usize, size: usize) -> usize {
    if kind == TreeKind::Fibonacci {
        return depths(kind, size)[v];
    }
    std::iter::successors(Some(v), |&u| parent(kind, u, size)).count() - 1
}

/// Height (number of dependent hops root→deepest leaf) of the tree.
pub fn height(kind: TreeKind, size: usize) -> usize {
    depths(kind, size).into_iter().max().unwrap_or(0)
}

/// What a pipeline's closed form reads off a tree.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TreeProfile {
    /// When the last vertex has a chunk the root started sending at 0,
    /// a vertex serving its children one after the other at `send`
    /// each and a chunk taking `hop` more to arrive. A reduce runs the
    /// same schedule backwards, so it is also when the root has folded
    /// a chunk every leaf contributed at 0.
    pub fill: SimTime,
    /// Most children of any vertex: the sends a chunk costs the
    /// busiest one.
    pub fan: usize,
    /// Children of the root.
    pub root_fan: usize,
}

/// The [`TreeProfile`] of the `kind` tree on `size` vertices, in one
/// pass over its parent table.
pub fn profile(kind: TreeKind, size: usize, send: SimTime, hop: SimTime) -> TreeProfile {
    if kind == TreeKind::Chain {
        let fan = usize::from(size > 1);
        let fill = (send + hop) * size.saturating_sub(1) as u64;
        return TreeProfile {
            fill,
            fan,
            root_fan: fan,
        };
    }
    let up = parents(kind, size);
    let mut fan = vec![0usize; size];
    up.iter().skip(1).for_each(|&p| fan[p] += 1);
    let mut served = vec![0usize; size];
    let mut reach = vec![SimTime::ZERO; size];
    for v in 1..size {
        let p = up[v];
        served[p] += 1;
        // Siblings are served in ascending order, a binomial vertex's
        // in descending order (`children`).
        let turn = match kind {
            TreeKind::Binomial => fan[p] + 1 - served[p],
            _ => served[p],
        };
        reach[v] = reach[p] + send * turn as u64 + hop;
    }
    TreeProfile {
        fill: reach.into_iter().max().unwrap_or(SimTime::ZERO),
        fan: fan.iter().copied().max().unwrap_or(0),
        root_fan: fan.first().copied().unwrap_or(0),
    }
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

/// The largest power of `k` that is at most `n`, and its exponent.
pub(crate) fn radix_power(n: usize, k: usize) -> (usize, usize) {
    let (mut power, mut exp) = (1, 0);
    while power * k <= n {
        power *= k;
        exp += 1;
    }
    (power, exp)
}

/// The rounds of a k-ary exchange between a group's `n` nodes, as node
/// `my` runs them: the one round loop of the barrier, the small
/// allreduce and the allgather (DESIGN.md §9.6). Round `r` spans
/// `kʳ` nodes or cores.
/// * **Dissemination** (the barrier): every node runs every round, and
///   in round `r` puts to the nodes `j·kʳ` ahead of it and takes from
///   the nodes `j·kʳ` behind it (mod `n`), `0 < j < k`, `j·kʳ < n`.
/// * **Recursive k-ing** (the small allreduce, the allgather): the
///   `n − kʳ` extra nodes fold into the `kʳ ≤ n` core nodes, each core
///   taking the run of extras that follows it, and take the result
///   back. Only the cores run rounds: in round `r` each puts to and
///   takes from the `k − 1` other members of its digit-`r` group.
#[derive(Clone, Debug)]
pub struct Rounds {
    n: usize,
    k: usize,
    my: usize,
    /// Recursive k-ing: core `c` is node `first[c]`, its extras the
    /// nodes up to `first[c + 1]`. Empty for dissemination.
    first: Vec<usize>,
    /// The next round.
    round: usize,
}

/// One round of [`Rounds`], as my node runs it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Round {
    /// `r`, counted from 0.
    pub round: usize,
    /// The nodes my node puts to in this round, in group order, my node
    /// included, at `digit`.
    pub group: Vec<usize>,
    /// My node's place in `group`.
    pub digit: usize,
    /// Per other member of `group`, in group order: the node I put to
    /// and the node whose put I take (the same node in recursive
    /// k-ing).
    pub peers: Vec<(usize, usize)>,
}

impl Rounds {
    /// The dissemination rounds of node `my` among `n` at radix `k`.
    pub fn dissemination(n: usize, k: usize, my: usize) -> Rounds {
        Rounds::new(n, k, my, Vec::new())
    }

    /// The recursive k-ing rounds of node `my` among `n` at radix `k`:
    /// none unless `my` is a core.
    pub fn k_ing(n: usize, k: usize, my: usize) -> Rounds {
        // The `n − kʳ` extras spread evenly, the first cores take one
        // more.
        let (cores, _) = radix_power(n, k);
        let (each, rest) = ((n - cores) / cores, (n - cores) % cores);
        let first = (0..=cores).map(|c| c * (1 + each) + c.min(rest));
        Rounds::new(n, k, my, first.collect())
    }

    fn new(n: usize, k: usize, my: usize, first: Vec<usize>) -> Rounds {
        assert!(my < n && k >= 2, "node {my} of {n}, radix {k}");
        Rounds {
            n,
            k,
            my,
            first,
            round: 0,
        }
    }

    /// The index of the core `node` folds into.
    fn core_index(&self, node: usize) -> usize {
        self.first.partition_point(|&f| f <= node) - 1
    }

    /// Recursive k-ing: the core node my node folds into, itself on a
    /// core.
    pub fn core(&self) -> usize {
        self.first[self.core_index(self.my)]
    }

    /// Recursive k-ing: the extra nodes that fold into mine, none off a
    /// core.
    pub fn extras(&self) -> Range<usize> {
        let c = self.core_index(self.my);
        match self.first[c] == self.my {
            true => self.my + 1..self.first[c + 1],
            false => self.my..self.my,
        }
    }

    /// Recursive k-ing: the nodes whose values core `node` holds when
    /// round `round` starts: its own run of extras, then its groups' runs; after the
    /// last round, every node.
    pub fn held(&self, round: usize, node: usize) -> Range<usize> {
        let span = self.k.pow(round as u32).min(self.first.len() - 1);
        let lo = self.core_index(node) / span * span;
        self.first[lo]..self.first[lo + span]
    }
}

impl Iterator for Rounds {
    type Item = Round;

    fn next(&mut self) -> Option<Round> {
        let (n, k, my, round) = (self.n, self.k, self.my, self.round);
        let dist = k.pow(round as u32);
        let (group, digit, peers) = if self.first.is_empty() {
            if dist >= n {
                return None;
            }
            let m = (0..k).take_while(|j| j * dist < n).count();
            let group: Vec<usize> = (0..m).map(|j| (my + j * dist) % n).collect();
            let from = |j: usize| (my + n - j * dist) % n;
            let peers = (1..m).map(|j| (group[j], from(j))).collect();
            (group, 0, peers)
        } else {
            let core = self.core_index(my);
            if dist >= self.first.len() - 1 || self.first[core] != my {
                return None;
            }
            let digit = core / dist % k;
            let base = core - digit * dist;
            let group: Vec<usize> = (0..k).map(|j| self.first[base + j * dist]).collect();
            let others = (group.iter().enumerate()).filter(|&(j, _)| j != digit);
            let peers = others.map(|(_, &g)| (g, g)).collect();
            (group, digit, peers)
        };
        self.round += 1;
        Some(Round {
            round,
            group,
            digit,
            peers,
        })
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
        for kind in TreeKind::ALL {
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

    #[test]
    fn dissemination_puts_ahead_and_takes_from_behind() {
        let peers = |r: Round| (r.round, r.peers);
        let rounds: Vec<_> = Rounds::dissemination(5, 2, 3).map(peers).collect();
        assert_eq!(
            rounds,
            [(0, vec![(4, 2)]), (1, vec![(0, 1)]), (2, vec![(2, 4)])]
        );
        // Radix 3 on 5 nodes: two bumps, then the one that fits.
        let rounds: Vec<_> = Rounds::dissemination(5, 3, 0).map(peers).collect();
        assert_eq!(rounds, [(0, vec![(1, 4), (2, 3)]), (1, vec![(3, 2)])]);
    }

    #[test]
    fn k_ing_groups_cores_by_digit_and_folds_the_extras() {
        let groups = |n, k, my| -> Vec<(Vec<usize>, usize)> {
            Rounds::k_ing(n, k, my)
                .map(|r| (r.group, r.digit))
                .collect()
        };
        assert_eq!(
            groups(16, 4, 6),
            [(vec![4, 5, 6, 7], 2), (vec![2, 6, 10, 14], 1)]
        );
        let sixteen = Rounds::k_ing(16, 4, 6);
        let held: Vec<_> = (0..3).map(|r| sixteen.held(r, 6)).collect();
        assert_eq!(held, [6..7, 4..8, 0..16]);
        // 21 nodes at radix 7: seven cores, two extras after each.
        let core = Rounds::k_ing(21, 7, 3);
        assert_eq!((core.core(), core.extras()), (3, 4..6));
        assert_eq!(groups(21, 7, 3), [(vec![0, 3, 6, 9, 12, 15, 18], 1)]);
        assert_eq!((core.held(0, 3), core.held(1, 3)), (3..6, 0..21));
        let extra = Rounds::k_ing(21, 7, 5);
        assert_eq!((extra.core(), extra.extras()), (3, 5..5));
        assert_eq!(extra.count(), 0);
    }

    /// The communicator of `ranks` (comm rank order) on `topo`, binomial.
    fn group(topo: Topology, ranks: &[Rank]) -> CommGroup {
        CommGroup::new(topo, 1, ranks.to_vec())
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
        assert_eq!(g.tree(TreeKind::Binomial, 0, 0).down(), [4, 2, 1]);
        assert_eq!(g.tree(TreeKind::Binomial, 0, 3).parent(), Some(2));
        assert_eq!(g.tree(TreeKind::Binomial, 0, 0).parent(), None);
        // Intra-node subtree over each node's slots, rooted at the
        // master (slot 0).
        assert_eq!(parent(TreeKind::Binomial, 1, 16), Some(0));
        assert_eq!(parent(TreeKind::Binomial, 8, 16), Some(0));
        // Total steps: log2(16) + log2(8) = 4 + 3 = 7 = log2(128).
        assert_eq!(g.embedded_height(TreeKind::Binomial), 7);
    }

    #[test]
    fn height_optimality_power_of_two() {
        // n*p a power of two: embedding adds no steps.
        for (n, p) in [(8usize, 16usize), (16, 16), (4, 8), (2, 2)] {
            let flat = height(TreeKind::Binomial, n * p);
            assert_eq!(
                world(n, p).embedded_height(TreeKind::Binomial),
                flat,
                "{n}x{p}"
            );
        }
    }

    #[test]
    fn height_optimality_fifteen_of_sixteen() {
        // The paper's 15-of-16 daemons case: the embedding is still
        // optimal — intra (15 slots, deepest 0b111 = 3 hops) plus inter
        // (8 nodes, 3 hops) equals the flat tree on 120 (deepest
        // 0b1110111 = 6 hops).
        let g = world(8, 15);
        assert_eq!(g.embedded_height(TreeKind::Binomial), 6);
        assert_eq!(
            g.embedded_height(TreeKind::Binomial),
            height(TreeKind::Binomial, 120)
        );
    }

    #[test]
    fn arbitrary_root_rotates_node_tree() {
        let g = world(4, 4);
        let root_node = g.coord_of(9).0;
        assert_eq!(root_node, 2);
        assert_eq!(g.tree(TreeKind::Binomial, root_node, 2).parent(), None);
        // Node children of root's node: vnodes 2,1 -> nodes (2+2)%4=0, 3.
        assert_eq!(g.tree(TreeKind::Binomial, root_node, 2).down(), [0, 3]);
        // All nodes reachable.
        let mut seen = HashSet::from([2usize]);
        for node in 0..4 {
            for &c in g.tree(TreeKind::Binomial, root_node, node).down() {
                assert!(seen.insert(c));
                assert_eq!(
                    g.tree(TreeKind::Binomial, root_node, c).parent(),
                    Some(node)
                );
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
            let edges = g.inter_edges(TreeKind::Binomial, root);
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
        assert_eq!(g.inter_edges(TreeKind::Binomial, 0).len(), 3);
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
            for (p, c) in g.inter_edges(TreeKind::Binomial, root) {
                assert!(!topo.same_node(p, c));
                assert!([2, 5, 9].contains(&p) && [2, 5, 9].contains(&c));
            }
        }
    }

    #[test]
    fn group_embedding_height_never_exceeds_naive_plus_one_level() {
        let g = group(Topology::new(4, 4), &[0, 1, 4, 5, 8, 9, 12, 13]);
        // 4 nodes x 2 members: 1 + 2 = 3 hops; flat tree on 8: 3.
        assert_eq!(g.embedded_height(TreeKind::Binomial), 3);
    }

    #[test]
    #[should_panic(expected = "root out of communicator range")]
    fn group_requires_root_membership() {
        let _ = group(Topology::new(2, 2), &[0, 1]).inter_edges(TreeKind::Binomial, 3);
    }

    #[test]
    #[should_panic(expected = "empty communicator group")]
    fn empty_group_rejected() {
        let _ = group(Topology::new(2, 2), &[]);
    }
}
