//! Future-work study (paper §5): SMP-aware tree embedding for
//! **arbitrary MPI task groups**. For several group shapes on a
//! 16×16 cluster, compare the inter-node edge count (network messages
//! per broadcast) of the SMP-aware embedding against the naive tree
//! over communicator rank order, plus the dependent-hop heights.

use simnet::Topology;
use srm::{embed, CommGroup, TreeKind};

/// Inter-node edge count of the *naive* embedding: the same tree built
/// over the group's **communicator order** (the order the caller listed
/// the ranks, as `MPI_Group_incl` does), rooted at its first rank and
/// ignoring topology.
fn naive_inter_edges(topo: Topology, order: &[usize]) -> usize {
    (1..order.len())
        .filter(|&v| {
            let p = embed::parent(TreeKind::Binomial, v, order.len()).expect("non-root");
            !topo.same_node(order[v], order[p])
        })
        .count()
}

fn study(name: &str, topo: Topology, group: Vec<usize>) {
    let naive = naive_inter_edges(topo, &group);
    let g = CommGroup::new(topo, 1, group);
    println!(
        "{:>34}: |group|={:3} nodes={:2}  net edges {:3} (naive {:3})  height {}",
        name,
        g.len(),
        g.node_count(),
        g.inter_edges(TreeKind::Binomial, 0).len(),
        naive,
        g.embedded_height(TreeKind::Binomial),
    );
}

fn main() {
    let topo = Topology::sp_16way(16);
    println!("Group-embedding study on {topo} (binomial trees)\n");

    study("full communicator", topo, (0..256).collect());
    study("round-robin order (1 per node first)", topo, {
        let mut v = Vec::new();
        for slot in 0..16 {
            for node in 0..16 {
                v.push(topo.rank_of(node, slot));
            }
        }
        v
    });
    study(
        "one task per node",
        topo,
        (0..16).map(|n| topo.rank_of(n, 3)).collect(),
    );
    study("two adjacent nodes", topo, (0..32).collect());
    study(
        "odd ranks only",
        topo,
        (0..256).filter(|r| r % 2 == 1).collect(),
    );
    study(
        "strided across nodes (stride 17)",
        topo,
        (0..256).step_by(17).collect(),
    );
    study(
        "a 3-node application row",
        topo,
        (0..48).map(|i| topo.rank_of(5 + i / 16, i % 16)).collect(),
    );

    println!(
        "\nThe SMP-aware embedding always uses exactly (touched nodes - 1) network edges;\n\
         the naive communicator-order tree pays up to |group|-1 when the order interleaves nodes."
    );
}
