//! Reproduces the paper's Figure 1: embedding the 128-processor
//! binomial tree into an 8-node × 16-way SMP cluster, and checks the
//! height-optimality observation of §2.1 (including the 15-of-16
//! "leave a CPU for the daemons" case).
//!
//! Pass a comma-separated rank list (and optionally a root) to also
//! print the **group embedding** of that subset on a 2x4 machine and
//! run a real broadcast over it through a subcommunicator:
//!
//! ```sh
//! cargo run --release --example tree_embedding            # default group 1,3,4,6
//! cargo run --release --example tree_embedding -- 0,2,5 5 # group + root
//! ```

use collops::Collectives;
use simnet::{MachineConfig, Sim, Topology};
use srm::{embed, CommGroup, SrmComm, SrmTuning, SrmWorld, TreeKind};
use std::sync::{Arc, Mutex};

fn describe(topo: Topology, kind: TreeKind) {
    let world = CommGroup::new(topo, 0, (0..topo.nprocs()).collect());
    println!("\n{kind:?} tree embedded in {topo}");
    println!(
        "  intra-node height {} + inter-node height {} = {} dependent hops (flat tree on {}: {})",
        embed::height(kind, topo.tasks_per_node()),
        embed::height(kind, topo.nodes()),
        world.embedded_height(kind),
        topo.nprocs(),
        embed::height(kind, topo.nprocs()),
    );
    println!("  inter-node tree (node -> children):");
    for node in 0..topo.nodes() {
        let tree = world.tree(kind, 0, node);
        if !tree.down().is_empty() {
            println!("    node {node:2} -> {:?}", tree.down());
        }
    }
    let masters: Vec<_> = (0..topo.nodes()).map(|n| world.master_of(n)).collect();
    println!("  masters (the only ranks that touch the network): {masters:?}");
}

fn main() {
    println!("Figure 1: SMP-aware embedding of collective trees\n===");

    // The paper's figure: 128 procs on 8 x 16.
    describe(Topology::new(8, 16), TreeKind::Binomial);

    // The intra-node subtree of one node, rooted at its master.
    let topo = Topology::new(8, 16);
    println!("\n  intra-node subtree on node 1 (ranks 16..32):");
    for rank in topo.ranks_on(1) {
        match embed::parent(TreeKind::Binomial, topo.slot_of(rank), 16) {
            Some(p) => println!("    rank {rank:3} <- parent {}", topo.rank_of(1, p)),
            None => println!("    rank {rank:3} (master, feeds the inter-node tree)"),
        }
    }

    // Height optimality for the daemon configuration.
    describe(Topology::new(8, 15), TreeKind::Binomial);

    // The alternatives the paper measured and rejected for inter-node use.
    for kind in [TreeKind::Binary, TreeKind::Fibonacci] {
        let h = embed::height(kind, 16);
        println!(
            "\n{kind:?} tree over 16 nodes: height {h} (binomial: {})",
            embed::height(TreeKind::Binomial, 16)
        );
    }

    // §3.1's arbitrary-group generalization: embed a user-supplied
    // subset of ranks and broadcast over it through a subcommunicator.
    let args: Vec<String> = std::env::args().skip(1).collect();
    let group: Vec<usize> = args
        .first()
        .map(|s| {
            s.split(',')
                .map(|r| r.parse().expect("rank list: comma-separated integers"))
                .collect()
        })
        .unwrap_or_else(|| vec![1, 3, 4, 6]);
    let root: usize = args
        .get(1)
        .map(|s| s.parse().expect("root: an integer rank"))
        .unwrap_or(group[0]);
    describe_group(Topology::new(2, 4), &group, root);
}

/// The intra-node subtrees the reduce walks: per group node, the tree
/// over its members rooted at the master, as `(parent, child)` ranks.
fn smp_edges(g: &CommGroup) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for node in 0..g.node_count() {
        let m = g.members_on(node);
        for v in 1..m.len() {
            let p = embed::parent(TreeKind::Binomial, v, m.len()).expect("non-root");
            out.push((m[p], m[v]));
        }
    }
    out
}

/// Print the embedding the subcommunicator over `group` reports for a
/// collective rooted at `root`, and run a broadcast over it.
fn describe_group(topo: Topology, group: &[usize], root: usize) {
    let mut sim = Sim::new(MachineConfig::ibm_sp_colony());
    let world = SrmWorld::new(&mut sim, topo, SrmTuning::default());
    let mut sub_of: Vec<Option<SrmComm>> = (0..topo.nprocs()).map(|_| None).collect();
    for (sub, &r) in world.comm_create(group).into_iter().zip(group) {
        sub_of[r] = Some(sub);
    }
    let g = sub_of[root]
        .as_ref()
        .expect("root in group")
        .group()
        .clone();
    let croot = g.comm_rank_of(root).expect("root in group");
    println!("\nGroup {group:?} (root {root}) embedded in {topo}");
    println!(
        "  {} members on {} node(s), embedded height {}",
        g.len(),
        g.node_count(),
        g.embedded_height(TreeKind::Binomial)
    );
    println!(
        "  group masters: {:?}",
        (0..g.node_count())
            .map(|n| g.master_of(n))
            .collect::<Vec<_>>()
    );
    println!(
        "  inter-node edges (network): {:?}",
        g.inter_edges(TreeKind::Binomial, croot)
    );
    println!("  intra-node edges (shared memory): {:?}", smp_edges(&g));

    // Run the broadcast for real: the root fills a buffer; every
    // member must read the same bytes back through its subcommunicator.
    let len = 1024usize;
    let ok = Arc::new(Mutex::new(0usize));
    for (rank, sub) in sub_of.into_iter().enumerate() {
        let comm = world.comm(rank);
        let ok = ok.clone();
        sim.spawn(format!("rank{rank}"), move |ctx| {
            if let Some(sub) = sub {
                let buf = sub.alloc_buffer(len);
                if sub.rank() == root {
                    buf.with_mut(|d| d.fill(0x5a));
                }
                sub.broadcast(&ctx, &buf, len, croot);
                if buf.with(|d| d.iter().all(|&b| b == 0x5a)) {
                    *ok.lock().unwrap() += 1;
                }
            }
            comm.shutdown(&ctx);
        });
    }
    let report = sim.run().expect("group broadcast completes");
    println!(
        "  broadcast of {len} B from rank {root}: {}/{} members verified, \
         {} network messages",
        ok.lock().unwrap(),
        group.len(),
        report.metrics.net_messages
    );
}
