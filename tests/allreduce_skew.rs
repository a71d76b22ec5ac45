//! The skew rule of the large allreduce (§2.4, Figure 5), read off the
//! compiled plans: how many chunks a rank's down leg (inter-node
//! broadcast away from group node 0, intra-node broadcast) runs behind
//! its up leg (intra-node reduce, inter-node reduce toward node 0).
//!
//! Group node 0's master has no down leg; its node-mates trail by one
//! chunk; every other node trails by one more than its parent node, all
//! its ranks alike. A node that ran no further ahead than its parent
//! would pay two wire hops per chunk; ranks of one node at different
//! skews would deadlock on their shared contribution and landing sides.

use shmem::PairUse;
use simnet::{MachineConfig, Sim, Topology};
use srm::embed::parent;
use srm::plan::{BufRef, Chan, ChanKind, CtrRef, Until, WaitCell};
use srm::{Plan, PlanShape, SrmTuning, SrmWorld, Step, TreeKind};

const TPN: usize = 3;

/// Chunks of the up leg emitted ahead of the first down-leg step, less
/// the one that belongs to the same iteration; `None` without a down leg.
fn observed_skew(plan: &Plan) -> Option<usize> {
    use PairUse::Published;
    let down = plan.steps.iter().position(|s| match s {
        Step::Wait { cell, until, .. } => matches!(
            (cell, until),
            (WaitCell::Pair { .. }, Until::Use(Published))
                | (
                    WaitCell::Ctr(CtrRef::Data(Chan {
                        kind: ChanKind::Bcast,
                        ..
                    })),
                    _
                )
        ),
        _ => false,
    })?;
    let ups = plan.steps[..down].iter();
    let load = |s: &&Step| {
        matches!(
            s,
            Step::ShmCopy {
                src: BufRef::User,
                dst: BufRef::Acc,
                ..
            }
        )
    };
    Some(ups.filter(load).count() - 1)
}

#[test]
fn down_leg_trails_by_one_plus_tree_depth() {
    // Twenty chunks: more than the deepest skew below (a chain of 16 nodes: 16).
    let shape = PlanShape::Allreduce { len: 320 << 10 };
    for tree in TreeKind::ALL {
        for nodes in [1, 2, 5, 16] {
            let tuning = SrmTuning {
                tree: Some(tree),
                ..SrmTuning::default()
            };
            let mut sim = Sim::new(MachineConfig::ibm_sp_colony());
            let world = SrmWorld::new(&mut sim, Topology::new(nodes, TPN), tuning);
            let skew: Vec<Option<usize>> = (0..nodes * TPN)
                .map(|rank| {
                    let comm = world.comm(rank);
                    observed_skew(&comm.build_plan(&comm.key(shape.clone())))
                })
                .collect();
            assert_eq!(skew[0], None, "{tree:?}/{nodes}: node 0's master");
            for node in 0..nodes {
                let want = match parent(tree, node, nodes) {
                    None => 1,
                    Some(q) => skew[q * TPN + 1].expect("non-masters have a down leg") + 1,
                };
                for rank in (node * TPN..(node + 1) * TPN).filter(|&r| r != 0) {
                    assert_eq!(skew[rank], Some(want), "{tree:?}/{nodes}: rank {rank}");
                }
            }
        }
    }
}
