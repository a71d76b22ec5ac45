//! Rules checked on compiled plans, without running them.
//!
//! **One producer per contribution channel.** Slot `s`'s contribution
//! channel on a node is written, and its READY flag raised, by slot
//! `s` alone: every handoff between two tasks of a node goes through
//! the channel of the task that produces it. The channel's consumers
//! change between calls and keep its DONE flag in order themselves
//! (`NodeBoard::contrib`).

use collops::Op;
use simnet::{MachineConfig, Sim, Topology};
use srm::plan::{BufRef, FlagRef, Step};
use srm::{SrmComm, SrmTuning, SrmWorld};

/// The contribution channel `step` produces into, if any: a copy into
/// its buffer or a raise of its READY flag.
fn produced_channel(step: &Step) -> Option<usize> {
    match *step {
        Step::ShmCopy {
            dst: BufRef::Contrib(s),
            ..
        }
        | Step::FlagRaise {
            flag: FlagRef::Ready(s),
            ..
        } => Some(s),
        _ => None,
    }
}

/// Roots 0, last, and the first non-master comm rank of the upper
/// half.
fn roots(members: &[SrmComm]) -> Vec<usize> {
    let n = members.len();
    let group = members[0].group();
    let middle = (n / 2..n)
        .find(|&c| group.coord_of(c).1 != 0)
        .expect("a non-master rank in the upper half");
    vec![0, n - 1, middle]
}

/// Compile every member's plan of the ten shapes at every root and
/// sizes of one and of three reduce chunks; return how many plans
/// produced into a channel.
fn check_members(what: &str, members: &[SrmComm]) -> usize {
    let chunk = SrmTuning::default().reduce_chunk;
    let mut producing = 0;
    for op in Op::ALL {
        for len in [8, 3 * chunk - 8] {
            for root in roots(members) {
                let shape = op.shape(len, root, members.len());
                for comm in members {
                    let mine = comm.group().coord_of(comm.comm_rank()).1;
                    let plan = comm.build_plan(&comm.key(shape.clone()));
                    let mut produced = false;
                    for step in &plan.steps {
                        if let Some(s) = produced_channel(step) {
                            assert_eq!(
                                s,
                                mine,
                                "{what}, {shape:?}: comm rank {} (slot {mine}) produces \
                                 into slot {s}'s channel: {step:?}",
                                comm.comm_rank()
                            );
                            produced = true;
                        }
                    }
                    producing += usize::from(produced);
                }
            }
        }
    }
    producing
}

#[test]
fn every_contribution_channel_has_one_producer() {
    for (nodes, tpn) in [(2, 3), (3, 2), (4, 4)] {
        let mut sim = Sim::new(MachineConfig::ibm_sp_colony());
        let topo = Topology::new(nodes, tpn);
        let world = SrmWorld::new(&mut sim, topo, SrmTuning::default());
        let members = (0..topo.nprocs()).map(|r| world.comm(r)).collect();
        let mut comms = vec![(format!("{nodes}x{tpn} world"), members)];
        if (nodes, tpn) == (4, 4) {
            // Uneven and non-contiguous: one to three members per node.
            let subgroup = world.comm_create(&[1, 3, 4, 6, 7, 10, 13, 14, 15]);
            comms.push(("4x4 subgroup".to_string(), subgroup));
        }
        for (what, members) in comms {
            let producing = check_members(&what, &members);
            assert!(producing > 0, "{what}: no plan produced into a channel");
        }
    }
}
