//! Extra figure: communicator-scoped allreduce — the whole world vs a
//! per-node partition of subcommunicators, against the MPI
//! sub-communicator baselines.
//!
//! The paper's §5 names "collective operations on groups" as future
//! work; this sweep measures what the communicator layer buys. Every
//! node's 16 ranks form their own subcommunicator and all nodes run
//! their allreduce **concurrently**. For SRM such a group never leaves
//! shared memory — the sweep prints the network messages observed in
//! the timed region to document that — so the per-node time is flat in
//! the node count, while the world operation pays the inter-node tree.
//! The MPI baselines run the same per-node groups through their
//! sub-communicator path (group-relative binomial trees over tagged
//! point-to-point with a context id), which stages through the same
//! send/receive machinery as the world operation.
//!
//! Output: one row per (nodes, bytes): world-SRM, per-node SRM, per-node
//! IBM MPI, per-node MPICH, and the SRM/IBM ratio for the subgroup runs.

use collops::{Collectives, DType, ReduceOp};
use mpi_coll::MpiColl;
use simnet::{MachineConfig, MetricsSnapshot, Sim, SimTime, Topology};
use srm::{SrmTuning, SrmWorld};
use srm_bench::{fast_mode, iters_for};
use srm_cluster::Impl;
use std::sync::{Arc, Mutex};

type Samples = Arc<Mutex<Vec<(SimTime, SimTime, MetricsSnapshot)>>>;

struct GroupMeasure {
    /// Mean virtual time per call (all groups run concurrently; the
    /// clock stops when the last member of the last group finishes).
    us: f64,
    /// Network messages per call observed in the timed region.
    net_per_call: f64,
}

/// Measure `iters` concurrent allreduces of `len` bytes, one per group
/// of the partition `groups`, under `imp`. Methodology matches the main
/// harness: one warmup call, a group-local barrier, then the timed
/// calls; time runs from the last rank's start to the last rank's
/// finish.
fn measure_groups(
    imp: Impl,
    machine: MachineConfig,
    topo: Topology,
    groups: &[Vec<usize>],
    len: usize,
    iters: usize,
) -> GroupMeasure {
    let mut sim = Sim::new(machine);
    let out: Samples = Arc::new(Mutex::new(Vec::new()));

    enum World {
        Srm(SrmWorld),
        Mpi(msg::MsgWorld),
    }
    let world = match imp {
        Impl::Srm => World::Srm(SrmWorld::new(&mut sim, topo, SrmTuning::default())),
        Impl::IbmMpi => World::Mpi(msg::MsgWorld::new(&mut sim, topo, msg::Vendor::IbmMpi)),
        Impl::Mpich => World::Mpi(msg::MsgWorld::new(&mut sim, topo, msg::Vendor::Mpich)),
    };

    // One collectives object per rank, scoped to that rank's group.
    let mut sub_of: Vec<Option<Box<dyn Collectives + Send>>> =
        (0..topo.nprocs()).map(|_| None).collect();
    match &world {
        World::Srm(w) => {
            for g in groups {
                for (sub, &r) in w.comm_create(g).into_iter().zip(g) {
                    sub_of[r] = Some(Box::new(sub));
                }
            }
        }
        World::Mpi(w) => {
            for (gi, g) in groups.iter().enumerate() {
                for &r in g {
                    sub_of[r] = Some(Box::new(MpiColl::subgroup(
                        w.endpoint(r),
                        g,
                        (gi + 1) as u16,
                    )));
                }
            }
        }
    }

    for (rank, sub) in sub_of.into_iter().enumerate() {
        let coll = sub.expect("the groups partition the world");
        let srm_comm = match &world {
            World::Srm(w) => Some(w.comm(rank)),
            World::Mpi(_) => None,
        };
        let out = out.clone();
        sim.spawn(format!("rank{rank}"), move |ctx| {
            let buf = shmem::ShmBuffer::new(len.max(8));
            buf.with_mut(|d| {
                for (i, x) in d.iter_mut().enumerate() {
                    *x = (i as u8).wrapping_add(rank as u8);
                }
            });
            coll.allreduce(&ctx, &buf, len, DType::F64, ReduceOp::Sum);
            coll.barrier(&ctx);
            let t0 = ctx.now();
            let m0 = ctx.metrics_snapshot();
            for _ in 0..iters {
                coll.allreduce(&ctx, &buf, len, DType::F64, ReduceOp::Sum);
            }
            let t1 = ctx.now();
            out.lock()
                .unwrap()
                .push((t0, t1, ctx.metrics_snapshot().since(&m0)));
            if let Some(c) = srm_comm {
                c.shutdown(&ctx);
            }
        });
    }
    sim.run().expect("group measurement run must complete");

    let samples = out.lock().unwrap();
    assert_eq!(samples.len(), topo.nprocs());
    let start = samples.iter().map(|s| s.0).max().expect("nonempty");
    let end = samples.iter().map(|s| s.1).max().expect("nonempty");
    // The earliest-starting rank's timed window covers the whole
    // concurrent phase; its counter delta is the run's traffic.
    let metrics = samples.iter().min_by_key(|s| s.0).expect("nonempty").2;
    GroupMeasure {
        us: (end - start).as_us() / iters as f64,
        net_per_call: metrics.net_messages as f64 / iters as f64,
    }
}

fn main() {
    let machine = MachineConfig::ibm_sp_colony();
    let nodes: &[usize] = if fast_mode() { &[2, 4] } else { &[2, 4, 8, 16] };
    let sizes: Vec<usize> = if fast_mode() {
        vec![512, 8 << 10, 128 << 10]
    } else {
        vec![8, 512, 8 << 10, 128 << 10, 1 << 20]
    };

    let title = "Extra figure: allreduce on the world vs one subcommunicator per node";
    println!("{title}");
    println!("{}", "=".repeat(title.len()));
    println!(
        "{:>6} {:>9} {:>12} {:>14} {:>14} {:>14} {:>9} {:>10}",
        "nodes",
        "bytes",
        "world (us)",
        "node-SRM (us)",
        "node-IBM (us)",
        "node-MPICH(us)",
        "SRM/IBM",
        "SRM net/op"
    );
    for &n in nodes {
        let topo = Topology::sp_16way(n);
        let world_part = vec![(0..topo.nprocs()).collect::<Vec<usize>>()];
        let node_part: Vec<Vec<usize>> = (0..n).map(|node| topo.ranks_on(node).collect()).collect();
        for &len in &sizes {
            let iters = if fast_mode() { 2 } else { iters_for(len) };
            let w = measure_groups(Impl::Srm, machine.clone(), topo, &world_part, len, iters);
            let s = measure_groups(Impl::Srm, machine.clone(), topo, &node_part, len, iters);
            let i = measure_groups(Impl::IbmMpi, machine.clone(), topo, &node_part, len, iters);
            let m = measure_groups(Impl::Mpich, machine.clone(), topo, &node_part, len, iters);
            println!(
                "{:>6} {:>9} {:>12.1} {:>14.1} {:>14.1} {:>14.1} {:>8.0}% {:>10.1}",
                n,
                len,
                w.us,
                s.us,
                i.us,
                m.us,
                100.0 * s.us / i.us,
                s.net_per_call
            );
        }
    }
    println!(
        "\nA per-node SRM subcommunicator stays inside shared memory \
         (SRM net/op column): the\nnetwork tree, landing buffers and \
         dispatcher traffic of the world operation drop out\nentirely, \
         so per-node time is flat in the node count."
    );
}
