//! Liveness scans for the plan/execute engine: every collective must
//! compose with every other on the same communicator without deadlock.
//!
//! The schedules share substrate state across calls — the cumulative
//! sequence cells, the per-slot contribution channels and the credit
//! counters — so the dangerous bugs are
//! *interleaving* bugs: an op that leaves a channel out of sync with
//! the cumulative it advanced, or that returns from the call while
//! puts targeting it are still in flight. These scans sweep topology
//! shapes (including single-node and non-power-of-two), roots
//! (master/non-master, first/middle/last) and op sequences that mix
//! the channel users. A failure surfaces as a simulator-detected
//! deadlock naming the blocked ranks.

use collops::Collectives;
use simnet::{MachineConfig, Sim, Topology};
use srm::{SrmTuning, SrmWorld};

fn try_one(nodes: usize, tpn: usize, op: &str, len: usize, root: usize) -> Result<(), String> {
    let topo = Topology::new(nodes, tpn);
    let n = topo.nprocs();
    let mut sim = Sim::new(MachineConfig::ibm_sp_colony());
    let world = SrmWorld::new(&mut sim, topo, SrmTuning::default());
    for rank in 0..n {
        let comm = world.comm(rank);
        let op = op.to_string();
        sim.spawn(format!("rank{rank}"), move |ctx| {
            let buf = comm.alloc_buffer((n * len).max(1));
            match op.as_str() {
                "gather" => comm.gather(&ctx, &buf, len, root),
                "scatter" => comm.scatter(&ctx, &buf, len, root),
                "allgather" => comm.allgather(&ctx, &buf, len),
                _ => unreachable!(),
            }
            comm.shutdown(&ctx);
        });
    }
    sim.run().map(|_| ()).map_err(|e| format!("{e:?}"))
}

fn try_seq(nodes: usize, tpn: usize, calls: &[(&str, usize, usize)]) -> Result<(), String> {
    let topo = Topology::new(nodes, tpn);
    let n = topo.nprocs();
    let mut sim = Sim::new(MachineConfig::ibm_sp_colony());
    let world = SrmWorld::new(&mut sim, topo, SrmTuning::default());
    for rank in 0..n {
        let comm = world.comm(rank);
        let calls: Vec<(String, usize, usize)> = calls
            .iter()
            .map(|&(op, len, root)| (op.to_string(), len, root))
            .collect();
        sim.spawn(format!("rank{rank}"), move |ctx| {
            let maxlen = calls.iter().map(|c| c.1).max().unwrap();
            // 2x: the split-buffer alltoall family needs send + recv halves.
            let buf = comm.alloc_buffer((2 * n * maxlen).max(8));
            for (op, len, root) in &calls {
                match op.as_str() {
                    "gather" => comm.gather(&ctx, &buf, *len, *root),
                    "scatter" => comm.scatter(&ctx, &buf, *len, *root),
                    "allgather" => comm.allgather(&ctx, &buf, *len),
                    "bcast" => comm.broadcast(&ctx, &buf, *len, *root),
                    "reduce" => comm.reduce(
                        &ctx,
                        &buf,
                        *len,
                        collops::DType::F64,
                        collops::ReduceOp::Sum,
                        *root,
                    ),
                    "allreduce" => comm.allreduce(
                        &ctx,
                        &buf,
                        *len,
                        collops::DType::F64,
                        collops::ReduceOp::Sum,
                    ),
                    "barrier" => comm.barrier(&ctx),
                    "alltoall" => comm.alltoall(&ctx, &buf, *len),
                    "alltoallv" => {
                        comm.alltoallv(&ctx, &buf, *len, &srm_cluster::ragged_counts(n, *len))
                    }
                    "reduce_scatter" => comm.reduce_scatter(
                        &ctx,
                        &buf,
                        *len,
                        collops::DType::F64,
                        collops::ReduceOp::Sum,
                    ),
                    _ => unreachable!(),
                }
            }
            comm.shutdown(&ctx);
        });
    }
    sim.run().map(|_| ()).map_err(|e| format!("{e:?}"))
}

/// Mixed-op sequences over one communicator: every op must leave the
/// shared substrate in a state every other op can start from.
#[test]
fn scan_sequences() {
    let len = 40_000; // chunks = 3 at the default 16 KB `SrmTuning::REDUCE_CHUNK`
    let mut failures = Vec::new();
    for (nodes, tpn) in [(1, 4), (2, 2), (2, 3), (3, 2), (3, 4)] {
        let n = nodes * tpn;
        let seqs: Vec<Vec<(&str, usize, usize)>> = vec![
            vec![("reduce", len, 0), ("reduce", len, 1)],
            vec![("reduce", len, 0), ("reduce", len, n - 1)],
            vec![("reduce", len, 1), ("reduce", len, 1)],
            vec![("gather", len, 0), ("reduce", len, 0)],
            vec![("gather", len, n - 1), ("reduce", len, n - 1)],
            vec![("scatter", len, 0), ("reduce", len, 0)],
            vec![("scatter", len, n - 1), ("reduce", len, 1)],
            vec![("gather", len, 1), ("scatter", len, 1)],
            vec![("allgather", len, 0), ("reduce", len, 0)],
            vec![("reduce", len, 1), ("gather", len, 0)],
            vec![("reduce", len, 0), ("gather", len, n / 2)],
            vec![
                ("allreduce", len, 0),
                ("gather", len, 1),
                ("reduce", len, 2 % n),
            ],
            vec![
                ("bcast", len, 1),
                ("scatter", len, 1),
                ("allreduce", len, 0),
            ],
            // Pairwise ops share the contribution channels and landing
            // pair with the tree ops, and the credit counters with each
            // other — every adjacency must drain cleanly.
            vec![("alltoall", len, 0), ("alltoall", len, 0)],
            vec![("alltoall", len, 0), ("reduce", len, 0)],
            vec![("reduce", len, 1), ("alltoall", len, 0)],
            vec![("reduce_scatter", len, 0), ("allgather", len, 0)],
            vec![("allreduce", len, 0), ("reduce_scatter", len, 0)],
            vec![
                ("alltoallv", len, 0),
                ("alltoall", len, 0),
                ("barrier", 0, 0),
            ],
            vec![
                ("reduce_scatter", len, 0),
                ("bcast", len, 1),
                ("alltoall", len, 0),
            ],
        ];
        for calls in seqs {
            if let Err(e) = try_seq(nodes, tpn, &calls) {
                failures.push(format!(
                    "({nodes}x{tpn}) {:?}: {}",
                    calls,
                    &e[..e.len().min(160)]
                ));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// Single segmented ops across shapes, sizes and root placements.
#[test]
fn scan_single_ops() {
    let mut failures = Vec::new();
    for (nodes, tpn) in [
        (1, 1),
        (1, 4),
        (2, 1),
        (2, 2),
        (2, 3),
        (3, 2),
        (4, 1),
        (3, 4),
    ] {
        let n = nodes * tpn;
        for op in ["gather", "scatter", "allgather"] {
            for len in [1usize, 100, 5000, 20000] {
                let roots: Vec<usize> = if op == "allgather" {
                    vec![0]
                } else {
                    vec![0, n - 1, n / 2]
                };
                for root in roots {
                    if let Err(e) = try_one(nodes, tpn, op, len, root) {
                        failures.push(format!(
                            "({nodes}x{tpn}) {op} len={len} root={root}: {}",
                            &e[..e.len().min(160)]
                        ));
                    }
                }
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// One step of a mixed blocking/nonblocking sequence: `nb` ops are
/// issued and their requests held; blocking ops run in line (the
/// engine routes them through the pending queue when requests are
/// outstanding). All held requests are waited at the end, in issue
/// order or reversed.
#[derive(Clone)]
struct NbCall {
    op: String,
    len: usize,
    root: usize,
    nb: bool,
}

fn nb(op: &str, len: usize, root: usize) -> NbCall {
    NbCall {
        op: op.to_string(),
        len,
        root,
        nb: true,
    }
}

fn bl(op: &str, len: usize, root: usize) -> NbCall {
    NbCall {
        op: op.to_string(),
        len,
        root,
        nb: false,
    }
}

fn try_seq_nb(
    nodes: usize,
    tpn: usize,
    calls: &[NbCall],
    reverse_wait: bool,
) -> Result<(), String> {
    use collops::NonblockingCollectives;
    let topo = Topology::new(nodes, tpn);
    let n = topo.nprocs();
    let mut sim = Sim::new(MachineConfig::ibm_sp_colony());
    let world = SrmWorld::new(&mut sim, topo, SrmTuning::default());
    for rank in 0..n {
        let comm = world.comm(rank);
        let calls = calls.to_vec();
        sim.spawn(format!("rank{rank}"), move |ctx| {
            // Per-call buffers: outstanding schedules must not share
            // payload storage with each other.
            let bufs: Vec<_> = calls
                .iter()
                .map(|c| comm.alloc_buffer((2 * n * c.len).max(8)))
                .collect();
            let mut reqs = Vec::new();
            for (c, buf) in calls.iter().zip(&bufs) {
                let (dt, op) = (collops::DType::F64, collops::ReduceOp::Sum);
                if c.nb {
                    reqs.push(match c.op.as_str() {
                        "bcast" => comm.ibroadcast(&ctx, buf, c.len, c.root),
                        "reduce" => comm.ireduce(&ctx, buf, c.len, dt, op, c.root),
                        "allreduce" => comm.iallreduce(&ctx, buf, c.len, dt, op),
                        "gather" => comm.igather(&ctx, buf, c.len, c.root),
                        "scatter" => comm.iscatter(&ctx, buf, c.len, c.root),
                        "allgather" => comm.iallgather(&ctx, buf, c.len),
                        "barrier" => comm.ibarrier(&ctx),
                        "alltoall" => comm.ialltoall(&ctx, buf, c.len),
                        "alltoallv" => {
                            comm.ialltoallv(&ctx, buf, c.len, &srm_cluster::ragged_counts(n, c.len))
                        }
                        "reduce_scatter" => comm.ireduce_scatter(&ctx, buf, c.len, dt, op),
                        _ => unreachable!(),
                    });
                } else {
                    match c.op.as_str() {
                        "bcast" => comm.broadcast(&ctx, buf, c.len, c.root),
                        "reduce" => comm.reduce(&ctx, buf, c.len, dt, op, c.root),
                        "allreduce" => comm.allreduce(&ctx, buf, c.len, dt, op),
                        "gather" => comm.gather(&ctx, buf, c.len, c.root),
                        "scatter" => comm.scatter(&ctx, buf, c.len, c.root),
                        "allgather" => comm.allgather(&ctx, buf, c.len),
                        "barrier" => comm.barrier(&ctx),
                        "alltoall" => comm.alltoall(&ctx, buf, c.len),
                        "alltoallv" => {
                            comm.alltoallv(&ctx, buf, c.len, &srm_cluster::ragged_counts(n, c.len))
                        }
                        "reduce_scatter" => comm.reduce_scatter(&ctx, buf, c.len, dt, op),
                        _ => unreachable!(),
                    }
                }
            }
            if reverse_wait {
                reqs.reverse();
            }
            comm.wait_all(&ctx, reqs);
            comm.shutdown(&ctx);
        });
    }
    sim.run().map(|_| ()).map_err(|e| format!("{e:?}"))
}

/// Mixed blocking/nonblocking sequences with at least two outstanding
/// schedules per rank, across substrate-sharing op pairs, shapes and
/// wait orders. A failure is a simulator-detected deadlock.
#[test]
fn scan_nonblocking_sequences() {
    let len = 40_000; // multi-chunk through the 16 KB reduce pipeline
    let big = 100_000; // above the 64 KB switch: address-exchange path
    let mut failures = Vec::new();
    for (nodes, tpn) in [(1, 4), (2, 2), (2, 3), (3, 2)] {
        let n = nodes * tpn;
        let seqs: Vec<Vec<NbCall>> = vec![
            // Two outstanding on the same substrate (per-class FIFO).
            vec![nb("bcast", len, 0), nb("bcast", len, n - 1)],
            vec![nb("reduce", len, 0), nb("reduce", len, 1 % n)],
            vec![nb("barrier", 0, 0), nb("barrier", 0, 0)],
            // Different substrates: these genuinely interleave.
            vec![nb("bcast", len, 0), nb("reduce", len, 0)],
            vec![
                nb("reduce", len, 0),
                nb("bcast", len, 1 % n),
                nb("barrier", 0, 0),
            ],
            vec![nb("gather", len, 0), nb("scatter", len, n - 1)],
            vec![nb("allgather", len, 0), nb("bcast", len, 0)],
            vec![nb("allreduce", len, 0), nb("gather", len, 1 % n)],
            // Large-protocol broadcasts: address mailboxes must
            // serialize across outstanding schedules.
            vec![nb("bcast", big, 0), nb("bcast", big, n - 1)],
            vec![nb("bcast", big, 0), nb("reduce", len, 0)],
            // Blocking ops issued while requests are outstanding route
            // through the pending queue.
            vec![nb("bcast", len, 0), bl("reduce", len, 0)],
            vec![
                nb("reduce", len, 0),
                bl("barrier", 0, 0),
                nb("bcast", len, 0),
            ],
            vec![
                nb("barrier", 0, 0),
                bl("bcast", len, 1 % n),
                nb("reduce", len, 0),
            ],
            // Three-plus outstanding with a mixed tail.
            vec![
                nb("bcast", len, 0),
                nb("reduce", len, 1 % n),
                nb("barrier", 0, 0),
                bl("allreduce", len, 0),
            ],
            // Pairwise class (CL_PAIRWISE) against itself and against
            // the tree classes it shares contribution channels with.
            vec![nb("alltoall", len, 0), nb("alltoall", len, 0)],
            vec![nb("alltoall", len, 0), nb("reduce", len, 0)],
            vec![nb("reduce_scatter", len, 0), nb("alltoall", len, 0)],
            vec![
                nb("alltoallv", len, 0),
                bl("barrier", 0, 0),
                nb("bcast", len, 0),
            ],
            vec![
                nb("reduce_scatter", len, 0),
                nb("allgather", len, 0),
                bl("alltoall", len, 0),
            ],
        ];
        for calls in seqs {
            for reverse in [false, true] {
                if let Err(e) = try_seq_nb(nodes, tpn, &calls, reverse) {
                    let desc: Vec<String> = calls
                        .iter()
                        .map(|c| {
                            format!(
                                "{}{}({},{})",
                                if c.nb { "i" } else { "" },
                                c.op,
                                c.len,
                                c.root
                            )
                        })
                        .collect();
                    failures.push(format!(
                        "({nodes}x{tpn}) rev={reverse} {:?}: {}",
                        desc,
                        &e[..e.len().min(160)]
                    ));
                }
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
