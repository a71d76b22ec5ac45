//! Communicator-scoped collectives on arbitrary subgroups.
//!
//! SRM (`SrmWorld::comm_create` / `comm_split`) and both MPI baselines
//! (`MpiColl::subgroup`) run every collective — blocking and
//! `i`-prefixed — over groups that are non-contiguous across nodes,
//! non-power-of-two and ordered differently from world rank order, with
//! roots anywhere in the group. Results must match the reference
//! semantics bit for bit (which makes the three implementations agree
//! with each other), and mixed op sequences on subgroups, including
//! world-communicator calls from the same ranks, must be deadlock-free.

use collops::{
    from_bytes_u64, reference_reduce, to_bytes_u64, Collectives, DType, NonblockingCollectives,
    ReduceOp,
};
use mpi_coll::MpiColl;
use msg::{MsgWorld, Vendor};
use simnet::{MachineConfig, Sim, Topology};
use srm::{SrmTuning, SrmWorld};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Both collective faces in one trait object.
trait Coll: Collectives + NonblockingCollectives + Send {}
impl<T: Collectives + NonblockingCollectives + Send> Coll for T {}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Impl3 {
    Srm,
    Ibm,
    Mpich,
}
const IMPLS: [Impl3; 3] = [Impl3::Srm, Impl3::Ibm, Impl3::Mpich];

/// Deterministic payload byte `k` of the segment comm rank `i` aims at
/// comm rank `j` (`j` doubles as an op salt for single-segment ops).
fn pair_byte(i: usize, j: usize, k: usize) -> u8 {
    ((i * 37 + j * 11 + k * 3 + 5) % 251) as u8
}

/// Named result buffers, one map per group member in comm rank order.
type MemberBufs = Arc<Mutex<Vec<HashMap<&'static str, Vec<u8>>>>>;

/// Run `body` on every member of `group` (comm rank order = caller
/// order) under one implementation; non-members never spawn. Returns
/// each member's named buffers, indexed by comm rank.
fn run_group(
    imp: Impl3,
    topo: Topology,
    group: &[usize],
    body: impl Fn(&simnet::Ctx, &dyn Coll, usize) -> HashMap<&'static str, Vec<u8>>
        + Send
        + Sync
        + 'static,
) -> Vec<HashMap<&'static str, Vec<u8>>> {
    let mut sim = Sim::new(MachineConfig::ibm_sp_colony());
    let gn = group.len();
    let out: MemberBufs = Arc::new(Mutex::new(vec![HashMap::new(); gn]));
    let body = Arc::new(body);
    match imp {
        Impl3::Srm => {
            let world = SrmWorld::new(&mut sim, topo, SrmTuning::default());
            let comms = world.comm_create(group);
            let mut sub_of: Vec<Option<srm::SrmComm>> = (0..topo.nprocs()).map(|_| None).collect();
            for (sub, &rank) in comms.into_iter().zip(group) {
                sub_of[rank] = Some(sub);
            }
            // Every world rank spawns (each owns a dispatcher to shut
            // down); only members run the body.
            for (rank, sub) in sub_of.into_iter().enumerate() {
                let wcomm = world.comm(rank);
                let out = out.clone();
                let body = body.clone();
                sim.spawn(format!("rank{rank}"), move |ctx| {
                    if let Some(sub) = sub {
                        let crank = sub.comm_rank();
                        out.lock().unwrap()[crank] = body(&ctx, &sub, crank);
                    }
                    wcomm.shutdown(&ctx);
                });
            }
        }
        Impl3::Ibm | Impl3::Mpich => {
            let vendor = if imp == Impl3::Ibm {
                Vendor::IbmMpi
            } else {
                Vendor::Mpich
            };
            let world = MsgWorld::new(&mut sim, topo, vendor);
            for (crank, &rank) in group.iter().enumerate() {
                let sub = MpiColl::subgroup(world.endpoint(rank), group, 1);
                let out = out.clone();
                let body = body.clone();
                sim.spawn(format!("rank{rank}"), move |ctx| {
                    out.lock().unwrap()[crank] = body(&ctx, &sub, crank);
                });
            }
        }
    }
    sim.run().expect("subgroup run completes");
    Arc::try_unwrap(out).unwrap().into_inner().unwrap()
}

/// Every collective, blocking and nonblocking, on every implementation,
/// over three awkward groups of a 2x4 world: non-contiguous across
/// nodes, non-power-of-two, and ordered against world rank order. Each
/// op's defined output region is checked against the reference
/// semantics, with roots at the head, middle and tail of the group.
#[test]
fn all_ops_agree_on_arbitrary_subgroups() {
    let topo = Topology::new(2, 4);
    let len = 64usize; // 8 u64 elements per segment
    let groups: Vec<Vec<usize>> = vec![
        vec![1, 3, 4, 6],    // non-contiguous, both nodes
        vec![0, 2, 3, 5, 7], // non-power-of-two
        vec![5, 1, 6],       // comm rank order != world rank order
    ];
    for group in &groups {
        let gn = group.len();
        let (root_a, root_b, root_c) = (0, gn - 1, gn / 2);
        let counts = srm_cluster::ragged_counts(gn, len);
        for nonblocking in [false, true] {
            for imp in IMPLS {
                let body_counts = counts.clone();
                let results = run_group(imp, topo, group, move |ctx, coll, me| {
                    let elems = len / 8;
                    let mut bufs: HashMap<&'static str, Vec<u8>> = HashMap::new();
                    // --- broadcast (root mid-group) ---
                    let b = shmem::ShmBuffer::new(len);
                    if me == root_c {
                        b.with_mut(|d| {
                            d.iter_mut()
                                .enumerate()
                                .for_each(|(k, x)| *x = pair_byte(root_c, 0, k))
                        });
                    }
                    if nonblocking {
                        let r = coll.ibroadcast(ctx, &b, len, root_c);
                        coll.wait(ctx, r);
                    } else {
                        coll.broadcast(ctx, &b, len, root_c);
                    }
                    bufs.insert("bcast", b.with(|d| d.to_vec()));
                    // --- reduce (root at tail) ---
                    let b = shmem::ShmBuffer::new(len);
                    let vals: Vec<u64> = (0..elems)
                        .map(|e| (me * 1009 + e * 17 + 1) as u64)
                        .collect();
                    b.with_mut(|d| d.copy_from_slice(&to_bytes_u64(&vals)));
                    if nonblocking {
                        let r = coll.ireduce(ctx, &b, len, DType::U64, ReduceOp::Sum, root_b);
                        coll.wait(ctx, r);
                    } else {
                        coll.reduce(ctx, &b, len, DType::U64, ReduceOp::Sum, root_b);
                    }
                    bufs.insert("reduce", b.with(|d| d.to_vec()));
                    // --- allreduce ---
                    let b = shmem::ShmBuffer::new(len);
                    let vals: Vec<u64> = (0..elems).map(|e| (me * 31 + e) as u64).collect();
                    b.with_mut(|d| d.copy_from_slice(&to_bytes_u64(&vals)));
                    if nonblocking {
                        let r = coll.iallreduce(ctx, &b, len, DType::U64, ReduceOp::Max);
                        coll.wait(ctx, r);
                    } else {
                        coll.allreduce(ctx, &b, len, DType::U64, ReduceOp::Max);
                    }
                    bufs.insert("allreduce", b.with(|d| d.to_vec()));
                    // --- barrier ---
                    if nonblocking {
                        let r = coll.ibarrier(ctx);
                        coll.wait(ctx, r);
                    } else {
                        coll.barrier(ctx);
                    }
                    // --- gather (root at head) ---
                    let b = shmem::ShmBuffer::new(gn * len);
                    b.with_mut(|d| {
                        d[me * len..(me + 1) * len]
                            .iter_mut()
                            .enumerate()
                            .for_each(|(k, x)| *x = pair_byte(me, 1, k))
                    });
                    if nonblocking {
                        let r = coll.igather(ctx, &b, len, root_a);
                        coll.wait(ctx, r);
                    } else {
                        coll.gather(ctx, &b, len, root_a);
                    }
                    bufs.insert("gather", b.with(|d| d.to_vec()));
                    // --- scatter (root at tail) ---
                    let b = shmem::ShmBuffer::new(gn * len);
                    if me == root_b {
                        b.with_mut(|d| {
                            for j in 0..gn {
                                d[j * len..(j + 1) * len]
                                    .iter_mut()
                                    .enumerate()
                                    .for_each(|(k, x)| *x = pair_byte(j, 2, k));
                            }
                        });
                    }
                    if nonblocking {
                        let r = coll.iscatter(ctx, &b, len, root_b);
                        coll.wait(ctx, r);
                    } else {
                        coll.scatter(ctx, &b, len, root_b);
                    }
                    bufs.insert("scatter", b.with(|d| d.to_vec()));
                    // --- allgather ---
                    let b = shmem::ShmBuffer::new(gn * len);
                    b.with_mut(|d| {
                        d[me * len..(me + 1) * len]
                            .iter_mut()
                            .enumerate()
                            .for_each(|(k, x)| *x = pair_byte(me, 3, k))
                    });
                    if nonblocking {
                        let r = coll.iallgather(ctx, &b, len);
                        coll.wait(ctx, r);
                    } else {
                        coll.allgather(ctx, &b, len);
                    }
                    bufs.insert("allgather", b.with(|d| d.to_vec()));
                    // --- alltoall ---
                    let b = shmem::ShmBuffer::new(2 * gn * len);
                    b.with_mut(|d| {
                        for j in 0..gn {
                            d[j * len..(j + 1) * len]
                                .iter_mut()
                                .enumerate()
                                .for_each(|(k, x)| *x = pair_byte(me, j, k));
                        }
                    });
                    if nonblocking {
                        let r = coll.ialltoall(ctx, &b, len);
                        coll.wait(ctx, r);
                    } else {
                        coll.alltoall(ctx, &b, len);
                    }
                    bufs.insert("alltoall", b.with(|d| d.to_vec()));
                    // --- alltoallv (ragged) ---
                    let b = shmem::ShmBuffer::new(2 * gn * len);
                    b.with_mut(|d| {
                        for j in 0..gn {
                            for k in 0..body_counts[me * gn + j] {
                                d[j * len + k] = pair_byte(me, j, k);
                            }
                        }
                    });
                    if nonblocking {
                        let r = coll.ialltoallv(ctx, &b, len, &body_counts);
                        coll.wait(ctx, r);
                    } else {
                        coll.alltoallv(ctx, &b, len, &body_counts);
                    }
                    bufs.insert("alltoallv", b.with(|d| d.to_vec()));
                    // --- reduce_scatter ---
                    let b = shmem::ShmBuffer::new(gn * len);
                    let vals: Vec<u64> = (0..gn * elems)
                        .map(|ix| (me * 2003 + ix * 29 + 7) as u64)
                        .collect();
                    b.with_mut(|d| d.copy_from_slice(&to_bytes_u64(&vals)));
                    if nonblocking {
                        let r = coll.ireduce_scatter(ctx, &b, len, DType::U64, ReduceOp::Sum);
                        coll.wait(ctx, r);
                    } else {
                        coll.reduce_scatter(ctx, &b, len, DType::U64, ReduceOp::Sum);
                    }
                    bufs.insert("reduce_scatter", b.with(|d| d.to_vec()));
                    bufs
                });

                let tag = format!("{imp:?} group {group:?} nb={nonblocking}");
                let elems = len / 8;
                // broadcast: everyone holds the root's payload.
                let expect: Vec<u8> = (0..len).map(|k| pair_byte(root_c, 0, k)).collect();
                for (me, r) in results.iter().enumerate() {
                    assert_eq!(r["bcast"], expect, "{tag}: bcast at comm rank {me}");
                }
                // reduce: the root holds the elementwise sum.
                let contribs: Vec<Vec<u8>> = (0..gn)
                    .map(|me| {
                        to_bytes_u64(
                            &(0..elems)
                                .map(|e| (me * 1009 + e * 17 + 1) as u64)
                                .collect::<Vec<_>>(),
                        )
                    })
                    .collect();
                let expect = reference_reduce(DType::U64, ReduceOp::Sum, &contribs);
                assert_eq!(results[root_b]["reduce"], expect, "{tag}: reduce root");
                // allreduce (max): everyone holds the elementwise max.
                let contribs: Vec<Vec<u8>> = (0..gn)
                    .map(|me| {
                        to_bytes_u64(&(0..elems).map(|e| (me * 31 + e) as u64).collect::<Vec<_>>())
                    })
                    .collect();
                let expect = reference_reduce(DType::U64, ReduceOp::Max, &contribs);
                for (me, r) in results.iter().enumerate() {
                    assert_eq!(
                        from_bytes_u64(&r["allreduce"]),
                        from_bytes_u64(&expect),
                        "{tag}: allreduce at comm rank {me}"
                    );
                }
                // gather: the root holds every comm rank's segment in order.
                for j in 0..gn {
                    for k in 0..len {
                        assert_eq!(
                            results[root_a]["gather"][j * len + k],
                            pair_byte(j, 1, k),
                            "{tag}: gather segment {j} byte {k}"
                        );
                    }
                }
                // scatter: each member's own segment holds the root's block.
                for (me, r) in results.iter().enumerate() {
                    for k in 0..len {
                        assert_eq!(
                            r["scatter"][me * len + k],
                            pair_byte(me, 2, k),
                            "{tag}: scatter at comm rank {me} byte {k}"
                        );
                    }
                }
                // allgather: everyone holds the full concatenation.
                for (me, r) in results.iter().enumerate() {
                    for j in 0..gn {
                        for k in 0..len {
                            assert_eq!(
                                r["allgather"][j * len + k],
                                pair_byte(j, 3, k),
                                "{tag}: allgather at {me}, segment {j} byte {k}"
                            );
                        }
                    }
                }
                // alltoall: recv segment j on comm rank me is j's send to me.
                for (me, r) in results.iter().enumerate() {
                    for j in 0..gn {
                        for k in 0..len {
                            assert_eq!(
                                r["alltoall"][gn * len + j * len + k],
                                pair_byte(j, me, k),
                                "{tag}: alltoall at {me}, from {j} byte {k}"
                            );
                        }
                    }
                }
                // alltoallv: live prefixes arrive, slack stays zero.
                for (me, r) in results.iter().enumerate() {
                    for j in 0..gn {
                        for k in 0..len {
                            let expect = if k < counts[j * gn + me] {
                                pair_byte(j, me, k)
                            } else {
                                0
                            };
                            assert_eq!(
                                r["alltoallv"][gn * len + j * len + k],
                                expect,
                                "{tag}: alltoallv at {me}, from {j} byte {k}"
                            );
                        }
                    }
                }
                // reduce_scatter: each member's own block of the full sum.
                let contribs: Vec<Vec<u8>> = (0..gn)
                    .map(|me| {
                        to_bytes_u64(
                            &(0..gn * elems)
                                .map(|ix| (me * 2003 + ix * 29 + 7) as u64)
                                .collect::<Vec<_>>(),
                        )
                    })
                    .collect();
                let full = reference_reduce(DType::U64, ReduceOp::Sum, &contribs);
                for (me, r) in results.iter().enumerate() {
                    assert_eq!(
                        &r["reduce_scatter"][me * len..(me + 1) * len],
                        &full[me * len..(me + 1) * len],
                        "{tag}: reduce_scatter block at comm rank {me}"
                    );
                }
            }
        }
    }
}

/// `comm_split` semantics: color groups, key-ordered membership (ties
/// broken by world rank), negative color opts out, and the returned
/// handles run collectives correctly.
#[test]
fn comm_split_orders_by_key_and_opts_out() {
    let topo = Topology::new(2, 3);
    let n = topo.nprocs();
    // Colors: rank 2 opts out; even/odd split otherwise. Keys reverse
    // world order inside each group.
    let colors: Vec<i64> = (0..n)
        .map(|r| if r == 2 { -1 } else { (r % 2) as i64 })
        .collect();
    let keys: Vec<i64> = (0..n).map(|r| -(r as i64)).collect();
    let mut sim = Sim::new(MachineConfig::ibm_sp_colony());
    let world = SrmWorld::new(&mut sim, topo, SrmTuning::default());
    let subs = world.comm_split(&colors, &keys);
    assert!(subs[2].is_none(), "negative color must opt out");
    // Expected groups in key order (keys descend with rank, so comm
    // rank order is descending world rank).
    let even = vec![4usize, 0];
    let odd = vec![5usize, 3, 1];
    let out = Arc::new(Mutex::new(vec![0u64; n]));
    for (rank, sub) in subs.into_iter().enumerate() {
        let wcomm = world.comm(rank);
        let (even, odd) = (even.clone(), odd.clone());
        let out = out.clone();
        sim.spawn(format!("rank{rank}"), move |ctx| {
            if let Some(sub) = sub {
                let group = if rank % 2 == 0 { &even } else { &odd };
                assert_eq!(sub.size(), group.len());
                assert_eq!(
                    sub.comm_rank(),
                    group.iter().position(|&r| r == rank).unwrap()
                );
                let buf = sub.alloc_buffer(8);
                buf.with_mut(|d| d.copy_from_slice(&to_bytes_u64(&[1 << rank])));
                sub.allreduce(&ctx, &buf, 8, DType::U64, ReduceOp::Bor);
                out.lock().unwrap()[rank] = from_bytes_u64(&buf.with(|d| d.to_vec()))[0];
            }
            wcomm.shutdown(&ctx);
        });
    }
    sim.run().unwrap();
    let got = out.lock().unwrap().clone();
    let even_bits: u64 = even.iter().map(|&r| 1u64 << r).sum();
    let odd_bits: u64 = odd.iter().map(|&r| 1u64 << r).sum();
    for (rank, &g) in got.iter().enumerate().take(n) {
        let expect = match rank {
            2 => 0,
            r if r % 2 == 0 => even_bits,
            _ => odd_bits,
        };
        assert_eq!(g, expect, "rank {rank}");
    }
}

/// Deadlock scans on subgroups: mixed op sequences over the
/// subcommunicator, bracketed by world-communicator collectives from
/// the same ranks, across shapes with uneven per-node membership.
#[test]
fn scan_subgroup_sequences() {
    let len = 40_000; // multi-chunk at the default 16 KB `SrmTuning::REDUCE_CHUNK`
    let cases: Vec<(usize, usize, Vec<usize>)> = vec![
        (2, 3, vec![0, 2, 4, 5]), // 2 members on node0, 2 on node1
        (3, 2, vec![1, 2, 5]),    // 1+1+1 across three nodes
        (2, 4, vec![3, 1, 6]),    // caller order != world order
        (2, 2, vec![1, 3]),       // non-masters only
    ];
    let seqs: Vec<Vec<&str>> = vec![
        vec!["reduce", "bcast", "allreduce"],
        vec!["gather", "scatter", "barrier"],
        vec!["alltoall", "reduce", "alltoall"],
        vec!["reduce_scatter", "allgather", "alltoallv"],
        vec!["allreduce", "alltoall", "barrier", "bcast"],
    ];
    let mut failures = Vec::new();
    for (nodes, tpn, group) in &cases {
        for seq in &seqs {
            let topo = Topology::new(*nodes, *tpn);
            let n = topo.nprocs();
            let gn = group.len();
            let mut sim = Sim::new(MachineConfig::ibm_sp_colony());
            let world = SrmWorld::new(&mut sim, topo, SrmTuning::default());
            let subs = world.comm_create(group);
            let mut sub_of: Vec<Option<srm::SrmComm>> = (0..n).map(|_| None).collect();
            for (sub, &rank) in subs.into_iter().zip(group) {
                sub_of[rank] = Some(sub);
            }
            for (rank, sub) in sub_of.into_iter().enumerate() {
                let wcomm = world.comm(rank);
                let seq: Vec<String> = seq.iter().map(|s| s.to_string()).collect();
                sim.spawn(format!("rank{rank}"), move |ctx| {
                    wcomm.barrier(&ctx);
                    if let Some(sub) = &sub {
                        let buf = sub.alloc_buffer(2 * gn * len);
                        let (dt, op) = (DType::F64, ReduceOp::Sum);
                        for s in &seq {
                            match s.as_str() {
                                "bcast" => sub.broadcast(&ctx, &buf, len, gn - 1),
                                "reduce" => sub.reduce(&ctx, &buf, len, dt, op, gn / 2),
                                "allreduce" => sub.allreduce(&ctx, &buf, len, dt, op),
                                "barrier" => sub.barrier(&ctx),
                                "gather" => sub.gather(&ctx, &buf, len, gn - 1),
                                "scatter" => sub.scatter(&ctx, &buf, len, 0),
                                "allgather" => sub.allgather(&ctx, &buf, len),
                                "alltoall" => sub.alltoall(&ctx, &buf, len),
                                "alltoallv" => sub.alltoallv(
                                    &ctx,
                                    &buf,
                                    len,
                                    &srm_cluster::ragged_counts(gn, len),
                                ),
                                "reduce_scatter" => sub.reduce_scatter(&ctx, &buf, len, dt, op),
                                _ => unreachable!(),
                            }
                        }
                    }
                    let wbuf = wcomm.alloc_buffer(len);
                    wcomm.allreduce(&ctx, &wbuf, len, DType::F64, ReduceOp::Sum);
                    wcomm.shutdown(&ctx);
                });
            }
            if let Err(e) = sim.run() {
                let msg = format!("{e:?}");
                failures.push(format!(
                    "({nodes}x{tpn}) group {group:?} {seq:?}: {}",
                    &msg[..msg.len().min(160)]
                ));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
