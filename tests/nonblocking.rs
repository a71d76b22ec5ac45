//! Correctness of the nonblocking (`i`-prefixed) collectives across
//! every implementation: SRM's interleaving executor and the eager MPI
//! baselines must produce exactly the blocking results, for every op,
//! on shared-root and segment semantics alike.
//!
//! Each scenario issues the op nonblocking, interleaves simulated
//! compute with `test` polls (exercising the dispatcher-poll progress
//! path), then waits — so the schedules genuinely run through the
//! parked/resumed machinery rather than completing at issue.

use collops::{reference_reduce, DType, NonblockingCollectives, ReduceOp};
use mpi_coll::MpiColl;
use msg::{MsgWorld, Vendor};
use simnet::{Ctx, MachineConfig, Perturb, Sim, SimTime, Topology};
use srm::plan::Step;
use srm::{PlanShape, SrmComm, SrmModel, SrmTuning, SrmWorld};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

#[derive(Clone, Copy, Debug, PartialEq)]
enum IOp {
    Bcast,
    Reduce,
    Allreduce,
    Barrier,
    Gather,
    Scatter,
    Allgather,
    Alltoall,
    Alltoallv,
    ReduceScatter,
}

const ALL_OPS: [IOp; 10] = [
    IOp::Bcast,
    IOp::Reduce,
    IOp::Allreduce,
    IOp::Barrier,
    IOp::Gather,
    IOp::Scatter,
    IOp::Allgather,
    IOp::Alltoall,
    IOp::Alltoallv,
    IOp::ReduceScatter,
];

/// Buffer capacity for `op` at per-segment parameter `seg_len`.
fn total_for(op: IOp, n: usize, seg_len: usize) -> usize {
    match op {
        IOp::Gather | IOp::Scatter | IOp::Allgather | IOp::ReduceScatter => (n * seg_len).max(8),
        IOp::Alltoall | IOp::Alltoallv => (2 * n * seg_len).max(8),
        _ => seg_len.max(8),
    }
}

#[derive(Clone, Copy, Debug)]
enum Which {
    Srm,
    IbmMpi,
    Mpich,
}

/// Issue `op` nonblocking, poll `test` around compute slices, wait.
fn drive<C: NonblockingCollectives>(
    ctx: &Ctx,
    coll: &C,
    buf: &shmem::ShmBuffer,
    n: usize,
    len: usize,
    op: IOp,
    root: usize,
) {
    let req = match op {
        IOp::Bcast => coll.ibroadcast(ctx, buf, len, root),
        IOp::Reduce => coll.ireduce(ctx, buf, len, DType::U64, ReduceOp::Sum, root),
        IOp::Allreduce => coll.iallreduce(ctx, buf, len, DType::U64, ReduceOp::Sum),
        IOp::Barrier => coll.ibarrier(ctx),
        IOp::Gather => coll.igather(ctx, buf, len, root),
        IOp::Scatter => coll.iscatter(ctx, buf, len, root),
        IOp::Allgather => coll.iallgather(ctx, buf, len),
        IOp::Alltoall => coll.ialltoall(ctx, buf, len),
        IOp::Alltoallv => coll.ialltoallv(ctx, buf, len, &srm_cluster::ragged_counts(n, len)),
        IOp::ReduceScatter => coll.ireduce_scatter(ctx, buf, len, DType::U64, ReduceOp::Sum),
    };
    // Overlapped compute: a few slices with completion polls between.
    let mut done = false;
    for _ in 0..4 {
        ctx.advance(SimTime::from_us(5));
        if coll.test(ctx, &req) {
            done = true;
            break;
        }
    }
    if done {
        // `test` success is sticky: the wait must return immediately.
        assert!(coll.test(ctx, &req));
    }
    coll.wait(ctx, req);
}

/// Per-rank initial payload: distinct bytes per (rank, index) so any
/// misrouted segment is visible.
fn init_bytes(rank: usize, total: usize) -> Vec<u8> {
    (0..total)
        .map(|i| (rank as u64 * 131 + i as u64 * 7 + 3) as u8)
        .collect()
}

/// Run `op` under `which` on every rank; return per-rank final buffers.
/// With `perturb`, the run executes under the seeded perturbation layer
/// (jitter/stalls/straggler) — results must not change.
fn run_nb(
    which: Which,
    topo: Topology,
    seg_len: usize,
    op: IOp,
    root: usize,
    perturb: Option<Perturb>,
) -> Vec<Vec<u8>> {
    let n = topo.nprocs();
    let total = total_for(op, n, seg_len);
    let mut sim = Sim::new(MachineConfig::ibm_sp_colony());
    if let Some(p) = perturb {
        sim.set_perturb(p);
    }
    enum World {
        Srm(SrmWorld),
        Mpi(MsgWorld),
    }
    let world = match which {
        Which::Srm => World::Srm(SrmWorld::new(&mut sim, topo, SrmTuning::default())),
        Which::IbmMpi => World::Mpi(MsgWorld::new(&mut sim, topo, Vendor::IbmMpi)),
        Which::Mpich => World::Mpi(MsgWorld::new(&mut sim, topo, Vendor::Mpich)),
    };
    let out = Arc::new(Mutex::new(vec![Vec::new(); n]));
    for rank in 0..n {
        let out = out.clone();
        match &world {
            World::Srm(w) => {
                let comm = w.comm(rank);
                sim.spawn(format!("rank{rank}"), move |ctx| {
                    let buf = comm.alloc_buffer(total);
                    buf.with_mut(|d| d.copy_from_slice(&init_bytes(rank, total)));
                    drive(&ctx, &comm, &buf, n, seg_len, op, root);
                    out.lock().unwrap()[rank] = buf.with(|d| d.to_vec());
                    comm.shutdown(&ctx);
                });
            }
            World::Mpi(w) => {
                let coll = MpiColl::new(w.endpoint(rank));
                sim.spawn(format!("rank{rank}"), move |ctx| {
                    let buf = shmem::ShmBuffer::new(total);
                    buf.with_mut(|d| d.copy_from_slice(&init_bytes(rank, total)));
                    drive(&ctx, &coll, &buf, n, seg_len, op, root);
                    out.lock().unwrap()[rank] = buf.with(|d| d.to_vec());
                });
            }
        }
    }
    sim.run().expect("simulation completes");
    Arc::try_unwrap(out).unwrap().into_inner().unwrap()
}

/// The regions of each rank's buffer the op's contract specifies, and
/// their expected contents, computed from the sequential reference.
fn check(op: IOp, topo: Topology, seg_len: usize, root: usize, got: &[Vec<u8>], tag: &str) {
    let n = topo.nprocs();
    let total = total_for(op, n, seg_len);
    let inits: Vec<Vec<u8>> = (0..n).map(|r| init_bytes(r, total)).collect();
    match op {
        IOp::Barrier => {}
        IOp::Bcast => {
            for (r, g) in got.iter().enumerate() {
                assert_eq!(
                    g[..seg_len],
                    inits[root][..seg_len],
                    "{tag}: rank {r} broadcast payload"
                );
            }
        }
        IOp::Reduce | IOp::Allreduce => {
            // Round the payload down to whole u64 lanes for the
            // reference (the drivers only use multiple-of-8 lengths).
            let contribs: Vec<Vec<u8>> = inits.iter().map(|i| i[..seg_len].to_vec()).collect();
            let expect = reference_reduce(DType::U64, ReduceOp::Sum, &contribs);
            let ranks: Vec<usize> = if op == IOp::Reduce {
                vec![root]
            } else {
                (0..n).collect()
            };
            for r in ranks {
                assert_eq!(got[r][..seg_len], expect[..], "{tag}: rank {r} reduction");
            }
        }
        IOp::Gather => {
            for (src, init) in inits.iter().enumerate() {
                assert_eq!(
                    got[root][src * seg_len..(src + 1) * seg_len],
                    init[src * seg_len..(src + 1) * seg_len],
                    "{tag}: root segment from rank {src}"
                );
            }
        }
        IOp::Scatter => {
            for (r, g) in got.iter().enumerate() {
                assert_eq!(
                    g[r * seg_len..(r + 1) * seg_len],
                    inits[root][r * seg_len..(r + 1) * seg_len],
                    "{tag}: rank {r} scattered segment"
                );
            }
        }
        IOp::Allgather => {
            for (r, g) in got.iter().enumerate() {
                for (src, init) in inits.iter().enumerate() {
                    assert_eq!(
                        g[src * seg_len..(src + 1) * seg_len],
                        init[src * seg_len..(src + 1) * seg_len],
                        "{tag}: rank {r} segment from rank {src}"
                    );
                }
            }
        }
        IOp::Alltoall => {
            let rbase = n * seg_len;
            for (r, g) in got.iter().enumerate() {
                for (src, init) in inits.iter().enumerate() {
                    assert_eq!(
                        g[rbase + src * seg_len..rbase + (src + 1) * seg_len],
                        init[r * seg_len..(r + 1) * seg_len],
                        "{tag}: rank {r} received segment from rank {src}"
                    );
                }
            }
        }
        IOp::Alltoallv => {
            let rbase = n * seg_len;
            let counts = srm_cluster::ragged_counts(n, seg_len);
            for (r, g) in got.iter().enumerate() {
                for (src, init) in inits.iter().enumerate() {
                    let c = counts[src * n + r];
                    assert_eq!(
                        g[rbase + src * seg_len..rbase + src * seg_len + c],
                        init[r * seg_len..r * seg_len + c],
                        "{tag}: rank {r} live prefix from rank {src}"
                    );
                }
            }
        }
        IOp::ReduceScatter => {
            let expect = reference_reduce(DType::U64, ReduceOp::Sum, &inits);
            for (r, g) in got.iter().enumerate() {
                assert_eq!(
                    g[r * seg_len..(r + 1) * seg_len],
                    expect[r * seg_len..(r + 1) * seg_len],
                    "{tag}: rank {r} reduced block"
                );
            }
        }
    }
}

/// Every i-op, every implementation, several shapes and sizes: results
/// must match the sequential reference (and therefore each other).
#[test]
fn iops_match_reference_across_impls() {
    for (nodes, tpn) in [(1, 4), (2, 2), (2, 3)] {
        let topo = Topology::new(nodes, tpn);
        let n = topo.nprocs();
        for op in ALL_OPS {
            let lens: &[usize] = match op {
                IOp::Barrier => &[8],
                IOp::Gather
                | IOp::Scatter
                | IOp::Allgather
                | IOp::Alltoall
                | IOp::Alltoallv
                | IOp::ReduceScatter => &[8, 4096],
                _ => &[8, 40_000],
            };
            for &seg_len in lens {
                let root = (n - 1) % n;
                for which in [Which::Srm, Which::IbmMpi, Which::Mpich] {
                    let got = run_nb(which, topo, seg_len, op, root, None);
                    let tag = format!("{which:?} {op:?} {nodes}x{tpn} len={seg_len}");
                    check(op, topo, seg_len, root, &got, &tag);
                }
            }
        }
    }
}

/// Perturbed replay of the SRM scenarios: the same i-op results under
/// delivery jitter, bounded reordering, compute stalls and a straggler.
/// Seed counts stay small here (tier-1); the big sweeps live in the
/// `explore --seeds` harness and the CI `stress-smoke` job.
#[test]
fn srm_iops_survive_perturbation() {
    let topo = Topology::new(2, 3);
    let n = topo.nprocs();
    for op in ALL_OPS {
        let seg_len = if op == IOp::Barrier { 8 } else { 1024 };
        for seed in 0..3u64 {
            let perturb =
                Perturb::standard(seed).with_straggler(seed as usize % n, SimTime::from_us(40));
            let root = (seed as usize + 1) % n;
            let got = run_nb(Which::Srm, topo, seg_len, op, root, Some(perturb));
            let tag = format!("Srm {op:?} perturbed seed={seed} len={seg_len}");
            check(op, topo, seg_len, root, &got, &tag);
        }
    }
}

/// SRM large-message nonblocking broadcast (address-exchange protocol)
/// delivers correct data with a second schedule outstanding.
#[test]
fn srm_large_ibcast_with_outstanding_reduce() {
    let topo = Topology::new(2, 2);
    let n = topo.nprocs();
    let len = 100_000; // above the 64 KB small/large switch
    let mut sim = Sim::new(MachineConfig::ibm_sp_colony());
    let world = SrmWorld::new(&mut sim, topo, SrmTuning::default());
    for rank in 0..n {
        let comm = world.comm(rank);
        sim.spawn(format!("rank{rank}"), move |ctx| {
            let big = comm.alloc_buffer(len);
            let small = comm.alloc_buffer(8);
            big.with_mut(|d| d.copy_from_slice(&init_bytes(rank, len)));
            small.with_mut(|d| d.copy_from_slice(&(rank as u64 + 1).to_le_bytes()));
            let r1 = comm.ibroadcast(&ctx, &big, len, 0);
            let r2 = comm.ireduce(&ctx, &small, 8, DType::U64, ReduceOp::Sum, 0);
            ctx.advance(SimTime::from_us(20));
            comm.wait(&ctx, r1);
            comm.wait(&ctx, r2);
            big.with(|d| assert_eq!(d[..], init_bytes(0, len)[..], "rank {rank} payload"));
            if rank == 0 {
                let got = small.with(|d| u64::from_le_bytes(d[..8].try_into().unwrap()));
                assert_eq!(got, (1..=n as u64).sum::<u64>());
            }
            comm.shutdown(&ctx);
        });
    }
    sim.run().expect("no deadlock");
}

/// Five calls whose plans switch LAPI interrupts off outstanding
/// together: a small `ialltoall` and `ialltoallv` (every rank toggles)
/// beside an `ibroadcast`, an `ireduce` and an `ibarrier` (the masters
/// toggle). Whichever call switches interrupts back on first, a put
/// still lands once its target next polls, so every payload is exact:
/// on the world and on a parity split, in both issue orders, with and
/// without perturbation.
#[test]
fn srm_interrupt_toggling_calls_outstanding_together() {
    let topo = Topology::new(4, 4);
    let n = topo.nprocs();
    let (x_len, bcast_len, reduce_len) = (512, 4096, 8);
    for split in [false, true] {
        for reversed in [false, true] {
            for perturb in [None, Some(Perturb::standard(7))] {
                let mut sim = Sim::new(MachineConfig::ibm_sp_colony());
                if let Some(p) = perturb {
                    sim.set_perturb(p);
                }
                let world = SrmWorld::new(&mut sim, topo, SrmTuning::default());
                let comms: Vec<SrmComm> = if split {
                    let colors: Vec<i64> = (0..n).map(|r| (r % 2) as i64).collect();
                    let parts = world.comm_split(&colors, &vec![0; n]).into_iter();
                    parts.map(|c| c.expect("colored")).collect()
                } else {
                    (0..n).map(|r| world.comm(r)).collect()
                };
                let tag = format!(
                    "split {split}, reversed {reversed}, perturbed {}",
                    perturb.is_some()
                );
                for comm in comms {
                    let tag = format!("{tag}, rank {}", comm.rank());
                    sim.spawn(format!("rank{}", comm.rank()), move |ctx| {
                        let group = comm.group().ranks().to_vec();
                        let (gn, me) = (group.len(), comm.comm_rank());
                        let counts = srm_cluster::ragged_counts(gn, x_len);
                        let init = |len| {
                            let buf = comm.alloc_buffer(len);
                            buf.with_mut(|d| d.copy_from_slice(&init_bytes(comm.rank(), len)));
                            buf
                        };
                        let (a2a, a2av) = (init(2 * gn * x_len), init(2 * gn * x_len));
                        let (big, red) = (init(bcast_len), init(reduce_len));
                        let issue = |k| match k {
                            0 => comm.ialltoall(&ctx, &a2a, x_len),
                            1 => comm.ialltoallv(&ctx, &a2av, x_len, &counts),
                            2 => comm.ibroadcast(&ctx, &big, bcast_len, 1),
                            3 => comm.ireduce(&ctx, &red, reduce_len, DType::U64, ReduceOp::Sum, 0),
                            _ => comm.ibarrier(&ctx),
                        };
                        let mut order = [0, 1, 2, 3, 4];
                        if reversed {
                            order.reverse();
                        }
                        let reqs = order.into_iter().map(issue).collect();
                        ctx.advance(SimTime::from_us(20));
                        comm.wait_all(&ctx, reqs);
                        let sent = |r: usize| init_bytes(group[r], 2 * gn * x_len);
                        let rbase = gn * x_len;
                        a2a.with(|d| {
                            for src in 0..gn {
                                let got = &d[rbase + src * x_len..][..x_len];
                                let want = &sent(src)[me * x_len..][..x_len];
                                assert_eq!(got, want, "{tag}: alltoall from {src}");
                            }
                        });
                        a2av.with(|d| {
                            for src in 0..gn {
                                let c = counts[src * gn + me];
                                let got = &d[rbase + src * x_len..][..c];
                                let want = &sent(src)[me * x_len..][..c];
                                assert_eq!(got, want, "{tag}: alltoallv from {src}");
                            }
                        });
                        let payload = init_bytes(group[1], bcast_len);
                        big.with(|d| assert_eq!(d[..], payload[..], "{tag}: broadcast"));
                        if me == 0 {
                            let contribs: Vec<Vec<u8>> =
                                group.iter().map(|&r| init_bytes(r, reduce_len)).collect();
                            let sum = reference_reduce(DType::U64, ReduceOp::Sum, &contribs);
                            red.with(|d| assert_eq!(d[..], sum[..], "{tag}: reduce"));
                        }
                        comm.shutdown(&ctx);
                    });
                }
                sim.run().expect("no deadlock");
            }
        }
    }
}

/// Three large calls whose wire ranks switch interrupts off at every
/// size (§2.3 with no cap) outstanding together through user compute:
/// a 256 KB `ireduce`, `iallreduce` and `ibroadcast`. On every node one
/// rank toggles in each plan, the root on its own node. Compute between
/// `test` polls only delays the puts aimed at a quiet wire rank to its
/// next poll, so every payload is exact: on the world and on a parity
/// split, in both issue orders, with and without perturbation.
#[test]
fn srm_large_quiet_calls_outstanding_through_compute() {
    let topo = Topology::new(4, 4);
    let n = topo.nprocs();
    let len = 256 << 10;
    let (bcast_root, reduce_root) = (1, 2);
    let shapes = [
        PlanShape::Reduce {
            len,
            root: reduce_root,
        },
        PlanShape::Allreduce { len },
        PlanShape::Bcast {
            len,
            root: bcast_root,
        },
    ];
    for split in [false, true] {
        for reversed in [false, true] {
            for perturb in [None, Some(Perturb::standard(11))] {
                let mut sim = Sim::new(MachineConfig::ibm_sp_colony());
                if let Some(p) = perturb {
                    sim.set_perturb(p);
                }
                let world = SrmWorld::new(&mut sim, topo, SrmTuning::default());
                let comms: Vec<SrmComm> = if split {
                    let colors: Vec<i64> = (0..n).map(|r| (r % 2) as i64).collect();
                    let parts = world.comm_split(&colors, &vec![0; n]).into_iter();
                    parts.map(|c| c.expect("colored")).collect()
                } else {
                    (0..n).map(|r| world.comm(r)).collect()
                };
                let tag = format!(
                    "split {split}, reversed {reversed}, perturbed {}",
                    perturb.is_some()
                );
                // The toggling ranks of each plan, by (part, node): one
                // each, and on a rooted call's own node the root.
                let place =
                    |c: &SrmComm| (c.rank() % 2 * usize::from(split), topo.node_of(c.rank()));
                for shape in &shapes {
                    let mut togglers: BTreeMap<(usize, usize), Vec<usize>> = BTreeMap::new();
                    for comm in &comms {
                        let plan = comm.build_plan(&comm.key(shape.clone()));
                        if (plan.steps.iter()).any(|s| matches!(s, Step::SetInterrupts(false))) {
                            togglers
                                .entry(place(comm))
                                .or_default()
                                .push(comm.comm_rank());
                        }
                    }
                    let parts = if split { 2 } else { 1 };
                    assert_eq!(togglers.len(), parts * topo.nodes(), "{tag}, {shape:?}");
                    for (at, on) in &togglers {
                        assert_eq!(on.len(), 1, "{tag}, {shape:?}: {at:?}: {on:?}");
                    }
                    if let PlanShape::Bcast { root, .. } | PlanShape::Reduce { root, .. } = *shape {
                        for c in comms.iter().filter(|c| c.comm_rank() == root) {
                            assert_eq!(togglers[&place(c)], [root], "{tag}, {shape:?}: root");
                        }
                    }
                }
                for comm in comms {
                    let tag = format!("{tag}, rank {}", comm.rank());
                    sim.spawn(format!("rank{}", comm.rank()), move |ctx| {
                        let group = comm.group().ranks().to_vec();
                        let me = comm.comm_rank();
                        let [red, all, big] = [0; 3].map(|_| {
                            let buf = comm.alloc_buffer(len);
                            buf.with_mut(|d| d.copy_from_slice(&init_bytes(comm.rank(), len)));
                            buf
                        });
                        let (sum, u64s) = (ReduceOp::Sum, DType::U64);
                        let issue = |k| match k {
                            0 => comm.ireduce(&ctx, &red, len, u64s, sum, reduce_root),
                            1 => comm.iallreduce(&ctx, &all, len, u64s, sum),
                            _ => comm.ibroadcast(&ctx, &big, len, bcast_root),
                        };
                        let mut order = [0, 1, 2];
                        if reversed {
                            order.reverse();
                        }
                        let reqs: Vec<_> = order.into_iter().map(issue).collect();
                        // User compute in slices, polling every call.
                        for _ in 0..8 {
                            ctx.advance(SimTime::from_us(150));
                            for req in &reqs {
                                comm.test(&ctx, req);
                            }
                        }
                        comm.wait_all(&ctx, reqs);
                        let contribs: Vec<Vec<u8>> =
                            group.iter().map(|&r| init_bytes(r, len)).collect();
                        let total = reference_reduce(DType::U64, ReduceOp::Sum, &contribs);
                        all.with(|d| assert_eq!(d[..], total[..], "{tag}: allreduce"));
                        if me == reduce_root {
                            red.with(|d| assert_eq!(d[..], total[..], "{tag}: reduce"));
                        }
                        let payload = init_bytes(group[bcast_root], len);
                        big.with(|d| assert_eq!(d[..], payload[..], "{tag}: broadcast"));
                        comm.shutdown(&ctx);
                    });
                }
                sim.run().expect("no deadlock");
            }
        }
    }
}

/// An `iallreduce` the closed form composes — a reduce to group node
/// 0's master, then a broadcast from it — outstanding together with a
/// large `ibroadcast` (address mailbox) and a chunked `ireduce`, on the
/// world and on the two parts of a split that each span both nodes.
#[test]
fn srm_composed_iallreduce_with_outstanding_rooted_calls() {
    let topo = Topology::new(2, 8);
    let n = topo.nprocs();
    let (all_len, bcast_len, reduce_len) = (512 << 10, 100_000, 40_000);
    for split in [false, true] {
        let mut sim = Sim::new(MachineConfig::ibm_sp_colony());
        let world = SrmWorld::new(&mut sim, topo, SrmTuning::default());
        let comms: Vec<SrmComm> = if split {
            let colors: Vec<i64> = (0..n).map(|r| (r % 2) as i64).collect();
            let parts = world.comm_split(&colors, &vec![0; n]).into_iter();
            parts.map(|c| c.expect("colored")).collect()
        } else {
            (0..n).map(|r| world.comm(r)).collect()
        };
        let tpn = comms[0].size() / topo.nodes();
        let model = SrmModel::new(
            MachineConfig::ibm_sp_colony(),
            Topology::new(topo.nodes(), tpn),
            SrmTuning::default(),
        );
        assert!(model.allreduce_composes(all_len), "2x{tpn}");
        for comm in comms {
            sim.spawn(format!("rank{}", comm.rank()), move |ctx| {
                let group = comm.group().ranks().to_vec();
                let (me, last) = (comm.comm_rank(), group.len() - 1);
                let bufs = [all_len, bcast_len, reduce_len].map(|len| {
                    let buf = comm.alloc_buffer(len);
                    buf.with_mut(|d| d.copy_from_slice(&init_bytes(comm.rank(), len)));
                    buf
                });
                let [all, big, red] = &bufs;
                let reqs = [
                    comm.ibroadcast(&ctx, big, bcast_len, 1),
                    comm.iallreduce(&ctx, all, all_len, DType::U64, ReduceOp::Sum),
                    comm.ireduce(&ctx, red, reduce_len, DType::U64, ReduceOp::Sum, last),
                ];
                ctx.advance(SimTime::from_us(20));
                reqs.into_iter().for_each(|r| comm.wait(&ctx, r));
                let sum = |len| {
                    let contribs: Vec<Vec<u8>> =
                        group.iter().map(|&r| init_bytes(r, len)).collect();
                    reference_reduce(DType::U64, ReduceOp::Sum, &contribs)
                };
                let tag = format!("split {split}, comm rank {me}");
                all.with(|d| assert_eq!(d[..], sum(all_len)[..], "{tag}: allreduce"));
                let payload = init_bytes(group[1], bcast_len);
                big.with(|d| assert_eq!(d[..], payload[..], "{tag}: broadcast"));
                if me == last {
                    red.with(|d| assert_eq!(d[..], sum(reduce_len)[..], "{tag}: reduce"));
                }
                comm.shutdown(&ctx);
            });
        }
        sim.run().expect("no deadlock");
    }
}
