//! Golden schedule digests: the behaviour gate for planner and engine
//! refactors.
//!
//! Every scenario of a pinned lattice runs three back-to-back calls
//! with step tracing on and is reduced to one 64-bit digest of, per
//! rank in order, the **count and virtual timestamps** of its `step:*`
//! trace events, its final virtual time and its result bytes. Label
//! text is excluded, so renaming or merging step kinds leaves a digest
//! alone while any change to what a schedule does, or when, moves it.
//!
//! The committed table (`schedule_golden.digests`, one
//! `scenario digest` line each) was generated once from the code this
//! test was first committed against. On a mismatch the test prints the
//! scenario and the digest it computed.

use collops::{Collectives, DType, NonblockingCollectives, ReduceOp};
use shmem::ShmBuffer;
use simnet::{Ctx, MachineConfig, Sim, Topology, Trace};
use srm::{SrmComm, SrmTuning, SrmWorld, TreeKind};
use srm_cluster::Op;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

const TABLE: &str = include_str!("schedule_golden.digests");
const SIZES: [usize; 4] = [8, 4 << 10, 24 << 10, 128 << 10];
/// The allreduce adds a size at which the 2x3 and 4x4 worlds run it as
/// a reduce then a broadcast.
const ALLREDUCE_SIZES: [usize; 5] = [8, 4 << 10, 24 << 10, 128 << 10, 512 << 10];
const CALLS: usize = 3;

/// What one scenario calls, three times over.
#[derive(Clone, Copy)]
enum Call {
    /// One of the ten collectives; `last` roots it at the last comm
    /// rank instead of rank 0.
    Coll { op: Op, last: bool },
    /// Broadcast on a single-node world — the flat two-buffer
    /// algorithm alone — in a buffer of alltoall capacity (the scenarios
    /// predate the ten-op lattice and keep their names and digests).
    SmpBcast { last: bool },
    /// Four nonblocking collectives outstanding together, then waited.
    Overlap,
    /// Four more, outstanding together, then waited: the reduce
    /// landings and the staged reduce_scatter's rings beside each
    /// other, which `Overlap`'s mix never puts side by side.
    OverlapLandings,
}

/// FNV-1a over 8-byte words (result buffers run to megabytes and
/// tier-1 runs unoptimized), then over the trailing bytes.
fn fnv(h: &mut u64, bytes: &[u8]) {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let words = bytes.chunks_exact(8);
    let tail = words.remainder();
    for w in words {
        let w = u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
        *h = (*h ^ w).wrapping_mul(PRIME);
    }
    for &b in tail {
        *h = (*h ^ b as u64).wrapping_mul(PRIME);
    }
}

fn one_call(ctx: &Ctx, comm: &SrmComm, bufs: &[ShmBuffer], call: Call, len: usize) {
    let n = comm.size();
    let root_of = |last: bool| if last { n - 1 } else { 0 };
    let buf = &bufs[0];
    match call {
        Call::Coll { op, last } => {
            let sum = Some((DType::U64, ReduceOp::Sum));
            comm.call(ctx, op.shape(len, root_of(last), n), buf, sum)
        }
        Call::SmpBcast { last } => comm.broadcast(ctx, buf, len, root_of(last)),
        Call::Overlap => {
            let reqs = vec![
                comm.ibroadcast(ctx, &bufs[0], len, 0),
                comm.ireduce(ctx, &bufs[1], len, DType::U64, ReduceOp::Sum, n - 1),
                comm.ibarrier(ctx),
                comm.ialltoall(ctx, &bufs[2], len),
            ];
            comm.wait_all(ctx, reqs);
        }
        Call::OverlapLandings => {
            let sum = (DType::U64, ReduceOp::Sum);
            let reqs = vec![
                comm.iallreduce(ctx, &bufs[0], len, sum.0, sum.1),
                comm.iallgather(ctx, &bufs[1], len),
                comm.ireduce_scatter(ctx, &bufs[2], len, sum.0, sum.1),
                comm.igather(ctx, &bufs[3], len, n - 1),
            ];
            comm.wait_all(ctx, reqs);
        }
    }
}

/// Run one scenario and digest it.
fn digest(topo: Topology, tuning: SrmTuning, split: bool, call: Call, len: usize) -> u64 {
    let n = topo.nprocs();
    let mut sim = Sim::new(MachineConfig::ibm_sp_colony());
    let trace = Trace::new();
    sim.attach_trace(trace.clone());
    let tuning = SrmTuning {
        trace_steps: true,
        ..tuning
    };
    let world = SrmWorld::new(&mut sim, topo, tuning);
    let subs: Vec<Option<SrmComm>> = if split {
        let colors: Vec<i64> = (0..n as i64).map(|r| r % 2).collect();
        world.comm_split(&colors, &vec![0; n])
    } else {
        (0..n).map(|_| None).collect()
    };
    let finals = Arc::new(Mutex::new(vec![(0u64, Vec::new()); n]));
    for (rank, sub) in subs.into_iter().enumerate() {
        let wcomm = world.comm(rank);
        let finals = finals.clone();
        sim.spawn(format!("rank{rank}"), move |ctx| {
            let comm = sub.as_ref().unwrap_or(&wcomm);
            // At least 8 bytes: the digests cover the whole buffer and
            // were recorded with that floor.
            let op = match call {
                Call::Coll { op, .. } => op,
                _ => Op::Alltoall,
            };
            let cap = op.shape(len, 0, comm.size()).extent(comm.size()).max(8);
            let nbufs = match call {
                Call::Overlap => 3,
                Call::OverlapLandings => 4,
                _ => 1,
            };
            let bufs: Vec<ShmBuffer> = (0..nbufs)
                .map(|b| {
                    let buf = comm.alloc_buffer(cap);
                    buf.with_mut(|d| {
                        for (i, x) in d.iter_mut().enumerate() {
                            *x = (i * 7 + rank * 31 + b * 101 + 3) as u8;
                        }
                    });
                    buf
                })
                .collect();
            for _ in 0..CALLS {
                one_call(&ctx, comm, &bufs, call, len);
            }
            let bytes = bufs.iter().flat_map(|b| b.with(|d| d.to_vec())).collect();
            finals.lock().unwrap()[rank] = (ctx.now().as_ps(), bytes);
            wcomm.shutdown(&ctx);
        });
    }
    sim.run().expect("golden scenario completes");

    // Only rank LPs log `step:*` events, and they were spawned in rank
    // order, so ascending LP id is ascending rank.
    let mut by_lp: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
    for e in trace.with_prefix("step:") {
        // Steps that executed nothing (deleted since): not digested, so
        // the table pins protocol steps only.
        if e.label == "step:trace" || e.label == "step:advance" {
            continue;
        }
        by_lp.entry(e.lp).or_default().push(e.at.as_ps());
    }
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for stamps in by_lp.values() {
        fnv(&mut h, &(stamps.len() as u64).to_le_bytes());
        for at in stamps {
            fnv(&mut h, &at.to_le_bytes());
        }
    }
    for (end, bytes) in finals.lock().unwrap().iter() {
        fnv(&mut h, &end.to_le_bytes());
        fnv(&mut h, &(bytes.len() as u64).to_le_bytes());
        fnv(&mut h, bytes);
    }
    h
}

/// Compare `scenarios` against the committed table; print every
/// mismatch as a table line and fail if there was one.
fn check(scenarios: Vec<(String, u64)>) {
    let table: HashMap<&str, &str> = TABLE.lines().filter_map(|l| l.split_once(' ')).collect();
    let mut bad = 0;
    for (name, got) in &scenarios {
        let got = format!("{got:016x}");
        if table.get(name.as_str()) != Some(&got.as_str()) {
            println!("{name} {got}");
            bad += 1;
        }
    }
    assert_eq!(
        bad,
        0,
        "{bad} of {} scenario digests differ from tests/schedule_golden.digests \
         (computed values printed above)",
        scenarios.len()
    );
}

/// The ten ops × sizes × roots × {world, parity split} on one topology.
fn lattice(nodes: usize, tpn: usize) {
    let topo = Topology::new(nodes, tpn);
    let mut out = Vec::new();
    for split in [false, true] {
        let scope = if split { "split" } else { "world" };
        for op in Op::ALL {
            let sizes: &[usize] = match op {
                Op::Barrier => &[8],
                Op::Allreduce => &ALLREDUCE_SIZES,
                _ => &SIZES,
            };
            let roots: &[bool] = if op.shape(8, 0, 1).root().is_some() {
                &[false, true]
            } else {
                &[false]
            };
            for &len in sizes {
                for &last in roots {
                    let root = if last { "last" } else { "0" };
                    let name = format!("{}/{len}/{nodes}x{tpn}/r{root}/{scope}", op.name());
                    let call = Call::Coll { op, last };
                    // A multi-chunk broadcast or reduce derives its
                    // trees, and a multi-chunk allreduce may run as the
                    // two; a forced kind overrides that. These hold the
                    // digests the derived lines had while binomial was
                    // the one default.
                    let tree_op = matches!(op, Op::Bcast | Op::Reduce | Op::Allreduce);
                    if tree_op && len > 16 << 10 && nodes > 1 {
                        let forced = SrmTuning {
                            tree: Some(TreeKind::Binomial),
                            ..SrmTuning::default()
                        };
                        let forced = digest(topo, forced, split, call, len);
                        out.push((format!("binomial/{name}"), forced));
                    }
                    out.push((name, digest(topo, SrmTuning::default(), split, call, len)));
                }
            }
        }
    }
    check(out);
}

#[test]
fn lattice_1x4() {
    lattice(1, 4);
}

#[test]
fn lattice_2x3() {
    lattice(2, 3);
}

#[test]
fn lattice_3x2() {
    lattice(3, 2);
}

#[test]
fn lattice_4x4() {
    lattice(4, 4);
}

/// The single-node broadcast, reduce_scatter's other route, and
/// overlapped nonblocking calls.
#[test]
fn forced_variants() {
    let mut out = Vec::new();
    let smp = Topology::new(1, 4);
    for len in SIZES {
        for last in [false, true] {
            let w = if last { "last" } else { "0" };
            let call = Call::SmpBcast { last };
            out.push((
                format!("smp-bcast/{len}/1x4/w{w}"),
                digest(smp, SrmTuning::default(), false, call, len),
            ));
        }
    }
    for (nodes, tpn) in [(2, 3), (3, 2), (4, 4)] {
        let topo = Topology::new(nodes, tpn);
        for split in [false, true] {
            let scope = if split { "split" } else { "world" };
            for len in SIZES {
                // Only reduce_scatter has two routes; force the one the
                // default does not pick at this segment size (the lattice
                // already pins the other).
                let (direct_min, route) = if len >= SrmTuning::default().pairwise_direct_min {
                    (usize::MAX, "staged")
                } else {
                    (0, "direct")
                };
                let forced = SrmTuning {
                    pairwise_direct_min: direct_min,
                    ..SrmTuning::default()
                };
                let op = Op::ReduceScatter;
                out.push((
                    format!("{route}/{}/{len}/{nodes}x{tpn}/{scope}", op.name()),
                    digest(topo, forced, split, Call::Coll { op, last: false }, len),
                ));
                out.push((
                    format!("overlap/{len}/{nodes}x{tpn}/{scope}"),
                    digest(topo, SrmTuning::default(), split, Call::Overlap, len),
                ));
            }
        }
    }
    check(out);
}

/// The second nonblocking mix on the lattice's topologies.
#[test]
fn overlap_landings() {
    let mut out = Vec::new();
    for (nodes, tpn) in [(1, 4), (2, 3), (3, 2), (4, 4)] {
        let topo = Topology::new(nodes, tpn);
        for split in [false, true] {
            let scope = if split { "split" } else { "world" };
            for len in SIZES {
                let call = Call::OverlapLandings;
                out.push((
                    format!("overlap-landings/{len}/{nodes}x{tpn}/{scope}"),
                    digest(topo, SrmTuning::default(), split, call, len),
                ));
            }
        }
    }
    check(out);
}
