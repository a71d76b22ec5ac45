//! The pairwise RMA exchange subsystem observed through the simulator
//! metrics: alltoall takes its one wire with exact message counts at
//! every size, reduce_scatter's two routes agree, and the staged
//! route's credits genuinely throttle its streams without moving its
//! times.

use collops::{reference_reduce, Collectives, DType, NonblockingCollectives, ReduceOp};
use simnet::{MachineConfig, MetricsSnapshot, Sim, Topology};
use srm::plan::{BufRef, Step};
use srm::{PlanShape, SrmComm, SrmTuning, SrmWorld};
use srm_cluster::{measure, HarnessOpts, Impl, Op};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

/// Run `body` on every rank; return final buffers and the run metrics.
fn run_with_metrics(
    topo: Topology,
    tuning: SrmTuning,
    cap: usize,
    init: impl Fn(usize) -> Vec<u8> + Send + Sync + 'static,
    body: impl Fn(&simnet::Ctx, &srm::SrmComm, &shmem::ShmBuffer) + Send + Sync + 'static,
) -> (Vec<Vec<u8>>, MetricsSnapshot) {
    let n = topo.nprocs();
    let mut sim = Sim::new(MachineConfig::ibm_sp_colony());
    let world = SrmWorld::new(&mut sim, topo, tuning);
    let out = Arc::new(Mutex::new(vec![Vec::new(); n]));
    let init = Arc::new(init);
    let body = Arc::new(body);
    for rank in 0..n {
        let comm = world.comm(rank);
        let out = out.clone();
        let init = init.clone();
        let body = body.clone();
        sim.spawn(format!("rank{rank}"), move |ctx| {
            let buf = comm.alloc_buffer(cap.max(8));
            let image = init(rank);
            buf.with_mut(|d| d[..image.len()].copy_from_slice(&image));
            body(&ctx, &comm, &buf);
            out.lock().unwrap()[rank] = buf.with(|d| d.to_vec());
            comm.shutdown(&ctx);
        });
    }
    let report = sim.run().expect("simulation completes");
    let results = Arc::try_unwrap(out).unwrap().into_inner().unwrap();
    (results, report.metrics)
}

fn send_half(rank: usize, n: usize, len: usize) -> Vec<u8> {
    (0..n * len)
        .map(|i| (rank * 97 + i * 5 + 11) as u8)
        .collect()
}

/// Every member's `elems`-word reduce_scatter contribution per result
/// segment, as bytes, and the element-wise sum of them all.
fn reduce_scatter_inputs(n: usize, elems: usize) -> (Vec<Vec<u8>>, Vec<u8>) {
    let contribs: Vec<Vec<u8>> = (0..n)
        .map(|r| {
            let words: Vec<u64> = (0..n * elems)
                .map(|i| (r * 6007 + i * 13 + 1) as u64)
                .collect();
            collops::to_bytes_u64(&words)
        })
        .collect();
    let expect = reference_reduce(DType::U64, ReduceOp::Sum, &contribs);
    (contribs, expect)
}

/// Alltoall has one route at default tuning, whatever the segment size:
/// one address message and one put per ordered remote pair, nothing
/// through the `Ring` landings.
#[test]
fn alltoall_takes_its_one_route_with_exact_counts() {
    let topo = Topology::new(3, 2);
    let n = topo.nprocs();
    for len in [4096usize, 8] {
        let (got, m) = run_with_metrics(
            topo,
            SrmTuning::default(),
            2 * n * len,
            move |rank| send_half(rank, n, len),
            move |ctx, comm, buf| comm.alltoall(ctx, buf, len),
        );
        // 6 ranks x 4 remote peers = 24 ordered pairs.
        assert_eq!(m.pairwise_direct_puts, 24, "{len} B");
        assert_eq!(m.rma_ams, 24, "{len} B");
        assert_eq!(m.rma_puts, 24, "{len} B: no credit or other put");
        assert_eq!(m.pairwise_puts, 0, "{len} B");
        for (rank, buf) in got.iter().enumerate() {
            assert!(buf == &alltoall_expect(rank, n, len, |c| c), "rank {rank}");
        }
    }
}

/// At 64 KB alltoall issues exactly one address-exchanged put per
/// ordered remote pair and matches the sequential reference; at the
/// default 64 KB threshold reduce_scatter takes the direct route too —
/// nothing through the `Ring` landings, no credit traffic at all — with results
/// bit-identical to a forced-staged run of the same call.
#[test]
fn direct_route_exact_put_count_and_staged_parity() {
    let topo = Topology::new(3, 2);
    let n = topo.nprocs();
    let len = 64 * 1024usize;
    let (got, m) = run_with_metrics(
        topo,
        SrmTuning::default(),
        2 * n * len,
        move |rank| send_half(rank, n, len),
        move |ctx, comm, buf| comm.alltoall(ctx, buf, len),
    );
    // 6 ranks x 4 remote peers = 24 ordered pairs, one unchunked put
    // each.
    assert_eq!(m.pairwise_direct_puts, 24);
    assert_eq!(
        m.pairwise_puts, 0,
        "alltoall must not touch the `Ring` landings"
    );
    assert_eq!(m.credit_stalls, 0, "no `Ring` credits, no credit stalls");
    for (rank, buf) in got.iter().enumerate() {
        assert!(buf == &alltoall_expect(rank, n, len, |c| c), "rank {rank}");
    }

    let (contribs, expect) = reduce_scatter_inputs(n, len / 8);
    let run = move |t: SrmTuning| {
        let contribs = contribs.clone();
        run_with_metrics(
            topo,
            t,
            n * len,
            move |rank| contribs[rank].clone(),
            move |ctx, comm, buf| comm.reduce_scatter(ctx, buf, len, DType::U64, ReduceOp::Sum),
        )
    };
    let (res_direct, m) = run(SrmTuning::default());
    // Each master streams its 2 x 64 KB block for either peer node in
    // 16 KB pieces: 3 masters x 2 peers x 8 pieces.
    assert_eq!(m.pairwise_direct_puts, 48);
    assert_eq!(m.pairwise_puts, 0, "direct route must skip `Ring`");
    assert_eq!(m.credit_stalls, 0, "no `Ring` credits, no credit stalls");
    let (res_staged, m_staged) = run(SrmTuning {
        pairwise_direct_min: usize::MAX,
        ..SrmTuning::default()
    });
    assert_eq!(m_staged.pairwise_direct_puts, 0);
    assert_eq!(m_staged.pairwise_puts, 48, "the same pieces, on `Ring`");
    for rank in 0..n {
        let seg = rank * len..(rank + 1) * len;
        assert!(res_direct[rank][seg.clone()] == expect[seg.clone()]);
        assert!(res_staged[rank][seg.clone()] == expect[seg], "rank {rank}");
    }
}

/// Each `Ring` side's one credit is real back-pressure on the staged
/// reduce_scatter streams, its one user: a source master waits for the
/// credit of piece `k - 2` before it puts piece `k`. Between two masters
/// that stream to each other equally the returns keep pace with the
/// puts, so the group is uneven: ranks 0, 1 and 2 of 2×2, whose
/// one-task node streams 64 pieces to the two-task node and takes 32
/// back. Past its own block it only reduces and puts, and stalls on
/// credits — blocking, and issued nonblocking then waited — with
/// results exact either way.
#[test]
fn credit_window_throttles_and_preserves_results() {
    let topo = Topology::new(2, 2);
    let group = [0, 1, 2];
    let (n, len) = (group.len(), 16 * 1024usize);
    let staged = SrmTuning {
        pairwise_chunk: 512,
        pairwise_direct_min: usize::MAX,
        ..SrmTuning::default()
    };
    let (contribs, expect) = reduce_scatter_inputs(n, len / 8);
    // The interleaving executor parks on an empty credit counter
    // instead of blocking in place, and must observe the stalls too.
    for nonblocking in [false, true] {
        let mut sim = Sim::new(MachineConfig::ibm_sp_colony());
        let world = SrmWorld::new(&mut sim, topo, staged);
        let mut subs = world.comm_create(&group).into_iter();
        let out = Arc::new(Mutex::new(vec![Vec::new(); n]));
        for rank in 0..topo.nprocs() {
            let (wcomm, sub, out) = (world.comm(rank), subs.next(), out.clone());
            let mine = contribs.get(rank).cloned();
            sim.spawn(format!("rank{rank}"), move |ctx| {
                if let (Some(comm), Some(mine)) = (sub, mine) {
                    let buf = comm.alloc_buffer(n * len);
                    buf.with_mut(|d| d.copy_from_slice(&mine));
                    if nonblocking {
                        let req = comm.ireduce_scatter(&ctx, &buf, len, DType::U64, ReduceOp::Sum);
                        comm.wait(&ctx, req);
                    } else {
                        comm.reduce_scatter(&ctx, &buf, len, DType::U64, ReduceOp::Sum);
                    }
                    out.lock().unwrap()[rank] = buf.with(|d| d.to_vec());
                }
                wcomm.shutdown(&ctx);
            });
        }
        let m = sim.run().expect("simulation completes").metrics;
        assert!(
            m.credit_stalls > 0,
            "a 64-piece stream must stall on credits (nonblocking: {nonblocking})"
        );
        assert_eq!(m.pairwise_puts, 96, "64 pieces one way, 32 back");
        for (rank, res) in out.lock().unwrap().iter().enumerate() {
            let seg = rank * len..(rank + 1) * len;
            assert!(res[seg.clone()] == expect[seg], "rank {rank}");
        }
    }
}

// The staged reduce_scatter's times (`harness::measure`, four calls a
// measurement, the direct route off), in picoseconds, from when its
// landing was one ring of `pairwise_window` slots under a shared pool
// of credits and the master reduced every piece: on each `(nodes, tasks
// per node)` of `STAGED_TOPOS`, at 8 B, 512 B, 4 KB, 16 KB, 32 KB and
// 48 KB segments.
const STAGED_TOPOS: [(usize, usize); 11] = [
    (4, 4),
    (2, 16),
    (4, 8),
    (4, 16),
    (8, 4),
    (16, 1),
    (16, 4),
    (3, 5),
    (8, 16),
    (2, 2),
    (5, 3),
];
#[rustfmt::skip]
const STAGED_PS: [[u64; 6]; 11] = [
    [75218088, 109485416, 442877752, 1749629536, 3488620256, 5227610976],
    [34103448, 194167128, 1463495504, 6201242864, 12403295728, 18605348592],
    [78226176, 180314872, 1127866240, 4545504256, 9088381696, 13631259136],
    [81655448, 364397384, 2817445504, 11570797864, 23142450728, 34714103592],
    [98288232, 193805632, 862306656, 3389904624, 6757439344, 10124974064],
    [212480714, 219000000, 352941464, 1270378200, 2231994600, 3154367456],
    [205588520, 364805632, 1708160832, 6679799440, 13304422160, 19929044880],
    [61824040, 112657040, 565400472, 2155853432, 4305611896, 6455370360],
    [136804448, 722919768, 5494791408, 22315503768, 44626356632, 66937209496],
    [31090044, 38337816, 113877528, 383619536, 767089072, 1150558608],
    [84424282, 117431136, 417440592, 1616299160, 3213374264, 4810449368],
];

/// No staged time is above its pin: the two credited sides gate the
/// same puts as the ring's two slots and pool of two credits did, and
/// spreading the node leg over the slots only takes fold work off the
/// master. With one task per node there is no node leg, so those times
/// stay the same to the picosecond.
#[test]
fn staged_reduce_scatter_keeps_its_times() {
    let lens = [8, 512, 4 << 10, 16 << 10, 32 << 10, 48 << 10];
    let opts = HarnessOpts {
        iters: 4,
        srm: SrmTuning {
            pairwise_direct_min: usize::MAX,
            ..SrmTuning::default()
        },
    };
    let mut moved = Vec::new();
    for ((nodes, tpn), pinned) in STAGED_TOPOS.into_iter().zip(STAGED_PS) {
        let topo = Topology::new(nodes, tpn);
        for (len, want) in lens.into_iter().zip(pinned) {
            let machine = MachineConfig::ibm_sp_colony();
            let got = measure(Impl::Srm, machine, topo, Op::ReduceScatter, len, opts);
            let got = got.per_call.as_ps();
            if got > want || tpn == 1 && got != want {
                moved.push(format!("{topo}, {len} B: {got} vs {want} ps"));
            }
        }
    }
    assert!(
        moved.is_empty(),
        "staged times above their pins: {moved:#?}"
    );
}

/// The reduce_scatter's node leg, read off the **compiled plans** of
/// every member (plans are data; nothing runs): the folds are spread
/// over each node's slots, no slot folding more than 1.25× its node's
/// mean (the master held 73 % of them on 4×4 / 256 KB when it reduced
/// every piece), and the wire stays between the masters, each ordered
/// node pair carrying the destination's block, `cslots_on(dst)·len`
/// bytes.
#[test]
fn reduce_scatter_folds_spread_over_the_node() {
    for (nodes, tpn) in [(4, 4), (2, 8), (1, 16), (3, 5)] {
        for (len, split) in [16 << 10, 256 << 10]
            .into_iter()
            .flat_map(|l| [(l, false), (l, true)])
        {
            let topo = Topology::new(nodes, tpn);
            let n = topo.nprocs();
            let mut sim = Sim::new(MachineConfig::ibm_sp_colony());
            let world = SrmWorld::new(&mut sim, topo, SrmTuning::default());
            let handles: Vec<SrmComm> = if split {
                let colors: Vec<i64> = (0..n).map(|r| (r % 2) as i64).collect();
                let subs = world.comm_split(&colors, &vec![0; n]);
                subs.into_iter().map(|c| c.expect("colored")).collect()
            } else {
                (0..n).map(|r| world.comm(r)).collect()
            };
            let comm_ids: BTreeSet<u64> = handles.iter().map(|c| c.comm_id()).collect();
            for id in comm_ids {
                let members: Vec<&SrmComm> = handles.iter().filter(|c| c.comm_id() == id).collect();
                let group = members[0].group();
                let what = format!("{nodes}x{tpn} comm {id}, {len} B");
                // Bytes folded per (node, slot), bytes put per node pair.
                let mut folded: BTreeMap<(usize, usize), usize> = BTreeMap::new();
                let mut wire: BTreeMap<(usize, usize), usize> = BTreeMap::new();
                for comm in &members {
                    let plan = comm.build_plan(&comm.key(PlanShape::ReduceScatter { len }));
                    let (node, slot) = group.coord_of(comm.comm_rank());
                    let at = folded.entry((node, slot)).or_default();
                    for step in &plan.steps {
                        let (to, bytes) = match *step {
                            Step::LocalReduce { len, .. } => {
                                *at += len;
                                continue;
                            }
                            Step::RmaPut { to, len, .. } => (to, len),
                            Step::CounterPut { to, .. } => (to, 0),
                            _ => continue,
                        };
                        let to = group.coord_of(group.comm_rank_of(to).expect("a member"));
                        assert_eq!((slot, to.1), (0, 0), "{what}: a put off the masters");
                        *wire.entry((node, to.0)).or_default() += bytes;
                    }
                }
                for g in 0..group.node_count() {
                    let slots: Vec<usize> =
                        (0..group.slots_on(g)).map(|s| folded[&(g, s)]).collect();
                    let mean = slots.iter().sum::<usize>() as f64 / slots.len() as f64;
                    let max = *slots.iter().max().expect("a slot");
                    assert!(
                        max as f64 <= 1.25 * mean,
                        "{what}: node {g} folds {slots:?}"
                    );
                }
                for (src, dst) in (0..group.node_count())
                    .flat_map(|s| (0..group.node_count()).map(move |d| (s, d)))
                {
                    let want = if src == dst {
                        None
                    } else {
                        Some(group.slots_on(dst) * len)
                    };
                    assert_eq!(
                        wire.get(&(src, dst)).copied(),
                        want,
                        "{what}: {src} -> {dst}"
                    );
                }
            }
        }
    }
}

/// The exchange's orderings, read off the **compiled plans** of every
/// member of a uniform communicator (plans are data; nothing runs):
/// the `k`-th put of all ranks targets pairwise distinct ranks, every
/// put precedes the first intra-node copy into a contribution buffer,
/// and the intra-node rounds pair every (publisher, consumer) of a node
/// exactly once, each round a permutation.
#[test]
fn exchange_plans_permute_the_wire_and_rotate_the_node() {
    for (nodes, tpn, split) in [(4, 4, false), (4, 16, false), (3, 2, true)] {
        let topo = Topology::new(nodes, tpn);
        let n = topo.nprocs();
        let mut sim = Sim::new(MachineConfig::ibm_sp_colony());
        let world = SrmWorld::new(&mut sim, topo, SrmTuning::default());
        let handles: Vec<SrmComm> = if split {
            let colors: Vec<i64> = (0..n).map(|r| (r % 2) as i64).collect();
            let subs = world.comm_split(&colors, &vec![0; n]);
            subs.into_iter().map(|c| c.expect("colored")).collect()
        } else {
            (0..n).map(|r| world.comm(r)).collect()
        };
        let comm_ids: BTreeSet<u64> = handles.iter().map(|c| c.comm_id()).collect();
        for id in comm_ids {
            let members: Vec<&SrmComm> = handles.iter().filter(|c| c.comm_id() == id).collect();
            let what = format!("{nodes}x{tpn} comm {id}");
            // Per member: its group coordinates, put targets in issue
            // order, and the slots whose contribution buffer it reads.
            let mut wires: Vec<Vec<usize>> = Vec::new();
            let mut reads: Vec<((usize, usize), Vec<usize>)> = Vec::new();
            for comm in &members {
                let plan = comm.build_plan(&comm.key(PlanShape::Alltoall { len: 4096 }));
                let (node, slot) = comm.group().coord_of(comm.comm_rank());
                let mut puts = Vec::new();
                let mut from = Vec::new();
                let mut published = 0;
                for step in &plan.steps {
                    match *step {
                        Step::RmaPut { to, .. } => {
                            assert_eq!(published, 0, "{what}: a put after the local leg began");
                            puts.push(to);
                        }
                        Step::ShmCopy {
                            dst: BufRef::Contrib { slot: s, .. },
                            ..
                        } => {
                            assert_eq!(s, slot, "{what}: published in a foreign buffer");
                            published += 1;
                        }
                        Step::ShmCopy {
                            src: BufRef::Contrib { slot: s, .. },
                            ..
                        } => from.push(s),
                        _ => {}
                    }
                }
                let local = comm.group().slots_on(node) - 1;
                assert_eq!(puts.len(), members.len() - local - 1, "{what}");
                assert_eq!((published, from.len()), (local, local), "{what}");
                wires.push(puts);
                reads.push(((node, slot), from));
            }
            for k in 0..wires[0].len() {
                let targets: BTreeSet<usize> = wires.iter().map(|w| w[k]).collect();
                assert_eq!(targets.len(), members.len(), "{what}: put {k} converges");
            }
            let mut pairs = BTreeSet::new();
            for r in 0..reads[0].1.len() {
                // (node, publisher) of round `r`, over all consumers.
                let round: BTreeSet<(usize, usize)> = reads
                    .iter()
                    .map(|((node, _), from)| (*node, from[r]))
                    .collect();
                assert_eq!(
                    round.len(),
                    members.len(),
                    "{what}: round {r} shares a publisher"
                );
                for ((node, slot), from) in &reads {
                    assert_ne!(from[r], *slot, "{what}: a slot consumed itself");
                    assert!(
                        pairs.insert((*node, from[r], *slot)),
                        "{what}: pair met twice"
                    );
                }
            }
        }
    }
}

/// A multi-node alltoall runs with interrupts off on every rank at every
/// size (§2.3 with no cap), the alltoallv for segments up to 8 KB: each
/// rank lands its inbound puts by polling in its drain waits, so no put
/// takes an interrupt. The ragged 8 KB alltoallv keeps fewer than one
/// interrupt per rank over the four timed calls (294 on 4×4 with
/// interrupts on): ranks finish unevenly, and a peer's address message
/// for the next call can reach a rank after it switched interrupts back
/// on (what reached it before is polled by the switch) or while the rank
/// still sits in the harness barrier. The 16 KB alltoallv, and anything
/// on one node, carries no toggle.
#[test]
fn small_exchanges_take_no_interrupts() {
    let toggles = |topo: Topology, shape: PlanShape| {
        let mut sim = Sim::new(MachineConfig::ibm_sp_colony());
        let world = SrmWorld::new(&mut sim, topo, SrmTuning::default());
        (0..topo.nprocs())
            .map(|r| {
                let comm = world.comm(r);
                let plan = comm.build_plan(&comm.key(shape.clone()));
                let on: Vec<bool> = (plan.steps.iter())
                    .filter_map(|s| match *s {
                        Step::SetInterrupts(on) => Some(on),
                        _ => None,
                    })
                    .collect();
                let ends = (plan.steps.first(), plan.steps.last());
                let bracketed = matches!(
                    ends,
                    (
                        Some(Step::SetInterrupts(false)),
                        Some(Step::SetInterrupts(true))
                    )
                );
                assert_eq!(
                    bracketed,
                    !on.is_empty(),
                    "rank {r}: toggles inside the plan"
                );
                on.len()
            })
            .collect::<BTreeSet<usize>>()
    };
    let us = |topo, op, len| {
        let m = measure(
            Impl::Srm,
            MachineConfig::ibm_sp_colony(),
            topo,
            op,
            len,
            HarnessOpts::default(),
        );
        (m.per_call.as_us(), m.metrics.interrupts)
    };
    for (nodes, tpn) in [(4, 4), (2, 8), (4, 16)] {
        let topo = Topology::new(nodes, tpn);
        for op in [Op::Alltoall, Op::Alltoallv] {
            for len in [8, 512, 8 << 10] {
                let what = format!("{} {len} B on {nodes}x{tpn}", op.name());
                let shape = op.shape(len, 0, topo.nprocs());
                assert_eq!(
                    toggles(topo, shape),
                    BTreeSet::from([2]),
                    "{what}: every rank"
                );
                let taken = us(topo, op, len).1;
                if op == Op::Alltoallv && len > 512 {
                    assert!(taken < topo.nprocs() as u64, "{what}: {taken}");
                } else {
                    assert_eq!(taken, 0, "{what}");
                }
            }
            let shape = op.shape(16 << 10, 0, topo.nprocs());
            let what = format!("{} 16 KB on {nodes}x{tpn}", op.name());
            if op == Op::Alltoall {
                assert_eq!(toggles(topo, shape), BTreeSet::from([2]), "{what}");
                assert_eq!(us(topo, op, 16 << 10).1, 0, "{what}");
            } else {
                assert_eq!(toggles(topo, shape), BTreeSet::from([0]), "{what}");
            }
        }
    }
    let one_node = Topology::new(1, 4);
    let shape = Op::Alltoall.shape(8, 0, 4);
    assert_eq!(toggles(one_node, shape), BTreeSet::from([0]), "single node");
    let (t, _) = us(Topology::new(4, 4), Op::Alltoall, 512);
    assert!(t <= 75.0, "4x4 / 512 B: {t:.1} us");
    let (t, _) = us(Topology::new(4, 16), Op::Alltoall, 512);
    assert!(t <= 320.0, "4x16 / 512 B: {t:.1} us");
    let (t, _) = us(Topology::new(4, 4), Op::Alltoall, 16 << 10);
    assert_eq!(format!("{t:.1}"), "615.6", "4x4 / 16 KB");
}

// --- First use -------------------------------------------------------
//
// The pairwise registry (`Ring` pairs, completion counters) and the
// mailbox slots of the address exchange are created when a
// communicator first touches them. These are the orderings in which a
// peer's address send could arrive before its target has touched
// anything pairwise.

/// The 64 KB segment at which reduce_scatter takes the direct route by
/// default.
const DIRECT_LEN: usize = 64 * 1024;

/// What member `me` of an `n`-member alltoall must hold afterwards:
/// its own send half untouched, then segment `i` of the receive half
/// from member `i`. `world_of` maps a member to the rank whose
/// [`send_half`] it sent.
fn alltoall_expect(me: usize, n: usize, len: usize, world_of: impl Fn(usize) -> usize) -> Vec<u8> {
    let mut want = send_half(world_of(me), n, len);
    for i in 0..n {
        want.extend_from_slice(&send_half(world_of(i), n, len)[me * len..(me + 1) * len]);
    }
    want
}

/// (a) blocking and (c) nonblocking: the first pairwise call of a
/// world is an alltoall.
#[test]
fn first_pairwise_call_of_a_world_takes_the_direct_route() {
    let topo = Topology::new(3, 2);
    let n = topo.nprocs();
    for nonblocking in [false, true] {
        let (got, m) = run_with_metrics(
            topo,
            SrmTuning::default(),
            2 * n * DIRECT_LEN,
            move |rank| send_half(rank, n, DIRECT_LEN),
            move |ctx, comm, buf| {
                if nonblocking {
                    let req = comm.ialltoall(ctx, buf, DIRECT_LEN);
                    comm.wait(ctx, req);
                } else {
                    comm.alltoall(ctx, buf, DIRECT_LEN);
                }
            },
        );
        // One put per ordered remote pair, as pinned above.
        assert_eq!(m.pairwise_direct_puts, 24, "nonblocking: {nonblocking}");
        assert_eq!(m.pairwise_puts, 0);
        for (rank, buf) in got.iter().enumerate() {
            assert!(
                buf == &alltoall_expect(rank, n, DIRECT_LEN, |c| c),
                "rank {rank} (nonblocking: {nonblocking})"
            );
        }
    }
}

/// (b) The first pairwise call anywhere is on `comm_split`
/// sub-communicators; the world communicator only ever runs barriers.
#[test]
fn first_pairwise_call_on_a_split_communicator() {
    let topo = Topology::new(3, 2);
    let n = topo.nprocs();
    let mut sim = Sim::new(MachineConfig::ibm_sp_colony());
    let world = SrmWorld::new(&mut sim, topo, SrmTuning::default());
    // Parity groups: one member per node, three nodes each.
    let colors: Vec<i64> = (0..n).map(|r| (r % 2) as i64).collect();
    let subs = world.comm_split(&colors, &vec![0; n]);
    let out = Arc::new(Mutex::new(vec![Vec::new(); n]));
    for (rank, sub) in subs.into_iter().enumerate() {
        let sub = sub.expect("every rank has a color");
        let comm = world.comm(rank);
        let out = out.clone();
        sim.spawn(format!("rank{rank}"), move |ctx| {
            let gn = sub.size();
            let buf = sub.alloc_buffer(2 * gn * DIRECT_LEN);
            let image = send_half(rank, gn, DIRECT_LEN);
            buf.with_mut(|d| d[..image.len()].copy_from_slice(&image));
            comm.barrier(&ctx);
            sub.alltoall(&ctx, &buf, DIRECT_LEN);
            comm.barrier(&ctx);
            out.lock().unwrap()[rank] = buf.with(|d| d.to_vec());
            comm.shutdown(&ctx);
        });
    }
    let report = sim.run().expect("simulation completes");
    // Two groups of three single-member nodes: 3 x 2 puts each.
    assert_eq!(report.metrics.pairwise_direct_puts, 12);
    assert_eq!(report.metrics.pairwise_puts, 0);
    for (rank, buf) in out.lock().unwrap().iter().enumerate() {
        let want = alltoall_expect(rank / 2, 3, DIRECT_LEN, |c| 2 * c + rank % 2);
        assert!(buf == &want, "rank {rank}");
    }
}

/// (d) The first pairwise call is a direct-route reduce_scatter, whose
/// scratch handles travel over the same address AM.
#[test]
fn first_pairwise_call_is_a_direct_reduce_scatter() {
    let topo = Topology::new(3, 2);
    let n = topo.nprocs();
    let (contribs, expect) = reduce_scatter_inputs(n, DIRECT_LEN / 8);
    let (got, m) = run_with_metrics(
        topo,
        SrmTuning::default(),
        n * DIRECT_LEN,
        move |rank| contribs[rank].clone(),
        move |ctx, comm, buf| comm.reduce_scatter(ctx, buf, DIRECT_LEN, DType::U64, ReduceOp::Sum),
    );
    // Each master streams its 2 x 64 KB block for either peer node in
    // 16 KB pieces: 3 masters x 2 peers x 8 pieces.
    assert_eq!(m.pairwise_direct_puts, 48);
    assert_eq!(m.pairwise_puts, 0);
    for (rank, buf) in got.iter().enumerate() {
        let seg = rank * DIRECT_LEN..(rank + 1) * DIRECT_LEN;
        assert!(buf[seg.clone()] == expect[seg], "rank {rank}");
    }
}
