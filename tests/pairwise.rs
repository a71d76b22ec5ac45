//! The pairwise RMA exchange subsystem observed through the simulator
//! metrics: alltoall takes its one wire with exact message counts at
//! every size, reduce_scatter's two routes agree, its credit window
//! genuinely throttles (stalls appear when it is tight and disappear
//! when it is ample).

use collops::{reference_reduce, Collectives, DType, NonblockingCollectives, ReduceOp};
use simnet::{MachineConfig, MetricsSnapshot, Sim, Topology};
use srm::plan::{BufRef, Step};
use srm::{PlanShape, SrmComm, SrmTuning, SrmWorld};
use srm_cluster::{measure, HarnessOpts, Impl, Op};
use std::collections::BTreeSet;
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
/// through the rings.
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
/// nothing through the rings, no credit traffic at all — with results
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
    assert_eq!(m.pairwise_puts, 0, "alltoall must not touch the rings");
    assert_eq!(m.credit_stalls, 0, "no ring credits, no credit stalls");
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
    assert_eq!(m.pairwise_puts, 0, "direct route must bypass the rings");
    assert_eq!(m.credit_stalls, 0, "no ring credits, no credit stalls");
    let (res_staged, m_staged) = run(SrmTuning {
        pairwise_direct_min: usize::MAX,
        ..SrmTuning::default()
    });
    assert_eq!(m_staged.pairwise_direct_puts, 0);
    assert_eq!(m_staged.pairwise_puts, 48, "the same pieces, ring by ring");
    for rank in 0..n {
        let seg = rank * len..(rank + 1) * len;
        assert!(res_direct[rank][seg.clone()] == expect[seg.clone()]);
        assert!(res_staged[rank][seg.clone()] == expect[seg], "rank {rank}");
    }
}

/// The credit window is real back-pressure on the staged reduce_scatter
/// streams, its one user: a window of 1 with many pieces per stream
/// stalls the sender, an ample window does not, and the results are
/// identical either way.
#[test]
fn credit_window_throttles_and_preserves_results() {
    let topo = Topology::new(2, 2);
    let n = topo.nprocs();
    let len = 16 * 1024usize;
    let tight = SrmTuning {
        pairwise_chunk: 512, // 64 pieces per 2-task block
        pairwise_window: 1,  // every piece waits for the previous drain
        ..SrmTuning::default()
    };
    let ample = SrmTuning {
        pairwise_chunk: 512,
        pairwise_window: 64,
        ..SrmTuning::default()
    };
    let (contribs, expect) = reduce_scatter_inputs(n, len / 8);
    // Blocking, and the same call issued nonblocking then waited: the
    // interleaving executor parks on an empty credit counter instead of
    // blocking in place, and must observe the same stalls.
    for nonblocking in [false, true] {
        let run = |t: SrmTuning| {
            let contribs = contribs.clone();
            run_with_metrics(
                topo,
                t,
                n * len,
                move |rank| contribs[rank].clone(),
                move |ctx, comm, buf| {
                    if nonblocking {
                        let req = comm.ireduce_scatter(ctx, buf, len, DType::U64, ReduceOp::Sum);
                        comm.wait(ctx, req);
                    } else {
                        comm.reduce_scatter(ctx, buf, len, DType::U64, ReduceOp::Sum);
                    }
                },
            )
        };
        let (res_tight, m_tight) = run(tight);
        let (res_ample, m_ample) = run(ample);
        assert!(
            m_tight.credit_stalls > 0,
            "window=1 with 64-piece streams must stall on credits (nonblocking: {nonblocking})"
        );
        assert_eq!(
            m_ample.credit_stalls, 0,
            "a window covering the whole stream must never stall (nonblocking: {nonblocking})"
        );
        assert_eq!(m_tight.pairwise_puts, 128, "2 masters x 64 pieces");
        assert_eq!(m_tight.pairwise_puts, m_ample.pairwise_puts);
        for rank in 0..n {
            let seg = rank * len..(rank + 1) * len;
            assert!(res_tight[rank][seg.clone()] == expect[seg.clone()]);
            assert!(res_ample[rank][seg.clone()] == expect[seg], "rank {rank}");
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

/// A multi-node exchange of segments up to `interrupt_disable_max` runs
/// with interrupts off on every rank (§2.3): each rank lands its inbound
/// puts by polling in its drain waits, so no put takes an interrupt.
/// The ragged 8 KB alltoallv keeps fewer than one interrupt per rank
/// over the four timed calls (294 on 4×4 with interrupts on): ranks
/// finish unevenly, and a peer's address message for the next call can
/// reach a rank after it switched interrupts back on (what reached it
/// before is polled by the switch) or while the rank still sits in the
/// harness barrier. Above the cut, and on one node,
/// the plan carries no toggle,
/// and the 4×4 / 16 KB exchange keeps the time it had before.
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
            assert_eq!(
                toggles(topo, shape),
                BTreeSet::from([0]),
                "{nodes}x{tpn} 16 KB"
            );
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
    assert_eq!(format!("{t:.1}"), "637.8", "4x4 / 16 KB");
}

// --- First use -------------------------------------------------------
//
// The pairwise registry (ring channels, completion counters) and the
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
