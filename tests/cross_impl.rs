//! Cross-implementation integration tests: SRM and both MPI baselines
//! run the same collectives on the same inputs; results must agree,
//! and the paper's structural claims must hold in the metrics and in
//! the modelled times.

use collops::{
    from_bytes_u64, reference_reduce, to_bytes_u64, Collectives, DType, ReduceOp, Shape,
};
use mpi_coll::MpiColl;
use msg::{MsgWorld, Vendor};
use simnet::{MachineConfig, Sim, SimError, SimTime, Topology};
use srm::{SrmTuning, SrmWorld};
use srm_cluster::{measure, HarnessOpts, Impl, Op};
use std::sync::{Arc, Mutex};

/// Every rank of `topo` makes one call of `shape` under `imp` — summing
/// `u64`s where it reduces — on a `cap`-byte buffer that starts as
/// `init(rank)` followed by zeros. Returns every rank's final buffer,
/// or the message of the panic the world ended in.
fn run_call(
    imp: Impl,
    topo: Topology,
    shape: Shape,
    cap: usize,
    init: impl Fn(usize) -> Vec<u8> + Send + Sync + 'static,
) -> Result<Vec<Vec<u8>>, String> {
    let mut sim = Sim::new(MachineConfig::ibm_sp_colony());
    enum World {
        Srm(SrmWorld),
        Mpi(MsgWorld),
    }
    let world = match imp {
        Impl::Srm => World::Srm(SrmWorld::new(&mut sim, topo, SrmTuning::default())),
        Impl::IbmMpi => World::Mpi(MsgWorld::new(&mut sim, topo, Vendor::IbmMpi)),
        Impl::Mpich => World::Mpi(MsgWorld::new(&mut sim, topo, Vendor::Mpich)),
    };
    let out = Arc::new(Mutex::new(vec![Vec::new(); topo.nprocs()]));
    let init = Arc::new(init);
    for rank in 0..topo.nprocs() {
        let (coll, srm_comm): (Box<dyn Collectives + Send>, Option<srm::SrmComm>) = match &world {
            World::Srm(w) => (Box::new(w.comm(rank)), Some(w.comm(rank))),
            World::Mpi(w) => (Box::new(MpiColl::new(w.endpoint(rank))), None),
        };
        let (out, init, shape) = (out.clone(), init.clone(), shape.clone());
        sim.spawn(format!("rank{rank}"), move |ctx| {
            let buf = shmem::ShmBuffer::new(cap);
            let image = init(rank);
            buf.with_mut(|d| d[..image.len()].copy_from_slice(&image));
            coll.call(&ctx, shape, &buf, Some((DType::U64, ReduceOp::Sum)));
            out.lock().unwrap()[rank] = buf.with(|d| d.to_vec());
            if let Some(c) = srm_comm {
                c.shutdown(&ctx);
            }
        });
    }
    match sim.run() {
        Ok(_) => Ok(Arc::try_unwrap(out).unwrap().into_inner().unwrap()),
        Err(SimError::LpPanic { message, .. }) => Err(message),
        Err(other) => panic!("{}: {other:?}", imp.name()),
    }
}

/// One well-formed call of `op` ([`Op::shape`]) in a buffer of exactly
/// its extent; `init` may fill anywhere up to that (e.g. the send half
/// of a split alltoall buffer).
fn run_once(
    imp: Impl,
    topo: Topology,
    len: usize,
    init: impl Fn(usize) -> Vec<u8> + Send + Sync + 'static,
    op: Op,
    root: usize,
) -> Vec<Vec<u8>> {
    let shape = op.shape(len, root, topo.nprocs());
    let cap = shape.extent(topo.nprocs());
    run_call(imp, topo, shape, cap, init).expect("run completes")
}

/// The baselines reject what SRM rejects, and all three name the same
/// rule: a root outside the communicator, a buffer one byte short of
/// the operation's layout, a count matrix that is not `n × n`, a count
/// past its slot. 64-byte segments on 4 ranks.
#[test]
fn malformed_calls_name_the_same_rule_on_every_implementation() {
    let topo = Topology::new(2, 2);
    let n = topo.nprocs();
    let capacity = [
        (Op::Bcast, "payload longer than buffer"),
        (Op::Reduce, "payload longer than buffer"),
        (Op::Allreduce, "payload longer than buffer"),
        (Op::Gather, "gather needs size*len capacity"),
        (Op::Scatter, "scatter needs size*len capacity"),
        (Op::Allgather, "allgather needs size*len capacity"),
        (Op::Alltoall, "alltoall needs 2*size*len capacity"),
        (Op::Alltoallv, "alltoallv needs 2*size*seg capacity"),
        (Op::ReduceScatter, "reduce_scatter needs size*len capacity"),
    ];
    let mut cases: Vec<(String, Shape, usize, &str)> = Vec::new();
    for (op, rule) in capacity {
        let shape = op.shape(64, 0, n);
        let need = shape.extent(n);
        if shape.root().is_some() {
            let what = format!("{} rooted at rank {n}", op.name());
            let rule = "root out of communicator range";
            cases.push((what, op.shape(64, n, n), need, rule));
        }
        let what = format!("{} one byte short", op.name());
        cases.push((what, shape, need - 1, rule));
    }
    let alltoallv = |counts: Vec<usize>| Shape::Alltoallv {
        seg: 64,
        counts: counts.into(),
    };
    let rule = "alltoallv counts must be the full size*size matrix";
    let short = alltoallv(vec![64; n * n - 1]);
    cases.push(("alltoallv with 15 counts".into(), short, 512, rule));
    let mut wide = vec![64; n * n];
    wide[5] = 65;
    let rule = "alltoallv count exceeds its segment capacity";
    let wide = alltoallv(wide);
    cases.push(("alltoallv with a count past seg".into(), wide, 512, rule));

    for imp in Impl::ALL {
        for (what, shape, cap, rule) in &cases {
            let got = run_call(imp, topo, shape.clone(), *cap, |_| Vec::new());
            let msg = got.expect_err(&format!("{} admitted {what}", imp.name()));
            assert!(msg.contains(rule), "{} on {what}: {msg}", imp.name());
        }
    }
}

#[test]
fn all_implementations_agree_on_broadcast() {
    let topo = Topology::new(3, 4);
    let len = 24 << 10;
    let payload: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
    let mut reference = None;
    for imp in Impl::ALL {
        let p = payload.clone();
        let results = run_once(
            imp,
            topo,
            len,
            move |rank| if rank == 5 { p.clone() } else { vec![0; len] },
            Op::Bcast,
            5,
        );
        for (rank, r) in results.iter().enumerate() {
            assert_eq!(r, &payload, "{} rank {rank}", imp.name());
        }
        match &reference {
            None => reference = Some(results),
            Some(r) => assert_eq!(r, &results, "{} diverged", imp.name()),
        }
    }
}

#[test]
fn all_implementations_agree_on_allreduce() {
    let topo = Topology::new(2, 5);
    let n = topo.nprocs();
    let elems = 128usize;
    let len = elems * 8;
    let contribs: Vec<Vec<u8>> = (0..n)
        .map(|r| to_bytes_u64(&(0..elems).map(|i| (r * 3 + i) as u64).collect::<Vec<_>>()))
        .collect();
    let expect = reference_reduce(DType::U64, ReduceOp::Sum, &contribs);
    for imp in Impl::ALL {
        let c = contribs.clone();
        let results = run_once(imp, topo, len, move |r| c[r].clone(), Op::Allreduce, 0);
        for (rank, r) in results.iter().enumerate() {
            assert_eq!(
                from_bytes_u64(r),
                from_bytes_u64(&expect),
                "{} rank {rank}",
                imp.name()
            );
        }
    }
}

#[test]
fn all_implementations_agree_on_reduce_at_root() {
    let topo = Topology::new(4, 3);
    let n = topo.nprocs();
    let len = 64usize;
    let contribs: Vec<Vec<u8>> = (0..n).map(|r| to_bytes_u64(&[(r * r) as u64; 8])).collect();
    let expect = reference_reduce(DType::U64, ReduceOp::Sum, &contribs);
    for imp in Impl::ALL {
        let c = contribs.clone();
        let results = run_once(imp, topo, len, move |r| c[r].clone(), Op::Reduce, 7);
        assert_eq!(results[7], expect, "{} root buffer", imp.name());
    }
}

/// Deterministic pattern for pairwise-exchange payloads: the byte `k`
/// of the segment rank `i` sends to rank `j`.
fn pair_byte(i: usize, j: usize, k: usize) -> u8 {
    ((i * 37 + j * 11 + k * 3 + 5) % 251) as u8
}

/// All three implementations produce bit-identical results for the
/// pairwise exchange family — alltoall, ragged alltoallv and
/// reduce-scatter — on a non-power-of-two rank count.
#[test]
fn all_implementations_agree_on_alltoall_family() {
    let topo = Topology::new(3, 2); // 6 ranks, non-power-of-two
    let n = topo.nprocs();
    let len = 96usize;

    // alltoall: recv segment i on rank r must be what i sent to r.
    let mut reference = None;
    for imp in Impl::ALL {
        let results = run_once(
            imp,
            topo,
            len,
            move |rank| {
                let mut v = vec![0u8; 2 * n * len];
                for j in 0..n {
                    for k in 0..len {
                        v[j * len + k] = pair_byte(rank, j, k);
                    }
                }
                v
            },
            Op::Alltoall,
            0,
        );
        for (r, outb) in results.iter().enumerate() {
            for i in 0..n {
                for k in 0..len {
                    assert_eq!(
                        outb[n * len + i * len + k],
                        pair_byte(i, r, k),
                        "{} alltoall rank {r} segment from {i} byte {k}",
                        imp.name()
                    );
                }
            }
        }
        match &reference {
            None => reference = Some(results),
            Some(rf) => assert_eq!(rf, &results, "{} alltoall diverged", imp.name()),
        }
    }

    // alltoallv: only the ragged live prefixes move; slack stays zero.
    let counts = srm_cluster::ragged_counts(n, len);
    let mut reference = None;
    for imp in Impl::ALL {
        let c = counts.clone();
        let results = run_once(
            imp,
            topo,
            len,
            move |rank| {
                let mut v = vec![0u8; 2 * n * len];
                for j in 0..n {
                    for k in 0..c[rank * n + j] {
                        v[j * len + k] = pair_byte(rank, j, k);
                    }
                }
                v
            },
            Op::Alltoallv,
            0,
        );
        for (r, outb) in results.iter().enumerate() {
            for i in 0..n {
                for k in 0..len {
                    let expect = if k < counts[i * n + r] {
                        pair_byte(i, r, k)
                    } else {
                        0
                    };
                    assert_eq!(
                        outb[n * len + i * len + k],
                        expect,
                        "{} alltoallv rank {r} segment from {i} byte {k}",
                        imp.name()
                    );
                }
            }
        }
        match &reference {
            None => reference = Some(results),
            Some(rf) => assert_eq!(rf, &results, "{} alltoallv diverged", imp.name()),
        }
    }

    // reduce-scatter: every rank's own block must equal the elementwise
    // sum of all contributions for that block (u64 sum: bit-exact
    // regardless of combine order).
    let elems = len / 8;
    let contrib = move |rank: usize| -> Vec<u8> {
        let vals: Vec<u64> = (0..n * elems)
            .map(|ix| (rank * 1009 + ix * 17 + 1) as u64)
            .collect();
        to_bytes_u64(&vals)
    };
    let expect: Vec<Vec<u8>> = {
        let contribs: Vec<Vec<u8>> = (0..n).map(contrib).collect();
        let full = reference_reduce(DType::U64, ReduceOp::Sum, &contribs);
        (0..n)
            .map(|j| full[j * len..(j + 1) * len].to_vec())
            .collect()
    };
    for imp in Impl::ALL {
        let results = run_once(imp, topo, len, contrib, Op::ReduceScatter, 0);
        for (r, outb) in results.iter().enumerate() {
            assert_eq!(
                &outb[r * len..(r + 1) * len],
                &expect[r][..],
                "{} reduce-scatter rank {r} block",
                imp.name()
            );
        }
    }
}

/// The headline claim as an invariant: SRM is faster than both MPI
/// baselines across representative sizes and topologies.
#[test]
fn srm_outperforms_both_baselines() {
    let opts = HarnessOpts {
        iters: 3,
        ..Default::default()
    };
    for topo in [Topology::sp_16way(2), Topology::sp_16way(4)] {
        for (op, len) in [
            (Op::Bcast, 512usize),
            (Op::Bcast, 64 << 10),
            (Op::Reduce, 4096),
            (Op::Allreduce, 4096),
            (Op::Barrier, 8),
        ] {
            let srm = measure(
                Impl::Srm,
                MachineConfig::ibm_sp_colony(),
                topo,
                op,
                len,
                opts,
            );
            for base in [Impl::IbmMpi, Impl::Mpich] {
                let mpi = measure(base, MachineConfig::ibm_sp_colony(), topo, op, len, opts);
                assert!(
                    srm.per_call < mpi.per_call,
                    "{} {} {}B P={}: SRM {} !< {} {}",
                    op.name(),
                    base.name(),
                    len,
                    topo.nprocs(),
                    srm.per_call,
                    base.name(),
                    mpi.per_call
                );
            }
        }
    }
}

/// Structural claims from the paper, checked in event counts rather
/// than times: SRM does no tag matching, uses fewer data movements
/// intra-node, and takes no interrupts on the small path.
#[test]
fn srm_structural_advantages_show_in_metrics() {
    let topo = Topology::sp_16way(1); // single 16-way node
    let len = 4096usize;
    let opts = HarnessOpts {
        iters: 2,
        ..Default::default()
    };
    let srm = measure(
        Impl::Srm,
        MachineConfig::ibm_sp_colony(),
        topo,
        Op::Bcast,
        len,
        opts,
    );
    let mpi = measure(
        Impl::IbmMpi,
        MachineConfig::ibm_sp_colony(),
        topo,
        Op::Bcast,
        len,
        opts,
    );
    assert_eq!(srm.metrics.matches, 0, "SRM never tag-matches");
    assert!(mpi.metrics.matches > 0, "MPI matches on every message");
    assert!(
        srm.metrics.shm_copies < mpi.metrics.shm_copies,
        "fewer data movements: SRM {} vs MPI {}",
        srm.metrics.shm_copies,
        mpi.metrics.shm_copies
    );
    assert_eq!(srm.metrics.interrupts, 0, "small path runs interrupt-free");
}

/// Small broadcasts and reduces run with interrupts off on the masters
/// (§2.3). A put that reaches a master after its last LAPI call of the
/// call stalls until the master switches interrupts back on, and that
/// switch is itself a LAPI call: it takes the put by polling instead of
/// as a 24 µs interrupt. So 21 back-to-back 8-byte calls at P=256 stay
/// under one interrupt per call. The barrier and the allreduce take no
/// interrupt either way, so their times are pinned exactly.
#[test]
fn reenabling_interrupts_drains_back_to_back_small_tree_ops() {
    const CALLS: usize = 21;
    let run = |op| {
        let opts = HarnessOpts {
            iters: CALLS,
            ..Default::default()
        };
        let topo = Topology::sp_16way(16);
        let m = measure(Impl::Srm, MachineConfig::ibm_sp_colony(), topo, op, 8, opts);
        (m.per_call, m.metrics.interrupts)
    };
    for (op, max_us) in [(Op::Bcast, 28.0), (Op::Reduce, 21.0)] {
        let (t, taken) = run(op);
        let what = format!("{} 8 B on 16x16: {t}, {taken} interrupts", op.name());
        assert!(taken <= CALLS as u64, "{what}");
        assert!(t.as_us() <= max_us, "{what}");
    }
    assert_eq!(run(Op::Barrier).0, SimTime::from_ps(39_600_000));
    assert_eq!(run(Op::Allreduce).0, SimTime::from_ps(45_102_532));
}

/// The embedding claim: with SMP-aware SRM, only masters touch the
/// network, so inter-node message counts are independent of the node
/// width.
#[test]
fn only_masters_touch_network() {
    let opts = HarnessOpts {
        iters: 1,
        ..Default::default()
    };
    let narrow = measure(
        Impl::Srm,
        MachineConfig::ibm_sp_colony(),
        Topology::new(2, 2),
        Op::Bcast,
        1024,
        opts,
    );
    let wide = measure(
        Impl::Srm,
        MachineConfig::ibm_sp_colony(),
        Topology::new(2, 16),
        Op::Bcast,
        1024,
        opts,
    );
    assert_eq!(
        narrow.metrics.net_messages, wide.metrics.net_messages,
        "node width must not change network traffic"
    );
}

/// Modelled times are identical across repeated runs (bit-determinism
/// of the whole stack, end to end).
#[test]
fn end_to_end_determinism() {
    let run = || {
        measure(
            Impl::Srm,
            MachineConfig::ibm_sp_colony(),
            Topology::sp_16way(2),
            Op::Allreduce,
            32 << 10,
            HarnessOpts {
                iters: 2,
                ..Default::default()
            },
        )
    };
    let (a, b) = (run(), run());
    assert_eq!(a.per_call, b.per_call);
    assert_eq!(a.metrics, b.metrics);
    assert!(a.per_call > SimTime::ZERO);
}

/// The typed convenience API (CollectivesExt) and the bitwise
/// operators work end-to-end through every implementation.
#[test]
fn typed_helpers_and_bitwise_ops() {
    use collops::CollectivesExt;
    let topo = Topology::new(2, 3);
    let n = topo.nprocs();
    let mut sim = Sim::new(MachineConfig::ibm_sp_colony());
    let world = SrmWorld::new(&mut sim, topo, SrmTuning::default());
    let out = Arc::new(Mutex::new(vec![(0.0f64, 0u64); n]));
    for rank in 0..n {
        let comm = world.comm(rank);
        let out = out.clone();
        sim.spawn(format!("rank{rank}"), move |ctx| {
            let mut v = vec![rank as f64 + 0.5; 4];
            comm.allreduce_f64(&ctx, &mut v, ReduceOp::Sum);
            let mut bits = vec![1u64 << rank; 2];
            comm.allreduce_u64(&ctx, &mut bits, ReduceOp::Bor);
            let mut b = vec![0.0f64; 3];
            if rank == 1 {
                b = vec![2.25; 3];
            }
            comm.broadcast_f64(&ctx, &mut b, 1);
            assert_eq!(b, vec![2.25; 3]);
            out.lock().unwrap()[rank] = (v[0], bits[0]);
            comm.shutdown(&ctx);
        });
    }
    sim.run().unwrap();
    let expect_sum: f64 = (0..n).map(|r| r as f64 + 0.5).sum();
    let expect_bits: u64 = (0..n).map(|r| 1u64 << r).sum();
    for &(s, b) in out.lock().unwrap().iter() {
        assert_eq!(s, expect_sum);
        assert_eq!(b, expect_bits);
    }
}
