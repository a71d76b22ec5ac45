//! End-to-end correctness of the SRM collectives across topologies,
//! payload sizes (spanning every protocol switch point), roots
//! (master and non-master), tree kinds, and repeated operations
//! (exercising buffer/flag/credit reuse).

use collops::{
    from_bytes_u64, reference_reduce, to_bytes_u64, Collectives, DType, NonblockingCollectives,
    ReduceOp,
};
use simnet::{Ctx, MachineConfig, Rank, Report, Sim, Topology};
use srm::{SrmComm, SrmTuning, SrmWorld};
use std::sync::{Arc, Mutex};

/// Run `body` on every rank; collect per-rank output bytes.
fn run_srm(
    topo: Topology,
    tuning: SrmTuning,
    body: impl Fn(&simnet::Ctx, &srm::SrmComm, Rank) -> Vec<u8> + Send + Sync + 'static,
) -> (Vec<Vec<u8>>, Report) {
    let mut sim = Sim::new(MachineConfig::ibm_sp_colony());
    let world = SrmWorld::new(&mut sim, topo, tuning);
    let out: Arc<Mutex<Vec<Vec<u8>>>> = Arc::new(Mutex::new(vec![Vec::new(); topo.nprocs()]));
    let body = Arc::new(body);
    for rank in 0..topo.nprocs() {
        let comm = world.comm(rank);
        let out = out.clone();
        let body = body.clone();
        sim.spawn(format!("rank{rank}"), move |ctx| {
            let result = body(&ctx, &comm, rank);
            comm.shutdown(&ctx);
            out.lock().unwrap()[rank] = result;
        });
    }
    let report = sim.run().expect("simulation must complete");
    let results = Arc::try_unwrap(out).unwrap().into_inner().unwrap();
    (results, report)
}

fn pattern(len: usize, seed: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(31) ^ seed)
        .collect()
}

#[test]
fn bcast_all_protocol_regimes() {
    // Sizes: single-put small, pipelined (8-32K), top of small (64K),
    // large zero-copy (>64K), multi-chunk large.
    let tuning = SrmTuning::default();
    for &len in &[8usize, 1000, 12 * 1024, 64 * 1024, 100 * 1024, 300 * 1024] {
        for (nodes, tpn) in [(1usize, 4usize), (2, 2), (4, 4), (3, 5)] {
            let topo = Topology::new(nodes, tpn);
            let expect = pattern(len, 0x42);
            let e2 = expect.clone();
            let (results, _) = run_srm(topo, tuning, move |ctx, comm, rank| {
                let buf = comm.alloc_buffer(len);
                if rank == 0 {
                    buf.with_mut(|d| d.copy_from_slice(&e2));
                }
                comm.broadcast(ctx, &buf, len, 0);
                buf.with(|d| d.to_vec())
            });
            for (rank, r) in results.iter().enumerate() {
                assert_eq!(r, &expect, "len {len}, topo {topo}, rank {rank}");
            }
        }
    }
}

#[test]
fn bcast_non_master_and_remote_roots() {
    let tuning = SrmTuning::default();
    let topo = Topology::new(3, 4);
    // Root 5 = node 1 slot 1 (non-master, non-node-0); root 11 = last.
    for root in [5usize, 11, 4] {
        for &len in &[500usize, 20 * 1024, 200 * 1024] {
            let expect = pattern(len, root as u8);
            let e2 = expect.clone();
            let (results, _) = run_srm(topo, tuning, move |ctx, comm, rank| {
                let buf = comm.alloc_buffer(len);
                if rank == root {
                    buf.with_mut(|d| d.copy_from_slice(&e2));
                }
                comm.broadcast(ctx, &buf, len, root);
                buf.with(|d| d.to_vec())
            });
            for (rank, r) in results.iter().enumerate() {
                assert_eq!(r, &expect, "root {root}, len {len}, rank {rank}");
            }
        }
    }
}

#[test]
fn reduce_single_and_multi_chunk() {
    let tuning = SrmTuning::default();
    for (nodes, tpn) in [(2usize, 3usize), (4, 4), (3, 2)] {
        let topo = Topology::new(nodes, tpn);
        let n = topo.nprocs();
        // 40_000 bytes = 5000 u64 = 3 chunks of 16 KB.
        for &elems in &[16usize, 5000] {
            let len = elems * 8;
            let contribs: Vec<Vec<u8>> = (0..n)
                .map(|r| {
                    to_bytes_u64(
                        &(0..elems)
                            .map(|i| (r * 1000 + i) as u64)
                            .collect::<Vec<_>>(),
                    )
                })
                .collect();
            let expect = reference_reduce(DType::U64, ReduceOp::Sum, &contribs);
            for root in [0usize, n - 1] {
                let c2 = contribs.clone();
                let (results, _) = run_srm(topo, tuning, move |ctx, comm, rank| {
                    let buf = comm.alloc_buffer(len);
                    buf.with_mut(|d| d.copy_from_slice(&c2[rank]));
                    comm.reduce(ctx, &buf, len, DType::U64, ReduceOp::Sum, root);
                    buf.with(|d| d.to_vec())
                });
                assert_eq!(
                    from_bytes_u64(&results[root]),
                    from_bytes_u64(&expect),
                    "topo {topo}, elems {elems}, root {root}"
                );
            }
        }
    }
}

#[test]
fn allreduce_small_and_large_all_node_counts() {
    let tuning = SrmTuning::default();
    // 3 and 5 nodes exercise the non-power-of-two fold/unfold.
    for (nodes, tpn) in [(1usize, 6usize), (2, 3), (3, 3), (4, 2), (5, 2)] {
        let topo = Topology::new(nodes, tpn);
        let n = topo.nprocs();
        // 1 KB (recursive doubling) and 100 KB (four-stage pipeline).
        for &len in &[1024usize, 100 * 1024] {
            let elems = len / 8;
            let contribs: Vec<Vec<u8>> = (0..n)
                .map(|r| to_bytes_u64(&(0..elems).map(|i| (r + i) as u64).collect::<Vec<_>>()))
                .collect();
            let expect = reference_reduce(DType::U64, ReduceOp::Sum, &contribs);
            let c2 = contribs.clone();
            let (results, _) = run_srm(topo, tuning, move |ctx, comm, rank| {
                let buf = comm.alloc_buffer(len);
                buf.with_mut(|d| d.copy_from_slice(&c2[rank]));
                comm.allreduce(ctx, &buf, len, DType::U64, ReduceOp::Sum);
                buf.with(|d| d.to_vec())
            });
            for (rank, r) in results.iter().enumerate() {
                assert_eq!(
                    from_bytes_u64(r),
                    from_bytes_u64(&expect),
                    "topo {topo}, len {len}, rank {rank}"
                );
            }
        }
    }
}

#[test]
fn allreduce_f64_sum_matches_reference_bitwise() {
    // All tree combines happen in a fixed order, so even floating-point
    // results are deterministic; compare against a reference combining
    // in the same tree order is too strict — instead check against the
    // sequential reference with tolerance.
    let tuning = SrmTuning::default();
    let topo = Topology::new(2, 4);
    let n = topo.nprocs();
    let elems = 256usize;
    let len = elems * 8;
    let (results, _) = run_srm(topo, tuning, move |ctx, comm, rank| {
        let vals: Vec<f64> = (0..elems)
            .map(|i| (rank + 1) as f64 * 0.5 + i as f64)
            .collect();
        let buf = comm.alloc_buffer(len);
        buf.with_mut(|d| d.copy_from_slice(&collops::to_bytes_f64(&vals)));
        comm.allreduce(ctx, &buf, len, DType::F64, ReduceOp::Sum);
        buf.with(|d| d.to_vec())
    });
    let expect: Vec<f64> = (0..elems)
        .map(|i| (1..=n).map(|r| r as f64 * 0.5 + i as f64).sum())
        .collect();
    for r in &results {
        let got = collops::from_bytes_f64(r);
        for (g, e) in got.iter().zip(&expect) {
            assert!((g - e).abs() < 1e-9, "{g} vs {e}");
        }
    }
    // Determinism across ranks: everyone must hold bit-identical results.
    for r in &results[1..] {
        assert_eq!(r, &results[0]);
    }
}

#[test]
fn barrier_blocks_until_last_arrival() {
    let tuning = SrmTuning::default();
    let topo = Topology::new(3, 3);
    let mut sim = Sim::new(MachineConfig::ibm_sp_colony());
    let world = SrmWorld::new(&mut sim, topo, tuning);
    let latest = simnet::SimTime::from_us(80);
    for rank in 0..topo.nprocs() {
        let comm = world.comm(rank);
        sim.spawn(format!("rank{rank}"), move |ctx| {
            ctx.advance(simnet::SimTime::from_us(10 * rank as u64));
            comm.barrier(&ctx);
            assert!(
                ctx.now() >= latest,
                "rank {rank} escaped the barrier at {}",
                ctx.now()
            );
            comm.shutdown(&ctx);
        });
    }
    sim.run().unwrap();
}

#[test]
fn repeated_mixed_operations_reuse_state_correctly() {
    // The regression net for cumulative flags, buffer parity and credit
    // flow: many back-to-back operations of different kinds and sizes.
    let tuning = SrmTuning::default();
    let topo = Topology::new(2, 4);
    let n = topo.nprocs();
    let sizes = [700usize, 12 * 1024, 96 * 1024, 700, 40 * 1024];
    let (results, _) = run_srm(topo, tuning, move |ctx, comm, rank| {
        let mut transcript = Vec::new();
        for (round, &len) in sizes.iter().enumerate() {
            // Broadcast from a rotating root.
            let root = round % n;
            let buf = comm.alloc_buffer(len);
            if rank == root {
                buf.with_mut(|d| d.copy_from_slice(&pattern(len, round as u8)));
            }
            comm.broadcast(ctx, &buf, len, root);
            transcript.extend(buf.with(|d| d[..8.min(len)].to_vec()));

            comm.barrier(ctx);

            // Allreduce over a small vector.
            let elems = 64usize;
            let abuf = comm.alloc_buffer(elems * 8);
            abuf.with_mut(|d| {
                d.copy_from_slice(&to_bytes_u64(
                    &(0..elems)
                        .map(|i| (rank * (round + 1) + i) as u64)
                        .collect::<Vec<_>>(),
                ))
            });
            comm.allreduce(ctx, &abuf, elems * 8, DType::U64, ReduceOp::Sum);
            transcript.extend(abuf.with(|d| d[..8].to_vec()));
        }
        transcript
    });
    // Everyone must agree on the whole transcript.
    for (rank, r) in results.iter().enumerate() {
        assert_eq!(r, &results[0], "rank {rank} transcript diverged");
    }
    // And the broadcast bytes must match the patterns.
    for (round, &len) in sizes.iter().enumerate() {
        let start = round * 16;
        assert_eq!(
            &results[0][start..start + 8.min(len)],
            &pattern(len, round as u8)[..8.min(len)]
        );
    }
}

#[test]
fn repeated_reduce_back_to_back() {
    // Regression: back-to-back reduces once wedged the simulation when
    // the costed combine ran inside a shared-buffer lock while another
    // task wrote the same contribution buffer (lock-order inversion
    // between host mutexes and the virtual-time scheduler).
    let tuning = SrmTuning::default();
    for (nodes, tpn) in [(2usize, 2usize), (2, 16), (3, 4)] {
        let topo = Topology::new(nodes, tpn);
        let n = topo.nprocs();
        let rounds = 6usize;
        let (results, _) = run_srm(topo, tuning, move |ctx, comm, rank| {
            let mut out = Vec::new();
            let buf = comm.alloc_buffer(256);
            for round in 0..rounds {
                buf.with_mut(|d| {
                    d.copy_from_slice(&to_bytes_u64(
                        &(0..32)
                            .map(|i| (rank + round + i) as u64)
                            .collect::<Vec<_>>(),
                    ))
                });
                comm.reduce(ctx, &buf, 256, DType::U64, ReduceOp::Sum, 0);
                if rank == 0 {
                    out.extend(buf.with(|d| d[..8].to_vec()));
                }
            }
            out
        });
        for (round, got) in results[0].chunks(8).enumerate() {
            let expect: u64 = (0..n).map(|r| (r + round) as u64).sum();
            assert_eq!(
                u64::from_le_bytes(got.try_into().unwrap()),
                expect,
                "topo {topo}, round {round}"
            );
        }
    }
}

#[test]
fn alternative_tree_kinds_are_correct() {
    for kind in &srm::TreeKind::ALL[1..] {
        let tuning = SrmTuning {
            tree: Some(*kind),
            ..SrmTuning::default()
        };
        let topo = Topology::new(4, 3);
        let n = topo.nprocs();
        let len = 4096usize;
        let expect = pattern(len, 9);
        let e2 = expect.clone();
        let (results, _) = run_srm(topo, tuning, move |ctx, comm, rank| {
            let buf = comm.alloc_buffer(len);
            if rank == 0 {
                buf.with_mut(|d| d.copy_from_slice(&e2));
            }
            comm.broadcast(ctx, &buf, len, 0);
            // And a reduce on the same tree shape.
            let rbuf = comm.alloc_buffer(64);
            rbuf.with_mut(|d| d.copy_from_slice(&to_bytes_u64(&[rank as u64; 8])));
            comm.reduce(ctx, &rbuf, 64, DType::U64, ReduceOp::Sum, 0);
            let mut out = buf.with(|d| d.to_vec());
            out.extend(rbuf.with(|d| d.to_vec()));
            out
        });
        for (rank, r) in results.iter().enumerate() {
            assert_eq!(&r[..len], &expect[..], "{kind:?} bcast rank {rank}");
        }
        let total: u64 = (0..n as u64).sum();
        assert_eq!(
            from_bytes_u64(&results[0][len..]),
            vec![total; 8],
            "{kind:?} reduce"
        );
    }
}

#[test]
fn small_bcast_counts_no_interrupts_and_few_messages() {
    // 2 nodes, one 1 KB chunk: one data put + one credit ack. With
    // interrupts disabled and counter waits polling, zero interrupts.
    let tuning = SrmTuning::default();
    let topo = Topology::new(2, 2);
    let (_, report) = run_srm(topo, tuning, |ctx, comm, rank| {
        let buf = comm.alloc_buffer(1024);
        if rank == 0 {
            buf.with_mut(|d| d.fill(1));
        }
        comm.broadcast(ctx, &buf, 1024, 0);
        Vec::new()
    });
    assert_eq!(
        report.metrics.interrupts, 0,
        "small path must not interrupt"
    );
    assert_eq!(report.metrics.net_messages, 2, "one put + one credit ack");
    assert_eq!(report.metrics.net_bytes, 1024);
    assert_eq!(report.metrics.matches, 0, "SRM performs no tag matching");
}

#[test]
fn large_bcast_is_zero_copy_across_network() {
    // 2 nodes x 1 task: the large path must move the payload once over
    // the network and perform no intra-node staging copies at all
    // (p = 1: nobody to distribute to).
    let tuning = SrmTuning::default();
    let topo = Topology::new(2, 1);
    let len = 256 * 1024;
    let (results, report) = run_srm(topo, tuning, move |ctx, comm, rank| {
        let buf = comm.alloc_buffer(len);
        if rank == 0 {
            buf.with_mut(|d| d.copy_from_slice(&pattern(len, 3)));
        }
        comm.broadcast(ctx, &buf, len, 0);
        buf.with(|d| d[..16].to_vec())
    });
    assert_eq!(results[1], pattern(len, 3)[..16].to_vec());
    assert_eq!(report.metrics.net_bytes as usize, len);
    assert_eq!(
        report.metrics.shm_copies, 0,
        "zero-copy large broadcast must not stage"
    );
}

#[test]
fn runs_are_deterministic() {
    let run = || {
        let tuning = SrmTuning::default();
        let topo = Topology::new(3, 4);
        let (_, report) = run_srm(topo, tuning, |ctx, comm, rank| {
            let buf = comm.alloc_buffer(50_000);
            if rank == 2 {
                buf.with_mut(|d| d.fill(5));
            }
            comm.broadcast(ctx, &buf, 50_000, 2);
            comm.barrier(ctx);
            Vec::new()
        });
        (report.end_time, report.metrics)
    };
    let (t1, m1) = run();
    let (t2, m2) = run();
    assert_eq!(t1, t2);
    assert_eq!(m1, m2);
}

#[test]
fn zero_length_collectives_are_noops() {
    let tuning = SrmTuning::default();
    let topo = Topology::new(2, 2);
    let (_, report) = run_srm(topo, tuning, |ctx, comm, _rank| {
        let buf = comm.alloc_buffer(8);
        comm.broadcast(ctx, &buf, 0, 0);
        comm.reduce(ctx, &buf, 0, DType::U64, ReduceOp::Sum, 0);
        comm.allreduce(ctx, &buf, 0, DType::U64, ReduceOp::Sum);
        Vec::new()
    });
    assert_eq!(report.metrics.net_messages, 0);
    assert_eq!(report.metrics.shm_copies, 0);
}

#[test]
fn fifteen_of_sixteen_configuration_works() {
    // The paper's "leave one CPU for the daemons" configuration.
    let tuning = SrmTuning::default();
    let topo = Topology::new(2, 15);
    let len = 30_000usize;
    let expect = pattern(len, 7);
    let e2 = expect.clone();
    let (results, _) = run_srm(topo, tuning, move |ctx, comm, rank| {
        let buf = comm.alloc_buffer(len);
        if rank == 0 {
            buf.with_mut(|d| d.copy_from_slice(&e2));
        }
        comm.broadcast(ctx, &buf, len, 0);
        buf.with(|d| d.to_vec())
    });
    for r in &results {
        assert_eq!(r, &expect);
    }
}

#[test]
fn payload_larger_than_buffer_is_caught() {
    let tuning = SrmTuning::default();
    let topo = Topology::new(2, 2);
    let mut sim = Sim::new(MachineConfig::ibm_sp_colony());
    let world = SrmWorld::new(&mut sim, topo, tuning);
    for rank in 0..topo.nprocs() {
        let comm = world.comm(rank);
        sim.spawn(format!("rank{rank}"), move |ctx| {
            let buf = comm.alloc_buffer(16);
            comm.broadcast(&ctx, &buf, 1024, 0); // longer than the buffer
        });
    }
    match sim.run() {
        Err(simnet::SimError::LpPanic { message, .. }) => {
            assert!(message.contains("payload longer than buffer"), "{message}");
        }
        other => panic!("expected an LpPanic, got {other:?}"),
    }
}

/// One call of `op` on either face with every argument explicit.
#[allow(clippy::too_many_arguments)]
fn call(
    ctx: &Ctx,
    comm: &SrmComm,
    op: &str,
    nonblocking: bool,
    buf: &shmem::ShmBuffer,
    len: usize,
    root: usize,
    counts: &[usize],
) {
    let (dt, sum) = (DType::U64, ReduceOp::Sum);
    if nonblocking {
        let req = match op {
            "bcast" => comm.ibroadcast(ctx, buf, len, root),
            "reduce" => comm.ireduce(ctx, buf, len, dt, sum, root),
            "allreduce" => comm.iallreduce(ctx, buf, len, dt, sum),
            "barrier" => comm.ibarrier(ctx),
            "gather" => comm.igather(ctx, buf, len, root),
            "scatter" => comm.iscatter(ctx, buf, len, root),
            "allgather" => comm.iallgather(ctx, buf, len),
            "alltoall" => comm.ialltoall(ctx, buf, len),
            "alltoallv" => comm.ialltoallv(ctx, buf, len, counts),
            "reduce_scatter" => comm.ireduce_scatter(ctx, buf, len, dt, sum),
            other => panic!("unknown op {other}"),
        };
        comm.wait(ctx, req);
    } else {
        match op {
            "bcast" => comm.broadcast(ctx, buf, len, root),
            "reduce" => comm.reduce(ctx, buf, len, dt, sum, root),
            "allreduce" => comm.allreduce(ctx, buf, len, dt, sum),
            "barrier" => comm.barrier(ctx),
            "gather" => comm.gather(ctx, buf, len, root),
            "scatter" => comm.scatter(ctx, buf, len, root),
            "allgather" => comm.allgather(ctx, buf, len),
            "alltoall" => comm.alltoall(ctx, buf, len),
            "alltoallv" => comm.alltoallv(ctx, buf, len, counts),
            "reduce_scatter" => comm.reduce_scatter(ctx, buf, len, dt, sum),
            other => panic!("unknown op {other}"),
        }
    }
}

/// Every rank of a 2x2 world makes one call of `op` with a `cap`-byte
/// buffer: `None` if the world completes, else the panic message.
fn call_outcome(
    op: &'static str,
    nonblocking: bool,
    cap: usize,
    root: usize,
    counts: Vec<usize>,
) -> Option<String> {
    let topo = Topology::new(2, 2);
    let mut sim = Sim::new(MachineConfig::ibm_sp_colony());
    let world = SrmWorld::new(&mut sim, topo, SrmTuning::default());
    for rank in 0..topo.nprocs() {
        let (comm, counts) = (world.comm(rank), counts.clone());
        sim.spawn(format!("rank{rank}"), move |ctx| {
            let buf = comm.alloc_buffer(cap);
            call(&ctx, &comm, op, nonblocking, &buf, 64, root, &counts);
            comm.shutdown(&ctx);
        });
    }
    match sim.run() {
        Ok(_) => None,
        Err(simnet::SimError::LpPanic { message, .. }) => Some(message),
        Err(other) => panic!("{op}: {other:?}"),
    }
}

/// Every operation, on both faces, names the rule a bad root, a short
/// buffer or a bad count matrix breaks — and admits the tightest valid
/// call. 64-byte segments on 4 ranks.
#[test]
fn every_call_shape_is_validated_on_both_faces() {
    // (op, bytes its layout needs, the capacity rule, rooted).
    let table: [(&'static str, usize, &str, bool); 10] = [
        ("bcast", 64, "payload longer than buffer", true),
        ("reduce", 64, "payload longer than buffer", true),
        ("allreduce", 64, "payload longer than buffer", false),
        ("barrier", 0, "", false),
        ("gather", 256, "gather needs size*len capacity", true),
        ("scatter", 256, "scatter needs size*len capacity", true),
        ("allgather", 256, "allgather needs size*len capacity", false),
        ("alltoall", 512, "alltoall needs 2*size*len capacity", false),
        (
            "alltoallv",
            512,
            "alltoallv needs 2*size*seg capacity",
            false,
        ),
        (
            "reduce_scatter",
            256,
            "reduce_scatter needs size*len capacity",
            false,
        ),
    ];
    let full = vec![64usize; 16];
    for nb in [false, true] {
        let expect = |got: Option<String>, rule: &str, what: &str| {
            let got = got.unwrap_or_else(|| panic!("{what} (nonblocking {nb}) was admitted"));
            assert!(got.contains(rule), "{what} (nonblocking {nb}): {got}");
        };
        for (op, need, rule, rooted) in table {
            assert_eq!(call_outcome(op, nb, need, 3, full.clone()), None, "{op}");
            if need > 0 {
                let short = call_outcome(op, nb, need - 1, 0, full.clone());
                expect(short, rule, &format!("{op} with a short buffer"));
            }
            if rooted {
                let bad_root = call_outcome(op, nb, need, 4, full.clone());
                let what = format!("{op} rooted outside the communicator");
                expect(bad_root, "root out of communicator range", &what);
            }
        }
        let ragged = call_outcome("alltoallv", nb, 512, 0, vec![64; 15]);
        let rule = "alltoallv counts must be the full size*size matrix";
        expect(ragged, rule, "alltoallv with 15 counts");
        let mut wide = full.clone();
        wide[5] = 65;
        let wide = call_outcome("alltoallv", nb, 512, 0, wide);
        let rule = "alltoallv count exceeds its segment capacity";
        expect(wide, rule, "alltoallv with a count past its segment");
    }
}
