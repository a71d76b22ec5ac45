//! Property-based tests: for arbitrary topologies, payload sizes,
//! roots, operators and data, the collectives must match the
//! sequential reference, and runs must be deterministic.

use collops::{reference_reduce, Collectives, DType, ReduceOp};
use mpi_coll::MpiColl;
use msg::{MsgWorld, Vendor};
use proptest::prelude::*;
use simnet::{MachineConfig, Sim, SimTime, Topology};
use srm::{SrmTuning, SrmWorld, TreeKind};
use std::sync::{Arc, Mutex};

#[derive(Clone, Copy, Debug)]
enum WhichOp {
    Bcast,
    Reduce,
    Allreduce,
}

/// The segmented (vector) collectives: `len` is per-rank segment size
/// and buffers hold `nprocs` segments.
#[derive(Clone, Copy, Debug)]
enum SegOp {
    Gather,
    Scatter,
    Allgather,
}

fn arb_topology() -> impl Strategy<Value = Topology> {
    (1usize..=4, 1usize..=6).prop_map(|(n, p)| Topology::new(n, p))
}

fn arb_op() -> impl Strategy<Value = (WhichOp, ReduceOp)> {
    (
        prop_oneof![
            Just(WhichOp::Bcast),
            Just(WhichOp::Reduce),
            Just(WhichOp::Allreduce)
        ],
        prop_oneof![
            Just(ReduceOp::Sum),
            Just(ReduceOp::Min),
            Just(ReduceOp::Max),
        ],
    )
}

fn arb_tree() -> impl Strategy<Value = TreeKind> {
    prop_oneof![
        Just(TreeKind::Binomial),
        Just(TreeKind::Binary),
        Just(TreeKind::Fibonacci),
        Just(TreeKind::Chain),
        Just(TreeKind::HungBinary)
    ]
}

/// Run the collective on every rank; return per-rank final payloads.
fn run_srm(
    topo: Topology,
    tree: TreeKind,
    op: WhichOp,
    rop: ReduceOp,
    root: usize,
    contribs: Vec<Vec<u64>>,
) -> Vec<Vec<u8>> {
    let len = contribs[0].len() * 8;
    let tuning = SrmTuning {
        tree: Some(tree),
        ..SrmTuning::default()
    };
    let mut sim = Sim::new(MachineConfig::ibm_sp_colony());
    let world = SrmWorld::new(&mut sim, topo, tuning);
    let out = Arc::new(Mutex::new(vec![Vec::new(); topo.nprocs()]));
    let contribs = Arc::new(contribs);
    for rank in 0..topo.nprocs() {
        let comm = world.comm(rank);
        let out = out.clone();
        let contribs = contribs.clone();
        sim.spawn(format!("rank{rank}"), move |ctx| {
            let buf = comm.alloc_buffer(len.max(1));
            buf.with_mut(|d| d[..len].copy_from_slice(&collops::to_bytes_u64(&contribs[rank])));
            match op {
                WhichOp::Bcast => comm.broadcast(&ctx, &buf, len, root),
                WhichOp::Reduce => comm.reduce(&ctx, &buf, len, DType::U64, rop, root),
                WhichOp::Allreduce => comm.allreduce(&ctx, &buf, len, DType::U64, rop),
            }
            out.lock().unwrap()[rank] = buf.with(|d| d[..len].to_vec());
            comm.shutdown(&ctx);
        });
    }
    sim.run().expect("simulation completes");
    Arc::try_unwrap(out).unwrap().into_inner().unwrap()
}

/// Run one segmented collective on every SRM rank. `init[rank]` is the
/// rank's full initial buffer (`nprocs * len` bytes); returns the final
/// full buffers.
fn run_seg_srm(
    topo: Topology,
    op: SegOp,
    len: usize,
    root: usize,
    init: Vec<Vec<u8>>,
) -> Vec<Vec<u8>> {
    let n = topo.nprocs();
    let mut sim = Sim::new(MachineConfig::ibm_sp_colony());
    let world = SrmWorld::new(&mut sim, topo, SrmTuning::default());
    let out = Arc::new(Mutex::new(vec![Vec::new(); n]));
    let init = Arc::new(init);
    for rank in 0..n {
        let comm = world.comm(rank);
        let out = out.clone();
        let init = init.clone();
        sim.spawn(format!("rank{rank}"), move |ctx| {
            let buf = comm.alloc_buffer((n * len).max(1));
            buf.with_mut(|d| d[..n * len].copy_from_slice(&init[rank]));
            match op {
                SegOp::Gather => comm.gather(&ctx, &buf, len, root),
                SegOp::Scatter => comm.scatter(&ctx, &buf, len, root),
                SegOp::Allgather => comm.allgather(&ctx, &buf, len),
            }
            out.lock().unwrap()[rank] = buf.with(|d| d[..n * len].to_vec());
            comm.shutdown(&ctx);
        });
    }
    sim.run().expect("simulation completes");
    Arc::try_unwrap(out).unwrap().into_inner().unwrap()
}

/// Same as [`run_seg_srm`] but through a point-to-point MPI baseline.
fn run_seg_mpi(
    topo: Topology,
    vendor: Vendor,
    op: SegOp,
    len: usize,
    root: usize,
    init: Vec<Vec<u8>>,
) -> Vec<Vec<u8>> {
    let n = topo.nprocs();
    let mut sim = Sim::new(MachineConfig::ibm_sp_colony());
    let world = MsgWorld::new(&mut sim, topo, vendor);
    let out = Arc::new(Mutex::new(vec![Vec::new(); n]));
    let init = Arc::new(init);
    for rank in 0..n {
        let coll = MpiColl::new(world.endpoint(rank));
        let out = out.clone();
        let init = init.clone();
        sim.spawn(format!("rank{rank}"), move |ctx| {
            let buf = shmem::ShmBuffer::new((n * len).max(1));
            buf.with_mut(|d| d[..n * len].copy_from_slice(&init[rank]));
            match op {
                SegOp::Gather => coll.gather(&ctx, &buf, len, root),
                SegOp::Scatter => coll.scatter(&ctx, &buf, len, root),
                SegOp::Allgather => coll.allgather(&ctx, &buf, len),
            }
            out.lock().unwrap()[rank] = buf.with(|d| d[..n * len].to_vec());
        });
    }
    sim.run().expect("simulation completes");
    Arc::try_unwrap(out).unwrap().into_inner().unwrap()
}

/// Deterministic pseudo-random full buffers, one per rank.
fn seg_init(n: usize, len: usize, seed: u64) -> Vec<Vec<u8>> {
    (0..n)
        .map(|r| {
            (0..n * len)
                .map(|i| {
                    (seed
                        .wrapping_mul(0x9e3779b97f4a7c15)
                        .wrapping_add((r * 65537 + i) as u64)
                        >> 11) as u8
                })
                .collect()
        })
        .collect()
}

/// The byte range of rank `r`'s segment.
fn seg(r: usize, len: usize) -> std::ops::Range<usize> {
    r * len..(r + 1) * len
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        .. ProptestConfig::default()
    })]

    /// Every collective on every shape matches the sequential reference.
    #[test]
    fn collectives_match_reference(
        topo in arb_topology(),
        tree in arb_tree(),
        (op, rop) in arb_op(),
        root_seed in 0usize..64,
        elems in 1usize..48,
        seed in any::<u64>(),
    ) {
        let n = topo.nprocs();
        let root = root_seed % n;
        // Deterministic pseudo-random contributions from the seed.
        let contribs: Vec<Vec<u64>> = (0..n)
            .map(|r| {
                (0..elems)
                    .map(|i| {
                        seed.wrapping_mul(6364136223846793005)
                            .wrapping_add((r * 1009 + i) as u64)
                            >> 17
                    })
                    .collect()
            })
            .collect();
        let results = run_srm(topo, tree, op, rop, root, contribs.clone());

        let bytes: Vec<Vec<u8>> = contribs.iter().map(|c| collops::to_bytes_u64(c)).collect();
        match op {
            WhichOp::Bcast => {
                for (rank, r) in results.iter().enumerate() {
                    prop_assert_eq!(r, &bytes[root], "bcast rank {}", rank);
                }
            }
            WhichOp::Reduce => {
                let expect = reference_reduce(DType::U64, rop, &bytes);
                prop_assert_eq!(&results[root], &expect, "reduce at root {}", root);
            }
            WhichOp::Allreduce => {
                let expect = reference_reduce(DType::U64, rop, &bytes);
                for (rank, r) in results.iter().enumerate() {
                    prop_assert_eq!(r, &expect, "allreduce rank {}", rank);
                }
            }
        }
    }

    /// Identical inputs give identical outputs and identical traces
    /// (determinism as a property, not a spot check).
    #[test]
    fn runs_are_reproducible(
        topo in arb_topology(),
        elems in 1usize..32,
        seed in any::<u64>(),
    ) {
        let n = topo.nprocs();
        let contribs: Vec<Vec<u64>> = (0..n)
            .map(|r| (0..elems).map(|i| seed ^ ((r * 31 + i) as u64)).collect())
            .collect();
        let a = run_srm(topo, TreeKind::Binomial, WhichOp::Allreduce, ReduceOp::Max, 0, contribs.clone());
        let b = run_srm(topo, TreeKind::Binomial, WhichOp::Allreduce, ReduceOp::Max, 0, contribs);
        prop_assert_eq!(a, b);
    }

    /// Gather delivers every rank's segment to the root; scatter
    /// delivers the root's segments to their owners; allgather delivers
    /// everything everywhere. Topologies include non-power-of-two rank
    /// counts and arbitrary (non-zero) roots.
    #[test]
    fn segmented_collectives_semantics(
        topo in arb_topology(),
        op_pick in 0usize..3,
        root_seed in 0usize..64,
        len in 1usize..3000,
        seed in any::<u64>(),
    ) {
        let n = topo.nprocs();
        let op = [SegOp::Gather, SegOp::Scatter, SegOp::Allgather][op_pick];
        let root = root_seed % n;
        let init = seg_init(n, len, seed);
        let results = run_seg_srm(topo, op, len, root, init.clone());
        match op {
            SegOp::Gather => {
                for r in 0..n {
                    prop_assert_eq!(
                        &results[root][seg(r, len)],
                        &init[r][seg(r, len)],
                        "gather root {} missing rank {}'s segment", root, r
                    );
                }
            }
            SegOp::Scatter => {
                for r in 0..n {
                    prop_assert_eq!(
                        &results[r][seg(r, len)],
                        &init[root][seg(r, len)],
                        "scatter rank {} from root {}", r, root
                    );
                }
            }
            SegOp::Allgather => {
                for (rank, res) in results.iter().enumerate() {
                    for r in 0..n {
                        prop_assert_eq!(
                            &res[seg(r, len)],
                            &init[r][seg(r, len)],
                            "allgather rank {} segment {}", rank, r
                        );
                    }
                }
            }
        }
    }

    /// SRM and both point-to-point vendor baselines agree on the
    /// defined regions of every segmented collective.
    #[test]
    fn segmented_collectives_agree_with_baselines(
        topo in arb_topology(),
        op_pick in 0usize..3,
        root_seed in 0usize..64,
        len in 1usize..600,
        seed in any::<u64>(),
    ) {
        let n = topo.nprocs();
        let op = [SegOp::Gather, SegOp::Scatter, SegOp::Allgather][op_pick];
        let root = root_seed % n;
        let init = seg_init(n, len, seed);
        let srm = run_seg_srm(topo, op, len, root, init.clone());
        for vendor in [Vendor::IbmMpi, Vendor::Mpich] {
            let mpi = run_seg_mpi(topo, vendor, op, len, root, init.clone());
            match op {
                SegOp::Gather => {
                    for r in 0..n {
                        prop_assert_eq!(
                            &srm[root][seg(r, len)],
                            &mpi[root][seg(r, len)],
                            "{:?} gather root {} segment {}", vendor, root, r
                        );
                    }
                }
                SegOp::Scatter => {
                    for r in 0..n {
                        prop_assert_eq!(
                            &srm[r][seg(r, len)],
                            &mpi[r][seg(r, len)],
                            "{:?} scatter rank {}", vendor, r
                        );
                    }
                }
                SegOp::Allgather => {
                    prop_assert_eq!(&srm, &mpi, "{:?} allgather", vendor);
                }
            }
        }
    }

    /// A scatter undoes a gather: after `gather(root)` then
    /// `scatter(root)`, every rank's own segment is back to its
    /// original contents.
    #[test]
    fn scatter_after_gather_is_identity(
        topo in arb_topology(),
        root_seed in 0usize..64,
        len in 1usize..2000,
        seed in any::<u64>(),
    ) {
        let n = topo.nprocs();
        let root = root_seed % n;
        let init = seg_init(n, len, seed);
        let mut sim = Sim::new(MachineConfig::ibm_sp_colony());
        let world = SrmWorld::new(&mut sim, topo, SrmTuning::default());
        let out = Arc::new(Mutex::new(vec![Vec::new(); n]));
        let init_arc = Arc::new(init.clone());
        for rank in 0..n {
            let comm = world.comm(rank);
            let out = out.clone();
            let init_arc = init_arc.clone();
            sim.spawn(format!("rank{rank}"), move |ctx| {
                let buf = comm.alloc_buffer((n * len).max(1));
                buf.with_mut(|d| d[..n * len].copy_from_slice(&init_arc[rank]));
                comm.gather(&ctx, &buf, len, root);
                comm.scatter(&ctx, &buf, len, root);
                out.lock().unwrap()[rank] = buf.with(|d| d[..n * len].to_vec());
                comm.shutdown(&ctx);
            });
        }
        sim.run().expect("simulation completes");
        let results = Arc::try_unwrap(out).unwrap().into_inner().unwrap();
        for r in 0..n {
            prop_assert_eq!(
                &results[r][seg(r, len)],
                &init[r][seg(r, len)],
                "scatter∘gather changed rank {}'s segment (root {})", r, root
            );
        }
    }
}

/// The pairwise-exchange family under arbitrary tuning.
#[derive(Clone, Copy, Debug)]
enum PairOp {
    Alltoall,
    Alltoallv,
    ReduceScatter,
}

/// Run one pairwise collective on every SRM rank. `init[rank]` is the
/// full initial buffer image; returns the final buffers.
fn run_pair_srm(
    topo: Topology,
    tuning: SrmTuning,
    op: PairOp,
    len: usize,
    counts: Arc<[usize]>,
    init: Vec<Vec<u8>>,
) -> Vec<Vec<u8>> {
    let n = topo.nprocs();
    let cap = init[0].len();
    let mut sim = Sim::new(MachineConfig::ibm_sp_colony());
    let world = SrmWorld::new(&mut sim, topo, tuning);
    let out = Arc::new(Mutex::new(vec![Vec::new(); n]));
    let init = Arc::new(init);
    for rank in 0..n {
        let comm = world.comm(rank);
        let out = out.clone();
        let init = init.clone();
        let counts = counts.clone();
        sim.spawn(format!("rank{rank}"), move |ctx| {
            let buf = comm.alloc_buffer(cap.max(1));
            buf.with_mut(|d| d[..cap].copy_from_slice(&init[rank]));
            match op {
                PairOp::Alltoall => comm.alltoall(&ctx, &buf, len),
                PairOp::Alltoallv => comm.alltoallv(&ctx, &buf, len, &counts),
                PairOp::ReduceScatter => {
                    comm.reduce_scatter(&ctx, &buf, len, DType::U64, ReduceOp::Sum)
                }
            }
            out.lock().unwrap()[rank] = buf.with(|d| d[..cap].to_vec());
            comm.shutdown(&ctx);
        });
    }
    sim.run().expect("simulation completes");
    Arc::try_unwrap(out).unwrap().into_inner().unwrap()
}

/// Run an alltoallv on the sub-communicator of `ranks` (comm rank
/// order) of a `topo` world; `init[c]` is comm rank `c`'s initial
/// buffer image. Returns the final buffers by comm rank.
fn run_group_alltoallv(
    topo: Topology,
    tuning: SrmTuning,
    ranks: &[usize],
    seg_cap: usize,
    counts: Arc<[usize]>,
    init: Vec<Vec<u8>>,
) -> Vec<Vec<u8>> {
    let mut sim = Sim::new(MachineConfig::ibm_sp_colony());
    let world = SrmWorld::new(&mut sim, topo, tuning);
    let out = Arc::new(Mutex::new(vec![Vec::new(); ranks.len()]));
    let init = Arc::new(init);
    let mut members: Vec<Option<srm::SrmComm>> = (0..topo.nprocs()).map(|_| None).collect();
    for handle in world.comm_create(ranks) {
        let rank = handle.rank();
        members[rank] = Some(handle);
    }
    for (rank, member) in members.into_iter().enumerate() {
        let wcomm = world.comm(rank);
        let (out, init, counts) = (out.clone(), init.clone(), counts.clone());
        sim.spawn(format!("rank{rank}"), move |ctx| {
            if let Some(comm) = member {
                let c = comm.comm_rank();
                let buf = comm.alloc_buffer(init[c].len());
                buf.with_mut(|d| d.copy_from_slice(&init[c]));
                comm.alltoallv(&ctx, &buf, seg_cap, &counts);
                out.lock().unwrap()[c] = buf.with(|d| d.to_vec());
            }
            wcomm.shutdown(&ctx);
        });
    }
    sim.run().expect("simulation completes");
    Arc::try_unwrap(out).unwrap().into_inner().unwrap()
}

/// A pairwise tuning drawn from the interesting corners: tiny chunks
/// (many pieces per segment, every staged put waiting on a credit) up
/// to the default.
fn pair_tuning(chunk_pick: usize) -> SrmTuning {
    let d = SrmTuning::default();
    SrmTuning {
        pairwise_chunk: [3, 64, d.pairwise_chunk][chunk_pick].min(SrmTuning::REDUCE_CHUNK),
        ..d
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        .. ProptestConfig::default()
    })]

    /// alltoall delivers segment `me -> j` into `j`'s receive half for
    /// every topology (including non-power-of-two rank counts) and
    /// chunk size; the send half is left untouched.
    #[test]
    fn alltoall_matches_reference(
        topo in arb_topology(),
        len in 1usize..200,
        seed in any::<u64>(),
        chunk_pick in 0usize..3,
    ) {
        let n = topo.nprocs();
        let init = seg_init(n, 2 * len, seed); // 2*n*len bytes per rank
        let results = run_pair_srm(
            topo,
            pair_tuning(chunk_pick),
            PairOp::Alltoall,
            len,
            Arc::from(Vec::new()),
            init.clone(),
        );
        let rbase = n * len;
        for (r, res) in results.iter().enumerate() {
            prop_assert_eq!(
                &res[..rbase], &init[r][..rbase],
                "rank {}'s send half was clobbered", r
            );
            for i in 0..n {
                prop_assert_eq!(
                    &res[rbase + i * len..rbase + (i + 1) * len],
                    &init[i][seg(r, len)],
                    "rank {} segment from {}", r, i
                );
            }
        }
    }

    /// Ragged alltoallv: only the live `counts[i*n+j]` prefixes move;
    /// slack bytes in the receive slots stay untouched.
    #[test]
    fn alltoallv_matches_reference(
        topo in arb_topology(),
        seg_cap in 1usize..120,
        seed in any::<u64>(),
        chunk_pick in 0usize..3,
    ) {
        let n = topo.nprocs();
        let counts: Vec<usize> = (0..n * n)
            .map(|k| {
                (seed.wrapping_mul(0x2545f4914f6cdd1d).wrapping_add(k as u64) >> 9) as usize
                    % (seg_cap + 1)
            })
            .collect();
        let init = seg_init(n, 2 * seg_cap, seed);
        let results = run_pair_srm(
            topo,
            pair_tuning(chunk_pick),
            PairOp::Alltoallv,
            seg_cap,
            Arc::from(counts.clone()),
            init.clone(),
        );
        let rbase = n * seg_cap;
        for (r, res) in results.iter().enumerate() {
            for i in 0..n {
                let c = counts[i * n + r];
                let slot = rbase + i * seg_cap;
                prop_assert_eq!(
                    &res[slot..slot + c],
                    &init[i][r * seg_cap..r * seg_cap + c],
                    "rank {} live prefix from {}", r, i
                );
                prop_assert_eq!(
                    &res[slot + c..slot + seg_cap],
                    &init[r][slot + c..slot + seg_cap],
                    "rank {} slack bytes from {} were touched", r, i
                );
            }
        }
    }

    /// Ragged alltoallv — a third of the cells empty — on a
    /// sub-communicator whose nodes hold unequal member counts in
    /// scrambled comm-rank order: the wire's permuted walk and the
    /// intra-node rotation must still pair every sender with every
    /// receiver exactly once.
    #[test]
    fn alltoallv_matches_reference_on_uneven_scrambled_groups(
        nodes in 2usize..=4,
        tpn in 2usize..=5,
        seg_cap in 1usize..120,
        seed in any::<u64>(),
        chunk_pick in 0usize..3,
    ) {
        let topo = Topology::new(nodes, tpn);
        let mix = |k: usize| {
            (seed ^ k as u64).wrapping_mul(0x9e3779b97f4a7c15).rotate_left(29) as usize
        };
        // About two ranks in three, never fewer than two, ordered by
        // hash: neither whole nodes nor consecutive comm ranks per node.
        let mut ranks: Vec<usize> = (0..topo.nprocs()).filter(|&r| r < 2 || mix(r) % 3 != 0).collect();
        ranks.sort_by_key(|&r| mix(r + 1000));
        let n = ranks.len();
        let counts: Vec<usize> = (0..n * n)
            .map(|k| match mix(k + 2000) {
                h if h % 3 == 0 => 0,
                h => h / 3 % (seg_cap + 1),
            })
            .collect();
        let init = seg_init(n, 2 * seg_cap, seed);
        let results = run_group_alltoallv(
            topo,
            pair_tuning(chunk_pick),
            &ranks,
            seg_cap,
            Arc::from(counts.clone()),
            init.clone(),
        );
        let rbase = n * seg_cap;
        for (r, res) in results.iter().enumerate() {
            prop_assert_eq!(&res[..rbase], &init[r][..rbase], "rank {}'s send half", r);
            for i in 0..n {
                let c = counts[i * n + r];
                let slot = rbase + i * seg_cap;
                prop_assert_eq!(
                    &res[slot..slot + c],
                    &init[i][r * seg_cap..r * seg_cap + c],
                    "group {:?}: comm rank {} live prefix from {}", &ranks, r, i
                );
                prop_assert_eq!(
                    &res[slot + c..slot + seg_cap],
                    &init[r][slot + c..slot + seg_cap],
                    "group {:?}: comm rank {} slack bytes from {}", &ranks, r, i
                );
            }
        }
    }

    /// reduce_scatter leaves each rank's own block equal to the u64
    /// elementwise sum of every rank's contribution for that block.
    #[test]
    fn reduce_scatter_matches_reference(
        topo in arb_topology(),
        elems in 1usize..24,
        seed in any::<u64>(),
        chunk_pick in 0usize..3,
    ) {
        let n = topo.nprocs();
        let len = elems * 8;
        let contribs: Vec<Vec<u64>> = (0..n)
            .map(|r| {
                (0..n * elems)
                    .map(|i| seed.wrapping_mul(2862933555777941757).wrapping_add((r * 8191 + i) as u64) >> 13)
                    .collect()
            })
            .collect();
        let init: Vec<Vec<u8>> = contribs.iter().map(|c| collops::to_bytes_u64(c)).collect();
        let results = run_pair_srm(
            topo,
            pair_tuning(chunk_pick),
            PairOp::ReduceScatter,
            len,
            Arc::from(Vec::new()),
            init.clone(),
        );
        let expect = reference_reduce(DType::U64, ReduceOp::Sum, &init);
        for (r, res) in results.iter().enumerate() {
            prop_assert_eq!(
                &res[seg(r, len)],
                &expect[seg(r, len)],
                "rank {}'s reduced block", r
            );
        }
    }
}

/// Repeating a call shape must hit the plan cache: only the first call
/// of each `(op, root, len)` shape compiles a schedule.
#[test]
fn repeated_shapes_hit_plan_cache() {
    let topo = Topology::new(3, 2);
    let mut sim = Sim::new(MachineConfig::ibm_sp_colony());
    let world = SrmWorld::new(&mut sim, topo, SrmTuning::default());
    for rank in 0..topo.nprocs() {
        let comm = world.comm(rank);
        sim.spawn(format!("rank{rank}"), move |ctx| {
            let buf = comm.alloc_buffer(6 * 256);
            for _ in 0..5 {
                comm.broadcast(&ctx, &buf, 1024, 1);
                comm.allreduce(&ctx, &buf, 256, DType::U64, ReduceOp::Sum);
                comm.allgather(&ctx, &buf, 64);
                comm.barrier(&ctx);
            }
            comm.shutdown(&ctx);
        });
    }
    let report = sim.run().expect("simulation completes");
    let m = report.metrics;
    assert!(m.plan_hits > 0, "repeated shapes never hit the cache");
    assert!(m.engine_steps > 0, "engine executed no steps");
    assert!(m.engine_copy_steps > 0 && m.engine_wait_steps > 0 && m.engine_put_steps > 0);
    // 6 ranks x 4 shapes planned once each (+ the allgather-internal
    // second shape is part of the same plan): misses stay bounded while
    // hits grow with repetitions.
    assert!(
        m.plan_hits > m.plan_misses,
        "hits {} should exceed misses {} over 5 repetitions",
        m.plan_hits,
        m.plan_misses
    );
}

/// The cache is keyed by shape: disabling it via tuning re-plans every
/// call and still computes the same results.
#[test]
fn zero_cache_capacity_still_correct() {
    let topo = Topology::new(2, 3);
    let tuning = SrmTuning {
        plan_cache_cap: 0,
        ..SrmTuning::default()
    };
    let mut sim = Sim::new(MachineConfig::ibm_sp_colony());
    let world = SrmWorld::new(&mut sim, topo, tuning);
    for rank in 0..topo.nprocs() {
        let comm = world.comm(rank);
        sim.spawn(format!("rank{rank}"), move |ctx| {
            let buf = comm.alloc_buffer(1024);
            buf.with_mut(|d| d.fill(rank as u8 + 1));
            comm.broadcast(&ctx, &buf, 512, 0);
            comm.broadcast(&ctx, &buf, 512, 0);
            buf.with(|d| assert!(d[..512].iter().all(|&b| b == 1)));
            comm.shutdown(&ctx);
        });
    }
    let report = sim.run().expect("simulation completes");
    assert_eq!(report.metrics.plan_hits, 0, "disabled cache must not hit");
}

/// Rooted call shapes whose root cannot matter — zero-length payloads —
/// normalize to one cache key: calling the same op with every root must
/// compile once per rank and hit the cache for every other root.
#[test]
fn rootless_shapes_normalize_in_plan_cache() {
    let topo = Topology::new(2, 2);
    let n = topo.nprocs();
    let mut sim = Sim::new(MachineConfig::ibm_sp_colony());
    let world = SrmWorld::new(&mut sim, topo, SrmTuning::default());
    for rank in 0..n {
        let comm = world.comm(rank);
        sim.spawn(format!("rank{rank}"), move |ctx| {
            let buf = comm.alloc_buffer(64);
            for root in 0..n {
                comm.broadcast(&ctx, &buf, 0, root);
                comm.reduce(&ctx, &buf, 0, DType::U64, ReduceOp::Sum, root);
            }
            comm.shutdown(&ctx);
        });
    }
    let report = sim.run().expect("simulation completes");
    let m = report.metrics;
    // Two shapes per rank compile once; the remaining 2*(n-1) calls per
    // rank hit the normalized key.
    assert_eq!(
        m.plan_misses,
        2 * n as u64,
        "normalization failed to fold roots"
    );
    assert_eq!(m.plan_hits, 2 * (n - 1) as u64 * n as u64);
}

/// The rootless families fold further: `Allgather`, `Allreduce` and
/// `Alltoall` at `len == 0` are all the same no-op synchronization, so
/// `PlanKey::normalized` collapses the three onto **one** cache slot.
#[test]
fn zero_len_rootless_families_share_one_plan_slot() {
    let topo = Topology::new(2, 2);
    let n = topo.nprocs() as u64;
    let mut sim = Sim::new(MachineConfig::ibm_sp_colony());
    let world = SrmWorld::new(&mut sim, topo, SrmTuning::default());
    for rank in 0..topo.nprocs() {
        let comm = world.comm(rank);
        sim.spawn(format!("rank{rank}"), move |ctx| {
            let buf = comm.alloc_buffer(64);
            for _ in 0..2 {
                comm.allreduce(&ctx, &buf, 0, DType::U64, ReduceOp::Sum);
                comm.allgather(&ctx, &buf, 0);
                comm.alltoall(&ctx, &buf, 0);
            }
            comm.shutdown(&ctx);
        });
    }
    let report = sim.run().expect("simulation completes");
    let m = report.metrics;
    // Exactly one compile per rank; the other five calls per rank hit
    // the shared slot.
    assert_eq!(
        m.plan_misses, n,
        "three zero-len families must share one key"
    );
    assert_eq!(m.plan_hits, 5 * n);
    // All of it accounted to the world communicator (id 0).
    let world = simnet::CommRow {
        plan_hits: 5 * n,
        plan_misses: n,
        ..simnet::CommRow::default()
    };
    assert_eq!(report.by_comm, vec![world]);
}

// Tree-structure properties over the full parameter space (cheap, so
// more cases).
proptest! {
    #![proptest_config(ProptestConfig {
        cases: 256,
        .. ProptestConfig::default()
    })]

    #[test]
    fn trees_span_and_are_acyclic(size in 1usize..200, kind_pick in 0usize..5) {
        let kind = TreeKind::ALL[kind_pick];
        let mut seen = vec![false; size];
        seen[0] = true;
        let mut count = 1;
        for v in 0..size {
            for c in srm::embed::children(kind, v, size) {
                prop_assert!(c < size);
                prop_assert!(!seen[c], "{:?}: vertex {} reached twice", kind, c);
                prop_assert_eq!(srm::embed::parent(kind, c, size), Some(v));
                seen[c] = true;
                count += 1;
            }
        }
        prop_assert_eq!(count, size, "{:?}: not spanning", kind);
    }

    /// The one-pass profile against a walk over `children` in send
    /// order and `parent` chains.
    #[test]
    fn profile_agrees_with_a_walk_over_children(size in 1usize..200, kind_pick in 0usize..5) {
        use srm::embed::{children, depth, height, parent, profile};
        let kind = TreeKind::ALL[kind_pick];
        let (send, hop) = (SimTime::from_ns(7), SimTime::from_us(1));
        let mut reach = vec![SimTime::ZERO; size];
        let mut fan = 0;
        for v in 0..size {
            let kids = children(kind, v, size);
            fan = fan.max(kids.len());
            for (turn, &c) in kids.iter().enumerate() {
                reach[c] = reach[v] + send * (turn as u64 + 1) + hop;
            }
        }
        let got = profile(kind, size, send, hop);
        prop_assert_eq!(got.fill, reach.into_iter().max().expect("nonempty"), "{:?}", kind);
        prop_assert_eq!((got.fan, got.root_fan), (fan, children(kind, 0, size).len()));
        let walk = |v| std::iter::successors(Some(v), |&u| parent(kind, u, size)).count() - 1;
        for v in 0..size {
            prop_assert_eq!(depth(kind, v, size), walk(v));
        }
        prop_assert_eq!(height(kind, size), (0..size).map(walk).max().expect("nonempty"));
    }

    #[test]
    fn embedding_covers_every_rank(nodes in 1usize..12, tpn in 1usize..12, root_seed in 0usize..144) {
        let topo = Topology::new(nodes, tpn);
        let root = root_seed % topo.nprocs();
        let g = srm::CommGroup::new(topo, 0, (0..topo.nprocs()).collect());
        let root_node = g.coord_of(root).0;
        // Every node is reachable from the root's node, and the tree
        // each node sees agrees with its children's.
        let mut seen_nodes = vec![false; nodes];
        seen_nodes[root_node] = true;
        let mut stack = vec![root_node];
        while let Some(n) = stack.pop() {
            for &c in g.tree(TreeKind::Binomial, root_node, n).down() {
                prop_assert!(!seen_nodes[c]);
                prop_assert_eq!(g.tree(TreeKind::Binomial, root_node, c).parent(), Some(n));
                seen_nodes[c] = true;
                stack.push(c);
            }
        }
        prop_assert!(seen_nodes.iter().all(|&b| b));
        // The reported network edges are that tree, between masters.
        let edges = g.inter_edges(TreeKind::Binomial, root);
        prop_assert_eq!(edges.len(), nodes - 1);
        for (p, c) in edges {
            prop_assert!(topo.is_master(p) && topo.is_master(c));
            prop_assert_eq!(g.tree(TreeKind::Binomial, root_node, topo.node_of(c)).parent(), Some(topo.node_of(p)));
        }
        // Every rank has a path to its node master.
        for rank in 0..topo.nprocs() {
            let mut slot = topo.slot_of(rank);
            let mut hops = 0;
            while let Some(p) = srm::embed::parent(TreeKind::Binomial, slot, tpn) {
                slot = p;
                hops += 1;
                prop_assert!(hops <= tpn, "cycle in smp tree");
            }
            prop_assert_eq!(topo.rank_of(topo.node_of(rank), slot), g.master_of(topo.node_of(rank)));
        }
    }
}
