//! # mpi-coll — baseline MPI collectives over point-to-point messaging
//!
//! The comparison targets of the paper: collective operations built the
//! traditional way, as trees of tagged sends and receives over the
//! [`msg`] fabric. Two profiles are provided, selected by the fabric's
//! [`Vendor`]:
//!
//! | operation | IBM-MPI-like | MPICH-like |
//! |---|---|---|
//! | broadcast | binomial tree | binomial tree |
//! | reduce | binomial tree | binomial tree |
//! | allreduce | recursive doubling | reduce + broadcast |
//! | barrier | binomial gather/release | binomial gather/release |
//! | gather | linear | linear |
//! | scatter | linear | linear |
//! | allgather | gather + broadcast | ring |
//! | alltoall / alltoallv | pairwise rotation | pairwise rotation |
//! | reduce-scatter | reduce + scatter | pairwise exchange-combine |
//!
//! The profiles also differ through the fabric itself: IBM's eager
//! limit shrinks with task count, MPICH pays an extra per-message
//! layering cost (see [`msg::Vendor`]).
//!
//! Sub-communicators: [`MpiColl::subgroup`] builds a handle whose roots
//! and segment layouts are **communicator ranks** over an arbitrary
//! subset of the world, with tags offset by a caller-supplied context
//! id (the MPI context-id mechanism) — the honest baseline for the SRM
//! side's `comm_create` / `comm_split`.

#![deny(missing_docs)]

pub mod ops;
pub mod tree;

pub use ops::CommView;

use collops::{CollRequest, Collectives, DType, NonblockingCollectives, ReduceOp, Shape};
use msg::{MsgEndpoint, Vendor};
use shmem::ShmBuffer;
use simnet::{Ctx, Rank};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One rank's handle on the baseline collectives — over the world
/// ([`MpiColl::new`]) or a sub-communicator ([`MpiColl::subgroup`]).
#[derive(Clone)]
pub struct MpiColl {
    ep: MsgEndpoint,
    /// Communicator rank → world rank; `None` means the world.
    group: Option<Arc<[Rank]>>,
    /// Context id stamped into the high tag bits (0 for the world).
    ctx_id: u16,
    /// Ids of issued-but-unwaited nonblocking requests (eager model:
    /// the operation itself already ran at issue).
    issued: Arc<Mutex<HashSet<u64>>>,
    next_req: Arc<AtomicU64>,
}

impl MpiColl {
    /// Wrap a point-to-point endpoint; the algorithms are chosen by the
    /// endpoint's vendor profile.
    pub fn new(ep: MsgEndpoint) -> Self {
        MpiColl {
            ep,
            group: None,
            ctx_id: 0,
            issued: Arc::new(Mutex::new(HashSet::new())),
            next_req: Arc::new(AtomicU64::new(0)),
        }
    }

    /// A sub-communicator handle: communicator rank `i` is world rank
    /// `ranks[i]`, roots are communicator ranks, and gather/scatter
    /// -family segment layouts are indexed by communicator rank over
    /// `ranks.len()` segments. The endpoint's own rank must be a
    /// member. `ctx_id` (nonzero; the same value on every member,
    /// distinct per concurrently-active communicator sharing tasks with
    /// another) keeps this communicator's messages from matching any
    /// other's — MPI agrees on one inside `MPI_Comm_create`; the
    /// baseline has no setup-time agreement protocol, so the caller
    /// supplies it.
    pub fn subgroup(ep: MsgEndpoint, ranks: &[Rank], ctx_id: u16) -> Self {
        // Validate eagerly (the view re-checks on every call).
        ops::CommView::subgroup(&ep, ranks, ctx_id);
        MpiColl {
            ep,
            group: Some(Arc::from(ranks)),
            ctx_id,
            issued: Arc::new(Mutex::new(HashSet::new())),
            next_req: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The underlying endpoint.
    pub fn endpoint(&self) -> &MsgEndpoint {
        &self.ep
    }

    /// Number of ranks in this communicator.
    pub fn size(&self) -> usize {
        self.group
            .as_ref()
            .map_or_else(|| self.ep.topology().nprocs(), |g| g.len())
    }

    /// This task's communicator rank.
    pub fn comm_rank(&self) -> usize {
        self.view().rank()
    }

    /// The communicator's window onto the fabric.
    fn view(&self) -> CommView<'_> {
        match &self.group {
            None => CommView::world(&self.ep),
            Some(g) => CommView::subgroup(&self.ep, g, self.ctx_id),
        }
    }
}

impl Collectives for MpiColl {
    fn call(&self, ctx: &Ctx, shape: Shape, buf: &ShmBuffer, reduce: Option<(DType, ReduceOp)>) {
        let n = self.size();
        shape.check(n, buf.capacity());
        ctx.advance(ctx.config().mpi_coll_call_overhead);
        let ext = shape.extent(n);
        let mut data = buf.with(|d| d[..ext].to_vec());
        let (v, d) = (self.view(), &mut data);
        let ibm = self.ep.vendor() == Vendor::IbmMpi;
        let red = || reduce.expect("a reducing collective needs its datatype and operator");
        match shape {
            Shape::Bcast { root, .. } => ops::bcast_binomial(&v, ctx, d, root),
            Shape::Reduce { root, .. } => {
                let (dtype, op) = red();
                ops::reduce_binomial(&v, ctx, d, dtype, op, root)
            }
            Shape::Allreduce { .. } => {
                let (dtype, op) = red();
                if ibm {
                    ops::allreduce_recursive_doubling(&v, ctx, d, dtype, op)
                } else {
                    ops::allreduce_reduce_bcast(&v, ctx, d, dtype, op)
                }
            }
            // Both era implementations synchronized over a gather/release
            // tree of point-to-point messages (MPICH1's combine+broadcast
            // structure; IBM's was tree-shaped as well).
            Shape::Barrier => ops::barrier_tree(&v, ctx),
            Shape::Gather { len, root } => ops::gather_linear(&v, ctx, d, len, root),
            Shape::Scatter { len, root } => ops::scatter_linear(&v, ctx, d, len, root),
            Shape::Allgather { len } => {
                if ibm {
                    ops::allgather_gather_bcast(&v, ctx, d, len)
                } else {
                    ops::allgather_ring(&v, ctx, d, len)
                }
            }
            Shape::Alltoall { len } => ops::alltoall_pairwise(&v, ctx, d, len),
            Shape::Alltoallv { seg, counts } => ops::alltoallv_pairwise(&v, ctx, d, seg, &counts),
            Shape::ReduceScatter { len } => {
                let (dtype, op) = red();
                if ibm {
                    ops::reduce_scatter_reduce_then_scatter(&v, ctx, d, len, dtype, op)
                } else {
                    ops::reduce_scatter_pairwise(&v, ctx, d, len, dtype, op)
                }
            }
        }
        buf.with_mut(|d| d[..ext].copy_from_slice(&data));
    }

    fn name(&self) -> &'static str {
        self.ep.vendor().name()
    }
}

/// **Eager** nonblocking collectives: the baselines have no progress
/// engine for collectives, so `issue` simply runs the blocking call to
/// completion and returns an already-complete request.
/// This is an honest model of era MPI libraries (MPI-1 had no
/// nonblocking collectives at all; layered implementations made no
/// asynchronous progress without calls into the library) and gives the
/// overlap benchmarks a zero-overlap baseline with identical semantics.
impl NonblockingCollectives for MpiColl {
    fn issue(
        &self,
        ctx: &Ctx,
        shape: Shape,
        buf: &ShmBuffer,
        reduce: Option<(DType, ReduceOp)>,
    ) -> CollRequest {
        self.call(ctx, shape, buf, reduce);
        let id = self.next_req.fetch_add(1, Ordering::Relaxed);
        self.issued.lock().expect("request set poisoned").insert(id);
        CollRequest::new(id)
    }

    fn test(&self, _ctx: &Ctx, req: &CollRequest) -> bool {
        assert!(
            self.issued
                .lock()
                .expect("request set poisoned")
                .contains(&req.id()),
            "test on unknown or already-waited request {}",
            req.id()
        );
        true
    }

    fn wait(&self, _ctx: &Ctx, req: CollRequest) {
        assert!(
            self.issued
                .lock()
                .expect("request set poisoned")
                .remove(&req.id()),
            "wait on unknown or already-waited request {}",
            req.id()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use collops::{from_bytes_u64, reference_reduce, to_bytes_u64};
    use msg::MsgWorld;
    use simnet::{MachineConfig, Report, Sim, SimTime, Topology};
    use std::sync::{Arc, Mutex};

    /// Run `body` on every rank of a fresh cluster; collect each rank's
    /// final payload bytes.
    fn run_cluster(
        topo: Topology,
        vendor: Vendor,
        payload_len: usize,
        init: impl Fn(Rank) -> Vec<u8> + Send + Sync + 'static,
        body: impl Fn(&Ctx, &MpiColl, &mut Vec<u8>) + Send + Sync + 'static,
    ) -> (Vec<Vec<u8>>, Report) {
        let mut sim = Sim::new(MachineConfig::uniform_test());
        let world = MsgWorld::new(&mut sim, topo, vendor);
        let out: Arc<Mutex<Vec<Vec<u8>>>> = Arc::new(Mutex::new(vec![Vec::new(); topo.nprocs()]));
        let init = Arc::new(init);
        let body = Arc::new(body);
        for rank in 0..topo.nprocs() {
            let coll = MpiColl::new(world.endpoint(rank));
            let out = out.clone();
            let init = init.clone();
            let body = body.clone();
            sim.spawn(format!("rank{rank}"), move |ctx| {
                let mut data = init(rank);
                assert_eq!(data.len(), payload_len);
                body(&ctx, &coll, &mut data);
                out.lock().unwrap()[rank] = data;
            });
        }
        let report = sim.run().unwrap();
        let results = Arc::try_unwrap(out).unwrap().into_inner().unwrap();
        (results, report)
    }

    fn bcast_body(root: Rank) -> impl Fn(&Ctx, &MpiColl, &mut Vec<u8>) + Send + Sync {
        move |ctx, coll, data| {
            let buf = ShmBuffer::new(data.len().max(1));
            buf.with_mut(|d| d[..data.len()].copy_from_slice(data));
            coll.broadcast(ctx, &buf, data.len(), root);
            let n = data.len();
            buf.with(|d| data.copy_from_slice(&d[..n]));
        }
    }

    #[test]
    fn bcast_correct_all_sizes_and_roots() {
        for (nodes, tpn) in [(1usize, 7usize), (3, 4), (4, 4), (5, 3)] {
            let topo = Topology::new(nodes, tpn);
            for root in [0usize, topo.nprocs() - 1, topo.nprocs() / 2] {
                let (results, _) = run_cluster(
                    topo,
                    Vendor::IbmMpi,
                    64,
                    move |rank| {
                        if rank == root {
                            (0..64u8).map(|i| i ^ 0x5a).collect()
                        } else {
                            vec![0u8; 64]
                        }
                    },
                    bcast_body(root),
                );
                let expect: Vec<u8> = (0..64u8).map(|i| i ^ 0x5a).collect();
                for (rank, r) in results.iter().enumerate() {
                    assert_eq!(r, &expect, "topo {topo}, root {root}, rank {rank}");
                }
            }
        }
    }

    #[test]
    fn reduce_matches_reference() {
        for vendor in [Vendor::IbmMpi, Vendor::Mpich] {
            for (nodes, tpn) in [(2usize, 3usize), (4, 4), (3, 5)] {
                let topo = Topology::new(nodes, tpn);
                let n = topo.nprocs();
                let root = n - 1;
                let contribs: Vec<Vec<u8>> = (0..n)
                    .map(|r| to_bytes_u64(&[(r + 1) as u64, (r * r) as u64]))
                    .collect();
                let expect = reference_reduce(DType::U64, ReduceOp::Sum, &contribs);
                let c2 = contribs.clone();
                let (results, _) = run_cluster(
                    topo,
                    vendor,
                    16,
                    move |rank| c2[rank].clone(),
                    move |ctx, coll, data| {
                        let buf = ShmBuffer::new(16);
                        buf.with_mut(|d| d.copy_from_slice(data));
                        coll.reduce(ctx, &buf, 16, DType::U64, ReduceOp::Sum, root);
                        buf.with(|d| data.copy_from_slice(d));
                    },
                );
                assert_eq!(
                    results[root], expect,
                    "vendor {vendor:?}, topo {topo}: root result wrong"
                );
            }
        }
    }

    #[test]
    fn allreduce_matches_reference_both_vendors() {
        // Includes non-power-of-two sizes to exercise fold in/out.
        for vendor in [Vendor::IbmMpi, Vendor::Mpich] {
            for (nodes, tpn) in [(2usize, 2usize), (3, 3), (2, 5), (1, 13)] {
                let topo = Topology::new(nodes, tpn);
                let n = topo.nprocs();
                let contribs: Vec<Vec<u8>> =
                    (0..n).map(|r| to_bytes_u64(&[r as u64 + 7])).collect();
                let expect = reference_reduce(DType::U64, ReduceOp::Sum, &contribs);
                let c2 = contribs.clone();
                let (results, _) = run_cluster(
                    topo,
                    vendor,
                    8,
                    move |rank| c2[rank].clone(),
                    |ctx, coll, data| {
                        let buf = ShmBuffer::new(8);
                        buf.with_mut(|d| d.copy_from_slice(data));
                        coll.allreduce(ctx, &buf, 8, DType::U64, ReduceOp::Sum);
                        buf.with(|d| data.copy_from_slice(d));
                    },
                );
                for (rank, r) in results.iter().enumerate() {
                    assert_eq!(
                        from_bytes_u64(r),
                        from_bytes_u64(&expect),
                        "vendor {vendor:?}, topo {topo}, rank {rank}"
                    );
                }
            }
        }
    }

    #[test]
    fn allreduce_min_max_ops() {
        let topo = Topology::new(2, 3);
        let n = topo.nprocs();
        for op in [ReduceOp::Min, ReduceOp::Max] {
            let contribs: Vec<Vec<u8>> = (0..n)
                .map(|r| to_bytes_u64(&[(r * 13 % 7) as u64]))
                .collect();
            let expect = reference_reduce(DType::U64, op, &contribs);
            let c2 = contribs.clone();
            let (results, _) = run_cluster(
                topo,
                Vendor::IbmMpi,
                8,
                move |rank| c2[rank].clone(),
                move |ctx, coll, data| {
                    let buf = ShmBuffer::new(8);
                    buf.with_mut(|d| d.copy_from_slice(data));
                    coll.allreduce(ctx, &buf, 8, DType::U64, op);
                    buf.with(|d| data.copy_from_slice(d));
                },
            );
            for r in &results {
                assert_eq!(r, &expect, "op {op:?}");
            }
        }
    }

    #[test]
    fn barrier_synchronizes_both_vendors() {
        // Rank i arrives at i*10us; nobody may leave before the last
        // arrival (50us for 6 ranks).
        for vendor in [Vendor::IbmMpi, Vendor::Mpich] {
            let topo = Topology::new(2, 3);
            let mut sim = Sim::new(MachineConfig::uniform_test());
            let world = MsgWorld::new(&mut sim, topo, vendor);
            let latest_arrival = SimTime::from_us(50);
            for rank in 0..topo.nprocs() {
                let coll = MpiColl::new(world.endpoint(rank));
                sim.spawn(format!("rank{rank}"), move |ctx| {
                    ctx.advance(SimTime::from_us(10 * rank as u64));
                    coll.barrier(&ctx);
                    assert!(
                        ctx.now() >= latest_arrival,
                        "rank {rank} left the barrier at {} before the last arrival",
                        ctx.now()
                    );
                });
            }
            sim.run().unwrap();
        }
    }

    #[test]
    fn single_rank_collectives_are_noops() {
        let topo = Topology::new(1, 1);
        let (results, report) = run_cluster(
            topo,
            Vendor::IbmMpi,
            8,
            |_| to_bytes_u64(&[42]),
            |ctx, coll, data| {
                let buf = ShmBuffer::new(8);
                buf.with_mut(|d| d.copy_from_slice(data));
                coll.broadcast(ctx, &buf, 8, 0);
                coll.allreduce(ctx, &buf, 8, DType::U64, ReduceOp::Sum);
                coll.reduce(ctx, &buf, 8, DType::U64, ReduceOp::Sum, 0);
                coll.barrier(ctx);
                buf.with(|d| data.copy_from_slice(d));
            },
        );
        assert_eq!(from_bytes_u64(&results[0]), vec![42]);
        assert_eq!(report.metrics.net_messages, 0);
        assert_eq!(report.end_time, SimTime::ZERO);
    }

    #[test]
    fn intra_node_bcast_uses_no_network() {
        let topo = Topology::new(1, 8);
        let (_, report) = run_cluster(topo, Vendor::IbmMpi, 32, |_| vec![1u8; 32], bcast_body(0));
        assert_eq!(report.metrics.net_messages, 0);
        // 7 point-to-point hops x 2 copies each.
        assert_eq!(report.metrics.shm_copies, 14);
        assert_eq!(report.metrics.matches, 7);
    }

    #[test]
    fn eager_limit_pushes_large_bcast_to_rendezvous() {
        let topo = Topology::new(4, 1);
        let (_, report) = run_cluster(
            topo,
            Vendor::IbmMpi,
            100_000,
            |_| vec![2u8; 100_000],
            bcast_body(0),
        );
        assert_eq!(report.metrics.rndv_sends, 3);
        assert_eq!(report.metrics.eager_sends, 0);
    }

    #[test]
    fn subgroup_allreduce_non_contiguous_matches_reference() {
        // Group {1, 3, 4, 6} of a 2x4 world, both vendors; world ranks
        // outside the group never touch the fabric.
        for vendor in [Vendor::IbmMpi, Vendor::Mpich] {
            let topo = Topology::new(2, 4);
            let group = vec![1usize, 3, 4, 6];
            let contribs: Vec<Vec<u8>> = group.iter().map(|&r| to_bytes_u64(&[r as u64])).collect();
            let expect = reference_reduce(DType::U64, ReduceOp::Sum, &contribs);
            let mut sim = Sim::new(MachineConfig::uniform_test());
            let world = MsgWorld::new(&mut sim, topo, vendor);
            let out: Arc<Mutex<Vec<Vec<u8>>>> = Arc::new(Mutex::new(vec![Vec::new(); group.len()]));
            for (crank, &rank) in group.iter().enumerate() {
                let coll = MpiColl::subgroup(world.endpoint(rank), &group, 1);
                assert_eq!(coll.size(), 4);
                assert_eq!(coll.comm_rank(), crank);
                let out = out.clone();
                sim.spawn(format!("rank{rank}"), move |ctx| {
                    let buf = ShmBuffer::new(8);
                    buf.with_mut(|d| d.copy_from_slice(&to_bytes_u64(&[rank as u64])));
                    coll.allreduce(&ctx, &buf, 8, DType::U64, ReduceOp::Sum);
                    out.lock().unwrap()[crank] = buf.with(|d| d.to_vec());
                });
            }
            sim.run().unwrap();
            for (crank, r) in out.lock().unwrap().iter().enumerate() {
                assert_eq!(r, &expect, "vendor {vendor:?}, comm rank {crank}");
            }
        }
    }

    #[test]
    fn subgroup_gather_root_not_group_head() {
        // Root is communicator rank 2 (world rank 5); segments are laid
        // out by communicator rank.
        let topo = Topology::new(3, 2);
        let group = vec![0usize, 2, 5];
        let root = 2usize;
        let mut sim = Sim::new(MachineConfig::uniform_test());
        let world = MsgWorld::new(&mut sim, topo, Vendor::IbmMpi);
        let out: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
        for (crank, &rank) in group.iter().enumerate() {
            let coll = MpiColl::subgroup(world.endpoint(rank), &group, 7);
            let out = out.clone();
            sim.spawn(format!("rank{rank}"), move |ctx| {
                let buf = ShmBuffer::new(3 * 8);
                buf.with_mut(|d| d[crank * 8..(crank + 1) * 8].copy_from_slice(&[crank as u8; 8]));
                coll.gather(&ctx, &buf, 8, root);
                if crank == root {
                    *out.lock().unwrap() = buf.with(|d| d.to_vec());
                }
            });
        }
        sim.run().unwrap();
        let got = out.lock().unwrap().clone();
        let expect: Vec<u8> = (0..3u8).flat_map(|c| [c; 8]).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn disjoint_subgroups_run_concurrently() {
        // Even and odd world ranks each form their own communicator
        // with distinct context ids and allreduce simultaneously.
        let topo = Topology::new(2, 4);
        let groups = [vec![0usize, 2, 4, 6], vec![1usize, 3, 5, 7]];
        let mut sim = Sim::new(MachineConfig::uniform_test());
        let world = MsgWorld::new(&mut sim, topo, Vendor::Mpich);
        let out: Arc<Mutex<Vec<Vec<u8>>>> = Arc::new(Mutex::new(vec![Vec::new(); topo.nprocs()]));
        for (gi, group) in groups.iter().enumerate() {
            for &rank in group {
                let coll = MpiColl::subgroup(world.endpoint(rank), group, 1 + gi as u16);
                let out = out.clone();
                sim.spawn(format!("rank{rank}"), move |ctx| {
                    let buf = ShmBuffer::new(8);
                    buf.with_mut(|d| d.copy_from_slice(&to_bytes_u64(&[1 << rank])));
                    coll.allreduce(&ctx, &buf, 8, DType::U64, ReduceOp::Sum);
                    out.lock().unwrap()[rank] = buf.with(|d| d.to_vec());
                });
            }
        }
        sim.run().unwrap();
        // Even ranks sum the even one-hot bits, odd ranks the odd ones.
        for rank in 0..topo.nprocs() {
            let expect: u64 = groups[rank % 2].iter().map(|&r| 1u64 << r).sum();
            assert_eq!(
                from_bytes_u64(&out.lock().unwrap()[rank]),
                vec![expect],
                "rank {rank}"
            );
        }
    }

    #[test]
    fn mpich_collectives_slower_than_ibm() {
        let topo = Topology::new(4, 4);
        let run = |vendor: Vendor| {
            run_cluster(topo, vendor, 1024, |_| vec![3u8; 1024], bcast_body(0))
                .1
                .end_time
        };
        assert!(run(Vendor::Mpich) > run(Vendor::IbmMpi));
    }
}
