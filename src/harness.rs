//! Unified measurement harness: run any collective implementation
//! (SRM, IBM-MPI-like, MPICH-like) on any topology/machine and measure
//! the mean virtual time per call — the paper's metric ("average
//! execution time for 1000 calls of a given operation").

use collops::{CollRequest, Collectives, DType, NonblockingCollectives, ReduceOp};
use mpi_coll::MpiColl;
use msg::{MsgWorld, Vendor};
use shmem::ShmBuffer;
use simnet::{Ctx, MachineConfig, MetricsSnapshot, Rank, Sim, SimTime, Topology};
use srm::{SrmTuning, SrmWorld, TuneTable};
use std::sync::{Arc, Mutex};

/// Per-rank timing sample: (timed-region start, end, metrics over it).
type Samples = Arc<Mutex<Vec<(SimTime, SimTime, MetricsSnapshot)>>>;

/// Which implementation to measure.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Impl {
    /// The paper's contribution.
    Srm,
    /// Binomial-tree collectives over eager/rendezvous point-to-point
    /// with IBM-like tuning.
    IbmMpi,
    /// Same layering with MPICH-like tuning and algorithms.
    Mpich,
}

impl Impl {
    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Impl::Srm => "SRM",
            Impl::IbmMpi => "IBM MPI",
            Impl::Mpich => "MPICH",
        }
    }

    /// All three implementations, SRM first.
    pub const ALL: [Impl; 3] = [Impl::Srm, Impl::IbmMpi, Impl::Mpich];
}

/// Which collective to measure.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Op {
    /// `MPI_Bcast` equivalent, root 0.
    Bcast,
    /// `MPI_Reduce` equivalent (sum of doubles, root 0).
    Reduce,
    /// `MPI_Allreduce` equivalent (sum of doubles).
    Allreduce,
    /// `MPI_Barrier` equivalent.
    Barrier,
    /// `MPI_Gather` equivalent, root 0 (`len` is the per-rank segment).
    Gather,
    /// `MPI_Scatter` equivalent, root 0 (`len` is the per-rank segment).
    Scatter,
    /// `MPI_Allgather` equivalent (`len` is the per-rank segment).
    Allgather,
    /// `MPI_Alltoall` equivalent (`len` is the per-pair segment; the
    /// buffer is split into send and receive halves).
    Alltoall,
    /// `MPI_Alltoallv` equivalent (`len` is the per-pair slot capacity;
    /// the live counts are the deterministic ragged matrix of
    /// [`ragged_counts`]).
    Alltoallv,
    /// `MPI_Reduce_scatter` equivalent (sum of doubles; `len` is the
    /// per-rank result block).
    ReduceScatter,
}

/// The deterministic ragged count matrix used by [`Op::Alltoallv`], a
/// pure function of `(nprocs, seg)` and so identical on every rank:
/// with `h = i·7 + j·13 + 3`, slot `(i, j)` is empty, full (`seg`
/// bytes) or strictly partial as `h mod 3` is 0, 1 or 2 — a third of
/// the pairs each, for every `seg`, and the partial sizes differ from
/// pair to pair, so row and column sums are uneven.
pub fn ragged_counts(nprocs: usize, seg: usize) -> Vec<usize> {
    (0..nprocs * nprocs)
        .map(|k| {
            let h = (k / nprocs) * 7 + (k % nprocs) * 13 + 3;
            match h % 3 {
                0 => 0,
                1 => seg,
                // In `1..seg` wherever that range is not empty.
                _ => (1 + h * 7919 % seg.saturating_sub(1).max(1)).min(seg),
            }
        })
        .collect()
}

impl Op {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Op::Bcast => "broadcast",
            Op::Reduce => "reduce",
            Op::Allreduce => "allreduce",
            Op::Barrier => "barrier",
            Op::Gather => "gather",
            Op::Scatter => "scatter",
            Op::Allgather => "allgather",
            Op::Alltoall => "alltoall",
            Op::Alltoallv => "alltoallv",
            Op::ReduceScatter => "reduce-scatter",
        }
    }

    /// Buffer capacity one rank needs for a payload parameter of `len`
    /// bytes on `nprocs` ranks (the segment ops assemble `nprocs`
    /// segments in place).
    pub fn buf_len(self, len: usize, nprocs: usize) -> usize {
        match self {
            Op::Gather | Op::Scatter | Op::Allgather | Op::ReduceScatter => (nprocs * len).max(8),
            Op::Alltoall | Op::Alltoallv => (2 * nprocs * len).max(8),
            _ => len.max(8),
        }
    }

    /// The count matrix a call of this operation reads: the
    /// [`ragged_counts`] for alltoallv — `nprocs²` entries, so built
    /// once per rank and shape — and none for every other operation.
    pub(crate) fn counts(self, nprocs: usize, len: usize) -> Vec<usize> {
        if self == Op::Alltoallv {
            ragged_counts(nprocs, len)
        } else {
            Vec::new()
        }
    }

    /// One blocking call of this operation on `coll`, on a `len`-byte
    /// payload (or segment) in `buf`: rooted at `root` where the
    /// operation has a root, summing `dtype` elements where it reduces,
    /// with `counts` as the alltoallv matrix.
    #[allow(clippy::too_many_arguments)]
    pub fn call(
        self,
        coll: &(impl Collectives + ?Sized),
        ctx: &Ctx,
        buf: &ShmBuffer,
        len: usize,
        root: Rank,
        dtype: DType,
        counts: &[usize],
    ) {
        match self {
            Op::Bcast => coll.broadcast(ctx, buf, len, root),
            Op::Reduce => coll.reduce(ctx, buf, len, dtype, ReduceOp::Sum, root),
            Op::Allreduce => coll.allreduce(ctx, buf, len, dtype, ReduceOp::Sum),
            Op::Barrier => coll.barrier(ctx),
            Op::Gather => coll.gather(ctx, buf, len, root),
            Op::Scatter => coll.scatter(ctx, buf, len, root),
            Op::Allgather => coll.allgather(ctx, buf, len),
            Op::Alltoall => coll.alltoall(ctx, buf, len),
            Op::Alltoallv => coll.alltoallv(ctx, buf, len, counts),
            Op::ReduceScatter => coll.reduce_scatter(ctx, buf, len, dtype, ReduceOp::Sum),
        }
    }

    /// [`Op::call`]'s nonblocking twin: issue the operation and return
    /// its request.
    #[allow(clippy::too_many_arguments)]
    pub fn issue(
        self,
        coll: &(impl NonblockingCollectives + ?Sized),
        ctx: &Ctx,
        buf: &ShmBuffer,
        len: usize,
        root: Rank,
        dtype: DType,
        counts: &[usize],
    ) -> CollRequest {
        match self {
            Op::Bcast => coll.ibroadcast(ctx, buf, len, root),
            Op::Reduce => coll.ireduce(ctx, buf, len, dtype, ReduceOp::Sum, root),
            Op::Allreduce => coll.iallreduce(ctx, buf, len, dtype, ReduceOp::Sum),
            Op::Barrier => coll.ibarrier(ctx),
            Op::Gather => coll.igather(ctx, buf, len, root),
            Op::Scatter => coll.iscatter(ctx, buf, len, root),
            Op::Allgather => coll.iallgather(ctx, buf, len),
            Op::Alltoall => coll.ialltoall(ctx, buf, len),
            Op::Alltoallv => coll.ialltoallv(ctx, buf, len, counts),
            Op::ReduceScatter => coll.ireduce_scatter(ctx, buf, len, dtype, ReduceOp::Sum),
        }
    }
}

/// Result of one measurement configuration.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Mean virtual time per call.
    pub per_call: SimTime,
    /// Event counters accumulated over the measured calls (not the
    /// warmup).
    pub metrics: MetricsSnapshot,
    /// Calls measured.
    pub iters: usize,
}

/// Tuning knobs of the harness itself.
#[derive(Clone, Copy, Debug)]
pub struct HarnessOpts {
    /// Measured calls per configuration (after one warmup call).
    pub iters: usize,
    /// SRM tuning (ignored by the MPI baselines).
    pub srm: SrmTuning,
}

impl Default for HarnessOpts {
    fn default() -> Self {
        HarnessOpts {
            iters: 4,
            srm: SrmTuning::default(),
        }
    }
}

/// Measure `op` at payload `len` bytes under `imp` on `topo`.
///
/// Methodology: every rank performs one warmup call (fills pipelines,
/// triggers any lazy setup), synchronizes with the implementation's own
/// barrier, then performs `iters` timed calls. The reported time is
/// rank 0's elapsed virtual time over the timed region divided by
/// `iters` — the same "mean time per call" the paper plots.
pub fn measure(
    imp: Impl,
    machine: MachineConfig,
    topo: Topology,
    op: Op,
    len: usize,
    opts: HarnessOpts,
) -> Measurement {
    measure_with_table(imp, machine, topo, op, len, opts, None)
}

/// [`measure`] with an optional searched per-shape tuning table loaded
/// into the SRM world ([`SrmWorld::with_tuning_table`]; `opts.srm` is
/// the base tuning the table overlays). Ignored by the MPI baselines.
pub fn measure_with_table(
    imp: Impl,
    machine: MachineConfig,
    topo: Topology,
    op: Op,
    len: usize,
    opts: HarnessOpts,
    table: Option<Arc<TuneTable>>,
) -> Measurement {
    let mut sim = Sim::new(machine);
    let iters = opts.iters;
    let out: Samples = Arc::new(Mutex::new(Vec::new()));

    // Factory per implementation; each rank gets its own collectives
    // object plus a shutdown hook.
    enum World {
        Srm(SrmWorld),
        Mpi(MsgWorld),
    }
    let world = match imp {
        Impl::Srm => World::Srm(match table {
            Some(t) => SrmWorld::with_tuning_table(&mut sim, topo, opts.srm, t),
            None => SrmWorld::new(&mut sim, topo, opts.srm),
        }),
        Impl::IbmMpi => World::Mpi(MsgWorld::new(&mut sim, topo, Vendor::IbmMpi)),
        Impl::Mpich => World::Mpi(MsgWorld::new(&mut sim, topo, Vendor::Mpich)),
    };

    for rank in 0..topo.nprocs() {
        let out = out.clone();
        let (coll, srm_comm): (Box<dyn Collectives + Send>, Option<srm::SrmComm>) = match &world {
            World::Srm(w) => {
                let c = w.comm(rank);
                // SAFETY-free duplication: SrmComm is cheap to create;
                // make one for the trait object and keep none aside —
                // shutdown goes through a second comm handle.
                let c2 = w.comm(rank);
                (Box::new(c), Some(c2))
            }
            World::Mpi(w) => (Box::new(MpiColl::new(w.endpoint(rank))), None),
        };
        let nprocs = topo.nprocs();
        sim.spawn(format!("rank{rank}"), move |ctx| {
            run_rank(&ctx, rank, nprocs, coll.as_ref(), op, len, iters, &out);
            if let Some(c) = srm_comm {
                c.shutdown(&ctx);
            }
        });
    }
    let _report = sim.run().expect("measurement run must complete");
    let samples = out.lock().unwrap();
    assert_eq!(samples.len(), topo.nprocs());
    // The operation starts when the last rank is ready and completes
    // when the last rank finishes.
    let start = samples.iter().map(|s| s.0).max().expect("nonempty");
    let end = samples.iter().map(|s| s.1).max().expect("nonempty");
    let metrics = samples.iter().min_by_key(|s| s.0).expect("nonempty").2;
    Measurement {
        per_call: SimTime::from_ps((end - start).as_ps() / iters as u64),
        metrics,
        iters,
    }
}

#[allow(clippy::too_many_arguments)]
fn run_rank(
    ctx: &Ctx,
    rank: Rank,
    nprocs: usize,
    coll: &(dyn Collectives + Send),
    op: Op,
    len: usize,
    iters: usize,
    out: &Samples,
) {
    let buf = ShmBuffer::new(op.buf_len(len, nprocs));
    buf.with_mut(|d| {
        for (i, x) in d.iter_mut().enumerate() {
            *x = (i as u8).wrapping_add(rank as u8);
        }
    });
    let counts = op.counts(nprocs, len);
    let one_call = |ctx: &Ctx| op.call(coll, ctx, &buf, len, 0, DType::F64, &counts);

    // Warmup + sync.
    one_call(ctx);
    coll.barrier(ctx);

    let t0 = ctx.now();
    let m0 = ctx.metrics_snapshot();
    for _ in 0..iters {
        one_call(ctx);
    }
    let t1 = ctx.now();
    let metrics = ctx.metrics_snapshot().since(&m0);
    out.lock().unwrap().push((t0, t1, metrics));
}

/// `T_SRM / T_MPI × 100 %` — the ratio the paper's Figures 9–11 plot
/// (lower is better; < 100 means SRM is faster).
pub fn ratio_percent(srm: SimTime, mpi: SimTime) -> f64 {
    100.0 * srm.as_ps() as f64 / mpi.as_ps() as f64
}

#[cfg(test)]
mod tests {
    use super::ragged_counts;

    #[test]
    fn ragged_counts_span_empty_partial_and_full_slots_at_every_seg() {
        for n in [2usize, 3, 6, 16] {
            for seg in [1usize, 8, 303, 304, 4096, 1 << 20] {
                let counts = ragged_counts(n, seg);
                assert_eq!(counts.len(), n * n);
                assert!(counts.iter().all(|&c| c <= seg), "n {n} seg {seg}");
                assert!(counts.contains(&0), "no empty slot: n {n} seg {seg}");
                assert!(counts.contains(&seg), "no full slot: n {n} seg {seg}");
                let partial = counts.iter().any(|&c| 0 < c && c < seg);
                assert_eq!(partial, seg >= 2, "n {n} seg {seg}");
                // Uneven loads, once a partial slot has sizes to choose from.
                if seg < 8 {
                    continue;
                }
                let rows: Vec<usize> = counts.chunks(n).map(|r| r.iter().sum()).collect();
                let cols: Vec<usize> = (0..n)
                    .map(|j| counts.iter().skip(j).step_by(n).sum())
                    .collect();
                for sums in [rows, cols] {
                    assert!(sums.iter().any(|&s| s != sums[0]), "n {n} seg {seg}");
                }
            }
        }
        assert!(ragged_counts(4, 0).iter().all(|&c| c == 0));
    }
}
