//! Unified measurement harness: run any collective implementation
//! (SRM, IBM-MPI-like, MPICH-like) on any topology/machine and measure
//! the mean virtual time per call — the paper's metric ("average
//! execution time for 1000 calls of a given operation").

pub use collops::{ragged_counts, Op};
use collops::{Collectives, DType, ReduceOp};
use mpi_coll::MpiColl;
use msg::{MsgWorld, Vendor};
use shmem::ShmBuffer;
use simnet::{Ctx, MachineConfig, MetricsSnapshot, Rank, Sim, SimTime, Topology};
use srm::{SrmTuning, SrmWorld, TuneTable};
use std::sync::{Arc, Mutex};

/// Per-rank timing sample: the timed region's start and end, each with
/// the world's counters at that instant.
type Samples = Arc<Mutex<Vec<((SimTime, MetricsSnapshot), (SimTime, MetricsSnapshot))>>>;

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

/// Result of one measurement configuration.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Mean virtual time per call.
    pub per_call: SimTime,
    /// Event counters accumulated over the measured calls (not the
    /// warmup): from the first rank's start to the last rank's finish.
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

/// Measure `op` at payload `len` bytes under `imp` on `topo`: the
/// call is [`Op::shape`] rooted at rank 0, summing doubles where it
/// reduces.
///
/// Methodology: every rank performs one warmup call (fills pipelines,
/// triggers any lazy setup), synchronizes with the implementation's own
/// barrier, then performs `iters` timed calls. The reported time runs
/// from the last rank's start to the last rank's finish, divided by
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

    let nprocs = topo.nprocs();
    for rank in 0..nprocs {
        let out = out.clone();
        match &world {
            World::Srm(w) => {
                let comm = w.comm(rank);
                sim.spawn(format!("rank{rank}"), move |ctx| {
                    run_rank(&ctx, rank, nprocs, &comm, op, len, iters, &out);
                    comm.shutdown(&ctx);
                });
            }
            World::Mpi(w) => {
                let coll = MpiColl::new(w.endpoint(rank));
                sim.spawn(format!("rank{rank}"), move |ctx| {
                    run_rank(&ctx, rank, nprocs, &coll, op, len, iters, &out);
                });
            }
        }
    }
    let _report = sim.run().expect("measurement run must complete");
    let samples = out.lock().unwrap();
    assert_eq!(samples.len(), topo.nprocs());
    // The operation starts when the last rank is ready and completes
    // when the last rank finishes. The counters are global, so they
    // cover everything from the first rank's start to that finish.
    let (begins, ends): (Vec<_>, Vec<_>) = samples.iter().copied().unzip();
    let start = begins.iter().map(|b| b.0).max().expect("nonempty");
    let (_, m0) = *begins.iter().min_by_key(|b| b.0).expect("nonempty");
    let (end, m1) = *ends.iter().max_by_key(|e| e.0).expect("nonempty");
    Measurement {
        per_call: SimTime::from_ps((end - start).as_ps() / iters as u64),
        metrics: m1.since(&m0),
        iters,
    }
}

#[allow(clippy::too_many_arguments)]
fn run_rank(
    ctx: &Ctx,
    rank: Rank,
    nprocs: usize,
    coll: &dyn Collectives,
    op: Op,
    len: usize,
    iters: usize,
    out: &Samples,
) {
    // The count matrix is `nprocs²` entries: built once per rank, its
    // `Arc` cloned per call.
    let shape = op.shape(len, 0, nprocs);
    let buf = ShmBuffer::new(shape.extent(nprocs));
    buf.with_mut(|d| {
        for (i, x) in d.iter_mut().enumerate() {
            *x = (i as u8).wrapping_add(rank as u8);
        }
    });
    let sum = Some((DType::F64, ReduceOp::Sum));
    let one_call = |ctx: &Ctx| coll.call(ctx, shape.clone(), &buf, sum);

    // Warmup + sync.
    one_call(ctx);
    coll.barrier(ctx);

    let begin = (ctx.now(), ctx.metrics_snapshot());
    for _ in 0..iters {
        one_call(ctx);
    }
    let end = (ctx.now(), ctx.metrics_snapshot());
    out.lock().unwrap().push((begin, end));
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
