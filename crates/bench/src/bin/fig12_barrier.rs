//! Figure 12: barrier time vs processor count for SRM, IBM MPI and
//! MPICH (the paper reports a 73% improvement over MPI at 256), carried
//! on to 4 096 processors with `SrmModel`'s closed form beside it.

use simnet::{MachineConfig, Topology};
use srm::{SrmModel, SrmTuning};
use srm_bench::sweep_barrier;
use srm_cluster::Impl;

fn main() {
    let pts = sweep_barrier();
    println!("\nFigure 12: barrier time vs number of processors");
    println!(
        "{:>8} {:>10} {:>10} {:>10} {:>10} {:>12} {:>10}",
        "procs", "SRM (us)", "model", "MPI (us)", "MPICH (us)", "SRM/MPI", "SRM/model"
    );
    let mut procs: Vec<usize> = pts.iter().map(|p| p.nprocs).collect();
    procs.sort_unstable();
    procs.dedup();
    for n in procs {
        let get = |imp: Impl| {
            pts.iter()
                .find(|p| p.imp == imp && p.nprocs == n)
                .map(|p| p.us)
                .unwrap_or(f64::NAN)
        };
        let (s, m, c) = (get(Impl::Srm), get(Impl::IbmMpi), get(Impl::Mpich));
        let topo = Topology::sp_16way(n / 16);
        let model = SrmModel::new(MachineConfig::ibm_sp_colony(), topo, SrmTuning::default())
            .barrier()
            .as_us();
        println!(
            "{n:>8} {s:>10.1} {model:>10.1} {m:>10.1} {c:>10.1} {:>11.0}% {:>10.2}",
            100.0 * s / m,
            s / model
        );
    }
}
