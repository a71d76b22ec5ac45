//! The paper's headline claims (abstract / section 3):
//! - SRM broadcast outperforms IBM MPI_Bcast by 27%-84%
//! - SRM reduce outperforms MPI_Reduce by 24%-79%
//! - SRM allreduce outperforms MPI_Allreduce by 30%-73%
//! - SRM barrier outperforms MPI_Barrier by 73% on 256 processors
//!
//! This binary measures the three sweeps and computes the bands.

use srm_bench::{improvement_band, sweep, sweep_barrier};
use srm_cluster::{Impl, Op};

fn main() {
    println!("Headline reproduction (improvement = 100% - T_SRM/T_MPI x 100%)\n");
    for (op, paper) in [
        (Op::Bcast, "27%-84%"),
        (Op::Reduce, "24%-79%"),
        (Op::Allreduce, "30%-73%"),
    ] {
        let s = sweep(op);
        for base in [Impl::IbmMpi, Impl::Mpich] {
            let (lo, hi) = improvement_band(&s, base);
            let note = if base == Impl::IbmMpi {
                format!("(paper vs IBM: {paper})")
            } else {
                "(paper: similar or better margins)".to_string()
            };
            println!(
                "{:9} vs {:8}: improvement {:>5.0}%..{:>4.0}% {}",
                op.name(),
                base.name(),
                lo,
                hi,
                note
            );
        }
    }
    // Barrier at the paper's largest processor count (the sweep goes on).
    let pts = sweep_barrier();
    let get = |imp: Impl| {
        pts.iter()
            .find(|p| p.imp == imp && p.nprocs == 256)
            .map(|p| p.us)
            .unwrap()
    };
    let impr = 100.0 - 100.0 * get(Impl::Srm) / get(Impl::IbmMpi);
    println!("barrier   vs IBM MPI at P=256: improvement {impr:.0}% (paper: 73% on 256 procs)");
}
