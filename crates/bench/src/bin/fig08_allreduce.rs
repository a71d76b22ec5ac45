//! Figure 8: performance of SRM allreduce (sum of doubles).
//! Left panel: absolute time vs size for P = 16..256.
//! Right panel: SRM vs IBM MPI vs MPICH up to 64 KB at the largest P.
//! Then Figure 11 from the same sweep: T_SRM/T_MPI x 100% against IBM
//! MPI and MPICH, lower is better.

use srm_bench::{print_absolute_panel, print_comparison_panel, print_ratio_panels, sweep};
use srm_cluster::Op;

fn main() {
    let s = sweep(Op::Allreduce);
    print_absolute_panel("Figure 8 (left): SRM allreduce, time vs message size", &s);
    print_comparison_panel("Figure 8 (right): allreduce comparison", &s, 64 << 10);
    print_ratio_panels("Figure 11: allreduce", &s);
}
