//! Figure 7: performance of SRM reduce (sum of doubles).
//! Left panel: absolute time vs size for P = 16..256.
//! Right panel: SRM vs IBM MPI vs MPICH up to 64 KB at the largest P.
//! Then Figure 10 from the same sweep: T_SRM/T_MPI x 100% against IBM
//! MPI and MPICH, lower is better.

use srm_bench::{print_absolute_panel, print_comparison_panel, print_ratio_panels, sweep};
use srm_cluster::Op;

fn main() {
    let s = sweep(Op::Reduce);
    print_absolute_panel("Figure 7 (left): SRM reduce, time vs message size", &s);
    print_comparison_panel("Figure 7 (right): reduce comparison", &s, 64 << 10);
    print_ratio_panels("Figure 10: reduce", &s);
}
