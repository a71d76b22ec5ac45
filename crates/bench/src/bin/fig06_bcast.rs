//! Figure 6: performance of SRM broadcast.
//! Left panel: absolute time vs size (8 B – 8 MB) for P = 16..256.
//! Right panel: SRM vs IBM MPI vs MPICH up to 64 KB at the largest P.
//! Then Figure 9 from the same sweep: T_SRM/T_MPI x 100% against IBM
//! MPI and MPICH, lower is better.

use srm_bench::{print_absolute_panel, print_comparison_panel, print_ratio_panels, sweep};
use srm_cluster::Op;

fn main() {
    let s = sweep(Op::Bcast);
    print_absolute_panel("Figure 6 (left): SRM broadcast, time vs message size", &s);
    print_comparison_panel("Figure 6 (right): broadcast comparison", &s, 64 << 10);
    print_ratio_panels("Figure 9: broadcast", &s);
}
