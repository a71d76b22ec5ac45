//! Extra figure (beyond the paper's 6–12): the segmented collectives
//! — gather, scatter, allgather — built from the same SRM schedule
//! primitives, against both MPI baselines.
//!
//! `len` is the per-rank segment, so a point moves `nprocs × len`
//! bytes in total; the grid therefore stops at 64 KB segments where
//! the 8 MB figures stop. The paper did not measure these operations;
//! this sweep documents that its protocol components (contribution
//! channels, direct user-buffer puts, node-pair distribution)
//! compose into vector collectives with the same kind of advantage.

use simnet::MachineConfig;
use srm_bench::{
    fast_mode, iters_for, print_comparison_panel, print_ratio_panels, proc_grid, Point, Sweep,
};
use srm_cluster::{measure, HarnessOpts, Impl, Op};

fn seg_size_grid(op: Op) -> Vec<usize> {
    // Allgather moves nprocs x the gathered buffer again on the
    // broadcast leg; cap its grid one notch lower to keep the sweep
    // affordable.
    let top = if matches!(op, Op::Allgather) {
        16 << 10
    } else {
        64 << 10
    };
    let all = if fast_mode() {
        vec![8, 2 << 10, 16 << 10, 64 << 10]
    } else {
        vec![8, 128, 2 << 10, 8 << 10, 16 << 10, 64 << 10]
    };
    all.into_iter().filter(|&l| l <= top).collect()
}

fn run_sweep(op: Op) -> Sweep {
    let machine = MachineConfig::ibm_sp_colony();
    let mut points = Vec::new();
    for topo in proc_grid() {
        for &len in &seg_size_grid(op) {
            for imp in Impl::ALL {
                let opts = HarnessOpts {
                    iters: iters_for(len * topo.nprocs()),
                    ..Default::default()
                };
                let wall = std::time::Instant::now();
                let m = measure(imp, machine.clone(), topo, op, len, opts);
                eprintln!(
                    "[run] {} {} P={} seg={} -> {:.1}us (wall {:.1?})",
                    op.name(),
                    imp.name(),
                    topo.nprocs(),
                    len,
                    m.per_call.as_us(),
                    wall.elapsed()
                );
                points.push(Point {
                    imp,
                    nprocs: topo.nprocs(),
                    len,
                    us: m.per_call.as_us(),
                });
            }
        }
    }
    Sweep { points }
}

fn main() {
    for op in [Op::Gather, Op::Scatter, Op::Allgather] {
        let s = run_sweep(op);
        let title = format!("Extra figure: {} (per-rank segment bytes)", op.name());
        print_comparison_panel(&title, &s, 64 << 10);
        print_ratio_panels(&title, &s);
    }
}
