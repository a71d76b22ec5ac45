//! Extra figure: the pairwise RMA exchange family — alltoall (one put
//! per remote rank pair over a node-local rotation) and reduce-scatter
//! (two credited landings per node pair below 64 KB, direct above) — against
//! both MPI baselines. (alltoallv compiles through the same planner as
//! alltoall with a third of its harness cells empty, so the figure
//! sticks to the uniform ops.)
//!
//! `len` is the per-pair segment, so an alltoall point moves
//! `nprocs² × len` bytes in total; the grid is filtered so each rank's
//! working set stays within the figures' 8 MB ceiling. The paper did
//! not measure these operations; this sweep documents that its
//! address exchange and counter flow control extend to fully
//! personalized traffic patterns.

use simnet::MachineConfig;
use srm_bench::{
    fast_mode, iters_for, print_comparison_panel, print_ratio_panels, proc_grid, Point, Sweep,
};
use srm_cluster::{measure, HarnessOpts, Impl, Op};

fn pair_size_grid(nprocs: usize) -> Vec<usize> {
    let all = if fast_mode() {
        vec![8, 512, 4 << 10, 16 << 10]
    } else {
        vec![8, 128, 512, 2 << 10, 4 << 10, 16 << 10, 64 << 10]
    };
    // Cap the per-rank working set (nprocs segments each way): total
    // traffic grows as nprocs^2 x len, so large segments are only
    // affordable at small process counts.
    all.into_iter()
        .filter(|&l| nprocs * l <= 512 << 10)
        .collect()
}

fn run_sweep(op: Op) -> Sweep {
    let machine = MachineConfig::ibm_sp_colony();
    let mut points = Vec::new();
    for topo in proc_grid() {
        for &len in &pair_size_grid(topo.nprocs()) {
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
    for op in [Op::Alltoall, Op::ReduceScatter] {
        let s = run_sweep(op);
        let title = format!("Extra figure: {} (per-pair segment bytes)", op.name());
        // The absolute panel shows the largest process count, where the
        // working-set cap admits only segments up to 512 KB / nprocs.
        print_comparison_panel(&title, &s, (512 << 10) / 256);
        print_ratio_panels(&title, &s);
    }
}
