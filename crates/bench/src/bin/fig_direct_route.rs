//! Extra figure X16: staged vs direct segment routing for
//! reduce_scatter, the one pairwise collective that still has two
//! routes (alltoall and alltoallv have one wire, direct at every
//! size), per-rank segments 8 B – 256 KB on four cluster shapes.
//!
//! Three runs per point, identical except for `pairwise_direct_min`:
//! **staged** (`usize::MAX`) chunks every master-to-master piece
//! through the two credited `Ring` landings of each node pair (spend
//! the side's credit, put, fold, put the credit back); **direct** (`0`) exchanges scratch addresses at
//! call time and lands every piece in the peer master's scratch with
//! no credits; **default** leaves the 64 KB threshold in place, so the
//! printed route column shows which side the planner picked on its
//! own. The two routes differ only in their flow control — the
//! reduction needs a landing place either way — yet neither wins
//! everywhere; the figure is the grid a model-derived route choice has
//! to be judged on.
//!
//! ```sh
//! cargo run --release -p srm-bench --bin fig_direct_route
//! ```

use simnet::{MachineConfig, Topology};
use srm::SrmTuning;
use srm_bench::{fast_mode, iters_for};
use srm_cluster::{measure, HarnessOpts, Impl, Op};

fn time_us(topo: Topology, len: usize, direct_min: usize) -> f64 {
    let opts = HarnessOpts {
        iters: iters_for(len * topo.nprocs()),
        srm: SrmTuning {
            pairwise_direct_min: direct_min,
            ..SrmTuning::default()
        },
    };
    let machine = MachineConfig::ibm_sp_colony();
    measure(Impl::Srm, machine, topo, Op::ReduceScatter, len, opts)
        .per_call
        .as_us()
}

fn main() {
    let (shapes, sizes): (&[(usize, usize)], &[usize]) = if fast_mode() {
        (&[(4, 4), (16, 4)], &[8, 4 << 10, 64 << 10])
    } else {
        (
            &[(4, 4), (4, 16), (16, 4), (16, 16)],
            &[8, 512, 4 << 10, 16 << 10, 64 << 10, 256 << 10],
        )
    };
    let threshold = SrmTuning::default().pairwise_direct_min;
    println!(
        "reduce_scatter segment routing: staged (credited landings) vs direct \
         (address exchange + scratch)\ndefault pairwise_direct_min = {threshold} B\n"
    );
    for &(nodes, tpn) in shapes {
        let topo = Topology::new(nodes, tpn);
        println!("{topo}");
        println!("{}", "-".repeat(74));
        println!(
            "{:>10} {:>13} {:>13} {:>13} {:>9} {:>8}",
            "seg bytes", "staged (us)", "direct (us)", "default (us)", "route", "dir/stg"
        );
        // Every rank holds `nprocs` segments: stop at 1 GiB in all.
        let fits = |len: usize| topo.nprocs() * topo.nprocs() * len <= 1 << 30;
        for &len in sizes.iter().filter(|&&len| fits(len)) {
            let staged = time_us(topo, len, usize::MAX);
            let direct = time_us(topo, len, 0);
            let default = time_us(topo, len, threshold);
            let route = if len >= threshold { "direct" } else { "staged" };
            println!(
                "{:>10} {:>13.1} {:>13.1} {:>13.1} {:>9} {:>+7.1}%",
                len,
                staged,
                direct,
                default,
                route,
                100.0 * (direct / staged - 1.0)
            );
        }
        println!();
    }
}
