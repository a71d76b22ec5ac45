//! The interrupt rule (§2.3 with no size cap): every multi-node
//! broadcast, reduce, allreduce, alltoall and allgather runs its wire
//! ranks with interrupts off at every size, judged by single-call
//! latency against the two forced values it replaced, interrupts on
//! everywhere (`interrupt_disable_max` 0) and the paper's small-call
//! cut (8 KiB).

use simnet::{MachineConfig, Topology};
use srm::SrmTuning;
use srm_cluster::{measure, HarnessOpts, Impl, Op};

/// Virtual µs of one call (after the harness's warm-up call).
fn latency(topo: Topology, op: Op, len: usize, interrupt_disable_max: usize) -> f64 {
    let opts = HarnessOpts {
        iters: 1,
        srm: SrmTuning {
            interrupt_disable_max,
            ..SrmTuning::default()
        },
    };
    let machine = MachineConfig::ibm_sp_colony();
    measure(Impl::Srm, machine, topo, op, len, opts)
        .per_call
        .as_us()
}

/// On every grid point the default is within 5 % of the better of the
/// two forced values.
fn default_tracks_forced(nodes: usize, tpn: usize) {
    let topo = Topology::new(nodes, tpn);
    for op in [
        Op::Bcast,
        Op::Reduce,
        Op::Allreduce,
        Op::Alltoall,
        Op::Allgather,
    ] {
        for len in [16usize << 10, 64 << 10, 256 << 10] {
            let derived = latency(topo, op, len, SrmTuning::default().interrupt_disable_max);
            let forced = [0, 8 << 10].map(|cut| latency(topo, op, len, cut));
            let best = forced.iter().copied().fold(f64::INFINITY, f64::min);
            let what = format!("{} of {len} B on {topo}", op.name());
            println!("{what}: default {derived:.1}, forced [on, 8 KB cut] {forced:.1?}");
            assert!(
                derived <= 1.05 * best,
                "{what}: default {derived:.1} us vs best forced {best:.1} us"
            );
        }
    }
}

// One grid cut in two, so that tier-1 runs it on as many host threads.
#[test]
fn quiet_wire_ranks_track_the_best_forced_cut_on_narrow_nodes() {
    for (nodes, tpn) in [(2, 1), (16, 1), (8, 2)] {
        default_tracks_forced(nodes, tpn);
    }
}

#[test]
fn quiet_wire_ranks_track_the_best_forced_cut_on_wide_nodes() {
    for (nodes, tpn) in [(4, 4), (3, 5)] {
        default_tracks_forced(nodes, tpn);
    }
}
