//! The trees `SrmModel::trees` derives for multi-chunk broadcasts and
//! reduces, judged by single-call latency against the forced kinds it
//! chooses among; one-chunk calls stay on the configured tree.

use simnet::{MachineConfig, Sim, Topology};
use srm::{PlanShape, SrmTuning, SrmWorld, TreeKind};
use srm_cluster::{measure, HarnessOpts, Impl, Op};

fn tuning(tree: Option<TreeKind>) -> SrmTuning {
    SrmTuning {
        tree,
        ..SrmTuning::default()
    }
}

/// Virtual µs of one call (after the harness's warm-up call).
fn latency(topo: Topology, op: Op, len: usize, tree: Option<TreeKind>) -> f64 {
    let opts = HarnessOpts {
        iters: 1,
        srm: tuning(tree),
    };
    let machine = MachineConfig::ibm_sp_colony();
    measure(Impl::Srm, machine, topo, op, len, opts)
        .per_call
        .as_us()
}

/// The kinds the derivation chooses among; the last one only under a
/// reducing master.
const FORCED: [TreeKind; 4] = [
    TreeKind::Binomial,
    TreeKind::Binary,
    TreeKind::Chain,
    TreeKind::HungBinary,
];

/// On every grid point the derived default is within 3 % of forced
/// binomial (it never gives up what the one default had) and within
/// 10 % of the best forced kind (one named cell: 15 %).
fn derived_tracks_forced(tpn: usize, node_counts: &[usize]) {
    for &nodes in node_counts {
        let topo = Topology::new(nodes, tpn);
        for op in [Op::Bcast, Op::Reduce] {
            for len in [16usize << 10, 32 << 10, 128 << 10, 256 << 10, 1 << 20] {
                let derived = latency(topo, op, len, None);
                let kinds = &FORCED[..if op == Op::Bcast { 3 } else { 4 }];
                let forced: Vec<f64> = (kinds.iter())
                    .map(|&k| latency(topo, op, len, Some(k)))
                    .collect();
                let best = forced.iter().copied().fold(f64::INFINITY, f64::min);
                let what = format!("{} of {len} B on {topo}", op.name());
                println!("{what}: derived {derived:.1}, forced {forced:.1?}");
                assert!(
                    derived <= 1.03 * forced[0],
                    "{what}: derived {derived:.1} us vs binomial {:.1} us",
                    forced[0]
                );
                // The one cell off the 1.10 band: binary reads 160 us
                // here, binomial and the derived tree 180 (1.12) —
                // whether this 4 KB-chunk pipeline's credits meet a
                // polling master is decided by a few microseconds, which
                // the closed form does not track (8x16: binary is 7 %
                // *slower*).
                let band = match (nodes, tpn, op, len) {
                    (8, 4, Op::Bcast, 16_384) => 1.15,
                    _ => 1.10,
                };
                assert!(
                    derived <= band * best,
                    "{what}: derived {derived:.1} us vs best forced {best:.1} us"
                );
                // The shapes of the benchmark's `large_p64`.
                let pin = match (nodes, tpn, op, len) {
                    (4, 16, Op::Bcast, 1_048_576) => 3_700.0,
                    (4, 16, Op::Reduce, 1_048_576) => 6_000.0,
                    _ => f64::INFINITY,
                };
                assert!(derived <= pin, "{what}: {derived:.1} us, pinned {pin} us");
            }
        }
    }
}

// One grid, 2–16 nodes of 4 and 16 tasks, cut in three so that tier-1
// (unoptimized) runs it on as many host threads.
#[test]
fn derived_trees_track_the_best_forced_kind_on_4_way_nodes() {
    derived_tracks_forced(4, &[2, 4, 8, 16]);
}

#[test]
fn derived_trees_track_the_best_forced_kind_on_16_way_nodes() {
    derived_tracks_forced(16, &[2, 4, 8]);
}

#[test]
fn derived_trees_track_the_best_forced_kind_on_16_nodes_16_way() {
    derived_tracks_forced(16, &[16]);
}

#[test]
fn one_chunk_calls_compile_the_configured_plan() {
    let topo = Topology::new(8, 4);
    let worlds = [None, Some(TreeKind::Binomial)].map(|tree| {
        let mut sim = Sim::new(MachineConfig::ibm_sp_colony());
        SrmWorld::new(&mut sim, topo, tuning(tree))
    });
    let root = topo.nprocs() - 1;
    for shape in [
        PlanShape::Bcast { len: 8, root: 0 },
        PlanShape::Bcast { len: 8 << 10, root },
        PlanShape::Bcast {
            len: 64 << 10,
            root: 0,
        },
        PlanShape::Reduce { len: 8, root },
        PlanShape::Reduce {
            len: 16 << 10,
            root: 0,
        },
    ] {
        for rank in 0..topo.nprocs() {
            let [derived, forced] = worlds.each_ref().map(|w| {
                let comm = w.comm(rank);
                format!("{:?}", comm.build_plan(&comm.key(shape.clone())).steps)
            });
            assert_eq!(derived, forced, "{shape:?}, rank {rank}");
        }
    }
}
