//! The analytical model (the paper's §5 future work) must stay within
//! a bounded factor of the full simulation across operations, sizes
//! and cluster shapes — otherwise it is useless as the tuning tool the
//! authors wanted. The `model_vs_sim` binary prints the full grid;
//! this test pins the envelope.

use simnet::{MachineConfig, Topology};
use srm::{SrmModel, SrmTuning, TreeKind};
use srm_cluster::{measure, HarnessOpts, Impl, Op};

const MAX_FACTOR: f64 = 2.5;
/// Allreduce is held tighter: its large term is the busy time of group
/// node 0's master, which the skewed pipeline actually runs at, or the
/// reduce and broadcast terms of the composition that runs instead.
const ALLREDUCE_FACTOR: f64 = 1.5;

#[test]
fn model_within_factor_of_simulation() {
    let machine = MachineConfig::ibm_sp_colony();
    for nodes in [2usize, 4, 8] {
        let topo = Topology::sp_16way(nodes);
        let model = SrmModel::new(machine.clone(), topo, SrmTuning::default());
        for (op, len) in [
            (Op::Bcast, 512usize),
            (Op::Bcast, 64 << 10),
            (Op::Bcast, 512 << 10),
            (Op::Reduce, 512),
            (Op::Reduce, 256 << 10),
            (Op::Allreduce, 512),
            (Op::Allreduce, 256 << 10),
            (Op::Allreduce, 1 << 20),
            (Op::Barrier, 8),
        ] {
            let predicted = match op {
                Op::Bcast => model.bcast(len),
                Op::Reduce => model.reduce(len),
                Op::Allreduce => model.allreduce(len),
                Op::Barrier => model.barrier(),
                // The analytical model covers the paper's four measured
                // ops here and alltoall below; the other segment and
                // pairwise ops are simulation-only for now.
                _ => unreachable!(),
            };
            // One call: the isolated latency the closed form prices.
            // Back-to-back calls overlap (a small broadcast's next call
            // starts before the last rank finishes this one).
            let sim = measure(
                Impl::Srm,
                machine.clone(),
                topo,
                op,
                len,
                HarnessOpts {
                    iters: 1,
                    ..Default::default()
                },
            )
            .per_call;
            let ratio = sim.as_us() / predicted.as_us();
            let factor = if op == Op::Allreduce {
                ALLREDUCE_FACTOR
            } else {
                MAX_FACTOR
            };
            assert!(
                (1.0 / factor..factor).contains(&ratio),
                "{} {}B on {} nodes: model {predicted} vs sim {sim} (x{ratio:.2})",
                op.name(),
                len,
                nodes
            );
        }
    }
}

/// Alltoall is held tighter than the tree operations: its two bounds —
/// per-port wire serialization and memory-bus contention — are all
/// there is to it, so a plan that stages, funnels or takes turns shows
/// up as a miss here.
#[test]
fn alltoall_within_tight_factor_of_simulation() {
    const MAX_FACTOR: f64 = 1.8;
    let machine = MachineConfig::ibm_sp_colony();
    for (nodes, tpn, len) in [
        (4usize, 4usize, 16usize << 10),
        (4, 4, 256 << 10),
        (1, 16, 16 << 10),
        (4, 16, 16 << 10),
        (16, 4, 4 << 10),
    ] {
        let topo = Topology::new(nodes, tpn);
        let predicted = SrmModel::new(machine.clone(), topo, SrmTuning::default()).alltoall(len);
        let opts = HarnessOpts {
            iters: 2,
            ..Default::default()
        };
        let sim = measure(Impl::Srm, machine.clone(), topo, Op::Alltoall, len, opts).per_call;
        let ratio = sim.as_us() / predicted.as_us();
        assert!(
            (1.0 / MAX_FACTOR..MAX_FACTOR).contains(&ratio),
            "alltoall {len}B on {nodes}x{tpn}: model {predicted} vs sim {sim} (x{ratio:.2})"
        );
    }
}

/// The large allreduce overlaps its reduce and broadcast legs across
/// chunks, so it must not cost more than running the two one after the
/// other on the tree it runs on (it did, by 1.5-2x, while the legs ran
/// in lock step). On the default tuning the two rooted calls derive
/// their own trees and the pipeline does not, so the allreduce runs as
/// those two calls wherever the closed form says they finish first
/// (DESIGN.md §9.5): the invariant holds there too, up to what one
/// call boundary and the model's misses cost. One call each, the
/// isolated latency: back-to-back reduces and broadcasts overlap one
/// another, which a single allreduce cannot. Measured: forced binomial
/// 0.72-0.81 of reduce + broadcast, derived 0.986-0.998.
#[test]
fn large_allreduce_is_no_slower_than_reduce_then_broadcast() {
    let machine = MachineConfig::ibm_sp_colony();
    for (nodes, tpn, len) in [
        (4usize, 16usize, 128usize << 10),
        (4, 16, 1 << 20),
        (16, 4, 256 << 10),
    ] {
        let topo = Topology::new(nodes, tpn);
        for tree in [Some(TreeKind::Binomial), None] {
            let us = |op| {
                let srm = SrmTuning {
                    tree,
                    ..SrmTuning::default()
                };
                let opts = HarnessOpts { iters: 1, srm };
                measure(Impl::Srm, machine.clone(), topo, op, len, opts)
                    .per_call
                    .as_us()
            };
            let (all, parts) = (us(Op::Allreduce), us(Op::Reduce) + us(Op::Bcast));
            assert!(
                all <= 1.05 * parts,
                "{len}B on {nodes}x{tpn}, tree {tree:?}: allreduce {all:.1} us vs \
                 reduce + broadcast {parts:.1} us (bound x1.05)"
            );
        }
    }
}

/// The crossovers `SrmModel::trees` computes, at the shapes
/// EXPERIMENTS.md A1 quotes.
#[test]
fn pipelines_pick_their_trees() {
    use srm::model::Trees;
    use srm::TuneOp::{Allreduce, Bcast, Reduce};
    use TreeKind::{Binary, Binomial, Chain, Fibonacci, HungBinary};
    let model = |nodes, tree| {
        let tuning = SrmTuning {
            tree,
            ..SrmTuning::default()
        };
        SrmModel::new(
            MachineConfig::ibm_sp_colony(),
            Topology::sp_16way(nodes),
            tuning,
        )
    };
    let on = |inter, intra| Trees { inter, intra };
    let m = model(4, None);
    // One chunk, another operation, a forced kind: the configured tree.
    assert_eq!(m.trees(Bcast, 64 << 10), on(Binomial, Binomial));
    assert_eq!(m.trees(Reduce, 16 << 10), on(Binomial, Binomial));
    assert_eq!(m.trees(Allreduce, 1 << 20), on(Binomial, Binomial));
    let forced = model(4, Some(Fibonacci));
    assert_eq!(forced.trees(Reduce, 1 << 20), on(Fibonacci, Fibonacci));
    // Pipelines: the chain once there are chunks enough to pay its
    // fill, binary before that on 16 nodes, never in a 4 KB-chunk
    // pipeline on 4.
    assert_eq!(m.trees(Bcast, 32 << 10), on(Binomial, Binomial));
    assert_eq!(m.trees(Bcast, 128 << 10), on(Chain, Binomial));
    assert_eq!(m.trees(Bcast, 1 << 20), on(Chain, Binomial));
    assert_eq!(m.trees(Reduce, 64 << 10), on(Chain, HungBinary));
    assert_eq!(m.trees(Reduce, 1 << 20), on(Chain, HungBinary));
    // The allreduce runs as those two calls once they beat the pipeline.
    assert!(!m.allreduce_composes(64 << 10));
    assert!(m.allreduce_composes(128 << 10));
    assert!(m.allreduce_composes(1 << 20));
    assert!(!forced.allreduce_composes(1 << 20));
    let m = model(16, None);
    assert_eq!(m.trees(Bcast, 32 << 10), on(Binary, Binomial));
    // Bytes past the first chunk are what a narrow tree saves on: two
    // more 32 KB puts are enough (simulated: binomial 1 227 µs, binary
    // 885, chain 718).
    assert_eq!(m.trees(Bcast, 96 << 10), on(Binary, Binomial));
    assert_eq!(m.trees(Bcast, 256 << 10), on(Binary, Binomial));
    assert_eq!(m.trees(Bcast, 1 << 20), on(Chain, Binomial));
    assert_eq!(m.trees(Reduce, 32 << 10), on(Binary, Binomial));
    assert_eq!(m.trees(Reduce, 256 << 10), on(Binary, HungBinary));
    assert_eq!(m.trees(Reduce, 1 << 20), on(Chain, HungBinary));
}

#[test]
fn model_predicts_tuning_direction() {
    // The model must agree with the simulator about *which way to tune*:
    // a coarser pipeline chunk for a 24 KB broadcast is better on the
    // Colony preset (see the tuning_study example).
    let machine = MachineConfig::ibm_sp_colony();
    let topo = Topology::sp_16way(4);
    let fine = SrmTuning {
        pipeline_chunk: 1 << 10,
        pipeline_max: 32 << 10,
        ..SrmTuning::default()
    };
    let coarse = SrmTuning {
        pipeline_chunk: 8 << 10,
        pipeline_max: 32 << 10,
        ..SrmTuning::default()
    };
    let m_fine = SrmModel::new(machine.clone(), topo, fine).bcast(24 << 10);
    let m_coarse = SrmModel::new(machine.clone(), topo, coarse).bcast(24 << 10);
    assert!(
        m_coarse < m_fine,
        "model: coarse {m_coarse} !< fine {m_fine}"
    );

    let s = |t: SrmTuning| {
        measure(
            Impl::Srm,
            machine.clone(),
            topo,
            Op::Bcast,
            24 << 10,
            HarnessOpts { iters: 4, srm: t },
        )
        .per_call
    };
    assert!(s(coarse) < s(fine), "simulation disagrees with the model");
}
