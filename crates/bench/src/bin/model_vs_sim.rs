//! Validates the analytical model of §5 ("future work") against the
//! simulator: for a grid of operations, sizes and cluster shapes,
//! print predicted vs simulated per-call time and the ratio.
//!
//! The model captures first-order structure (hop counts, pipeline
//! intervals, copy and operator costs); the simulator adds contention,
//! flow-control stalls and scheduling. Ratios near 1.0 mean the paper's
//! proposed model would have been a good tuning tool.

use simnet::{MachineConfig, Topology};
use srm::{SrmModel, SrmTuning};
use srm_cluster::{measure, HarnessOpts, Impl, Op};

fn main() {
    let machine = MachineConfig::ibm_sp_colony();
    println!(
        "{:>10} {:>6} {:>8} {:>12} {:>12} {:>8}  plan: trees (inter / intra-node reduce)",
        "op", "topo", "bytes", "model (us)", "sim (us)", "ratio"
    );
    let mut worst: f64 = 1.0;
    let mut row = |topo: Topology, op: Op, len: usize| {
        let model = SrmModel::new(machine.clone(), topo, SrmTuning::default());
        let predicted = match op {
            Op::Bcast => model.bcast(len),
            Op::Reduce => model.reduce(len),
            Op::Allreduce => model.allreduce(len),
            Op::Barrier => model.barrier(),
            Op::Alltoall => model.alltoall(len),
            // The other segment and pairwise ops are simulation-only
            // for now.
            _ => unreachable!(),
        };
        let opts = HarnessOpts {
            iters: srm_bench::iters_for(len),
            ..Default::default()
        };
        let sim = measure(Impl::Srm, machine.clone(), topo, op, len, opts);
        let ratio = sim.per_call.as_us() / predicted.as_us();
        worst = worst.max(ratio.max(1.0 / ratio));
        let trees = |op| {
            let t = model.trees(op, len);
            format!("{:?} / {:?}", t.inter, t.intra)
        };
        // The allreduce names the plan the model picks for it.
        let plan = match op {
            Op::Allreduce if model.allreduce_composes(len) => format!(
                "reduce {} then bcast {}",
                trees(Op::Reduce),
                trees(Op::Bcast)
            ),
            Op::Allreduce if len <= SrmTuning::REDUCE_CHUNK => "recursive doubling".to_string(),
            Op::Allreduce => format!("four-stage {}", trees(op)),
            _ => trees(op),
        };
        println!(
            "{:>10} {:>6} {:>8} {:>12.1} {:>12.1} {:>8.2}  {plan}",
            op.name(),
            format!("{}x{}", topo.nodes(), topo.tasks_per_node()),
            len,
            predicted.as_us(),
            sim.per_call.as_us(),
            ratio,
        );
    };
    for nodes in [2usize, 4, 16] {
        for (op, lens) in [
            (Op::Bcast, vec![512usize, 8 << 10, 64 << 10, 1 << 20]),
            (Op::Reduce, vec![512, 64 << 10, 1 << 20]),
            (Op::Allreduce, vec![512, 64 << 10, 256 << 10, 1 << 20]),
            (Op::Barrier, vec![8]),
        ] {
            for len in lens {
                row(Topology::sp_16way(nodes), op, len);
            }
        }
    }
    // Alltoall buffers grow with the rank count: the shapes
    // `tests/model_accuracy.rs` holds to a factor of 1.8.
    for (nodes, tpn, len) in [
        (4usize, 4usize, 16usize << 10),
        (4, 4, 256 << 10),
        (1, 16, 16 << 10),
        (4, 16, 16 << 10),
        (16, 4, 4 << 10),
    ] {
        row(Topology::new(nodes, tpn), Op::Alltoall, len);
    }
    println!("\nworst-case model/sim discrepancy factor: {worst:.2}");
}
