//! Ablation A1 (paper §2.1): tree shape. The authors "implemented and
//! experimented with the three tree types and found binomial trees
//! perform the best" — a latency result. This binary reruns the
//! experiment with every kind forced (on a reduce the forced kind is
//! the intra-node tree too) next to the default, which derives the
//! trees of each multi-chunk broadcast and reduce
//! (`SrmModel::trees`, printed beside its time).

use simnet::{MachineConfig, Topology};
use srm::{SrmModel, SrmTuning, TreeKind};
use srm_cluster::{measure, HarnessOpts, Impl, Op};

fn main() {
    let machine = MachineConfig::ibm_sp_colony();
    let topo = Topology::sp_16way(16);
    println!("Ablation A1: tree kind, SRM on P=256 (us per call)");
    for op in [Op::Bcast, Op::Reduce] {
        print!("\n{}\n{:>10}", op.name(), "bytes");
        for kind in TreeKind::ALL {
            print!(" {:>12}", format!("{kind:?}").to_lowercase());
        }
        println!("  derived");
        for len in [8usize, 4096, 64 << 10, 256 << 10, 1 << 20] {
            let mut row = format!("{len:>10}");
            for tree in TreeKind::ALL.map(Some).into_iter().chain([None]) {
                let srm = SrmTuning {
                    tree,
                    ..SrmTuning::default()
                };
                let iters = srm_bench::iters_for(len);
                let opts = HarnessOpts { iters, srm };
                let m = measure(Impl::Srm, machine.clone(), topo, op, len, opts);
                row += &format!(" {:>12.1}", m.per_call.as_us());
            }
            let trees = SrmModel::new(machine.clone(), topo, SrmTuning::default()).trees(op, len);
            println!("{row}  {:?} / {:?}", trees.inter, trees.intra);
        }
    }
}
