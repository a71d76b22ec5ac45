//! Ablation A4 (paper §2.3): interrupt management. SRM disables LAPI
//! interrupts for small-message collectives and relies on counter
//! polling — on the masters of the tree ops, on every rank of the
//! exchanges; this binary measures what always-enabled interrupts would
//! cost a broadcast and an alltoall.

use simnet::{MachineConfig, Topology};
use srm::SrmTuning;
use srm_cluster::{measure, HarnessOpts, Impl, Op};

fn main() {
    let machine = MachineConfig::ibm_sp_colony();
    let columns = [
        (Op::Bcast, Topology::sp_16way(16)),
        (Op::Alltoall, Topology::sp_16way(4)),
        (Op::Alltoall, Topology::sp_16way(16)),
    ];
    println!("Ablation A4: interrupt policy, SRM policy / always-on (us)\n");
    print!("{:>10}", "bytes");
    for (op, topo) in columns {
        print!(" {:>22}", format!("{} P={}", op.name(), topo.nprocs()));
    }
    println!();
    for len in [8usize, 512, 4096, 8 << 10] {
        print!("{len:>10}");
        for (op, topo) in columns {
            // The exchange's working set grows as P·len per rank: keep
            // it within X10's 512 KB cap.
            if op == Op::Alltoall && topo.nprocs() * len > 512 << 10 {
                print!(" {:>22}", "—");
                continue;
            }
            let run = |interrupt_disable_max| {
                let srm = SrmTuning {
                    interrupt_disable_max,
                    ..SrmTuning::default()
                };
                let opts = HarnessOpts { iters: 5, srm };
                measure(Impl::Srm, machine.clone(), topo, op, len, opts)
                    .per_call
                    .as_us()
            };
            let policy = run(SrmTuning::default().interrupt_disable_max);
            let cell = format!("{policy:.1} / {:.1}", run(0));
            print!(" {cell:>22}");
        }
        println!();
    }
}
