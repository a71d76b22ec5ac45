//! Ablation A4 (paper §2.3): interrupt management. SRM disables LAPI
//! interrupts and relies on counter polling — on the wire ranks of the
//! tree ops, on every rank of the exchanges. The paper does so for
//! small calls only; here the wire ranks poll at every size (the
//! alltoallv up to 8 KB segments). This binary measures what
//! always-enabled interrupts would cost a broadcast and an alltoall,
//! then what the paper's 8 KB cut and always-on cost the large reduce
//! and allreduce.

use simnet::{MachineConfig, Topology};
use srm::SrmTuning;
use srm_cluster::{measure, HarnessOpts, Impl, Op};

/// Virtual µs per call of `op` on `topo` with `interrupt_disable_max`.
fn run(op: Op, topo: Topology, len: usize, interrupt_disable_max: usize) -> f64 {
    let srm = SrmTuning {
        interrupt_disable_max,
        ..SrmTuning::default()
    };
    let (machine, opts) = (
        MachineConfig::ibm_sp_colony(),
        HarnessOpts { iters: 5, srm },
    );
    measure(Impl::Srm, machine, topo, op, len, opts)
        .per_call
        .as_us()
}

fn main() {
    let policy = SrmTuning::default().interrupt_disable_max;
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
            let cell = format!(
                "{:.1} / {:.1}",
                run(op, topo, len, policy),
                run(op, topo, len, 0)
            );
            print!(" {cell:>22}");
        }
        println!();
    }

    let topo = Topology::sp_16way(4);
    println!(
        "\nLarge calls on P={}: SRM policy / 8 KB cut / always-on (us)\n",
        topo.nprocs()
    );
    print!("{:>10}", "bytes");
    let ops = [Op::Reduce, Op::Allreduce];
    for op in ops {
        print!(" {:>30}", op.name());
    }
    println!();
    for len in [64usize << 10, 256 << 10, 1 << 20] {
        print!("{len:>10}");
        for op in ops {
            let [rule, cut, on] = [policy, 8 << 10, 0].map(|idm| run(op, topo, len, idm));
            print!(" {:>30}", format!("{rule:.1} / {cut:.1} / {on:.1}"));
        }
        println!();
    }
}
