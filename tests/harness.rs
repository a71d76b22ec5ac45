//! Tests of the measurement harness itself: the timing methodology
//! must be stable, comparable across implementations, and scale
//! sensibly with message size and processor count.

use simnet::{MachineConfig, SimTime, Topology};
use srm_cluster::{measure, ratio_percent, HarnessOpts, Impl, Op};

fn opts(iters: usize) -> HarnessOpts {
    HarnessOpts {
        iters,
        ..Default::default()
    }
}

#[test]
fn per_call_time_grows_with_message_size() {
    let topo = Topology::sp_16way(2);
    for imp in Impl::ALL {
        let mut last = SimTime::ZERO;
        for len in [8usize, 4096, 64 << 10, 512 << 10] {
            let m = measure(
                imp,
                MachineConfig::ibm_sp_colony(),
                topo,
                Op::Bcast,
                len,
                opts(2),
            );
            assert!(
                m.per_call > last,
                "{}: {}B not slower than previous size",
                imp.name(),
                len
            );
            last = m.per_call;
        }
    }
}

#[test]
fn barrier_time_grows_with_processor_count() {
    for imp in Impl::ALL {
        let mut last = SimTime::ZERO;
        for nodes in [1usize, 4, 8] {
            let m = measure(
                imp,
                MachineConfig::ibm_sp_colony(),
                Topology::sp_16way(nodes),
                Op::Barrier,
                8,
                opts(4),
            );
            assert!(
                m.per_call > last,
                "{}: barrier at {} nodes not slower",
                imp.name(),
                nodes
            );
            last = m.per_call;
        }
    }
}

#[test]
fn ratio_percent_math() {
    assert_eq!(
        ratio_percent(SimTime::from_us(20), SimTime::from_us(100)),
        20.0
    );
    assert_eq!(
        ratio_percent(SimTime::from_us(100), SimTime::from_us(100)),
        100.0
    );
}

#[test]
fn iters_average_is_stable() {
    // More iterations must not change the steady-state mean wildly.
    let topo = Topology::sp_16way(2);
    let a = measure(
        Impl::Srm,
        MachineConfig::ibm_sp_colony(),
        topo,
        Op::Bcast,
        4096,
        opts(3),
    );
    let b = measure(
        Impl::Srm,
        MachineConfig::ibm_sp_colony(),
        topo,
        Op::Bcast,
        4096,
        opts(9),
    );
    let ratio = a.per_call.as_us() / b.per_call.as_us();
    assert!(
        (0.5..2.0).contains(&ratio),
        "3-iter {} vs 9-iter {} differ too much",
        a.per_call,
        b.per_call
    );
}

#[test]
fn commodity_machine_also_works() {
    // The model is not hard-wired to the SP preset.
    let m = measure(
        Impl::Srm,
        MachineConfig::commodity_via_cluster(),
        Topology::new(4, 8),
        Op::Allreduce,
        8192,
        opts(2),
    );
    assert!(m.per_call > SimTime::ZERO);
    assert!(m.metrics.net_messages > 0);
}

#[test]
fn metrics_reflect_measured_region_only() {
    // The warmup call's traffic must not be attributed to the
    // measured region, and every rank's measured traffic must be: a
    // 1-iter and a 3-iter run of the same op differ by exactly 3x.
    let topo = Topology::sp_16way(2);
    let one = measure(
        Impl::Srm,
        MachineConfig::ibm_sp_colony(),
        topo,
        Op::Bcast,
        1024,
        opts(1),
    );
    let three = measure(
        Impl::Srm,
        MachineConfig::ibm_sp_colony(),
        topo,
        Op::Bcast,
        1024,
        opts(3),
    );
    assert!(one.metrics.net_messages > 0);
    assert_eq!(three.metrics.net_messages, 3 * one.metrics.net_messages);
}
