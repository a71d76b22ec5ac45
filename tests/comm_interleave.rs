//! Interleaving evidence for communicator-scoped scheduling.
//!
//! The per-comm ordering classes in the nonblocking executor make two
//! guarantees this file pins down with wall-clock evidence from the
//! simulator:
//!
//! 1. Collectives on **disjoint** communicators share no substrate, so
//!    they overlap: running both groups concurrently is strictly
//!    cheaper than the sum of running each alone.
//! 2. A rank in **two** communicators can finish a collective on one
//!    while the other is parked behind a late member — cross-comm
//!    progress — while two collectives on the **same** communicator
//!    still complete in issue order.

use collops::{Collectives, DType, NonblockingCollectives, ReduceOp};
use simnet::{MachineConfig, Perturb, Sim, SimTime, Topology};
use srm::{SrmTuning, SrmWorld};
use std::sync::{Arc, Mutex};

/// Run an allreduce on the even and/or odd world-rank subgroup of a
/// 2x4 machine; return the latest collective completion time and the
/// final report.
fn run_groups(
    run_even: bool,
    run_odd: bool,
    perturb: Option<Perturb>,
) -> (SimTime, simnet::Report) {
    let topo = Topology::new(2, 4);
    let n = topo.nprocs();
    let len = 40_000usize; // multi-chunk through the reduce pipeline
    let mut sim = Sim::new(MachineConfig::ibm_sp_colony());
    if let Some(p) = perturb {
        sim.set_perturb(p);
    }
    let world = SrmWorld::new(&mut sim, topo, SrmTuning::default());
    let even: Vec<usize> = (0..n).step_by(2).collect();
    let odd: Vec<usize> = (1..n).step_by(2).collect();
    let esubs = world.comm_create(&even);
    let osubs = world.comm_create(&odd);
    let mut sub_of: Vec<Option<srm::SrmComm>> = (0..n).map(|_| None).collect();
    for (sub, &r) in esubs.into_iter().zip(&even) {
        sub_of[r] = Some(sub);
    }
    for (sub, &r) in osubs.into_iter().zip(&odd) {
        sub_of[r] = Some(sub);
    }
    let done = Arc::new(Mutex::new(SimTime::default()));
    for (rank, sub) in sub_of.into_iter().enumerate() {
        let wcomm = world.comm(rank);
        let active = if rank % 2 == 0 { run_even } else { run_odd };
        let done = done.clone();
        sim.spawn(format!("rank{rank}"), move |ctx| {
            if active {
                let sub = sub.expect("every rank is in one group");
                let buf = sub.alloc_buffer(len);
                sub.allreduce(&ctx, &buf, len, DType::F64, ReduceOp::Sum);
                let mut d = done.lock().unwrap();
                *d = (*d).max(ctx.now());
            }
            wcomm.shutdown(&ctx);
        });
    }
    let report = sim.run().expect("group run completes");
    let t = *done.lock().unwrap();
    (t, report)
}

/// Disjoint subgroups overlap: both-at-once beats the sum of solos.
#[test]
fn disjoint_subgroup_collectives_overlap() {
    let (t_even, _) = run_groups(true, false, None);
    let (t_odd, _) = run_groups(false, true, None);
    let (t_both, report) = run_groups(true, true, None);
    assert!(
        t_both < t_even + t_odd,
        "no overlap: both={t_both:?} even={t_even:?} odd={t_odd:?}"
    );
    // Per-comm accounting saw both subcommunicators (world is comm 0;
    // the subgroups get fresh nonzero ids) and the creates were counted.
    let sub_rows: Vec<_> = report
        .by_comm
        .iter()
        .filter(|r| r.comm != 0 && r.plan_misses > 0)
        .collect();
    assert_eq!(sub_rows.len(), 2, "rows: {:?}", report.by_comm);
    assert!(report.metrics.comm_creates >= 2);
}

/// Perturbed replay of the concurrent-subgroup scenario: disjoint
/// communicators under jitter, stalls and a straggler still complete
/// (no deadlock from skewed schedules) and the per-comm accounting
/// still balances. Tier-1 keeps the seed count small; the deep sweeps
/// live in the `explore` harness.
#[test]
fn subgroup_collectives_survive_perturbation() {
    for seed in 0..3u64 {
        let perturb =
            Perturb::standard(seed).with_straggler(seed as usize % 8, SimTime::from_us(60));
        let (_, report) = run_groups(true, true, Some(perturb));
        assert!(
            report.metrics.perturb_events > 0,
            "seed {seed}: nothing was injected"
        );
        let sub_rows = report
            .by_comm
            .iter()
            .filter(|r| r.comm != 0 && r.plan_misses > 0)
            .count();
        assert_eq!(sub_rows, 2, "seed {seed}: rows {:?}", report.by_comm);
    }
}

const DELAY_US: u64 = 2_000;

/// A rank in two communicators completes a collective on one while the
/// other is parked behind a late member — and the executor really
/// parked (nb_parks > 0).
#[test]
fn cross_comm_progress_past_parked_schedule() {
    let topo = Topology::new(2, 2);
    let len = 4096usize;
    let mut sim = Sim::new(MachineConfig::ibm_sp_colony());
    let world = SrmWorld::new(&mut sim, topo, SrmTuning::default());
    // Rank 0 is in both groups; rank 1 (group A) checks in late.
    let mut a = world.comm_create(&[0, 1]).into_iter();
    let mut b = world.comm_create(&[0, 2]).into_iter();
    let (a0, a1) = (a.next().unwrap(), a.next().unwrap());
    let (b0, b2) = (b.next().unwrap(), b.next().unwrap());
    let t_b = Arc::new(Mutex::new(SimTime::default()));

    let w = world.comm(0);
    let t = t_b.clone();
    sim.spawn("rank0", move |ctx| {
        let (buf_a, buf_b) = (a0.alloc_buffer(len), b0.alloc_buffer(len));
        let req_a = a0.iallreduce(&ctx, &buf_a, len, DType::F64, ReduceOp::Sum);
        let req_b = b0.iallreduce(&ctx, &buf_b, len, DType::F64, ReduceOp::Sum);
        b0.wait(&ctx, req_b);
        *t.lock().unwrap() = ctx.now();
        a0.wait(&ctx, req_a);
        w.shutdown(&ctx);
    });
    let w = world.comm(1);
    sim.spawn("rank1", move |ctx| {
        ctx.advance(SimTime::from_us(DELAY_US));
        let buf = a1.alloc_buffer(len);
        a1.allreduce(&ctx, &buf, len, DType::F64, ReduceOp::Sum);
        w.shutdown(&ctx);
    });
    let w = world.comm(2);
    sim.spawn("rank2", move |ctx| {
        let buf = b2.alloc_buffer(len);
        b2.allreduce(&ctx, &buf, len, DType::F64, ReduceOp::Sum);
        w.shutdown(&ctx);
    });
    let w = world.comm(3);
    sim.spawn("rank3", move |ctx| w.shutdown(&ctx));

    let report = sim.run().expect("cross-comm run completes");
    let t_b = *t_b.lock().unwrap();
    assert!(
        t_b < SimTime::from_us(DELAY_US),
        "comm B blocked behind comm A's late member: finished at {t_b:?}"
    );
    assert!(report.metrics.nb_parks > 0, "executor never parked");
}

/// The same-comm counterpart: with both collectives on ONE
/// communicator, waiting on the second cannot beat the late member
/// gating the first — issue order holds within a communicator.
#[test]
fn same_comm_collectives_keep_issue_order() {
    let topo = Topology::new(2, 2);
    let len = 4096usize;
    let mut sim = Sim::new(MachineConfig::ibm_sp_colony());
    let world = SrmWorld::new(&mut sim, topo, SrmTuning::default());
    let mut b = world.comm_create(&[0, 2]).into_iter();
    let (b0, b2) = (b.next().unwrap(), b.next().unwrap());
    let t_second = Arc::new(Mutex::new(SimTime::default()));

    let w = world.comm(0);
    let t = t_second.clone();
    sim.spawn("rank0", move |ctx| {
        let (buf1, buf2) = (b0.alloc_buffer(len), b0.alloc_buffer(len));
        let req1 = b0.iallreduce(&ctx, &buf1, len, DType::F64, ReduceOp::Sum);
        let req2 = b0.iallreduce(&ctx, &buf2, len, DType::F64, ReduceOp::Sum);
        b0.wait(&ctx, req2);
        *t.lock().unwrap() = ctx.now();
        b0.wait(&ctx, req1);
        w.shutdown(&ctx);
    });
    let w = world.comm(2);
    sim.spawn("rank2", move |ctx| {
        ctx.advance(SimTime::from_us(DELAY_US));
        let buf = b2.alloc_buffer(2 * len);
        b2.allreduce(&ctx, &buf, len, DType::F64, ReduceOp::Sum);
        b2.allreduce(&ctx, &buf, len, DType::F64, ReduceOp::Sum);
        w.shutdown(&ctx);
    });
    for r in [1usize, 3] {
        let w = world.comm(r);
        sim.spawn(format!("rank{r}"), move |ctx| w.shutdown(&ctx));
    }

    sim.run().expect("same-comm run completes");
    let t_second = *t_second.lock().unwrap();
    assert!(
        t_second >= SimTime::from_us(DELAY_US),
        "second same-comm collective finished before the first could: {t_second:?}"
    );
}
