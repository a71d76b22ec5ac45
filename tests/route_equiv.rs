//! Route equivalence for reduce_scatter, the routed pairwise
//! collective: the staged route (chunked puts through the credited
//! `Ring` landings) and the direct route (per-call address
//! exchange, puts straight into the destination master's scratch
//! buffer) must produce bit-identical results — on plain runs
//! straddling the default threshold, on perturbed pinned scenarios, and
//! across explorer seeds with either route forced for every segment
//! size. Alltoall and alltoallv have one wire and are held to the
//! sequential reference.

use collops::{Collectives, DType, ReduceOp};
use simnet::{MachineConfig, MetricsSnapshot, Perturb, Sim, Topology};
use srm::{SrmTuning, SrmWorld};
use srm_cluster::{
    explore_sweep, ragged_counts, run_scenario, AliasMode, ExploreOpts, Op, ProgStep, Scenario,
};
use std::sync::{Arc, Mutex};

/// The `pairwise_direct_min` that sends every reduce_scatter segment
/// down the direct route, and the one that sends every one down the
/// staged route.
const DIRECT: usize = 0;
const STAGED: usize = usize::MAX;

/// A tuning with reduce_scatter's route switch at `pairwise_direct_min`.
fn forced(pairwise_direct_min: usize) -> SrmTuning {
    SrmTuning {
        pairwise_direct_min,
        ..SrmTuning::default()
    }
}

/// Byte `i` of rank `rank`'s buffer before the call.
fn initial(rank: usize, i: usize) -> u8 {
    (i as u8).wrapping_mul(29).wrapping_add(rank as u8 ^ 0xC3)
}

/// What rank `me` must hold after an alltoall(v) of `counts` on
/// `len`-byte slots: the send half and every byte a peer did not send
/// as they were, the head of receive slot `i` from rank `i`.
fn exchange_expect(me: usize, n: usize, len: usize, counts: &[usize]) -> Vec<u8> {
    let mut want: Vec<u8> = (0..2 * n * len).map(|i| initial(me, i)).collect();
    for i in 0..n {
        for k in 0..counts[i * n + me] {
            want[n * len + i * len + k] = initial(i, me * len + k);
        }
    }
    want
}

/// Run one pairwise collective on every rank with deterministic
/// payloads; return final buffers and the run metrics.
fn run_op(
    topo: Topology,
    tuning: SrmTuning,
    op: Op,
    len: usize,
) -> (Vec<Vec<u8>>, MetricsSnapshot) {
    let n = topo.nprocs();
    let mut sim = Sim::new(MachineConfig::ibm_sp_colony());
    let world = SrmWorld::new(&mut sim, topo, tuning);
    let out = Arc::new(Mutex::new(vec![Vec::new(); n]));
    for rank in 0..n {
        let comm = world.comm(rank);
        let out = out.clone();
        sim.spawn(format!("rank{rank}"), move |ctx| {
            let shape = op.shape(len, 0, n);
            let buf = comm.alloc_buffer(shape.extent(n));
            buf.with_mut(|d| {
                for (i, x) in d.iter_mut().enumerate() {
                    *x = initial(rank, i);
                }
            });
            comm.call(&ctx, shape, &buf, Some((DType::U64, ReduceOp::Sum)));
            out.lock().unwrap()[rank] = buf.with(|d| d.to_vec());
            comm.shutdown(&ctx);
        });
    }
    let report = sim.run().expect("simulation completes");
    let results = Arc::try_unwrap(out).unwrap().into_inner().unwrap();
    (results, report.metrics)
}

/// Both routes, bit for bit, for reduce_scatter at sizes below, at and
/// above the default 64 KB threshold — the forced-direct run must
/// actually take the direct route (and skip the `Ring` landings), the
/// forced-staged run must never touch it. Alltoall and alltoallv have
/// no route to force: one put per remote pair with data, nothing
/// through the `Ring` landings, and the sequential reference's bytes.
#[test]
fn forced_routes_bit_exact_for_all_pairwise_ops() {
    let topo = Topology::new(3, 2);
    let n = topo.nprocs();
    for len in [8 * 1024usize, 64 * 1024, 128 * 1024] {
        let (staged, ms) = run_op(topo, forced(STAGED), Op::ReduceScatter, len);
        let (direct, md) = run_op(topo, forced(DIRECT), Op::ReduceScatter, len);
        assert_eq!(staged, direct, "{len} B: routes disagree on the results");
        assert_eq!(ms.pairwise_direct_puts, 0, "{len}: staged went direct");
        assert!(ms.pairwise_puts > 0, "{len}: staged run must use `Ring`");
        assert!(md.pairwise_direct_puts > 0, "{len}: no direct put");
        assert_eq!(md.pairwise_puts, 0, "{len}: direct run touched `Ring`");

        for (op, counts) in [
            (Op::Alltoall, vec![len; n * n]),
            (Op::Alltoallv, ragged_counts(n, len)),
        ] {
            let streams = (0..n * n).filter(|k| k / n / 2 != k % n / 2 && counts[*k] > 0);
            let (got, m) = run_op(topo, SrmTuning::default(), op, len);
            assert_eq!(
                m.pairwise_direct_puts,
                streams.count() as u64,
                "{op:?}/{len}"
            );
            assert_eq!(m.pairwise_puts, 0, "{op:?}/{len}");
            for (rank, buf) in got.iter().enumerate() {
                assert!(
                    buf == &exchange_expect(rank, n, len, &counts),
                    "{op:?} at {len} B: rank {rank} differs from the reference"
                );
            }
        }
    }
}

/// The default tuning switches reduce_scatter's route exactly at
/// `pairwise_direct_min` (64 KB): below it the `Ring` landings carry
/// the data, at it the planner goes direct — without any forcing.
#[test]
fn default_threshold_picks_the_route() {
    let topo = Topology::new(2, 2);
    let (_, below) = run_op(topo, SrmTuning::default(), Op::ReduceScatter, 32 * 1024);
    assert_eq!(below.pairwise_direct_puts, 0);
    assert!(below.pairwise_puts > 0);
    let (_, at) = run_op(topo, SrmTuning::default(), Op::ReduceScatter, 64 * 1024);
    assert!(at.pairwise_direct_puts > 0);
    assert_eq!(at.pairwise_puts, 0);
}

/// A pinned perturbed scenario mixing all three pairwise ops (one of
/// them nonblocking, overlapping the next step) verifies with either
/// reduce_scatter route forced — `run_scenario` checks every rank's buffer against
/// the sequential references, so a clean pass IS bit-exactness.
#[test]
fn pinned_perturbed_pairwise_scenario_on_both_routes() {
    let step = |op, seg, nonblocking| ProgStep {
        op,
        comm: 0,
        seg,
        root: 0,
        nonblocking,
        alias: AliasMode::None,
    };
    for pairwise_direct_min in [STAGED, DIRECT] {
        let scenario = Scenario {
            nodes: 3,
            tpn: 2,
            perturb: Perturb::standard(0xD1EC_7040),
            groups: Vec::new(),
            splits: Vec::new(),
            steps: vec![
                step(Op::Alltoall, 1024, true),
                step(Op::ReduceScatter, 512, false),
                step(Op::Alltoallv, 2048, false),
                step(Op::Alltoall, 256, false),
            ],
        };
        let opts = ExploreOpts {
            nodes: Some(3),
            tpn: Some(2),
            pairwise_direct_min,
            ..ExploreOpts::default()
        };
        if let Err(f) = run_scenario(scenario.perturb.seed, scenario, &opts) {
            panic!(
                "pinned pairwise scenario failed with the switch at {pairwise_direct_min}:\n{f}"
            );
        }
    }
}

/// Explorer seeds stay clean with either route forced for EVERY
/// reduce_scatter segment: same seeds, same scenarios, both routes — every
/// collective call still verifies against its reference under the full
/// perturbation surface (the CI smoke runs a larger such sweep).
#[test]
fn explorer_seeds_clean_under_forced_routes() {
    for pairwise_direct_min in [DIRECT, STAGED] {
        let opts = ExploreOpts {
            pairwise_direct_min,
            ..ExploreOpts::default()
        };
        let summary = explore_sweep(0, 6, &opts);
        assert!(
            summary.failures.is_empty(),
            "sweep with the switch at {pairwise_direct_min} failed:\n{}",
            summary
                .failures
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
        assert_eq!(summary.explored, 6);
        assert!(summary.calls_checked > 0);
    }
}
