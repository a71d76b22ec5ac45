//! Regression pins for the two real bugs the schedule-exploration
//! harness found, replayed under perturbation sweeps.
//!
//! 1. **Cross-collective Done-skip** (deterministic seeds 0x8c/0xfc): a
//!    gather follows another contribution-channel collective; a relay
//!    master could consume contribution slots out of order across the
//!    call boundary and overwrite a slot whose previous payload was not
//!    yet drained. Fixed by the "contrib consumed in order" guards; the
//!    `gather → reduce_scatter` program here is the minimal reproducer.
//!
//! 2. **Pair writer-handoff race** (perturbed seed 0x65): landing-pair
//!    publish was one costed flag-set per reader, so under compute
//!    stalls a *new* writer could pass `wait_free` (all flags zero is
//!    ambiguous between "released" and "not yet published") while the
//!    previous writer was stalled mid-publish, overwrite the side, and
//!    feed readers the wrong cell. Fixed by the monotone use-counter
//!    protocol in `shmem::BufPair` (`ready`/`released` counter banks);
//!    the stall+straggler sweep here replays the trigger — the original
//!    alltoallv program (its cells have since moved from the pair onto
//!    the contribution channels, where the same sweep now stresses the
//!    per-round consumer hand-over) and a rotating-root scatter and
//!    broadcast program that still hands the pair's writer role around.
//!
//! 3. **The skewed allreduce pipeline** is not a found bug but the
//!    schedule most exposed to one: its down leg runs `1 + tree depth`
//!    chunks behind its up leg, so chunks of one call are in flight on
//!    the contribution sides, the landing pair and both channel
//!    families at once. Five-chunk allreduces are swept with the
//!    straggler where the skew is largest and where the lead is
//!    bounded by buffer sides, back to back (parity continuity),
//!    outstanding beside a broadcast, and on an uneven split part.
//!
//! 4. **The xfer Ready-skip** (2x8 seed 0x1c6, deterministic): the
//!    `xfer` channel has two producers, the node master (gather's
//!    "remote pieces landed" signal) and a non-master scatter root. A
//!    scatter root that published right after its gather max-raised
//!    READY past the master's pending signal, so the gather root
//!    returned before the remote puts landed. Fixed by the "handoff
//!    published in order" guard; the two-step program here is the
//!    explorer's shrink of that seed, with no perturbation at all.
//!
//! The first two bugs depended on `SpinFlag::raise` monotonicity for
//! their fix, so these sweeps (run with the monotone default ON — see
//! `tests/fault_injection.rs` for the reverted variant) pin exactly the
//! behaviour the fault-injection detector checks from the other side.

use simnet::{Perturb, SimTime};
use srm::{embed::depth, TreeKind};
use srm_cluster::{
    explore_one, run_scenario, AliasMode, ExploreOpts, Op, ProgStep, Scenario, SplitSpec,
};

fn step(op: Op, seg: usize, root: usize, nonblocking: bool) -> ProgStep {
    ProgStep {
        op,
        comm: 0,
        seg,
        root,
        nonblocking,
        alias: AliasMode::None,
    }
}

/// Run a hand-built world-only program on `nodes`x`tpn` under `perturb`
/// and panic with the harness's reproducer on any failure.
fn run_pinned(nodes: usize, tpn: usize, steps: Vec<ProgStep>, perturb: Perturb) {
    run_pinned_split(nodes, tpn, Vec::new(), steps, perturb)
}

/// [`run_pinned`] with `comm_split` partitions: a step's `comm` index
/// `k > 0` runs on split `k - 1`.
fn run_pinned_split(
    nodes: usize,
    tpn: usize,
    splits: Vec<SplitSpec>,
    steps: Vec<ProgStep>,
    perturb: Perturb,
) {
    let scenario = Scenario {
        nodes,
        tpn,
        perturb,
        groups: Vec::new(),
        splits,
        steps,
    };
    let opts = ExploreOpts {
        nodes: Some(nodes),
        tpn: Some(tpn),
        ..ExploreOpts::default()
    };
    if let Err(f) = run_scenario(perturb.seed, scenario, &opts) {
        panic!("pinned scenario failed:\n{f}");
    }
}

/// The catch-up shape from the original report: gather → scatter →
/// allgather multi-node, swept over perturbation seeds with a rotating
/// straggler and rotating roots.
#[test]
fn gather_scatter_allgather_under_perturbation() {
    for seed in 0..10u64 {
        let n = 8; // 4x2
        let root = (seed as usize * 3) % n;
        let perturb =
            Perturb::standard(seed).with_straggler(seed as usize % n, SimTime::from_us(50));
        run_pinned(
            4,
            2,
            vec![
                step(Op::Gather, 256, root, false),
                step(Op::Scatter, 256, (root + 5) % n, seed % 2 == 0),
                step(Op::Allgather, 256, 0, false),
            ],
            perturb,
        );
    }
}

/// Minimal Done-skip reproducer: a gather hands its contribution
/// channel straight to a reduce_scatter. Before the consumed-in-order
/// guards this overwrote an undrained slot on some schedules.
#[test]
fn done_skip_gather_then_reduce_scatter() {
    for seed in 0..6u64 {
        let perturb = Perturb::standard(0x8c00 + seed);
        run_pinned(
            3,
            2,
            vec![
                step(Op::Gather, 64, seed as usize % 6, false),
                step(Op::ReduceScatter, 64, 0, false),
            ],
            perturb,
        );
    }
    // The two deterministic full-scenario seeds that first exposed it.
    let opts = ExploreOpts::default();
    for seed in [0x8c, 0xfc] {
        if let Err(f) = explore_one(seed, &opts) {
            panic!("historic Done-skip seed regressed:\n{f}");
        }
    }
}

/// Pair writer-handoff trigger: rotating writers under heavy compute
/// stalls plus a straggler — the exact mechanism of seed 0x65.
/// Stall-heavy because only stall+straggler widened the publish window
/// enough for a reader to lap a stalled publisher. The alltoallv
/// program is the original trigger; the scatter and broadcast roots of
/// the second rotate over both slots of every node, so consecutive
/// pair uses change writer.
#[test]
fn pair_handoff_alltoallv_stall_straggler() {
    for seed in 0..8u64 {
        let perturb = Perturb {
            stall_permille: 45,
            stall_max: SimTime::from_us(6),
            ..Perturb::standard(0x6500 + seed)
        }
        .with_straggler(seed as usize % 8, SimTime::from_us(55));
        run_pinned(
            4,
            2,
            vec![
                step(Op::Alltoallv, 1024, 0, false),
                step(Op::Bcast, 4096, (seed as usize) % 8, true),
                step(Op::Alltoallv, 256, 0, false),
            ],
            perturb,
        );
        let root = |k: usize| (seed as usize + 3 * k) % 8;
        run_pinned(
            4,
            2,
            vec![
                step(Op::Scatter, 1024, root(0), false),
                step(Op::Bcast, 4096, root(1), true),
                step(Op::Scatter, 256, root(2), false),
                step(Op::Bcast, 64, root(3), false),
            ],
            perturb,
        );
    }
    // The exact seed whose derived scenario exposed the handoff race.
    if let Err(f) = explore_one(0x65, &ExploreOpts::default()) {
        panic!("historic pair-handoff seed regressed:\n{f}");
    }
}

/// Five-chunk allreduces through the skewed pipeline. The straggler
/// sits on the deepest node's master (largest skew: everything below
/// node 0 waits on its up leg) and on a node-0 non-master (the rank
/// whose lead over its master is bounded by the two contribution and
/// two landing sides). Two calls back to back carry odd chunk counts,
/// so the second starts on the other parity of both the `Reduce` and
/// the `Landing` sides, and the broadcast and reduce behind them take
/// those sides over; then an allreduce and a broadcast are outstanding
/// together; last, a block split whose first part holds two ranks of
/// one node and one of the next.
#[test]
fn skewed_allreduce_pipeline_under_perturbation() {
    let chunk = 16 << 10;
    for (nodes, tpn) in [(4, 2), (3, 3), (2, 8), (8, 2)] {
        let n = nodes * tpn;
        let deepest = (0..nodes)
            .max_by_key(|&v| depth(TreeKind::Binomial, v, nodes))
            .expect("at least one node");
        for (k, straggler) in [deepest * tpn, 1].into_iter().enumerate() {
            let seed = 0xa11_0000 + (n * 2 + k) as u64;
            let perturb = Perturb::standard(seed).with_straggler(straggler, SimTime::from_us(60));
            let on_split = |s: ProgStep| ProgStep { comm: 1, ..s };
            run_pinned_split(
                nodes,
                tpn,
                vec![SplitSpec {
                    ncolors: 3,
                    block: true,
                    rev: false,
                    exclude: None,
                }],
                vec![
                    step(Op::Allreduce, 5 * chunk, 0, false),
                    step(Op::Allreduce, 5 * chunk, 0, false),
                    step(Op::Bcast, 24 << 10, n - 1, false),
                    step(Op::Reduce, 3 * chunk, 1, false),
                    step(Op::Allreduce, 5 * chunk, 0, true),
                    step(Op::Bcast, 24 << 10, 0, true),
                    on_split(step(Op::Allreduce, 5 * chunk, 0, false)),
                    on_split(step(Op::Allreduce, 2 * chunk + 8, 0, true)),
                    step(Op::Allreduce, 5 * chunk, 0, false),
                ],
                perturb,
            );
        }
    }
}

/// The xfer Ready-skip, shrunk: a blocking gather to non-master root 6,
/// then a scatter from non-master root 1 on the same node, every
/// perturbation mechanism off. Before the guard rank 9's segment still
/// held root 6's own fill when the gather returned.
#[test]
fn xfer_ready_skip_gather_then_scatter_at_non_master_roots() {
    run_pinned(
        2,
        8,
        vec![
            step(Op::Gather, 4096, 6, false),
            step(Op::Scatter, 4096, 1, false),
        ],
        Perturb::new(0x1c6),
    );
}
