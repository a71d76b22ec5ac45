//! Regression pins for the real bugs the schedule-exploration
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
//!    the contribution sides, the node pair and both channel
//!    families at once. Five-chunk allreduces are swept with the
//!    straggler where the skew is largest and where the lead is
//!    bounded by buffer sides, back to back (parity continuity),
//!    outstanding beside a broadcast, and on an uneven split part.
//!
//! 4. **Two producers on one handoff channel** (2x8 seed 0x1c6,
//!    deterministic): the master↔root `xfer` channel had two producers,
//!    the node master (gather's "remote pieces landed" signal) and a
//!    non-master scatter root. A scatter root that published right
//!    after its gather max-raised READY past the master's pending
//!    signal, so the gather root returned before the remote puts
//!    landed. First fixed by a producer-side order guard; since the
//!    channel is gone the signal is the master's own contribution
//!    channel's READY and the scatter pieces go through the root's own,
//!    so each channel has one producer. The two-step program here is
//!    the explorer's shrink of that seed, with no perturbation at all.
//!
//! 5. **A landing-pair writer's early release** (4x2 seed 0x5f0,
//!    deterministic): publishing raised the writer's own RELEASED
//!    counter, so a different next writer could claim the side while
//!    the publishing master still forwarded it or copied its own part
//!    out. Fixed by the writer's explicit release after its last read.
//!
//! 6. **Two consumers of one handoff channel** (4x4 x32 seed 0x447): a
//!    scatter master's DONE max-raise on the `xfer` channel covered a
//!    reduce root's unread use. First fixed by a consumer-side guard;
//!    now the reduce root reads its master's contribution channel and
//!    the scatter master reads the root's, and each consumer's first
//!    use waits for the channel's earlier uses like any other.
//!
//! 7. **Two writers on one landing side** (4x2, four blocking 8 B
//!    broadcasts, no perturbation): every parent's broadcast channel
//!    landed in the child node's one landing pair, ordered only by its
//!    own edge's credit, so puts of two calls from two parents hit one
//!    side. Fixed by giving each broadcast edge its own landing.
//!
//! 8. **A local writer beside broadcast puts** (5x3 seed 0x21c): a
//!    subgroup scatter's segment came out wrong. The same fix, the edge
//!    landings, cures it; the interleaving was not traced.
//!
//! 9. **Two `igather`s outstanding at one non-master root** (4x2 seed
//!    0x1d8 under `--ops gather`, deterministic): the root handed its
//!    address to its own master through shared memory and waited last
//!    on a flag, which orders with no address step, so its second call's
//!    hand-off overran the master's untaken mailbox slot. Fixed by the
//!    root shipping its handle to every remote master itself and
//!    waiting last on its own `Landed` counter.
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
    run_pinned_comms(nodes, tpn, (Vec::new(), Vec::new()), steps, perturb)
}

/// [`run_pinned`] with subgroups and `comm_split` partitions: a step's
/// `comm` index `k > 0` runs on group `k - 1`, then on the splits.
fn run_pinned_comms(
    nodes: usize,
    tpn: usize,
    (groups, splits): (Vec<Vec<usize>>, Vec<SplitSpec>),
    steps: Vec<ProgStep>,
    perturb: Perturb,
) {
    let scenario = Scenario {
        nodes,
        tpn,
        perturb,
        groups,
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
/// two pair sides). Two calls back to back carry odd chunk counts,
/// so the second starts on the other parity of the `Reduce`, `Pair`
/// and `Bcast` sides, and the broadcast and reduce behind them take
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
            let split = SplitSpec {
                ncolors: 3,
                block: true,
                rev: false,
                exclude: None,
            };
            run_pinned_comms(
                nodes,
                tpn,
                (Vec::new(), vec![split]),
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

/// Two producers on one handoff channel, shrunk: a blocking gather to
/// non-master root 6, then a scatter from non-master root 1 on the same
/// node, every perturbation mechanism off. When both went through the
/// `xfer` channel, rank 9's segment still held root 6's own fill when
/// the gather returned. The gather's signal is now node 0's master's
/// READY, the scatter's pieces root 1's own channel.
#[test]
fn gather_signal_and_scatter_pieces_take_their_producers_channels() {
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

/// A landing-pair writer that released its use at publish: on 4x2 a
/// blocking allgather's broadcast half leaves node 1's master still
/// forwarding and copying out of a landing side when the next
/// broadcast's root-node writer claims it, because the publish had
/// already raised the writer's own RELEASED counter. Ranks 2 and 3
/// then held the broadcast's bytes at byte 0 of segment 7. Every
/// writer now releases after its last read of the side; the program
/// needs no perturbation.
#[test]
fn pair_writer_releases_after_its_last_read() {
    run_pinned(
        4,
        2,
        vec![
            step(Op::Allgather, 4096, 0, false),
            step(Op::Bcast, 8960, 1, false),
        ],
        Perturb::new(0x5f0),
    );
}

/// Two consumers of one handoff channel, shrunk from 4x4 x32 seed 0x447
/// with every mechanism off: a reduce at non-master root 10, then a
/// scatter behind it at non-master root 9 on the same node. On the
/// shared `xfer` channel node 2's master consumed the scatter's first
/// piece with a max-raise of DONE that covered the reduce use root 10
/// had not read yet, and root 9's next piece overwrote it. Now root 10
/// reads node 2's master's contribution channel and the master reads
/// root 9's.
#[test]
fn reduce_and_scatter_hand_overs_take_their_producers_channels() {
    run_pinned_comms(
        4,
        4,
        (vec![vec![3, 7, 9]], Vec::new()),
        vec![
            ProgStep {
                comm: 1,
                ..step(Op::Allreduce, 131072, 0, true)
            },
            step(Op::Reduce, 256, 10, false),
            step(Op::Scatter, 256, 9, true),
        ],
        Perturb::new(0x447),
    );
}

/// Broadcast puts at rotating roots, no perturbation: four blocking
/// 8 B broadcasts from roots 4, 7, 0, 0. The root node returns once its
/// puts are issued and runs ahead of a slow subtree, so two parents'
/// puts for different calls aimed at one side of node 2's landing pair,
/// ordered only by their own edges' credits; rank 5 returned 0xb5 from
/// the third call where 0x5a was due. Every broadcast edge now lands
/// in its own buffers, which no other writer touches.
#[test]
fn broadcast_edges_land_in_their_own_buffers() {
    let steps = [4, 7, 0, 0].map(|root| step(Op::Bcast, 8, root, false));
    run_pinned(4, 2, steps.to_vec(), Perturb::new(0));
}

/// A node-local writer beside broadcast puts, shrunk from 5x3 seed
/// 0x21c (the shrinker keeps all six steps and switches coalescing
/// off): rank 8 of the subgroup got a wrong scattered segment at byte
/// 71 680. The edge landings alone fix it; the interleaving that
/// corrupted the segment was not traced.
#[test]
fn scatter_beside_broadcast_puts_on_a_subgroup() {
    let split = |ncolors, rev| SplitSpec {
        ncolors,
        block: true,
        rev,
        exclude: None,
    };
    let groups = vec![vec![3, 5, 6, 7, 8, 9, 10, 11, 12, 13]];
    let on = |comm, s: ProgStep| ProgStep { comm, ..s };
    let perturb = Perturb {
        delivery_jitter: SimTime::from_us(3),
        reorder_permille: 55,
        reorder_window: SimTime::from_us(13),
        stall_permille: 1,
        stall_max: SimTime::from_us(1),
        am_stall_permille: 51,
        am_stall_max: SimTime::from_us(6),
        bw_permille: 348,
        bw_dip_permille: 26,
        bw_dip_mult: 3,
        bw_dip_window: SimTime::from_us(17),
        ..Perturb::new(0x31ad06e5c1b3d2ce)
    };
    run_pinned_comms(
        5,
        3,
        (groups, vec![split(3, false), split(2, true)]),
        vec![
            step(Op::Allgather, 4096, 11, false),
            step(Op::Gather, 1024, 14, true),
            on(2, step(Op::Alltoall, 4096, 3, true)),
            step(Op::Allgather, 1024, 14, false),
            on(1, step(Op::Scatter, 8960, 3, false)),
            on(1, step(Op::Bcast, 256, 6, true)),
        ],
        perturb,
    );
}

/// Two `igather`s outstanding at one non-master root, shrunk from 4x2
/// seed 0x1d8 of `--ops gather` with every mechanism off: rank 3's
/// second gather handed its address to master 2 before master 2 took
/// the first, and the mailbox panicked with "address mailbox overrun".
/// The root now ships its handle to the remote masters and returns
/// only once their puts landed, so its next handle finds every slot
/// empty.
#[test]
fn two_igathers_outstanding_at_a_non_master_root() {
    run_pinned(
        4,
        2,
        vec![
            step(Op::Gather, 8, 7, true),
            step(Op::Gather, 1024, 3, true),
            step(Op::Gather, 64, 3, true),
        ],
        Perturb::new(0x1d8),
    );
}
