//! Tier-1 smoke sweep of the schedule-exploration stress harness.
//!
//! These tests run a small number of seeds through
//! [`srm_cluster::explore_one`] — enough to exercise the derivation
//! grammar, the perturbation layer and every invariant check on every
//! CI run. The big sweeps (hundreds of seeds, release mode) live in
//! the bench-crate `explore` binary and the CI `stress-smoke` job.

use simnet::{Faults, Perturb};
use srm_cluster::{
    derive_scenario, explore_sweep, run_scenario, shrink, AliasMode, ExploreOpts, Op, ProgStep,
    Scenario, SplitSpec,
};

fn assert_clean(summary: &srm_cluster::ExploreSummary) {
    if !summary.failures.is_empty() {
        for f in &summary.failures {
            eprintln!("{f}");
        }
        panic!(
            "{} of {} seeds failed (first repro above)",
            summary.failures.len(),
            summary.explored
        );
    }
}

#[test]
fn smoke_sweep_random_topologies() {
    let opts = ExploreOpts::default();
    let summary = explore_sweep(0, 10, &opts);
    assert_clean(&summary);
    assert_eq!(summary.explored, 10);
    assert!(
        summary.perturb_events > 0,
        "ten perturbed scenarios must inject at least one event"
    );
    assert!(summary.calls_checked > 0);
}

#[test]
fn smoke_sweep_fixed_four_by_two() {
    let opts = ExploreOpts {
        nodes: Some(4),
        tpn: Some(2),
        ..ExploreOpts::default()
    };
    let summary = explore_sweep(100, 8, &opts);
    assert_clean(&summary);
    assert_eq!(summary.explored, 8);
}

#[test]
fn smoke_sweep_without_subgroups() {
    let opts = ExploreOpts {
        subgroups: false,
        max_ops: 4,
        ..ExploreOpts::default()
    };
    let summary = explore_sweep(200, 6, &opts);
    assert_clean(&summary);
}

/// Tree-op lengths x8: chunked reduces, multi-chunk pipelined
/// allreduces (the grammar alone stops at recursive doubling) and large
/// broadcasts, under the same perturbations and invariants.
#[test]
fn smoke_sweep_scaled_tree_ops() {
    let opts = ExploreOpts {
        tree_scale: 8,
        ..ExploreOpts::default()
    };
    let summary = explore_sweep(300, 16, &opts);
    assert_clean(&summary);
    assert_eq!(summary.explored, 16);
}

/// The v2 grammar actually reaches its new constructs: within a small
/// seed prefix, at least one derived scenario schedules a step on a
/// `comm_split` communicator and at least one carries a buffer-aliasing
/// step. Derivation is pure, so this is cheap and pins reachability
/// (a grammar regression that silently stops generating splits or
/// aliases fails here, not in some never-noticed coverage gap).
#[test]
fn grammar_v2_features_are_reachable() {
    let opts = ExploreOpts::default();
    let mut split_step = false;
    let mut alias_step = false;
    for seed in 0..64u64 {
        let s = derive_scenario(seed, &opts);
        split_step |= s.steps.iter().any(|st| st.comm > s.groups.len());
        alias_step |= s.steps.iter().any(|st| st.alias != AliasMode::None);
    }
    assert!(
        split_step,
        "no seed in 0..64 stepped on a comm_split communicator"
    );
    assert!(alias_step, "no seed in 0..64 drew a buffer-aliasing step");
}

/// `shrink` cuts a failing seed down and keeps it failing. The planted
/// `skip_order_guards` fault drops the "contrib consumed in order"
/// guards (DESIGN.md §13.3), and 2x8 seed 0x5 then returns a wrong
/// `iallgather` (it shrinks to that call and an `ireduce-scatter`
/// behind it, every perturbation mechanism off). A passing seed has
/// nothing to shrink.
#[test]
fn shrink_cuts_a_failing_seed_down_and_keeps_it_failing() {
    let opts = ExploreOpts {
        nodes: Some(2),
        tpn: Some(8),
        faults: Faults {
            skip_order_guards: true,
            ..Faults::default()
        },
        ..ExploreOpts::default()
    };
    let seed = 0x5;
    let full = derive_scenario(seed, &opts);
    let (shrunk, _) = shrink(seed, &opts).expect("seed 0x5 fails on 2x8 without the guards");
    assert!(
        shrunk.steps.len() < full.steps.len(),
        "{} steps left of {}: {shrunk}",
        shrunk.steps.len(),
        full.steps.len()
    );
    let replay = run_scenario(seed, shrunk.clone(), &opts);
    assert!(replay.is_err(), "shrunk scenario passes: {shrunk}");
    assert!(shrink(0, &opts).is_none(), "seed 0 passes on 2x8");
}

fn pinned(opts: &ExploreOpts, scenario: Scenario) {
    if let Err(f) = run_scenario(scenario.perturb.seed, scenario, opts) {
        panic!("pinned scenario failed:\n{f}");
    }
}

/// Pinned comm_split regression: a reversed round-robin split with an
/// excluded rank (parts `[6,4,2,0]` and `[7,5,1]`, rank 3 out), mixing
/// split-communicator collectives with world steps under the standard
/// perturbation (which enables the dispatcher and link mechanisms).
#[test]
fn pinned_comm_split_scenario() {
    let step = |op, comm, seg, root, nonblocking| ProgStep {
        op,
        comm,
        seg,
        root,
        nonblocking,
        alias: AliasMode::None,
    };
    let scenario = Scenario {
        nodes: 4,
        tpn: 2,
        perturb: Perturb::standard(0xC011_5711),
        groups: Vec::new(),
        splits: vec![SplitSpec {
            ncolors: 2,
            block: false,
            rev: true,
            exclude: Some(3),
        }],
        steps: vec![
            step(Op::Allreduce, 1, 256, 0, false),
            step(Op::Bcast, 1, 64, 2, true),
            step(Op::Gather, 0, 64, 5, false),
            step(Op::Allgather, 1, 8, 0, false),
        ],
    };
    let opts = ExploreOpts {
        nodes: Some(4),
        tpn: Some(2),
        ..ExploreOpts::default()
    };
    pinned(&opts, scenario);
}

/// Pinned buffer-aliasing regression: an in-place chained blocking
/// allreduce followed by a shared-root pair of nonblocking broadcasts,
/// with an ordinary step in between so the aliased calls overlap other
/// traffic.
#[test]
fn pinned_buffer_aliasing_scenario() {
    let scenario = Scenario {
        nodes: 3,
        tpn: 2,
        perturb: Perturb::standard(0xA11A_5ED5),
        groups: Vec::new(),
        splits: Vec::new(),
        steps: vec![
            ProgStep {
                op: Op::Allreduce,
                comm: 0,
                seg: 1024,
                root: 0,
                nonblocking: false,
                alias: AliasMode::ChainBlocking,
            },
            ProgStep {
                op: Op::Bcast,
                comm: 0,
                seg: 4096,
                root: 3,
                nonblocking: true,
                alias: AliasMode::SharedRoot,
            },
            ProgStep {
                op: Op::ReduceScatter,
                comm: 0,
                seg: 64,
                root: 0,
                nonblocking: false,
                alias: AliasMode::None,
            },
        ],
    };
    let opts = ExploreOpts {
        nodes: Some(3),
        tpn: Some(2),
        ..ExploreOpts::default()
    };
    pinned(&opts, scenario);
}
