//! The stress harness must *catch* a planted bug, not just pass clean
//! sweeps — otherwise a green sweep proves nothing about the checks.
//!
//! Each test plants one fault ([`simnet::Faults`], per world) on the
//! first seed of the grammar-v2 sweep order whose schedule exposes it
//! (the `explore` binary's `--inject` modes detect them there too, well
//! inside their 128-seed CI budgets), asserts the harness reports a
//! failure *with a usable reproducer*, then replays the seed with the
//! fault out and asserts clean.

use simnet::Faults;
use srm_cluster::{explore_one, ExploreOpts};

fn detected_and_reported(seed: u64, faults: Faults) {
    let faulty = ExploreOpts {
        faults,
        ..ExploreOpts::default()
    };
    let failure = explore_one(seed, &faulty)
        .expect_err(&format!("{faults:?} went undetected on seed {seed:#04x}"));
    assert_eq!(failure.seed, seed);
    let text = failure.to_string();
    assert!(
        text.contains(&format!("--start-seed 0x{seed:016x}")),
        "failure report lacks the exact reproducer seed:\n{text}"
    );
    assert!(
        text.contains("cargo run --release -p srm-bench --bin explore"),
        "failure report lacks the reproducer command:\n{text}"
    );

    // Same seed, fault removed: the harness is clean again, so the
    // detection above really was the planted bug.
    if let Err(f) = explore_one(seed, &ExploreOpts::default()) {
        panic!("seed {seed:#04x} still fails with the fault removed:\n{f}");
    }
}

/// `SpinFlag::raise` reverted to a plain (non-monotone) store and the
/// handoff order guards omitted — together re-opening
/// the exact out-of-order contribution overwrite the harness originally
/// found.
#[test]
fn planted_raise_race_is_detected_and_reported() {
    let faults = Faults {
        nonmonotone_raise: true,
        skip_order_guards: true,
        ..Faults::default()
    };
    detected_and_reported(0x34, faults);
}

/// The RMA dispatcher acknowledges a message's completion counter
/// *before* a drawn AM-handler stall lands the payload (a premature
/// ack). A consumer parked on that counter wakes at the pre-stall time,
/// and because the kernel schedules min-time-first it runs *ahead* of
/// the still-stalled dispatcher and reads stale bytes. The fault only
/// fires where a handler stall is actually drawn, so it needs
/// `am_stall_permille > 0` — the grammar-v2 perturbation space draws it
/// for most seeds.
#[test]
fn planted_am_stall_race_is_detected_and_reported() {
    let faults = Faults {
        stall_counter_race: true,
        ..Faults::default()
    };
    detected_and_reported(0x01, faults);
}
