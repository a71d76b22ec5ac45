//! In-process quick runs: determinism, seed plumbing, the traced run's
//! identities, the oracle's negative self-test and one known value.

use srm_benchmark::json::Json;
use srm_benchmark::report::run_json;
use srm_benchmark::run::{run_workload, Opts, Outcome};
use srm_benchmark::spec::{workload, END_TO_END, PER_LAYER};
use srm_benchmark::world::{run_world, Fault, Impl, WorldCfg};

fn quick(name: &str, seed: u64, trace: bool, fault: Fault) -> Outcome {
    let w = workload(name).expect("known workload");
    run_workload(
        &w,
        &Opts {
            seed,
            seconds: 1.0,
            traced_seconds: trace.then_some(1.0),
            quick: true,
            fault,
        },
    )
}

/// Bit patterns of every virtual number an outcome carries.
fn virtual_bits(o: &Outcome) -> Vec<u64> {
    let mut v: Vec<u64> = o
        .shapes
        .iter()
        .flat_map(|s| [s.virt_us.to_bits(), s.ibm_virt_us.to_bits()])
        .collect();
    v.push(o.end_to_end[0].1.to_bits());
    v
}

fn layer(o: &Outcome, name: &str) -> f64 {
    o.per_layer
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("no per-layer metric {name}"))
        .1
}

#[test]
fn two_runs_of_one_seed_give_identical_virtual_numbers() {
    for name in ["pairwise_p16", "overlap_split_p32"] {
        let (a, b) = (
            quick(name, 7, false, Fault::None),
            quick(name, 7, false, Fault::None),
        );
        assert_eq!(virtual_bits(&a), virtual_bits(&b), "{name}");
        assert_eq!((a.failed, b.failed), (0, 0), "{name}");
    }
}

#[test]
fn the_seed_moves_only_the_workloads_that_draw_from_it() {
    for name in ["pairwise_p16", "overlap_split_p32"] {
        assert_ne!(
            virtual_bits(&quick(name, 1, false, Fault::None)),
            virtual_bits(&quick(name, 2, false, Fault::None)),
            "{name} draws its count matrix / perturbation from the seed"
        );
    }
    for name in ["small_p256", "large_p64"] {
        assert_eq!(
            virtual_bits(&quick(name, 1, false, Fault::None)),
            virtual_bits(&quick(name, 2, false, Fault::None)),
            "{name} takes only its buffer contents from the seed"
        );
    }
}

/// The identities every traced run must keep.
fn check_traced(o: &Outcome) {
    let name = o.workload;
    assert_eq!(o.failed, 0, "{name}");
    assert_eq!(layer(o, "trace.virt_identical"), 1.0, "{name}");
    for prefix in ["engine.virt_share.", "engine.virt_share_root."] {
        let sum: f64 = o
            .per_layer
            .iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .map(|(_, v)| v)
            .sum();
        assert!((sum - 1.0).abs() <= 0.001, "{name} {prefix}* sums to {sum}");
    }
    let per_rank = o
        .notes
        .iter()
        .find(|(n, _)| *n == "worst_class_sum_error")
        .expect("traced runs note the per-rank sum error")
        .1;
    assert!(
        per_rank <= 0.001,
        "{name}: per-rank classes off by {per_rank}"
    );
    // Every per-layer metric is present, finite and in order.
    let names: Vec<&str> = o.per_layer.iter().map(|(n, _)| *n).collect();
    let spec: Vec<&str> = PER_LAYER.iter().map(|(n, _, _, _)| *n).collect();
    assert_eq!(names, spec);
    assert!(o.per_layer.iter().all(|(_, v)| v.is_finite()), "{name}");
    assert!(!o.spans.is_empty(), "{name}");
}

#[test]
fn traced_runs_keep_their_identities_and_the_interaction_table_holds() {
    let pair = quick("pairwise_p16", 5, true, Fault::None);
    let over = quick("overlap_split_p32", 5, true, Fault::None);
    let cold = quick("cold_sweep", 5, true, Fault::None);
    for o in [&pair, &over, &cold] {
        check_traced(o);
    }
    // The steady workloads never compile in their timed calls.
    assert_eq!(layer(&pair, "plan.hit_ratio"), 1.0);
    assert_eq!(layer(&over, "plan.hit_ratio"), 1.0);
    assert!(layer(&cold, "plan.hit_ratio") < 1.0);
    assert!(layer(&cold, "tune.table_hit_ratio") > 0.0);
    // Only the overlap workload issues nonblocking calls or is perturbed.
    assert_eq!(layer(&pair, "nb.issued"), 0.0);
    assert!(layer(&over, "nb.issued") > 0.0);
    assert_eq!(layer(&pair, "simnet.perturb_events_per_call"), 0.0);
    assert!(layer(&over, "simnet.perturb_events_per_call") > 0.0);
    // Only the pairwise workload runs both pairwise routes.
    assert!(layer(&pair, "pairwise.puts_per_call") > 0.0);
    assert!(layer(&pair, "pairwise.direct_puts_per_call") > 0.0);
    assert_eq!(layer(&over, "pairwise.puts_per_call"), 0.0);
}

#[test]
fn a_zero_fail_ratio_is_not_vacuous() {
    let clean = quick("overlap_split_p32", 9, false, Fault::None);
    assert_eq!(clean.failed, 0);
    let corrupt = quick("overlap_split_p32", 9, false, Fault::CorruptByte);
    assert_eq!(corrupt.failed, 1, "one corrupted byte fails one call");
    let aborted = quick("overlap_split_p32", 9, false, Fault::Abort);
    assert!(
        aborted.failed > 1,
        "an aborted world fails every call it had not completed"
    );
    assert!(aborted.attempted == clean.attempted);
}

#[test]
fn result_line_round_trips_and_has_exactly_the_contract_keys() {
    let o = quick("overlap_split_p32", 11, false, Fault::None);
    let line = run_json(&o, false, None).render();
    assert!(!line.contains('\n'));
    let back = Json::parse(&line).expect("result line parses");
    let keys: Vec<&str> = back.members().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let metrics = back.get("metrics").expect("metrics");
    for (m, (name, value)) in END_TO_END.iter().zip(&o.end_to_end) {
        assert_eq!(m.name, *name);
        let got = metrics.get(m.name).expect("every end-to-end metric");
        assert_eq!(got.get("value").and_then(Json::as_f64), Some(*value));
        assert_eq!(got.get("unit").and_then(Json::as_str), Some(m.unit));
        assert!(*value > 0.0, "{name} must never be 0");
    }
}

/// EXPERIMENTS.md, Figure 12: the SRM barrier on 256 processors takes
/// 68.6 us, IBM MPI's 270.6 us.
#[test]
fn barrier_at_256_matches_the_recorded_figure() {
    let w = workload("small_p256").expect("known workload");
    let shape = *w
        .shapes
        .iter()
        .find(|s| s.name == "barrier")
        .expect("barrier");
    let us = |imp| {
        let run = run_world(&WorldCfg {
            shape,
            imp,
            seed: 1,
            perturbed: false,
            root: 0,
            traced: false,
            fault: Fault::None,
        });
        assert_eq!(run.failed, 0);
        run.virt_ps as f64 / 1e6 / run.calls as f64
    };
    let (srm, ibm) = (us(Impl::Srm), us(Impl::IbmMpi));
    assert!((srm / 68.6 - 1.0).abs() < 0.002, "SRM barrier {srm} us");
    assert!((ibm / 270.6 - 1.0).abs() < 0.002, "IBM barrier {ibm} us");
}
