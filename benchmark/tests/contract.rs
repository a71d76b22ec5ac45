//! The vocabulary in `spec.rs` meets the benchmark contract and equals
//! the committed `BENCHMARK.json`.

use srm_benchmark::json::Json;
use srm_benchmark::spec::{contract, workloads, Better, END_TO_END, PER_LAYER};
use std::collections::BTreeSet;

fn name_ok(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn unit_ok(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[test]
fn names_units_counts_and_bounds_are_within_the_contract() {
    let w = workloads();
    assert!((2..=8).contains(&w.len()));
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    let mut seen = BTreeSet::new();
    for wl in &w {
        assert!(name_ok(wl.name), "{}", wl.name);
        assert!(wl.why.len() <= 200 && !wl.why.contains('\n'), "{}", wl.name);
        assert!(seen.insert(wl.name), "duplicate name {}", wl.name);
        let mut shapes = BTreeSet::new();
        for s in &wl.shapes {
            assert!(shapes.insert(s.name), "duplicate shape {}", s.name);
        }
    }
    for m in &END_TO_END {
        assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
        assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        assert!(seen.insert(m.name), "duplicate name {}", m.name);
    }
    for (name, unit, _, _) in &PER_LAYER {
        assert!(name_ok(name) && unit_ok(unit), "{name}");
        assert!(seen.insert(name), "duplicate name {name}");
    }
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
}

#[test]
fn every_layer_is_a_module_of_the_repo() {
    let modules = [
        "simnet", "shmem", "rma", "msg", "mpi-coll", "plan", "engine", "api", "nb", "pairwise",
        "tune", "world", "model", "trace",
    ];
    for (name, _, _, _) in &PER_LAYER {
        if let Some((layer, _)) = name.split_once('.') {
            assert!(modules.contains(&layer), "{name}: unknown layer {layer}");
        }
    }
}

#[test]
fn benchmark_json_is_generated_from_the_vocabulary() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    assert!(text.len() <= 64 * 1024);
    let committed = Json::parse(&text).expect("BENCHMARK.json parses");
    assert_eq!(
        committed,
        contract(),
        "regenerate with: cargo run --manifest-path benchmark/Cargo.toml -- contract > BENCHMARK.json"
    );
    let keys: Vec<&str> = committed
        .members()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
}
