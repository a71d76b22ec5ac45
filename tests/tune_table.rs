//! Tuning-table integration tests: loading a searched table changes
//! *schedules only* (results stay bit-identical to the all-default
//! world), the serialize → load → re-plan round trip is deterministic
//! down to the executed step sequences and plan-cache counts, and the
//! tune-consult path is observable (counters, per-comm breakdown,
//! `tuned:*` trace labels).

use collops::{Collectives, DType, ReduceOp};
use proptest::prelude::*;
use simnet::{MachineConfig, Sim, Topology, Trace};
use srm::{SrmTuning, SrmWorld, TuneEntry, TuneKey, TuneOp, TuneTable};
use std::sync::{Arc, Mutex};

const ALLREDUCE_LEN: usize = 16 * 1024;
const SEG: usize = 4 * 1024;
const BCAST_LEN: usize = 8 * 1024;

/// A table with an entry for every op of [`run_program`]: the
/// broadcast's pipelines it in 2 KB chunks from 4 KB up and the
/// alltoall's cuts its intra-node cells into 2 KB pieces. No column
/// reaches the allreduce's plan, so its entry sets only the ignored
/// `allreduce_rs_min`; the alltoall's also sets the ignored
/// `pairwise_window`.
fn demo_table() -> TuneTable {
    let base = TuneEntry::from_tuning(&SrmTuning::default());
    let mut t = TuneTable::new(42, "tune_table test grid", vec![32 * 1024]);
    let wild = |op| TuneKey {
        op,
        class: 0,
        nodes: 0,
        ranks: 0,
    };
    t.insert(
        wild(TuneOp::Allreduce),
        TuneEntry {
            allreduce_rs_min: 32 * 1024,
            ..base
        },
    );
    t.insert(
        wild(TuneOp::Alltoall),
        TuneEntry {
            pairwise_chunk: 2 * 1024,
            pairwise_window: 4,
            ..base
        },
    );
    t.insert(
        wild(TuneOp::Bcast),
        TuneEntry {
            pipeline_min: 4 * 1024,
            pipeline_chunk: 2 * 1024,
            ..base
        },
    );
    t
}

/// What one run leaves: per-rank result buffers, the report, per-rank
/// executed step-label sequences and the `tuned:*` labels.
type Run = (Vec<Vec<u8>>, simnet::Report, Vec<Vec<String>>, Vec<String>);

/// Run a fixed three-op program (bcast, allreduce, alltoall) on every
/// rank, with step tracing on.
fn run_program(topo: Topology, table: Option<Arc<TuneTable>>) -> Run {
    let cap = (2 * topo.nprocs() * SEG).max(ALLREDUCE_LEN).max(BCAST_LEN);
    run_body(topo, table, cap, |ctx, comm, buf| {
        comm.broadcast(ctx, buf, BCAST_LEN, 0);
        comm.allreduce(ctx, buf, ALLREDUCE_LEN, DType::U64, ReduceOp::Sum);
        comm.alltoall(ctx, buf, SEG);
    })
}

/// Run `body` on every rank over a `cap`-byte buffer, with step tracing
/// on.
fn run_body(
    topo: Topology,
    table: Option<Arc<TuneTable>>,
    cap: usize,
    body: fn(&simnet::Ctx, &srm::SrmComm, &shmem::ShmBuffer),
) -> Run {
    let n = topo.nprocs();
    let mut sim = Sim::new(MachineConfig::ibm_sp_colony());
    let trace = Trace::new();
    sim.attach_trace(trace.clone());
    let base = SrmTuning {
        trace_steps: true,
        ..SrmTuning::default()
    };
    let world = match table {
        Some(t) => SrmWorld::with_tuning_table(&mut sim, topo, base, t),
        None => SrmWorld::new(&mut sim, topo, base),
    };
    let out = Arc::new(Mutex::new(vec![Vec::new(); n]));
    for rank in 0..n {
        let comm = world.comm(rank);
        let out = out.clone();
        sim.spawn(format!("rank{rank}"), move |ctx| {
            let buf = comm.alloc_buffer(cap);
            buf.with_mut(|d| {
                for (i, x) in d.iter_mut().enumerate() {
                    *x = (i as u8).wrapping_mul(13).wrapping_add(rank as u8);
                }
            });
            body(&ctx, &comm, &buf);
            out.lock().unwrap()[rank] = buf.with(|d| d.to_vec());
            comm.shutdown(&ctx);
        });
    }
    let report = sim.run().expect("program completes");
    let results = Arc::try_unwrap(out).unwrap().into_inner().unwrap();
    let steps: Vec<Vec<String>> = (0..n)
        .map(|r| {
            trace
                .for_lp(n + r)
                .into_iter()
                .filter_map(|e| e.label.strip_prefix("step:").map(str::to_string))
                .collect()
        })
        .collect();
    let tuned: Vec<String> = trace
        .with_prefix("tuned:")
        .into_iter()
        .map(|e| e.label.to_string())
        .collect();
    (results, report, steps, tuned)
}

/// Loading a table never changes collective results — only schedules —
/// and the consult path is fully observable.
#[test]
fn tuned_world_results_unchanged_and_observable() {
    let topo = Topology::new(2, 4);
    let table = Arc::new(demo_table());
    let (dres, dreport, dsteps, dtuned) = run_program(topo, None);
    let (tres, treport, tsteps, ttuned) = run_program(topo, Some(table));

    // Results bit-identical, schedules not.
    assert_eq!(dres, tres, "loading the table changed collective results");
    assert_ne!(dsteps, tsteps, "table entries should change schedules");

    // No table: the consult path is never taken.
    assert_eq!(dreport.metrics.tune_table_hits, 0);
    assert_eq!(dreport.metrics.tune_table_misses, 0);
    assert!(dreport
        .by_comm
        .iter()
        .all(|r| r.tune_hits + r.tune_misses == 0));
    assert!(dtuned.is_empty());

    // With the table: every program op has a wildcard entry, so every
    // plan compile is a tune hit, traced as `tuned:table`.
    assert!(treport.metrics.tune_table_hits > 0);
    let hits: u64 = treport.by_comm.iter().map(|r| r.tune_hits).sum();
    assert_eq!(hits, treport.metrics.tune_table_hits);
    assert!(ttuned.iter().any(|l| l == "tuned:table"));
    assert!(
        !ttuned.iter().any(|l| l == "tuned:default"),
        "all three ops are covered by wildcard entries"
    );
}

/// `TuneEntry::allreduce_rs_min` is a column the planner ignores. The
/// benchmark's `cold_sweep` table sets it to 32 KB on a wildcard
/// allreduce row; on 4x4 a 64 KB allreduce under that table runs the
/// untuned world's steps, returns its results, and still counts a hit.
#[test]
fn ignored_rs_min_column_changes_nothing() {
    let topo = Topology::new(4, 4);
    let mut t = TuneTable::new(15, "ignored column", vec![32 * 1024]);
    let key = TuneKey {
        op: TuneOp::Allreduce,
        class: 1,
        nodes: 0,
        ranks: 0,
    };
    let entry = TuneEntry {
        allreduce_rs_min: 32 * 1024,
        ..TuneEntry::from_tuning(&SrmTuning::default())
    };
    t.insert(key, entry);
    const LEN: usize = 64 * 1024;
    assert_ignored(topo, t, LEN, |ctx, comm, buf| {
        comm.allreduce(ctx, buf, LEN, DType::U64, ReduceOp::Sum)
    });
}

/// `TuneEntry::pairwise_window` is a column the planner ignores too: the
/// staged reduce_scatter's landings are two credited sides, whatever the
/// column says. On 4x2 a 4 KB reduce_scatter under a wildcard row that
/// sets it to 1 runs the untuned world's steps.
#[test]
fn ignored_window_column_changes_nothing() {
    let topo = Topology::new(4, 2);
    let mut t = TuneTable::new(15, "ignored column", vec![32 * 1024]);
    let key = TuneKey {
        op: TuneOp::ReduceScatter,
        class: 0,
        nodes: 0,
        ranks: 0,
    };
    let entry = TuneEntry {
        pairwise_window: 1,
        ..TuneEntry::from_tuning(&SrmTuning::default())
    };
    t.insert(key, entry);
    const LEN: usize = 4 * 1024;
    assert_ignored(topo, t, 8 * LEN, |ctx, comm, buf| {
        comm.reduce_scatter(ctx, buf, LEN, DType::U64, ReduceOp::Sum)
    });
}

/// `body` under table `t`, whose one entry sets only an ignored column,
/// runs the untuned world's steps to its results and end time, and
/// still counts a hit on every compile.
fn assert_ignored(
    topo: Topology,
    t: TuneTable,
    cap: usize,
    body: fn(&simnet::Ctx, &srm::SrmComm, &shmem::ShmBuffer),
) {
    let (dres, dreport, dsteps, _) = run_body(topo, None, cap, body);
    let (tres, treport, tsteps, ttuned) = run_body(topo, Some(Arc::new(t)), cap, body);
    assert_eq!(dsteps, tsteps, "the ignored column changed the schedule");
    assert_eq!(dres, tres, "the ignored column changed the results");
    assert_eq!(dreport.end_time, treport.end_time);
    assert!(treport.metrics.tune_table_hits > 0);
    assert_eq!(treport.metrics.tune_table_misses, 0);
    assert!(ttuned.iter().all(|l| l == "tuned:table"));
}

/// serialize → load → re-plan is bit-identical: the parsed table equals
/// the source table, and a run under each executes identical step
/// sequences with identical plan-cache and tune counts.
#[test]
fn serialize_load_replan_bit_identical() {
    let topo = Topology::new(2, 2);
    let built = demo_table();
    let text = built.to_text();
    let parsed = TuneTable::parse(&text).expect("canonical text parses");
    assert_eq!(built, parsed);
    assert_eq!(parsed.to_text(), text, "round trip must be byte-identical");

    let (ares, areport, asteps, _) = run_program(topo, Some(Arc::new(built)));
    let (bres, breport, bsteps, _) = run_program(topo, Some(Arc::new(parsed)));
    assert_eq!(ares, bres);
    assert_eq!(asteps, bsteps, "re-planned schedules must be bit-identical");
    assert_eq!(areport.by_comm, breport.by_comm);
    assert_eq!(areport.end_time, breport.end_time);
}

/// Strategy for an arbitrary decision entry over the default base
/// tuning — valid by construction (power-of-two knobs kept within the
/// default geometry: `pairwise_chunk` within the 16 KB reduce chunk,
/// the pipeline range within the 64 KB switch).
fn arb_entry() -> impl Strategy<Value = TuneEntry> {
    let base = SrmTuning::default();
    (
        (0usize..=4, 1usize..=6), // pipeline_chunk, pipeline_max: 2^k KB
        prop_oneof![Just(usize::MAX), Just(1), Just(64 * 1024)], // rs_min
        (1usize..=4, 1usize..=4), // pairwise chunk 2^k KB, window
    )
        .prop_map(move |((pc, pmax), rs, (pwc, pww))| {
            let pmax = (1 << pmax) * 1024;
            TuneEntry {
                pipeline_min: base.pipeline_min.min(pmax),
                pipeline_max: pmax,
                pipeline_chunk: (1 << pc) * 1024,
                allreduce_rs_min: rs,
                pairwise_chunk: (1 << pwc) * 1024,
                pairwise_window: pww,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16,
        ..ProptestConfig::default()
    })]

    /// Text round trip is the identity for arbitrary tables.
    #[test]
    fn prop_text_round_trip(
        seed in any::<u64>(),
        edge_kb in 1usize..=64,
        entries in proptest::collection::vec(arb_entry(), 1..4),
    ) {
        let mut t = TuneTable::new(seed, "prop grid", vec![edge_kb * 1024]);
        for (i, e) in entries.into_iter().enumerate() {
            t.insert(
                TuneKey { op: TuneOp::ALL[i % TuneOp::ALL.len()], class: 0, nodes: 0, ranks: 0 },
                e,
            );
        }
        let text = t.to_text();
        let parsed = TuneTable::parse(&text).expect("canonical text parses");
        prop_assert_eq!(&parsed, &t);
        prop_assert_eq!(parsed.to_text(), text);
    }

    /// For arbitrary valid entries and topologies, the tabled world's
    /// results match the default world's bit for bit, and two tabled
    /// runs are identical (schedules, counts, makespan).
    #[test]
    fn prop_tabled_results_match_default(
        nodes in 1usize..=2,
        tasks in 1usize..=3,
        entry in arb_entry(),
        op_mask in 1usize..=7,
    ) {
        let topo = Topology::new(nodes, tasks);
        let mut t = TuneTable::new(1, "prop grid", vec![32 * 1024]);
        for (bit, op) in [TuneOp::Bcast, TuneOp::Allreduce, TuneOp::Alltoall]
            .into_iter()
            .enumerate()
        {
            if op_mask & (1 << bit) != 0 {
                t.insert(TuneKey { op, class: 0, nodes: 0, ranks: 0 }, entry);
            }
        }
        let table = Arc::new(t);
        let (dres, _, _, _) = run_program(topo, None);
        let (ares, areport, asteps, _) = run_program(topo, Some(table.clone()));
        let (bres, breport, bsteps, _) = run_program(topo, Some(table));
        prop_assert_eq!(dres, ares.clone(), "table changed results");
        prop_assert_eq!(ares, bres);
        prop_assert_eq!(asteps, bsteps);
        prop_assert_eq!(areport.by_comm, breport.by_comm);
        prop_assert_eq!(areport.end_time, breport.end_time);
    }
}
