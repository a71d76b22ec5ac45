//! Renders a virtual-time swimlane of one small SRM broadcast on a
//! 2-node x 4-way cluster, using the simulator's event tracing — a
//! way to *see* the protocol of Figure 4: staging, landing arrivals,
//! local reads, credit acknowledgements.
//!
//! With `trace_steps` enabled in the tuning, the plan/execute engine
//! additionally traces every `Step` it executes (labels `step:*`), so
//! the run also prints the **executed schedule** of each rank as a
//! swimlane: one line per rank, one `[index] label @time` entry per
//! executed step, in execution order. Because the broadcast is
//! compiled per *role* (root, on-node peer, remote landing reader),
//! ranks on the same role show the same step sequence at different
//! times — the step list is the Schedule, the times are the execution.
//!
//! After the world broadcast, a 64 KB world **reduce_scatter** sits on
//! the default `pairwise_direct_min` threshold and takes the direct
//! route (the masters exchange scratch addresses and put every piece
//! straight into the peer's scratch), and the
//! non-contiguous subgroup `[1, 3, 6]` runs an allreduce through its
//! own communicator, so the swimlane headers also show the
//! per-communicator plan-cache traffic the run generated (`comm 0` is
//! the world; subgroups get fresh ids).
//!
//! Output format:
//!
//! ```text
//! comm 0: 7 plan hits, 1 plan misses
//! comm 1: 2 plan hits, 1 plan misses
//! rank0 | [ 0] shm-copy @ 12.3 | [ 1] pair-publish @ 13.0 | ...
//! rank1 | [ 0] pair-wait-published @ 0.0 | ...
//! ```
//!
//! (`step:` prefixes are stripped; times are virtual microseconds.)
//!
//! A second run then replays the same program under a seeded
//! [`Perturb`] config (delivery jitter, compute stalls, a straggler
//! rank, AM handler stalls, link stretches and bandwidth dips): the
//! injected events show up as `perturb:*` entries in the swimlane, and
//! the per-rank step timelines visibly skew against the unperturbed
//! run while the step *sequences* stay identical — the schedule is the
//! contract, the times are the perturbation. Mechanisms with duration
//! are rendered as **intervals**: an AM handler stall spans its paired
//! `perturb:am-stall` / `perturb:am-stall-end` events, and a bandwidth
//! dip opens a window of `bw_dip_window` on its link from the
//! `perturb:bw-dip` event.
//!
//! A final **tuned replay** loads a hand-authored [`TuneTable`] whose
//! one wildcard allreduce entry re-routes the subgroup's allreduce
//! onto the pipelined path: the run prints the per-communicator
//! tune-hit breakdown from the report and the `tuned:table` /
//! `tuned:default` labels the engine traces on every plan compile.
//!
//! ```sh
//! cargo run --release --example timeline
//! ```

use collops::{Collectives, DType, ReduceOp};
use simnet::{MachineConfig, Perturb, Sim, SimTime, Topology, Trace};
use srm::{SrmComm, SrmTuning, SrmWorld, TuneEntry, TuneKey, TuneOp, TuneTable};
use std::sync::Arc;

const GROUP: [usize; 3] = [1, 3, 6];

/// Per-rank reduce_scatter segment: at the default
/// `pairwise_direct_min`, so the planner picks the direct route without
/// any forcing.
const RS_SEG: usize = 64 * 1024;

/// Run the example program — a world broadcast, then an allreduce on
/// the subgroup — with step tracing on, optionally perturbed, and
/// optionally with a searched tuning table loaded.
fn run_once(
    topo: Topology,
    perturb: Option<Perturb>,
    table: Option<Arc<TuneTable>>,
) -> (Trace, simnet::Report) {
    let mut sim = Sim::new(MachineConfig::ibm_sp_colony());
    if let Some(p) = perturb {
        sim.set_perturb(p);
    }
    let trace = Trace::new();
    sim.attach_trace(trace.clone());
    let tuning = SrmTuning {
        trace_steps: true,
        ..SrmTuning::default()
    };
    let world = match table {
        Some(t) => SrmWorld::with_tuning_table(&mut sim, topo, tuning, t),
        None => SrmWorld::new(&mut sim, topo, tuning),
    };

    let mut sub_of: Vec<Option<SrmComm>> = (0..topo.nprocs()).map(|_| None).collect();
    for (sub, &r) in world.comm_create(&GROUP).into_iter().zip(&GROUP) {
        sub_of[r] = Some(sub);
    }

    for (rank, sub) in sub_of.into_iter().enumerate() {
        let comm = world.comm(rank);
        let nprocs = topo.nprocs();
        sim.spawn(format!("rank{rank}"), move |ctx| {
            let buf = comm.alloc_buffer(nprocs * RS_SEG);
            if rank == 0 {
                buf.with_mut(|d| d.fill(9));
            }
            comm.broadcast(&ctx, &buf, 2048, 0);
            comm.reduce_scatter(&ctx, &buf, RS_SEG, DType::U64, ReduceOp::Sum);
            if let Some(sub) = sub {
                let sbuf = sub.alloc_buffer(2048);
                sub.allreduce(&ctx, &sbuf, 2048, DType::U64, ReduceOp::Sum);
            }
            comm.shutdown(&ctx);
        });
    }
    let report = sim.run().expect("run completes");
    (trace, report)
}

fn main() {
    let topo = Topology::new(2, 4);
    let group = GROUP;
    let (trace, report) = run_once(topo, None, None);

    // LP ids: dispatchers first (spawned by the RMA world), then ranks.
    let mut names: Vec<String> = (0..topo.nprocs()).map(|i| format!("disp{i}")).collect();
    names.extend((0..topo.nprocs()).map(|i| format!("rank{i}")));
    println!(
        "One 2 KB SRM broadcast on {topo}, a 64 KB reduce_scatter, then an allreduce \
         on subgroup {group:?} ({} comm creates):\n",
        report.metrics.comm_creates
    );
    for r in &report.by_comm {
        let kind = if r.comm == 0 { " (world)" } else { "" };
        let (id, hits, misses) = (r.comm, r.plan_hits, r.plan_misses);
        println!("comm {id}{kind}: {hits} plan hits, {misses} plan misses");
    }

    // The 2 KB broadcast staged through the landing buffers; the 64 KB
    // reduce_scatter went direct into the peer masters' scratch buffers.
    println!(
        "{} direct puts issued\n",
        report.metrics.pairwise_direct_puts
    );
    let who_of = |lp: usize| names.get(lp).cloned().unwrap_or_else(|| format!("lp{lp}"));
    print!("{}", trace.render(&names));
    println!("\n{} events traced", trace.len());

    // Executed-schedule swimlanes: the `step:*` events each rank's
    // engine traced, in order. Rank r runs on LP nprocs + r.
    let sched = |trace: &Trace, rank: usize| -> Vec<(String, f64)> {
        trace
            .for_lp(topo.nprocs() + rank)
            .into_iter()
            .filter_map(|e| {
                e.label
                    .strip_prefix("step:")
                    .map(|l| (l.to_string(), e.at.as_us()))
            })
            .collect()
    };
    println!("\nExecuted schedules (step index -> [label @us]):\n");
    for rank in 0..topo.nprocs() {
        let steps: Vec<String> = sched(&trace, rank)
            .into_iter()
            .enumerate()
            .map(|(i, (label, at))| format!("[{i:>2}] {label} @{at:.1}"))
            .collect();
        println!("rank{rank} | {}", steps.join(" | "));
    }

    // The same program under a seeded perturbation: jitter + stalls +
    // a straggler on rank 2, with the dispatcher- and link-level
    // mechanisms turned up so their intervals show on this small
    // program. The step sequences must not change — only their times
    // do; the `perturb:*` trace entries show exactly where the skew
    // entered.
    let cfg = Perturb {
        am_stall_permille: 600,
        bw_dip_permille: 500,
        ..Perturb::standard(0xC0FFEE)
    }
    .with_straggler(2, SimTime::from_us(40));
    let (ptrace, preport) = run_once(topo, Some(cfg), None);
    println!("\nPerturbed replay ({cfg}):");
    println!(
        "{} perturbation events, {:.1}us total injected, max skew {:.1}us\n",
        preport.metrics.perturb_events,
        preport.metrics.perturb_delay_ps as f64 / 1e6,
        preport.metrics.perturb_max_skew_ps as f64 / 1e6,
    );
    for e in ptrace.with_prefix("perturb:") {
        let who = names
            .get(e.lp)
            .cloned()
            .unwrap_or_else(|| format!("lp{}", e.lp));
        println!("  {:>10} {who:<6} {}", format!("{}", e.at), e.label);
    }

    // Interval rendering for the mechanisms with duration. AM handler
    // stalls are bracketed by paired events on the stalled LP; a
    // bandwidth dip slows its link for the configured window from the
    // moment it starts.
    println!("\nInjected intervals (lane: start -> end):\n");
    let mut open: Vec<Option<SimTime>> = vec![None; names.len() + 1];
    for e in ptrace.with_prefix("perturb:am-stall") {
        let lane = e.lp.min(names.len());
        if e.label == "perturb:am-stall" {
            open[lane] = Some(e.at);
        } else if e.label == "perturb:am-stall-end" {
            if let Some(start) = open[lane].take() {
                println!(
                    "  am-stall {:<6} {start} -> {} ({:.1}us)",
                    who_of(e.lp),
                    e.at,
                    (e.at - start).as_us()
                );
            }
        }
    }
    for e in ptrace.with_prefix("perturb:bw-dip") {
        println!(
            "  bw-dip   {:<6} {} -> {} (link slowed x{})",
            who_of(e.lp),
            e.at,
            e.at + cfg.bw_dip_window,
            cfg.bw_dip_mult
        );
    }

    println!("\nSkewed schedules (same steps, perturbed times):\n");
    for rank in 0..topo.nprocs() {
        let base = sched(&trace, rank);
        let pert = sched(&ptrace, rank);
        assert_eq!(
            base.iter().map(|(l, _)| l).collect::<Vec<_>>(),
            pert.iter().map(|(l, _)| l).collect::<Vec<_>>(),
            "rank{rank}: perturbation changed the schedule, not just the times"
        );
        let steps: Vec<String> = pert
            .iter()
            .zip(&base)
            .enumerate()
            .map(|(i, ((label, at), (_, base_at)))| {
                format!("[{i:>2}] {label} @{at:.1} ({:+.1})", at - base_at)
            })
            .collect();
        println!("rank{rank} | {}", steps.join(" | "));
    }
    println!(
        "\nmakespan: {} unperturbed -> {} perturbed",
        report.end_time, preport.end_time
    );

    // Tuned replay: the same program with a small searched tuning
    // table loaded. The single wildcard allreduce entry sets
    // `allreduce_rd_max = 0`, which flips the subgroup's 2 KB
    // allreduce from recursive doubling onto the pipelined path —
    // same results, different schedule. Every plan-cache miss now
    // consults the table: the engine traces `tuned:table` /
    // `tuned:default` and the report carries the per-communicator
    // tune-hit breakdown next to the plan-cache one.
    let mut table = TuneTable::new(7, "hand-authored timeline demo", vec![4096]);
    table.insert(
        TuneKey {
            op: TuneOp::Allreduce,
            class: 0,
            nodes: 0,
            ranks: 0,
        },
        TuneEntry {
            allreduce_rd_max: 0,
            ..TuneEntry::from_tuning(&SrmTuning::default())
        },
    );
    let (ttrace, treport) = run_once(topo, None, Some(Arc::new(table)));
    println!("\nTuned replay (one wildcard allreduce entry, class edge 4 KB):\n");
    for r in treport
        .by_comm
        .iter()
        .filter(|r| r.tune_hits + r.tune_misses > 0)
    {
        let kind = if r.comm == 0 { " (world)" } else { "" };
        let (id, hits, misses) = (r.comm, r.tune_hits, r.tune_misses);
        println!("comm {id}{kind}: {hits} tuned plan compiles, {misses} default plan compiles");
    }
    println!();
    for e in ttrace.with_prefix("tuned:") {
        println!(
            "  {:>10} {:<6} {}",
            format!("{}", e.at),
            who_of(e.lp),
            e.label
        );
    }
    let labels =
        |t: &Trace, r: usize| -> Vec<String> { sched(t, r).into_iter().map(|(l, _)| l).collect() };
    // Rank 0 only runs world ops (no table entries for them): schedule
    // unchanged. Rank 1 is in the subgroup: its allreduce re-planned.
    assert_eq!(labels(&trace, 0), labels(&ttrace, 0));
    assert_ne!(labels(&trace, 1), labels(&ttrace, 1));
    println!(
        "\nrank0 (world ops only): schedule unchanged; \
         rank1 (subgroup allreduce): {} steps default -> {} steps tuned",
        labels(&trace, 1).len(),
        labels(&ttrace, 1).len()
    );
}
