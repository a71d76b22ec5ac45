//! Offline autotuning search driver (`srm::tune`).
//!
//! Sweeps the **decision** knobs of [`SrmTuning`] per (operation,
//! payload size class) on one topology over the simulator, and writes
//! the winners to a versioned, persisted [`TuneTable`] that
//! [`SrmWorld::with_tuning_table`] loads at run time. The search is a
//! coarse-to-fine grid: every candidate is timed with few iterations,
//! the best few (plus the default, always) are re-timed with more, and
//! an entry is only recorded when the winner beats the all-default
//! tuning by at least 1 %. A final through-table verification pass
//! drops any entry that does not hold up when executed via the loaded
//! table (over its geometry envelope's buffers), so the persisted table
//! never regresses a searched shape.
//!
//! Everything is measured in **virtual time** on the deterministic
//! simulator — no OS entropy anywhere — so the same grid spec and seed
//! always produce a byte-identical table (`--check` re-runs the search
//! and compares, then also verifies that loading the table changes
//! schedules but not collective *results*, via exact u64 payloads).
//!
//! ```sh
//! cargo run --release -p srm-bench --bin autotune -- \
//!     --nodes 4 --tasks 4 --out tuned_4x4.txt --check
//! ```

use collops::{Collectives, DType, ReduceOp};
use simnet::{MachineConfig, Sim, Topology};
use srm::{SrmTuning, SrmWorld, TuneEntry, TuneKey, TuneTable};
use srm_cluster::{measure, measure_with_table, HarnessOpts, Impl, Op};
use std::sync::{Arc, Mutex};

/// Parsed command line.
struct Args {
    nodes: usize,
    tasks: usize,
    ops: Vec<Op>,
    edges: Vec<usize>,
    seed: u64,
    out: Option<String>,
    fast: bool,
    check: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: autotune [--nodes N] [--tasks T] [--ops a,b,..] \
         [--classes e1,e2,..] [--seed S] [--out PATH] [--fast] [--check]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut a = Args {
        nodes: 4,
        tasks: 4,
        ops: vec![Op::Bcast, Op::Allreduce, Op::Alltoall, Op::ReduceScatter],
        edges: vec![4 << 10, 64 << 10, 1 << 20],
        seed: 0xC011EC7,
        out: None,
        fast: false,
        check: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--nodes" => a.nodes = val().parse().unwrap_or_else(|_| usage()),
            "--tasks" => a.tasks = val().parse().unwrap_or_else(|_| usage()),
            "--seed" => a.seed = val().parse().unwrap_or_else(|_| usage()),
            "--out" => a.out = Some(val()),
            "--fast" => a.fast = true,
            "--check" => a.check = true,
            "--ops" => {
                a.ops = val()
                    .split(',')
                    .map(|s| Op::from_name(s.trim()).unwrap_or_else(|| usage()))
                    .collect();
            }
            "--classes" => {
                a.edges = val()
                    .split(',')
                    .map(|s| s.trim().parse().unwrap_or_else(|_| usage()))
                    .collect();
                a.edges.sort_unstable();
                a.edges.dedup();
            }
            _ => usage(),
        }
    }
    a
}

/// Representative payload for a size class: its upper edge, aligned to
/// the 8-byte element grid.
fn rep_len(edge: usize) -> usize {
    (edge & !7).max(8)
}

/// The candidate decision tunings for one operation, the all-default
/// tuning always first. Fixed curated lists (no sampling): the search
/// is deterministic from the grid spec alone; every candidate
/// individually passes [`SrmTuning::validate`].
fn candidates_for(op: Op, base: SrmTuning) -> Vec<SrmTuning> {
    let mut cands = vec![base];
    let mut push = |t: SrmTuning| {
        if t.validate().is_ok() {
            cands.push(t);
        }
    };
    match op {
        Op::Bcast | Op::Allgather => {
            let k = 1024;
            push(SrmTuning {
                small_large_switch: 32 * k,
                pipeline_max: 32 * k,
                ..base
            });
            push(SrmTuning {
                small_large_switch: 128 * k,
                ..base
            });
            // Pipelined sub-range variants: off, widened, finer/coarser.
            push(SrmTuning {
                pipeline_min: base.small_large_switch,
                pipeline_max: base.small_large_switch,
                ..base
            });
            push(SrmTuning {
                pipeline_min: 4 * k,
                pipeline_max: base.small_large_switch,
                pipeline_chunk: 4 * k,
                ..base
            });
            push(SrmTuning {
                pipeline_chunk: 8 * k,
                ..base
            });
            push(SrmTuning {
                pipeline_chunk: 2 * k,
                ..base
            });
            push(SrmTuning {
                interrupt_disable_max: 0,
                ..base
            });
        }
        Op::Reduce => {
            // Interrupts on everywhere, and the paper's small-call cut.
            push(SrmTuning {
                interrupt_disable_max: 0,
                ..base
            });
            push(SrmTuning {
                interrupt_disable_max: 8 * 1024,
                ..base
            });
        }
        Op::Alltoall | Op::Alltoallv | Op::ReduceScatter => {
            let k = 1024;
            for c in [2 * k, 4 * k, 8 * k] {
                push(SrmTuning {
                    pairwise_chunk: c,
                    ..base
                });
            }
            // The exchanges have one wire, direct at every size: the
            // chunk (it cuts their intra-node cells) is the only knob
            // that changes their plans. The route threshold steers
            // reduce_scatter's master-to-master streams.
            if op != Op::ReduceScatter {
                return cands;
            }
            // Segment-route knob: lower the direct-route threshold so
            // mid-size classes can flip to direct puts, or disable the
            // direct route outright (usize::MAX = off).
            for m in [usize::MAX, 16 * k, 256 * k] {
                push(SrmTuning {
                    pairwise_direct_min: m,
                    ..base
                });
            }
        }
        // No per-shape decision knobs reach these planners (their
        // chunking and the allreduce's recursive-doubling cap are
        // buffer geometry): nothing to search.
        Op::Allreduce | Op::Barrier | Op::Gather | Op::Scatter => {}
    }
    cands
}

/// Mean per-call virtual time (picoseconds) of `op` at `len` under
/// candidate tuning `t` — the search's objective function.
fn time_candidate(topo: Topology, op: Op, len: usize, t: SrmTuning, iters: usize) -> u64 {
    measure(
        Impl::Srm,
        MachineConfig::ibm_sp_colony(),
        topo,
        op,
        len,
        HarnessOpts { iters, srm: t },
    )
    .per_call
    .as_ps()
}

/// Per-call time of `op` at `len` through a loaded table (base
/// defaults otherwise).
fn time_tabled(topo: Topology, op: Op, len: usize, table: &Arc<TuneTable>, iters: usize) -> u64 {
    measure_with_table(
        Impl::Srm,
        MachineConfig::ibm_sp_colony(),
        topo,
        op,
        len,
        HarnessOpts {
            iters,
            srm: SrmTuning::default(),
        },
        Some(table.clone()),
    )
    .per_call
    .as_ps()
}

/// Run the full coarse-to-fine search and return the persisted table.
fn search(args: &Args) -> TuneTable {
    let topo = Topology::new(args.nodes, args.tasks);
    let nprocs = topo.nprocs();
    let base = SrmTuning::default();
    let (coarse_iters, fine_iters) = if args.fast { (1, 2) } else { (2, 4) };
    let grid = format!(
        "nodes={} tasks={} ops={} classes={}",
        args.nodes,
        args.tasks,
        args.ops
            .iter()
            .map(|o| o.as_str())
            .collect::<Vec<_>>()
            .join(","),
        args.edges
            .iter()
            .map(|e| e.to_string())
            .collect::<Vec<_>>()
            .join(","),
    );
    let mut table = TuneTable::new(args.seed, grid, args.edges.clone());

    for &op in &args.ops {
        let cands = candidates_for(op, base);
        if cands.len() <= 1 {
            eprintln!("[skip] {}: no per-shape decision knobs", op.as_str());
            continue;
        }
        for (class, &edge) in args.edges.iter().enumerate() {
            let len = rep_len(edge);
            // Coarse pass: every candidate, few iterations.
            let coarse: Vec<u64> = cands
                .iter()
                .map(|&t| time_candidate(topo, op, len, t, coarse_iters))
                .collect();
            // Fine pass: the default plus the best three coarse
            // candidates, re-timed with more iterations.
            let mut order: Vec<usize> = (1..cands.len()).collect();
            order.sort_by_key(|&i| coarse[i]);
            order.truncate(3);
            let default_ps = time_candidate(topo, op, len, cands[0], fine_iters);
            let mut best: Option<(usize, u64)> = None;
            for &i in &order {
                let ps = time_candidate(topo, op, len, cands[i], fine_iters);
                if best.is_none_or(|(_, b)| ps < b) {
                    best = Some((i, ps));
                }
            }
            let Some((win, win_ps)) = best else { continue };
            // Record only clear wins: >= 1 % under the default.
            let pct = 100.0 * win_ps as f64 / default_ps as f64;
            if win_ps * 100 < default_ps * 99 {
                table.insert(
                    TuneKey {
                        op,
                        class,
                        nodes: args.nodes,
                        ranks: nprocs,
                    },
                    TuneEntry::from_tuning(&cands[win]),
                );
                eprintln!(
                    "[win ] {} class {class} (rep {len}): candidate {win} at {pct:.1}% of default",
                    op.as_str()
                );
            } else {
                eprintln!(
                    "[keep] {} class {class} (rep {len}): default stands (best {pct:.1}%)",
                    op.as_str()
                );
            }
        }
    }

    // Through-table verification: re-time every searched shape with
    // the assembled table loaded, over its geometry envelope's
    // buffers. Drop entries that no longer beat the default and
    // repeat — dropping shrinks the envelope.
    for round in 0..3 {
        let shared = Arc::new(table.clone());
        let mut drop_keys = Vec::new();
        for &key in table.entries.keys() {
            let len = rep_len(table.edges[key.class]);
            let tuned = time_tabled(topo, key.op, len, &shared, fine_iters);
            let default_ps = time_candidate(topo, key.op, len, base, fine_iters);
            if tuned > default_ps {
                eprintln!(
                    "[drop] {} class {} regressed through table ({:.1}%), round {round}",
                    key.op.as_str(),
                    key.class,
                    100.0 * tuned as f64 / default_ps as f64
                );
                drop_keys.push(key);
            }
        }
        if drop_keys.is_empty() {
            break;
        }
        for k in drop_keys {
            table.entries.remove(&k);
        }
    }
    table
}

/// Execute `op` once per rank with exact (u64) payloads and return
/// every rank's final buffer — the material for the results-unchanged
/// check.
fn run_outputs(topo: Topology, op: Op, len: usize, table: Option<Arc<TuneTable>>) -> Vec<Vec<u8>> {
    let n = topo.nprocs();
    let mut sim = Sim::new(MachineConfig::ibm_sp_colony());
    let world = match table {
        Some(t) => SrmWorld::with_tuning_table(&mut sim, topo, SrmTuning::default(), t),
        None => SrmWorld::new(&mut sim, topo, SrmTuning::default()),
    };
    let out = Arc::new(Mutex::new(vec![Vec::new(); n]));
    for rank in 0..n {
        let comm = world.comm(rank);
        let out = out.clone();
        sim.spawn(format!("rank{rank}"), move |ctx| {
            let shape = op.shape(len, 0, n);
            let buf = comm.alloc_buffer(shape.extent(n));
            buf.with_mut(|d| {
                for (i, x) in d.iter_mut().enumerate() {
                    *x = (i as u8).wrapping_mul(31).wrapping_add(rank as u8 ^ 0x5A);
                }
            });
            comm.call(&ctx, shape, &buf, Some((DType::U64, ReduceOp::Sum)));
            out.lock().unwrap()[rank] = buf.with(|d| d.to_vec());
            comm.shutdown(&ctx);
        });
    }
    sim.run().expect("check run completes");
    Arc::try_unwrap(out).unwrap().into_inner().unwrap()
}

fn main() {
    let args = parse_args();
    let table = search(&args);
    let text = table.to_text();
    match &args.out {
        Some(path) => {
            std::fs::write(path, &text).expect("write tuning table");
            eprintln!("[out ] {} entries -> {path}", table.entries.len());
        }
        None => print!("{text}"),
    }

    if !args.check {
        return;
    }
    let mut failures = 0usize;

    // 1. Reproducibility: the search re-run from the same grid spec
    //    and seed must serialize byte-identically, and the persisted
    //    text must parse back to the same table.
    let again = search(&args);
    if again.to_text() != text {
        eprintln!("[FAIL] re-search produced a different table");
        failures += 1;
    }
    let parsed = TuneTable::parse(&text).expect("persisted table parses");
    if parsed.to_text() != text {
        eprintln!("[FAIL] parse/serialize round trip not byte-identical");
        failures += 1;
    }
    let shared = Arc::new(parsed);

    // 2. Results unchanged, schedules only: every searched shape
    //    produces bit-identical buffers with and without the table.
    // 3. Tuned no slower than default on the searched shapes (with a
    //    0.5 % measurement-noise allowance for entry-less shapes).
    let topo = Topology::new(args.nodes, args.tasks);
    let nprocs = topo.nprocs();
    let iters = if args.fast { 2 } else { 4 };
    println!(
        "\nTuned vs default on {} ({} entries):",
        topo,
        shared.entries.len()
    );
    println!(
        "{:>16} {:>6} {:>10} {:>14} {:>14} {:>8}",
        "op", "class", "rep bytes", "default (us)", "tuned (us)", "ratio"
    );
    for &op in &args.ops {
        for (class, &edge) in args.edges.iter().enumerate() {
            let len = rep_len(edge);
            let d = run_outputs(topo, op, len, None);
            let t = run_outputs(topo, op, len, Some(shared.clone()));
            if d != t {
                eprintln!(
                    "[FAIL] {} class {class}: loading the table changed results",
                    op.as_str()
                );
                failures += 1;
            }
            let default_ps = time_candidate(topo, op, len, SrmTuning::default(), iters);
            let tuned_ps = time_tabled(topo, op, len, &shared, iters);
            let ratio = 100.0 * tuned_ps as f64 / default_ps as f64;
            let tuned_here = shared
                .lookup(op, len, args.nodes, nprocs)
                .map(|_| "*")
                .unwrap_or(" ");
            println!(
                "{:>15}{} {:>6} {:>10} {:>14.1} {:>14.1} {:>7.1}%",
                op.as_str(),
                tuned_here,
                class,
                len,
                default_ps as f64 / 1e6,
                tuned_ps as f64 / 1e6,
                ratio
            );
            if tuned_ps * 1000 > default_ps * 1005 {
                eprintln!(
                    "[FAIL] {} class {class}: tuned run slower than default",
                    op.as_str()
                );
                failures += 1;
            }
        }
    }
    if failures > 0 {
        eprintln!("\n{failures} check(s) failed");
        std::process::exit(1);
    }
    println!("\nall checks passed (byte-identical re-search, results unchanged, no regressions)");
}
