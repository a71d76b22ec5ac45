//! Ad-hoc experiment runner: measure any collective on any cluster
//! shape from the command line — plus the seeded schedule-exploration
//! stress mode (activated by `--seeds`).
//!
//! ```text
//! explore [OPTIONS]                          measurement mode
//!   --op OP                                 (default bcast; any of
//!                          bcast reduce allreduce barrier gather scatter
//!                          allgather alltoall alltoallv reduce_scatter)
//!   --nodes N                               (default 4)
//!   --tpn P                                 (default 16)
//!   --bytes B[,B...]                        (default 4096)
//!   --impl srm|ibm|mpich|all                (default all)
//!   --machine colony|via                    (default colony)
//!   --iters K                               (default 5)
//!   --tree binomial|binary|fibonacci|chain|hungbinary
//!                          (default: derived per call)
//!
//! explore --seeds N [OPTIONS]               stress mode
//! explore --shrink S [OPTIONS]              shrink one failing seed
//!   --seeds N              run N seeded perturbation scenarios
//!   --shrink S             delta-debug seed S's scenario: drop steps,
//!                          then switch off perturbation mechanisms,
//!                          while it still fails; print the result
//!                          (exit 0 if the seed fails, 1 if it passes)
//!   --start-seed S         first seed (decimal or 0x-hex, default 0)
//!   --nodes N / --tpn P    pin the topology (default: drawn per seed)
//!   --max-ops K            program length upper bound (default 6)
//!   --no-subgroups         world-communicator steps only (also
//!                          disables comm_split scenarios)
//!   --route direct|staged  force every reduce_scatter segment down
//!                          one route (direct: pairwise_direct_min =
//!                          0, staged: usize::MAX)
//!   --tree-scale K         multiply broadcast/reduce/allreduce lengths
//!                          by K (default 1): 8 or 16 reaches the
//!                          chunked reduce and allreduce pipelines and
//!                          the large broadcast
//!   --ops OP               every step runs OP (an `--op` token) in
//!                          place of the drawn operation; the rest of
//!                          the scenario is drawn as usual
//!   --inject raise-race    fault injection: revert SpinFlag::raise to
//!                          a non-monotone store; the sweep must CATCH
//!                          it (exit 0 on detection, 1 on a miss)
//!   --inject am-stall-race fault injection: the RMA dispatcher bumps
//!                          the completion counter BEFORE a drawn
//!                          AM-handler stall lands the payload, so a
//!                          consumer woken by the premature increment
//!                          can read stale bytes; same exit contract
//! ```
//!
//! # Worked examples
//!
//! Sweep 256 seeds with the full grammar (subgroups, comm_split
//! partitions, buffer-aliasing steps) under the full perturbation
//! surface — exits 0 only if every seed passes its data checks and
//! structural invariants:
//!
//! ```text
//! explore --seeds 256
//! ```
//!
//! Replay one failing seed exactly (the line the failure report
//! prints):
//!
//! ```text
//! explore --seeds 1 --start-seed 0x00000000000000a7
//! ```
//!
//! Cut a failing seed down to the steps and perturbation mechanisms it
//! needs (the stress-mode options pin the same scenario):
//!
//! ```text
//! explore --shrink 0x1c6 --nodes 2 --tpn 8
//! ```
//!
//! Prove the detector catches a planted dispatcher race: the run flips
//! the premature-ack switch and sweeps until a data check fails,
//! printing the seed and its one-line reproducer. Exit 0 means
//! "detected", exit 1 means the budget was too small:
//!
//! ```text
//! explore --seeds 128 --inject am-stall-race
//! ```

use simnet::{Faults, MachineConfig, Topology};
use srm::{SrmTuning, TreeKind};
use srm_cluster::{
    derive_scenario, explore_sweep, measure, shrink, ExploreOpts, HarnessOpts, Impl, Op,
};

struct Args {
    op: Op,
    nodes: usize,
    tpn: usize,
    nodes_set: bool,
    tpn_set: bool,
    bytes: Vec<usize>,
    imps: Vec<Impl>,
    machine: MachineConfig,
    iters: usize,
    tree: Option<TreeKind>,
    seeds: Option<u64>,
    start_seed: u64,
    shrink: Option<u64>,
    max_ops: usize,
    subgroups: bool,
    /// `--route`: the `pairwise_direct_min` that forces it.
    route: Option<usize>,
    tree_scale: usize,
    /// `--ops`: the one operation every stress step runs.
    only: Option<Op>,
    inject: Option<String>,
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}\n");
    eprintln!("usage: explore [--op OP] [--nodes N] [--tpn P] [--bytes B,..] [--impl I] [--machine M] [--iters K] [--tree T]");
    eprintln!("       explore --seeds N [--start-seed S] [--nodes N] [--tpn P] [--max-ops K] [--no-subgroups] [--route direct|staged] [--tree-scale K] [--ops OP] [--inject raise-race|am-stall-race]");
    eprintln!("       explore --shrink S [same options as --seeds]");
    std::process::exit(2)
}

fn parse_seed(val: &str) -> Option<u64> {
    if let Some(hex) = val.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else {
        val.parse().ok()
    }
}

fn parse() -> Args {
    let mut a = Args {
        op: Op::Bcast,
        nodes: 4,
        tpn: 16,
        nodes_set: false,
        tpn_set: false,
        bytes: vec![4096],
        imps: Impl::ALL.to_vec(),
        machine: MachineConfig::ibm_sp_colony(),
        iters: 5,
        tree: None,
        seeds: None,
        start_seed: 0,
        shrink: None,
        max_ops: 6,
        subgroups: true,
        route: None,
        tree_scale: 1,
        only: None,
        inject: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        if flag == "--no-subgroups" {
            a.subgroups = false;
            i += 1;
            continue;
        }
        let val = argv
            .get(i + 1)
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag {
            "--op" => {
                a.op = Op::from_name(val).unwrap_or_else(|| usage(&format!("unknown op '{val}'")))
            }
            "--nodes" => {
                a.nodes = val.parse().unwrap_or_else(|_| usage("bad --nodes"));
                a.nodes_set = true;
            }
            "--tpn" => {
                a.tpn = val.parse().unwrap_or_else(|_| usage("bad --tpn"));
                a.tpn_set = true;
            }
            "--seeds" => a.seeds = Some(val.parse().unwrap_or_else(|_| usage("bad --seeds"))),
            "--start-seed" => {
                a.start_seed = parse_seed(val).unwrap_or_else(|| usage("bad --start-seed"))
            }
            "--shrink" => a.shrink = Some(parse_seed(val).unwrap_or_else(|| usage("bad --shrink"))),
            "--max-ops" => a.max_ops = val.parse().unwrap_or_else(|_| usage("bad --max-ops")),
            "--route" => {
                a.route = Some(match val.as_str() {
                    "direct" => 0,
                    "staged" => usize::MAX,
                    _ => usage("bad --route (direct|staged)"),
                })
            }
            "--tree-scale" => {
                a.tree_scale = val.parse().unwrap_or_else(|_| usage("bad --tree-scale"))
            }
            "--ops" => {
                let op = Op::from_name(val);
                a.only = Some(op.unwrap_or_else(|| usage(&format!("unknown op '{val}'"))))
            }
            "--inject" => {
                if val != "raise-race" && val != "am-stall-race" {
                    usage(&format!("unknown injection '{val}'"));
                }
                a.inject = Some(val.clone());
            }
            "--bytes" => {
                a.bytes = val
                    .split(',')
                    .map(|s| s.parse().unwrap_or_else(|_| usage("bad --bytes")))
                    .collect()
            }
            "--impl" => {
                a.imps = match val.as_str() {
                    "srm" => vec![Impl::Srm],
                    "ibm" => vec![Impl::IbmMpi],
                    "mpich" => vec![Impl::Mpich],
                    "all" => Impl::ALL.to_vec(),
                    other => usage(&format!("unknown impl '{other}'")),
                }
            }
            "--machine" => {
                a.machine = match val.as_str() {
                    "colony" => MachineConfig::ibm_sp_colony(),
                    "via" => MachineConfig::commodity_via_cluster(),
                    other => usage(&format!("unknown machine '{other}'")),
                }
            }
            "--iters" => a.iters = val.parse().unwrap_or_else(|_| usage("bad --iters")),
            "--tree" => {
                let named = |k: &&TreeKind| format!("{k:?}").to_lowercase() == *val;
                a.tree = match TreeKind::ALL.iter().find(named) {
                    Some(&kind) => Some(kind),
                    None => usage(&format!("unknown tree '{val}'")),
                }
            }
            other => usage(&format!("unknown flag '{other}'")),
        }
        i += 2;
    }
    a
}

/// The explorer options the stress-mode flags pin, announcing any
/// planted fault or forced route.
fn explore_opts(a: &Args) -> ExploreOpts {
    let faults = match a.inject.as_deref() {
        Some("raise-race") => {
            println!(
                "fault injection: SpinFlag::raise reverted to a non-monotone store, \
                 handoff order guards omitted"
            );
            Faults {
                nonmonotone_raise: true,
                skip_order_guards: true,
                ..Faults::default()
            }
        }
        Some("am-stall-race") => {
            println!(
                "fault injection: RMA dispatcher acknowledges completion counters \
                 before AM-handler stalls land the payload (premature ack)"
            );
            Faults {
                stall_counter_race: true,
                ..Faults::default()
            }
        }
        _ => Faults::default(),
    };
    let mut opts = ExploreOpts {
        nodes: a.nodes_set.then_some(a.nodes),
        tpn: a.tpn_set.then_some(a.tpn),
        max_ops: a.max_ops,
        subgroups: a.subgroups,
        faults,
        tree_scale: a.tree_scale,
        only: a.only,
        ..ExploreOpts::default()
    };
    if let Some(min) = a.route {
        println!("route forcing: every reduce_scatter segment, pairwise_direct_min = {min}");
        opts.pairwise_direct_min = min;
    }
    opts
}

/// Shrink mode: cut one failing seed down and print what is left.
fn shrink_seed(a: &Args, seed: u64) -> ! {
    let opts = explore_opts(a);
    let Some((shrunk, failure)) = shrink(seed, &opts) else {
        println!("seed 0x{seed:016x} passes: nothing to shrink");
        std::process::exit(1);
    };
    let full = derive_scenario(seed, &opts);
    println!("seed 0x{seed:016x} fails\n  scenario: {full}");
    println!(
        "shrunk: {} -> {} step(s)\n  scenario: {shrunk}\n  error: {}",
        full.steps.len(),
        shrunk.steps.len(),
        failure.error
    );
    std::process::exit(0);
}

/// Stress mode: sweep seeded perturbation scenarios and report.
fn stress(a: &Args, count: u64) -> ! {
    let injecting = a.inject.is_some();
    let opts = explore_opts(a);
    println!(
        "exploring {count} seed(s) from 0x{:016x} (topology {}, max {} ops, subgroups {}, \
         tree ops x{}, ops {})",
        a.start_seed,
        if a.nodes_set || a.tpn_set {
            format!(
                "{}x{}",
                if a.nodes_set { a.nodes } else { 0 },
                if a.tpn_set { a.tpn } else { 0 }
            )
        } else {
            "per-seed".to_string()
        },
        a.max_ops,
        if a.subgroups { "on" } else { "off" },
        a.tree_scale,
        a.only.map_or("all", Op::as_str),
    );
    let mut explored = 0;
    let mut summary = srm_cluster::ExploreSummary::default();
    for chunk_start in (0..count).step_by(32) {
        let chunk = 32.min(count - chunk_start);
        let s = explore_sweep(a.start_seed + chunk_start, chunk, &opts);
        explored += s.explored;
        summary.explored += s.explored;
        summary.perturb_events += s.perturb_events;
        summary.max_skew_ps = summary.max_skew_ps.max(s.max_skew_ps);
        summary.calls_checked += s.calls_checked;
        summary.failures.extend(s.failures);
        if injecting && !summary.failures.is_empty() {
            break; // detection achieved; no need to finish the budget
        }
        if explored < count {
            println!(
                "  {explored}/{count} seeds, {} calls checked, {} perturb events, {} failure(s)",
                summary.calls_checked,
                summary.perturb_events,
                summary.failures.len()
            );
        }
    }
    println!(
        "explored {explored} seed(s): {} collective calls verified, {} perturbation events \
         injected (max skew {:.1}us), {} failure(s)",
        summary.calls_checked,
        summary.perturb_events,
        summary.max_skew_ps as f64 / 1e6,
        summary.failures.len()
    );
    if injecting {
        if let Some(f) = summary.failures.first() {
            println!("fault DETECTED after {explored} seed(s):\n{f}");
            std::process::exit(0);
        }
        println!("fault NOT detected within {count} seed(s) — detector miss");
        std::process::exit(1);
    }
    if !summary.failures.is_empty() {
        for f in &summary.failures {
            println!("{f}");
        }
        std::process::exit(1);
    }
    std::process::exit(0);
}

fn main() {
    let a = parse();
    if let Some(seed) = a.shrink {
        shrink_seed(&a, seed);
    }
    if let Some(count) = a.seeds {
        stress(&a, count);
    }
    let topo = Topology::new(a.nodes, a.tpn);
    println!(
        "{} on {topo}, {} iteration(s) per point, {} tree\n",
        a.op.name(),
        a.iters,
        a.tree.map_or("derived".into(), |k| format!("{k:?}"))
    );
    print!("{:>10}", "bytes");
    for imp in &a.imps {
        print!(" {:>12}", imp.name());
    }
    println!();
    for &len in &a.bytes {
        print!("{len:>10}");
        for &imp in &a.imps {
            let opts = HarnessOpts {
                iters: a.iters,
                srm: SrmTuning {
                    tree: a.tree,
                    ..SrmTuning::default()
                },
            };
            let m = measure(imp, a.machine.clone(), topo, a.op, len, opts);
            print!(" {:>11.1}u", m.per_call.as_us());
        }
        println!();
    }
}
