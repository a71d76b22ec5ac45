//! Run one workload and reduce its worlds to named metrics.
//!
//! A *pass* runs every shape of the workload once, each in a world of
//! its own. Passes repeat until the time budget is spent. The virtual
//! clock and the counters are deterministic, so they are taken from the
//! first `cycle` passes only (one pass, or one full rotation of roots
//! in `cold_sweep`) and every later pass must reproduce them bit for
//! bit — a pass that does not counts as failed calls. Host-clock
//! samples accumulate over every pass.

use crate::spec::{Op, Shape, Workload, END_TO_END, PER_LAYER};
use crate::stats::{geomean, high_percentile, median, percentile};
use crate::trace::{self, Span, CLASSES};
use crate::world::{run_world, Fault, Impl, WorldCfg};
use simnet::{MachineConfig, MetricsSnapshot, Topology};
use srm::{SrmModel, SrmTuning};
use std::time::Instant;

/// Options of one run.
#[derive(Clone, Copy, Debug)]
pub struct Opts {
    pub seed: u64,
    /// Seconds of untraced measurement (ignored in quick mode).
    pub seconds: f64,
    /// Seconds of traced measurement. When set, the run also does
    /// traced passes, both baselines and the micro-timings, and
    /// reports the per-layer metrics.
    pub traced_seconds: Option<f64>,
    /// Three batches per world, one pass of each kind, a tenth of the
    /// micro-timing iterations: same code paths, numbers not comparable
    /// with a full run.
    pub quick: bool,
    /// Planted fault for the negative self-test.
    pub fault: Fault,
}

/// Supporting row of the per-shape detail table.
#[derive(Clone, Debug)]
pub struct ShapeRow {
    pub name: &'static str,
    pub calls: u64,
    pub virt_us: f64,
    pub host_us: f64,
    pub host_us_p_hi: f64,
    pub host_p_hi_pct: f64,
    pub samples: usize,
    pub ibm_virt_us: f64,
    pub mpich_virt_us: Option<f64>,
    pub model_us: Option<f64>,
}

/// Everything one run of one workload produced.
#[derive(Clone, Debug)]
pub struct Outcome {
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    pub passes: usize,
    pub traced_passes: usize,
    pub end_to_end: Vec<(&'static str, f64)>,
    /// Empty unless `Opts::trace`.
    pub per_layer: Vec<(&'static str, f64)>,
    pub shapes: Vec<ShapeRow>,
    /// Supporting numbers that are not named metrics.
    pub notes: Vec<(&'static str, f64)>,
    /// Spans of the first traced pass, for the Chrome trace file.
    pub spans: Vec<Span>,
}

/// Roots `cold_sweep` visits: first, last, one past the middle.
const COLD_ROOTS: usize = 3;

/// The root of `cold_sweep`'s pass `pass`; the seed picks where the
/// rotation starts, one full rotation defines the virtual numbers.
fn cold_root(seed: u64, pass: usize, nprocs: usize) -> usize {
    let roots = [0, nprocs - 1, nprocs / 2 + 1];
    roots[((seed % COLD_ROOTS as u64) as usize + pass) % COLD_ROOTS]
}

/// Sum of the counters the metrics read.
fn add(a: &mut MetricsSnapshot, b: &MetricsSnapshot) {
    macro_rules! sum { ($($f:ident),+) => { $(a.$f += b.$f;)+ } }
    sum!(
        shm_copies,
        shm_bytes,
        flag_ops,
        net_messages,
        net_bytes,
        rma_puts,
        rma_ams,
        interrupts,
        eager_sends,
        rndv_sends,
        matches,
        early_arrivals,
        reduce_bytes,
        plan_hits,
        plan_misses,
        engine_steps,
        engine_copy_steps,
        engine_wait_steps,
        engine_put_steps,
        nb_issued,
        nb_parks,
        pairwise_puts,
        credit_stalls,
        pairwise_direct_puts,
        comm_creates,
        perturb_events,
        perturb_delay_ps,
        tune_table_hits,
        tune_table_misses
    );
}

/// What the passes of one kind (untraced or traced) accumulate per
/// shape.
#[derive(Default)]
struct ShapeAcc {
    /// Virtual picoseconds and calls over the first cycle.
    virt_ps: u64,
    calls: u64,
    /// Virtual picoseconds of each pass of the first cycle, for the
    /// repeat check.
    cycle_virt: Vec<u64>,
    /// Host nanoseconds per call: one sample per batch (per round in
    /// `cold_sweep`).
    samples: Vec<f64>,
}

#[derive(Default)]
struct PassSet {
    shapes: Vec<ShapeAcc>,
    /// Counters over the timed regions / whole worlds of the first cycle.
    timed: MetricsSnapshot,
    total: MetricsSnapshot,
    /// Per pass: host seconds outside the timed regions.
    setup_s: Vec<f64>,
    /// Host seconds the passes took, all told.
    wall_s: f64,
    cpu: (u64, u64),
    attempted: u64,
    failed: u64,
    passes: usize,
    analyses: Vec<trace::Analysis>,
    spans: Vec<Span>,
}

impl PassSet {
    fn calls(&self) -> u64 {
        self.shapes.iter().map(|s| s.calls).sum()
    }

    fn per_call(&self, counter: u64) -> f64 {
        counter as f64 / self.calls().max(1) as f64
    }

    fn virt_us(&self, i: usize) -> f64 {
        let s = &self.shapes[i];
        s.virt_ps as f64 / 1e6 / s.calls.max(1) as f64
    }

    /// Geomean over the shapes of the median host sample, us.
    fn host_us(&self) -> f64 {
        geomean(
            &self
                .shapes
                .iter()
                .filter(|s| !s.samples.is_empty())
                .map(|s| median(&s.samples) / 1e3)
                .collect::<Vec<_>>(),
        )
    }
}

struct Runner<'a> {
    w: &'a Workload,
    opts: Opts,
    shapes: Vec<Shape>,
    /// Passes in one rotation of roots.
    cycle: usize,
}

impl Runner<'_> {
    fn cfg(&self, shape: Shape, imp: Impl, pass: usize, traced: bool) -> WorldCfg {
        WorldCfg {
            shape,
            imp,
            seed: self.opts.seed,
            perturbed: self.w.perturbed,
            root: if self.w.cold {
                cold_root(self.opts.seed, pass, shape.nprocs())
            } else {
                0
            },
            traced,
            fault: Fault::None,
        }
    }

    /// One pass of `imp`'s worlds into `set`.
    ///
    /// A baseline world makes three timed calls — the unperturbed
    /// baselines reach their steady state at once. Under perturbation
    /// every call differs, so there the baseline runs as many calls as
    /// SRM does and the seed's draw averages out on both sides of the
    /// ratio.
    fn pass(&self, set: &mut PassSet, imp: Impl, traced: bool) {
        let pass = set.passes;
        let first_cycle = pass < self.cycle;
        let mut setup_ns = 0u64;
        for (i, &shape) in self.shapes.iter().enumerate() {
            let shape = if imp == Impl::Srm || self.w.perturbed {
                shape
            } else {
                Shape {
                    batches: 3,
                    per_batch: 1,
                    ..shape
                }
            };
            let mut cfg = self.cfg(shape, imp, pass, traced);
            // The planted fault goes into the first SRM world only.
            if imp == Impl::Srm && pass == 0 && i == 0 && !traced {
                cfg.fault = self.opts.fault;
            }
            let run = run_world(&cfg);
            set.attempted += run.attempted;
            set.failed += run.failed;
            setup_ns += run.world_ns - run.timed_ns;
            if run.aborted {
                continue;
            }
            let acc = &mut set.shapes[i];
            if first_cycle {
                acc.virt_ps += run.virt_ps;
                acc.calls += run.calls;
                acc.cycle_virt.push(run.virt_ps);
                add(&mut set.timed, &run.counters);
                add(&mut set.total, &run.total);
            } else if acc.cycle_virt.get(pass % self.cycle) != Some(&run.virt_ps) {
                // The simulation is deterministic: a pass that does not
                // reproduce its first-cycle twin is wrong.
                eprintln!(
                    "benchmark: {} pass {pass}: virtual time {} ps differs from the first cycle",
                    shape.name, run.virt_ps
                );
                set.failed += run.attempted;
            }
            if self.w.cold {
                acc.samples.push(run.timed_ns as f64 / run.calls as f64);
            } else {
                acc.samples.extend(&run.batch_ns_per_call);
            }
            set.cpu.0 += run.cpu.0;
            set.cpu.1 += run.cpu.1;
            if let Some(data) = &run.trace {
                // Step spans of the warm-up and the first timed call of
                // the first pass are kept for the trace file.
                let keep = usize::from(pass == 0);
                let mut a = trace::analyse(data, shape.name, i, cfg.root, shape.calls(), keep);
                if pass == 0 {
                    set.spans.append(&mut a.spans);
                }
                a.spans = Vec::new();
                if first_cycle {
                    set.analyses.push(a);
                }
            }
        }
        set.setup_s.push(setup_ns as f64 / 1e9);
        set.passes += 1;
    }

    /// Passes of `imp`'s worlds until `budget` seconds are spent, at
    /// least one cycle.
    fn passes(&self, imp: Impl, budget: f64, traced: bool) -> PassSet {
        let mut set = PassSet {
            shapes: self.shapes.iter().map(|_| ShapeAcc::default()).collect(),
            ..PassSet::default()
        };
        let start = Instant::now();
        while set.passes < self.cycle
            || (!self.opts.quick && start.elapsed().as_secs_f64() < budget)
        {
            self.pass(&mut set, imp, traced);
        }
        set.wall_s = start.elapsed().as_secs_f64();
        set
    }
}

/// The closed form's prediction for a shape it covers.
fn model_us(shape: &Shape) -> Option<f64> {
    if shape.tuned {
        return None;
    }
    let m = SrmModel::new(
        MachineConfig::ibm_sp_colony(),
        Topology::new(shape.nodes, shape.tpn),
        SrmTuning::default(),
    );
    Some(
        match shape.op {
            Op::Bcast => m.bcast(shape.len),
            Op::Reduce => m.reduce(shape.len),
            Op::Allreduce => m.allreduce(shape.len),
            Op::Barrier => m.barrier(),
            _ => return None,
        }
        .as_us(),
    )
}

/// Run `w` under `opts`.
pub fn run_workload(w: &Workload, opts: &Opts) -> Outcome {
    let shapes = w
        .shapes
        .iter()
        .map(|&s| Shape {
            batches: if opts.quick {
                s.batches.min(3)
            } else {
                s.batches
            },
            ..s
        })
        .collect();
    let r = Runner {
        w,
        opts: *opts,
        shapes,
        cycle: if w.cold && !opts.quick { COLD_ROOTS } else { 1 },
    };

    let plain = r.passes(Impl::Srm, opts.seconds, false);
    // Read before the baselines run: the peak is the SRM worlds' own.
    let peak_rss_mb = crate::proc::peak_rss_mb();
    let traced = opts
        .traced_seconds
        .map(|budget| r.passes(Impl::Srm, budget, true));
    // The baselines run one cycle, untimed.
    let ibm = r.passes(Impl::IbmMpi, 0.0, false);
    let mpich = traced.is_some().then(|| r.passes(Impl::Mpich, 0.0, false));

    let n = r.shapes.len();
    let ok: Vec<usize> = (0..n).filter(|&i| plain.shapes[i].calls > 0).collect();
    let speedup_vs = |b: &PassSet| {
        geomean(
            &ok.iter()
                .map(|&i| b.virt_us(i) / plain.virt_us(i))
                .collect::<Vec<_>>(),
        )
    };
    let virt_us_per_call = geomean(&ok.iter().map(|&i| plain.virt_us(i)).collect::<Vec<_>>());

    let sets = [Some(&plain), traced.as_ref(), Some(&ibm), mpich.as_ref()];
    let attempted: u64 = sets.iter().flatten().map(|s| s.attempted).sum();
    let failed: u64 = sets.iter().flatten().map(|s| s.failed).sum();

    let end_to_end = vec![
        ("virt_speedup_vs_ibm", speedup_vs(&ibm)),
        ("host_us_per_call", plain.host_us()),
        ("setup_s", median(&plain.setup_s)),
        ("peak_rss_mb", peak_rss_mb),
    ];
    debug_assert!(end_to_end
        .iter()
        .zip(&END_TO_END)
        .all(|(a, b)| a.0 == b.name));

    let rows: Vec<ShapeRow> = (0..n)
        .map(|i| {
            let samples = &plain.shapes[i].samples;
            let (p_hi, pct) = if samples.is_empty() {
                (0.0, 0.0)
            } else {
                high_percentile(samples)
            };
            ShapeRow {
                name: r.shapes[i].name,
                calls: plain.shapes[i].calls,
                virt_us: plain.virt_us(i),
                host_us: if samples.is_empty() {
                    0.0
                } else {
                    median(samples) / 1e3
                },
                host_us_p_hi: p_hi / 1e3,
                host_p_hi_pct: pct,
                samples: samples.len(),
                ibm_virt_us: ibm.virt_us(i),
                mpich_virt_us: mpich.as_ref().map(|m| m.virt_us(i)),
                model_us: model_us(&r.shapes[i]),
            }
        })
        .collect();

    let mut notes = vec![("measure_s", plain.wall_s)];
    let mut traced_passes = 0;
    let mut per_layer = Vec::new();
    let mut spans = Vec::new();
    if let (Some(mut traced), Some(mpich)) = (traced, mpich) {
        spans = std::mem::take(&mut traced.spans);
        traced_passes = traced.passes;
        per_layer = layer_metrics(&LayerInputs {
            cold: w.cold,
            plain: &plain,
            traced: &traced,
            ibm: &ibm,
            mpich: &mpich,
            rows: &rows,
            virt_us_per_call,
            fail_ratio: failed as f64 / attempted as f64,
            speedup_vs_mpich: speedup_vs(&mpich),
            micro: crate::micro::run_all(if opts.quick { 10 } else { 1 }),
        });
        let calls: u64 = traced
            .analyses
            .iter()
            .map(|a| a.latencies_ps.len() as u64)
            .sum();
        let total_ps: u64 = traced
            .analyses
            .iter()
            .map(|a| a.class_ps.iter().sum::<u64>())
            .sum();
        let share = |ps: u64| ps as f64 / total_ps.max(1) as f64;
        notes.push(("traced_calls", calls as f64));
        notes.push((
            "call_self_share",
            share(traced.analyses.iter().map(|a| a.call_self_ps).sum()),
        ));
        notes.push((
            "timed_phase_self_share",
            share(traced.analyses.iter().map(|a| a.phase_self_ps).sum()),
        ));
        notes.push((
            "worst_class_sum_error",
            traced
                .analyses
                .iter()
                .map(|a| a.worst_sum_error)
                .fold(0.0, f64::max),
        ));
    }

    Outcome {
        workload: w.name,
        attempted,
        failed,
        passes: plain.passes,
        traced_passes,
        end_to_end,
        per_layer,
        shapes: rows,
        notes,
        spans,
    }
}

struct LayerInputs<'a> {
    cold: bool,
    plain: &'a PassSet,
    traced: &'a PassSet,
    ibm: &'a PassSet,
    mpich: &'a PassSet,
    rows: &'a [ShapeRow],
    virt_us_per_call: f64,
    fail_ratio: f64,
    speedup_vs_mpich: f64,
    micro: crate::micro::Rows,
}

/// Every per-layer metric, in `PER_LAYER` order.
fn layer_metrics(x: &LayerInputs) -> Vec<(&'static str, f64)> {
    let (p, t) = (x.plain, x.traced);
    let c = &p.timed;
    // Compiles happen in the warm-up. Where every world is cold the
    // whole world is the unit of work and the planner is judged over
    // it; elsewhere it is judged over the timed calls, which must all
    // hit the cache.
    let planner = if x.cold { &p.total } else { &p.timed };
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let ok = |rows: &mut dyn Iterator<Item = &ShapeRow>| -> Vec<f64> {
        rows.filter(|r| r.calls > 0)
            .map(|r| r.host_us_p_hi)
            .collect()
    };

    // Step-class shares over all ranks and on the root rank.
    let mut class = [0u64; 7];
    let mut class_root = [0u64; 7];
    for a in &t.analyses {
        for k in 0..7 {
            class[k] += a.class_ps[k];
            class_root[k] += a.class_ps_root[k];
        }
    }
    let shares = |v: [u64; 7]| {
        let total: u64 = v.iter().sum();
        v.map(|ps| ratio(ps, total))
    };
    let (share, share_root) = (shares(class), shares(class_root));

    // Per traced world: p99/p50 of call latency, median finish skew.
    let lat = |v: &[u64]| v.iter().map(|&x| x as f64).collect::<Vec<_>>();
    let tail: Vec<f64> = t
        .analyses
        .iter()
        .filter(|a| !a.latencies_ps.is_empty())
        .map(|a| {
            let l = lat(&a.latencies_ps);
            percentile(&l, 99.0) / percentile(&l, 50.0)
        })
        .collect();
    let skew_us: Vec<f64> = t
        .analyses
        .iter()
        .filter(|a| !a.finish_skew_ps.is_empty())
        .map(|a| median(&lat(&a.finish_skew_ps)) / 1e6)
        .collect();

    // Traced against untraced, shape by shape.
    let virt_identical =
        (0..p.shapes.len()).all(|i| p.shapes[i].cycle_virt == t.shapes[i].cycle_virt);
    let events: usize = t.analyses.iter().map(|a| a.events).sum();

    // The closed form against the simulation, where it applies.
    let residuals: Vec<f64> = x
        .rows
        .iter()
        .filter(|r| r.calls > 0)
        .filter_map(|r| r.model_us.map(|m| (r.virt_us / m - 1.0).abs().max(1e-9)))
        .collect();

    let msg = &x.ibm.timed;
    let mut out: Vec<(&'static str, f64)> = vec![
        ("virt_us_per_call", x.virt_us_per_call),
        ("fail_ratio", x.fail_ratio),
        ("host_us_per_call_p_hi", geomean(&ok(&mut x.rows.iter()))),
        ("simnet.sys_share", ratio(p.cpu.1, p.cpu.0 + p.cpu.1)),
        (
            "simnet.perturb_events_per_call",
            p.per_call(c.perturb_events),
        ),
        (
            "simnet.perturb_delay_us_per_call",
            p.per_call(c.perturb_delay_ps) / 1e6,
        ),
        ("shmem.copies_per_call", p.per_call(c.shm_copies)),
        ("shmem.bytes_per_call", p.per_call(c.shm_bytes)),
        ("shmem.flag_ops_per_call", p.per_call(c.flag_ops)),
        ("rma.puts_per_call", p.per_call(c.rma_puts)),
        ("rma.ams_per_call", p.per_call(c.rma_ams)),
        ("rma.net_msgs_per_call", p.per_call(c.net_messages)),
        ("rma.net_bytes_per_call", p.per_call(c.net_bytes)),
        ("rma.interrupts_per_call", p.per_call(c.interrupts)),
        (
            "plan.hit_ratio",
            ratio(planner.plan_hits, planner.plan_hits + planner.plan_misses),
        ),
        ("plan.misses", planner.plan_misses as f64),
        ("engine.steps_per_call", p.per_call(c.engine_steps)),
        (
            "engine.copy_steps_per_call",
            p.per_call(c.engine_copy_steps),
        ),
        (
            "engine.wait_steps_per_call",
            p.per_call(c.engine_wait_steps),
        ),
        ("engine.put_steps_per_call", p.per_call(c.engine_put_steps)),
        ("engine.reduce_bytes_per_call", p.per_call(c.reduce_bytes)),
        ("api.call_tail_ratio", geomean(&tail)),
        ("api.finish_skew_us", geomean(&skew_us)),
        ("nb.issued", c.nb_issued as f64),
        ("nb.parks_per_issue", ratio(c.nb_parks, c.nb_issued)),
        ("pairwise.puts_per_call", p.per_call(c.pairwise_puts)),
        (
            "pairwise.direct_puts_per_call",
            p.per_call(c.pairwise_direct_puts),
        ),
        (
            "pairwise.credit_stalls_per_call",
            p.per_call(c.credit_stalls),
        ),
        (
            "tune.table_hit_ratio",
            ratio(
                p.total.tune_table_hits,
                p.total.tune_table_hits + p.total.tune_table_misses,
            ),
        ),
        ("world.comm_creates", p.total.comm_creates as f64),
        ("model.residual_pct", 100.0 * geomean(&residuals)),
        ("msg.matches_per_call", x.ibm.per_call(msg.matches)),
        (
            "msg.early_arrivals_per_call",
            x.ibm.per_call(msg.early_arrivals),
        ),
        (
            "msg.eager_share",
            ratio(msg.eager_sends, msg.eager_sends + msg.rndv_sends),
        ),
        ("msg.host_s", x.ibm.wall_s + x.mpich.wall_s),
        (
            "mpi-coll.virt_us_per_call.ibm",
            geomean(&x.rows.iter().map(|r| r.ibm_virt_us).collect::<Vec<_>>()),
        ),
        (
            "mpi-coll.virt_us_per_call.mpich",
            geomean(
                &x.rows
                    .iter()
                    .filter_map(|r| r.mpich_virt_us)
                    .collect::<Vec<_>>(),
            ),
        ),
        ("mpi-coll.speedup_vs_mpich", x.speedup_vs_mpich),
        (
            "trace.events_per_call",
            events as f64 / (t.calls().max(1)) as f64,
        ),
        (
            "trace.host_overhead_pct",
            100.0 * (t.host_us() / p.host_us() - 1.0),
        ),
        ("trace.virt_identical", f64::from(u8::from(virt_identical))),
    ];
    for (k, name) in CLASSES.iter().enumerate() {
        out.push((layer_name("engine.virt_share.", name), share[k]));
        out.push((layer_name("engine.virt_share_root.", name), share_root[k]));
    }
    out.extend(x.micro.iter().copied());

    // Emit in the vocabulary's order; a name missing on either side is
    // a bug in this file.
    PER_LAYER
        .iter()
        .map(|(name, _, _, _)| {
            let v = out
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("per-layer metric {name} was not computed"));
            (*name, v.1)
        })
        .collect()
}

/// The `PER_LAYER` name `prefix + class` (names are static there).
fn layer_name(prefix: &str, class: &str) -> &'static str {
    PER_LAYER
        .iter()
        .map(|(n, _, _, _)| *n)
        .find(|n| n.strip_prefix(prefix) == Some(class))
        .expect("every step class has a per-layer metric")
}
