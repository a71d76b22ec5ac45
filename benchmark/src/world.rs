//! One world: construct, spawn, warm up, time, check, shut down.
//!
//! A *shape* runs in a world of its own. Every rank runs the same
//! program:
//!
//! 1. fill the warm-up inputs, make the warm-up call (which compiles
//!    the plan), compare with the sequential reference, then the
//!    implementation's own barrier;
//! 2. gate 1 — a zero-cost rendezvous on a [`SimVar`]: every rank
//!    resumes at the arrival time of the last one, so the timed region
//!    starts at one virtual instant, at a point where every rank is
//!    idle. The last arriver takes the start mark (host clock, virtual
//!    clock, counters, CPU ticks);
//! 3. `batches x per_batch` timed calls; every rank stamps the host
//!    clock after each batch and the latest stamp is the batch's end —
//!    a rooted operation's root lags its leaves by several calls, so
//!    one rank's own stamps are bursty where the world's progress is
//!    not;
//! 4. gate 2 — the last arriver takes the end mark: its arrival *is*
//!    the last rank's finish;
//! 5. fill the check inputs, make the check call, compare;
//! 6. shut down.
//!
//! Virtual time per call is `(gate 2 - gate 1) / calls`, the harness's
//! "last rank's start to last rank's finish". Everything outside the
//! two gates is set-up.

use crate::oracle::{alltoallv_counts, Expect, Inputs};
use crate::spec::{Op, Shape};
use collops::{Collectives, DType, NonblockingCollectives, ReduceOp};
use mpi_coll::MpiColl;
use msg::{MsgWorld, Vendor};
use shmem::ShmBuffer;
use simnet::{
    Ctx, MachineConfig, MetricsSnapshot, Perturb, Sim, SimTime, SimVar, Topology, Trace, TraceEvent,
};
use srm::{SrmComm, SrmTuning, SrmWorld, TuneEntry, TuneKey, TuneOp, TuneTable};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Which implementation runs the program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Impl {
    Srm,
    IbmMpi,
    Mpich,
}

/// A fault planted by the negative self-test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    None,
    /// Flip one byte of rank 0's check-call output before comparing.
    CorruptByte,
    /// Panic on rank 1 midway through the timed region.
    Abort,
}

/// Everything that selects one world.
#[derive(Clone, Copy, Debug)]
pub struct WorldCfg {
    pub shape: Shape,
    pub imp: Impl,
    pub seed: u64,
    pub perturbed: bool,
    /// Communicator rank of the root for the rooted ops.
    pub root: usize,
    pub traced: bool,
    pub fault: Fault,
}

/// Host, virtual and counter state at one gate.
#[derive(Clone, Copy, Debug)]
struct Mark {
    host: Instant,
    virt: SimTime,
    counters: MetricsSnapshot,
    cpu: (u64, u64),
}

/// Per-call stamps one rank records in a traced run.
#[derive(Clone, Copy, Debug)]
pub struct CallStamp {
    /// 0 = warm-up, 1..=calls = timed, calls + 1 = check.
    pub call: usize,
    pub start: SimTime,
    pub end: SimTime,
    /// Host nanoseconds since the world began.
    pub host_ns: u64,
}

/// What a traced world hands to the span builder.
pub struct TraceData {
    pub events: Vec<TraceEvent>,
    /// `lp_of_rank[r]` — from `Sim::spawn`'s return value (the RMA
    /// dispatchers take LP ids too).
    pub lp_of_rank: Vec<usize>,
    /// Per rank, per call.
    pub stamps: Vec<Vec<CallStamp>>,
    /// Per rank: virtual time at gate 1 arrival... see `PHASES`.
    pub phase_marks: Vec<[SimTime; 5]>,
}

/// Labels the benchmark's rank closures write into the trace.
pub const CALL_BEGIN: &str = "bench:call-begin";
pub const CALL_END: &str = "bench:call-end";

/// Phase names on the virtual timeline; `phase_marks[r][i]` is where
/// phase `i + 1` ends on rank `r` (set-up ends at virtual time zero).
pub const PHASES: [&str; 5] = ["setup", "warmup", "timed", "check", "shutdown"];

/// Result of one world.
#[derive(Default)]
pub struct WorldRun {
    /// Gate 2 minus gate 1, picoseconds.
    pub virt_ps: u64,
    pub calls: u64,
    /// Host nanoseconds per call, one sample per batch.
    pub batch_ns_per_call: Vec<f64>,
    /// Host nanoseconds between the gates.
    pub timed_ns: u64,
    /// Host nanoseconds for the whole world.
    pub world_ns: u64,
    /// Counters over the timed region.
    pub counters: MetricsSnapshot,
    /// Counters over the whole world (compiles happen in the warm-up).
    pub total: MetricsSnapshot,
    /// `(utime, stime)` ticks over the timed region.
    pub cpu: (u64, u64),
    pub attempted: u64,
    pub failed: u64,
    pub aborted: bool,
    pub trace: Option<TraceData>,
}

trait Coll: Collectives + NonblockingCollectives + Send {}
impl<T: Collectives + NonblockingCollectives + Send> Coll for T {}

/// The small tuning table the 4x4 `cold_sweep` worlds load: the X15
/// Rabenseifner switch for allreduce above 32 KB and a wider, finer
/// pairwise window; gather/scatter/allgather fall through to the base
/// tuning, so the table is both hit and missed.
pub fn small_table_text() -> String {
    let base = TuneEntry::from_tuning(&SrmTuning::default());
    let mut t = TuneTable::new(15, "benchmark small table", vec![32 * 1024]);
    let key = |op, class| TuneKey {
        op,
        class,
        nodes: 0,
        ranks: 0,
    };
    t.insert(
        key(TuneOp::Allreduce, 1),
        TuneEntry {
            allreduce_rs_min: 32 * 1024,
            ..base
        },
    );
    t.insert(
        key(TuneOp::Alltoall, 0),
        TuneEntry {
            pairwise_chunk: 4 * 1024,
            pairwise_window: 4,
            ..base
        },
    );
    t.to_text()
}

/// Zero-cost rendezvous of `n` ranks, reusable: pass `k` opens when
/// `k * n` arrivals have been counted.
struct Gate {
    arrivals: SimVar<u64>,
    n: u64,
}

impl Gate {
    /// Arrive at pass `k`; the last arriver runs `on_last` at the
    /// instant the pass opens, before any rank has resumed.
    fn pass(&self, ctx: &Ctx, k: u64, on_last: impl FnOnce()) {
        let target = k * self.n;
        if self.arrivals.update(ctx, |c| {
            *c += 1;
            *c == target
        }) {
            on_last();
        }
        self.arrivals
            .wait(ctx, "benchmark gate", move |c| *c >= target);
    }
}

/// State the ranks of one world share with the runner.
struct Shared {
    gate: Gate,
    marks: Mutex<[Option<Mark>; 2]>,
    /// Per batch: host nanoseconds since `world_start` at which the
    /// last rank finished it.
    batch_done_ns: Vec<AtomicU64>,
    /// Did any rank's comparison fail, per verified call.
    mismatch: [AtomicBool; 2],
    /// Calls rank 0 has completed (for an aborted world's accounting).
    done: AtomicU64,
    stamps: Mutex<Vec<Vec<CallStamp>>>,
    phase_marks: Mutex<Vec<[SimTime; 5]>>,
    world_start: Instant,
}

impl Shared {
    fn mark(&self, ctx: &Ctx, which: usize) {
        self.marks.lock().expect("marks poisoned")[which] = Some(Mark {
            host: Instant::now(),
            virt: ctx.now(),
            counters: ctx.metrics_snapshot(),
            cpu: crate::proc::cpu_ticks(),
        });
    }
}

/// The two verified calls' references, per communicator.
struct Refs {
    /// `[warm-up, check]`; for the solver each holds
    /// `[sub allreduce, sub bcast, world allreduce]` per parity group.
    calls: [Vec<Expect>; 2],
}

const SALT_WARMUP: u64 = 0x77a2;
const SALT_CHECK: u64 = 0xc4ec;
/// Payload of the solver's sub-communicator broadcast and of its
/// world-wide stopping criterion.
const SOLVER_BCAST: usize = 4 * 1024;
const SOLVER_RESIDUAL: usize = 8;

fn build_refs(cfg: &WorldCfg) -> Refs {
    let s = &cfg.shape;
    let n = s.nprocs();
    let world: Vec<usize> = (0..n).collect();
    let one = |salt: u64| -> Vec<Expect> {
        let inputs = Inputs::new(cfg.seed, salt ^ s.len as u64);
        if s.op == Op::Solver {
            let mut v = Vec::new();
            for parity in 0..2 {
                let members: Vec<usize> = (0..n).filter(|r| r % 2 == parity).collect();
                v.push(Expect::new(
                    Op::Allreduce,
                    inputs,
                    s.len,
                    members.clone(),
                    0,
                    Vec::new(),
                ));
                v.push(Expect::new(
                    Op::Bcast,
                    Inputs::new(cfg.seed, salt ^ 0xbc),
                    SOLVER_BCAST,
                    members,
                    0,
                    Vec::new(),
                ));
            }
            v.push(Expect::new(
                Op::Allreduce,
                Inputs::new(cfg.seed, salt ^ 0xa8),
                SOLVER_RESIDUAL,
                world.clone(),
                0,
                Vec::new(),
            ));
            v
        } else {
            let counts = if s.op == Op::Alltoallv {
                alltoallv_counts(cfg.seed, n, s.len)
            } else {
                Vec::new()
            };
            vec![Expect::new(
                s.op,
                inputs,
                s.len,
                world.clone(),
                cfg.root,
                counts,
            )]
        }
    };
    Refs {
        calls: [one(SALT_WARMUP), one(SALT_CHECK)],
    }
}

/// One rank's handles and buffers.
struct RankProg {
    rank: usize,
    cfg: WorldCfg,
    world: Box<dyn Coll>,
    /// Parity sub-communicator (solver only).
    sub: Option<Box<dyn Coll>>,
    shutdown: Option<SrmComm>,
    refs: Arc<Refs>,
    shared: Arc<Shared>,
    buf: ShmBuffer,
    /// Solver: broadcast payload and residual word.
    coef: ShmBuffer,
    res: ShmBuffer,
}

impl RankProg {
    fn sub_rank(&self) -> usize {
        self.rank / 2
    }

    /// One call of the shape's operation.
    fn call(&self, ctx: &Ctx) {
        let s = &self.cfg.shape;
        let (w, buf, len, root) = (&self.world, &self.buf, s.len, self.cfg.root);
        match s.op {
            Op::Barrier => w.barrier(ctx),
            Op::Bcast => w.broadcast(ctx, buf, len, root),
            Op::Reduce => w.reduce(ctx, buf, len, DType::F64, ReduceOp::Sum, root),
            Op::Allreduce => w.allreduce(ctx, buf, len, DType::F64, ReduceOp::Sum),
            Op::Gather => w.gather(ctx, buf, len, root),
            Op::Scatter => w.scatter(ctx, buf, len, root),
            Op::Allgather => w.allgather(ctx, buf, len),
            Op::Alltoall => w.alltoall(ctx, buf, len),
            Op::Alltoallv => w.alltoallv(ctx, buf, len, &self.refs.calls[0][0].counts),
            Op::ReduceScatter => w.reduce_scatter(ctx, buf, len, DType::F64, ReduceOp::Sum),
            Op::Solver => self.solver_iteration(ctx),
        }
    }

    /// One iteration of the split-communicator solver: on the rank's
    /// parity sub-communicator an `iallreduce` of the vector, an
    /// `ibroadcast` of coefficients and an `ibarrier` are outstanding
    /// together while the local sweep runs in four slices with a `test`
    /// poll after each; then a blocking 8-byte allreduce over the world
    /// (the stopping criterion).
    fn solver_iteration(&self, ctx: &Ctx) {
        let sub = self
            .sub
            .as_ref()
            .expect("solver ranks hold a sub-communicator");
        let len = self.cfg.shape.len;
        let vec_req = sub.iallreduce(ctx, &self.buf, len, DType::F64, ReduceOp::Sum);
        let coef_req = sub.ibroadcast(ctx, &self.coef, SOLVER_BCAST, 0);
        let bar_req = sub.ibarrier(ctx);
        // A memory-bound sweep over the vector, read and written twice.
        let slice = SimTime::from_ps(ctx.config().reduce_cost(4 * len).as_ps() / 4);
        for _ in 0..4 {
            if self.cfg.traced {
                ctx.trace("bench:compute");
            }
            ctx.advance(slice);
            sub.test(ctx, &vec_req);
        }
        if self.cfg.traced {
            ctx.trace("bench:wait");
        }
        sub.wait_all(ctx, vec![vec_req, coef_req, bar_req]);
        self.world
            .allreduce(ctx, &self.res, SOLVER_RESIDUAL, DType::F64, ReduceOp::Sum);
    }

    /// `(reference, communicator rank, buffer)` of every buffer a
    /// verified call touches.
    fn verified_buffers(&self, which: usize) -> Vec<(&Expect, usize, &ShmBuffer)> {
        let refs = &self.refs.calls[which];
        if self.cfg.shape.op == Op::Solver {
            let g = 2 * (self.rank % 2);
            vec![
                (&refs[g], self.sub_rank(), &self.buf),
                (&refs[g + 1], self.sub_rank(), &self.coef),
                (&refs[4], self.rank, &self.res),
            ]
        } else {
            vec![(&refs[0], self.rank, &self.buf)]
        }
    }

    /// Fill inputs, call, compare with the sequential reference.
    fn verified_call(&self, ctx: &Ctx, which: usize, corrupt: bool) {
        for (expect, me, buf) in self.verified_buffers(which) {
            buf.with_mut(|d| expect.fill(me, d));
        }
        self.call(ctx);
        if corrupt {
            self.buf.with_mut(|d| d[0] ^= 0x40);
        }
        let ok = self
            .verified_buffers(which)
            .into_iter()
            .all(|(expect, me, buf)| buf.with(|d| expect.holds(me, d)));
        if !ok {
            self.shared.mismatch[which].store(true, Ordering::Relaxed);
        }
    }

    fn run(self, ctx: &Ctx) {
        let s = self.cfg.shape;
        let sh = self.shared.clone();
        let traced = self.cfg.traced;
        let mut stamps: Vec<CallStamp> = Vec::new();
        let mut marks = [SimTime::ZERO; 5];
        // A stamped call in traced runs, a bare one otherwise.
        let mut stamped = |ctx: &Ctx, call: usize, f: &dyn Fn(&Ctx)| {
            if !traced {
                return f(ctx);
            }
            // Markers in the LP's own event log delimit the call's steps
            // exactly, even when consecutive calls share an instant.
            ctx.trace(CALL_BEGIN);
            let start = ctx.now();
            f(ctx);
            let end = ctx.now();
            ctx.trace(CALL_END);
            stamps.push(CallStamp {
                call,
                start,
                end,
                host_ns: sh.world_start.elapsed().as_nanos() as u64,
            });
        };

        stamped(ctx, 0, &|ctx| self.verified_call(ctx, 0, false));
        if self.rank == 0 {
            sh.done.fetch_add(1, Ordering::Relaxed);
        }
        self.world.barrier(ctx);
        sh.gate.pass(ctx, 1, || sh.mark(ctx, 0));
        marks[1] = ctx.now();

        let mut call = 0;
        for batch in 0..s.batches {
            for _ in 0..s.per_batch {
                call += 1;
                stamped(ctx, call, &|ctx| self.call(ctx));
                if self.rank == 0 {
                    sh.done.fetch_add(1, Ordering::Relaxed);
                }
            }
            sh.batch_done_ns[batch].fetch_max(
                sh.world_start.elapsed().as_nanos() as u64,
                Ordering::Relaxed,
            );
            if self.cfg.fault == Fault::Abort && self.rank == 1 && batch == s.batches / 2 {
                panic!("benchmark self-test: planted abort");
            }
        }
        sh.gate.pass(ctx, 2, || sh.mark(ctx, 1));
        marks[2] = ctx.now();

        let corrupt = self.cfg.fault == Fault::CorruptByte && self.rank == 0;
        stamped(ctx, call + 1, &|ctx| self.verified_call(ctx, 1, corrupt));
        marks[3] = ctx.now();
        if let Some(c) = &self.shutdown {
            c.shutdown(ctx);
        }
        marks[4] = ctx.now();
        if traced {
            sh.stamps.lock().expect("stamps poisoned")[self.rank] = stamps;
            sh.phase_marks.lock().expect("marks poisoned")[self.rank] = marks;
        }
    }
}

/// Run one world to completion.
pub fn run_world(cfg: &WorldCfg) -> WorldRun {
    let world_start = Instant::now();
    let s = cfg.shape;
    let n = s.nprocs();
    let topo = Topology::new(s.nodes, s.tpn);
    let mut sim = Sim::new(MachineConfig::ibm_sp_colony());
    if cfg.perturbed {
        sim.set_perturb(Perturb::standard(cfg.seed));
    }
    let trace = cfg.traced.then(Trace::new);
    if let Some(t) = &trace {
        sim.attach_trace(t.clone());
    }

    // Per rank: world handle, optional sub-communicator, shutdown hook.
    type Handles = (Box<dyn Coll>, Option<Box<dyn Coll>>, Option<SrmComm>);
    let split = s.op == Op::Solver;
    let parity_members =
        |parity: usize| -> Vec<usize> { (0..n).filter(|r| r % 2 == parity).collect() };
    let mut handles: Vec<Handles> = Vec::with_capacity(n);
    match cfg.imp {
        Impl::Srm => {
            let tuning = SrmTuning {
                trace_steps: cfg.traced,
                ..SrmTuning::default()
            };
            let world = if s.tuned {
                let table = TuneTable::parse(&small_table_text()).expect("own table parses");
                SrmWorld::with_tuning_table(&mut sim, topo, tuning, Arc::new(table))
            } else {
                SrmWorld::new(&mut sim, topo, tuning)
            };
            let mut subs: Vec<Option<SrmComm>> = if split {
                let colors: Vec<i64> = (0..n).map(|r| (r % 2) as i64).collect();
                world.comm_split(&colors, &vec![0; n])
            } else {
                (0..n).map(|_| None).collect()
            };
            for (rank, sub) in subs.iter_mut().enumerate() {
                handles.push((
                    Box::new(world.comm(rank)),
                    sub.take().map(|c| Box::new(c) as Box<dyn Coll>),
                    Some(world.comm(rank)),
                ));
            }
        }
        Impl::IbmMpi | Impl::Mpich => {
            let vendor = if cfg.imp == Impl::IbmMpi {
                Vendor::IbmMpi
            } else {
                Vendor::Mpich
            };
            let world = MsgWorld::new(&mut sim, topo, vendor);
            for rank in 0..n {
                let sub = split.then(|| {
                    let parity = rank % 2;
                    Box::new(MpiColl::subgroup(
                        world.endpoint(rank),
                        &parity_members(parity),
                        parity as u16 + 1,
                    )) as Box<dyn Coll>
                });
                handles.push((Box::new(MpiColl::new(world.endpoint(rank))), sub, None));
            }
        }
    }

    let shared = Arc::new(Shared {
        gate: Gate {
            arrivals: sim.handle().var(0),
            n: n as u64,
        },
        marks: Mutex::new([None, None]),
        batch_done_ns: (0..s.batches).map(|_| AtomicU64::new(0)).collect(),
        mismatch: [AtomicBool::new(false), AtomicBool::new(false)],
        done: AtomicU64::new(0),
        stamps: Mutex::new(vec![Vec::new(); n]),
        phase_marks: Mutex::new(vec![[SimTime::ZERO; 5]; n]),
        world_start,
    });
    let refs = Arc::new(build_refs(cfg));

    let mut lp_of_rank = Vec::with_capacity(n);
    for (rank, (world, sub, shutdown)) in handles.into_iter().enumerate() {
        let prog = RankProg {
            rank,
            cfg: *cfg,
            world,
            sub,
            shutdown,
            refs: refs.clone(),
            shared: shared.clone(),
            buf: ShmBuffer::new(s.buf_len()),
            coef: ShmBuffer::new(if split { SOLVER_BCAST } else { 0 }),
            res: ShmBuffer::new(if split { SOLVER_RESIDUAL } else { 0 }),
        };
        lp_of_rank.push(
            sim.spawn(format!("rank{rank}"), move |ctx| prog.run(&ctx))
                .0,
        );
    }

    let outcome = sim.run();
    let world_ns = world_start.elapsed().as_nanos() as u64;

    // One collective call across all ranks counts once: warm-up, the
    // timed calls, the check call.
    let attempted = s.calls() as u64 + 2;
    let report = match outcome {
        Ok(r) => r,
        Err(e) => {
            // Deadlock or panic: every call rank 0 had not completed
            // counts as failed.
            eprintln!("benchmark: world {} aborted: {e}", s.name);
            let done = shared.done.load(Ordering::Relaxed).min(attempted - 1);
            return WorldRun {
                world_ns,
                attempted,
                failed: attempted - done,
                aborted: true,
                ..WorldRun::default()
            };
        }
    };
    let [Some(m1), Some(m2)] = *shared.marks.lock().expect("marks poisoned") else {
        unreachable!("a completed run passed both gates");
    };

    let mut prev = m1.host.duration_since(world_start).as_nanos() as u64;
    let batch_ns_per_call = shared
        .batch_done_ns
        .iter()
        .map(|done| {
            let t = done.load(Ordering::Relaxed);
            let d = t.saturating_sub(prev) as f64 / s.per_batch as f64;
            prev = t;
            d
        })
        .collect();
    // A verified call is wrong if any rank's comparison failed.
    let failed = shared
        .mismatch
        .iter()
        .filter(|m| m.load(Ordering::Relaxed))
        .count() as u64;
    WorldRun {
        virt_ps: (m2.virt - m1.virt).as_ps(),
        calls: s.calls() as u64,
        batch_ns_per_call,
        timed_ns: m2.host.duration_since(m1.host).as_nanos() as u64,
        world_ns,
        counters: m2.counters.since(&m1.counters),
        total: report.metrics,
        cpu: (m2.cpu.0 - m1.cpu.0, m2.cpu.1 - m1.cpu.1),
        attempted,
        failed,
        aborted: false,
        trace: trace.map(|t| TraceData {
            events: t.events(),
            lp_of_rank,
            stamps: std::mem::take(&mut *shared.stamps.lock().expect("stamps poisoned")),
            phase_marks: std::mem::take(&mut *shared.phase_marks.lock().expect("marks poisoned")),
        }),
    }
}
