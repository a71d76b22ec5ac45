//! The schedule executor: replays a compiled [`Plan`] against the SRM
//! substrates — the node's shared-memory board, the masters' network
//! landing state and the RMA endpoint.
//!
//! The engine is the **only** execution path for the collectives: the
//! protocol logic lives entirely in the planners
//! ([`crate::inter`]/[`crate::smp`]), and this module mechanically
//! resolves each [`Step`]'s operands against the communicator. All
//! relative values (buffer sides, cumulative flag targets, drain
//! guards) resolve against the sequence bases sampled once at entry,
//! which is what makes plans reusable across calls.
//!
//! Per call the engine counts a plan-cache hit or miss and per-step
//! categories into the simulator metrics, and — when
//! [`SrmTuning::trace_steps`](crate::SrmTuning) is set — emits one
//! trace event per step for timeline rendering.
//!
//! Execution state is factored so a call can be **suspended**: every
//! per-call datum (the sampled bases, the accumulator and scratch
//! buffers, captured address handles) lives in a `CallState`, and
//! `exec_step` executes exactly one step against it. The blocking path
//! here simply folds `exec_step` over the plan; the nonblocking executor
//! ([`crate::nb`]) runs the same steps with parks in between. A
//! blocking call that arrives while nonblocking requests are
//! outstanding routes through the nonblocking queue (issue + wait) so
//! it orders correctly behind them instead of deadlocking against its
//! own predecessors.

use crate::plan::{
    BufRef, Chan, ChanKind, CopyCost, CtrRef, FlagRef, Plan, PlanKey, SeqBase, Step, Until, Val,
    WaitCell, SEQ_BASES,
};
use crate::world::{Channel, HandleSlot, SrmComm};
use collops::{combine_buffers_costed, DType, ReduceOp};
use rma::{LapiCounter, Rma};
use shmem::{ShmBuffer, SpinFlag};
use simnet::Ctx;
use std::sync::atomic::Ordering;
use std::sync::Arc;

pub(crate) fn val_of(bases: &[u64; SEQ_BASES], v: Val) -> u64 {
    match v {
        Val::Lit(x) => x,
        Val::Seq { base, rel } => bases[base.index()] + rel,
    }
}

/// The full use number pair use `rel` resolves to — the buffer pair
/// protocol counts *uses*, not parities, so writer handoffs between
/// uses of the same buffer stay ordered (see [`shmem::BufPair`]).
pub(crate) fn pair_use(bases: &[u64; SEQ_BASES], rel: u64) -> u64 {
    bases[SeqBase::Pair.index()] + rel
}

/// Which of a double buffer's two buffers use `rel` against `base` takes.
fn parity(bases: &[u64; SEQ_BASES], base: SeqBase, rel: u64) -> usize {
    ((bases[base.index()] + rel) % 2) as usize
}

pub(crate) fn flag_of(comm: &SrmComm, f: FlagRef) -> &SpinFlag {
    let board = comm.board();
    match f {
        FlagRef::Barrier { slot } => board.barrier_flags.flag(slot),
        FlagRef::Ready(slot) => &board.contrib_ready[slot],
        FlagRef::Done(slot) => &board.contrib_done[slot],
    }
}

/// Resolve a channel operand to its stored state: its lane's parity
/// against the family's sequence cell picks the side
/// ([`SrmComm::chan`]).
pub(crate) fn chan_of<'a>(comm: &'a SrmComm, bases: &[u64; SEQ_BASES], c: Chan) -> &'a Channel {
    let base = match c.kind {
        ChanKind::Bcast => SeqBase::Bcast,
        ChanKind::Reduce | ChanKind::Ring => SeqBase::Reduce,
        ChanKind::Rd => SeqBase::Rd,
    };
    comm.chan(c, parity(bases, base, c.lane.into()))
}

pub(crate) fn ctr_of<'a>(
    comm: &'a SrmComm,
    bases: &[u64; SEQ_BASES],
    c: CtrRef,
) -> &'a LapiCounter {
    let mailbox = &comm.comm.mailbox;
    match c {
        CtrRef::Data(ch) => &chan_of(comm, bases, ch).data,
        CtrRef::Free(ch) => &chan_of(comm, bases, ch).free,
        CtrRef::Landed { rank } => &mailbox.landed[rank],
        CtrRef::BarRound { node, from } => comm.bar_round(node, from),
        CtrRef::PairwiseDirect { src, dst } => mailbox.direct(src, dst),
    }
}

/// Resolve a buffer operand of the call `st`, whose payload is `user`.
pub(crate) fn buf_of<'a>(
    comm: &'a SrmComm,
    st: &'a CallState,
    user: &'a ShmBuffer,
    r: BufRef,
) -> &'a ShmBuffer {
    let bases = &st.bases;
    match r {
        BufRef::User => user,
        BufRef::Acc => &st.acc,
        BufRef::Pair { rel } => comm.board().pair.buf(parity(bases, SeqBase::Pair, rel)),
        BufRef::Contrib { slot, rel } => {
            &comm.board().contrib[slot][parity(bases, SeqBase::Reduce, rel)]
        }
        BufRef::Chan(ch) => &chan_of(comm, bases, ch).landing,
        BufRef::Taken { idx } => &st.taken[idx],
        BufRef::Scratch => &st.scratch,
    }
}

/// State of one collective call mid-execution: the sequence bases
/// sampled at entry, the call's own buffers and the handles its steps
/// captured. Extracting this from the executor loop is what lets the
/// nonblocking engine park a call at a blocking step and resume it
/// later with nothing lost.
pub(crate) struct CallState {
    /// [`SeqBase`] cells sampled once when the call entered
    /// ([`SrmComm::enter_call`]).
    pub(crate) bases: [u64; SEQ_BASES],
    /// The accumulator ([`BufRef::Acc`], [`Plan::acc`] bytes).
    pub(crate) acc: ShmBuffer,
    /// The scratch ([`BufRef::Scratch`], [`Plan::scratch`] bytes).
    pub(crate) scratch: ShmBuffer,
    /// Handles taken by [`WaitCell::Slot`] waits, in take order
    /// ([`BufRef::Taken`]).
    pub(crate) taken: Vec<ShmBuffer>,
    /// The step about to execute has already failed a readiness probe
    /// (see [`Watch::probe`]); cleared when a step executes.
    pub(crate) stalled: bool,
}

/// What a blocking step waits on, resolved against one call's bases:
/// the single place that knows, for every cell kind, how to probe it
/// for free, which kernel keys wake a task parked on it, and how to
/// block on it through the substrate's own wait.
pub(crate) enum Watch<'a> {
    /// Every flag reaches `value`: spin flags and the use counters of a
    /// buffer pair.
    Flags {
        flags: &'a [SpinFlag],
        value: u64,
        label: &'static str,
    },
    /// A LAPI counter reaches `value`, optionally consuming it; waited
    /// inside a LAPI call. `credit` marks the staged reduce_scatter's
    /// credit waits, the ones `credit_stalls` counts.
    Counter {
        rma: &'a Rma,
        ctr: &'a LapiCounter,
        value: u64,
        consume: bool,
        credit: bool,
    },
    /// A mailbox slot fills. Every slot is fed by the address AM, so
    /// the wait parks *inside a LAPI call* (like the counter waits):
    /// with interrupts disabled the dispatcher only delivers that AM to
    /// a polling target, so a task parked outside a call would deadlock
    /// the exchange.
    Slot {
        var: HandleSlot,
        rma: &'a Rma,
        label: &'static str,
    },
}

impl SrmComm {
    /// Resolve what `step` would block on for the call `st`. `None` for
    /// the steps that never block — including a drain guard over a
    /// still-fresh side, which executes as a no-op that is not even
    /// counted as a wait.
    pub(crate) fn watch<'a>(&'a self, st: &CallState, step: &Step) -> Option<Watch<'a>> {
        let bases = &st.bases;
        let Step::Wait {
            cell,
            until,
            consume,
            label,
        } = *step
        else {
            return None;
        };
        Some(match cell {
            WaitCell::Pair { rel } => {
                let Until::Use(what) = until else {
                    panic!("a pair cell waits for a pair use");
                };
                let q = pair_use(bases, rel);
                let (flags, value) = self.board().pair.watch(q, what, self.cslot());
                Watch::Flags {
                    flags,
                    value,
                    label,
                }
            }
            WaitCell::Flag(f) => Watch::Flags {
                flags: std::slice::from_ref(flag_of(self, f)),
                value: threshold(bases, until)?,
                label,
            },
            WaitCell::Ctr(c) => Watch::Counter {
                rma: &self.rma,
                ctr: ctr_of(self, bases, c),
                value: threshold(bases, until)?,
                consume,
                credit: consume && matches!(c, CtrRef::Free(ch) if ch.kind == ChanKind::Ring),
            },
            WaitCell::Slot { from } => {
                let take = consume && matches!(until, Until::Ge(Val::Lit(1)));
                assert!(take, "a slot wait takes the one handle left there");
                Watch::Slot {
                    var: self.comm.mailbox.slot(self.crank(), from),
                    rma: &self.rma,
                    label,
                }
            }
        })
    }
}

/// The value a flag or counter wait waits for its cell to reach; `None`
/// for a drain guard over a still-fresh side.
fn threshold(bases: &[u64; SEQ_BASES], until: Until) -> Option<u64> {
    match until {
        Until::Ge(v) => Some(val_of(bases, v)),
        Until::SideDrained { base, rel } => match bases[base.index()] + rel {
            cum if cum < 2 => None,
            cum => Some(cum - 1),
        },
        Until::Use(_) => panic!("a pair use is a condition on a pair cell"),
    }
}

impl Watch<'_> {
    /// Costless probe: would [`Watch::block`] return promptly now? The
    /// executed step still pays its modeled cost; in the turn-based
    /// kernel nothing can run between a probe and the execution.
    pub(crate) fn ready(&self) -> bool {
        match *self {
            Watch::Flags { flags, value, .. } => flags.iter().all(|f| f.peek() >= value),
            Watch::Counter { ctr, value, .. } => ctr.peek() >= value,
            Watch::Slot { ref var, .. } => var.with(|s| s.is_some()),
        }
    }

    /// [`Watch::ready`], remembering in `stalled` that the wait about
    /// to execute was once found not ready. The first such finding of a
    /// credit wait is one `credit_stalls` — however the executor then
    /// waits it out (blocking in place, or parked and re-probed).
    pub(crate) fn probe(&self, ctx: &Ctx, stalled: &mut bool) -> bool {
        let ready = self.ready();
        if !ready && !*stalled {
            *stalled = true;
            if matches!(self, Watch::Counter { credit: true, .. }) {
                ctx.metrics().credit_stalls.fetch_add(1, Ordering::Relaxed);
            }
        }
        ready
    }

    /// Kernel wake keys of the variables whose writes could make the
    /// watch ready — what a parked executor sleeps on.
    pub(crate) fn wake_keys(&self, out: &mut Vec<u64>) {
        match *self {
            Watch::Flags { flags, .. } => out.extend(flags.iter().map(SpinFlag::wait_key)),
            Watch::Counter { ctr, .. } => out.push(ctr.wait_key()),
            Watch::Slot { ref var, .. } => out.push(var.wait_key()),
        }
    }

    /// Block until ready through the substrate's own wait (which
    /// charges the modeled cost), returning the handle an address slot
    /// gave up.
    pub(crate) fn block(&self, ctx: &Ctx, stalled: &mut bool) -> Option<ShmBuffer> {
        ctx.metrics()
            .engine_wait_steps
            .fetch_add(1, Ordering::Relaxed);
        self.probe(ctx, stalled);
        match *self {
            Watch::Flags {
                flags,
                value,
                label,
            } => {
                for f in flags {
                    f.wait_ge(ctx, label, value);
                }
                None
            }
            Watch::Counter {
                rma,
                ctr,
                value,
                consume,
                ..
            } => {
                if consume {
                    rma.wait_counter(ctx, ctr, value);
                } else {
                    rma.wait_counter_ge(ctx, ctr, value);
                }
                None
            }
            Watch::Slot {
                ref var,
                rma,
                label,
            } => {
                rma.begin_call(ctx);
                let taken = var.wait_take(ctx, label, |s| s.take());
                rma.end_call(ctx);
                Some(taken)
            }
        }
    }
}

impl SrmComm {
    /// Fetch the cached plan for `key`, compiling it on a miss.
    /// Bumps the `plan_hits`/`plan_misses` metrics accordingly. Keys
    /// are normalized first ([`PlanKey::normalized`]) so call shapes
    /// that compile identically share one cache slot.
    pub fn plan_for(&self, ctx: &Ctx, key: PlanKey) -> Arc<Plan> {
        let key = key.normalized(self.csize());
        let comm_id = key.comm;
        if let Some(plan) = self
            .seat
            .plan_cache
            .lock()
            .expect("plan cache poisoned")
            .get(&key)
        {
            ctx.metrics().plan_hits.fetch_add(1, Ordering::Relaxed);
            ctx.by_comm().record(comm_id, |r| r.plan_hits += 1);
            return plan;
        }
        ctx.metrics().plan_misses.fetch_add(1, Ordering::Relaxed);
        ctx.by_comm().record(comm_id, |r| r.plan_misses += 1);
        // Compile-time tuning-table consultation accounting: only on
        // the miss path (a cached plan was compiled under the same
        // effective tuning — the lookup is a pure function of the key).
        match self.tune_consult(&key.shape).1 {
            Some(true) => {
                ctx.metrics()
                    .tune_table_hits
                    .fetch_add(1, Ordering::Relaxed);
                ctx.by_comm().record(comm_id, |r| r.tune_hits += 1);
                ctx.trace("tuned:table");
            }
            Some(false) => {
                ctx.metrics()
                    .tune_table_misses
                    .fetch_add(1, Ordering::Relaxed);
                ctx.by_comm().record(comm_id, |r| r.tune_misses += 1);
                ctx.trace("tuned:default");
            }
            None => {}
        }
        let plan = Arc::new(self.build_plan(&key));
        self.seat
            .plan_cache
            .lock()
            .expect("plan cache poisoned")
            .insert(key, plan.clone());
        plan
    }

    /// Plan (or fetch) and execute the collective described by `key`.
    ///
    /// When this rank has outstanding nonblocking collectives, the call
    /// is routed through the pending queue (issue + wait) instead of
    /// executing directly: a blocking call's steps may depend on flags
    /// that only this rank's own parked schedules will raise, so
    /// executing it to completion in line would self-deadlock.
    pub(crate) fn run_planned(
        &self,
        ctx: &Ctx,
        key: PlanKey,
        buf: &ShmBuffer,
        reduce: Option<(DType, ReduceOp)>,
    ) {
        if !self.queue().is_empty() {
            let id = self.nb_issue(ctx, key, buf, reduce);
            self.nb_wait_id(ctx, id);
            return;
        }
        ctx.perturb_straggler(self.rank());
        let plan = self.plan_for(ctx, key);
        self.execute_plan(ctx, &plan, buf, reduce);
    }

    /// Replay `plan` step by step against this communicator, blocking
    /// in place at every waiting step. `buf` is the call's user
    /// payload; `reduce` late-binds the operator for plans containing
    /// [`Step::LocalReduce`].
    pub fn execute_plan(
        &self,
        ctx: &Ctx,
        plan: &Plan,
        buf: &ShmBuffer,
        reduce: Option<(DType, ReduceOp)>,
    ) {
        let mut st = self.enter_call(plan);
        ctx.metrics()
            .engine_steps
            .fetch_add(plan.steps.len() as u64, Ordering::Relaxed);
        for step in &plan.steps {
            self.exec_step(ctx, &mut st, buf, reduce, step);
        }
    }

    /// Call entry, the same for a call that runs to completion now and
    /// one that is parked on the pending queue: sample the live
    /// sequence cells — the bases this call resolves its relative
    /// values against — then relocate them by [`Plan::advances`], so
    /// the next call to enter samples bases as if this one had already
    /// completed. The cells are per (rank, communicator): a call on one
    /// communicator never shifts another's bases. The call's
    /// accumulator and scratch are created here, at the plan's sizes.
    pub(crate) fn enter_call(&self, plan: &Plan) -> CallState {
        CallState {
            bases: std::array::from_fn(|i| {
                self.seat.seq[i].fetch_add(plan.advances[i], Ordering::Relaxed)
            }),
            acc: ShmBuffer::new(plan.acc),
            scratch: ShmBuffer::new(plan.scratch),
            taken: Vec::new(),
            stalled: false,
        }
    }

    /// Execute one step of a call. Blocking steps block in place; the
    /// nonblocking executor only calls this after [`Watch::probe`]
    /// succeeded, in which case they return promptly.
    pub(crate) fn exec_step(
        &self,
        ctx: &Ctx,
        st: &mut CallState,
        buf: &ShmBuffer,
        reduce: Option<(DType, ReduceOp)>,
        step: &Step,
    ) {
        let bases = st.bases;
        let metrics = ctx.metrics();
        if self.world.tuning.trace_steps {
            ctx.trace(step.label());
        }
        let resolve = |r: BufRef| buf_of(self, st, buf, r);
        match *step {
            Step::SetInterrupts(on) => self.rma.set_interrupts(ctx, on),
            Step::ShmCopy {
                src,
                src_off,
                dst,
                dst_off,
                len,
                cost,
            } => {
                metrics.engine_copy_steps.fetch_add(1, Ordering::Relaxed);
                // One pass over the bytes, charged once: as a read
                // out of shared memory or a write into it; the
                // private side of either rides along, and operator
                // streams are free.
                let (src, dst) = (resolve(src), resolve(dst));
                src.copy_to(src_off, dst, dst_off, len);
                match cost {
                    CopyCost::Free => {}
                    CopyCost::Read(streams) => src.charge_copy(ctx, len, streams),
                    CopyCost::Write(streams) => dst.charge_copy(ctx, len, streams),
                }
            }
            Step::LocalReduce { src, src_off, len } => {
                metrics.engine_copy_steps.fetch_add(1, Ordering::Relaxed);
                let (dtype, op) = reduce.expect("plan reduces but the call carries no operator");
                combine_buffers_costed(ctx, dtype, op, &st.acc, resolve(src), src_off, len);
            }
            Step::FlagRaise { flag, val } => {
                // Cumulative flags can be raised out of order by a
                // lagging consumer racing a catch-up raise, so a raise
                // is a max-store and never regresses.
                flag_of(self, flag).raise(ctx, val_of(&bases, val));
            }
            Step::Wait { .. } => {
                let handle = self
                    .watch(st, step)
                    .and_then(|w| w.block(ctx, &mut st.stalled));
                st.taken.extend(handle);
            }
            Step::PairPublish { rel } => {
                let q = pair_use(&bases, rel);
                self.board().pair.publish_from(ctx, q, self.cslot());
            }
            Step::PairRelease { rel } => {
                let q = pair_use(&bases, rel);
                self.board().pair.release(ctx, q, self.cslot());
            }
            Step::RmaPut {
                to,
                src,
                src_off,
                dst,
                dst_off,
                len,
                ctr,
            } => {
                metrics.engine_put_steps.fetch_add(1, Ordering::Relaxed);
                if matches!(dst, BufRef::Chan(ch) if ch.kind == ChanKind::Ring) {
                    metrics.pairwise_puts.fetch_add(1, Ordering::Relaxed);
                }
                if matches!(ctr, Some(CtrRef::PairwiseDirect { .. })) {
                    metrics.pairwise_direct_puts.fetch_add(1, Ordering::Relaxed);
                }
                let ctr = ctr.map(|c| ctr_of(self, &bases, c));
                let (src, dst) = (resolve(src), resolve(dst));
                self.rma.put(ctx, to, src, src_off, len, dst, dst_off, ctr);
            }
            Step::CounterPut { to, ctr } => {
                metrics.engine_put_steps.fetch_add(1, Ordering::Relaxed);
                self.rma.put_counter(ctx, to, ctr_of(self, &bases, ctr));
            }
            Step::AddrSend { to, src } => {
                metrics.engine_put_steps.fetch_add(1, Ordering::Relaxed);
                let handle = resolve(src).clone();
                self.rma
                    .am(ctx, to, self.comm.am_addr, Vec::new(), Some(handle));
            }
        }
        st.stalled = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuning::SrmTuning;
    use crate::world::SrmWorld;
    use collops::Shape;
    use simnet::{MachineConfig, Sim, Topology};

    /// The ten shapes on 2×3, rooted where they have a root at rank 1 —
    /// not its node's master.
    fn shapes(n: usize, len: usize) -> Vec<Shape> {
        use Shape as S;
        let (root, counts) = (1, vec![len; n * n].into());
        vec![
            S::Bcast { len, root },
            S::Reduce { len, root },
            S::Allreduce { len },
            S::Barrier,
            S::Gather { len, root },
            S::Scatter { len, root },
            S::Allgather { len },
            S::Alltoall { len },
            S::Alltoallv { seg: len, counts },
            S::ReduceScatter { len },
        ]
    }

    /// Each plan sizes the call's own buffers: the accumulator to the
    /// most a step loads into it, the scratch to a direct-route
    /// reduce_scatter master's landing.
    #[test]
    fn plans_size_the_calls_accumulator_and_scratch() {
        let topo = Topology::new(2, 3);
        let t = SrmTuning::default();
        let (n, chunk) = (topo.nprocs(), SrmTuning::REDUCE_CHUNK);
        let mut sim = Sim::new(MachineConfig::ibm_sp_colony());
        let world = SrmWorld::new(&mut sim, topo, t);
        for comm in (0..n).map(|rank| world.comm(rank)) {
            let plan = |shape: Shape| comm.build_plan(&comm.key(shape));
            let what = format!("rank {}", comm.rank());
            for shape in shapes(n, 3 * chunk) {
                let p = plan(shape.clone());
                assert_eq!(p.scratch, 0, "{what}, {shape:?}");
                let acc = match shape {
                    Shape::Reduce { .. } => chunk,
                    Shape::Allreduce { .. } | Shape::ReduceScatter { .. } => p.acc,
                    _ => 0,
                };
                assert_eq!(p.acc, acc, "{what}, {shape:?}");
            }
            assert_eq!(plan(Shape::Allreduce { len: 8 }).acc, 8, "{what}");
            let direct = plan(Shape::ReduceScatter {
                len: t.pairwise_direct_min,
            });
            assert_eq!(direct.scratch > 0, comm.c_is_master(), "{what}");
        }
    }

    /// How a call enters: blocking, nonblocking, or blocking behind a
    /// non-empty pending queue (which routes it through issue + wait).
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Face {
        Blocking,
        Nonblocking,
        BlockingBehindPending,
    }

    /// One call of every shape moves the live sequence cells from
    /// `entry` to `entry + plan.advances` — at entry, and exactly once —
    /// whichever [`Face`] it enters through.
    #[test]
    fn every_face_relocates_the_cells_by_the_plan_totals_once() {
        let topo = Topology::new(2, 3);
        let (n, len) = (topo.nprocs(), 4096);
        use Face::*;
        for face in [Blocking, Nonblocking, BlockingBehindPending] {
            for shape in shapes(n, len) {
                let mut sim = Sim::new(MachineConfig::ibm_sp_colony());
                let world = SrmWorld::new(&mut sim, topo, SrmTuning::default());
                for rank in 0..n {
                    let (comm, shape) = (world.comm(rank), shape.clone());
                    sim.spawn(format!("rank{rank}"), move |ctx| {
                        let cells = || -> [u64; SEQ_BASES] {
                            std::array::from_fn(|i| comm.seat.seq[i].load(Ordering::Relaxed))
                        };
                        let pending = || !comm.queue().is_empty();
                        let buf = comm.alloc_buffer(2 * n * len);
                        let op = Some((DType::U64, ReduceOp::Sum));
                        let key = comm.key(shape.clone());
                        let what = format!("{face:?}, {shape:?}, rank {rank}");
                        // An outstanding barrier no rank can finish alone.
                        let parked = (face == Face::BlockingBehindPending).then(|| {
                            let none = ShmBuffer::new(0);
                            comm.nb_issue(&ctx, comm.key(Shape::Barrier), &none, None)
                        });
                        assert_eq!(pending(), parked.is_some(), "{what}");

                        let entry = cells();
                        let advances = comm.plan_for(&ctx, key.clone()).advances;
                        let moved: [u64; SEQ_BASES] =
                            std::array::from_fn(|i| entry[i] + advances[i]);
                        assert_ne!(moved, entry, "{what}: the shape moves no cell");
                        if face == Face::Nonblocking {
                            let id = comm.nb_issue(&ctx, key, &buf, op);
                            assert_eq!(cells(), moved, "{what}: at issue");
                            comm.nb_wait_id(&ctx, id);
                        } else {
                            comm.run_planned(&ctx, key, &buf, op);
                        }
                        assert_eq!(cells(), moved, "{what}: after the call");
                        if let Some(id) = parked {
                            comm.nb_wait_id(&ctx, id);
                            assert_eq!(cells(), moved, "{what}: after the parked call");
                        }
                        comm.shutdown(&ctx);
                    });
                }
                sim.run().expect("simulation completes");
            }
        }
    }
}
