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
//! mutable per-call datum (the sampled bases, the reduce accumulator,
//! captured address handles) lives in a `CallState`, and `exec_step`
//! executes exactly one step against it. The blocking path here simply
//! folds `exec_step` over the plan; the nonblocking executor
//! ([`crate::nb`]) runs the same steps with parks in between. A
//! blocking call that arrives while nonblocking requests are
//! outstanding routes through the nonblocking queue (issue + wait) so
//! it orders correctly behind them instead of deadlocking against its
//! own predecessors.

use crate::plan::{
    BufRef, Chan, ChanKind, CopyCost, CtrRef, FlagRef, Hand, Off, Plan, PlanKey, SeqBase, Side,
    Step, Until, Val, WaitCell, SEQ_BASES,
};
use crate::world::{Channel, HandleSlot, SrmComm};
use collops::{combine_from_buffer_costed, DType, ReduceOp};
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

/// The full use-sequence number a `Side` resolves to — the buffer pair
/// protocol counts *uses*, not parities, so writer handoffs between
/// uses of the same side stay ordered (see [`shmem::BufPair`]).
pub(crate) fn seq_of(bases: &[u64; SEQ_BASES], s: Side) -> u64 {
    bases[SeqBase::Pair.index()] + s.rel
}

pub(crate) fn off_of(bases: &[u64; SEQ_BASES], o: Off) -> usize {
    match o {
        Off::Lit(x) => x,
        Off::Parity { base, rel, stride } => ((bases[base.index()] + rel) % 2) as usize * stride,
    }
}

pub(crate) fn flag_of(comm: &SrmComm, f: FlagRef) -> &SpinFlag {
    let board = comm.board();
    match f {
        FlagRef::Barrier { slot } => board.barrier_flags.flag(slot),
        FlagRef::Ready(Hand::Slot(slot)) => &board.contrib_ready[slot],
        FlagRef::Done(Hand::Slot(slot)) => &board.contrib_done[slot],
        FlagRef::Ready(Hand::Xfer) => &board.xfer_ready,
        FlagRef::Done(Hand::Xfer) => &board.xfer_done,
    }
}

/// Resolve a channel operand to its stored state — the one place that
/// knows where each family keeps its channels and what its lane means.
/// Every channel lives with its receiver.
pub(crate) fn chan_of<'a>(comm: &'a SrmComm, bases: &[u64; SEQ_BASES], c: Chan) -> &'a Channel {
    let parity = |base: SeqBase| ((bases[base.index()] + c.lane as u64) % 2) as usize;
    match c.kind {
        ChanKind::Bcast => &comm.peer(c.dst, c.src).bcast[parity(SeqBase::Bcast)],
        ChanKind::Reduce => &comm.peer(c.dst, c.src).reduce[parity(SeqBase::Reduce)],
        ChanKind::Rd => &comm.exchange(c.dst, c.src).rd,
        ChanKind::Ring => comm.pairwise().ring(c.src, c.dst),
    }
}

pub(crate) fn ctr_of<'a>(
    comm: &'a SrmComm,
    bases: &[u64; SEQ_BASES],
    c: CtrRef,
) -> &'a LapiCounter {
    match c {
        CtrRef::Data(ch) => &chan_of(comm, bases, ch).data,
        CtrRef::Free(ch) => &chan_of(comm, bases, ch).free,
        CtrRef::LargeData { node } => &comm.inter(node).large_data,
        CtrRef::BarRound { node, from } => &comm.exchange(node, from).bar,
        CtrRef::PairwiseDirect { src, dst } => comm.pairwise().direct(src, dst),
    }
}

/// Resolve a shared-memory buffer operand. [`BufRef::Acc`] has no
/// backing `ShmBuffer` and is special-cased by the copy steps.
pub(crate) fn buf_of<'a>(
    comm: &'a SrmComm,
    bases: &[u64; SEQ_BASES],
    user: &'a ShmBuffer,
    taken: &'a [ShmBuffer],
    scratch: &'a Option<ShmBuffer>,
    r: BufRef,
) -> &'a ShmBuffer {
    match r {
        BufRef::User => user,
        BufRef::Acc => panic!("accumulator is not an addressable buffer"),
        BufRef::Pair { side } => comm.board().pair.buf((seq_of(bases, side) % 2) as usize),
        BufRef::Hand(Hand::Slot(slot)) => &comm.board().contrib[slot],
        BufRef::Hand(Hand::Xfer) => &comm.board().xfer,
        BufRef::Chan(ch) => &chan_of(comm, bases, ch).landing,
        BufRef::Taken { idx } => &taken[idx],
        BufRef::Scratch => scratch
            .as_ref()
            .expect("scratch not allocated (missing ScratchAlloc)"),
    }
}

/// Mutable state of one collective call mid-execution: the sequence
/// bases sampled at entry plus everything the steps accumulate (the
/// operator scratch and captured buffer handles). Extracting this from
/// the executor loop is what lets the nonblocking engine park a call at
/// a blocking step and resume it later with nothing lost.
pub(crate) struct CallState {
    /// [`SeqBase`] cells sampled once when the call entered
    /// ([`SrmComm::enter_call`]).
    pub(crate) bases: [u64; SEQ_BASES],
    /// Operator scratch ([`BufRef::Acc`]).
    pub(crate) acc: Vec<u8>,
    /// Handles captured by [`Step::AddrTake`], in take order
    /// ([`BufRef::Taken`]).
    pub(crate) taken: Vec<ShmBuffer>,
    /// Per-call scratch allocated by [`Step::ScratchAlloc`]
    /// ([`BufRef::Scratch`]); dies with the call.
    pub(crate) scratch: Option<ShmBuffer>,
    /// The step about to execute has already failed a readiness probe
    /// (see [`Watch::probe`]); cleared when a step executes.
    pub(crate) stalled: bool,
}

/// What a blocking step waits on, resolved against one call's bases:
/// the single place that knows, for every cell kind, how to probe it
/// for free, which kernel keys wake a task parked on it, and how to
/// block on it through the substrate's own wait.
pub(crate) enum Watch<'a> {
    /// Every flag reaches `value` (`==` with `eq`, else `>=`): spin
    /// flags and the use counters of a buffer pair.
    Flags {
        flags: &'a [SpinFlag],
        eq: bool,
        value: u64,
        label: &'static str,
    },
    /// A LAPI counter reaches `value`, optionally consuming it; waited
    /// inside a LAPI call. `credit` marks the pairwise window's credit
    /// waits, the ones `credit_stalls` counts.
    Counter {
        rma: &'a Rma,
        ctr: &'a LapiCounter,
        value: u64,
        consume: bool,
        credit: bool,
    },
    /// A mailbox slot fills. AM-fed slots park *inside a LAPI call*
    /// (like the counter waits): with interrupts disabled the
    /// dispatcher only delivers that AM to a polling target, so a task
    /// parked outside a call would deadlock the exchange. A slot a task
    /// on my node fills through shared memory needs no call.
    Slot {
        var: HandleSlot,
        in_call: Option<&'a Rma>,
    },
}

impl SrmComm {
    /// Resolve what `step` would block on for the call `st`. `None` for
    /// the steps that never block — including a drain guard over a
    /// still-fresh side, which executes as a no-op that is not even
    /// counted as a wait.
    pub(crate) fn watch<'a>(&'a self, st: &CallState, step: &Step) -> Option<Watch<'a>> {
        let bases = &st.bases;
        Some(match *step {
            Step::Wait {
                cell,
                until,
                consume,
                label,
            } => {
                if let (WaitCell::Pair { side }, Until::Use(what)) = (cell, until) {
                    let q = seq_of(bases, side);
                    let (flags, value) = self.board().pair.watch(q, what, self.cslot());
                    return Some(Watch::Flags {
                        flags,
                        eq: false,
                        value,
                        label,
                    });
                }
                let (eq, value) = match until {
                    Until::Eq(v) => (true, val_of(bases, v)),
                    Until::Ge(v) => (false, val_of(bases, v)),
                    Until::SideDrained { base, rel } => match bases[base.index()] + rel {
                        cum if cum < 2 => return None,
                        cum => (false, cum - 1),
                    },
                    Until::Use(_) => panic!("a pair use is a condition on a pair cell"),
                };
                match cell {
                    WaitCell::Flag(f) => Watch::Flags {
                        flags: std::slice::from_ref(flag_of(self, f)),
                        eq,
                        value,
                        label,
                    },
                    WaitCell::Ctr(c) => Watch::Counter {
                        rma: &self.rma,
                        ctr: ctr_of(self, bases, c),
                        value,
                        consume,
                        credit: consume
                            && matches!(c, CtrRef::Free(ch) if ch.kind == ChanKind::Ring),
                    },
                    WaitCell::Pair { .. } => panic!("a pair cell waits for a pair use"),
                }
            }
            Step::AddrTake { from } => Watch::Slot {
                var: self.comm.mailbox.slot(self.crank(), from),
                in_call: (self.cnode_of(from) != self.cnode()).then_some(&self.rma),
            },
            _ => return None,
        })
    }
}

impl Watch<'_> {
    /// Costless probe: would [`Watch::block`] return promptly now? The
    /// executed step still pays its modeled cost; in the turn-based
    /// kernel nothing can run between a probe and the execution.
    pub(crate) fn ready(&self) -> bool {
        match *self {
            Watch::Flags {
                flags, eq, value, ..
            } => flags.iter().all(|f| {
                let v = f.peek();
                if eq {
                    v == value
                } else {
                    v >= value
                }
            }),
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
                eq,
                value,
                label,
            } => {
                for f in flags {
                    if eq {
                        f.wait_eq(ctx, label, value);
                    } else {
                        f.wait_ge(ctx, label, value);
                    }
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
            Watch::Slot { ref var, in_call } => {
                if let Some(rma) = in_call {
                    rma.begin_call(ctx);
                }
                let taken = var.wait_take(ctx, "peer buffer address", |s| s.take());
                if let Some(rma) = in_call {
                    rma.end_call(ctx);
                }
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
        if !self
            .shared
            .pending
            .lock()
            .expect("queue poisoned")
            .is_empty()
        {
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
    /// communicator never shifts another's bases.
    pub(crate) fn enter_call(&self, plan: &Plan) -> CallState {
        CallState {
            bases: std::array::from_fn(|i| {
                self.seat.seq[i].fetch_add(plan.advances[i], Ordering::Relaxed)
            }),
            acc: Vec::new(),
            taken: Vec::new(),
            scratch: None,
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
        let acc = &mut st.acc;
        let taken = &st.taken;
        let scratch = &mut st.scratch;
        let metrics = ctx.metrics();
        if self.world.tuning.trace_steps {
            ctx.trace(step.label());
        }
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
                let so = off_of(&bases, src_off);
                let dofs = off_of(&bases, dst_off);
                let resolve = |r: BufRef| buf_of(self, &bases, buf, taken, scratch, r);
                // One pass over the bytes, charged once: as a read
                // out of shared memory or a write into it; the
                // private side of either rides along, and operator
                // output streams are free.
                match (src, dst) {
                    (BufRef::Acc, _) => {
                        resolve(dst).with_mut(|d| d[dofs..dofs + len].copy_from_slice(&acc[..len]))
                    }
                    (_, BufRef::Acc) => {
                        acc.clear();
                        resolve(src).with(|d| acc.extend_from_slice(&d[so..so + len]));
                    }
                    _ => resolve(src).copy_to(so, resolve(dst), dofs, len),
                }
                let charged = match cost {
                    CopyCost::Free => None,
                    CopyCost::Read(streams) => Some((src, streams)),
                    CopyCost::Write(streams) => Some((dst, streams)),
                };
                if let Some((side, n)) = charged.filter(|c| !matches!(c.0, BufRef::Acc)) {
                    resolve(side).charge_copy(ctx, len, n);
                }
            }
            Step::LoadAcc { off, len } => {
                acc.clear();
                buf.with(|d| acc.extend_from_slice(&d[off..off + len]));
            }
            Step::LocalReduce { src, src_off, len } => {
                metrics.engine_copy_steps.fetch_add(1, Ordering::Relaxed);
                let (dtype, op) = reduce.expect("plan reduces but the call carries no operator");
                debug_assert_eq!(acc.len(), len);
                let so = off_of(&bases, src_off);
                let src = buf_of(self, &bases, buf, taken, scratch, src);
                combine_from_buffer_costed(ctx, dtype, op, acc, src, so);
            }
            Step::FlagRaise { flag, val } => {
                // Cumulative sequence flags can be raised out of
                // order by a lagging consumer racing a catch-up
                // raise, so they use a max-store and never regress.
                // The flat-barrier flags are 0/1 toggles (the
                // release genuinely stores 0) and keep plain-store
                // semantics.
                let v = val_of(&bases, val);
                if matches!(flag, FlagRef::Barrier { .. }) {
                    flag_of(self, flag).set(ctx, v);
                } else {
                    flag_of(self, flag).raise(ctx, v);
                }
            }
            Step::Wait { .. } | Step::AddrTake { .. } => {
                let handle = self
                    .watch(st, step)
                    .and_then(|w| w.block(ctx, &mut st.stalled));
                st.taken.extend(handle);
            }
            Step::PairPublish { side } => {
                let q = seq_of(&bases, side);
                self.board().pair.publish_from(ctx, q, self.cslot());
            }
            Step::PairRelease { side } => {
                let q = seq_of(&bases, side);
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
                let so = off_of(&bases, src_off);
                let dofs = off_of(&bases, dst_off);
                let src = buf_of(self, &bases, buf, taken, scratch, src);
                let dst = buf_of(self, &bases, buf, taken, scratch, dst);
                let ctr = ctr.map(|c| ctr_of(self, &bases, c));
                self.rma.put(ctx, to, src, so, len, dst, dofs, ctr);
            }
            Step::CounterPut { to, ctr } => {
                metrics.engine_put_steps.fetch_add(1, Ordering::Relaxed);
                self.rma.put_counter(ctx, to, ctr_of(self, &bases, ctr));
            }
            Step::AddrSend { to, src } => {
                let handle = buf_of(self, &bases, buf, taken, scratch, src).clone();
                let owner = self
                    .group()
                    .comm_rank_of(to)
                    .expect("handle sent to a member");
                // The mirror of `AddrTake`'s choice: a task on my
                // node is handed the handle through shared memory.
                if self.cnode_of(owner) == self.cnode() {
                    let mailbox = &self.comm.mailbox;
                    mailbox.deposit(ctx, owner, self.crank(), handle);
                } else {
                    metrics.engine_put_steps.fetch_add(1, Ordering::Relaxed);
                    self.rma
                        .am(ctx, to, self.comm.am_addr, Vec::new(), Some(handle));
                }
            }
            Step::ScratchAlloc { len } => {
                *scratch = Some(ShmBuffer::new(len));
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
    /// not its node's master, so the `xfer` cell moves too.
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
                        let pending = || comm.shared.pending.lock().unwrap().len();
                        let buf = comm.alloc_buffer(2 * n * len);
                        let op = Some((DType::U64, ReduceOp::Sum));
                        let key = comm.key(shape.clone());
                        let what = format!("{face:?}, {shape:?}, rank {rank}");
                        // An outstanding barrier no rank can finish alone.
                        let parked = (face == Face::BlockingBehindPending).then(|| {
                            let none = ShmBuffer::new(0);
                            comm.nb_issue(&ctx, comm.key(Shape::Barrier), &none, None)
                        });
                        assert_eq!(pending(), usize::from(parked.is_some()), "{what}");

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
