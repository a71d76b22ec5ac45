//! The nonblocking interleaving executor: runs any number of
//! outstanding collective schedules on one rank, advancing each to its
//! next blocking step and parking it there.
//!
//! # How it works
//!
//! A nonblocking call ([`crate::SrmComm`]'s `i`-prefixed operations)
//! compiles to the **same** [`Plan`] as its blocking twin. Instead of
//! replaying it to completion, `nb_issue` appends a `PendingCall` —
//! the plan plus a parked `CallState` and a program counter — to the
//! rank's pending queue and returns a request id. Progress then happens
//! in three places:
//!
//! * **opportunistically** at issue and at every `test`/`wait`: the
//!   executor sweeps the queue oldest-first, executing every step whose
//!   readiness probe succeeds, until a full sweep executes nothing;
//! * **while waiting**: `nb_wait_id` collects the kernel wake keys of
//!   every runnable-but-stuck head step and blocks on *any* of them
//!   ([`simnet::Ctx::wait_any_until`]), bracketed by
//!   [`Rma::begin_call`](rma::Rma::begin_call)/`end_call` so the LAPI
//!   dispatcher may deliver to this task while it is parked;
//! * **never in the background**: like LAPI itself, progress is made
//!   only inside calls (§2.3 — the dispatcher runs on message arrival
//!   or inside API calls).
//!
//! Whether a head step would return promptly, and which kernel keys
//! wake a task parked on it, is answered for every cell kind by the
//! engine's one resolver (`SrmComm::watch`, in [`crate::engine`]).
//!
//! # Ordering classes
//!
//! Schedules synchronize through shared substrate state — double-buffer
//! READY flags, cumulative contribution flags, barrier flags, LAPI
//! counters, address mailboxes. All of these encode *per-substrate
//! FIFO* assumptions: a binary pair flag does not say which operation
//! published it, so a reader parked in operation 1 could consume
//! operation 2's publish if the executor ran them out of order. The
//! executor therefore tags every step with the bitset of substrate
//! **classes** it touches (`step_classes`) and enforces:
//!
//! > a pending call may execute its head step only if no *older*
//! > pending call has remaining steps in any of the head's classes.
//!
//! Within one class this reproduces blocking execution order exactly;
//! across classes (an `ibroadcast` over the buffer pair, an `ireduce`
//! over the contribution buffers, an `ibarrier` over the barrier
//! flags) schedules interleave freely — which is where the overlap
//! comes from. Since the communicator refactor the ordering rule is
//! additionally scoped **per communicator**: calls on *disjoint*
//! communicators share no substrate at all (each communicator owns its
//! boards, landing state and pairwise registry), so an older schedule
//! on communicator A never class-blocks a younger schedule on
//! communicator B — they interleave freely — while two calls on the
//! *same* communicator keep their issue order exactly as before. The
//! queue itself is **per rank** (shared by all of the rank's
//! communicator handles): a blocking call on any communicator drives
//! every outstanding schedule, so a rank spinning inside one
//! communicator cannot starve a parked schedule its peers on another
//! communicator are waiting for. The oldest call is never
//! class-blocked, so the executor can always name a wake key and the
//! wait cannot sleep forever.
//!
//! A parked call entered like any other (`SrmComm::enter_call`): its
//! [`Plan::advances`] totals moved the live sequence cells at issue, so
//! a later call (blocking or not) samples bases as if every earlier
//! call had already finished (see DESIGN.md, "Catch-up under
//! suspension").

use crate::engine::CallState;
use crate::plan::{BufRef, ChanKind, CtrRef, FlagRef, Plan, PlanKey, Step, WaitCell};
use crate::tuning::SrmTuning;
use crate::world::SrmComm;
use collops::{DType, ReduceOp};
use shmem::ShmBuffer;
use simnet::Ctx;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Substrate class: the node's buffer pair and the broadcast channels
/// whose uses it numbers, which carry the broadcast's chunks and the
/// scatter's pieces.
const CL_PAIR: u8 = 1 << 0;
/// Substrate class: the contribution channels (every intra-node
/// handoff) and the reduce landings and counters.
const CL_REDUCE: u8 = 1 << 1;
/// Substrate class: the address mailbox (handle exchange) and the
/// completion counters of the transfers it sets up. A rank's last wait
/// on its own counter retires before its next `AddrSend`, which is what
/// keeps every mailbox slot single (the address rule at
/// [`CtrRef::Landed`]).
const CL_ADDR: u8 = 1 << 2;
/// Substrate class: barrier flags and round counters.
const CL_BARRIER: u8 = 1 << 3;
/// Substrate class: the `Ring` pairs of the staged reduce_scatter (see
/// [`crate::pairwise`]). No other family touches them, so their steps
/// need not wait behind an older call's `CL_REDUCE` landings. The
/// exchanges order in `CL_ADDR` (their wire) and `CL_REDUCE` (their
/// intra-node leg).
const CL_PAIRWISE: u8 = 1 << 4;

/// Number of substrate classes (width of the per-call remaining-step
/// counters).
const NCLASSES: usize = 5;

fn flag_class(f: FlagRef) -> u8 {
    match f {
        FlagRef::Barrier { .. } => CL_BARRIER,
        FlagRef::Ready(_) | FlagRef::Done(_) => CL_REDUCE,
    }
}

/// The class a channel family's landing, data counter and credits
/// order in.
fn chan_class(kind: ChanKind) -> u8 {
    match kind {
        ChanKind::Bcast => CL_PAIR,
        ChanKind::Reduce | ChanKind::Rd => CL_REDUCE,
        ChanKind::Ring => CL_PAIRWISE,
    }
}

fn ctr_class(c: CtrRef) -> u8 {
    match c {
        CtrRef::Data(ch) | CtrRef::Free(ch) => chan_class(ch.kind),
        CtrRef::BarRound { .. } => CL_BARRIER,
        CtrRef::Landed { .. } | CtrRef::PairwiseDirect { .. } => CL_ADDR,
    }
}

fn buf_class(b: BufRef) -> u8 {
    match b {
        BufRef::User | BufRef::Acc => 0,
        BufRef::Pair { .. } => CL_PAIR,
        BufRef::Contrib { .. } => CL_REDUCE,
        BufRef::Chan(ch) => chan_class(ch.kind),
        // Scratch is per-call private, but it is published through the
        // address exchange, so its uses order with that class.
        BufRef::Taken { .. } | BufRef::Scratch => CL_ADDR,
    }
}

/// Bitset of substrate classes a step touches. Steps with class 0
/// (interrupt toggles, copies between the call's own buffers) never
/// order against other schedules.
pub(crate) fn step_classes(step: &Step) -> u8 {
    match *step {
        Step::SetInterrupts(_) => 0,
        Step::ShmCopy { src, dst, .. } => buf_class(src) | buf_class(dst),
        Step::LocalReduce { src, .. } => buf_class(src),
        Step::FlagRaise { flag, .. } => flag_class(flag),
        Step::Wait { cell, .. } => match cell {
            WaitCell::Flag(flag) => flag_class(flag),
            WaitCell::Ctr(ctr) => ctr_class(ctr),
            WaitCell::Pair { .. } => CL_PAIR,
            WaitCell::Slot { .. } => CL_ADDR,
        },
        Step::PairPublish { .. } | Step::PairRelease { .. } => CL_PAIR,
        Step::RmaPut { src, dst, ctr, .. } => {
            buf_class(src) | buf_class(dst) | ctr.map_or(0, ctr_class)
        }
        Step::CounterPut { ctr, .. } => ctr_class(ctr),
        Step::AddrSend { .. } => CL_ADDR,
    }
}

/// One outstanding nonblocking collective: its compiled plan, the
/// parked execution state, the communicator handle it was issued on,
/// and per-class counts of remaining steps (the ordering-rule
/// bookkeeping).
pub(crate) struct PendingCall {
    /// Request id handed to the caller.
    pub(crate) id: u64,
    /// Handle on the issuing communicator (a cheap clone): steps of
    /// this call resolve against *its* boards, landing state and seat,
    /// not against whichever handle happens to drive progress.
    comm: SrmComm,
    plan: Arc<Plan>,
    /// The call's user payload (a cheap handle clone; storage is
    /// shared with the caller's buffer).
    buf: ShmBuffer,
    /// Whether this schedule writes into `buf` on this rank (computed
    /// from the normalized shape at issue). Drives the aliasing guard.
    writes_user: bool,
    reduce: Option<(DType, ReduceOp)>,
    st: CallState,
    /// Index of the next step to execute.
    pc: usize,
    /// Remaining steps per substrate class — `rem_mask()` is the OR of
    /// classes with nonzero count, kept incrementally so the ordering
    /// rule costs O(1) per query.
    class_rem: [u32; NCLASSES],
}

impl PendingCall {
    /// How many steps `plan` has in each substrate class.
    fn class_counts(plan: &Plan) -> [u32; NCLASSES] {
        let mut counts = [0; NCLASSES];
        for step in &plan.steps {
            let mask = step_classes(step);
            for (c, n) in counts.iter_mut().enumerate() {
                *n += u32::from(mask >> c & 1);
            }
        }
        counts
    }

    /// Id of the communicator this call was issued on (the ordering
    /// classes are scoped by it).
    fn comm_id(&self) -> u64 {
        self.comm.comm_id()
    }

    fn done(&self) -> bool {
        self.pc >= self.plan.steps.len()
    }

    /// OR of the classes this call still has steps in.
    fn rem_mask(&self) -> u8 {
        let live = (0..NCLASSES).filter(|&c| self.class_rem[c] > 0);
        live.fold(0, |m, c| m | 1 << c)
    }

    fn retire_step_classes(&mut self, mask: u8) {
        for (c, rem) in self.class_rem.iter_mut().enumerate() {
            *rem -= u32::from(mask >> c & 1);
        }
    }
}

impl SrmComm {
    /// Compile (or fetch) the plan for `key`, relocate the sequence
    /// bases, and park the call on the pending queue. Returns the
    /// request id. When [`SrmTuning::MAX_OUTSTANDING`] schedules are
    /// already pending, blocks until *any* of them retires — not
    /// specifically the oldest, which could force a long wait while a
    /// younger schedule was one step from done.
    pub(crate) fn nb_issue(
        &self,
        ctx: &Ctx,
        key: PlanKey,
        buf: &ShmBuffer,
        reduce: Option<(DType, ReduceOp)>,
    ) -> u64 {
        ctx.perturb_straggler(self.rank());
        let cap = SrmTuning::MAX_OUTSTANDING;
        if self.shared.pending.lock().expect("queue poisoned").len() >= cap {
            self.nb_wait_below(ctx, cap);
        }
        // Aliasing guard: sharing one buffer between outstanding
        // schedules is only safe when *neither* side writes it (e.g. a
        // root sourcing two ibroadcasts from the same payload). Any
        // write-aliased overlap races the interleaving executor, so
        // reject it at issue — the exchanges' peers put straight into
        // the user buffer as soon as the address exchange lands, earlier
        // than any final copy-out. `run_planned` routes blocking calls
        // through here whenever anything is pending, so this one check
        // covers the blocking-over-nonblocking overlap too.
        let shape = key.clone().normalized(self.size()).shape;
        let writes = shape.writes(self.comm_rank());
        {
            let q = self.shared.pending.lock().expect("queue poisoned");
            for c in q.iter() {
                assert!(
                    !c.buf.same_storage(buf) || !(writes || c.writes_user),
                    "buffer aliasing between outstanding collectives: the new call \
                     shares storage with pending request {} and at least one of them \
                     writes it (read-only sharing is allowed)",
                    c.id
                );
            }
        }
        let plan = self.plan_for(ctx, key);
        let st = self.enter_call(&plan);
        let id = self.shared.next_req.fetch_add(1, Ordering::Relaxed);
        ctx.metrics().nb_issued.fetch_add(1, Ordering::Relaxed);
        let call = PendingCall {
            id,
            comm: self.clone(),
            class_rem: PendingCall::class_counts(&plan),
            plan,
            buf: buf.clone(),
            writes_user: writes,
            reduce,
            st,
            pc: 0,
        };
        let mut pending = self.shared.pending.lock().expect("queue poisoned");
        pending.push_back(call);
        drop(pending);
        self.nb_progress(ctx);
        id
    }

    /// Sweep the pending queue oldest-first, executing every head step
    /// that is ready and not class-blocked, until a full sweep makes no
    /// progress. Retired calls move to the completed set. Class
    /// blocking is scoped per communicator: only older calls on the
    /// *same* communicator contribute to a call's blocking mask.
    pub(crate) fn nb_progress(&self, ctx: &Ctx) {
        let mut older: Vec<(u64, u8)> = Vec::new();
        loop {
            let mut progressed = false;
            older.clear();
            let mut i = 0;
            loop {
                let mut q = self.shared.pending.lock().expect("queue poisoned");
                let Some(call) = q.get_mut(i) else { break };
                let blocked = Self::older_mask(&older, call.comm_id());
                // Run call i as far as it can go right now.
                while !call.done() {
                    let step = call.plan.steps[call.pc];
                    let mask = step_classes(&step);
                    if mask & blocked != 0 {
                        break; // class-blocked behind an older same-comm schedule
                    }
                    if let Some(watch) = call.comm.watch(&call.st, &step) {
                        if !watch.probe(ctx, &mut call.st.stalled) {
                            break; // genuinely waiting: park here
                        }
                    }
                    let comm = call.comm.clone();
                    let buf = call.buf.clone();
                    call.pc += 1;
                    call.retire_step_classes(mask);
                    comm.exec_step(ctx, &mut call.st, &buf, call.reduce, &step);
                    ctx.metrics().engine_steps.fetch_add(1, Ordering::Relaxed);
                    progressed = true;
                }
                if call.done() {
                    // Do not bump i: the next call shifts down.
                    let id = q.remove(i).expect("index in bounds").id;
                    let mut completed = self.shared.completed.lock().expect("set poisoned");
                    completed.insert(id);
                    progressed = true;
                } else {
                    Self::fold_older(&mut older, call.comm_id(), call.rem_mask());
                    i += 1;
                }
            }
            if !progressed {
                return;
            }
        }
    }

    /// OR of the remaining-class masks of same-communicator calls
    /// preceding each queue position, folded left to right by the
    /// caller: tracked as `(comm id, mask)` rows because a rank rarely
    /// holds more than a handful of communicators.
    fn fold_older(older: &mut Vec<(u64, u8)>, comm: u64, mask: u8) {
        match older.iter_mut().find(|(c, _)| *c == comm) {
            Some((_, m)) => *m |= mask,
            None => older.push((comm, mask)),
        }
    }

    fn older_mask(older: &[(u64, u8)], comm: u64) -> u8 {
        older
            .iter()
            .find(|(c, _)| *c == comm)
            .map_or(0, |&(_, m)| m)
    }

    /// Could any non-class-blocked head step execute right now? The
    /// re-check predicate of the parked wait.
    fn nb_any_head_ready(&self) -> bool {
        let q = self.shared.pending.lock().expect("queue poisoned");
        let mut older: Vec<(u64, u8)> = Vec::new();
        for call in q.iter() {
            if !call.done() {
                let step = &call.plan.steps[call.pc];
                if step_classes(step) & Self::older_mask(&older, call.comm_id()) == 0
                    && call.comm.watch(&call.st, step).is_none_or(|w| w.ready())
                {
                    return true;
                }
            }
            Self::fold_older(&mut older, call.comm_id(), call.rem_mask());
        }
        false
    }

    /// Wake keys of every runnable-but-stuck head step (class-blocked
    /// heads contribute nothing — an older same-communicator schedule
    /// in their class must move first, and its keys are already
    /// included).
    fn nb_collect_wait_keys(&self) -> Vec<u64> {
        let mut keys = Vec::new();
        let q = self.shared.pending.lock().expect("queue poisoned");
        let mut older: Vec<(u64, u8)> = Vec::new();
        for call in q.iter() {
            if !call.done() {
                let step = &call.plan.steps[call.pc];
                if step_classes(step) & Self::older_mask(&older, call.comm_id()) == 0 {
                    if let Some(watch) = call.comm.watch(&call.st, step) {
                        watch.wake_keys(&mut keys);
                    }
                }
            }
            Self::fold_older(&mut older, call.comm_id(), call.rem_mask());
        }
        keys
    }

    /// Park until a stuck head can move, bracketed as a LAPI call so
    /// the dispatcher delivers to this task meanwhile.
    fn nb_park(&self, ctx: &Ctx, keys: &[u64]) {
        // The oldest schedule is never class-blocked, so it always
        // contributed its head's keys (or was ready, in which case
        // progress would have run it).
        debug_assert!(!keys.is_empty(), "parked executor with no wake keys");
        ctx.metrics().nb_parks.fetch_add(1, Ordering::Relaxed);
        ctx.perturb_stall_point("perturb:stall-park");
        self.rma.begin_call(ctx);
        ctx.wait_any_until(keys, "nb: outstanding collective", || {
            self.nb_any_head_ready()
        });
        self.rma.end_call(ctx);
        ctx.perturb_stall_point("perturb:stall-unpark");
    }

    /// Block until fewer than `cap` schedules are pending (the issue
    /// throttle). Unlike waiting a specific request, this drives every
    /// schedule and returns as soon as the *first* of them retires.
    fn nb_wait_below(&self, ctx: &Ctx, cap: usize) {
        loop {
            self.nb_progress(ctx);
            if self.shared.pending.lock().expect("queue poisoned").len() < cap {
                return;
            }
            let keys = self.nb_collect_wait_keys();
            self.nb_park(ctx, &keys);
        }
    }

    /// Block until request `id` completes, driving every outstanding
    /// schedule meanwhile. Parks on the union of all stuck heads' wake
    /// keys; the LAPI dispatcher may deliver to this task while parked
    /// (the wait is bracketed as an API call).
    pub(crate) fn nb_wait_id(&self, ctx: &Ctx, id: u64) {
        loop {
            self.nb_progress(ctx);
            if self
                .shared
                .completed
                .lock()
                .expect("set poisoned")
                .remove(&id)
            {
                return;
            }
            assert!(
                self.shared
                    .pending
                    .lock()
                    .expect("queue poisoned")
                    .iter()
                    .any(|c| c.id == id),
                "wait on unknown or already-waited request {id}"
            );
            let keys = self.nb_collect_wait_keys();
            self.nb_park(ctx, &keys);
        }
    }

    /// Nonblocking completion check for request `id`: makes progress
    /// (including one dispatcher poll, so pending network deliveries
    /// land) and reports whether the schedule has retired. Does not
    /// consume the completion — `wait` still must be called.
    pub(crate) fn nb_test(&self, ctx: &Ctx, id: u64) -> bool {
        self.nb_progress(ctx);
        if !self
            .shared
            .completed
            .lock()
            .expect("set poisoned")
            .contains(&id)
        {
            self.rma.poll(ctx, ctx.config().lapi_counter_check);
            self.nb_progress(ctx);
        }
        let done = self
            .shared
            .completed
            .lock()
            .expect("set poisoned")
            .contains(&id);
        assert!(
            done || self
                .shared
                .pending
                .lock()
                .expect("queue poisoned")
                .iter()
                .any(|c| c.id == id),
            "test on unknown or already-waited request {id}"
        );
        done
    }
}
