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
//! # The ordering rule
//!
//! Schedules synchronize through shared substrate state — double-buffer
//! READY flags, cumulative contribution flags, barrier flags, LAPI
//! counters, address mailboxes. All of these encode *per-substrate
//! FIFO* assumptions: a binary pair flag does not say which operation
//! published it, so a reader parked in operation 1 could consume
//! operation 2's publish if the executor ran them out of order. Every
//! step is therefore tagged with the bitset of substrate **classes** it
//! touches (`step_classes`, the one place that says so), and:
//!
//! > a pending call may execute its head step only if no *older*
//! > pending call on the same communicator has remaining steps in any
//! > of the head's classes.
//!
//! Within one class this reproduces blocking execution order exactly;
//! across classes (an `ibroadcast` over the buffer pair, an `ireduce`
//! over the contribution buffers, an `ibarrier` over the barrier
//! flags) schedules interleave freely — which is where the overlap
//! comes from. Calls on disjoint communicators share no substrate (each
//! owns its boards, landing state and pairwise registry), so they never
//! block each other. The oldest call is never class-blocked, so the
//! executor can always name a wake key and a wait cannot sleep forever.
//!
//! The rule keeps no state of its own. A call's remaining classes are
//! the OR over its plan's steps from the program counter on, computed
//! once when the plan is compiled (`Plan::classes_from`) and cached
//! with it. The queue is **per rank**, one lock around the pending
//! calls and the retired ids (`RankShared`), shared by
//! all of the rank's communicator handles: a blocking call on any
//! communicator drives every outstanding schedule, so a rank spinning
//! inside one communicator cannot starve a parked schedule its peers on
//! another are waiting for. One walk (`Queue::walk`) applies the
//! rule; progress, the parked wait's re-check and its wake keys all go
//! through it.
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
use std::collections::{HashSet, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::{Arc, MutexGuard};

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
/// parked execution state and the communicator handle it was issued on.
pub(crate) struct PendingCall {
    /// Request id handed to the caller.
    id: u64,
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
}

impl PendingCall {
    fn done(&self) -> bool {
        self.pc >= self.plan.steps.len()
    }
}

/// What a visitor of [`Queue::walk`] did with the head step it was
/// handed.
enum Visit {
    /// Executed it: hand over the call's next head.
    Ran,
    /// Left it where it is: go on to the next call.
    Left,
    /// End the walk.
    Stop,
}

/// One rank's nonblocking executor state: the outstanding calls, oldest
/// first, and the ids of those that retired but were not waited yet.
#[derive(Default)]
pub(crate) struct Queue {
    pending: VecDeque<PendingCall>,
    completed: HashSet<u64>,
    next_req: u64,
}

impl Queue {
    /// Whether this rank has no outstanding nonblocking call.
    pub(crate) fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// The ordering rule's one walk: visit the calls oldest-first and
    /// hand `visit` each call whose head step is not class-blocked,
    /// again after every head it ran, until it leaves one. A call
    /// that runs out of steps retires into the completed set. Returns
    /// whether any step ran or any call retired.
    fn walk(&mut self, mut visit: impl FnMut(&mut PendingCall) -> Visit) -> bool {
        let mut moved = false;
        let mut i = 0;
        while i < self.pending.len() {
            let comm = self.pending[i].comm.comm_id();
            let older = self.pending.range(..i).filter(|o| o.comm.comm_id() == comm);
            let blocked = older.fold(0, |m, o| m | o.plan.classes_from(o.pc));
            let call = &mut self.pending[i];
            while !call.done() && step_classes(&call.plan.steps[call.pc]) & blocked == 0 {
                match visit(call) {
                    Visit::Ran => moved = true,
                    Visit::Left => break,
                    Visit::Stop => return moved,
                }
            }
            if call.done() {
                let id = self.pending.remove(i).expect("index in bounds").id;
                self.completed.insert(id);
                moved = true;
            } else {
                i += 1;
            }
        }
        moved
    }

    /// Assert that request `id` is still outstanding (`what` names the
    /// caller's operation).
    fn assert_pending(&self, id: u64, what: &str) {
        assert!(
            self.pending.iter().any(|c| c.id == id),
            "{what} on unknown or already-waited request {id}"
        );
    }
}

impl SrmComm {
    /// This rank's nonblocking queue.
    pub(crate) fn queue(&self) -> MutexGuard<'_, Queue> {
        self.shared.lock().expect("queue poisoned")
    }

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
        if self.queue().pending.len() >= cap {
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
        for c in &self.queue().pending {
            assert!(
                !c.buf.same_storage(buf) || !(writes || c.writes_user),
                "buffer aliasing between outstanding collectives: the new call \
                 shares storage with pending request {} and at least one of them \
                 writes it (read-only sharing is allowed)",
                c.id
            );
        }
        let plan = self.plan_for(ctx, key);
        let st = self.enter_call(&plan);
        ctx.metrics().nb_issued.fetch_add(1, Ordering::Relaxed);
        let id = {
            let mut q = self.queue();
            let id = q.next_req;
            q.next_req += 1;
            q.pending.push_back(PendingCall {
                id,
                comm: self.clone(),
                plan,
                buf: buf.clone(),
                writes_user: writes,
                reduce,
                st,
                pc: 0,
            });
            id
        };
        self.nb_progress(ctx);
        id
    }

    /// Execute every head step that is ready and not class-blocked,
    /// walk after walk, until a walk moves nothing.
    pub(crate) fn nb_progress(&self, ctx: &Ctx) {
        let run = |call: &mut PendingCall| {
            let step = call.plan.steps[call.pc];
            if let Some(watch) = call.comm.watch(&call.st, &step) {
                if !watch.probe(ctx, &mut call.st.stalled) {
                    return Visit::Left; // genuinely waiting: park here
                }
            }
            call.pc += 1;
            call.comm
                .exec_step(ctx, &mut call.st, &call.buf, call.reduce, &step);
            ctx.metrics().engine_steps.fetch_add(1, Ordering::Relaxed);
            Visit::Ran
        };
        while self.queue().walk(run) {}
    }

    /// Park until a head the rule lets run can move, on the wake keys
    /// of every such head, bracketed as a LAPI call so the dispatcher
    /// delivers to this task meanwhile.
    fn nb_park(&self, ctx: &Ctx) {
        let mut keys = Vec::new();
        self.queue().walk(|call| {
            let head = &call.plan.steps[call.pc];
            if let Some(watch) = call.comm.watch(&call.st, head) {
                watch.wake_keys(&mut keys);
            }
            Visit::Left
        });
        // The oldest schedule is never class-blocked, so it always
        // contributed its head's keys (or was ready, in which case
        // progress would have run it).
        debug_assert!(!keys.is_empty(), "parked executor with no wake keys");
        ctx.metrics().nb_parks.fetch_add(1, Ordering::Relaxed);
        ctx.perturb_stall_point("perturb:stall-park");
        self.rma.begin_call(ctx);
        ctx.wait_any_until(&keys, "nb: outstanding collective", || {
            let mut ready = false;
            self.queue().walk(|call| {
                let head = &call.plan.steps[call.pc];
                ready = call.comm.watch(&call.st, head).is_none_or(|w| w.ready());
                if ready {
                    Visit::Stop
                } else {
                    Visit::Left
                }
            });
            ready
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
            if self.queue().pending.len() < cap {
                return;
            }
            self.nb_park(ctx);
        }
    }

    /// Block until request `id` completes, driving every outstanding
    /// schedule meanwhile.
    pub(crate) fn nb_wait_id(&self, ctx: &Ctx, id: u64) {
        loop {
            self.nb_progress(ctx);
            {
                let mut q = self.queue();
                if q.completed.remove(&id) {
                    return;
                }
                q.assert_pending(id, "wait");
            }
            self.nb_park(ctx);
        }
    }

    /// Nonblocking completion check for request `id`: makes progress
    /// (including one dispatcher poll, so pending network deliveries
    /// land) and reports whether the schedule has retired. Does not
    /// consume the completion — `wait` still must be called.
    pub(crate) fn nb_test(&self, ctx: &Ctx, id: u64) -> bool {
        self.nb_progress(ctx);
        if !self.queue().completed.contains(&id) {
            self.rma.poll(ctx, ctx.config().lapi_counter_check);
            self.nb_progress(ctx);
        }
        let q = self.queue();
        let done = q.completed.contains(&id);
        if !done {
            q.assert_pending(id, "test");
        }
        done
    }
}
