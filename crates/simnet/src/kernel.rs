//! The deterministic virtual-time kernel.
//!
//! Every simulated MPI task is a **logical process (LP)**: a stackful
//! user-space fiber (see `fiber.rs`) running real protocol code, with a
//! private virtual clock. [`Sim::run`] runs all of a world's fibers on
//! the calling host thread; giving up the turn is one register-save
//! stack switch back to the scheduler loop, which switches into the
//! next LP. The kernel enforces two invariants that together make runs
//! bit-deterministic on any host, regardless of core count or load:
//!
//! 1. **One turn at a time.** Exactly one LP executes simulated code at
//!    any instant. All others are suspended on their own stacks.
//! 2. **Minimum time first.** The turn is always handed to the runnable
//!    LP with the smallest virtual clock (ties broken by lowest id).
//!    Consequently simulated actions execute in globally nondecreasing
//!    time order, which is what makes the causal wake-up rule of
//!    [`SimVar`](crate::simvar::SimVar) correct.
//!
//! Runnable LPs sit in a ready heap ordered by `(effective time, id)`;
//! blocked LPs sit in per-variable waiter lists, so an `advance` costs
//! one comparison against the heap's minimum (and keeps the turn when
//! the caller is still the earliest) and a `SimVar` store touches only
//! the LPs waiting on that variable.
//!
//! Virtual time only moves when an LP calls [`Ctx::advance`] (modelling
//! busy work: a memory copy, per-message CPU overhead, a reduction) or
//! resumes from a wait whose enabling write happened later than the
//! moment it blocked.

use crate::config::MachineConfig;
use crate::error::{BlockedLp, SimError};
use crate::fiber::{self, Fiber};
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::time::SimTime;
use parking_lot::{Mutex, MutexGuard};
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Identifier of a logical process, dense from 0.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LpId(pub usize);

/// The set of SimVar keys a blocked LP is waiting on. The common case
/// is a single variable (every [`SimVar`](crate::simvar::SimVar) wait);
/// `Any` backs [`Ctx::wait_any_until`], which parks an LP until *one
/// of* several variables is written — the primitive the nonblocking
/// collective executor needs to sleep on the union of all its parked
/// schedules' wake conditions.
#[derive(Debug)]
enum WaitTarget {
    /// Blocked on one variable.
    One(u64),
    /// Blocked on any of these variables.
    Any(Vec<u64>),
}

impl WaitTarget {
    fn keys(&self) -> &[u64] {
        match self {
            WaitTarget::One(k) => std::slice::from_ref(k),
            WaitTarget::Any(ks) => ks,
        }
    }
}

/// Scheduler-visible state of one LP.
#[derive(Debug)]
enum LpState {
    /// Wants the turn (either never started or preempted by a smaller clock).
    Ready,
    /// Currently holds the turn.
    Running,
    /// Suspended in a wait on one or more SimVars.
    Blocked {
        target: WaitTarget,
        label: &'static str,
        /// Set when a store to a watched variable may have made the
        /// predicate true.
        poked: bool,
        /// Virtual time of the first such store since blocking.
        poke_time: SimTime,
    },
    /// Closure returned.
    Done,
}

struct Lp {
    time: SimTime,
    state: LpState,
    name: String,
}

pub(crate) struct Sched {
    lps: Vec<Lp>,
    /// Every LP that wants the turn — `Ready`, or `Blocked` and poked —
    /// keyed by the time it would resume at; the minimum runs next.
    /// Entries leave only by being granted the turn.
    ready: BinaryHeap<Reverse<(SimTime, usize)>>,
    /// `(variable key, LP)` for every key of every `Blocked`, unpoked
    /// LP's target: the LPs a store to that variable must poke.
    waiters: BTreeSet<(u64, usize)>,
    live: usize,
    /// First fatal outcome (deadlock or LP panic); ends the run.
    outcome: Option<SimError>,
    started: bool,
}

/// Shared kernel state; one per simulation run.
pub(crate) struct Shared {
    pub(crate) sched: Mutex<Sched>,
    pub(crate) metrics: Metrics,
    pub(crate) by_comm: crate::metrics::ByComm,
    pub(crate) config: MachineConfig,
    pub(crate) next_var_key: AtomicU64,
    /// Set at most once, by [`Sim::run`] before any LP starts.
    pub(crate) trace: OnceLock<crate::trace::Trace>,
    /// Set at most once, by [`Sim::run`] before any LP starts.
    pub(crate) perturb: OnceLock<crate::perturb::PerturbState>,
    /// Set at most once, by [`Sim::set_faults`].
    faults: OnceLock<Faults>,
    /// Where the scheduler loop in [`Sim::run`] is suspended while an LP
    /// holds the turn: the context [`Ctx::yield_turn`] switches back to.
    /// Only the run's host thread reads or writes it (`Relaxed`).
    host_sp: AtomicPtr<u8>,
    /// Raised by the scheduler loop before it resumes suspended LPs only
    /// to unwind them; read by the LP coming out of the switch, on the
    /// same thread (`Relaxed`).
    aborting: AtomicBool,
}

/// Planted faults of one simulated world: switches that re-open a known
/// bug class so the schedule-exploration harness can prove it still
/// detects it. Installed with [`Sim::set_faults`] and read by the layer
/// each one breaks through [`Ctx::faults`] or [`SimHandle::faults`]; all
/// off unless installed. Test-harness machinery, never for protocol use.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Faults {
    /// The SRM planners omit the order guards of their contribution
    /// channels: the "contrib consumed in order" guards that keep a
    /// channel's DONE flag skip-free when its consumer changes between
    /// collectives (a gather root handing over to an SMP-tree interior
    /// rank, say). A channel's READY needs no guard: its one producer
    /// raises it in program order. Read when a plan is built.
    /// With `nonmonotone_raise` this re-opens the cross-collective
    /// overwrite race the harness originally found.
    pub skip_order_guards: bool,
    /// The RMA dispatcher bumps an arrival's completion counter
    /// *before* a drawn AM-handler stall and the data landing — the
    /// premature acknowledgement of a handler that signals completion
    /// before its payload is flushed. A consumer parked on the counter
    /// wakes at the pre-stall time, beats the dispatcher to the turn
    /// (minimum-time-first) and reads the destination before the bytes
    /// arrive. Fires only under a [`Perturb`](crate::perturb::Perturb)
    /// with `am_stall_permille > 0`.
    pub stall_counter_race: bool,
    /// The cumulative spin flags' raise reverts to the plain store it
    /// was before the out-of-order overwrite race was fixed: a lagging
    /// raise can move a flag backwards.
    pub nonmonotone_raise: bool,
}

/// Payload used to unwind LP fibers quietly when the run is aborted
/// (deadlock detected or another LP panicked). Never observed by users.
struct AbortSim;

impl Sched {
    /// The LP `id`, which the caller claims holds the turn. Every path
    /// that goes on to switch stacks passes through here: the holder of
    /// the turn is the LP whose fiber the scheduler loop resumed, so
    /// the check is what ties a `Ctx` to the stack it is used on.
    fn running(&mut self, id: usize) -> &mut Lp {
        let lp = &mut self.lps[id];
        assert!(
            matches!(lp.state, LpState::Running),
            "LP {} acted without holding the turn",
            lp.name
        );
        lp
    }

    /// The LP that runs next and the time it resumes at: minimum
    /// effective time, ties to the lowest id.
    fn next_ready(&self) -> Option<(SimTime, usize)> {
        let next = self.ready.peek().map(|r| r.0);
        #[cfg(test)]
        assert_eq!(next, self.next_by_scan(None), "ready heap != reference");
        next
    }

    /// `id` holds the turn and has just moved its clock: if an LP in
    /// the ready heap is now earlier, the heap key `id` queues under.
    fn gives_way(&self, id: usize) -> Option<(SimTime, usize)> {
        let key = (self.lps[id].time, id);
        let gives_way = self.next_ready().is_some_and(|next| next < key);
        #[cfg(test)]
        assert_eq!(
            !gives_way,
            self.next_by_scan(Some(id)) == Some(key),
            "advance fast path != reference"
        );
        gives_way.then_some(key)
    }

    /// The reference every scheduling decision is checked against in
    /// this crate's tests, a scan instead of a heap: of all LPs, the
    /// runnable one with the minimum effective time; ties go to the
    /// lowest id. Blocked-but-poked LPs compete at
    /// `max(block_time, poke_time)`; `contender` (the turn holder
    /// inside `advance`) competes as if already `Ready`.
    #[cfg(test)]
    fn next_by_scan(&self, contender: Option<usize>) -> Option<(SimTime, usize)> {
        let mut best: Option<(SimTime, usize)> = None;
        for (i, lp) in self.lps.iter().enumerate() {
            let eff = match lp.state {
                LpState::Ready => lp.time,
                LpState::Running if contender == Some(i) => lp.time,
                LpState::Blocked {
                    poked: true,
                    poke_time,
                    ..
                } => lp.time.max(poke_time),
                _ => continue,
            };
            match best {
                Some((t, _)) if t <= eff => {}
                _ => best = Some((eff, i)),
            }
        }
        best
    }

    /// Hand the turn to the minimum of the ready heap, committing a
    /// poked LP's tentative resume time (the wait loop overwrites or
    /// rolls it back after the predicate re-check).
    fn grant_next(&mut self) -> Option<usize> {
        let (eff, next) = self.next_ready()?;
        self.ready.pop();
        let lp = &mut self.lps[next];
        debug_assert!(eff >= lp.time);
        lp.time = eff;
        lp.state = LpState::Running;
        Some(next)
    }

    fn deadlock(&self) -> SimError {
        let blocked = self
            .lps
            .iter()
            .filter_map(|lp| match lp.state {
                LpState::Blocked { label, .. } => Some(BlockedLp {
                    name: lp.name.clone(),
                    time: lp.time,
                    waiting_on: label,
                }),
                _ => None,
            })
            .collect();
        SimError::Deadlock { blocked }
    }
}

/// Execution context handed to each LP closure.
///
/// All simulated actions (time advances, [`SimVar`](crate::SimVar)
/// operations) go through the `Ctx`; it is the capability proving the
/// caller holds the turn. It stays on the fiber it was handed to: a
/// `Ctx` is neither `Send` nor `Sync`.
pub struct Ctx {
    pub(crate) shared: Arc<Shared>,
    pub(crate) id: usize,
    /// Giving up the turn switches stacks under the caller, which is
    /// only sound on the host thread running this LP's fiber.
    _on_its_fiber: PhantomData<*mut ()>,
}

impl Ctx {
    /// This LP's id.
    pub fn lp(&self) -> LpId {
        LpId(self.id)
    }

    /// Current virtual time of this LP.
    pub fn now(&self) -> SimTime {
        self.shared.sched.lock().lps[self.id].time
    }

    /// The machine cost model for this run.
    pub fn config(&self) -> &MachineConfig {
        &self.shared.config
    }

    /// Global event counters.
    pub fn metrics(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// Snapshot of the counters (for measuring a single operation).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// Per-communicator plan-cache and tuning-table breakdown.
    pub fn by_comm(&self) -> &crate::metrics::ByComm {
        &self.shared.by_comm
    }

    /// Model `d` of busy CPU/memory time on this LP, then let any LP
    /// whose clock is now smaller run first.
    ///
    /// When a perturbation config is installed
    /// ([`Sim::set_perturb`]), each advance is an LP scheduling point:
    /// with probability `stall_permille`/1000 an extra bounded stall is
    /// folded into the same clock move.
    pub fn advance(&self, d: SimTime) {
        if d.is_zero() {
            return;
        }
        let d = d + self.perturb_stall_draw("perturb:stall");
        self.advance_by(d);
    }

    /// The raw clock move behind [`Ctx::advance`], with no perturbation
    /// hook (also used to apply an already-drawn injected delay).
    fn advance_by(&self, d: SimTime) {
        if d.is_zero() {
            return;
        }
        let mut sched = self.shared.sched.lock();
        sched.running(self.id).time += d;
        // Still the earliest: keep the turn, no switch.
        if let Some(key) = sched.gives_way(self.id) {
            sched.lps[self.id].state = LpState::Ready;
            sched.ready.push(Reverse(key));
            self.yield_turn(sched);
        }
    }

    /// Advance this LP's clock to absolute time `t` (no-op if already
    /// past it). Models waiting for a scheduled event such as a network
    /// arrival.
    pub fn advance_to(&self, t: SimTime) {
        let now = self.now();
        if t > now {
            self.advance(t - now);
        }
    }

    /// Switch to the scheduler loop in [`Sim::run`] and return when it
    /// hands the turn back, or unwind quietly if the run was aborted
    /// meanwhile. The caller has already moved this LP out of `Running`
    /// (via [`Sched::running`], which vouches that it held the turn).
    fn yield_turn(&self, sched: MutexGuard<'_, Sched>) {
        let mut aborted = sched.outcome.is_some();
        // Never across a switch: another LP (or the loop) needs the lock.
        drop(sched);
        if !aborted {
            let host = self.shared.host_sp.load(Ordering::Relaxed);
            // SAFETY: this LP held the turn, so we are on its fiber, on
            // the host thread of `Sim::run` (a `Ctx` cannot leave it),
            // and `host` is the loop's suspension from the `resume`
            // that gave us the turn — still mapped, not yet continued.
            // No guard is live.
            let host = unsafe { fiber::switch(host) };
            self.shared.host_sp.store(host, Ordering::Relaxed);
            aborted = self.shared.aborting.load(Ordering::Relaxed);
        }
        if aborted {
            std::panic::resume_unwind(Box::new(AbortSim));
        }
    }

    /// Block this LP at time `at` on SimVar `var_key` with a diagnostic
    /// `label`, hand the turn on, and return when poked and granted, the
    /// clock tentatively at the poke. The caller re-checks its predicate
    /// and either commits a resume time or blocks again at the same
    /// `at` — the time it first blocked — which rolls the clock back: a
    /// failed re-check consumed no simulated work.
    pub(crate) fn block_on(&self, var_key: u64, label: &'static str, at: SimTime) {
        self.block_on_target(WaitTarget::One(var_key), label, at);
    }

    fn block_on_target(&self, target: WaitTarget, label: &'static str, at: SimTime) {
        let mut sched = self.shared.sched.lock();
        sched.running(self.id).time = at;
        for &key in target.keys() {
            sched.waiters.insert((key, self.id));
        }
        sched.lps[self.id].state = LpState::Blocked {
            target,
            label,
            poked: false,
            poke_time: SimTime::ZERO,
        };
        self.yield_turn(sched);
    }

    /// Block until `ready()` holds, waking whenever any of the SimVars
    /// identified by `keys` (see
    /// [`SimVar::wait_key`](crate::simvar::SimVar::wait_key)) is
    /// written. The causal resume rule applies: if a wake-up's enabling
    /// write happened at a later virtual time, the LP resumes at that
    /// time; spurious wake-ups (a watched write after which `ready()` is
    /// still false) consume no virtual time.
    ///
    /// `ready` must be a pure, costless probe of simulated state (peek,
    /// not wait): it runs while the LP holds the turn and must not call
    /// back into blocking operations. `keys` must cover every variable
    /// whose write could make `ready()` true, otherwise the LP can miss
    /// its wake-up and be reported as deadlocked under `label`.
    pub fn wait_any_until(
        &self,
        keys: &[u64],
        label: &'static str,
        mut ready: impl FnMut() -> bool,
    ) {
        self.perturb_stall_point("perturb:stall-wait");
        if ready() {
            return;
        }
        debug_assert!(!keys.is_empty(), "wait_any_until with no wake keys");
        let block_time = self.now();
        loop {
            self.block_on_target(WaitTarget::Any(keys.to_vec()), label, block_time);
            if ready() {
                return;
            }
        }
    }

    /// Set this LP's clock (used by SimVar to commit a causal resume time;
    /// never moves backwards past the blocking time).
    pub(crate) fn set_time(&self, t: SimTime) {
        let mut sched = self.shared.sched.lock();
        sched.lps[self.id].time = t;
    }

    /// Wake every LP currently blocked on `var_key`, stamping the first
    /// poke with the writer's current time.
    pub(crate) fn poke_waiters(&self, var_key: u64, at: SimTime) {
        let sched = &mut *self.shared.sched.lock();
        while let Some(&(key, id)) = sched.waiters.range((var_key, 0)..).next() {
            if key != var_key {
                break;
            }
            let lp = &mut sched.lps[id];
            let LpState::Blocked {
                target,
                poked,
                poke_time,
                ..
            } = &mut lp.state
            else {
                unreachable!("only blocked LPs are in waiter lists");
            };
            // The first poke wins: off every list, onto the ready heap.
            for &k in target.keys() {
                sched.waiters.remove(&(k, id));
            }
            *poked = true;
            *poke_time = at;
            sched.ready.push(Reverse((lp.time.max(at), id)));
        }
    }

    /// Handle for creating new [`SimVar`](crate::SimVar)s mid-run.
    pub fn handle(&self) -> SimHandle {
        SimHandle {
            shared: self.shared.clone(),
        }
    }

    /// Record a labelled event in the attached [`Trace`](crate::Trace)
    /// at this LP's current time. A no-op when no trace is attached.
    pub fn trace(&self, label: &'static str) {
        if let Some(t) = self.shared.trace.get() {
            t.record(self.id, self.now(), label);
        }
    }

    fn perturb_state(&self) -> Option<&crate::perturb::PerturbState> {
        self.shared.perturb.get()
    }

    /// The planted faults of this world (none unless
    /// [`Sim::set_faults`] installed some).
    pub fn faults(&self) -> Faults {
        self.shared.faults.get().copied().unwrap_or_default()
    }

    /// Account one injected perturbation event of `added` delay: bump
    /// the `perturb_*` counters and trace it under `label` at the
    /// pre-delay time.
    fn record_perturb(&self, label: &'static str, added: SimTime) {
        let m = self.metrics();
        m.perturb_events.fetch_add(1, Ordering::Relaxed);
        m.perturb_delay_ps
            .fetch_add(added.as_ps(), Ordering::Relaxed);
        m.perturb_max_skew_ps
            .fetch_max(added.as_ps(), Ordering::Relaxed);
        self.trace(label);
    }

    /// Draw a scheduling-point stall without applying it (the caller
    /// folds it into its own clock move). ZERO when no perturbation is
    /// installed or the draw misses.
    fn perturb_stall_draw(&self, label: &'static str) -> SimTime {
        let Some(p) = self.perturb_state() else {
            return SimTime::ZERO;
        };
        match p.stall() {
            Some(d) => {
                self.record_perturb(label, d);
                d
            }
            None => SimTime::ZERO,
        }
    }

    /// Declare an LP scheduling point for the perturbation layer: with
    /// the configured probability, inject a bounded compute stall here.
    /// Higher layers call this at their own scheduling points (e.g. the
    /// nonblocking executor's park/unpark); a no-op without an
    /// installed config.
    pub fn perturb_stall_point(&self, label: &'static str) {
        let d = self.perturb_stall_draw(label);
        if !d.is_zero() {
            self.advance_by(d);
        }
    }

    /// Perturb one network delivery from `src` to `dst` scheduled at
    /// `deliver_at`: delivery jitter plus an occasional bounded
    /// hold-back, clamped so deliveries of the same ordered pair keep
    /// their order. Returns the (possibly unchanged) delivery time; the
    /// transport layer calls this where it computes arrival times.
    pub fn perturb_delivery(&self, src: usize, dst: usize, deliver_at: SimTime) -> SimTime {
        let Some(p) = self.perturb_state() else {
            return deliver_at;
        };
        let new_at = p.delivery(src, dst, deliver_at);
        if new_at > deliver_at {
            self.record_perturb("perturb:delivery", new_at - deliver_at);
        }
        new_at
    }

    /// Straggler mode: delay `rank`'s entry into a collective when it
    /// is the configured straggler. Collective layers call this at
    /// every collective entry point; a no-op otherwise.
    pub fn perturb_straggler(&self, rank: usize) {
        let Some(p) = self.perturb_state() else {
            return;
        };
        if let Some(d) = p.straggler(rank) {
            self.record_perturb("perturb:straggler", d);
            self.advance_by(d);
        }
    }

    /// Interrupt-coalescing point: with probability
    /// `coalesce_permille`/1000, delay this LP by up to `coalesce_max`
    /// (traced as `perturb:coalesce`). Dispatchers call this right
    /// after taking an interrupt; a no-op without an installed config.
    pub fn perturb_coalesce_point(&self) {
        let Some(p) = self.perturb_state() else {
            return;
        };
        if let Some(d) = p.coalesce() {
            self.record_perturb("perturb:coalesce", d);
            self.metrics()
                .perturb_dispatch_events
                .fetch_add(1, Ordering::Relaxed);
            self.advance_by(d);
        }
    }

    /// Draw a handler stall for a message dispatch point (an RMA
    /// dispatcher about to process a payload, an MPI endpoint that just
    /// matched a receive). Records the event (`perturb:am-stall`) and
    /// returns the duration — ZERO on a miss or with no config. The
    /// caller applies it with [`Ctx::perturb_am_stall_apply`], which
    /// lets fault-injection layers act *between* the draw and the
    /// stall (the window a real preempted handler opens).
    pub fn perturb_am_stall_draw(&self) -> SimTime {
        let Some(p) = self.perturb_state() else {
            return SimTime::ZERO;
        };
        match p.am_stall() {
            Some(d) => {
                self.record_perturb("perturb:am-stall", d);
                self.metrics()
                    .perturb_dispatch_events
                    .fetch_add(1, Ordering::Relaxed);
                d
            }
            None => SimTime::ZERO,
        }
    }

    /// Apply a stall drawn by [`Ctx::perturb_am_stall_draw`] and close
    /// its trace interval (`perturb:am-stall-end`). A no-op for ZERO,
    /// so `perturb_am_stall_apply(perturb_am_stall_draw())` is the
    /// plain (fault-free) dispatch-point idiom.
    pub fn perturb_am_stall_apply(&self, d: SimTime) {
        if d.is_zero() {
            return;
        }
        self.advance_by(d);
        self.trace("perturb:am-stall-end");
    }

    /// Perturb one wire time on directed link `(src, dst)`: the static
    /// per-link stretch (a pure hash of `(seed, src, dst)`) plus the
    /// transient-dip multiplier while the link is dipped. Returns the
    /// (possibly unchanged) wire time; transport layers call this where
    /// they compute serialization costs. Traced as `perturb:bw`, or
    /// `perturb:bw-dip` when a dip contributed.
    pub fn perturb_wire(&self, src: usize, dst: usize, wire: SimTime) -> SimTime {
        let Some(p) = self.perturb_state() else {
            return wire;
        };
        let ws = p.wire(src, dst, self.now(), wire);
        if ws.added.is_zero() {
            return wire;
        }
        self.record_perturb(
            if ws.dip {
                "perturb:bw-dip"
            } else {
                "perturb:bw"
            },
            ws.added,
        );
        self.metrics()
            .perturb_bw_events
            .fetch_add(1, Ordering::Relaxed);
        wire + ws.added
    }
}

/// Handle for creating [`SimVar`](crate::SimVar)s during setup (before
/// `run`) or inside LP closures.
#[derive(Clone)]
pub struct SimHandle {
    pub(crate) shared: Arc<Shared>,
}

impl SimHandle {
    pub(crate) fn alloc_var_key(&self) -> u64 {
        self.shared.next_var_key.fetch_add(1, Ordering::Relaxed)
    }

    /// The cost model this simulation runs with.
    pub fn config(&self) -> &MachineConfig {
        &self.shared.config
    }

    /// Global event counters (reachable during setup, before `run`).
    pub fn metrics(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// The planted faults of this world (see [`Ctx::faults`]).
    pub fn faults(&self) -> Faults {
        self.shared.faults.get().copied().unwrap_or_default()
    }
}

type LpMain = Box<dyn FnOnce(Ctx) + Send + 'static>;

/// Builder + runner for one simulation.
///
/// ```
/// use simnet::{Sim, MachineConfig, SimTime};
///
/// let mut sim = Sim::new(MachineConfig::ibm_sp_colony());
/// let flag = sim.handle().var(false);
/// let f2 = flag.clone();
/// sim.spawn("setter", move |ctx| {
///     ctx.advance(SimTime::from_us(5));
///     f2.store(&ctx, true);
/// });
/// sim.spawn("waiter", move |ctx| {
///     flag.wait(&ctx, "flag set", |v| *v);
///     assert_eq!(ctx.now(), SimTime::from_us(5));
/// });
/// let report = sim.run().unwrap();
/// assert_eq!(report.end_time, SimTime::from_us(5));
/// ```
pub struct Sim {
    shared: Arc<Shared>,
    mains: Vec<LpMain>,
    /// Installed into `shared` by [`Sim::run`], so LPs read them
    /// without a lock.
    trace: Option<crate::trace::Trace>,
    perturb: Option<crate::perturb::Perturb>,
}

/// Result of a completed run.
#[derive(Clone, Debug)]
pub struct Report {
    /// Largest LP clock at completion — the makespan of the simulation.
    pub end_time: SimTime,
    /// Final clock of every LP, indexed by [`LpId`].
    pub lp_times: Vec<SimTime>,
    /// Final event counters.
    pub metrics: MetricsSnapshot,
    /// Per-communicator plan-cache and tuning-table counters, in
    /// ascending comm-id order.
    pub by_comm: Vec<crate::metrics::CommRow>,
}

impl Sim {
    /// New simulation with the given machine cost model.
    pub fn new(config: MachineConfig) -> Sim {
        Sim {
            shared: Arc::new(Shared {
                sched: Mutex::new(Sched {
                    lps: Vec::new(),
                    ready: BinaryHeap::new(),
                    waiters: BTreeSet::new(),
                    live: 0,
                    outcome: None,
                    started: false,
                }),
                metrics: Metrics::default(),
                by_comm: crate::metrics::ByComm::default(),
                config,
                next_var_key: AtomicU64::new(0),
                trace: OnceLock::new(),
                perturb: OnceLock::new(),
                faults: OnceLock::new(),
                host_sp: AtomicPtr::new(std::ptr::null_mut()),
                aborting: AtomicBool::new(false),
            }),
            mains: Vec::new(),
            trace: None,
            perturb: None,
        }
    }

    /// Attach an event-trace recorder; protocol calls to [`Ctx::trace`]
    /// will append to it. Call before [`Sim::run`].
    pub fn attach_trace(&mut self, trace: crate::trace::Trace) {
        self.trace = Some(trace);
    }

    /// Install a seeded perturbation config
    /// ([`Perturb`](crate::perturb::Perturb)): delivery jitter, bounded
    /// reordering, compute stalls, straggler delays, dispatcher-side
    /// interrupt coalescing and handler stalls, and link-level
    /// bandwidth variation — all replayable from `(seed, config)`
    /// alone. Call before [`Sim::run`]. Without this call the run is
    /// exactly the unperturbed deterministic schedule.
    pub fn set_perturb(&mut self, cfg: crate::perturb::Perturb) {
        self.perturb = Some(cfg);
    }

    /// Plant `faults` in this world, once, before anything that reads
    /// them runs (plans are built, flags raised, arrivals dispatched).
    ///
    /// # Panics
    /// If faults were already planted.
    pub fn set_faults(&mut self, faults: Faults) {
        let planted = self.shared.faults.set(faults);
        planted.expect("faults are planted once per world");
    }

    /// Handle for creating shared [`SimVar`](crate::SimVar)s.
    pub fn handle(&self) -> SimHandle {
        SimHandle {
            shared: self.shared.clone(),
        }
    }

    /// Register a logical process. Order of registration defines
    /// [`LpId`]s (0, 1, ...). Must be called before [`Sim::run`].
    pub fn spawn(&mut self, name: impl Into<String>, f: impl FnOnce(Ctx) + Send + 'static) -> LpId {
        let mut sched = self.shared.sched.lock();
        assert!(!sched.started, "spawn after run()");
        let id = sched.lps.len();
        sched.lps.push(Lp {
            time: SimTime::ZERO,
            state: LpState::Ready,
            name: name.into(),
        });
        // All clocks start at zero; the lowest id wins the tie, same
        // rule the scheduler uses throughout.
        sched.ready.push(Reverse((SimTime::ZERO, id)));
        sched.live += 1;
        drop(sched);
        self.mains.push(Box::new(f));
        LpId(id)
    }

    /// Run to completion on the calling thread. Returns the report, or
    /// the first fatal outcome (deadlock with a per-LP diagnosis, or an
    /// LP panic).
    pub fn run(self) -> Result<Report, SimError> {
        let Sim {
            shared,
            mains,
            trace,
            perturb,
        } = self;
        assert!(!mains.is_empty(), "no logical processes spawned");
        shared.sched.lock().started = true;
        // `run` consumes the `Sim`, so these are the only writes.
        if let Some(t) = trace {
            let _ = shared.trace.set(t);
        }
        if let Some(cfg) = perturb {
            let _ = shared.perturb.set(crate::perturb::PerturbState::new(cfg));
        }

        // Optional hang diagnosis: SIMNET_WATCHDOG=1 dumps every LP's
        // scheduler state periodically.
        if std::env::var("SIMNET_WATCHDOG")
            .map(|v| v == "1")
            .unwrap_or(false)
        {
            let weak = Arc::downgrade(&shared);
            std::thread::spawn(move || loop {
                std::thread::sleep(std::time::Duration::from_secs(5));
                let Some(sh) = weak.upgrade() else { return };
                let sched = sh.sched.lock();
                eprintln!("--- simnet watchdog: live={} ---", sched.live);
                for lp in &sched.lps {
                    eprintln!(
                        "  {:<24} t={:<14} {:?}",
                        lp.name,
                        format!("{}", lp.time),
                        lp.state
                    );
                }
            });
        }

        // Each fiber borrows its `LpStart` through a raw pointer for as
        // long as it lives, so the vector is only touched through
        // `starts_ptr` until the fibers are gone.
        let mut starts: Vec<LpStart<'_>> = mains
            .into_iter()
            .enumerate()
            .map(|(id, main)| LpStart {
                shared: &shared,
                id,
                main: Some(main),
            })
            .collect();
        let starts_ptr = starts.as_mut_ptr();
        // A fiber (and its stack) exists from its LP's first turn on.
        let mut fibers: Vec<Option<Fiber>> = starts.iter().map(|_| None).collect();

        // The scheduler loop: hand the turn to the earliest runnable LP
        // until none is left or the run is aborted.
        loop {
            let next = {
                let mut sched = shared.sched.lock();
                if sched.outcome.is_some() {
                    break;
                }
                let Some(next) = sched.grant_next() else {
                    if sched.live > 0 {
                        sched.outcome = Some(sched.deadlock());
                    }
                    break;
                };
                next
            };
            let fiber = fibers[next].get_or_insert_with(|| {
                // SAFETY: `next < starts.len()`, so the pointer is in
                // bounds of the vector.
                Fiber::new(lp_entry, unsafe { starts_ptr.add(next) }.cast())
            });
            // SAFETY: the fiber is fresh or suspended in `yield_turn`
            // (a finished LP is `Done` and never in the ready heap
            // again), was created on this thread, and the `sched` guard
            // was dropped at the end of the block above.
            unsafe { fiber.resume() };
        }

        // Aborted (deadlock or LP panic): resume every suspended fiber
        // once so that `yield_turn` unwinds its frames — dropping what
        // they own — up to the `catch_unwind` in `lp_run`. Closures of
        // LPs that never started are dropped unrun with `starts`.
        shared.aborting.store(true, Ordering::Relaxed);
        for (id, slot) in fibers.iter_mut().enumerate() {
            let Some(fiber) = slot else { continue };
            if !matches!(shared.sched.lock().lps[id].state, LpState::Done) {
                // SAFETY: as in the loop; an unfinished fiber is
                // suspended in `yield_turn`.
                unsafe { fiber.resume() };
            }
        }

        let sched = shared.sched.lock();
        if let Some(outcome) = sched.outcome.clone() {
            return Err(outcome);
        }
        let lp_times: Vec<SimTime> = sched.lps.iter().map(|lp| lp.time).collect();
        let end_time = lp_times.iter().copied().max().unwrap_or(SimTime::ZERO);
        Ok(Report {
            end_time,
            lp_times,
            metrics: shared.metrics.snapshot(),
            by_comm: shared.by_comm.snapshot(),
        })
    }
}

/// What a fiber needs to start its LP; owned by [`Sim::run`], borrowed
/// by [`lp_entry`].
struct LpStart<'a> {
    shared: &'a Arc<Shared>,
    id: usize,
    /// Taken when the LP first gets the turn.
    main: Option<LpMain>,
}

/// Entry function of every LP fiber. Owns nothing itself: the fiber's
/// stack is unmapped, not unwound, after the final switch.
unsafe extern "C" fn lp_entry(arg: *mut u8, host: *mut u8) -> ! {
    // SAFETY: `arg` is this fiber's element of `starts` in `Sim::run`,
    // which outlives the fiber and is touched by nothing else while the
    // fiber exists.
    let start = unsafe { &mut *arg.cast::<LpStart<'_>>() };
    let shared: &Shared = start.shared;
    shared.host_sp.store(host, Ordering::Relaxed);
    lp_run(start);
    let host = shared.host_sp.load(Ordering::Relaxed);
    // SAFETY: `host` is the scheduler loop's suspension from the resume
    // that gave this LP its last turn. `lp_run` has returned, so this
    // frame holds only borrows of `Sim::run`'s locals, and no guard.
    unsafe { fiber::switch(host) };
    // A finished LP is `Done` and never resumed.
    std::process::abort()
}

/// Run the LP closure to completion and record how it ended. Every
/// owned value (closure, `Ctx`, panic payload) is dropped on return; no
/// panic escapes.
fn lp_run(start: &mut LpStart<'_>) {
    let (shared, id) = (start.shared, start.id);
    let main = start.main.take().expect("an LP starts once");
    let ctx = Ctx {
        shared: shared.clone(),
        id,
        _on_its_fiber: PhantomData,
    };
    let panic_message = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || main(ctx)))
        .err()
        // An `AbortSim` unwind means the run was already aborted;
        // nothing to record.
        .filter(|payload| !payload.is::<AbortSim>())
        .map(|payload| {
            payload
                .downcast_ref::<&'static str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "<non-string panic payload>".to_string())
        });
    let mut sched = shared.sched.lock();
    sched.lps[id].state = LpState::Done;
    sched.live -= 1;
    if let Some(message) = panic_message {
        if sched.outcome.is_none() {
            let name = sched.lps[id].name.clone();
            sched.outcome = Some(SimError::LpPanic { name, message });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;

    fn sim() -> Sim {
        Sim::new(MachineConfig::ibm_sp_colony())
    }

    #[test]
    fn single_lp_advances() {
        let mut s = sim();
        s.spawn("a", |ctx| {
            assert_eq!(ctx.now(), SimTime::ZERO);
            ctx.advance(SimTime::from_us(10));
            assert_eq!(ctx.now(), SimTime::from_us(10));
            ctx.advance(SimTime::ZERO); // no-op
            assert_eq!(ctx.now(), SimTime::from_us(10));
        });
        let r = s.run().unwrap();
        assert_eq!(r.end_time, SimTime::from_us(10));
        assert_eq!(r.lp_times, vec![SimTime::from_us(10)]);
    }

    #[test]
    fn min_time_first_is_deterministic() {
        // Two LPs interleave by clock; record the global order of actions.
        use std::sync::Mutex as StdMutex;
        let order = Arc::new(StdMutex::new(Vec::new()));
        let mut s = sim();
        let o1 = order.clone();
        s.spawn("a", move |ctx| {
            for i in 0..3 {
                ctx.advance(SimTime::from_us(10)); // a at 10, 20, 30
                o1.lock().unwrap().push(("a", i, ctx.now()));
            }
        });
        let o2 = order.clone();
        s.spawn("b", move |ctx| {
            for i in 0..2 {
                ctx.advance(SimTime::from_us(15)); // b at 15, 30
                o2.lock().unwrap().push(("b", i, ctx.now()));
            }
        });
        s.run().unwrap();
        let got = order.lock().unwrap().clone();
        // Global nondecreasing time order; tie at 30 goes to lower id (a).
        assert_eq!(
            got,
            vec![
                ("a", 0, SimTime::from_us(10)),
                ("b", 0, SimTime::from_us(15)),
                ("a", 1, SimTime::from_us(20)),
                ("a", 2, SimTime::from_us(30)),
                ("b", 1, SimTime::from_us(30)),
            ]
        );
    }

    #[test]
    fn report_collects_all_lp_times() {
        let mut s = sim();
        for i in 1..=4u64 {
            s.spawn(format!("lp{i}"), move |ctx| {
                ctx.advance(SimTime::from_us(i));
            });
        }
        let r = s.run().unwrap();
        assert_eq!(r.end_time, SimTime::from_us(4));
        assert_eq!(
            r.lp_times,
            (1..=4u64).map(SimTime::from_us).collect::<Vec<_>>()
        );
    }

    #[test]
    fn lp_panic_is_reported() {
        let mut s = sim();
        s.spawn("bad", |_ctx| panic!("boom"));
        s.spawn("other", |ctx| {
            // Would run forever if the abort did not propagate.
            let v = ctx.handle().var(false);
            v.wait(&ctx, "never", |b| *b);
        });
        match s.run() {
            Err(SimError::LpPanic { name, message }) => {
                assert_eq!(name, "bad");
                assert!(message.contains("boom"));
            }
            other => panic!("expected panic outcome, got {other:?}"),
        }
    }

    #[test]
    fn deadlock_is_detected_and_diagnosed() {
        let mut s = sim();
        let h = s.handle();
        let v = h.var(0u32);
        let v2 = v.clone();
        s.spawn("stuck-a", move |ctx| {
            ctx.advance(SimTime::from_us(1));
            v.wait(&ctx, "value becomes 1", |x| *x == 1);
        });
        s.spawn("stuck-b", move |ctx| {
            v2.wait(&ctx, "value becomes 2", |x| *x == 2);
        });
        match s.run() {
            Err(SimError::Deadlock { blocked }) => {
                assert_eq!(blocked.len(), 2);
                let labels: Vec<_> = blocked.iter().map(|b| b.waiting_on).collect();
                assert!(labels.contains(&"value becomes 1"));
                assert!(labels.contains(&"value becomes 2"));
                let a = blocked.iter().find(|b| b.name == "stuck-a").unwrap();
                assert_eq!(a.time, SimTime::from_us(1));
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn finished_lp_does_not_deadlock_others() {
        let mut s = sim();
        let h = s.handle();
        let v = h.var(false);
        let v2 = v.clone();
        s.spawn("early-exit", move |ctx| {
            ctx.advance(SimTime::from_us(2));
            v.store(&ctx, true);
            // exits immediately
        });
        s.spawn("waiter", move |ctx| {
            v2.wait(&ctx, "flag", |b| *b);
            ctx.advance(SimTime::from_us(1));
            assert_eq!(ctx.now(), SimTime::from_us(3));
        });
        let r = s.run().unwrap();
        assert_eq!(r.end_time, SimTime::from_us(3));
    }

    #[test]
    #[should_panic(expected = "no logical processes")]
    fn empty_run_panics() {
        let s = sim();
        let _ = s.run();
    }

    #[test]
    fn wait_any_wakes_on_either_var_and_is_causal() {
        let mut s = sim();
        let h = s.handle();
        let a = h.var(0u32);
        let b = h.var(0u32);
        let (a2, b2) = (a.clone(), b.clone());
        s.spawn("writer", move |ctx| {
            ctx.advance(SimTime::from_us(5));
            a2.store(&ctx, 1); // spurious for the waiter (needs b)
            ctx.advance(SimTime::from_us(5));
            b2.store(&ctx, 7);
        });
        let (a3, b3) = (a.clone(), b.clone());
        s.spawn("waiter", move |ctx| {
            let keys = [a3.wait_key(), b3.wait_key()];
            ctx.wait_any_until(&keys, "b becomes 7", || b3.with(|v| *v == 7));
            // The spurious poke at 5us consumed no time; the enabling
            // write at 10us set the resume time.
            assert_eq!(ctx.now(), SimTime::from_us(10));
        });
        s.run().unwrap();
    }

    #[test]
    fn wait_any_already_ready_returns_immediately() {
        let mut s = sim();
        let v = s.handle().var(3u32);
        s.spawn("lp", move |ctx| {
            ctx.advance(SimTime::from_us(2));
            ctx.wait_any_until(&[v.wait_key()], "already", || v.with(|x| *x == 3));
            assert_eq!(ctx.now(), SimTime::from_us(2));
        });
        s.run().unwrap();
    }

    #[test]
    fn wait_any_deadlock_reports_label() {
        let mut s = sim();
        let v = s.handle().var(0u32);
        s.spawn("stuck", move |ctx| {
            ctx.wait_any_until(&[v.wait_key()], "never satisfied", || v.with(|x| *x == 9));
        });
        match s.run() {
            Err(SimError::Deadlock { blocked }) => {
                assert_eq!(blocked.len(), 1);
                assert_eq!(blocked[0].waiting_on, "never satisfied");
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }
    /// Counts its drops: stands in for whatever an LP's frames own
    /// when the run is torn down under them.
    struct CountDrop(Arc<std::sync::atomic::AtomicUsize>);

    impl Drop for CountDrop {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Eight LPs suspended mid-`wait`, each holding a guard, with a
    /// ninth that panics late (or nobody, so the run deadlocks).
    fn abort_with_suspended_waiters(panics: bool) -> (Result<Report, SimError>, usize) {
        let dropped = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let mut s = sim();
        let never = s.handle().var(false);
        for i in 0..8u64 {
            let (never, dropped) = (never.clone(), dropped.clone());
            s.spawn(format!("waiter{i}"), move |ctx| {
                let _guard = CountDrop(dropped);
                ctx.advance(SimTime::from_us(i + 1));
                never.wait(&ctx, "never", |b| *b);
                unreachable!("the flag is never set");
            });
        }
        if panics {
            s.spawn("bad", |ctx| {
                ctx.advance(SimTime::from_us(100));
                panic!("boom");
            });
        }
        let result = s.run();
        (result, dropped.load(Ordering::Relaxed))
    }

    #[test]
    fn lp_panic_unwinds_every_suspended_lp() {
        let (result, dropped) = abort_with_suspended_waiters(true);
        assert!(
            matches!(&result, Err(SimError::LpPanic { name, .. }) if name == "bad"),
            "{result:?}"
        );
        assert_eq!(dropped, 8);
    }

    #[test]
    fn deadlock_unwinds_every_suspended_lp() {
        let (result, dropped) = abort_with_suspended_waiters(false);
        assert!(
            matches!(&result, Err(SimError::Deadlock { blocked }) if blocked.len() == 8),
            "{result:?}"
        );
        assert_eq!(dropped, 8);
    }

    /// A world whose every closure captures `token`; `fail_at` makes
    /// LP 0 panic at that time (at zero, before any other LP started).
    fn run_capturing(
        token: &Arc<()>,
        fail_at: Option<SimTime>,
    ) -> (Result<Report, SimError>, SimHandle) {
        let mut s = sim();
        let h = s.handle();
        let flag = h.var(false);
        for i in 0..6u64 {
            let (token, flag) = (token.clone(), flag.clone());
            s.spawn(format!("lp{i}"), move |ctx| {
                let _held = &token;
                if i == 0 {
                    if let Some(t) = fail_at {
                        ctx.advance_to(t);
                        panic!("boom");
                    }
                    ctx.advance(SimTime::from_us(9));
                    flag.store(&ctx, true);
                } else {
                    ctx.advance(SimTime::from_us(i));
                    flag.wait(&ctx, "flag", |b| *b);
                }
            });
        }
        (s.run(), h)
    }

    #[test]
    fn nothing_outlives_run() {
        for fail_at in [None, Some(SimTime::ZERO), Some(SimTime::from_us(7))] {
            let token = Arc::new(());
            let (result, h) = run_capturing(&token, fail_at);
            assert_eq!(result.is_ok(), fail_at.is_none(), "{result:?}");
            assert_eq!(Arc::strong_count(&token), 1, "closure leaked ({fail_at:?})");
            // Our handle is the last owner of the scheduler state: no
            // `Ctx` clone was abandoned on an unmapped stack.
            assert_eq!(
                Arc::strong_count(&h.shared),
                1,
                "Shared leaked ({fail_at:?})"
            );
        }
    }

    #[test]
    fn concurrent_sims_on_two_host_threads_agree() {
        // Both worlds are mid-run, fibers suspended, at the same moment:
        // LP 0 of each meets the other at a real barrier.
        let meet = Arc::new(std::sync::Barrier::new(2));
        let world = move |meet: Arc<std::sync::Barrier>| {
            let mut s = sim();
            let q = s.handle().var(0u64);
            for i in 0..32u64 {
                let (q, meet) = (q.clone(), meet.clone());
                s.spawn(format!("lp{i}"), move |ctx| {
                    ctx.advance(SimTime::from_ns(10 * (i % 5 + 1)));
                    q.update(&ctx, |v| *v += 1);
                    if i == 0 {
                        meet.wait();
                    }
                    q.wait(&ctx, "all arrived", |v| *v == 32);
                    ctx.advance(SimTime::from_ns(i + 1));
                });
            }
            s.run().unwrap()
        };
        let threads: Vec<_> = (0..2)
            .map(|_| {
                let meet = meet.clone();
                std::thread::spawn(move || {
                    let report = world(meet);
                    // Each thread mapped its own 32 stacks and got all
                    // of them back: the free lists are independent.
                    assert_eq!(fiber::stacks_listed(), 32);
                    report
                })
            })
            .collect();
        let reports: Vec<Report> = threads.into_iter().map(|t| t.join().unwrap()).collect();
        let (a, b) = (&reports[0], &reports[1]);
        assert_eq!(a.end_time, b.end_time);
        assert_eq!(a.lp_times, b.lp_times);
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.by_comm, b.by_comm);
    }

    /// Run `f` on a thread of its own, whose stack list starts empty.
    fn on_fresh_thread<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
        std::thread::spawn(f)
            .join()
            .expect("the thread's assertions hold")
    }

    /// `n` LPs that each take a few turns.
    fn run_idle_world(n: u64) {
        let mut s = sim();
        for i in 0..n {
            s.spawn(format!("lp{i}"), move |ctx| {
                ctx.advance(SimTime::from_ns(i % 7 + 1));
                ctx.advance(SimTime::from_ns(3));
            });
        }
        s.run().unwrap();
    }

    #[test]
    fn back_to_back_sims_on_one_thread_map_stacks_once() {
        // Every mapping ends up on the idle thread's list, so a list
        // that has not grown means the run mapped nothing.
        on_fresh_thread(|| {
            run_idle_world(40);
            assert_eq!(fiber::stacks_listed(), 40);
            run_idle_world(40);
            assert_eq!(fiber::stacks_listed(), 40);
            // A larger world maps only the difference.
            run_idle_world(48);
            assert_eq!(fiber::stacks_listed(), 48);
        });
    }

    #[test]
    fn aborted_runs_return_every_stack_and_the_next_sim_runs_clean_on_them() {
        on_fresh_thread(|| {
            for panics in [false, true] {
                let (result, dropped) = abort_with_suspended_waiters(panics);
                assert!(result.is_err());
                assert_eq!(dropped, 8);
                // The stacks come back only after every suspended LP was
                // unwound on its own: 8 waiters, plus the one that panics.
                assert_eq!(fiber::stacks_listed(), 8 + usize::from(panics));
            }
            // Stacks that last held an unwound wait and a caught panic.
            run_idle_world(9);
            assert_eq!(fiber::stacks_listed(), 9);
        });
    }

    #[test]
    fn a_thread_that_ran_a_sim_unmaps_its_list_when_it_exits() {
        let unmapped = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let count = unmapped.clone();
        on_fresh_thread(move || {
            fiber::report_unmapped_at_exit(count);
            run_idle_world(24);
            run_idle_world(24);
        });
        assert_eq!(unmapped.load(Ordering::SeqCst), 24);
    }

    #[test]
    fn ctx_of_another_lp_is_refused() {
        // A `Ctx` smuggled to another LP on the same host thread must
        // not switch stacks on its behalf.
        let mut s = sim();
        let stash: Arc<std::sync::Mutex<Option<usize>>> = Arc::default();
        let stash2 = stash.clone();
        s.spawn("owner", move |ctx| {
            *stash.lock().unwrap() = Some(Box::into_raw(Box::new(ctx)) as usize);
        });
        s.spawn("thief", move |ctx| {
            ctx.advance(SimTime::from_us(1));
            let stolen = stash2.lock().unwrap().take().expect("owner ran first");
            // SAFETY: the pointer is the box leaked above, reclaimed once.
            let stolen = unsafe { Box::from_raw(stolen as *mut Ctx) };
            stolen.advance(SimTime::from_us(1));
        });
        match s.run() {
            Err(SimError::LpPanic { name, message }) => {
                assert_eq!(name, "thief");
                assert!(message.contains("without holding the turn"), "{message}");
            }
            other => panic!("expected the thief to be refused, got {other:?}"),
        }
    }

    mod ordering {
        //! Random programs over 64+ LPs. Every scheduling decision they
        //! cause — each grant, each `advance` that keeps or gives up
        //! the turn — is checked inside the kernel against
        //! [`Sched::next_ready_by_scan`], the linear reference.

        use super::*;
        use proptest::prelude::*;

        #[derive(Clone, Debug)]
        enum Action {
            Advance(u64),
            /// Bump counter `var`.
            Store(usize),
            /// Wait until counter `var` has had `pct`% of its writes.
            Wait(usize, u64),
            /// The same on two counters, whichever comes first.
            WaitAny((usize, u64), (usize, u64)),
        }

        const VARS: usize = 12;

        fn action() -> impl Strategy<Value = Action> {
            let cond = || (0..VARS, 1u64..=100);
            prop_oneof![
                // Few distinct durations, so clocks tie often.
                (0u64..4).prop_map(|d| Action::Advance(d * 5)),
                (0..VARS).prop_map(Action::Store),
                cond().prop_map(|(v, pct)| Action::Wait(v, pct)),
                (cond(), cond()).prop_map(|(a, b)| Action::WaitAny(a, b)),
            ]
        }

        /// Run the programs; returns the global `(lp, step)` action log
        /// and the report. Deadlock-free by construction: the first
        /// half of the LPs never wait, and every threshold is a share
        /// of the writes those LPs alone will make.
        fn execute(programs: &[Vec<Action>]) -> (Vec<(usize, usize)>, Report) {
            let writers = programs.len() / 2;
            let mut writes = [0u64; VARS];
            for prog in &programs[..writers] {
                for a in prog {
                    if let Action::Store(v) = a {
                        writes[*v] += 1;
                    }
                }
            }
            let mut s = Sim::new(MachineConfig::uniform_test());
            let vars: Vec<_> = (0..VARS).map(|_| s.handle().var(0u64)).collect();
            let log = Arc::new(std::sync::Mutex::new(Vec::new()));
            for (id, prog) in programs.iter().enumerate() {
                let (prog, vars, log) = (prog.clone(), vars.clone(), log.clone());
                s.spawn(format!("lp{id}"), move |ctx| {
                    let need = |(v, pct): (usize, u64)| writes[v] * pct / 100;
                    for (step, a) in prog.iter().enumerate() {
                        match *a {
                            Action::Advance(d) => ctx.advance(SimTime::from_ns(d)),
                            Action::Store(v) => vars[v].update(&ctx, |x| *x += 1),
                            Action::Wait(..) | Action::WaitAny(..) if id < writers => {}
                            Action::Wait(v, pct) => {
                                let n = need((v, pct));
                                vars[v].wait(&ctx, "threshold", |x| *x >= n);
                            }
                            Action::WaitAny(a, b) => {
                                let keys = [vars[a.0].wait_key(), vars[b.0].wait_key()];
                                ctx.wait_any_until(&keys, "either threshold", || {
                                    vars[a.0].with(|x| *x >= need(a))
                                        || vars[b.0].with(|x| *x >= need(b))
                                });
                            }
                        }
                        log.lock().unwrap().push((id, step));
                    }
                });
            }
            let report = s.run().expect("programs are deadlock-free");
            let log = log.lock().unwrap().clone();
            (log, report)
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

            #[test]
            fn ready_heap_picks_what_the_scan_picks(programs in prop::collection::vec(
                prop::collection::vec(action(), 0..24), 64..80)) {
                let (log, report) = execute(&programs);
                let steps: usize = programs.iter().map(Vec::len).sum();
                prop_assert_eq!(log.len(), steps);
                // And the order is a function of the programs alone.
                let (log2, report2) = execute(&programs);
                prop_assert_eq!(log, log2);
                prop_assert_eq!(report.lp_times, report2.lp_times);
            }
        }
    }
}
