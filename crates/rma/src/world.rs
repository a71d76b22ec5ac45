//! The RMA network: per-task endpoints, the wire model, and the
//! dispatcher logical processes.
//!
//! Each simulated task gets an [`Rma`] endpoint and a hidden
//! **dispatcher LP** — the analogue of the threads LAPI creates for
//! every task ("the implementation of LAPI uses two additional threads
//! created implicitly at the startup time", §2.4). The dispatcher owns
//! message *reception*: it waits for arrivals, honours the paper's
//! interrupt rules, lands data into shared buffers, bumps counters and
//! runs active-message handlers.
//!
//! ## Wire model
//!
//! A put of `b` bytes issued at origin time `t` is delivered at
//! `max(t, link_free) + b·G + L`, where `G` is the per-byte cost and
//! `L` the one-way latency; `link_free` serializes messages on the
//! origin's network port. When a perturbation config is installed
//! ([`simnet::Sim::set_perturb`]), the wire term `b·G` first passes
//! through [`simnet::Ctx::perturb_wire`] (static per-directed-link
//! stretch plus transient bandwidth dips), and the delivery time then
//! passes through [`simnet::Ctx::perturb_delivery`]: bounded jitter
//! and cross-pair reordering, never regressing the per-pair order the
//! origin port serialized. On the reception side the dispatcher may
//! additionally pay an interrupt-coalescing delay
//! ([`simnet::Ctx::perturb_coalesce_point`]) after a taken interrupt,
//! and a handler stall ([`simnet::Ctx::perturb_am_stall_draw`]) before
//! processing any payload. The origin CPU is busy only for the origin
//! overhead — the transfer itself is one-sided, which is precisely the
//! overlap opportunity SRM exploits.
//!
//! ## Reception rules (paper §2.3, "Management of LAPI Interrupts")
//!
//! * target inside a LAPI call (polling): delivery proceeds, no
//!   interrupt;
//! * target elsewhere, interrupts enabled: delivery proceeds but pays
//!   the interrupt cost;
//! * target elsewhere, interrupts disabled: delivery **stalls** until
//!   the target enters a LAPI call — exactly the hazard the paper warns
//!   about ("the put operation would not be able to complete without
//!   implicit cooperation of the destination task");
//! * target switches interrupts back on ([`Rma::set_interrupts`]):
//!   that is a LAPI call too, so every arrival that reached the adapter
//!   by then (`deliver_at` after the inbound serialization) is taken by
//!   polling, with no interrupt; later arrivals follow the rules above.
//!   The switches nest: with two `false`s outstanding, the first `true`
//!   leaves interrupts off, but it still polls.

use crate::counter::LapiCounter;
use parking_lot::Mutex;
use shmem::ShmBuffer;
use simnet::{Ctx, Rank, Sim, SimTime, SimVar};
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Payload carried to a dispatcher by one network arrival.
enum Payload {
    /// A put landing `bytes` into `dst` at `dst_off`.
    Data {
        dst: ShmBuffer,
        dst_off: usize,
        bytes: Vec<u8>,
    },
    /// A zero-byte put: only the counter side effect.
    CounterOnly,
    /// An active message for the registered handler `handler`.
    Am { handler: u32, msg: AmMsg },
}

struct Arrival {
    deliver_at: SimTime,
    /// Payload bytes on the wire (drives inbound-adapter serialization).
    wire_bytes: usize,
    payload: Payload,
    counter: Option<LapiCounter>,
}

enum Item {
    Arrival(Box<Arrival>),
    Shutdown,
}

/// Data handed to an active-message handler.
pub struct AmMsg {
    /// Originating rank.
    pub from: Rank,
    /// Inline payload bytes.
    pub bytes: Vec<u8>,
    /// Optional shared-buffer handle — the simulation's equivalent of
    /// sending a remote memory *address* (used by the large-message
    /// broadcast's address exchange).
    pub buf: Option<ShmBuffer>,
}

type AmHandler = Arc<dyn Fn(&Ctx, AmMsg) + Send + Sync>;

/// Whether the task is currently able to receive.
#[derive(Clone, Copy, Debug)]
struct LapiState {
    in_call: bool,
    /// [`Rma::set_interrupts`]`(false)` calls not yet matched by a
    /// `true`: interrupts are on at 0.
    quiet: u32,
    /// When [`Rma::set_interrupts`]`(true)` last ran, switching or not:
    /// that call polls whatever had reached the adapter by then.
    polled_at: SimTime,
}

struct TaskNet {
    inbox: SimVar<Vec<Item>>,
    /// Time at which this task's network port finishes serializing its
    /// last outbound message.
    link_free: SimVar<SimTime>,
    state: SimVar<LapiState>,
    handlers: Mutex<HashMap<u32, AmHandler>>,
}

struct WorldInner {
    tasks: Vec<TaskNet>,
    /// Free list of put snapshot buffers: an origin draws one at issue,
    /// the landing dispatcher returns it, so a steady stream of puts
    /// allocates (and page-faults) each buffer once, not per message.
    snapshots: Mutex<Vec<Vec<u8>>>,
}

impl WorldInner {
    /// Snapshot `src[off..off + len]` into a pooled buffer. The copy is
    /// made now, at issue: later writes to `src` never reach the wire.
    fn snapshot(&self, src: &ShmBuffer, off: usize, len: usize) -> Vec<u8> {
        let mut bytes = self.snapshots.lock().pop().unwrap_or_default();
        bytes.clear();
        src.with(|d| bytes.extend_from_slice(&d[off..off + len]));
        bytes
    }

    /// Land a snapshot into `dst[off..]` and return it to the pool.
    fn land(&self, bytes: Vec<u8>, dst: &ShmBuffer, off: usize) {
        dst.with_mut(|d| d[off..off + bytes.len()].copy_from_slice(&bytes));
        self.snapshots.lock().push(bytes);
    }
}

/// The cluster-wide RMA fabric. Create once at setup; it spawns one
/// dispatcher LP per task.
pub struct RmaWorld {
    inner: Arc<WorldInner>,
}

impl RmaWorld {
    /// Build the fabric for `nprocs` tasks and spawn their dispatchers
    /// on `sim`.
    pub fn new(sim: &mut Sim, nprocs: usize) -> Self {
        let handle = sim.handle();
        let tasks = (0..nprocs)
            .map(|_| TaskNet {
                inbox: handle.var(Vec::new()),
                link_free: handle.var(SimTime::ZERO),
                state: handle.var(LapiState {
                    in_call: false,
                    quiet: 0,
                    polled_at: SimTime::ZERO,
                }),
                handlers: Mutex::new(HashMap::new()),
            })
            .collect();
        let inner = Arc::new(WorldInner {
            tasks,
            snapshots: Mutex::new(Vec::new()),
        });
        for me in 0..nprocs {
            let world = inner.clone();
            sim.spawn(format!("lapi-dispatcher-{me}"), move |ctx| {
                dispatcher_main(ctx, world, me)
            });
        }
        RmaWorld { inner }
    }

    /// Endpoint for task `rank`.
    pub fn endpoint(&self, rank: Rank) -> Rma {
        assert!(rank < self.inner.tasks.len());
        Rma {
            world: self.inner.clone(),
            me: rank,
        }
    }

    /// Number of endpoints.
    pub fn nprocs(&self) -> usize {
        self.inner.tasks.len()
    }
}

/// Per-task RMA endpoint (the LAPI handle).
#[derive(Clone)]
pub struct Rma {
    world: Arc<WorldInner>,
    me: Rank,
}

impl Rma {
    /// This endpoint's rank.
    pub fn rank(&self) -> Rank {
        self.me
    }

    /// Nonblocking put: transfer `len` bytes from `src[src_off..]` into
    /// `dst[dst_off..]` on `target`. Returns after the origin overhead;
    /// the transfer completes in the background. The source is
    /// snapshotted before the call returns, so the origin may reuse it
    /// at once. If `tgt_counter` is given, the target dispatcher
    /// increments it after landing the data.
    ///
    /// # Panics
    /// At issue, naming the origin rank, if the put would run past
    /// `dst`'s capacity.
    #[allow(clippy::too_many_arguments)]
    pub fn put(
        &self,
        ctx: &Ctx,
        target: Rank,
        src: &ShmBuffer,
        src_off: usize,
        len: usize,
        dst: &ShmBuffer,
        dst_off: usize,
        tgt_counter: Option<&LapiCounter>,
    ) {
        // Checked here, at issue: the landing runs in the target's
        // dispatcher LP, where an overrun would blame the wrong rank.
        assert!(
            dst.fits(dst_off, len),
            "put from rank {} overruns the destination buffer: \
             offset {dst_off} + len {len} > capacity {}",
            self.me,
            dst.capacity()
        );
        ctx.advance(ctx.config().lapi_origin_overhead);
        ctx.metrics().rma_puts.fetch_add(1, Ordering::Relaxed);
        let bytes = self.world.snapshot(src, src_off, len);
        self.send(
            ctx,
            target,
            Payload::Data {
                dst: dst.clone(),
                dst_off,
                bytes,
            },
            tgt_counter.cloned(),
            len,
        );
    }

    /// Zero-byte put: pure remote counter increment (the paper's
    /// flow-control acknowledgement, §2.4 step 3).
    pub fn put_counter(&self, ctx: &Ctx, target: Rank, tgt_counter: &LapiCounter) {
        ctx.advance(ctx.config().lapi_origin_overhead);
        ctx.metrics().rma_puts.fetch_add(1, Ordering::Relaxed);
        self.send(
            ctx,
            target,
            Payload::CounterOnly,
            Some(tgt_counter.clone()),
            0,
        );
    }

    /// Active message: run the handler registered under `handler` on
    /// `target`'s dispatcher, passing `bytes` and optionally a shared
    /// buffer handle (= a remote address).
    pub fn am(
        &self,
        ctx: &Ctx,
        target: Rank,
        handler: u32,
        bytes: Vec<u8>,
        buf: Option<ShmBuffer>,
    ) {
        ctx.advance(ctx.config().lapi_origin_overhead);
        ctx.metrics().rma_ams.fetch_add(1, Ordering::Relaxed);
        let len = bytes.len();
        self.send(
            ctx,
            target,
            Payload::Am {
                handler,
                msg: AmMsg {
                    from: self.me,
                    bytes,
                    buf,
                },
            },
            None,
            len,
        );
    }

    /// Register the active-message handler `id` on this task. Usually
    /// done during setup, before any AM can arrive.
    pub fn register_handler(&self, id: u32, f: impl Fn(&Ctx, AmMsg) + Send + Sync + 'static) {
        let prev = self.world.tasks[self.me]
            .handlers
            .lock()
            .insert(id, Arc::new(f));
        assert!(prev.is_none(), "AM handler {id} registered twice");
    }

    /// `LAPI_Waitcntr`: block until `cntr >= value`, then subtract
    /// `value`. While waiting, the task counts as *inside a LAPI call*,
    /// so its dispatcher can deliver without interrupts.
    pub fn wait_counter(&self, ctx: &Ctx, cntr: &LapiCounter, value: u64) {
        let state = &self.world.tasks[self.me].state;
        state.update(ctx, |s| s.in_call = true);
        cntr.var.wait(ctx, "LAPI counter", move |v| *v >= value);
        cntr.var.update(ctx, move |v| *v -= value);
        state.update(ctx, |s| s.in_call = false);
        ctx.advance(ctx.config().lapi_counter_check);
    }

    /// Block until `cntr >= value` **without** consuming the counter —
    /// for cumulative counters (e.g. "number of barriers completed")
    /// that only ever grow. Counts as being inside a LAPI call.
    pub fn wait_counter_ge(&self, ctx: &Ctx, cntr: &LapiCounter, value: u64) {
        let state = &self.world.tasks[self.me].state;
        state.update(ctx, |s| s.in_call = true);
        cntr.var
            .wait(ctx, "LAPI counter (cumulative)", move |v| *v >= value);
        state.update(ctx, |s| s.in_call = false);
        ctx.advance(ctx.config().lapi_counter_check);
    }

    /// Spend `dt` inside a LAPI progress call, letting the dispatcher
    /// deliver pending arrivals without interrupts.
    pub fn poll(&self, ctx: &Ctx, dt: SimTime) {
        let state = &self.world.tasks[self.me].state;
        state.update(ctx, |s| s.in_call = true);
        ctx.advance(dt);
        state.update(ctx, |s| s.in_call = false);
    }

    /// Mark this task as being *inside a LAPI call* until the matching
    /// [`Rma::end_call`]. While marked, the dispatcher may deliver
    /// arrivals without interrupts even when the task is parked outside
    /// the counter-wait paths — the nonblocking executor brackets its
    /// multi-variable sleeps with this pair, which models waiting inside
    /// `LAPI_Waitcntr` on whichever counter fires first.
    pub fn begin_call(&self, ctx: &Ctx) {
        self.world.tasks[self.me]
            .state
            .update(ctx, |s| s.in_call = true);
    }

    /// Leave the LAPI call entered by [`Rma::begin_call`]. Charges one
    /// counter-check overhead, like the blocking wait paths.
    pub fn end_call(&self, ctx: &Ctx) {
        self.world.tasks[self.me]
            .state
            .update(ctx, |s| s.in_call = false);
        ctx.advance(ctx.config().lapi_counter_check);
    }

    /// Disable (`false`) or re-enable interrupt-mode reception for this
    /// task (SRM disables interrupts for small-message collectives,
    /// §2.3). The switches nest, so that calls outstanding together can
    /// each bracket themselves: interrupts stay off from the first
    /// `false` to the `true` that matches it. Every switch is a LAPI
    /// call, and every `true` polls, whether or not it is the outermost
    /// one: arrivals that reached the adapter by then are taken by
    /// polling, not as interrupts.
    pub fn set_interrupts(&self, ctx: &Ctx, on: bool) {
        ctx.advance(ctx.config().lapi_counter_check);
        let now = ctx.now();
        self.world.tasks[self.me].state.update(ctx, |s| {
            if on {
                s.quiet = s.quiet.saturating_sub(1);
                s.polled_at = now;
            } else {
                s.quiet += 1;
            }
        });
    }

    /// Tear down this task's dispatcher. Call exactly once, after all
    /// communication involving this task has completed.
    pub fn shutdown(&self, ctx: &Ctx) {
        self.world.tasks[self.me]
            .inbox
            .update(ctx, |q| q.push(Item::Shutdown));
    }

    /// Serialize one outbound message on this task's port and enqueue
    /// its arrival at the target.
    fn send(
        &self,
        ctx: &Ctx,
        target: Rank,
        payload: Payload,
        counter: Option<LapiCounter>,
        wire_bytes: usize,
    ) {
        assert!(target < self.world.tasks.len(), "put to unknown rank");
        let cfg = ctx.config();
        let me_net = &self.world.tasks[self.me];
        let start = ctx.now().max(me_net.link_free.get());
        let wire = ctx.perturb_wire(self.me, target, cfg.net_per_byte.cost_of(wire_bytes));
        let ser_done = start + wire;
        me_net.link_free.store(ctx, ser_done);
        let deliver_at = ctx.perturb_delivery(self.me, target, ser_done + cfg.net_latency);
        let m = ctx.metrics();
        m.net_messages.fetch_add(1, Ordering::Relaxed);
        m.net_bytes.fetch_add(wire_bytes as u64, Ordering::Relaxed);
        self.world.tasks[target].inbox.update(ctx, move |q| {
            q.push(Item::Arrival(Box::new(Arrival {
                deliver_at,
                wire_bytes,
                payload,
                counter,
            })));
        });
    }
}

/// The dispatcher loop: the LAPI threads of one task.
fn dispatcher_main(ctx: Ctx, world: Arc<WorldInner>, me: Rank) {
    // Inbound-adapter clock: overlapping streams from different origins
    // still share this task's (node's) adapter on the receive side.
    let mut rx_free = SimTime::ZERO;
    loop {
        let item = world.tasks[me]
            .inbox
            .wait_take(&ctx, "network arrival", |q| {
                if q.is_empty() {
                    return None;
                }
                // Deliver the earliest arrival first; Shutdown only when
                // nothing else is pending.
                let mut best: Option<(usize, SimTime)> = None;
                for (i, it) in q.iter().enumerate() {
                    let at = match it {
                        Item::Shutdown => SimTime(u64::MAX),
                        Item::Arrival(a) => a.deliver_at,
                    };
                    if best.is_none_or(|(_, bt)| at < bt) {
                        best = Some((i, at));
                    }
                }
                let (i, _) = best.expect("nonempty");
                Some(q.remove(i))
            });
        let mut arrival = match item {
            Item::Shutdown => break,
            Item::Arrival(a) => a,
        };
        let wire = ctx.config().net_per_byte.cost_of(arrival.wire_bytes);
        let eff = arrival.deliver_at.max(rx_free + wire);
        rx_free = eff;
        arrival.deliver_at = eff;
        deliver(&ctx, &world, me, *arrival);
    }
}

fn deliver(ctx: &Ctx, world: &Arc<WorldInner>, me: Rank, a: Arrival) {
    let cfg = ctx.config();
    let t = &world.tasks[me];
    // NIC-side arrival instant.
    ctx.advance_to(a.deliver_at);
    // Reception gate (paper §2.3).
    t.state.wait(ctx, "target polls or takes interrupt", |s| {
        s.in_call || s.quiet == 0 || a.deliver_at <= s.polled_at
    });
    let s = t.state.get();
    let polled = s.in_call || a.deliver_at <= s.polled_at;
    if !polled {
        ctx.advance(cfg.interrupt_cost);
        ctx.metrics().interrupts.fetch_add(1, Ordering::Relaxed);
        // Dispatcher-side perturbation: the adapter may coalesce
        // interrupt delivery, adding a bounded extra delay.
        ctx.perturb_coalesce_point();
    }
    if !cfg.yield_enabled {
        // Spinning siblings never yield: the LAPI threads fight for CPU.
        ctx.advance(cfg.dispatcher_starve_penalty);
    }
    ctx.advance(cfg.lapi_target_overhead);
    // Dispatcher-side perturbation: the handler (data landing, AM) may
    // stall before touching the payload. Under the
    // planted am-stall-race fault the completion counter fires early,
    // inside that stall window, before the payload lands.
    let stall = ctx.perturb_am_stall_draw();
    let mut counted_early = false;
    if !stall.is_zero() {
        // Planted fault: acknowledge before the payload lands.
        if ctx.faults().stall_counter_race {
            if let Some(c) = &a.counter {
                c.incr(ctx, 1);
                counted_early = true;
            }
        }
        ctx.perturb_am_stall_apply(stall);
    }
    match a.payload {
        Payload::Data {
            dst,
            dst_off,
            bytes,
        } => world.land(bytes, &dst, dst_off),
        Payload::CounterOnly => {}
        Payload::Am { handler, msg } => {
            let h = t.handlers.lock().get(&handler).cloned();
            let h = h.unwrap_or_else(|| panic!("no AM handler {handler} on rank {me}"));
            h(ctx, msg);
        }
    }
    if !counted_early {
        if let Some(c) = a.counter {
            c.incr(ctx, 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::MachineConfig;

    #[test]
    fn origin_overwriting_src_after_put_does_not_change_what_lands() {
        let mut sim = Sim::new(MachineConfig::uniform_test());
        let world = RmaWorld::new(&mut sim, 2);
        let done = LapiCounter::new(&sim.handle(), 0);
        let dst = ShmBuffer::new(32);
        let (r0, r1) = (world.endpoint(0), world.endpoint(1));
        let (d, c) = (dst.clone(), done.clone());
        sim.spawn("origin", move |ctx| {
            let src = ShmBuffer::new(32);
            src.with_mut(|s| s.fill(7));
            r0.put(&ctx, 1, &src, 0, 32, &d, 0, Some(&c));
            // Long before the wire delivers anything.
            src.with_mut(|s| s.fill(9));
            r0.shutdown(&ctx);
        });
        sim.spawn("target", move |ctx| {
            r1.wait_counter(&ctx, &done, 1);
            r1.shutdown(&ctx);
        });
        sim.run().unwrap();
        dst.with(|got| assert_eq!(got, [7u8; 32]));
    }

    #[test]
    #[should_panic(expected = "put from rank 1 overruns the destination buffer: \
                               offset 8 + len 16 > capacity 16")]
    fn put_past_the_destination_panics_at_issue_naming_the_origin() {
        let mut sim = Sim::new(MachineConfig::uniform_test());
        let world = RmaWorld::new(&mut sim, 2);
        let r1 = world.endpoint(1);
        sim.spawn("origin", move |ctx| {
            let (src, dst) = (ShmBuffer::new(16), ShmBuffer::new(16));
            r1.put(&ctx, 0, &src, 0, 16, &dst, 8, None);
        });
        if let Err(e) = sim.run() {
            panic!("{e}");
        }
    }

    #[test]
    fn small_put_reusing_a_large_pooled_snapshot_lands_only_its_bytes() {
        const BIG: usize = 1 << 20;
        let mut sim = Sim::new(MachineConfig::uniform_test());
        let world = RmaWorld::new(&mut sim, 2);
        let h = sim.handle();
        let (landed, acked) = (LapiCounter::new(&h, 0), LapiCounter::new(&h, 0));
        let dst = ShmBuffer::new(BIG);
        let (r0, r1) = (world.endpoint(0), world.endpoint(1));
        let (d, l, a) = (dst.clone(), landed.clone(), acked.clone());
        sim.spawn("origin", move |ctx| {
            let src = ShmBuffer::new(BIG);
            src.with_mut(|s| s.fill(1));
            r0.put(&ctx, 1, &src, 0, BIG, &d, 0, Some(&l));
            // The first snapshot is back in the pool once the target
            // acknowledges its landing.
            r0.wait_counter(&ctx, &a, 1);
            src.with_mut(|s| s.fill(2));
            r0.put(&ctx, 1, &src, 0, 64, &d, 128, Some(&l));
            r0.shutdown(&ctx);
        });
        sim.spawn("target", move |ctx| {
            r1.wait_counter(&ctx, &landed, 1);
            r1.put_counter(&ctx, 0, &acked);
            r1.wait_counter(&ctx, &landed, 1);
            r1.shutdown(&ctx);
        });
        sim.run().unwrap();
        dst.with(|got| {
            assert!(got[..128].iter().all(|&b| b == 1));
            assert_eq!(got[128..192], [2u8; 64]);
            assert!(got[192..].iter().all(|&b| b == 1));
        });
        // One buffer served both puts.
        let pool = world.inner.snapshots.lock();
        assert_eq!(pool.len(), 1);
        assert!(pool[0].capacity() >= BIG && pool[0].len() == 64);
    }
}
