//! Shared-memory synchronization flags.
//!
//! The paper's SMP protocols synchronize with *flags in shared memory*,
//! one per process, "each flag located on a different cache line"
//! (§2.2). A [`SpinFlag`] models exactly that: an integer word whose
//! set/read costs one cache-line operation, and whose wait models a
//! spin loop with SRM's **spin-then-yield** policy (§2.4: spinners
//! yield the CPU after a number of unsuccessful spins so the LAPI
//! threads can run; the wake-up after a yield costs a scheduler
//! round-trip).
//!
//! Every `SpinFlag` owns its own `SimVar`, which is the simulation
//! equivalent of "its own cache line": waits on one flag are never
//! disturbed by traffic on another.

use simnet::{Ctx, SimHandle, SimVar};
use std::sync::atomic::Ordering;

/// One synchronization word in simulated shared memory.
#[derive(Clone)]
pub struct SpinFlag {
    var: SimVar<u64>,
}

impl SpinFlag {
    /// Allocate a flag initialized to `init`.
    pub fn new(handle: &SimHandle, init: u64) -> Self {
        SpinFlag {
            var: handle.var(init),
        }
    }

    /// Set the flag to `value`. Costs one flag store (the write retires
    /// fast; invalidations drain in the background).
    pub fn set(&self, ctx: &Ctx, value: u64) {
        ctx.advance(ctx.config().flag_set_op);
        ctx.metrics().flag_ops.fetch_add(1, Ordering::Relaxed);
        self.var.store(ctx, value);
    }

    /// Monotonically raise the flag to at least `value`: a max-store,
    /// never a regression. Cumulative sequence flags have concurrent
    /// raisers (a lagging consumer and a catch-up path can race); the
    /// max-merge makes the outcome order-independent. Costs one flag
    /// store.
    pub fn raise(&self, ctx: &Ctx, value: u64) {
        ctx.advance(ctx.config().flag_set_op);
        ctx.metrics().flag_ops.fetch_add(1, Ordering::Relaxed);
        if ctx.faults().nonmonotone_raise {
            // Planted fault: the unfixed plain store.
            self.var.store(ctx, value);
        } else {
            self.var.update(ctx, move |v| *v = (*v).max(value));
        }
    }

    /// Read the current value. Costs one flag operation (cache-line
    /// fetch; the line is generally dirty in another CPU's cache).
    pub fn read(&self, ctx: &Ctx) -> u64 {
        ctx.advance(ctx.config().flag_op);
        ctx.metrics().flag_ops.fetch_add(1, Ordering::Relaxed);
        self.var.get()
    }

    /// Peek without cost — for assertions in tests and for the
    /// nonblocking executor's readiness probes (the eventual blocking
    /// read pays the flag cost when the step executes).
    pub fn peek(&self) -> u64 {
        self.var.get()
    }

    /// Kernel wake key of this flag's backing variable, for
    /// multi-variable waits
    /// ([`Ctx::wait_any_until`](simnet::Ctx::wait_any_until)).
    pub fn wait_key(&self) -> u64 {
        self.var.wait_key()
    }

    /// Spin until the flag equals `value`.
    pub fn wait_eq(&self, ctx: &Ctx, label: &'static str, value: u64) {
        self.wait_pred(ctx, label, move |v| v == value);
    }

    /// Spin until the flag is at least `value` (monotonic counters).
    pub fn wait_ge(&self, ctx: &Ctx, label: &'static str, value: u64) {
        self.wait_pred(ctx, label, move |v| v >= value);
    }

    /// Spin until `pred(flag)` holds, applying the spin-then-yield cost
    /// model: the final successful read costs one flag op, and if the
    /// wait outlasted the spin slice with yielding enabled, the waiter
    /// additionally pays the scheduler wake-up penalty.
    pub fn wait_pred(&self, ctx: &Ctx, label: &'static str, mut pred: impl FnMut(u64) -> bool) {
        let t0 = ctx.now();
        self.var.wait(ctx, label, move |v| pred(*v));
        let waited = ctx.now().saturating_sub(t0);
        let cfg = ctx.config();
        ctx.metrics().flag_ops.fetch_add(1, Ordering::Relaxed);
        let mut cost = cfg.flag_op;
        if cfg.yield_enabled && waited > cfg.spin_slice {
            cost += cfg.yield_wake_penalty;
        }
        ctx.advance(cost);
    }

    /// Atomically add `n`, returning the previous value. Models a
    /// fetch-and-add on the shared line (a full read-modify-write: one
    /// flag-op miss).
    pub fn fetch_add(&self, ctx: &Ctx, n: u64) -> u64 {
        ctx.advance(ctx.config().flag_op);
        ctx.metrics().flag_ops.fetch_add(1, Ordering::Relaxed);
        self.var.update(ctx, |v| {
            let old = *v;
            *v += n;
            old
        })
    }
}

/// A bank of per-task flags, one cache line each — the layout used by
/// the SMP barrier and broadcast (one READY flag per process).
#[derive(Clone)]
pub struct FlagBank {
    flags: Vec<SpinFlag>,
}

impl FlagBank {
    /// `n` flags, all initialized to `init`.
    pub fn new(handle: &SimHandle, n: usize, init: u64) -> Self {
        FlagBank {
            flags: (0..n).map(|_| SpinFlag::new(handle, init)).collect(),
        }
    }

    /// Number of flags in the bank.
    pub fn len(&self) -> usize {
        self.flags.len()
    }

    /// True when the bank holds no flags.
    pub fn is_empty(&self) -> bool {
        self.flags.is_empty()
    }

    /// The `i`-th flag.
    pub fn flag(&self, i: usize) -> &SpinFlag {
        &self.flags[i]
    }

    /// Every flag of the bank, in slot order.
    pub fn flags(&self) -> &[SpinFlag] {
        &self.flags
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{MachineConfig, Sim, SimTime};

    fn sim() -> Sim {
        Sim::new(MachineConfig::uniform_test())
    }

    #[test]
    fn set_and_read_cost_flag_ops() {
        let mut s = sim();
        let f = SpinFlag::new(&s.handle(), 0);
        s.spawn("lp", move |ctx| {
            let flag_op = ctx.config().flag_op;
            f.set(&ctx, 7);
            assert_eq!(ctx.now(), flag_op);
            assert_eq!(f.read(&ctx), 7);
            assert_eq!(ctx.now(), flag_op * 2);
        });
        let r = s.run().unwrap();
        assert_eq!(r.metrics.flag_ops, 2);
    }

    #[test]
    fn wait_resumes_at_set_time_plus_read() {
        let mut s = sim();
        let f = SpinFlag::new(&s.handle(), 0);
        let f2 = f.clone();
        s.spawn("setter", move |ctx| {
            ctx.advance(SimTime::from_us(5));
            f.set(&ctx, 1);
        });
        s.spawn("waiter", move |ctx| {
            f2.wait_eq(&ctx, "flag=1", 1);
            // setter finished its set at 5us + flag_op; waiter sees the
            // write at that time and pays one read.
            let flag_op = ctx.config().flag_op;
            assert_eq!(ctx.now(), SimTime::from_us(5) + flag_op * 2);
        });
        s.run().unwrap();
    }

    #[test]
    fn yield_penalty_applies_to_long_waits_only() {
        let mut cfg = MachineConfig::uniform_test();
        cfg.spin_slice = SimTime::from_us(10);
        cfg.yield_wake_penalty = SimTime::from_us(3);
        cfg.yield_enabled = true;
        let flag_op = cfg.flag_op;

        // Long wait: penalty applies.
        let mut s = Sim::new(cfg.clone());
        let f = SpinFlag::new(&s.handle(), 0);
        let f2 = f.clone();
        s.spawn("setter", move |ctx| {
            ctx.advance(SimTime::from_us(50));
            f.set(&ctx, 1);
        });
        s.spawn("waiter", move |ctx| {
            f2.wait_eq(&ctx, "flag", 1);
            assert_eq!(
                ctx.now(),
                SimTime::from_us(50) + flag_op * 2 + SimTime::from_us(3)
            );
        });
        s.run().unwrap();

        // Short wait: no penalty.
        let mut s = Sim::new(cfg);
        let f = SpinFlag::new(&s.handle(), 0);
        let f2 = f.clone();
        s.spawn("setter", move |ctx| {
            ctx.advance(SimTime::from_us(5));
            f.set(&ctx, 1);
        });
        s.spawn("waiter", move |ctx| {
            f2.wait_eq(&ctx, "flag", 1);
            assert_eq!(ctx.now(), SimTime::from_us(5) + flag_op * 2);
        });
        s.run().unwrap();
    }

    #[test]
    fn no_yield_penalty_when_disabled() {
        let mut cfg = MachineConfig::uniform_test();
        cfg.spin_slice = SimTime::from_us(10);
        cfg.yield_wake_penalty = SimTime::from_us(3);
        cfg.yield_enabled = false;
        let flag_op = cfg.flag_op;
        let mut s = Sim::new(cfg);
        let f = SpinFlag::new(&s.handle(), 0);
        let f2 = f.clone();
        s.spawn("setter", move |ctx| {
            ctx.advance(SimTime::from_us(50));
            f.set(&ctx, 1);
        });
        s.spawn("waiter", move |ctx| {
            f2.wait_eq(&ctx, "flag", 1);
            assert_eq!(ctx.now(), SimTime::from_us(50) + flag_op * 2);
        });
        s.run().unwrap();
    }

    #[test]
    fn fetch_add_is_atomic_across_lps() {
        let mut s = sim();
        let f = SpinFlag::new(&s.handle(), 0);
        for i in 0..8 {
            let f = f.clone();
            s.spawn(format!("lp{i}"), move |ctx| {
                ctx.advance(SimTime::from_ns(10 * i as u64));
                f.fetch_add(&ctx, 1);
            });
        }
        s.run().unwrap();
        assert_eq!(f.peek(), 8);
    }

    #[test]
    fn flag_bank_flat_barrier_pattern() {
        // Tasks 1..n set their flags; master waits for all, then resets.
        let mut s = sim();
        let bank = FlagBank::new(&s.handle(), 4, 0);
        let done = SpinFlag::new(&s.handle(), 0);
        let b = bank.clone();
        let d = done.clone();
        s.spawn("master", move |ctx| {
            // Each flag is checked in turn; the waits compose causally,
            // so the result time is the latest setter.
            for f in b.flags() {
                f.wait_eq(&ctx, "all checked in", 1);
            }
            for f in b.flags() {
                f.set(&ctx, 0);
            }
            d.set(&ctx, 1);
        });
        for i in 0..4usize {
            let b = bank.clone();
            let d = done.clone();
            s.spawn(format!("w{i}"), move |ctx| {
                ctx.advance(SimTime::from_us(1 + i as u64));
                b.flag(i).set(&ctx, 1);
                d.wait_eq(&ctx, "released", 1);
            });
        }
        let r = s.run().unwrap();
        // Latest check-in at 4us gates everyone.
        assert!(r.end_time >= SimTime::from_us(4));
        for f in 0..4 {
            assert_eq!(bank.flag(f).peek(), 0);
        }
    }

    #[test]
    fn wait_ge_monotonic_counter() {
        let mut s = sim();
        let c = SpinFlag::new(&s.handle(), 0);
        let c2 = c.clone();
        s.spawn("incrementer", move |ctx| {
            for _ in 0..3 {
                ctx.advance(SimTime::from_us(2));
                c.fetch_add(&ctx, 1);
            }
        });
        s.spawn("waiter", move |ctx| {
            c2.wait_ge(&ctx, "count>=3", 3);
            assert!(ctx.now() >= SimTime::from_us(6));
        });
        s.run().unwrap();
    }
}
