//! Causally-timed shared variables.
//!
//! A [`SimVar<T>`] is the simulator's model of a shared-memory word (or
//! structure): flags, counters, message queues. Reads and writes happen
//! in real Rust memory — protocols move real data — while the kernel
//! stamps every write with the writer's virtual time and applies the
//! **causal resume rule** to waits:
//!
//! > an LP that blocked at time `t_b` waiting for a predicate resumes at
//! > `max(t_b, t_w)` where `t_w` is the time of the write that made the
//! > predicate true.
//!
//! This is exactly how a spin-loop on a shared flag behaves on hardware:
//! if the flag was already set, the spinner proceeds immediately; if
//! not, it proceeds when the setter sets it.
//!
//! Failed predicate re-checks (spurious pokes) consume no virtual time:
//! the kernel rolls the clock back to `t_b` and re-blocks.

use crate::kernel::{Ctx, SimHandle};
use crate::time::SimTime;
use parking_lot::Mutex;
use std::sync::Arc;

struct Cell<T> {
    value: T,
    last_write: SimTime,
}

struct Inner<T> {
    key: u64,
    cell: Mutex<Cell<T>>,
}

/// Shared simulated state with causal wake-ups. Clone to share between
/// logical processes.
pub struct SimVar<T> {
    inner: Arc<Inner<T>>,
}

impl<T> Clone for SimVar<T> {
    fn clone(&self) -> Self {
        SimVar {
            inner: self.inner.clone(),
        }
    }
}

impl SimHandle {
    /// Create a shared variable (usable before or during the run).
    pub fn var<T: Send + 'static>(&self, init: T) -> SimVar<T> {
        SimVar {
            inner: Arc::new(Inner {
                key: self.alloc_var_key(),
                cell: Mutex::new(Cell {
                    value: init,
                    last_write: SimTime::ZERO,
                }),
            }),
        }
    }
}

impl<T: Send + 'static> SimVar<T> {
    /// Read through a closure without affecting time. Use for
    /// assertions and decisions that model register reads whose cost is
    /// accounted elsewhere.
    pub fn with<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        f(&self.inner.cell.lock().value)
    }

    /// The kernel key identifying this variable in multi-variable waits
    /// ([`Ctx::wait_any_until`]): a write to this variable pokes any LP
    /// blocked on a key set containing it.
    pub fn wait_key(&self) -> u64 {
        self.inner.key
    }

    /// Copy the value out (requires `T: Clone`).
    pub fn get(&self) -> T
    where
        T: Clone,
    {
        self.inner.cell.lock().value.clone()
    }

    /// Overwrite the value at the caller's current time and wake any LP
    /// waiting on this variable.
    pub fn store(&self, ctx: &Ctx, value: T) {
        self.update(ctx, move |v| *v = value)
    }

    /// Mutate in place at the caller's current time and wake waiters.
    /// Returns whatever the closure returns.
    pub fn update<R>(&self, ctx: &Ctx, f: impl FnOnce(&mut T) -> R) -> R {
        let now = ctx.now();
        let r = {
            let mut cell = self.inner.cell.lock();
            let r = f(&mut cell.value);
            cell.last_write = now;
            r
        };
        ctx.poke_waiters(self.inner.key, now);
        r
    }

    /// Block until `pred` holds. Resumes at the time of the enabling
    /// write (or immediately if already true). `label` appears in
    /// deadlock reports.
    pub fn wait(&self, ctx: &Ctx, label: &'static str, mut pred: impl FnMut(&T) -> bool) {
        let block_time = ctx.now();
        loop {
            {
                let cell = self.inner.cell.lock();
                if pred(&cell.value) {
                    let resume = block_time.max(cell.last_write);
                    drop(cell);
                    ctx.set_time(resume);
                    return;
                }
            }
            ctx.block_on(self.inner.key, label, block_time);
        }
    }

    /// Block until `pred` returns `Some`, atomically mutating the value
    /// (e.g. popping a queue). The mutation counts as a write at the
    /// resume time, so other waiters on the same variable re-check.
    pub fn wait_take<R>(
        &self,
        ctx: &Ctx,
        label: &'static str,
        mut pred: impl FnMut(&mut T) -> Option<R>,
    ) -> R {
        let block_time = ctx.now();
        loop {
            {
                let mut cell = self.inner.cell.lock();
                if let Some(r) = pred(&mut cell.value) {
                    let resume = block_time.max(cell.last_write);
                    cell.last_write = resume;
                    drop(cell);
                    ctx.set_time(resume);
                    ctx.poke_waiters(self.inner.key, resume);
                    return r;
                }
            }
            ctx.block_on(self.inner.key, label, block_time);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;
    use crate::kernel::Sim;
    use std::collections::VecDeque;

    fn sim() -> Sim {
        Sim::new(MachineConfig::ibm_sp_colony())
    }

    #[test]
    fn wait_resumes_at_write_time() {
        let mut s = sim();
        let v = s.handle().var(false);
        let v2 = v.clone();
        s.spawn("writer", move |ctx| {
            ctx.advance(SimTime::from_us(42));
            v.store(&ctx, true);
        });
        s.spawn("reader", move |ctx| {
            v2.wait(&ctx, "flag", |b| *b);
            assert_eq!(ctx.now(), SimTime::from_us(42));
        });
        s.run().unwrap();
    }

    #[test]
    fn wait_on_already_true_does_not_go_back_in_time() {
        let mut s = sim();
        let v = s.handle().var(true); // true since t=0
        s.spawn("late-reader", move |ctx| {
            ctx.advance(SimTime::from_us(100));
            v.wait(&ctx, "flag", |b| *b);
            // Flag was set long ago; reader keeps its own (later) clock.
            assert_eq!(ctx.now(), SimTime::from_us(100));
        });
        s.run().unwrap();
    }

    #[test]
    fn spurious_poke_consumes_no_time() {
        let mut s = sim();
        let v = s.handle().var(0u32);
        let (va, vb) = (v.clone(), v.clone());
        s.spawn("writer", move |ctx| {
            ctx.advance(SimTime::from_us(10));
            va.store(&ctx, 1); // pokes the waiter, but pred needs 2
            ctx.advance(SimTime::from_us(10));
            va.store(&ctx, 2);
        });
        s.spawn("waiter", move |ctx| {
            vb.wait(&ctx, "reaches 2", |x| *x == 2);
            // The poke at t=10 must not have advanced the clock.
            assert_eq!(ctx.now(), SimTime::from_us(20));
        });
        s.run().unwrap();
    }

    #[test]
    fn wait_take_pops_exactly_once_per_item() {
        let mut s = sim();
        let q = s.handle().var(VecDeque::<u32>::new());
        let qp = q.clone();
        s.spawn("producer", move |ctx| {
            for i in 0..6u32 {
                ctx.advance(SimTime::from_us(5));
                qp.update(&ctx, |q| q.push_back(i));
            }
        });
        let sum = Arc::new(std::sync::atomic::AtomicU32::new(0));
        for c in 0..2 {
            let qc = q.clone();
            let sum = sum.clone();
            s.spawn(format!("consumer{c}"), move |ctx| {
                for _ in 0..3 {
                    let item = qc.wait_take(&ctx, "queue nonempty", |q| q.pop_front());
                    sum.fetch_add(item, std::sync::atomic::Ordering::Relaxed);
                }
            });
        }
        s.run().unwrap();
        assert_eq!(sum.load(std::sync::atomic::Ordering::Relaxed), 15);
    }

    #[test]
    fn update_returns_closure_result() {
        let mut s = sim();
        let v = s.handle().var(10u32);
        s.spawn("lp", move |ctx| {
            let old = v.update(&ctx, |x| {
                let old = *x;
                *x += 5;
                old
            });
            assert_eq!(old, 10);
            assert_eq!(v.get(), 15);
            v.with(|x| assert_eq!(*x, 15));
        });
        s.run().unwrap();
    }

    #[test]
    fn chain_of_waits_accumulates_causal_time() {
        // lp0 sets f0 at 7us; lp_i waits f_{i-1}, works 3us, sets f_i.
        let mut s = sim();
        let h = s.handle();
        let flags: Vec<_> = (0..4).map(|_| h.var(false)).collect();
        let f0 = flags[0].clone();
        s.spawn("head", move |ctx| {
            ctx.advance(SimTime::from_us(7));
            f0.store(&ctx, true);
        });
        for i in 1..4 {
            let prev = flags[i - 1].clone();
            let mine = flags[i].clone();
            s.spawn(format!("link{i}"), move |ctx| {
                prev.wait(&ctx, "prev flag", |b| *b);
                ctx.advance(SimTime::from_us(3));
                mine.store(&ctx, true);
            });
        }
        let last = flags[3].clone();
        s.spawn("tail", move |ctx| {
            last.wait(&ctx, "last flag", |b| *b);
            assert_eq!(ctx.now(), SimTime::from_us(7 + 3 * 3));
        });
        s.run().unwrap();
    }

    #[test]
    fn two_waiters_same_flag_resume_at_same_time() {
        let mut s = sim();
        let v = s.handle().var(false);
        let vw = v.clone();
        s.spawn("writer", move |ctx| {
            ctx.advance(SimTime::from_us(9));
            vw.store(&ctx, true);
        });
        for i in 0..3 {
            let vr = v.clone();
            s.spawn(format!("r{i}"), move |ctx| {
                vr.wait(&ctx, "flag", |b| *b);
                assert_eq!(ctx.now(), SimTime::from_us(9));
            });
        }
        s.run().unwrap();
    }

    #[test]
    fn determinism_across_runs() {
        // Same program, two runs, identical report (times and metrics).
        fn build_and_run() -> crate::kernel::Report {
            let mut s = sim();
            let q = s.handle().var(VecDeque::<usize>::new());
            for i in 0..5 {
                let q = q.clone();
                s.spawn(format!("p{i}"), move |ctx| {
                    ctx.advance(SimTime::from_ns(100 * (i as u64 + 1)));
                    q.update(&ctx, |q| q.push_back(i));
                    if i == 0 {
                        for _ in 0..5 {
                            let _ = q.wait_take(&ctx, "drain", |q| q.pop_front());
                            ctx.advance(SimTime::from_ns(50));
                        }
                    }
                });
            }
            s.run().unwrap()
        }
        let a = build_and_run();
        let b = build_and_run();
        assert_eq!(a.end_time, b.end_time);
        assert_eq!(a.lp_times, b.lp_times);
        assert_eq!(a.metrics, b.metrics);
    }
}
