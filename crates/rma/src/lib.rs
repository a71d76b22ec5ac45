//! # rma — a LAPI-like remote memory access layer
//!
//! Models the lowest-level communication interface of the paper's
//! platform: LAPI on the IBM SP. Provides nonblocking [`Rma::put`],
//! zero-byte counter puts, active messages with registered handlers,
//! `LAPI_Waitcntr`-style [`LapiCounter`]s, and the interrupt/polling
//! reception semantics of the paper's §2.3 — all over the [`simnet`]
//! virtual-time kernel.
//!
//! One hidden **dispatcher** logical process per task plays the role of
//! the LAPI threads; see [`world`] for the wire and reception models.

#![deny(missing_docs)]

pub mod counter;
pub mod world;

pub use counter::{CounterFamily, LapiCounter};
pub use world::{AmMsg, Rma, RmaWorld};

#[cfg(test)]
mod tests {
    use super::*;
    use shmem::ShmBuffer;
    use simnet::{MachineConfig, Sim, SimTime};

    /// Convenience: 2-task world; task closures receive (ctx, rma).
    fn two_task_sim(
        cfg: MachineConfig,
        f0: impl FnOnce(&simnet::Ctx, Rma) + Send + 'static,
        f1: impl FnOnce(&simnet::Ctx, Rma) + Send + 'static,
    ) -> simnet::Report {
        let mut sim = Sim::new(cfg);
        let world = RmaWorld::new(&mut sim, 2);
        let (r0, r1) = (world.endpoint(0), world.endpoint(1));
        sim.spawn("task0", move |ctx| {
            let rma = r0;
            f0(&ctx, rma.clone());
            rma.shutdown(&ctx);
        });
        sim.spawn("task1", move |ctx| {
            let rma = r1;
            f1(&ctx, rma.clone());
            rma.shutdown(&ctx);
        });
        sim.run().unwrap()
    }

    #[test]
    fn put_delivers_data_and_counter() {
        let cfg = MachineConfig::uniform_test();
        let mut sim = Sim::new(cfg);
        let world = RmaWorld::new(&mut sim, 2);
        let h = sim.handle();
        let src = ShmBuffer::new(64);
        src.with_mut(|d| d.iter_mut().enumerate().for_each(|(i, b)| *b = i as u8));
        let dst = ShmBuffer::new(64);
        let cntr = LapiCounter::new(&h, 0);

        let (r0, r1) = (world.endpoint(0), world.endpoint(1));
        let (s, d, c) = (src.clone(), dst.clone(), cntr.clone());
        sim.spawn("origin", move |ctx| {
            r0.put(&ctx, 1, &s, 0, 64, &d, 0, Some(&c));
            r0.shutdown(&ctx);
        });
        let (d2, c2) = (dst.clone(), cntr.clone());
        sim.spawn("target", move |ctx| {
            r1.wait_counter(&ctx, &c2, 1);
            d2.with(|got| assert_eq!(got[..8], [0, 1, 2, 3, 4, 5, 6, 7]));
            r1.shutdown(&ctx);
        });
        let r = sim.run().unwrap();
        assert_eq!(r.metrics.rma_puts, 1);
        assert_eq!(r.metrics.net_messages, 1);
        assert_eq!(r.metrics.net_bytes, 64);
        // While the target waits in a LAPI call, no interrupt is taken.
        assert_eq!(r.metrics.interrupts, 0);
    }

    #[test]
    fn put_timing_follows_wire_model() {
        // uniform_test: origin overhead 1us, 1000 ps/B, latency 10us,
        // target overhead 1us, counter check 0.1us.
        let cfg = MachineConfig::uniform_test();
        let bytes = 1000usize; // 1us serialization
        two_task_sim(
            cfg,
            move |ctx, rma| {
                let src = ShmBuffer::new(bytes);
                let dst = ShmBuffer::new(bytes);
                let done = LapiCounter::new(&ctx.handle(), 0);
                rma.put(ctx, 1, &src, 0, bytes, &dst, 0, Some(&done));
                // Nonblocking: only the origin overhead was charged.
                assert_eq!(ctx.now(), SimTime::from_us(1));
            },
            move |ctx, rma| {
                // Poll to allow delivery without interrupts; the window
                // outlives the arrival (1+1+10+1 = 13us).
                rma.poll(ctx, SimTime::from_us(30));
                assert_eq!(ctx.now(), SimTime::from_us(30));
            },
        );
    }

    #[test]
    fn interrupt_cost_charged_when_not_polling() {
        // Target never polls but has interrupts on (default): delivery
        // takes the interrupt path.
        let cfg = MachineConfig::uniform_test();
        let r = two_task_sim(
            cfg,
            |ctx, rma| {
                let src = ShmBuffer::new(8);
                let dst = ShmBuffer::new(8);
                rma.put(ctx, 1, &src, 0, 8, &dst, 0, None);
                ctx.advance(SimTime::from_us(100)); // outlive delivery
            },
            |ctx, _rma| {
                ctx.advance(SimTime::from_us(100)); // busy, not polling
            },
        );
        assert_eq!(r.metrics.interrupts, 1);
    }

    #[test]
    fn interrupts_disabled_stall_until_poll() {
        let cfg = MachineConfig::uniform_test();
        let mut sim = Sim::new(cfg);
        let world = RmaWorld::new(&mut sim, 2);
        let h = sim.handle();
        let done = LapiCounter::new(&h, 0);
        let (r0, r1) = (world.endpoint(0), world.endpoint(1));
        let c0 = done.clone();
        sim.spawn("origin", move |ctx| {
            let src = ShmBuffer::new(8);
            let dst = ShmBuffer::new(8);
            r0.put(&ctx, 1, &src, 0, 8, &dst, 0, Some(&c0));
            ctx.advance(SimTime::from_us(200));
            r0.shutdown(&ctx);
        });
        let c1 = done;
        sim.spawn("target", move |ctx| {
            r1.set_interrupts(&ctx, false);
            // Busy far past the wire arrival (~12us):
            ctx.advance(SimTime::from_us(100));
            assert_eq!(c1.peek(), 0, "delivery must stall with interrupts off");
            // First LAPI call lets the dispatcher land it.
            r1.wait_counter(&ctx, &c1, 1);
            assert!(ctx.now() >= SimTime::from_us(100));
            r1.shutdown(&ctx);
        });
        let r = sim.run().unwrap();
        assert_eq!(r.metrics.interrupts, 0);
    }

    /// One 8-byte put issued at `put_at` to a target that opens
    /// `windows` nested quiet windows at once, closes all but the
    /// outermost at 50 µs, computes until 100 µs, closes that one (done
    /// at 100.1 µs) and computes on without polling. Returns the run's
    /// interrupt count and when the put landed.
    fn put_around_reenable(put_at: SimTime, windows: usize) -> (u64, SimTime) {
        let mut sim = Sim::new(MachineConfig::uniform_test());
        let world = RmaWorld::new(&mut sim, 2);
        let done = LapiCounter::new(&sim.handle(), 0);
        let landed = sim.handle().var(SimTime::ZERO);
        let (r0, r1) = (world.endpoint(0), world.endpoint(1));
        let c0 = done.clone();
        sim.spawn("origin", move |ctx| {
            ctx.advance(put_at);
            let (src, dst) = (ShmBuffer::new(8), ShmBuffer::new(8));
            r0.put(&ctx, 1, &src, 0, 8, &dst, 0, Some(&c0));
            r0.shutdown(&ctx);
        });
        sim.spawn("target", move |ctx| {
            for _ in 0..windows {
                r1.set_interrupts(&ctx, false);
            }
            ctx.advance(SimTime::from_us(50) - ctx.now());
            for _ in 1..windows {
                r1.set_interrupts(&ctx, true);
            }
            ctx.advance(SimTime::from_us(100) - ctx.now());
            r1.set_interrupts(&ctx, true);
            ctx.advance(SimTime::from_us(200));
            r1.shutdown(&ctx);
        });
        // An observer outside LAPI: it neither polls nor blocks delivery.
        let l = landed.clone();
        sim.spawn("observer", move |ctx| {
            done.var.wait(&ctx, "put landed", |v| *v >= 1);
            l.store(&ctx, ctx.now());
        });
        let r = sim.run().unwrap();
        (r.metrics.interrupts, landed.get())
    }

    #[test]
    fn reenabling_interrupts_polls_what_stalled() {
        // Reaches the adapter at 11.008 µs and stalls; the re-enable at
        // 100.1 µs takes it by polling: only the 1 µs target overhead.
        let (interrupts, landed) = put_around_reenable(SimTime::ZERO, 1);
        assert_eq!(interrupts, 0);
        assert_eq!(landed, SimTime::from_ns(101_100));
    }

    #[test]
    fn arrival_after_reenable_still_takes_an_interrupt() {
        // Reaches the adapter at 131.008 µs while the target computes with
        // interrupts on: 20 µs interrupt + 1 µs overhead.
        let (interrupts, landed) = put_around_reenable(SimTime::from_us(120), 1);
        assert_eq!(interrupts, 1);
        assert_eq!(landed, SimTime::from_ns(152_008));
    }

    #[test]
    fn nested_quiet_windows_keep_interrupts_off_until_the_outer_one_closes() {
        // Two windows: the `true` at 50 µs closes only the inner one, so
        // the put reaching the adapter at 71.008 µs stalls instead of
        // taking an interrupt, and the outer `true` polls it at 100.1 µs.
        let (interrupts, landed) = put_around_reenable(SimTime::from_us(60), 2);
        assert_eq!(interrupts, 0);
        assert_eq!(landed, SimTime::from_ns(101_100));
    }

    #[test]
    fn closing_an_inner_quiet_window_still_polls() {
        // Reaches the adapter at 11.008 µs and stalls; the inner `true`
        // (done at 50.1 µs) leaves interrupts off but is a LAPI call, so
        // it takes the put by polling there.
        let (interrupts, landed) = put_around_reenable(SimTime::ZERO, 2);
        assert_eq!(interrupts, 0);
        assert_eq!(landed, SimTime::from_ns(51_100));
    }

    #[test]
    fn back_to_back_puts_serialize_on_origin_link() {
        // Two 10_000-byte puts issued immediately: second must wait for
        // the first to finish serializing (10us each at 1000 ps/B).
        let cfg = MachineConfig::uniform_test();
        let mut sim = Sim::new(cfg);
        let world = RmaWorld::new(&mut sim, 2);
        let h = sim.handle();
        let done = LapiCounter::new(&h, 0);
        let (r0, r1) = (world.endpoint(0), world.endpoint(1));
        let c0 = done.clone();
        sim.spawn("origin", move |ctx| {
            let src = ShmBuffer::new(10_000);
            let dst = ShmBuffer::new(20_000);
            r0.put(&ctx, 1, &src, 0, 10_000, &dst, 0, Some(&c0));
            r0.put(&ctx, 1, &src, 0, 10_000, &dst, 10_000, Some(&c0));
            r0.shutdown(&ctx);
        });
        sim.spawn("target", move |ctx| {
            r1.wait_counter(&ctx, &done, 2);
            // First put: issued at 1us, ser 10us, latency 10us, ovh 1us = 22us.
            // Second: issue at 2us, ser starts when link free (11us),
            // done 21us, +10+1 = 32us. Plus counter check 0.1us.
            assert_eq!(ctx.now(), SimTime::from_us(32) + SimTime::from_ns(100));
            r1.shutdown(&ctx);
        });
        sim.run().unwrap();
    }

    #[test]
    fn zero_byte_put_bumps_counter_only() {
        let cfg = MachineConfig::uniform_test();
        let mut sim = Sim::new(cfg);
        let world = RmaWorld::new(&mut sim, 2);
        let c = LapiCounter::new(&sim.handle(), 0);
        let (r0, r1) = (world.endpoint(0), world.endpoint(1));
        let c0 = c.clone();
        sim.spawn("a", move |ctx| {
            r0.put_counter(&ctx, 1, &c0);
            r0.shutdown(&ctx);
        });
        let c1 = c.clone();
        sim.spawn("b", move |ctx| {
            r1.wait_counter(&ctx, &c1, 1);
            r1.shutdown(&ctx);
        });
        let rep = sim.run().unwrap();
        assert_eq!(rep.metrics.net_bytes, 0);
        assert_eq!(rep.metrics.net_messages, 1);
        // wait_counter consumed the value.
        assert_eq!(c.peek(), 0);
    }

    #[test]
    fn am_handler_runs_on_dispatcher_with_payload_and_handle() {
        let cfg = MachineConfig::uniform_test();
        let mut sim = Sim::new(cfg);
        let world = RmaWorld::new(&mut sim, 2);
        let h = sim.handle();
        let landed = h.var(false);
        let (r0, r1) = (world.endpoint(0), world.endpoint(1));

        // Task 1 registers a handler that records the address it was sent.
        let landed2 = landed.clone();
        r1.register_handler(7, move |hctx, msg| {
            assert_eq!(msg.from, 0);
            assert_eq!(msg.bytes, vec![9, 9]);
            let buf = msg.buf.expect("handle attached");
            buf.with_mut(|d| d[0] = 42);
            landed2.store(hctx, true);
        });

        let user_buf = ShmBuffer::new(16);
        let ub = user_buf.clone();
        sim.spawn("sender", move |ctx| {
            r0.am(&ctx, 1, 7, vec![9, 9], Some(ub));
            r0.shutdown(&ctx);
        });
        let landed3 = landed.clone();
        sim.spawn("receiver", move |ctx| {
            landed3.wait(&ctx, "AM landed", |b| *b);
            r1.shutdown(&ctx);
        });
        let r = sim.run().unwrap();
        assert_eq!(user_buf.with(|d| d[0]), 42);
        assert_eq!(r.metrics.rma_ams, 1);
    }

    #[test]
    fn dispatcher_starvation_penalty_without_yield() {
        let mut cfg_yield = MachineConfig::uniform_test();
        cfg_yield.yield_enabled = true;
        let mut cfg_spin = MachineConfig::uniform_test();
        cfg_spin.yield_enabled = false;

        let run = |cfg: MachineConfig| -> SimTime {
            let mut sim = Sim::new(cfg);
            let world = RmaWorld::new(&mut sim, 2);
            let c = LapiCounter::new(&sim.handle(), 0);
            let (r0, r1) = (world.endpoint(0), world.endpoint(1));
            let c0 = c.clone();
            sim.spawn("a", move |ctx| {
                let b = ShmBuffer::new(8);
                r0.put(&ctx, 1, &b, 0, 8, &b, 0, Some(&c0));
                r0.shutdown(&ctx);
            });
            sim.spawn("b", move |ctx| {
                r1.wait_counter(&ctx, &c, 1);
                r1.shutdown(&ctx);
            });
            sim.run().unwrap().end_time
        };
        let with_yield = run(cfg_yield);
        let without_yield = run(cfg_spin);
        assert!(
            without_yield > with_yield,
            "spin-without-yield must slow LAPI delivery ({without_yield} vs {with_yield})"
        );
    }

    #[test]
    fn arrivals_delivered_earliest_first() {
        // Rank 0 and rank 2 both put to rank 1; rank 2's put is issued
        // later but is tiny, rank 0's is huge. Both must land within one
        // polling window (the tiny one is not stuck behind the big one).
        let cfg = MachineConfig::uniform_test();
        let mut sim = Sim::new(cfg);
        let world = RmaWorld::new(&mut sim, 3);
        let h = sim.handle();
        let big_done = LapiCounter::new(&h, 0);
        let small_done = LapiCounter::new(&h, 0);
        let dst = ShmBuffer::new(200_000);

        let (r0, r1, r2) = (world.endpoint(0), world.endpoint(1), world.endpoint(2));
        let (d0, bd) = (dst.clone(), big_done.clone());
        sim.spawn("big", move |ctx| {
            let src = ShmBuffer::new(100_000);
            r0.put(&ctx, 1, &src, 0, 100_000, &d0, 0, Some(&bd)); // ser 100us
            r0.shutdown(&ctx);
        });
        let (bd1, sd1) = (big_done.clone(), small_done.clone());
        sim.spawn("middle", move |ctx| {
            r1.poll(&ctx, SimTime::from_us(200));
            assert_eq!(sd1.peek(), 1, "small put landed");
            assert_eq!(bd1.peek(), 1, "big put landed");
            r1.shutdown(&ctx);
        });
        let (d2, sd2) = (dst.clone(), small_done.clone());
        sim.spawn("small", move |ctx| {
            ctx.advance(SimTime::from_us(5));
            let src = ShmBuffer::new(8);
            r2.put(&ctx, 1, &src, 0, 8, &d2, 100_000, Some(&sd2));
            r2.shutdown(&ctx);
        });
        sim.run().unwrap();
    }

    #[test]
    fn inbound_adapter_serializes_overlapping_streams() {
        // Two origins each put 50_000 B to rank 2 at the same instant.
        // Outbound they serialize on their own links concurrently, but
        // the *target's* adapter must take them one after the other:
        // total completion >= 2 x wire time of one stream.
        let cfg = MachineConfig::uniform_test(); // 1000 ps/B, 10us latency
        let mut sim = Sim::new(cfg);
        let world = RmaWorld::new(&mut sim, 3);
        let h = sim.handle();
        let done = LapiCounter::new(&h, 0);
        let dst = ShmBuffer::new(100_000);
        for origin in 0..2usize {
            let e = world.endpoint(origin);
            let (d, c) = (dst.clone(), done.clone());
            sim.spawn(format!("o{origin}"), move |ctx| {
                let src = ShmBuffer::new(50_000);
                e.put(&ctx, 2, &src, 0, 50_000, &d, origin * 50_000, Some(&c));
                e.shutdown(&ctx);
            });
        }
        let e2 = world.endpoint(2);
        let finish = sim.handle().var(SimTime::ZERO);
        let f2 = finish.clone();
        sim.spawn("target", move |ctx| {
            e2.wait_counter(&ctx, &done, 2);
            f2.store(&ctx, ctx.now());
            e2.shutdown(&ctx);
        });
        sim.run().unwrap();
        // One stream: ~50us wire. Two overlapping streams into one
        // adapter: second lands at >= 100us + latency.
        assert!(
            finish.get() >= SimTime::from_us(110),
            "inbound streams not serialized: {}",
            finish.get()
        );
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_handler_rejected() {
        let mut sim = Sim::new(MachineConfig::uniform_test());
        let world = RmaWorld::new(&mut sim, 1);
        let e = world.endpoint(0);
        e.register_handler(1, |_, _| {});
        e.register_handler(1, |_, _| {});
    }
}
