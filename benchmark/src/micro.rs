//! Layer micro-timings: each times calls into one layer's public
//! functions on the host clock (and, where the layer charges virtual
//! time, reads the virtual clock too). They are the same on every
//! workload; a change to a layer should show here first and in an
//! end-to-end metric second.

use crate::world::small_table_text;
use msg::{MsgWorld, Vendor};
use rma::{LapiCounter, RmaWorld};
use shmem::{ShmBuffer, SpinFlag};
use simnet::{MachineConfig, Sim, SimTime, Topology};
use srm::{PlanShape, SrmModel, SrmTuning, SrmWorld, TuneEntry, TuneKey, TuneOp, TuneTable};
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// `(metric name, value)` rows.
pub type Rows = Vec<(&'static str, f64)>;

fn sim() -> Sim {
    Sim::new(MachineConfig::ibm_sp_colony())
}

/// A slot an LP writes its measurement into.
fn slot<T: Default + Send + 'static>() -> Arc<Mutex<T>> {
    Arc::new(Mutex::new(T::default()))
}

fn take<T: Default>(s: &Arc<Mutex<T>>) -> T {
    std::mem::take(&mut *s.lock().expect("slot poisoned"))
}

fn median_of(mut f: impl FnMut() -> f64, reps: usize) -> f64 {
    let v: Vec<f64> = (0..reps).map(|_| f()).collect();
    crate::stats::median(&v)
}

/// `simnet`: one turn handoff between two LPs through a `SimVar`.
fn simnet_handoff(iters: u64) -> f64 {
    let mut s = sim();
    let v = s.handle().var(0u64);
    let v2 = v.clone();
    s.spawn("ping", move |ctx| {
        for i in 0..iters {
            v.wait(&ctx, "ping", |x| *x == 2 * i);
            v.store(&ctx, 2 * i + 1);
        }
    });
    s.spawn("pong", move |ctx| {
        for i in 0..iters {
            v2.wait(&ctx, "pong", |x| *x == 2 * i + 1);
            v2.store(&ctx, 2 * i + 2);
        }
    });
    let t = Instant::now();
    s.run().expect("ping-pong completes");
    t.elapsed().as_nanos() as f64 / (2 * iters) as f64
}

/// `simnet`: 256 LPs advancing in lock-step — every advance is a turn
/// change picked from 256 candidates.
fn simnet_advance_p256(iters: u64) -> f64 {
    let mut s = sim();
    let window = slot::<f64>();
    for lp in 0..256 {
        let window = window.clone();
        s.spawn(format!("lp{lp}"), move |ctx| {
            let t = Instant::now();
            for _ in 0..iters {
                ctx.advance(SimTime::from_us(1));
            }
            if lp == 0 {
                *window.lock().expect("slot poisoned") = t.elapsed().as_nanos() as f64;
            }
        });
    }
    s.run().expect("lock-step completes");
    take(&window) / (256 * iters) as f64
}

/// `simnet`: spawn and join 256 LPs that do nothing.
fn simnet_spawn_join() -> f64 {
    let t = Instant::now();
    let mut s = sim();
    for lp in 0..256 {
        s.spawn(format!("lp{lp}"), |_ctx| {});
    }
    s.run().expect("no-op LPs complete");
    t.elapsed().as_nanos() as f64 / 1e3 / 256.0
}

/// `shmem`: one-way `SpinFlag` raise → wait between two LPs.
fn shmem_flag_pingpong(iters: u64) -> f64 {
    let mut s = sim();
    let (a, b) = (SpinFlag::new(&s.handle(), 0), SpinFlag::new(&s.handle(), 0));
    let (a2, b2) = (a.clone(), b.clone());
    s.spawn("ping", move |ctx| {
        for i in 1..=iters {
            a.raise(&ctx, i);
            b.wait_ge(&ctx, "ping", i);
        }
    });
    s.spawn("pong", move |ctx| {
        for i in 1..=iters {
            a2.wait_ge(&ctx, "pong", i);
            b2.raise(&ctx, i);
        }
    });
    let t = Instant::now();
    s.run().expect("flag ping-pong completes");
    t.elapsed().as_nanos() as f64 / (2 * iters) as f64
}

/// `shmem`: `ShmBuffer` write + read of 1 MB: `(host ns, virtual ns)`
/// per KB copied.
fn shmem_copy(iters: u64) -> (f64, f64) {
    const LEN: usize = 1 << 20;
    let mut s = sim();
    let out = slot::<(f64, f64)>();
    let out2 = out.clone();
    s.spawn("copier", move |ctx| {
        let buf = ShmBuffer::new(LEN);
        let src = vec![0x5au8; LEN];
        let mut dst = vec![0u8; LEN];
        let (t, v) = (Instant::now(), ctx.now());
        for _ in 0..iters {
            buf.write(&ctx, 0, black_box(&src), 1);
            buf.read(&ctx, 0, black_box(&mut dst), 1);
        }
        let kb = (2 * iters as usize * LEN / 1024) as f64;
        *out2.lock().expect("slot poisoned") = (
            t.elapsed().as_nanos() as f64 / kb,
            (ctx.now() - v).as_ns() / kb,
        );
    });
    s.run().expect("copy loop completes");
    take(&out)
}

/// `rma`: put + `wait_counter` ping-pong between two tasks:
/// `(host ns per round trip, virtual us per one-way put)`.
fn rma_put_pingpong(len: usize, iters: u64) -> (f64, f64) {
    let mut s = sim();
    let world = RmaWorld::new(&mut s, 2);
    let h = s.handle();
    let counters = [LapiCounter::new(&h, 0), LapiCounter::new(&h, 0)];
    let landing = [ShmBuffer::new(len), ShmBuffer::new(len)];
    let out = slot::<(f64, f64)>();
    for me in 0..2 {
        let (rma, out) = (world.endpoint(me), out.clone());
        let (counters, landing) = (counters.clone(), landing.clone());
        s.spawn(format!("task{me}"), move |ctx| {
            let src = ShmBuffer::new(len);
            let peer = 1 - me;
            let (t, v) = (Instant::now(), ctx.now());
            for _ in 0..iters {
                if me == 0 {
                    rma.put(
                        &ctx,
                        peer,
                        &src,
                        0,
                        len,
                        &landing[peer],
                        0,
                        Some(&counters[peer]),
                    );
                    rma.wait_counter(&ctx, &counters[me], 1);
                } else {
                    rma.wait_counter(&ctx, &counters[me], 1);
                    rma.put(
                        &ctx,
                        peer,
                        &src,
                        0,
                        len,
                        &landing[peer],
                        0,
                        Some(&counters[peer]),
                    );
                }
            }
            if me == 0 {
                *out.lock().expect("slot poisoned") = (
                    t.elapsed().as_nanos() as f64 / iters as f64,
                    (ctx.now() - v).as_us() / (2 * iters) as f64,
                );
            }
            rma.shutdown(&ctx);
        });
    }
    s.run().expect("put ping-pong completes");
    take(&out)
}

/// `rma`: active-message ping-pong, host ns per round trip.
fn rma_am_pingpong(iters: u64) -> f64 {
    let mut s = sim();
    let world = RmaWorld::new(&mut s, 2);
    let h = s.handle();
    let out = slot::<f64>();
    for me in 0..2 {
        let (rma, out) = (world.endpoint(me), out.clone());
        // Bumped by this task's handler when the peer's message lands.
        let mine = h.var(0u64);
        let bump = mine.clone();
        rma.register_handler(1, move |ctx, _msg| bump.update(ctx, |c| *c += 1));
        s.spawn(format!("task{me}"), move |ctx| {
            let peer = 1 - me;
            let wait = |i: u64| {
                rma.begin_call(&ctx);
                mine.wait(&ctx, "am ping-pong", move |c| *c >= i);
                rma.end_call(&ctx);
            };
            let t = Instant::now();
            for i in 1..=iters {
                if me == 0 {
                    rma.am(&ctx, peer, 1, vec![0; 8], None);
                    wait(i);
                } else {
                    wait(i);
                    rma.am(&ctx, peer, 1, vec![0; 8], None);
                }
            }
            if me == 0 {
                *out.lock().expect("slot poisoned") = t.elapsed().as_nanos() as f64 / iters as f64;
            }
            rma.shutdown(&ctx);
        });
    }
    s.run().expect("AM ping-pong completes");
    take(&out)
}

/// `msg`: send/recv ping-pong across two nodes: `(host ns per round
/// trip, virtual us one way)`.
fn msg_pingpong(len: usize, iters: u64) -> (f64, f64) {
    let mut s = sim();
    let world = MsgWorld::new(&mut s, Topology::new(2, 1), Vendor::IbmMpi);
    let out = slot::<(f64, f64)>();
    for me in 0..2 {
        let (ep, out) = (world.endpoint(me), out.clone());
        s.spawn(format!("task{me}"), move |ctx| {
            let data = vec![7u8; len];
            let mut back = vec![0u8; len];
            let peer = 1 - me;
            let (t, v) = (Instant::now(), ctx.now());
            for _ in 0..iters {
                if me == 0 {
                    ep.send(&ctx, peer, 1, &data);
                    ep.recv(&ctx, peer, 1, &mut back);
                } else {
                    ep.recv(&ctx, peer, 1, &mut back);
                    ep.send(&ctx, peer, 1, &data);
                }
            }
            if me == 0 {
                *out.lock().expect("slot poisoned") = (
                    t.elapsed().as_nanos() as f64 / iters as f64,
                    (ctx.now() - v).as_us() / (2 * iters) as f64,
                );
            }
        });
    }
    s.run().expect("message ping-pong completes");
    take(&out)
}

/// `plan`: compile one shape on rank 0 of a world that never runs:
/// `(host us per compile, steps in the plan)`.
fn plan_compile(topo: Topology, shape: PlanShape, reps: usize) -> (f64, f64) {
    let mut s = sim();
    let world = SrmWorld::new(&mut s, topo, SrmTuning::default());
    let comm = world.comm(0);
    let key = comm.key(shape);
    let steps = comm.build_plan(&key).len() as f64;
    let us = median_of(
        || {
            let t = Instant::now();
            black_box(comm.build_plan(black_box(&key)));
            t.elapsed().as_nanos() as f64 / 1e3
        },
        reps,
    );
    (us, steps)
}

/// `plan`: a cache hit through `plan_for`, host ns.
fn plan_cache_hit(iters: u64) -> f64 {
    let mut s = sim();
    let topo = Topology::new(2, 2);
    let world = SrmWorld::new(&mut s, topo, SrmTuning::default());
    let out = slot::<f64>();
    for rank in 0..topo.nprocs() {
        let (comm, out) = (world.comm(rank), out.clone());
        s.spawn(format!("rank{rank}"), move |ctx| {
            if rank == 0 {
                let shape = PlanShape::Allreduce { len: 4096 };
                comm.plan_for(&ctx, comm.key(shape.clone()));
                let t = Instant::now();
                for _ in 0..iters {
                    black_box(comm.plan_for(&ctx, comm.key(shape.clone())));
                }
                *out.lock().expect("slot poisoned") = t.elapsed().as_nanos() as f64 / iters as f64;
            }
            comm.shutdown(&ctx);
        });
    }
    s.run().expect("plan-cache loop completes");
    take(&out)
}

/// `tune`: `(lookup ns, parse us per entry)` on a 20-entry table.
fn tune_table(iters: u64) -> (f64, f64) {
    let base = TuneEntry::from_tuning(&SrmTuning::default());
    let mut table = TuneTable::parse(&small_table_text()).expect("own table parses");
    for op in TuneOp::ALL {
        for class in 0..2 {
            table
                .entries
                .entry(TuneKey {
                    op,
                    class,
                    nodes: 0,
                    ranks: 0,
                })
                .or_insert(base);
        }
    }
    let text = table.to_text();
    let entries = table.entries.len() as f64;
    let parse_us = median_of(
        || {
            let t = Instant::now();
            black_box(TuneTable::parse(black_box(&text)).expect("own table parses"));
            t.elapsed().as_nanos() as f64 / 1e3 / entries
        },
        15,
    );
    let t = Instant::now();
    for i in 0..iters {
        let op = TuneOp::ALL[(i % 10) as usize];
        black_box(table.lookup(op, black_box(((i % 7) as usize) << 13), 4, 16));
    }
    (t.elapsed().as_nanos() as f64 / iters as f64, parse_us)
}

/// `world`: `SrmWorld::new` + a handle per rank at P=256, host ms.
fn world_new_p256() -> f64 {
    median_of(
        || {
            let t = Instant::now();
            let mut s = sim();
            let world = SrmWorld::new(&mut s, Topology::new(16, 16), SrmTuning::default());
            for rank in 0..256 {
                black_box(world.comm(rank));
            }
            t.elapsed().as_nanos() as f64 / 1e6
        },
        3,
    )
}

/// `world`: `comm_split` by rank parity on 4x8, host us.
fn world_comm_split_p32() -> f64 {
    median_of(
        || {
            let mut s = sim();
            let world = SrmWorld::new(&mut s, Topology::new(4, 8), SrmTuning::default());
            let colors: Vec<i64> = (0..32).map(|r| r % 2).collect();
            let t = Instant::now();
            black_box(world.comm_split(&colors, &[0; 32]));
            t.elapsed().as_nanos() as f64 / 1e3
        },
        5,
    )
}

/// `model`: one closed-form evaluation, host ns.
fn model_eval(iters: u64) -> f64 {
    let m = SrmModel::new(
        MachineConfig::ibm_sp_colony(),
        Topology::new(16, 16),
        SrmTuning::default(),
    );
    let t = Instant::now();
    for i in 0..iters {
        let len = black_box(4096 + (i as usize % 4) * 8);
        black_box(m.bcast(len));
        black_box(m.reduce(len));
        black_box(m.allreduce(len));
        black_box(m.barrier());
    }
    t.elapsed().as_nanos() as f64 / (4 * iters) as f64
}

/// Run every micro-timing. `scale` divides the iteration counts (quick
/// mode passes 10).
pub fn run_all(scale: u64) -> Rows {
    let n = |iters: u64| (iters / scale).max(4);
    let (copy_host, copy_virt) = shmem_copy(n(40));
    let (put_rtt, put_8b) = rma_put_pingpong(8, n(4000));
    let (_, put_1mb) = rma_put_pingpong(1 << 20, 4);
    let (eager_rtt, eager_8b) = msg_pingpong(8, n(4000));
    let (_, rndv_1mb) = msg_pingpong(1 << 20, 4);
    let (bcast_us, bcast_steps) = plan_compile(
        Topology::new(16, 16),
        PlanShape::Bcast { len: 4096, root: 0 },
        15,
    );
    let (allred_us, allred_steps) = plan_compile(
        Topology::new(4, 16),
        PlanShape::Allreduce { len: 1 << 20 },
        15,
    );
    let (a2a_us, a2a_steps) = plan_compile(
        Topology::new(4, 4),
        PlanShape::Alltoall { len: 256 << 10 },
        15,
    );
    let (lookup_ns, parse_us) = tune_table(n(200_000));
    vec![
        ("simnet.handoff_ns", simnet_handoff(n(10_000))),
        ("simnet.advance_ns_p256", simnet_advance_p256(n(40))),
        (
            "simnet.spawn_join_us_per_lp",
            median_of(simnet_spawn_join, 3),
        ),
        ("shmem.flag_pingpong_ns", shmem_flag_pingpong(n(10_000))),
        ("shmem.copy_host_ns_per_kb", copy_host),
        ("shmem.copy_virt_ns_per_kb", copy_virt),
        ("rma.put_rtt_host_ns", put_rtt),
        ("rma.am_rtt_host_ns", rma_am_pingpong(n(4000))),
        ("rma.put_8b_virt_us", put_8b),
        ("rma.put_1mb_virt_us", put_1mb),
        ("plan.compile_us.bcast_4k_p256", bcast_us),
        ("plan.compile_us.allreduce_1m_p64", allred_us),
        ("plan.compile_us.alltoall_256k_p16", a2a_us),
        ("plan.steps.bcast_4k_p256", bcast_steps),
        ("plan.steps.allreduce_1m_p64", allred_steps),
        ("plan.steps.alltoall_256k_p16", a2a_steps),
        ("plan.cache_hit_ns", plan_cache_hit(n(20_000))),
        ("tune.lookup_ns", lookup_ns),
        ("tune.parse_us_per_entry", parse_us),
        ("world.new_ms_p256", world_new_p256()),
        ("world.comm_split_us_p32", world_comm_split_p32()),
        ("model.eval_ns", model_eval(n(100_000))),
        ("msg.eager_rtt_host_ns", eager_rtt),
        ("msg.eager_8b_virt_us", eager_8b),
        ("msg.rndv_1mb_virt_us", rndv_1mb),
    ]
}
