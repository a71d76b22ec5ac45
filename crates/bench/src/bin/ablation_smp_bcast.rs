//! Ablations A2 (paper §2.2) and A5 (paper §4): the intra-node
//! broadcast algorithms SRM was compared against, on one 16-way node.
//!
//! * **A2** — the paper implemented tree-based broadcasts, then found
//!   the flat two-buffer algorithm faster despite read contention.
//! * **A5** — the paper argues SRM's per-pair flags beat the
//!   barrier-synchronized buffer arbitration of Sistare et al. \[11\]
//!   because a full barrier makes the whole node wait for the slowest
//!   task *twice per buffer*. One task arrives late at every call and
//!   the table shows how much of the delay each algorithm absorbs.
//!
//! The flat column is the library: on a single node
//! `Collectives::broadcast` *is* the two-buffer algorithm. The two
//! rejected algorithms are experiments, not part of SRM, so they live
//! here, written directly over the `shmem` primitives with flags and
//! buffers of their own.

use collops::Collectives;
use shmem::{FlagBank, ShmBuffer, SpinFlag};
use simnet::{Ctx, MachineConfig, Sim, SimHandle, SimTime, Topology};
use srm::{embed, SrmComm, SrmTuning, SrmWorld, TreeKind};
use std::sync::{Arc, Mutex};

/// Chunk of the tree variant: each slot stages two of them (one per
/// parity side) for its children.
const TREE_CHUNK: usize = 16 << 10;

/// Shared state of the **tree-based** broadcast (§2.2: "this \[flat\]
/// algorithm has achieved a much better performance than the tree-based
/// algorithms"): data store-and-forwards down a binomial tree of
/// per-slot shared buffers, so every level adds a full copy to the
/// critical path.
struct TreeBoard {
    /// Per-slot staging buffer, double-buffered by chunk parity.
    stage: Vec<ShmBuffer>,
    /// Cumulative chunks each slot has staged.
    ready: Vec<SpinFlag>,
    /// Cumulative reads of each slot's staged chunks, over all of its
    /// children.
    done: Vec<SpinFlag>,
}

impl TreeBoard {
    fn new(handle: &SimHandle, slots: usize) -> Self {
        let flags = || (0..slots).map(|_| SpinFlag::new(handle, 0)).collect();
        TreeBoard {
            stage: (0..slots).map(|_| ShmBuffer::new(2 * TREE_CHUNK)).collect(),
            ready: flags(),
            done: flags(),
        }
    }

    /// Slot `my`'s part of broadcasting `buf[..len]` from slot
    /// `writer`; `seq` is the slot's count of chunks broadcast so far.
    /// The drain guard counts reads per child, so one board serves one
    /// writer.
    fn bcast(
        &self,
        ctx: &Ctx,
        seq: &mut u64,
        my: usize,
        buf: &ShmBuffer,
        len: usize,
        writer: usize,
    ) {
        let p = self.stage.len();
        let v = (my + p - writer) % p;
        let slot_of = |v: usize| (v + writer) % p;
        let parent = embed::parent(TreeKind::Binomial, v, p).map(slot_of);
        let kids = embed::children(TreeKind::Binomial, v, p).len() as u64;
        for off in (0..len).step_by(TREE_CHUNK) {
            let clen = TREE_CHUNK.min(len - off);
            let side = (*seq % 2) as usize * TREE_CHUNK;
            if let Some(parent) = parent {
                // One copy per tree level: out of the parent's buffer.
                self.ready[parent].wait_ge(ctx, "tree parent chunk", *seq + 1);
                self.stage[parent].copy_to(side, buf, off, clen);
                buf.charge_copy(ctx, clen, 2);
                self.done[parent].fetch_add(ctx, 1);
            }
            if kids > 0 {
                // Store-and-forward: stage the chunk for my children
                // once they have all read the side being reused.
                if *seq >= 2 {
                    self.done[my].wait_ge(ctx, "tree buffer drained", (*seq - 1) * kids);
                }
                buf.copy_to(off, &self.stage[my], side, clen);
                buf.charge_copy(ctx, clen, 1);
                self.ready[my].raise(ctx, *seq + 1);
            }
            *seq += 1;
        }
    }
}

/// Shared state of the **barrier-synchronized** broadcast in the style
/// of Sistare et al. \[11\]: access to one shared buffer is arbitrated
/// with full node barriers instead of per-pair flags — two barriers per
/// buffer-full of data.
struct SistareBoard {
    buf: ShmBuffer,
    /// Flat-barrier flags, one per slot; slot 0 collects and releases.
    barrier: FlagBank,
}

impl SistareBoard {
    fn new(handle: &SimHandle, slots: usize) -> Self {
        SistareBoard {
            buf: ShmBuffer::new(SrmTuning::SMP_BUF),
            barrier: FlagBank::new(handle, slots, 0),
        }
    }

    fn node_barrier(&self, ctx: &Ctx, my: usize) {
        let others = &self.barrier.flags()[1..];
        if my == 0 {
            for flag in others {
                flag.wait_eq(ctx, "barrier check-in", 1);
            }
            for flag in others {
                flag.set(ctx, 0);
            }
        } else {
            self.barrier.flag(my).set(ctx, 1);
            self.barrier.flag(my).wait_eq(ctx, "barrier release", 0);
        }
    }

    /// Slot `my`'s part of broadcasting `buf[..len]` from slot `writer`.
    fn bcast(&self, ctx: &Ctx, my: usize, buf: &ShmBuffer, len: usize, writer: usize) {
        let readers = self.barrier.len() - 1;
        for off in (0..len).step_by(self.buf.capacity()) {
            let clen = self.buf.capacity().min(len - off);
            // Barrier #1: everyone (including the writer) agrees the
            // single buffer is free.
            self.node_barrier(ctx, my);
            if my == writer {
                buf.copy_to(off, &self.buf, 0, clen);
                buf.charge_copy(ctx, clen, 1);
            }
            // Barrier #2: the data is published.
            self.node_barrier(ctx, my);
            if my != writer {
                self.buf.copy_to(0, buf, off, clen);
                buf.charge_copy(ctx, clen, readers);
            }
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum Variant {
    Flat,
    Tree,
    Sistare,
}

/// One rank's handle on its node's broadcast of one variant.
enum Seat {
    Flat(SrmComm),
    Tree {
        board: Arc<TreeBoard>,
        my: usize,
        seq: u64,
    },
    Sistare {
        board: Arc<SistareBoard>,
        my: usize,
    },
}

impl Seat {
    /// One seat per rank of a single `slots`-way node.
    fn node(sim: &mut Sim, variant: Variant, slots: usize) -> Vec<Seat> {
        let handle = sim.handle();
        match variant {
            Variant::Flat => {
                let topo = Topology::new(1, slots);
                let world = SrmWorld::new(sim, topo, SrmTuning::default());
                (0..slots).map(|r| Seat::Flat(world.comm(r))).collect()
            }
            Variant::Tree => {
                let board = Arc::new(TreeBoard::new(&handle, slots));
                let seat = |my| Seat::Tree {
                    board: board.clone(),
                    my,
                    seq: 0,
                };
                (0..slots).map(seat).collect()
            }
            Variant::Sistare => {
                let board = Arc::new(SistareBoard::new(&handle, slots));
                let seat = |my| Seat::Sistare {
                    board: board.clone(),
                    my,
                };
                (0..slots).map(seat).collect()
            }
        }
    }

    fn bcast(&mut self, ctx: &Ctx, buf: &ShmBuffer, len: usize, writer: usize) {
        match self {
            Seat::Flat(comm) => comm.broadcast(ctx, buf, len, writer),
            Seat::Tree { board, my, seq } => board.bcast(ctx, seq, *my, buf, len, writer),
            Seat::Sistare { board, my } => board.bcast(ctx, *my, buf, len, writer),
        }
    }

    /// The rank's last call.
    fn finish(self, ctx: &Ctx) {
        if let Seat::Flat(comm) = self {
            comm.shutdown(ctx);
        }
    }
}

/// The rank that arrives `skew` late at every timed call (a daemon hit
/// it).
const STRAGGLER: usize = 7;

/// Mean time of `iters` broadcasts of `len` bytes from rank 0 on a
/// 16-way node, after one warm-up call.
fn run(variant: Variant, len: usize, iters: usize, skew: SimTime) -> SimTime {
    let mut sim = Sim::new(MachineConfig::ibm_sp_colony());
    let out = Arc::new(Mutex::new(Vec::new()));
    for (rank, mut seat) in Seat::node(&mut sim, variant, 16).into_iter().enumerate() {
        let out = out.clone();
        sim.spawn(format!("rank{rank}"), move |ctx| {
            let buf = ShmBuffer::new(len);
            seat.bcast(&ctx, &buf, len, 0);
            let t0 = ctx.now();
            for _ in 0..iters {
                if rank == STRAGGLER {
                    ctx.advance(skew);
                }
                seat.bcast(&ctx, &buf, len, 0);
            }
            out.lock().unwrap().push((t0, ctx.now()));
            seat.finish(&ctx);
        });
    }
    sim.run().expect("run completes");
    let samples = out.lock().unwrap();
    let start = samples.iter().map(|s| s.0).max().unwrap();
    let end = samples.iter().map(|s| s.1).max().unwrap();
    SimTime::from_ps((end - start).as_ps() / iters as u64)
}

fn main() {
    println!("Ablation A2: intra-node broadcast algorithm, 16-way node\n");
    println!(
        "{:>10} {:>12} {:>12} {:>14}",
        "bytes", "flat (us)", "tree (us)", "sistare (us)"
    );
    for len in [64usize, 1024, 16 << 10, 256 << 10, 1 << 20] {
        let iters = if len >= 256 << 10 { 3 } else { 8 };
        let us = |variant| run(variant, len, iters, SimTime::ZERO).as_us();
        println!(
            "{:>10} {:>12.1} {:>12.1} {:>14.1}",
            len,
            us(Variant::Flat),
            us(Variant::Tree),
            us(Variant::Sistare),
        );
    }
    println!("\npaper's finding: flat wins despite contention; barrier-synchronized [11] is slowest for small messages");

    println!("\nAblation A5: straggler tolerance, 8 KB broadcast on a 16-way node\n");
    println!(
        "{:>12} {:>16} {:>20}",
        "skew (us)", "SRM flags (us)", "barrier-sync (us)"
    );
    for skew in [0u64, 10, 50, 200] {
        let us = |variant| run(variant, 8 << 10, 6, SimTime::from_us(skew)).as_us();
        println!(
            "{:>12} {:>16.1} {:>20.1}",
            skew,
            us(Variant::Flat),
            us(Variant::Sistare)
        );
    }
    println!("\npaper §4: flag-based coordination is 'less susceptible to the processor late arrivals and delays'");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic, round-dependent payload.
    fn pattern(len: usize, round: u8) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(31) ^ round)
            .collect()
    }

    /// The flat winner and both comparative variants must move the
    /// right bytes, including across repeated, chunked operations from
    /// a writer that is not slot 0.
    #[test]
    fn smp_bcast_variants_all_correct() {
        const WRITER: usize = 3;
        for variant in [Variant::Flat, Variant::Tree, Variant::Sistare] {
            let mut sim = Sim::new(MachineConfig::ibm_sp_colony());
            for (rank, mut seat) in Seat::node(&mut sim, variant, 8).into_iter().enumerate() {
                sim.spawn(format!("rank{rank}"), move |ctx| {
                    for (round, len) in [100usize, 40 << 10, 100 << 10].into_iter().enumerate() {
                        let sent = pattern(len, round as u8);
                        let buf = ShmBuffer::new(len);
                        if rank == WRITER {
                            buf.with_mut(|d| d.copy_from_slice(&sent));
                        }
                        seat.bcast(&ctx, &buf, len, WRITER);
                        assert!(
                            buf.with(|d| d == &sent[..]),
                            "{variant:?}, rank {rank}, {len} bytes"
                        );
                    }
                    seat.finish(&ctx);
                });
            }
            sim.run().expect("every rank reads what the writer sent");
        }
    }
}
