//! Intra-node collective building blocks (paper §2.2), as **planners**:
//! each routine emits its step sequence into a [`PlanBuilder`] instead
//! of executing directly; the [engine](crate::engine) replays the
//! schedule.
//!
//! * **Broadcast** — the flat two-buffer algorithm of Figure 3 that
//!   beat the tree-based variants: the writer alternates between two
//!   shared buffers guarded by per-reader READY flags; all readers copy
//!   concurrently (paying bus contention), which still wins because the
//!   tree's extra store-and-forward hops cost more.
//! * **Reduce** — the binomial-tree algorithm of Figure 2: only the
//!   lowest tree level copies into shared memory; every interior level
//!   is pure operator execution reading the children's shared buffers,
//!   and the subtree root deposits its result directly at the
//!   destination.
//! * **Barrier** — the flat flag algorithm: one cache-line flag per
//!   process, master collects and resets.
//!
//! The broadcast is exposed as *cell* operations: the message is cut on
//! a global grid of [`SrmTuning::SMP_BUF`]-byte cells, and each cell
//! moves through one side of the node's buffer pair (side = the node's
//! cumulative pair-use sequence mod 2 — "consecutive broadcast
//! operations alternate between the buffers"). The inter-node planners
//! interleave cell writes with network steps to build their pipelines.

use crate::embed::{children_ascending, TreeKind};
use crate::inter::{poff, seq};
use crate::plan::{
    BufRef, CopyCost, FlagRef, Hand, Off, PlanBuilder, SeqBase, Side, Step, Until, Val, WaitCell,
};
use crate::tuning::SrmTuning;
use crate::world::SrmComm;
use shmem::PairUse;
use simnet::Rank;

/// The last operator pass writes the accumulator straight to its
/// destination in the user buffer (no intermediate buffer, §4).
pub(crate) fn plan_acc_to_user(b: &mut PlanBuilder, off: usize, len: usize) {
    plan_stage_acc(b, BufRef::User, Off::Lit(off), len);
}

/// Lay the accumulator down at `dst` — the operator's output stream,
/// so no charged copy.
pub(crate) fn plan_stage_acc(b: &mut PlanBuilder, dst: BufRef, dst_off: Off, len: usize) {
    b.push(Step::ShmCopy {
        src: BufRef::Acc,
        src_off: Off::Lit(0),
        dst,
        dst_off,
        len,
        cost: CopyCost::Free,
    });
}

/// Release pair use `rel`: every slot that takes part in a use, its
/// writer included, releases it after its last read of the side. A
/// writer forwarding the side onto the wire or copying its own part
/// out reads it after the publish, and the next writer may not claim
/// the side before those reads are done.
pub(crate) fn plan_pair_release(b: &mut PlanBuilder, rel: u64) {
    b.push(Step::PairRelease { side: Side { rel } });
}

/// The side of my node's pair that use `rel` writes, as a buffer
/// operand.
pub(crate) fn pair_buf(rel: u64) -> BufRef {
    BufRef::Pair { side: Side { rel } }
}

/// The global cell grid of a `len`-byte payload: `(offset, length)` of
/// cell `j`.
pub(crate) fn smp_cell(len: usize, j: usize) -> (usize, usize) {
    let off = j * SrmTuning::SMP_BUF;
    (off, SrmTuning::SMP_BUF.min(len - off))
}

/// Number of cells in a `len`-byte payload.
pub(crate) fn smp_cells(len: usize) -> usize {
    len.div_ceil(SrmTuning::SMP_BUF)
}

impl SrmComm {
    /// The other tasks on my node (at least one): how many concurrent
    /// streams share the bus when everyone but one task copies.
    pub(crate) fn peer_streams(&self) -> usize {
        self.cslots_here().saturating_sub(1).max(1)
    }

    /// Writer leg of pair use `rel` (Figure 3): claim the parity
    /// buffer, fill it from `from`, raise every other task's READY.
    /// The writer still owes [`plan_pair_release`] after its last read
    /// of the side.
    pub(crate) fn plan_pair_write(
        &self,
        b: &mut PlanBuilder,
        rel: u64,
        from: (BufRef, Off),
        len: usize,
        streams: usize,
    ) {
        let side = Side { rel };
        let cell = WaitCell::Pair { side };
        b.wait(
            cell,
            Until::Use(PairUse::Free),
            "buffer released by readers",
        );
        b.push(Step::ShmCopy {
            src: from.0,
            src_off: from.1,
            dst: BufRef::Pair { side },
            dst_off: Off::Lit(0),
            len,
            cost: CopyCost::Write(streams),
        });
        b.push(Step::PairPublish { side });
    }

    /// Copy `(source offset, user offset, bytes)` of a pair use's bytes
    /// out of `data` — the pair side, or the edge landing a broadcast
    /// put left them in — to the user buffer, sharing the bus with the
    /// node's other readers.
    pub(crate) fn plan_pair_copy_out(
        &self,
        b: &mut PlanBuilder,
        data: BufRef,
        (src_off, dst_off, len): (usize, usize, usize),
    ) {
        b.push(Step::ShmCopy {
            src: data,
            src_off: Off::Lit(src_off),
            dst: BufRef::User,
            dst_off: Off::Lit(dst_off),
            len,
            cost: CopyCost::Read(self.peer_streams()),
        });
    }

    /// Reader leg of pair use `rel`, whose bytes are in `data`: wait
    /// for my READY, run `after_wait` (a master's forwarding puts), copy
    /// my part out if I have one, release the side.
    pub(crate) fn plan_pair_read(
        &self,
        b: &mut PlanBuilder,
        (rel, data): (u64, BufRef),
        after_wait: impl FnOnce(&mut PlanBuilder),
        copy: Option<(usize, usize, usize)>,
    ) {
        let cell = WaitCell::Pair { side: Side { rel } };
        b.wait(cell, Until::Use(PairUse::Published), "buffer published");
        after_wait(b);
        if let Some(copy) = copy {
            self.plan_pair_copy_out(b, data, copy);
        }
        plan_pair_release(b, rel);
    }

    /// The parity side of handoff channel `hand` that use `rel` goes
    /// through (the two sides lie one reduce chunk apart).
    pub(crate) fn hand_side(&self, hand: Hand, rel: u64) -> (BufRef, Off) {
        let side = poff(hand.base(), rel, self.tuning().reduce_chunk);
        (BufRef::Hand(hand), side)
    }

    /// Producer leg of handoff channel `hand`, use `rel`: wait until
    /// the parity side is drained, fill it from `from`, raise READY.
    ///
    /// The `xfer` channel has two producers: the node master (reduce,
    /// and gather's "remote pieces landed" signal) and a non-master
    /// scatter root. A plan's first `xfer` use therefore waits until
    /// the previous use is published: a max-raise past a producer that
    /// has not raised yet would release that use's consumer early.
    /// Later uses of the same plan share one producer and are ordered.
    pub(crate) fn plan_hand_publish(
        &self,
        b: &mut PlanBuilder,
        (hand, rel): (Hand, u64),
        from: (BufRef, Off),
        len: usize,
        cost: CopyCost,
    ) {
        let (dst, dst_off) = self.hand_side(hand, rel);
        let base = hand.base();
        let first = matches!(hand, Hand::Xfer) && rel == b.rel(base);
        if first && !self.world.handle.faults().skip_order_guards {
            let ready = FlagRef::Ready(hand);
            b.wait_flag(ready, seq(base, rel), "handoff published in order");
        }
        let drained = Until::SideDrained { base, rel };
        let done = WaitCell::Flag(FlagRef::Done(hand));
        b.wait(done, drained, "handoff side drained");
        b.push(Step::ShmCopy {
            src: from.0,
            src_off: from.1,
            dst,
            dst_off,
            len,
            cost,
        });
        b.push(Step::FlagRaise {
            flag: FlagRef::Ready(hand),
            val: seq(base, rel + 1),
        });
    }

    /// Consumer leg of handoff channel `hand`, use `rel`: wait for
    /// READY, let `consume` emit whatever reads the side (handed the
    /// operand), raise DONE.
    ///
    /// A contribution channel's DONE must advance without skipping
    /// sequence numbers: the chunk before `rel` may have had a
    /// *different* consumer rank — the previous collective's (a gather
    /// root, say), or the previous round's in the exchange rotation —
    /// that has not drained it yet, and a max-raise past it would let
    /// the contributor overwrite that side early. One consumer's
    /// consecutive chunks are ordered, so only its `first` waits for
    /// the channel to be drained through `rel`. The `xfer` channel has
    /// two consumers as well as two producers — a non-master root in
    /// reduce and gather, the master in scatter — so its consumers pass
    /// the plan's first `xfer` use too, beside the producer-side guard
    /// of [`Self::plan_hand_publish`].
    pub(crate) fn plan_hand_consume(
        &self,
        b: &mut PlanBuilder,
        (hand, rel): (Hand, u64),
        first: bool,
        label: &'static str,
        consume: impl FnOnce(&mut PlanBuilder, BufRef, Off),
    ) {
        let base = hand.base();
        b.wait_flag(FlagRef::Ready(hand), seq(base, rel + 1), label);
        let (src, src_off) = self.hand_side(hand, rel);
        consume(b, src, src_off);
        if first && !self.world.handle.faults().skip_order_guards {
            let done = FlagRef::Done(hand);
            b.wait_flag(done, seq(base, rel), "handoff consumed in order");
        }
        b.push(Step::FlagRaise {
            flag: FlagRef::Done(hand),
            val: seq(base, rel + 1),
        });
    }

    /// Writer side of one broadcast cell: `user[off..off+clen]` through
    /// pair use `rel`.
    pub(crate) fn plan_smp_cell_write(
        &self,
        b: &mut PlanBuilder,
        off: usize,
        clen: usize,
        rel: u64,
    ) {
        self.plan_pair_write(b, rel, (BufRef::User, Off::Lit(off)), clen, 1);
        plan_pair_release(b, rel);
    }

    /// Reader side of one broadcast cell (all `p-1` readers drain
    /// concurrently and share the bus).
    pub(crate) fn plan_smp_cell_read(
        &self,
        b: &mut PlanBuilder,
        off: usize,
        clen: usize,
        rel: u64,
    ) {
        self.plan_pair_read(b, (rel, pair_buf(rel)), |_| {}, Some((0, off, clen)));
    }

    /// Plan the flat double-buffer broadcast within the node: the
    /// writer's `user[..len]` reaches every node task's `user[..len]`.
    pub(crate) fn plan_smp_bcast(&self, b: &mut PlanBuilder, len: usize, writer: Rank) {
        debug_assert!(self.topology().same_node(self.me, writer));
        if self.cslots_here() == 1 || len == 0 {
            return;
        }
        let cells = smp_cells(len);
        let rel0 = b.rel(SeqBase::Pair);
        let am_writer = self.me == writer;
        for j in 0..cells {
            let (off, clen) = smp_cell(len, j);
            let rel = rel0 + j as u64;
            if am_writer {
                self.plan_smp_cell_write(b, off, clen, rel);
            } else {
                self.plan_smp_cell_read(b, off, clen, rel);
            }
        }
        b.advance(SeqBase::Pair, cells as u64);
    }

    /// First half of the flat barrier: non-masters check in; the master
    /// observes every check-in.
    pub(crate) fn plan_smp_barrier_enter(&self, b: &mut PlanBuilder) {
        let p = self.cslots_here();
        if p == 1 {
            return;
        }
        if self.c_is_master() {
            for s in 1..p {
                let cell = WaitCell::Flag(FlagRef::Barrier { slot: s });
                b.wait(cell, Until::Eq(Val::Lit(1)), "smp barrier check-in");
            }
        } else {
            b.push(Step::FlagRaise {
                flag: FlagRef::Barrier { slot: self.cslot() },
                val: Val::Lit(1),
            });
        }
    }

    /// Second half: the master resets every flag, releasing the
    /// non-masters, which spin on their own flag.
    pub(crate) fn plan_smp_barrier_release(&self, b: &mut PlanBuilder) {
        let p = self.cslots_here();
        if p == 1 {
            return;
        }
        if self.c_is_master() {
            for s in 1..p {
                b.push(Step::FlagRaise {
                    flag: FlagRef::Barrier { slot: s },
                    val: Val::Lit(0),
                });
            }
        } else {
            let cell = WaitCell::Flag(FlagRef::Barrier { slot: self.cslot() });
            b.wait(cell, Until::Eq(Val::Lit(0)), "smp barrier release");
        }
    }

    /// Plan one chunk of the intra-node reduce tree (Figure 2) for
    /// every task on the node. `rel` is the plan-relative chunk index
    /// against [`SeqBase::Reduce`] (drives buffer parity and the
    /// cumulative flags); the tree is the `kind` one over the node's
    /// slots, rooted at the master. Returns `true` at the subtree root,
    /// where the accumulator holds the combined chunk after the emitted
    /// steps run.
    pub(crate) fn plan_smp_reduce_chunk(
        &self,
        b: &mut PlanBuilder,
        off: usize,
        clen: usize,
        rel: u64,
        kind: TreeKind,
    ) -> bool {
        let p = self.cslots_here();
        debug_assert!(clen <= self.tuning().reduce_chunk);
        let vs = self.cslot();
        let kids = children_ascending(kind, vs, p);
        let mine = Hand::Slot(self.cslot());

        b.push(Step::LoadAcc { off, len: clen });

        if vs != 0 && kids.is_empty() {
            // Lowest level: the one real memory copy of the algorithm.
            // Roughly half the node's tasks copy concurrently.
            let cost = CopyCost::Write((p / 2).max(1));
            self.plan_hand_publish(b, (mine, rel), (BufRef::Acc, Off::Lit(0)), clen, cost);
            return false;
        }

        // Interior (or root): fold each child's shared buffer into the
        // running chunk — operator execution only, no data movement.
        for child in kids {
            self.plan_hand_consume(
                b,
                (Hand::Slot(child), rel),
                rel == b.rel(SeqBase::Reduce),
                "child contribution ready",
                |b, src, src_off| {
                    b.push(Step::LocalReduce {
                        src,
                        src_off,
                        len: clen,
                    })
                },
            );
        }

        if vs != 0 {
            // Publish the partial result (the last operator pass's
            // output stream — no extra copy).
            let acc = (BufRef::Acc, Off::Lit(0));
            self.plan_hand_publish(b, (mine, rel), acc, clen, CopyCost::Free);
        }
        // At the subtree root the accumulator holds the result; the
        // caller routes it onward.
        vs == 0
    }
}
