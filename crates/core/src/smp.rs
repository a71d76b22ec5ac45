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
use crate::inter::seq;
use crate::plan::{BufRef, CopyCost, FlagRef, PlanBuilder, SeqBase, Step, Until, WaitCell};
use crate::tuning::SrmTuning;
use crate::world::SrmComm;
use shmem::PairUse;
use simnet::Rank;

/// The last operator pass writes the accumulator straight to its
/// destination in the user buffer (no intermediate buffer, §4) — the
/// operator's output stream, so no charged copy.
pub(crate) fn plan_acc_to_user(b: &mut PlanBuilder, off: usize, len: usize) {
    b.copy((BufRef::Acc, 0), (BufRef::User, off), len, CopyCost::Free);
}

/// Release pair use `rel`: every slot that takes part in a use, its
/// writer included, releases it after its last read of the side. A
/// writer forwarding the side onto the wire or copying its own part
/// out reads it after the publish, and the next writer may not claim
/// the side before those reads are done.
pub(crate) fn plan_pair_release(b: &mut PlanBuilder, rel: u64) {
    b.push(Step::PairRelease { rel });
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
        from: (BufRef, usize),
        len: usize,
        streams: usize,
    ) {
        let cell = WaitCell::Pair { rel };
        b.wait(
            cell,
            Until::Use(PairUse::Free),
            "buffer released by readers",
        );
        let cost = CopyCost::Write(streams);
        b.copy(from, (BufRef::Pair { rel }, 0), len, cost);
        b.push(Step::PairPublish { rel });
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
        let cost = CopyCost::Read(self.peer_streams());
        b.copy((data, src_off), (BufRef::User, dst_off), len, cost);
    }

    /// Reader leg of pair use `rel`, whose bytes are in `data`: wait
    /// for my READY, copy my part out if I have one, release the side.
    pub(crate) fn plan_pair_read(
        &self,
        b: &mut PlanBuilder,
        (rel, data): (u64, BufRef),
        copy: Option<(usize, usize, usize)>,
    ) {
        let cell = WaitCell::Pair { rel };
        b.wait(cell, Until::Use(PairUse::Published), "buffer published");
        if let Some(copy) = copy {
            self.plan_pair_copy_out(b, data, copy);
        }
        plan_pair_release(b, rel);
    }

    /// Producer leg of use `rel` of my own contribution channel — the
    /// only one I ever produce into: wait until the buffer that use
    /// takes is drained, fill it from `from`, raise READY.
    pub(crate) fn plan_contrib_publish(
        &self,
        b: &mut PlanBuilder,
        rel: u64,
        from: (BufRef, usize),
        len: usize,
        cost: CopyCost,
    ) {
        let mine = self.cslot();
        let drained = Until::SideDrained {
            base: SeqBase::Reduce,
            rel,
        };
        let done = WaitCell::Flag(FlagRef::Done(mine));
        b.wait(done, drained, "contribution side drained");
        b.copy(from, (BufRef::Contrib { slot: mine, rel }, 0), len, cost);
        b.push(Step::FlagRaise {
            flag: FlagRef::Ready(mine),
            val: seq(SeqBase::Reduce, rel + 1),
        });
    }

    /// Consumer leg of use `rel` of slot `slot`'s contribution channel:
    /// wait for READY, let `consume` emit whatever reads the buffer
    /// (handed the operand), raise DONE.
    ///
    /// DONE must advance without skipping uses: the use before `rel`
    /// may have had a *different* consumer — the previous collective's
    /// (a gather root, say), or the previous round's in the exchange
    /// rotation — that has not drained it yet, and a max-raise past it
    /// would let the producer overwrite that side early. One consumer's
    /// consecutive uses are ordered, so only its `first` waits for the
    /// channel to be drained through `rel`.
    pub(crate) fn plan_contrib_consume(
        &self,
        b: &mut PlanBuilder,
        (slot, rel): (usize, u64),
        first: bool,
        label: &'static str,
        consume: impl FnOnce(&mut PlanBuilder, BufRef),
    ) {
        b.wait_flag(FlagRef::Ready(slot), seq(SeqBase::Reduce, rel + 1), label);
        consume(b, BufRef::Contrib { slot, rel });
        if first {
            self.plan_contrib_in_order(b, slot, rel);
        }
        b.push(Step::FlagRaise {
            flag: FlagRef::Done(slot),
            val: seq(SeqBase::Reduce, rel + 1),
        });
    }

    /// Pass over use `rel` of my own contribution channel without
    /// filling it — a tree root whose result leaves through no
    /// channel: once the use before it is drained, raise READY and DONE
    /// past it, so the channel stays gap-free for the next consumer's
    /// in-order guard and my next publish's drain guard.
    pub(crate) fn plan_contrib_skip(&self, b: &mut PlanBuilder, rel: u64) {
        let mine = self.cslot();
        self.plan_contrib_in_order(b, mine, rel);
        for flag in [FlagRef::Ready(mine), FlagRef::Done(mine)] {
            let val = seq(SeqBase::Reduce, rel + 1);
            b.push(Step::FlagRaise { flag, val });
        }
    }

    /// The consumer's in-order guard: slot `slot`'s channel is drained
    /// through use `rel` before I raise its DONE past it.
    pub(crate) fn plan_contrib_in_order(&self, b: &mut PlanBuilder, slot: usize, rel: u64) {
        if !self.world.handle.faults().skip_order_guards {
            let done = FlagRef::Done(slot);
            b.wait_flag(done, seq(SeqBase::Reduce, rel), "contrib consumed in order");
        }
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
        self.plan_pair_write(b, rel, (BufRef::User, off), clen, 1);
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
        self.plan_pair_read(b, (rel, BufRef::Pair { rel }), Some((0, off, clen)));
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

    /// One phase of the flat barrier, whose flags count the phases on
    /// [`SeqBase::Barrier`] (two per barrier). Phase 1: every non-master
    /// checks in by raising its own flag, and the master waits for every
    /// check-in. Phase 2: the master raises every flag, releasing the
    /// non-masters, which wait on their own.
    pub(crate) fn plan_smp_barrier_phase(&self, b: &mut PlanBuilder, phase: u64) {
        let p = self.cslots_here();
        if p == 1 {
            return;
        }
        let val = seq(SeqBase::Barrier, b.rel(SeqBase::Barrier) + phase);
        let mine = FlagRef::Barrier { slot: self.cslot() };
        let others = (1..p).map(|slot| FlagRef::Barrier { slot });
        match (phase, self.c_is_master()) {
            (1, true) => others.for_each(|f| b.wait_flag(f, val, "smp barrier check-in")),
            (1, false) => b.push(Step::FlagRaise { flag: mine, val }),
            (_, true) => others.for_each(|flag| b.push(Step::FlagRaise { flag, val })),
            (_, false) => b.wait_flag(mine, val, "smp barrier release"),
        }
    }

    /// Plan one chunk of the intra-node reduce tree (Figure 2) for
    /// every task on the node. `rel` is the plan-relative chunk index
    /// against [`SeqBase::Reduce`] (drives buffer parity and the
    /// cumulative flags); the tree is the `kind` one over the node's
    /// slots, rooted at slot `top` (the node's wire rank). Returns
    /// `true` at the subtree root, where the accumulator holds the
    /// combined chunk after the emitted steps run.
    pub(crate) fn plan_smp_reduce_chunk(
        &self,
        b: &mut PlanBuilder,
        (off, clen, rel): (usize, usize, u64),
        (kind, top): (TreeKind, usize),
    ) -> bool {
        // Tree vertex `v` is slot `(v + top) % p`.
        let vertex = self.tree_vertex(kind, (top, false));
        let first = rel == b.rel(SeqBase::Reduce);
        self.plan_smp_fold(b, (off, clen, rel), vertex, first, |_| false)
    }

    /// One piece of the intra-node reduce tree rooted at slot `top`,
    /// laid out by [`spread_slot`]: the reduce_scatter's spread node
    /// leg. Its trees change root from piece to piece, so a contribution
    /// channel changes consumer from use to use and every consume
    /// carries the in-order guard. `fold_in` runs after the children's
    /// folds, before the publish; it returns whether it ran an operator
    /// pass over the accumulator (a leaf that did publishes the pass's
    /// output stream, no extra copy). Returns `true` at the root.
    pub(crate) fn plan_smp_reduce_spread(
        &self,
        b: &mut PlanBuilder,
        (off, clen, rel): (usize, usize, u64),
        tree: (usize, bool),
        fold_in: impl FnOnce(&mut PlanBuilder) -> bool,
    ) -> bool {
        let vertex = self.tree_vertex(self.tree(), tree);
        self.plan_smp_fold(b, (off, clen, rel), vertex, true, fold_in)
    }

    /// Whether I root the `kind` tree [`spread_slot`] lays out over my
    /// node, and my children's slots in fold order.
    fn tree_vertex(&self, kind: TreeKind, tree: (usize, bool)) -> (bool, Vec<usize>) {
        let p = self.cslots_here();
        let vs = spread_vertex(p, tree, self.cslot());
        let kids = children_ascending(kind, vs, p).into_iter();
        (vs == 0, kids.map(|v| spread_slot(p, tree, v)).collect())
    }

    /// The steps of one tree vertex for one chunk: load my
    /// contribution, fold my children's (`kids`, in fold order), run
    /// `fold_in`, and publish the partial result unless I am the root.
    /// `guard` puts the in-order guard on every consume, not only on
    /// the plan's first use of the channel.
    fn plan_smp_fold(
        &self,
        b: &mut PlanBuilder,
        (off, clen, rel): (usize, usize, u64),
        (root, kids): (bool, Vec<usize>),
        guard: bool,
        fold_in: impl FnOnce(&mut PlanBuilder) -> bool,
    ) -> bool {
        let p = self.cslots_here();
        debug_assert!(clen <= SrmTuning::REDUCE_CHUNK);
        b.copy((BufRef::User, off), (BufRef::Acc, 0), clen, CopyCost::Free);

        if !root && kids.is_empty() {
            // Lowest level: the one real memory copy of the algorithm.
            // Roughly half the node's tasks copy concurrently.
            let cost = match fold_in(b) {
                true => CopyCost::Free,
                false => CopyCost::Write((p / 2).max(1)),
            };
            self.plan_contrib_publish(b, rel, (BufRef::Acc, 0), clen, cost);
            return false;
        }

        // Interior (or root): fold each child's shared buffer into the
        // running chunk — operator execution only, no data movement.
        for child in kids {
            self.plan_contrib_consume(
                b,
                (child, rel),
                guard,
                "child contribution ready",
                |b, src| {
                    b.push(Step::LocalReduce {
                        src,
                        src_off: 0,
                        len: clen,
                    })
                },
            );
        }
        fold_in(b);

        if !root {
            // Publish the partial result (the last operator pass's
            // output stream — no extra copy).
            self.plan_contrib_publish(b, rel, (BufRef::Acc, 0), clen, CopyCost::Free);
        }
        // At the subtree root the accumulator holds the result; the
        // caller routes it onward.
        root
    }
}

/// Slot of vertex `v` of a tree over a node's `p` slots rooted at slot
/// `top`: the slots follow the root in rotation, or — `hung` — the
/// master (slot 0) takes vertex `p - 1`, a leaf in every tree kind
/// since children number above their parent, and the others follow the
/// root. Rooted at the master, the two are the same.
pub(crate) fn spread_slot(p: usize, (top, hung): (usize, bool), v: usize) -> usize {
    match (hung && top != 0, v == p - 1) {
        (false, _) => (v + top) % p,
        (true, true) => 0,
        (true, false) => (v + top - 1) % (p - 1) + 1,
    }
}

/// Vertex of slot `u` in the tree [`spread_slot`] lays out.
pub(crate) fn spread_vertex(p: usize, (top, hung): (usize, bool), u: usize) -> usize {
    match (hung && top != 0, u) {
        (false, _) => (u + p - top) % p,
        (true, 0) => p - 1,
        (true, _) => (u + p - 1 - top) % (p - 1),
    }
}
