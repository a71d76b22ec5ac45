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
//! a global grid of `smp_buf`-sized cells, and each cell moves through
//! one side of the two-buffer pair (side = cumulative cell sequence mod
//! 2 — "consecutive broadcast operations alternate between the
//! buffers"). The inter-node planners interleave cell writes with
//! network steps to build their pipelines.

use crate::inter::{par, poff, seq};
use crate::plan::{
    BufRef, CopyCost, FlagRef, Off, PairSel, PlanBuilder, PlanShape, SeqBase, Side, Step, Until,
    Val, WaitCell,
};
use crate::world::SrmComm;
use shmem::{PairUse, ShmBuffer};
use simnet::{Ctx, Rank};

/// The sequence base a pair's uses are numbered against.
fn pair_base(pair: PairSel) -> SeqBase {
    match pair {
        PairSel::Smp => SeqBase::Smp,
        PairSel::Landing => SeqBase::Landing,
    }
}

/// Producer half of the master↔root `xfer` handoff: wait until the
/// parity side of use `xrel` is drained, fill it from `from`, raise
/// READY. `stride` separates the two sides.
pub(crate) fn plan_xfer_produce(
    b: &mut PlanBuilder,
    xrel: u64,
    stride: usize,
    from: (BufRef, Off),
    len: usize,
) {
    b.wait_side_drained(
        FlagRef::XferDone,
        SeqBase::Xfer,
        xrel,
        1,
        "xfer side drained",
    );
    b.push(Step::ShmCopy {
        src: from.0,
        src_off: from.1,
        dst: BufRef::Xfer,
        dst_off: poff(SeqBase::Xfer, xrel, stride),
        len,
        cost: CopyCost::Free,
    });
    b.push(Step::FlagRaise {
        flag: FlagRef::XferReady,
        val: seq(SeqBase::Xfer, xrel + 1),
    });
}

/// Consumer half of the `xfer` handoff: wait for use `xrel`, let
/// `consume` emit whatever reads the side, raise DONE.
pub(crate) fn plan_xfer_consume(
    b: &mut PlanBuilder,
    xrel: u64,
    label: &'static str,
    consume: impl FnOnce(&mut PlanBuilder),
) {
    b.wait_flag(FlagRef::XferReady, seq(SeqBase::Xfer, xrel + 1), label);
    consume(b);
    b.push(Step::FlagRaise {
        flag: FlagRef::XferDone,
        val: seq(SeqBase::Xfer, xrel + 1),
    });
}

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

impl SrmComm {
    /// The other tasks on my node (at least one): how many concurrent
    /// streams share the bus when everyone but one task copies.
    pub(crate) fn peer_streams(&self) -> usize {
        self.cslots_here().saturating_sub(1).max(1)
    }

    /// Writer leg of pair use `rel` (Figure 3): claim the parity
    /// buffer, fill it from `from`, raise every other task's READY.
    pub(crate) fn plan_pair_write(
        &self,
        b: &mut PlanBuilder,
        pair: PairSel,
        rel: u64,
        from: (BufRef, Off),
        len: usize,
        streams: usize,
    ) {
        let side = par(pair_base(pair), rel);
        let cell = WaitCell::Pair { pair, side };
        b.wait(
            cell,
            Until::Use(PairUse::Free),
            "buffer released by readers",
        );
        b.push(Step::ShmCopy {
            src: from.0,
            src_off: from.1,
            dst: BufRef::Pair { pair, side },
            dst_off: Off::Lit(0),
            len,
            cost: CopyCost::Write(streams),
        });
        b.push(Step::PairPublish { pair, side });
    }

    /// Copy `(pair offset, user offset, bytes)` of pair use `rel` out
    /// to the user buffer, sharing the bus with `streams` readers.
    pub(crate) fn plan_pair_copy_out(
        &self,
        b: &mut PlanBuilder,
        pair: PairSel,
        rel: u64,
        (src_off, dst_off, len): (usize, usize, usize),
        streams: usize,
    ) {
        let side = par(pair_base(pair), rel);
        b.push(Step::ShmCopy {
            src: BufRef::Pair { pair, side },
            src_off: Off::Lit(src_off),
            dst: BufRef::User,
            dst_off: Off::Lit(dst_off),
            len,
            cost: CopyCost::Read(streams),
        });
    }

    /// Reader leg of pair use `rel`: wait for my READY, run
    /// `after_wait` (trace markers, forwarding puts), copy my part out
    /// if I have one, release the side.
    pub(crate) fn plan_pair_read(
        &self,
        b: &mut PlanBuilder,
        pair: PairSel,
        rel: u64,
        after_wait: impl FnOnce(&mut PlanBuilder),
        copy: Option<(usize, usize, usize)>,
        streams: usize,
    ) {
        let side = par(pair_base(pair), rel);
        let cell = WaitCell::Pair { pair, side };
        b.wait(cell, Until::Use(PairUse::Published), "buffer published");
        after_wait(b);
        if let Some(copy) = copy {
            self.plan_pair_copy_out(b, pair, rel, copy, streams);
        }
        b.push(Step::PairRelease { pair, side });
    }

    /// Contributor leg of my contribution channel, chunk `rel`: wait
    /// until the parity side is drained, fill it from `from`, raise
    /// READY.
    pub(crate) fn plan_contrib_publish(
        &self,
        b: &mut PlanBuilder,
        rel: u64,
        from: (BufRef, Off),
        len: usize,
        cost: CopyCost,
    ) {
        let my = self.cslot();
        let done = FlagRef::ContribDone { slot: my };
        b.wait_side_drained(done, SeqBase::Reduce, rel, 1, "contrib side drained");
        b.push(Step::ShmCopy {
            src: from.0,
            src_off: from.1,
            dst: BufRef::Contrib { slot: my },
            dst_off: poff(SeqBase::Reduce, rel, self.tuning().reduce_chunk),
            len,
            cost,
        });
        b.push(Step::FlagRaise {
            flag: FlagRef::ContribReady { slot: my },
            val: seq(SeqBase::Reduce, rel + 1),
        });
    }

    /// Consumer leg of `slot`'s contribution channel, chunk `rel`: wait
    /// for READY, let `consume` emit whatever reads the side (handed
    /// the operand), raise DONE.
    ///
    /// DONE must advance without skipping sequence numbers: the
    /// previous collective on this channel may have had a *different*
    /// consumer rank (a gather root, say) that has not drained the
    /// contributor's last chunk yet, and a max-raise past it would let
    /// the contributor overwrite that side early. Within one plan the
    /// single consumer is ordered, so only the first consume per plan
    /// waits for the channel to be drained through the plan's entry
    /// cumulative.
    pub(crate) fn plan_contrib_consume(
        &self,
        b: &mut PlanBuilder,
        slot: usize,
        rel: u64,
        label: &'static str,
        consume: impl FnOnce(&mut PlanBuilder, BufRef, Off),
    ) {
        b.wait_flag(
            FlagRef::ContribReady { slot },
            seq(SeqBase::Reduce, rel + 1),
            label,
        );
        consume(
            b,
            BufRef::Contrib { slot },
            poff(SeqBase::Reduce, rel, self.tuning().reduce_chunk),
        );
        if rel == b.rel(SeqBase::Reduce) && !crate::plan::skip_order_guards() {
            b.wait_flag(
                FlagRef::ContribDone { slot },
                seq(SeqBase::Reduce, rel),
                "contrib consumed in order",
            );
        }
        b.push(Step::FlagRaise {
            flag: FlagRef::ContribDone { slot },
            val: seq(SeqBase::Reduce, rel + 1),
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
        self.plan_pair_write(b, PairSel::Smp, rel, (BufRef::User, Off::Lit(off)), clen, 1);
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
        self.plan_pair_read(
            b,
            PairSel::Smp,
            rel,
            |b| b.push(Step::Trace("smp:read")),
            Some((0, off, clen)),
            self.peer_streams(),
        );
    }

    /// The global cell grid of a `len`-byte payload: `(offset, length)`
    /// of cell `j`.
    pub(crate) fn smp_cell(&self, len: usize, j: usize) -> (usize, usize) {
        let cell = self.tuning().smp_buf;
        let off = j * cell;
        (off, cell.min(len - off))
    }

    /// Number of cells in a `len`-byte payload.
    pub(crate) fn smp_cells(&self, len: usize) -> usize {
        if len == 0 {
            0
        } else {
            len.div_ceil(self.tuning().smp_buf)
        }
    }

    /// Plan the flat double-buffer broadcast within the node: the
    /// writer's `user[..len]` reaches every node task's `user[..len]`.
    pub(crate) fn plan_smp_bcast(&self, b: &mut PlanBuilder, len: usize, writer: Rank) {
        debug_assert!(self.topology().same_node(self.me, writer));
        if self.cslots_here() == 1 || len == 0 {
            return;
        }
        let cells = self.smp_cells(len);
        let rel0 = b.rel(SeqBase::Smp);
        let am_writer = self.me == writer;
        for j in 0..cells {
            let (off, clen) = self.smp_cell(len, j);
            let rel = rel0 + j as u64;
            if am_writer {
                self.plan_smp_cell_write(b, off, clen, rel);
            } else {
                self.plan_smp_cell_read(b, off, clen, rel);
            }
        }
        b.advance(SeqBase::Smp, cells as u64);
    }

    /// Flat double-buffer broadcast within the node: `writer`'s
    /// `buf[..len]` reaches every node task's `buf[..len]`.
    pub fn smp_bcast(&self, ctx: &Ctx, buf: &ShmBuffer, len: usize, writer: Rank) {
        debug_assert!(self.topology().same_node(self.me, writer));
        self.run_planned(
            ctx,
            self.key(PlanShape::SmpBcast { len, writer }),
            buf,
            None,
        );
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

    /// Plan the **tree-based** intra-node broadcast the paper
    /// implemented, measured, and rejected in favour of the flat
    /// two-buffer algorithm (§2.2: "Despite the contention in
    /// simultaneous read access to the shared memory buffer, this
    /// \[flat\] algorithm has achieved a much better performance than
    /// the tree-based algorithms"). Kept for the ablation study: data
    /// store-and-forwards down a binomial tree of per-slot shared
    /// buffers, so every level adds a full copy to the critical path.
    pub(crate) fn plan_smp_bcast_tree(&self, b: &mut PlanBuilder, len: usize, writer: Rank) {
        let p = self.cslots_here();
        if p == 1 || len == 0 {
            return;
        }
        let kind = self.tree();
        let chunk_cap = self.tuning().reduce_chunk;
        let chunks = crate::tuning::SrmTuning::chunk_count(len, chunk_cap);
        let rel0 = b.rel(SeqBase::Tree);
        let wslot = self.cgslot_of(writer);
        let my = self.cslot();
        let vs = (my + p - wslot) % p;
        let parent = crate::embed::parent(kind, vs, p).map(|v| (v + wslot) % p);
        let kids: Vec<usize> = crate::embed::children(kind, vs, p)
            .into_iter()
            .map(|v| (v + wslot) % p)
            .collect();

        for k in 0..chunks {
            let off = k * chunk_cap;
            let clen = chunk_cap.min(len - off);
            let rel = rel0 + k as u64;
            let side_off = poff(SeqBase::Tree, rel, chunk_cap);
            if let Some(pslot) = parent {
                // Copy the chunk out of the parent's shared buffer into
                // the user buffer (one copy per tree level).
                b.wait_flag(
                    FlagRef::TreeReady { slot: pslot },
                    seq(SeqBase::Tree, rel + 1),
                    "tree parent chunk",
                );
                b.push(Step::ShmCopy {
                    src: BufRef::Contrib { slot: pslot },
                    src_off: side_off,
                    dst: BufRef::User,
                    dst_off: Off::Lit(off),
                    len: clen,
                    cost: CopyCost::Read(2),
                });
                b.push(Step::FlagAdd {
                    flag: FlagRef::TreeDone { slot: pslot },
                    n: 1,
                });
            }
            if !kids.is_empty() {
                // Stage the chunk for the children (store-and-forward);
                // wait until every child drained the side being reused.
                let done = FlagRef::TreeDone { slot: my };
                let drains = kids.len() as u64;
                b.wait_side_drained(done, SeqBase::Tree, rel, drains, "tree buffer drained");
                b.push(Step::ShmCopy {
                    src: BufRef::User,
                    src_off: Off::Lit(off),
                    dst: BufRef::Contrib { slot: my },
                    dst_off: side_off,
                    len: clen,
                    cost: CopyCost::Write(1),
                });
                b.push(Step::FlagRaise {
                    flag: FlagRef::TreeReady { slot: my },
                    val: seq(SeqBase::Tree, rel + 1),
                });
            }
        }
        b.advance(SeqBase::Tree, chunks as u64);
    }

    /// Tree-based intra-node broadcast (ablation variant; see
    /// `plan_smp_bcast_tree`).
    pub fn smp_bcast_tree(&self, ctx: &Ctx, buf: &ShmBuffer, len: usize, writer: Rank) {
        debug_assert!(self.topology().same_node(self.me, writer));
        self.run_planned(
            ctx,
            self.key(PlanShape::SmpBcastTree { len, writer }),
            buf,
            None,
        );
    }

    /// Plan the **barrier-synchronized** intra-node broadcast in the
    /// style of Sistare et al. \[11\], which the paper contrasts with
    /// SRM in §4: access to the shared buffer is arbitrated with full
    /// node barriers instead of per-pair flags, making the algorithm
    /// stiffer against late arrivals and adding two barriers per
    /// buffer-full of data. Kept for the ablation study.
    pub(crate) fn plan_smp_bcast_sistare(&self, b: &mut PlanBuilder, len: usize, writer: Rank) {
        let p = self.cslots_here();
        if p == 1 || len == 0 {
            return;
        }
        let chunk = self.tuning().smp_buf;
        let chunks = crate::tuning::SrmTuning::chunk_count(len, chunk);
        let am_writer = self.me == writer;
        let single = BufRef::Pair {
            pair: PairSel::Smp,
            side: Side::Lit(0),
        };
        for k in 0..chunks {
            let off = k * chunk;
            let clen = chunk.min(len - off);
            // Barrier #1: everyone (including the writer) agrees the
            // single buffer is free.
            self.plan_smp_barrier_enter(b);
            self.plan_smp_barrier_release(b);
            if am_writer {
                b.push(Step::ShmCopy {
                    src: BufRef::User,
                    src_off: Off::Lit(off),
                    dst: single,
                    dst_off: Off::Lit(0),
                    len: clen,
                    cost: CopyCost::Write(1),
                });
            }
            // Barrier #2: the data is published.
            self.plan_smp_barrier_enter(b);
            self.plan_smp_barrier_release(b);
            if !am_writer {
                b.push(Step::ShmCopy {
                    src: single,
                    src_off: Off::Lit(0),
                    dst: BufRef::User,
                    dst_off: Off::Lit(off),
                    len: clen,
                    cost: CopyCost::Read(p - 1),
                });
            }
        }
    }

    /// Barrier-synchronized intra-node broadcast (ablation variant; see
    /// `plan_smp_bcast_sistare`).
    pub fn smp_bcast_sistare(&self, ctx: &Ctx, buf: &ShmBuffer, len: usize, writer: Rank) {
        debug_assert!(self.topology().same_node(self.me, writer));
        self.run_planned(
            ctx,
            self.key(PlanShape::SmpBcastSistare { len, writer }),
            buf,
            None,
        );
    }

    /// Plan one chunk of the intra-node reduce tree (Figure 2) for
    /// every task on the node. `rel` is the plan-relative chunk index
    /// against [`SeqBase::Reduce`] (drives buffer parity and the
    /// cumulative flags); `dst_slot` is the slot the subtree is rooted
    /// at. Returns `true` at the subtree root, where the accumulator
    /// holds the combined chunk after the emitted steps run.
    pub(crate) fn plan_smp_reduce_chunk(
        &self,
        b: &mut PlanBuilder,
        off: usize,
        clen: usize,
        rel: u64,
        dst_slot: usize,
    ) -> bool {
        let p = self.cslots_here();
        debug_assert!(clen <= self.tuning().reduce_chunk);
        let vs = (self.cslot() + p - dst_slot) % p;
        let kids = crate::embed::children_ascending(self.tree(), vs, p);

        b.push(Step::LoadAcc { off, len: clen });

        if vs != 0 && kids.is_empty() {
            // Lowest level: the one real memory copy of the algorithm.
            // Roughly half the node's tasks copy concurrently.
            let cost = CopyCost::Write((p / 2).max(1));
            self.plan_contrib_publish(b, rel, (BufRef::Acc, Off::Lit(0)), clen, cost);
            return false;
        }

        // Interior (or root): fold each child's shared buffer into the
        // running chunk — operator execution only, no data movement.
        for kv in kids {
            let child = (kv + dst_slot) % p;
            self.plan_contrib_consume(
                b,
                child,
                rel,
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
            self.plan_contrib_publish(b, rel, (BufRef::Acc, Off::Lit(0)), clen, CopyCost::Free);
        }
        // At the subtree root the accumulator holds the result; the
        // caller routes it onward.
        vs == 0
    }
}
