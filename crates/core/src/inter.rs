//! The integrated shared-memory + RMA collective protocols (paper
//! §2.3–2.4 and Figures 4–5), as **planners**: each protocol compiles
//! its per-rank step schedule into a [`PlanBuilder`]; the
//! [engine](crate::engine) replays it. No collective executes directly
//! from here.
//!
//! Every planner works in **group coordinates**: `node` operands are
//! group-node indices (`0..cnodes()`), roots are communicator ranks,
//! and slot arithmetic uses the group's per-node member counts. On the
//! world communicator these degrade exactly to the world topology, so
//! world plans are unchanged; on a subgroup the same code compiles
//! schedules over the subgroup's own boards, inter-state and flags,
//! which is what lets disjoint communicators run concurrently.
//!
//! Only one task per node — the **master** (group slot 0) — touches the
//! network. Data put by a parent node lands in shared memory (the
//! edge's landing buffers or, for large broadcasts, directly in the
//! master's user buffer), where it "is directly available to all the
//! tasks running on that node without the need for copying the data".
//!
//! Flow control is explicit, exactly as the paper describes replacing
//! MPI's eager/rendezvous machinery: two landing buffers per (parent,
//! child) edge, a data counter per buffer bumped by the parent's put,
//! and a credit counter per buffer restored by the child's zero-byte
//! put when its node has drained it. Counters are waited on with
//! `LAPI_Waitcntr`-style calls so the dispatcher makes progress without
//! interrupts while interrupts are disabled for small operations.
//!
//! The gather/scatter family extends the same machinery: scatter
//! streams per-node blocks through the reduce landing channels (whose
//! credit protocol it reuses unchanged), gather relays segments through
//! the per-slot contribution buffers and puts them straight into the
//! root's user buffer at their final offsets (one address exchange,
//! zero staging at the root), and allgather is literally a gather plan
//! concatenated with a broadcast plan.
//!
//! Because cross-node channels are parity-indexed against the
//! [`SeqBase::Bcast`] and [`SeqBase::Reduce`] cumulatives, every plan
//! advances those two bases by the **same amount on every member of
//! the communicator** (the maximum over nodes when per-node work
//! differs, as in scatter on a group with uneven membership).
//! Under-advancing a rank that skipped the work would desynchronize
//! the parities; the contribution channels re-synchronize an
//! over-advance through `SrmComm::plan_contrib_catchup`. The node's
//! buffer pair is no cross-node state: [`SeqBase::Pair`] advances per
//! node, by the uses the node made.
//!
//! A plan holds only what the protocol does — copies, flag operations,
//! puts and waits. How far it moves each cumulative is a total beside
//! the steps ([`Plan::advances`](crate::plan::Plan)), applied when the
//! call enters.

use crate::embed::{depth, GroupTree};
use crate::plan::{
    BufRef, Chan, ChanKind, CopyCost, CtrRef, FlagRef, Hand, Off, PlanBuilder, SeqBase, Side, Step,
    Until, Val, WaitCell,
};
use crate::smp::{
    pair_buf, plan_acc_to_user, plan_pair_release, plan_stage_acc, smp_cell, smp_cells,
};
use crate::tune::TuneOp as Op;
use crate::tuning::SrmTuning;
use crate::world::SrmComm;
use shmem::PairUse;

pub(crate) fn seq(base: SeqBase, rel: u64) -> Val {
    Val::Seq { base, rel }
}

pub(crate) fn poff(base: SeqBase, rel: u64, stride: usize) -> Off {
    Off::Parity { base, rel, stride }
}

impl SrmComm {
    /// Re-synchronize my contribution channel with [`SeqBase::Reduce`].
    ///
    /// Invariant of the contrib channels: after every operation that
    /// advances the reduce cumulative, **every** slot's READY and DONE
    /// equal the new cumulative. Contributing slots
    /// get there through the protocol itself (the contributor raises
    /// READY, its consumer raises DONE); a slot whose channel went
    /// unused this operation — the consumer of a reduce tree, a gather
    /// root, every rank of a scatter — raises both itself so a later
    /// operation's drain guard sees a fully drained channel.
    ///
    /// DONE is a statement about the *previous* operation's
    /// consumer, so the owner must not raise it past reads that have
    /// not happened yet: a gather's relaying master can lag a full
    /// operation behind (it blocks on the root's address AM before it
    /// reads), and an unchecked raise would let the owner's next
    /// contribution overwrite the unread parity slot. The catch-up
    /// therefore first waits until the channel is drained through this
    /// operation's entry cumulative. Raising READY needs no such wait —
    /// only the owner itself ever raises it, in program order.
    pub(crate) fn plan_contrib_catchup(&self, b: &mut PlanBuilder, rel_end: u64) {
        let mine = Hand::Slot(self.cslot());
        b.wait_flag(
            FlagRef::Done(mine),
            seq(SeqBase::Reduce, b.rel(SeqBase::Reduce)),
            "contrib drained before catch-up",
        );
        for flag in [FlagRef::Ready(mine), FlagRef::Done(mine)] {
            let val = seq(SeqBase::Reduce, rel_end);
            b.push(Step::FlagRaise { flag, val });
        }
    }

    // ----------------------------------------------------------------
    // Master-to-master legs
    // ----------------------------------------------------------------

    /// Sender leg of channel `c`: spend a credit, put `len` bytes of
    /// `from` at byte `at` of the receiver's landing, bump its data
    /// counter. With `stage_acc` the accumulator is first laid down at
    /// `from` (the operator's output stream) so the put has an
    /// addressable source.
    pub(crate) fn plan_credit_put(
        &self,
        b: &mut PlanBuilder,
        (c, at): (Chan, usize),
        stage_acc: bool,
        from: (BufRef, Off),
        len: usize,
    ) {
        b.wait_ctr(CtrRef::Free(c), 1);
        if stage_acc {
            plan_stage_acc(b, from.0, from.1, len);
        }
        b.push(Step::RmaPut {
            to: self.cmaster_of(c.dst),
            src: from.0,
            src_off: from.1,
            dst: BufRef::Chan(c),
            dst_off: Off::Lit(at),
            len,
            ctr: Some(CtrRef::Data(c)),
        });
    }

    /// Receiver leg of channel `c`, second half: the landing is
    /// reusable — hand the credit back to the sender.
    pub(crate) fn plan_credit_return(&self, b: &mut PlanBuilder, c: Chan) {
        b.push(Step::CounterPut {
            to: self.cmaster_of(c.src),
            ctr: CtrRef::Free(c),
        });
    }

    /// Receiver leg of a channel whose payload is a reduce operand:
    /// wait for the put, fold the chunk landed at byte `at` into the
    /// accumulator, return the credit.
    pub(crate) fn plan_fold_landed(&self, b: &mut PlanBuilder, (c, at): (Chan, usize), len: usize) {
        b.wait_ctr(CtrRef::Data(c), 1);
        b.push(Step::LocalReduce {
            src: BufRef::Chan(c),
            src_off: Off::Lit(at),
            len,
        });
        self.plan_credit_return(b, c);
    }

    /// Forward broadcast chunk `brel` (a [`SeqBase::Bcast`] lane) from
    /// `data` to every child node, honouring the per-edge credits
    /// (Figure 4, left).
    fn plan_forward_chunk(
        &self,
        b: &mut PlanBuilder,
        tree: &GroupTree,
        brel: u64,
        data: BufRef,
        clen: usize,
    ) {
        for &c in tree.down() {
            let to = Chan::new(ChanKind::Bcast, self.cnode(), c, brel);
            self.plan_credit_put(b, (to, 0), false, (data, Off::Lit(0)), clen);
        }
    }

    /// Where broadcast chunk `(rel, brel)` — pair use `rel`, lane
    /// `brel` — is read on my node: the pair side its local writer
    /// filled on the tree's root node, else the edge landing the
    /// parent's put left it in.
    fn bcast_data(&self, tree: &GroupTree, (rel, brel): (u64, u64)) -> BufRef {
        match tree.parent() {
            None => pair_buf(rel),
            Some(parent) => BufRef::Chan(Chan::new(ChanKind::Bcast, parent, self.cnode(), brel)),
        }
    }

    /// One chunk up the inter-node tree (master only; the accumulator
    /// holds my node's partial result): fold every child node's landed
    /// chunk, then — off the root's node — ship the combined chunk to
    /// my parent, staged in the master's otherwise idle contribution
    /// buffer.
    fn plan_tree_up(&self, b: &mut PlanBuilder, tree: &GroupTree, rel: u64, clen: usize) {
        let my_node = self.cnode();
        for c in tree.up() {
            let from = Chan::new(ChanKind::Reduce, c, my_node, rel);
            self.plan_fold_landed(b, (from, 0), clen);
        }
        if let Some(parent) = tree.parent() {
            let staging = self.hand_side(Hand::Slot(0), rel);
            let to = Chan::new(ChanKind::Reduce, my_node, parent, rel);
            self.plan_credit_put(b, (to, 0), true, staging, clen);
        }
    }

    /// One chunk down the inter-node tree on a non-root node's master
    /// (Figure 4, step 2): take the parent's put into the edge landing,
    /// publish pair use `rel` for it, send it down the tree first, copy
    /// my own part out, release the use, and return the credit once the
    /// node has drained it.
    fn plan_tree_down(
        &self,
        b: &mut PlanBuilder,
        tree: &GroupTree,
        (rel, brel): (u64, u64),
        off: usize,
        clen: usize,
    ) {
        let parent = tree.parent().expect("non-root node has a parent");
        let from = Chan::new(ChanKind::Bcast, parent, self.cnode(), brel);
        let side = Side { rel };
        b.wait_ctr(CtrRef::Data(from), 1);
        b.push(Step::PairPublish { side });
        self.plan_forward_chunk(b, tree, brel, BufRef::Chan(from), clen);
        self.plan_pair_copy_out(b, BufRef::Chan(from), (0, off, clen));
        plan_pair_release(b, rel);
        let cell = WaitCell::Pair { side };
        b.wait(cell, Until::Use(PairUse::Drained), "buffer use drained");
        self.plan_credit_return(b, from);
    }

    // ----------------------------------------------------------------
    // Broadcast
    // ----------------------------------------------------------------

    /// Plan a broadcast: route to pure shared memory, the buffered
    /// small-message protocol, or the zero-copy large-message protocol.
    /// `root` is a communicator rank.
    pub(crate) fn plan_bcast(&self, b: &mut PlanBuilder, len: usize, root: usize) {
        if len == 0 || self.csize() == 1 {
            return;
        }
        if !self.cmulti() {
            self.plan_smp_bcast(b, len, self.cworld_of(root));
            return;
        }
        // Decision knobs (switch points) come from the builder's
        // effective per-shape tuning; buffer geometry stays world-wide.
        let t = *b.tuning();
        let kind = self.model(&t).trees(Op::Bcast, len).inter;
        let tree = self.group().tree(kind, self.cnode_of(root), self.cnode());
        let quiet = self.c_is_master() && len <= t.interrupt_disable_max;
        // Staged through the pair and the edge landings, or one direct
        // put per child after an address exchange.
        b.interrupts_off(quiet, |b| {
            if len > t.small_large_switch {
                self.plan_bcast_large(b, len, root, &tree);
            } else {
                self.plan_bcast_small(b, len, root, &tree);
            }
        });
    }

    /// Small-message broadcast (≤ 64 KB): the root node stages each
    /// chunk in its buffer pair, every other node takes it in its
    /// parent edge's landing; 8–32 KB messages are pipelined in 4 KB
    /// chunks (§2.4).
    fn plan_bcast_small(&self, b: &mut PlanBuilder, len: usize, root: usize, tree: &GroupTree) {
        let chunk = b.tuning().small_bcast_chunk(len);
        let chunks = SrmTuning::chunk_count(len, chunk);
        let on_root_node = self.cnode() == tree.root();
        let (rel0, brel0) = (b.rel(SeqBase::Pair), b.rel(SeqBase::Bcast));

        for k in 0..chunks {
            let off = k * chunk;
            let clen = chunk.min(len - off);
            let rels = (rel0 + k as u64, brel0 + k as u64);
            let (rel, brel) = rels;
            let data = self.bcast_data(tree, rels);
            let mine = Some((0, off, clen));
            if self.crank() == root {
                // Stage the chunk into the pair: it serves both the
                // local distribution and the network puts. Publish
                // locally before the (possibly credit-blocked) puts:
                // they are one-sided and lose nothing, while the local
                // readers can start draining at once.
                self.plan_pair_write(b, rel, (BufRef::User, Off::Lit(off)), clen, 1);
                if self.c_is_master() {
                    self.plan_forward_chunk(b, tree, brel, data, clen);
                }
                plan_pair_release(b, rel);
            } else if on_root_node && self.c_is_master() {
                // Root is another task on this node: read its published
                // chunk, forward it down the tree, then consume it.
                let forward =
                    |b: &mut PlanBuilder| self.plan_forward_chunk(b, tree, brel, data, clen);
                self.plan_pair_read(b, (rel, data), forward, mine);
            } else if self.c_is_master() {
                self.plan_tree_down(b, tree, rels, off, clen);
            } else {
                // Plain reader: the put target is shared memory, so the
                // data is consumed with a single copy.
                self.plan_pair_read(b, (rel, data), |_| {}, mine);
            }
        }
        b.advance(SeqBase::Pair, chunks as u64);
        b.advance(SeqBase::Bcast, chunks as u64);
    }

    /// Large-message broadcast (> 64 KB, Figure 4 right): an address
    /// exchange, then pipelined puts straight into the user buffers —
    /// no intermediate buffers whatsoever — overlapped with the
    /// intra-node two-buffer broadcast. Each put carries one
    /// [`SrmTuning::SMP_BUF`] cell, so wire chunk `j` is intra-node
    /// cell `j`.
    fn plan_bcast_large(&self, b: &mut PlanBuilder, len: usize, root: usize, tree: &GroupTree) {
        let cells = smp_cells(len);
        let p = self.cslots_here();
        let my_node = self.cnode();
        let root_node = tree.root();
        let master = self.c_is_master();

        // Stage 1: address exchange (leaf→parent user-buffer handles).
        if master && my_node != root_node {
            let parent = tree.parent().expect("non-root node has a parent");
            b.push(Step::AddrSend {
                to: self.cmaster_of(parent),
                src: BufRef::User,
            });
        }
        let child_idx: Vec<(usize, usize)> = if master {
            (tree.down().iter())
                .map(|&c| (c, b.take_addr(self.crank_at(c, 0))))
                .collect()
        } else {
            Vec::new()
        };

        let emit_puts_for_cell = |b: &mut PlanBuilder, j: usize| {
            let (off, clen) = smp_cell(len, j);
            for &(c, idx) in &child_idx {
                b.push(Step::RmaPut {
                    to: self.cmaster_of(c),
                    src: BufRef::User,
                    src_off: Off::Lit(off),
                    dst: BufRef::Taken { idx },
                    dst_off: Off::Lit(off),
                    len: clen,
                    ctr: Some(CtrRef::LargeData { node: c }),
                });
            }
        };
        let rel0 = b.rel(SeqBase::Pair);

        if my_node == root_node {
            if self.crank() == root {
                if master {
                    // Stage 2: pipelined zero-copy puts down the tree.
                    for j in 0..cells {
                        emit_puts_for_cell(b, j);
                    }
                }
                // Stage 3: intra-node broadcast on the root node.
                self.plan_smp_bcast(b, len, self.cworld_of(root));
            } else if master {
                // Master is an ordinary reader locally, but forwards
                // each cell down the tree as soon as it has arrived
                // through shared memory.
                for j in 0..cells {
                    let (off, clen) = smp_cell(len, j);
                    self.plan_smp_cell_read(b, off, clen, rel0 + j as u64);
                    emit_puts_for_cell(b, j);
                }
                b.advance(SeqBase::Pair, cells as u64);
            } else {
                self.plan_smp_bcast(b, len, self.cworld_of(root));
            }
        } else if master {
            // Stage 4 driver on a non-root node: as each cell lands in
            // the user buffer, forward it, then feed it to the
            // intra-node pipeline.
            for j in 0..cells {
                b.wait_ctr(CtrRef::LargeData { node: my_node }, 1);
                emit_puts_for_cell(b, j);
                if p > 1 {
                    let (off, clen) = smp_cell(len, j);
                    self.plan_smp_cell_write(b, off, clen, rel0 + j as u64);
                }
            }
            if p > 1 {
                b.advance(SeqBase::Pair, cells as u64);
            }
        } else {
            self.plan_smp_bcast(b, len, self.cmaster_of(my_node));
        }
    }

    // ----------------------------------------------------------------
    // Reduce
    // ----------------------------------------------------------------

    /// Plan the pipelined reduce (§2.4): a tree within each node and
    /// one between the masters
    /// ([`SrmModel::trees`](crate::SrmModel::trees) names the kinds),
    /// chunked so that memory copies, operator execution and network
    /// transfers overlap. `root` is a communicator rank.
    pub(crate) fn plan_reduce(&self, b: &mut PlanBuilder, len: usize, root: usize) {
        if len == 0 || self.csize() == 1 {
            return;
        }
        let (root_node, root_gslot) = self.ccoord_of(root);
        let kinds = self.model(b.tuning()).trees(Op::Reduce, len);
        let tree = self.group().tree(kinds.inter, root_node, self.cnode());
        let quiet = self.cmulti() && self.c_is_master() && len <= b.tuning().interrupt_disable_max;
        b.interrupts_off(quiet, |b| {
            let chunk = self.tuning().reduce_chunk;
            let chunks = SrmTuning::chunk_count(len, chunk);
            let xfer_case = self.cnode() == root_node && root_gslot != 0;
            let rel0 = b.rel(SeqBase::Reduce);
            let xrel0 = b.rel(SeqBase::Xfer);

            for k in 0..chunks {
                let off = k * chunk;
                let clen = chunk.min(len - off);
                let xrel = xrel0 + k as u64;
                let has_acc =
                    self.plan_smp_reduce_chunk(b, off, clen, rel0 + k as u64, kinds.intra);

                if self.c_is_master() {
                    debug_assert!(has_acc, "master is the intra-node subtree root");
                    self.plan_tree_up(b, &tree, rel0 + k as u64, clen);
                    if self.crank() == root {
                        plan_acc_to_user(b, off, clen);
                    } else if xfer_case {
                        // Root is a non-master task on this node: hand
                        // the chunk over through the xfer buffer.
                        let acc = (BufRef::Acc, Off::Lit(0));
                        self.plan_hand_publish(b, (Hand::Xfer, xrel), acc, clen, CopyCost::Free);
                    }
                } else if self.crank() == root {
                    let label = "xfer chunk ready";
                    let xfer = (Hand::Xfer, xrel);
                    self.plan_hand_consume(b, xfer, k == 0, label, |b, src, src_off| {
                        b.push(Step::ShmCopy {
                            src,
                            src_off,
                            dst: BufRef::User,
                            dst_off: Off::Lit(off),
                            len: clen,
                            cost: CopyCost::Read(1),
                        })
                    });
                }
            }
            if self.c_is_master() {
                // The tree root's own contribution channel went unused
                // (slot 0's buffer stages puts; its flags carry no data).
                self.plan_contrib_catchup(b, rel0 + chunks as u64);
            }
            b.advance(SeqBase::Reduce, chunks as u64);
            if xfer_case {
                b.advance(SeqBase::Xfer, chunks as u64);
            }
        });
    }

    // ----------------------------------------------------------------
    // Allreduce
    // ----------------------------------------------------------------

    /// Plan an allreduce: recursive doubling between nodes up to one
    /// reduce chunk (16 KB), above that the four-stage pipeline (§2.4,
    /// Figure 5) or — where
    /// [`SrmModel::allreduce_composes`](crate::SrmModel::allreduce_composes)
    /// prices it lower — a reduce to group node 0's master followed by
    /// a broadcast from it, each half on the trees its own closed form
    /// derives (the pipeline stays on the configured tree).
    pub(crate) fn plan_allreduce(&self, b: &mut PlanBuilder, len: usize) {
        if len == 0 || self.csize() == 1 {
            return;
        }
        // The reduce and broadcast sub-planners below read the same
        // effective tuning off the builder, so one table entry governs
        // the whole call.
        let t = *b.tuning();
        if self.model(&t).allreduce_composes(len) {
            let root = self.crank_at(0, 0);
            self.plan_reduce(b, len, root);
            self.plan_bcast(b, len, root);
            return;
        }
        let quiet = self.cmulti() && self.c_is_master() && len <= t.interrupt_disable_max;
        b.interrupts_off(quiet, |b| {
            if len <= t.reduce_chunk {
                self.plan_allreduce_small(b, len);
            } else {
                self.plan_allreduce_large(b, len, self.allreduce_skew());
            }
        });
    }

    /// Up to one reduce chunk: one intra-node reduce to the master,
    /// recursive-doubling pairwise exchange between the masters,
    /// intra-node broadcast. No exchange takes a credit: each lands in
    /// its receiver's landing from the sender, in the half of this
    /// call's [`SeqBase::Rd`] parity, which the sender writes again only
    /// two such allreduces later (DESIGN.md §16.2).
    fn plan_allreduce_small(&self, b: &mut PlanBuilder, len: usize) {
        let rel = b.rel(SeqBase::Reduce);
        let has_acc = self.plan_smp_reduce_chunk(b, 0, len, rel, self.tree());
        // Puts ship the accumulator from the master's own (otherwise
        // idle) contribution buffer.
        let staging = self.hand_side(Hand::Slot(0), rel);
        let (my, n) = (self.cnode(), self.cnodes());
        let half = poff(SeqBase::Rd, b.rel(SeqBase::Rd), self.tuning().reduce_chunk);
        let put = |b: &mut PlanBuilder, to: usize| {
            let c = Chan::new(ChanKind::Rd, my, to, 0);
            plan_stage_acc(b, staging.0, staging.1, len);
            b.push(Step::RmaPut {
                to: self.cmaster_of(to),
                src: staging.0,
                src_off: staging.1,
                dst: BufRef::Chan(c),
                dst_off: half,
                len,
                ctr: Some(CtrRef::Data(c)),
            });
        };
        // Wait for `from`'s exchange, then fold it in or take it as the
        // result.
        let take = |b: &mut PlanBuilder, from: usize, fold: bool| {
            let c = Chan::new(ChanKind::Rd, from, my, 0);
            b.wait_ctr(CtrRef::Data(c), 1);
            let (src, src_off) = (BufRef::Chan(c), half);
            b.push(if fold {
                Step::LocalReduce { src, src_off, len }
            } else {
                let (dst, dst_off, cost) = (BufRef::Acc, Off::Lit(0), CopyCost::Read(1));
                Step::ShmCopy {
                    src,
                    src_off,
                    dst,
                    dst_off,
                    len,
                    cost,
                }
            });
        };

        if self.c_is_master() {
            debug_assert!(has_acc, "master is the subtree root");
            let pof2 = 1usize << n.ilog2();
            let rem = n - pof2;
            // Fold the extra nodes into their even neighbours.
            let newnode = if my >= 2 * rem {
                Some(my - rem)
            } else if my % 2 == 1 {
                put(b, my - 1);
                None
            } else {
                take(b, my + 1, true);
                Some(my / 2)
            };
            if let Some(newnode) = newnode {
                let mut mask = 1usize;
                while mask < pof2 {
                    let pn = newnode ^ mask;
                    let partner = if pn < rem { pn * 2 } else { pn + rem };
                    put(b, partner);
                    take(b, partner, true);
                    mask <<= 1;
                }
            }
            // Unfold: hand the result back to the folded-out nodes.
            if my < 2 * rem && my.is_multiple_of(2) {
                put(b, my + 1);
            } else if my < 2 * rem {
                take(b, my - 1, false);
            }
            plan_acc_to_user(b, 0, len);
            // The tree root's own contribution channel went unused.
            self.plan_contrib_catchup(b, rel + 1);
        }
        b.advance(SeqBase::Reduce, 1);
        b.advance(SeqBase::Rd, 1);
        self.plan_smp_bcast(b, len, self.cmaster_of(self.cnode()));
    }

    /// How many chunks my down half runs behind my up half: 0 on group
    /// node 0's master (it has no down half), `1 + depth(node)`
    /// elsewhere — derived from the tree, not tuned. A master sends
    /// chunk `j` down only after its own `up(j + d)`, which needs its
    /// children's `up(j + d)`: a child at the same skew would still sit
    /// behind its `down(j − 1)`, two wire hops per chunk, so every level
    /// runs one chunk further ahead than its parent. Bounds: the ranks
    /// of a node share one skew (a non-master behind its master would
    /// deadlock the node), and node 0's non-masters may lead their
    /// master by at most the two contribution plus two pair sides.
    /// Up-leg cells (contribution sides, `Reduce` channels and credits)
    /// are freed by up-leg steps only and down-leg cells (the node
    /// pair, `Bcast` channels) by down-leg steps only, so no wait
    /// crosses the legs except through program order.
    fn allreduce_skew(&self) -> usize {
        if self.cnode() == 0 && self.c_is_master() {
            return 0;
        }
        1 + depth(self.tree(), self.cnode(), self.cnodes())
    }

    /// Above one reduce chunk: the four-stage pipeline of Figure 5 — per
    /// chunk an **up half** (intra-node reduce, inter-node reduce toward
    /// group node 0, whose master also starts the chunk's broadcast: the
    /// next chunk overwrites the accumulator that holds it) and a **down
    /// half** (inter-node broadcast away from group node 0, intra-node
    /// broadcast). Iteration `i` emits `up(i)`, then `down(i − d)`; the
    /// planner passes [`Self::allreduce_skew`] for `d`.
    fn plan_allreduce_large(&self, b: &mut PlanBuilder, len: usize, d: usize) {
        let tree = self.group().tree(self.tree(), 0, self.cnode());
        let chunk = self.tuning().reduce_chunk;
        let chunks = SrmTuning::chunk_count(len, chunk);
        let rel0 = b.rel(SeqBase::Reduce);
        let (prel0, brel0) = (b.rel(SeqBase::Pair), b.rel(SeqBase::Bcast));
        let (master, on_root) = (self.c_is_master(), self.cnode() == 0);
        let span = |k: usize| {
            let rels = (prel0 + k as u64, brel0 + k as u64);
            (k * chunk, chunk.min(len - k * chunk), rels)
        };

        for i in 0..chunks + d {
            if i < chunks {
                let ((off, clen, rels), rel) = (span(i), rel0 + i as u64);
                let has_acc = self.plan_smp_reduce_chunk(b, off, clen, rel, self.tree());
                if master {
                    debug_assert!(has_acc, "master is the subtree root");
                    self.plan_tree_up(b, &tree, rel, clen);
                    if on_root {
                        // Fully combined: start the broadcast leg here.
                        let (prel, brel) = rels;
                        self.plan_pair_write(b, prel, (BufRef::Acc, Off::Lit(0)), clen, 1);
                        self.plan_forward_chunk(b, &tree, brel, pair_buf(prel), clen);
                        plan_pair_release(b, prel);
                        plan_acc_to_user(b, off, clen);
                    }
                }
            }
            let Some((off, clen, rels)) = i.checked_sub(d).map(span) else {
                continue;
            };
            if !master {
                // Consume the broadcast chunk where it landed.
                let data = (rels.0, self.bcast_data(&tree, rels));
                self.plan_pair_read(b, data, |_| {}, Some((0, off, clen)));
            } else if !on_root {
                // The combined chunk comes back: forward, distribute.
                self.plan_tree_down(b, &tree, rels, off, clen);
            }
        }
        if master {
            // The tree root's own contribution channel went unused.
            self.plan_contrib_catchup(b, rel0 + chunks as u64);
        }
        b.advance(SeqBase::Reduce, chunks as u64);
        b.advance(SeqBase::Pair, chunks as u64);
        b.advance(SeqBase::Bcast, chunks as u64);
    }

    // ----------------------------------------------------------------
    // Barrier
    // ----------------------------------------------------------------

    /// Plan a communicator barrier (§2.4 and [17]): flat flag check-in
    /// on each node, k-ary dissemination rounds between the masters,
    /// then the flag reset releases the node. In round `r` master `i`
    /// bumps the counters of masters `i + j·kʳ` (mod n) for every
    /// `0 < j < k` with `j·kʳ < n` with zero-byte puts, then waits for
    /// the matching bumps, each on the cumulative counter of its peer.
    /// `k` is [`SrmModel::barrier_radix`](crate::SrmModel::barrier_radix).
    pub(crate) fn plan_barrier(&self, b: &mut PlanBuilder) {
        if self.csize() == 1 {
            return;
        }
        let k = self.model(b.tuning()).barrier_radix();
        b.interrupts_off(self.cmulti() && self.c_is_master(), |b| {
            self.plan_smp_barrier_enter(b);
            let (my, n) = (self.cnode(), self.cnodes());
            let mut dist = 1usize;
            while self.c_is_master() && dist < n {
                let peers: Vec<usize> = (1..k).map(|j| j * dist).take_while(|&d| d < n).collect();
                for &d in &peers {
                    let to = (my + d) % n;
                    let ctr = CtrRef::BarRound { node: to, from: my };
                    b.push(Step::CounterPut {
                        to: self.cmaster_of(to),
                        ctr,
                    });
                }
                for &d in &peers {
                    let from = (my + n - d) % n;
                    let ctr = CtrRef::BarRound { node: my, from };
                    b.wait_ctr_ge(ctr, seq(SeqBase::Barrier, 1));
                }
                dist *= k;
            }
            b.advance(SeqBase::Barrier, 1);
            self.plan_smp_barrier_release(b);
        });
    }

    // ----------------------------------------------------------------
    // Gather / Scatter / Allgather
    // ----------------------------------------------------------------

    /// Plan a gather: every member's segment `buf[c*len..(c+1)*len]`
    /// (indexed by **communicator rank** `c`) reaches the root's buffer
    /// at the same offsets. `root` is a communicator rank.
    ///
    /// Protocol: non-master tasks relay their segment in reduce-chunk
    /// pieces through their per-slot contribution buffers (the reduce
    /// leaf pattern); each master puts the pieces **straight into the
    /// root's user buffer** at their final offsets — zero staging at
    /// the root — after a one-AM address exchange, bumping the root
    /// node's `large_data` counter per piece. The root consumes local
    /// contributions through shared memory and finally waits for the
    /// full remote piece count. Interrupts stay enabled: the root-node
    /// master may finish its own steps before remote puts arrive.
    pub(crate) fn plan_gather(&self, b: &mut PlanBuilder, len: usize, root: usize) {
        if len == 0 || self.csize() == 1 {
            return;
        }
        let chunk = self.tuning().reduce_chunk;
        let chunks = SrmTuning::chunk_count(len, chunk);
        let p = self.cslots_here();
        let nodes = self.cnodes();
        let my_node = self.cnode();
        let my = self.cslot();
        let (root_node, root_gslot) = self.ccoord_of(root);
        let multi = self.cmulti();
        // When the root is not its node's master, the *master* is the
        // target of the remote puts, so the master must be the rank
        // that waits for them (it may not leave the call — and later
        // disable interrupts or shut down — while puts are in flight);
        // it then signals the root over the xfer channel.
        let master_waits = multi && root_gslot != 0;
        let rel0 = b.rel(SeqBase::Reduce);
        let xrel0 = b.rel(SeqBase::Xfer);
        // Chunk `k` of a segment as `(chunk index, offset, bytes)`.
        let pieces =
            || (0..chunks).map(|k| (rel0 + k as u64, k * chunk, chunk.min(len - k * chunk)));
        // Wait for every remote piece: every member of every non-root
        // node relays `chunks` of them.
        let absorb_remote = |b: &mut PlanBuilder| {
            let n: usize = (0..nodes)
                .filter(|&g| g != root_node)
                .map(|g| self.cslots_on(g) * chunks)
                .sum();
            b.wait_ctr(CtrRef::LargeData { node: root_node }, n as u64);
        };
        // Ship the root's buffer handle to every remote master.
        let send_root_addr = |b: &mut PlanBuilder, src: BufRef| {
            for m in (0..nodes).filter(|&m| m != root_node) {
                b.push(Step::AddrSend {
                    to: self.cmaster_of(m),
                    src,
                });
            }
        };
        // Relay my segment chunk-by-chunk through my contribution
        // buffer (producer half of the reduce-leaf pattern).
        let contribute = |b: &mut PlanBuilder| {
            let cost = CopyCost::Write(self.peer_streams());
            for (rel, koff, clen) in pieces() {
                let from = (BufRef::User, Off::Lit(self.crank() * len + koff));
                self.plan_hand_publish(b, (Hand::Slot(my), rel), from, clen, cost);
            }
        };

        if self.crank() == root {
            // Ship my buffer handle to the remote masters — through my
            // own master (a shared-memory hand-over) if I am not it.
            if multi && my != 0 {
                b.push(Step::AddrSend {
                    to: self.cmaster_of(my_node),
                    src: BufRef::User,
                });
            } else if multi {
                send_root_addr(b, BufRef::User);
            }
            // Consume every other local slot's segment.
            for s in (0..p).filter(|&s| s != my) {
                let seg = self.crank_at(my_node, s) * len;
                for (rel, koff, clen) in pieces() {
                    self.plan_hand_consume(
                        b,
                        (Hand::Slot(s), rel),
                        rel == rel0,
                        "gather contribution ready",
                        |b, src, src_off| {
                            b.push(Step::ShmCopy {
                                src,
                                src_off,
                                dst: BufRef::User,
                                dst_off: Off::Lit(seg + koff),
                                len: clen,
                                cost: CopyCost::Read(1),
                            })
                        },
                    );
                }
            }
            // Wait for every remote piece to land in my buffer.
            if multi {
                if master_waits {
                    let label = "gather remote pieces landed";
                    self.plan_hand_consume(b, (Hand::Xfer, xrel0), true, label, |_, _, _| {});
                } else {
                    absorb_remote(b);
                }
            }
            // The root's own contribution channel went unused.
            self.plan_contrib_catchup(b, rel0 + chunks as u64);
        } else if my_node == root_node {
            // Root-node master (when it is not the root) forwards the
            // root's handle before contributing its own segment.
            if multi && my == 0 {
                let idx = b.take_addr(root);
                send_root_addr(b, BufRef::Taken { idx });
            }
            contribute(b);
            if master_waits && my == 0 {
                // I am the target of the remote puts: absorb them all,
                // then wake the root through the xfer flags.
                absorb_remote(b);
                b.push(Step::FlagRaise {
                    flag: FlagRef::Ready(Hand::Xfer),
                    val: seq(SeqBase::Xfer, xrel0 + 1),
                });
            }
        } else if my == 0 {
            // Remote master: learn the root's buffer from the root
            // node's master, put my own segment, then relay every local
            // slot's pieces.
            let idx = b.take_addr(self.crank_at(root_node, 0));
            let put =
                |b: &mut PlanBuilder, src: BufRef, src_off: Off, dst_off: usize, len: usize| {
                    b.push(Step::RmaPut {
                        to: self.cmaster_of(root_node),
                        src,
                        src_off,
                        dst: BufRef::Taken { idx },
                        dst_off: Off::Lit(dst_off),
                        len,
                        ctr: Some(CtrRef::LargeData { node: root_node }),
                    })
                };
            for (_, koff, clen) in pieces() {
                let at = self.crank() * len + koff;
                put(b, BufRef::User, Off::Lit(at), at, clen);
            }
            for s in 1..p {
                let seg = self.crank_at(my_node, s) * len;
                for (rel, koff, clen) in pieces() {
                    self.plan_hand_consume(
                        b,
                        (Hand::Slot(s), rel),
                        rel == rel0,
                        "gather contribution ready",
                        |b, src, src_off| put(b, src, src_off, seg + koff, clen),
                    );
                }
            }
            // My own segment bypassed my contribution channel.
            self.plan_contrib_catchup(b, rel0 + chunks as u64);
        } else {
            contribute(b);
        }
        b.advance(SeqBase::Reduce, chunks as u64);
        if master_waits && my_node == root_node {
            b.advance(SeqBase::Xfer, 1);
        }
    }

    /// Piece decomposition of group node `g`'s scatter block as
    /// `(root_off, block_off, plen)` triples: source offset in the
    /// root's user buffer, offset within the node's logical block
    /// (slot `s`'s segment occupies `[s*len, (s+1)*len)`), and piece
    /// length.
    ///
    /// When the node's members hold **consecutive** communicator ranks
    /// the whole block is one contiguous region of the root's buffer
    /// and streams in plain chunks (the world fast path); otherwise
    /// each slot's segment is its own chunk run, because a single RMA
    /// put needs a contiguous source.
    pub(crate) fn scatter_pieces(
        &self,
        g: usize,
        len: usize,
        chunk: usize,
    ) -> Vec<(usize, usize, usize)> {
        let slots = self.cslots_on(g);
        let mut out = Vec::new();
        if self.ccontig(g) {
            let base = self.crank_at(g, 0) * len;
            let block = slots * len;
            for k in 0..SrmTuning::chunk_count(block, chunk) {
                let off = k * chunk;
                out.push((base + off, off, chunk.min(block - off)));
            }
        } else {
            let segc = SrmTuning::chunk_count(len, chunk);
            for s in 0..slots {
                let seg = self.crank_at(g, s) * len;
                for k in 0..segc {
                    let off = k * chunk;
                    out.push((seg + off, s * len + off, chunk.min(len - off)));
                }
            }
        }
        out
    }

    /// Slot `s`'s part of the block piece `(block_off, plen)` on my
    /// node, as `(offset in the piece, user-buffer offset, bytes)`.
    pub(crate) fn block_overlap(
        &self,
        len: usize,
        (boff, plen): (usize, usize),
        s: usize,
    ) -> Option<(usize, usize, usize)> {
        let lo = boff.max(s * len);
        let hi = (boff + plen).min((s + 1) * len);
        (lo < hi).then(|| {
            let user = self.crank_at(self.cnode(), s) * len + (lo - s * len);
            (lo - boff, user, hi - lo)
        })
    }

    /// Plan a scatter: the root's `buf[..csize*len]` is cut into
    /// per-rank segments; communicator rank `c` receives
    /// `buf[c*len..(c+1)*len]`. `root` is a communicator rank.
    ///
    /// Protocol: the root streams each destination node's block in
    /// pieces (see [`SrmComm::scatter_pieces`]) through the reduce
    /// landing channels (reusing their credit protocol unchanged); the
    /// receiving master relays each piece into the node's buffer pair,
    /// where every slot copies out just the overlap with its own
    /// segment. A root that is not its node's master hands pieces to
    /// the master through the `xfer` buffer, exactly like the reduce
    /// handoff in the other direction.
    pub(crate) fn plan_scatter(&self, b: &mut PlanBuilder, len: usize, root: usize) {
        if len == 0 || self.csize() == 1 {
            return;
        }
        let t = self.tuning();
        let chunk = t.reduce_chunk.min(t.small_large_switch);
        let p = self.cslots_here();
        let nodes = self.cnodes();
        let my_node = self.cnode();
        let my = self.cslot();
        let (root_node, root_gslot) = self.ccoord_of(root);
        let xfer_relay = self.cmulti() && root_gslot != 0;
        let rel0 = b.rel(SeqBase::Reduce);
        let prel0 = b.rel(SeqBase::Pair);
        let xrel0 = b.rel(SeqBase::Xfer);
        let pieces: Vec<Vec<(usize, usize, usize)>> = (0..nodes)
            .map(|g| self.scatter_pieces(g, len, chunk))
            .collect();
        // Uniform advance: per-node piece counts differ on uneven
        // groups, but the Reduce cumulative must advance identically on
        // every member (see the module doc), so all ranks advance by
        // the maximum.
        let max_pieces = pieces.iter().map(Vec::len).max().expect("nonempty group");
        // The wire pieces in stream order, as `(destination node,
        // reduce chunk, xfer use, root offset, bytes)`.
        let stream = || {
            (0..nodes)
                .filter(|&c| c != root_node)
                .flat_map(|c| {
                    pieces[c]
                        .iter()
                        .enumerate()
                        .map(move |(j, p)| (c, j as u64, p))
                })
                .enumerate()
                .map(|(xi, (c, j, &(roff, _, plen)))| (c, rel0 + j, xrel0 + xi as u64, roff, plen))
        };
        // Reader side of the pair distribution of my node's block
        // (every non-publishing slot must release every piece).
        let read_block = |b: &mut PlanBuilder| {
            for (j, &(_, boff, plen)) in pieces[my_node].iter().enumerate() {
                let (rel, mine) = (prel0 + j as u64, self.block_overlap(len, (boff, plen), my));
                self.plan_pair_read(b, (rel, pair_buf(rel)), |_| {}, mine);
            }
        };

        if self.crank() == root {
            // Ship every other node's block through the reduce landing
            // channels (directly, or via my master over `xfer`).
            for (c, rel, xrel, roff, plen) in stream() {
                let from = (BufRef::User, Off::Lit(roff));
                if root_gslot == 0 {
                    let to = Chan::new(ChanKind::Reduce, root_node, c, rel);
                    self.plan_credit_put(b, (to, 0), false, from, plen);
                } else {
                    self.plan_hand_publish(b, (Hand::Xfer, xrel), from, plen, CopyCost::Free);
                }
            }
            // Distribute my own node's block through the pair.
            if p > 1 {
                for (j, &(roff, _, plen)) in pieces[my_node].iter().enumerate() {
                    let from = (BufRef::User, Off::Lit(roff));
                    self.plan_pair_write(b, prel0 + j as u64, from, plen, 1);
                    plan_pair_release(b, prel0 + j as u64);
                }
            }
        } else if my_node == root_node {
            if my == 0 && xfer_relay {
                // Master relays the root's xfer pieces onto the wire.
                // The put snapshots the source synchronously, so the
                // side is reusable as soon as it is issued.
                for (c, rel, xrel, _, plen) in stream() {
                    let (label, first) = ("xfer chunk ready", xrel == xrel0);
                    self.plan_hand_consume(b, (Hand::Xfer, xrel), first, label, |b, src, off| {
                        let to = Chan::new(ChanKind::Reduce, root_node, c, rel);
                        self.plan_credit_put(b, (to, 0), false, (src, off), plen);
                    });
                }
            }
            read_block(b);
        } else if my == 0 {
            // Destination-node master: land each piece, republish it on
            // the pair, return the credit, take my overlap.
            for (j, &(_, boff, plen)) in pieces[my_node].iter().enumerate() {
                let from = Chan::new(ChanKind::Reduce, root_node, my_node, rel0 + j as u64);
                let landed = (BufRef::Chan(from), Off::Lit(0));
                let rel = prel0 + j as u64;
                b.wait_ctr(CtrRef::Data(from), 1);
                if p > 1 {
                    self.plan_pair_write(b, rel, landed, plen, 1);
                    self.plan_credit_return(b, from);
                    if let Some(mine) = self.block_overlap(len, (boff, plen), my) {
                        self.plan_pair_copy_out(b, pair_buf(rel), mine);
                    }
                    plan_pair_release(b, rel);
                } else {
                    b.push(Step::ShmCopy {
                        src: landed.0,
                        src_off: landed.1,
                        dst: BufRef::User,
                        dst_off: Off::Lit(self.crank() * len + boff),
                        len: plen,
                        cost: CopyCost::Read(1),
                    });
                    self.plan_credit_return(b, from);
                }
            }
        } else {
            read_block(b);
        }

        // Scatter advances the reduce cumulative (it borrows the
        // reduce landing channels) but no contribution channel carries
        // data — every rank re-synchronizes its own.
        self.plan_contrib_catchup(b, rel0 + max_pieces as u64);
        b.advance(SeqBase::Reduce, max_pieces as u64);
        // My node's pair carried its own block's pieces (none on a
        // single-slot node).
        if p > 1 {
            b.advance(SeqBase::Pair, pieces[my_node].len() as u64);
        }
        if xfer_relay && my_node == root_node {
            b.advance(SeqBase::Xfer, stream().count() as u64);
        }
    }

    /// Plan an allgather: a gather to communicator rank 0 concatenated
    /// with a broadcast of the assembled `csize*len` bytes — the
    /// planner composition the schedule IR makes trivial (the
    /// broadcast's relative sequence values land after the gather's
    /// advances).
    pub(crate) fn plan_allgather(&self, b: &mut PlanBuilder, len: usize) {
        if len == 0 || self.csize() == 1 {
            return;
        }
        self.plan_gather(b, len, 0);
        self.plan_bcast(b, self.csize() * len, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{MachineConfig, Sim, Topology};

    /// The large allreduce's skew reorders each rank's steps without
    /// changing them — also where it exceeds the five chunks (16 nodes).
    #[test]
    fn allreduce_skew_only_reorders_each_ranks_steps() {
        for nodes in [1, 5, 16] {
            let mut sim = Sim::new(MachineConfig::ibm_sp_colony());
            let world =
                crate::SrmWorld::new(&mut sim, Topology::new(nodes, 3), SrmTuning::default());
            for comm in (0..3 * nodes).map(|rank| world.comm(rank)) {
                let sorted = |d| {
                    let mut b = PlanBuilder::default();
                    comm.plan_allreduce_large(&mut b, 80 << 10, d);
                    let steps = b.finish().steps;
                    let mut s: Vec<_> = steps.iter().map(|s| format!("{s:?}")).collect();
                    s.sort();
                    s
                };
                let what = format!("{nodes} nodes, rank {}", comm.rank());
                assert_eq!(sorted(comm.allreduce_skew()), sorted(0), "{what}");
            }
        }
    }
}
