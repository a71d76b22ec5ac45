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
//! One task per node — its **wire rank** for the call
//! (`SrmComm::wire_rank`): the root on the root's node, the **master**
//! (group slot 0) everywhere else — carries the node's tree traffic; a
//! gather root also takes every remote master's puts. Data put by
//! another node lands in shared memory (the edge's landing buffers or,
//! for large broadcasts, directly in the master's user buffer), where
//! it "is directly available to all the tasks running on that node
//! without the need for copying the data": a master publishes a landed
//! broadcast chunk, scatter piece or small allgather block to its node
//! in place, and the node's tasks copy straight out of the landing.
//!
//! Flow control is explicit, exactly as the paper describes replacing
//! MPI's eager/rendezvous machinery: two landing buffers per (parent,
//! child) edge, a data counter per buffer bumped by the parent's put,
//! and a credit counter per buffer restored by the child's zero-byte
//! put when its node has drained it. Counters are waited on with
//! `LAPI_Waitcntr`-style calls so the dispatcher makes progress without
//! interrupts while the wire ranks run with interrupts disabled (the
//! paper does so for small operations; here at every size,
//! `SrmComm::plan_quiet`).
//!
//! The gather/scatter family extends the same machinery: scatter
//! streams per-node blocks into the broadcast landings, published in
//! place like broadcast chunks; gather collects each node's segments
//! at its wire rank through the per-slot contribution buffers, then
//! either credit-puts each remote node's block into the root's reduce
//! landing from that node, no address moving, or — where the model
//! prices it lower, or a block outgrows a landing — puts the segments
//! straight into the root's user buffer at their final offsets (the
//! root ships its handle, zero staging at the root). Allgather gathers
//! each node's segments to its master the same way, exchanges the node
//! blocks between the masters by recursive k-ing, and publishes them
//! within each node: each block in place as it lands, or the assembled
//! buffer once the exchange is over, as the model prices them.
//!
//! The calls between nodes that run no tree — the barrier, the small
//! allreduce and the allgather — walk one round iterator,
//! [`Rounds`].
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

use crate::embed::{depth, GroupTree, Rounds};
use crate::plan::{
    BufRef, Chan, ChanKind, CopyCost, CtrRef, FlagRef, PlanBuilder, SeqBase, Step, Until, Val,
    WaitCell,
};
use crate::smp::{plan_acc_to_user, plan_pair_release, smp_cell, smp_cells};
use crate::tune::TuneOp as Op;
use crate::tuning::SrmTuning;
use crate::world::SrmComm;
use shmem::PairUse;

pub(crate) fn seq(base: SeqBase, rel: u64) -> Val {
    Val::Seq { base, rel }
}

impl SrmComm {
    /// Re-synchronize my contribution channel with [`SeqBase::Reduce`],
    /// after I published `sent` uses on it in this operation.
    ///
    /// Invariant of the contrib channels: after every operation that
    /// advances the reduce cumulative, **every** slot's READY and DONE
    /// equal the new cumulative `rel_end`. A slot that published
    /// through `rel_end` gets there through the protocol itself (it
    /// raises READY, its consumers raise DONE); a slot that published
    /// less — the root of a reduce tree, a gather root, a slot of a
    /// ragged exchange — raises both the rest of
    /// the way itself, so a later operation's drain guard sees a fully
    /// drained channel.
    ///
    /// DONE is a statement about the channel's consumers, so the owner
    /// must not raise it past reads that have not happened yet: the
    /// previous operation's consumer can lag a full operation behind (a
    /// gather's relaying master blocks on the root's address AM before
    /// it reads), and this operation's consumers may still be reading
    /// my `sent` uses. The catch-up therefore first waits until the
    /// channel is drained through them. Raising READY needs no such
    /// wait — only the owner itself ever raises it, in program order.
    pub(crate) fn plan_contrib_catchup(&self, b: &mut PlanBuilder, sent: u64, rel_end: u64) {
        let rel0 = b.rel(SeqBase::Reduce);
        if rel0 + sent >= rel_end {
            return;
        }
        let done = FlagRef::Done(self.cslot());
        if sent > 0 {
            let consumed = seq(SeqBase::Reduce, rel0 + sent);
            b.wait_flag(done, consumed, "contrib consumed before catch-up");
        }
        let drained = seq(SeqBase::Reduce, rel0);
        b.wait_flag(done, drained, "contrib drained before catch-up");
        for flag in [FlagRef::Ready(self.cslot()), done] {
            let val = seq(SeqBase::Reduce, rel_end);
            b.push(Step::FlagRaise { flag, val });
        }
    }

    // ----------------------------------------------------------------
    // Wire legs
    // ----------------------------------------------------------------

    /// The interrupt rule (§2.3), for every call between nodes: my
    /// node's wire rank for the call, `wire`, runs a call of at most
    /// [`interrupt_disable_max`](crate::SrmTuning::interrupt_disable_max)
    /// bytes with interrupts off, bracketing `body`, and takes the puts
    /// aimed at it by polling inside its counter waits.
    pub(crate) fn plan_quiet(
        &self,
        b: &mut PlanBuilder,
        wire: usize,
        len: usize,
        body: impl FnOnce(&mut PlanBuilder),
    ) {
        let quiet =
            self.cmulti() && self.crank() == wire && len <= b.tuning().interrupt_disable_max;
        if quiet {
            b.push(Step::SetInterrupts(false));
        }
        body(b);
        if quiet {
            b.push(Step::SetInterrupts(true));
        }
    }

    /// Sender leg of channel `c`: spend a credit, put `len` bytes of
    /// `from` at byte `at` of the receiver's landing, bump its data
    /// counter.
    pub(crate) fn plan_credit_put(
        &self,
        b: &mut PlanBuilder,
        (c, at): (Chan, usize),
        (src, src_off): (BufRef, usize),
        len: usize,
    ) {
        b.wait_ctr(CtrRef::Free(c), 1);
        b.push(Step::RmaPut {
            to: self.cworld_of(c.dst),
            src,
            src_off,
            dst: BufRef::Chan(c),
            dst_off: at,
            len,
            ctr: Some(CtrRef::Data(c)),
        });
    }

    /// Receiver leg of channel `c`, second half: the landing is
    /// reusable — hand the credit back to the sender.
    pub(crate) fn plan_credit_return(&self, b: &mut PlanBuilder, c: Chan) {
        b.push(Step::CounterPut {
            to: self.cworld_of(c.src),
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
            src_off: at,
            len,
        });
        self.plan_credit_return(b, c);
    }

    /// Forward broadcast chunk `brel` (a [`SeqBase::Bcast`] lane) from
    /// `data` to every child node of the call rooted at `root`,
    /// honouring the per-edge credits (Figure 4, left).
    fn plan_forward_chunk(
        &self,
        b: &mut PlanBuilder,
        (tree, root): (&GroupTree, usize),
        brel: u64,
        data: BufRef,
        clen: usize,
    ) {
        for &c in tree.down() {
            let to = Chan::new(ChanKind::Bcast, self.crank(), self.wire_rank(c, root), brel);
            self.plan_credit_put(b, (to, 0), (data, 0), clen);
        }
    }

    /// The edge broadcast lane `brel` of the call rooted at `root`
    /// reaches my node over, from its parent's wire rank; `None` on the
    /// tree's root node.
    fn bcast_edge(&self, (tree, root): (&GroupTree, usize), brel: u64) -> Option<Chan> {
        let (wire, me) = (|g| self.wire_rank(g, root), self.cnode());
        (tree.parent()).map(|parent| Chan::new(ChanKind::Bcast, wire(parent), wire(me), brel))
    }

    /// Where broadcast chunk `(rel, brel)` — pair use `rel`, lane
    /// `brel` — is read on my node: the pair side the root filled on
    /// its own node, else the edge landing the parent's put left it in.
    fn bcast_data(&self, call: (&GroupTree, usize), (rel, brel): (u64, u64)) -> BufRef {
        (self.bcast_edge(call, brel)).map_or(BufRef::Pair { rel }, BufRef::Chan)
    }

    /// One chunk up the inter-node tree of the call rooted at `root`
    /// (my node's wire rank only; the accumulator holds my node's
    /// partial result): fold every child node's landed chunk, then —
    /// off the root's node — put the combined chunk to my parent's wire
    /// rank straight from the accumulator.
    fn plan_tree_up(&self, b: &mut PlanBuilder, call: (&GroupTree, usize), rel: u64, len: usize) {
        let ((tree, root), me) = (call, self.crank());
        for c in tree.up() {
            let from = Chan::new(ChanKind::Reduce, self.wire_rank(c, root), me, rel);
            self.plan_fold_landed(b, (from, 0), len);
        }
        if let Some(parent) = tree.parent() {
            let to = Chan::new(ChanKind::Reduce, me, self.wire_rank(parent, root), rel);
            self.plan_credit_put(b, (to, 0), (BufRef::Acc, 0), len);
        }
    }

    /// A chunk put into my node's landing `from` (on the master, its
    /// receiver; Figure 4, step 2): take the put, publish pair use
    /// `rel` for the landing in place, run `forward` (a tree's puts to
    /// my children), copy my part out, release the use, and return the
    /// credit once the node has drained it.
    fn plan_landed(
        &self,
        b: &mut PlanBuilder,
        (rel, from): (u64, Chan),
        forward: impl FnOnce(&mut PlanBuilder),
        mine: Option<(usize, usize, usize)>,
    ) {
        b.wait_ctr(CtrRef::Data(from), 1);
        b.push(Step::PairPublish { rel });
        forward(b);
        if let Some(mine) = mine {
            self.plan_pair_copy_out(b, BufRef::Chan(from), mine);
        }
        plan_pair_release(b, rel);
        let cell = WaitCell::Pair { rel };
        b.wait(cell, Until::Use(PairUse::Drained), "buffer use drained");
        self.plan_credit_return(b, from);
    }

    /// One chunk down the inter-node tree on a non-root node's master:
    /// land it, send it down the tree first, then distribute it.
    fn plan_tree_down(
        &self,
        b: &mut PlanBuilder,
        call: (&GroupTree, usize),
        (rel, brel): (u64, u64),
        (off, clen): (usize, usize),
    ) {
        let from = self
            .bcast_edge(call, brel)
            .expect("non-root node has a parent");
        let data = BufRef::Chan(from);
        let forward = |b: &mut PlanBuilder| self.plan_forward_chunk(b, call, brel, data, clen);
        self.plan_landed(b, (rel, from), forward, Some((0, off, clen)));
    }

    // ----------------------------------------------------------------
    // Broadcast
    // ----------------------------------------------------------------

    /// Plan a broadcast: route to pure shared memory, the buffered
    /// small-message protocol, or the zero-copy large-message protocol.
    /// `root` is a communicator rank.
    #[inline(never)]
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
        // Staged through the pair and the edge landings, or one direct
        // put per child after an address exchange.
        self.plan_quiet(b, self.wire_rank(self.cnode(), root), len, |b| {
            if len > t.small_large_switch {
                self.plan_bcast_large(b, len, root, &tree);
            } else {
                self.plan_bcast_small(b, len, (&tree, root));
            }
        });
    }

    /// Small-message broadcast (≤ 64 KB): the root stages each chunk in
    /// its node's buffer pair and puts it to its child nodes itself;
    /// every other node takes it in its parent edge's landing; 8–32 KB
    /// messages are pipelined in 4 KB chunks (§2.4).
    fn plan_bcast_small(&self, b: &mut PlanBuilder, len: usize, call: (&GroupTree, usize)) {
        let root = call.1;
        let chunk = b.tuning().small_bcast_chunk(len);
        let chunks = SrmTuning::chunk_count(len, chunk);
        let wire = self.wire_rank(self.cnode(), root);
        let (rel0, brel0) = (b.rel(SeqBase::Pair), b.rel(SeqBase::Bcast));

        for k in 0..chunks {
            let off = k * chunk;
            let clen = chunk.min(len - off);
            let rels = (rel0 + k as u64, brel0 + k as u64);
            let (rel, brel) = rels;
            let data = self.bcast_data(call, rels);
            if self.crank() == root {
                // Stage the chunk into the pair: it serves both the
                // local distribution and the network puts. Publish
                // locally before the (possibly credit-blocked) puts:
                // they are one-sided and lose nothing, while the local
                // readers can start draining at once.
                self.plan_pair_write(b, rel, (BufRef::User, off), clen, 1);
                self.plan_forward_chunk(b, call, brel, data, clen);
                plan_pair_release(b, rel);
            } else if self.crank() == wire {
                self.plan_tree_down(b, call, rels, (off, clen));
            } else {
                // Plain reader: the put target is shared memory, so the
                // data is consumed with a single copy.
                self.plan_pair_read(b, (rel, data), Some((0, off, clen)));
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
    /// cell `j`. Each node's wire rank drives its puts and ships its
    /// handle to its parent's, and counts the cells landed in its own
    /// [`CtrRef::Landed`].
    fn plan_bcast_large(&self, b: &mut PlanBuilder, len: usize, root: usize, tree: &GroupTree) {
        let cells = smp_cells(len);
        let writer = self.cworld_of(self.wire_rank(self.cnode(), root));
        if self.me != writer {
            self.plan_smp_bcast(b, len, writer);
            return;
        }

        // Stage 1: address exchange (child → parent user-buffer handles).
        if let Some(parent) = tree.parent() {
            b.push(Step::AddrSend {
                to: self.cworld_of(self.wire_rank(parent, root)),
                src: BufRef::User,
            });
        }
        let children: Vec<(usize, usize)> = (tree.down().iter())
            .map(|&c| self.wire_rank(c, root))
            .map(|child| (child, b.take_addr(child)))
            .collect();

        // Stages 2–4: as each cell is in my user buffer, put it to every
        // child and, off the root's node, feed it to my node's pipeline.
        let rel0 = b.rel(SeqBase::Pair);
        let relay = tree.parent().is_some();
        for j in 0..cells {
            let (off, clen) = smp_cell(len, j);
            if relay {
                b.wait_ctr(CtrRef::Landed { rank: self.crank() }, 1);
            }
            for &(child, idx) in &children {
                b.push(Step::RmaPut {
                    to: self.cworld_of(child),
                    src: BufRef::User,
                    src_off: off,
                    dst: BufRef::Taken { idx },
                    dst_off: off,
                    len: clen,
                    ctr: Some(CtrRef::Landed { rank: child }),
                });
            }
            if relay && self.cslots_here() > 1 {
                self.plan_smp_cell_write(b, off, clen, rel0 + j as u64);
            }
        }
        if !relay {
            self.plan_smp_bcast(b, len, writer);
        } else if self.cslots_here() > 1 {
            b.advance(SeqBase::Pair, cells as u64);
        }
    }

    // ----------------------------------------------------------------
    // Reduce
    // ----------------------------------------------------------------

    /// Plan the pipelined reduce (§2.4): a tree within each node, rooted
    /// at its wire rank, and one between the wire ranks
    /// ([`SrmModel::trees`](crate::SrmModel::trees) names the kinds),
    /// chunked so that memory copies, operator execution and network
    /// transfers overlap. `root` is a communicator rank; its node's
    /// tree is rooted at it, and the child nodes put into its landings.
    #[inline(never)]
    pub(crate) fn plan_reduce(&self, b: &mut PlanBuilder, len: usize, root: usize) {
        if len == 0 || self.csize() == 1 {
            return;
        }
        let kinds = self.model(b.tuning()).trees(Op::Reduce, len);
        let tree = self
            .group()
            .tree(kinds.inter, self.cnode_of(root), self.cnode());
        let wire = self.wire_rank(self.cnode(), root);
        let top = self.ccoord_of(wire).1;
        self.plan_quiet(b, wire, len, |b| {
            let chunk = SrmTuning::REDUCE_CHUNK;
            let chunks = SrmTuning::chunk_count(len, chunk);
            let rel0 = b.rel(SeqBase::Reduce);

            for k in 0..chunks {
                let off = k * chunk;
                let clen = chunk.min(len - off);
                let rel = rel0 + k as u64;
                let intra = (kinds.intra, top);
                if self.plan_smp_reduce_chunk(b, (off, clen, rel), intra) {
                    self.plan_tree_up(b, (&tree, root), rel, clen);
                    if self.crank() == root {
                        plan_acc_to_user(b, off, clen);
                    }
                }
            }
            if self.crank() == wire {
                // The intra-node tree root's own channel went unused.
                self.plan_contrib_catchup(b, 0, rel0 + chunks as u64);
            }
            b.advance(SeqBase::Reduce, chunks as u64);
        });
    }

    // ----------------------------------------------------------------
    // Allreduce
    // ----------------------------------------------------------------

    /// Plan an allreduce: recursive k-ing between nodes up to one
    /// reduce chunk (16 KB), above that the four-stage pipeline (§2.4,
    /// Figure 5) or — where
    /// [`SrmModel::allreduce_composes`](crate::SrmModel::allreduce_composes)
    /// prices it lower — a reduce to group node 0's master followed by
    /// a broadcast from it, each half on the trees its own closed form
    /// derives (the pipeline stays on the configured tree).
    #[inline(never)]
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
        self.plan_quiet(b, self.crank_at(self.cnode(), 0), len, |b| {
            if len <= SrmTuning::REDUCE_CHUNK {
                self.plan_allreduce_small(b, len);
            } else {
                self.plan_allreduce_large(b, len, self.allreduce_skew());
            }
        });
    }

    /// Up to one reduce chunk: one intra-node reduce to the master,
    /// recursive k-ing between the masters ([`Rounds::k_ing`]), intra-node
    /// broadcast. The radix is
    /// [`SrmModel::allreduce_radix`](crate::SrmModel::allreduce_radix)
    /// for `len`. The `n − kʳ` extra nodes fold into the `kʳ` core nodes,
    /// each core taking the run of extras that follows it. In round `r`
    /// each core puts its accumulator to the `k − 1` other members of its
    /// digit-`r` group and folds the group's `k` values in group order,
    /// so every member ends with the same bits. The cores then hand the
    /// result back to their extras. No exchange takes a credit: each
    /// lands in its receiver's channel from the sender, of this call's
    /// [`SeqBase::Rd`] parity, which the sender writes again only two
    /// such allreduces later (DESIGN.md §16.2).
    fn plan_allreduce_small(&self, b: &mut PlanBuilder, len: usize) {
        let rel = b.rel(SeqBase::Reduce);
        let has_acc = self.plan_smp_reduce_chunk(b, (0, len, rel), (self.tree(), 0));
        let (my, n, lane) = (self.cnode(), self.cnodes(), b.rel(SeqBase::Rd));
        let put = |b: &mut PlanBuilder, to: usize| {
            let c = Chan::new(ChanKind::Rd, self.crank(), self.crank_at(to, 0), lane);
            b.push(Step::RmaPut {
                to: self.cmaster_of(to),
                src: BufRef::Acc,
                src_off: 0,
                dst: BufRef::Chan(c),
                dst_off: 0,
                len,
                ctr: Some(CtrRef::Data(c)),
            });
        };
        // Wait for `from`'s exchange, then fold it in or take it as the
        // result.
        let take = |b: &mut PlanBuilder, from: usize, fold: bool| {
            let c = Chan::new(ChanKind::Rd, self.crank_at(from, 0), self.crank(), lane);
            b.wait_ctr(CtrRef::Data(c), 1);
            let (src, src_off) = (BufRef::Chan(c), 0);
            if fold {
                b.push(Step::LocalReduce { src, src_off, len });
            } else {
                b.copy((src, src_off), (BufRef::Acc, 0), len, CopyCost::Read(1));
            }
        };

        if self.c_is_master() {
            debug_assert!(has_acc, "master is the subtree root");
            let k = self.model(b.tuning()).allreduce_radix(len);
            let rounds = Rounds::k_ing(n, k, my);
            let (core, extras) = (rounds.core(), rounds.extras());
            if my != core {
                put(b, core);
                take(b, core, false);
            } else {
                for e in extras.clone() {
                    take(b, e, true);
                }
                for round in rounds {
                    for &(to, _) in &round.peers {
                        put(b, to);
                    }
                    // My accumulator holds my value: folding the rest
                    // in group order starting from it is the group's
                    // order for the first two members only, since the
                    // operator commutes. The others park it in the
                    // call's scratch and start from the first member's.
                    let parked = round.digit >= 2;
                    if parked {
                        let scratch = b.scratch(len);
                        b.copy((BufRef::Acc, 0), (scratch, 0), len, CopyCost::Write(1));
                    }
                    for (j, &from) in round.group.iter().enumerate() {
                        if j != round.digit {
                            take(b, from, j > 0 || !parked);
                        } else if parked {
                            let (src, src_off) = (BufRef::Scratch, 0);
                            b.push(Step::LocalReduce { src, src_off, len });
                        }
                    }
                }
                for e in extras {
                    put(b, e);
                }
            }
            plan_acc_to_user(b, 0, len);
            // The tree root's own contribution channel went unused.
            self.plan_contrib_catchup(b, 0, rel + 1);
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
    /// master by at most the two contribution plus two pair buffers.
    /// Up-leg cells (contribution buffers, `Reduce` channels and credits)
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
        let call = (&tree, self.crank_at(0, 0));
        let chunk = SrmTuning::REDUCE_CHUNK;
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
                let has_acc = self.plan_smp_reduce_chunk(b, (off, clen, rel), (self.tree(), 0));
                if master {
                    debug_assert!(has_acc, "master is the subtree root");
                    self.plan_tree_up(b, call, rel, clen);
                    if on_root {
                        // Fully combined: start the broadcast leg here.
                        let (prel, brel) = rels;
                        self.plan_pair_write(b, prel, (BufRef::Acc, 0), clen, 1);
                        let data = BufRef::Pair { rel: prel };
                        self.plan_forward_chunk(b, call, brel, data, clen);
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
                let data = (rels.0, self.bcast_data(call, rels));
                self.plan_pair_read(b, data, Some((0, off, clen)));
            } else if !on_root {
                // The combined chunk comes back: forward, distribute.
                self.plan_tree_down(b, call, rels, (off, clen));
            }
        }
        if master {
            // The tree root's own contribution channel went unused.
            self.plan_contrib_catchup(b, 0, rel0 + chunks as u64);
        }
        b.advance(SeqBase::Reduce, chunks as u64);
        b.advance(SeqBase::Pair, chunks as u64);
        b.advance(SeqBase::Bcast, chunks as u64);
    }

    // ----------------------------------------------------------------
    // Barrier
    // ----------------------------------------------------------------

    /// Plan a communicator barrier (§2.4 and [17]): flat flag check-in
    /// on each node, k-ary dissemination rounds between the masters
    /// ([`Rounds::dissemination`]), then the master's flag raise
    /// releases the node. In round `r`
    /// master `i` bumps the counters of masters `i + j·kʳ` (mod n) for
    /// every `0 < j < k` with `j·kʳ < n` with zero-byte puts, then
    /// consumes one bump from each matching peer's counter.
    /// `k` is [`SrmModel::barrier_radix`](crate::SrmModel::barrier_radix).
    #[inline(never)]
    pub(crate) fn plan_barrier(&self, b: &mut PlanBuilder) {
        if self.csize() == 1 {
            return;
        }
        let k = self.model(b.tuning()).barrier_radix();
        self.plan_quiet(b, self.crank_at(self.cnode(), 0), 0, |b| {
            self.plan_smp_barrier_phase(b, 1);
            let my = self.cnode();
            let rounds = Rounds::dissemination(self.cnodes(), k, my);
            for round in rounds.filter(|_| self.c_is_master()) {
                for &(to, _) in &round.peers {
                    let ctr = CtrRef::BarRound { node: to, from: my };
                    b.push(Step::CounterPut {
                        to: self.cmaster_of(to),
                        ctr,
                    });
                }
                for &(_, from) in &round.peers {
                    b.wait_ctr(CtrRef::BarRound { node: my, from }, 1);
                }
            }
            self.plan_smp_barrier_phase(b, 2);
            b.advance(SeqBase::Barrier, 2);
        });
    }

    // ----------------------------------------------------------------
    // Gather / Scatter / Allgather
    // ----------------------------------------------------------------

    /// Plan a gather: every member's segment `buf[c*len..(c+1)*len]`
    /// (indexed by **communicator rank** `c`) reaches the root's buffer
    /// at the same offsets. `root` is a communicator rank. Each node
    /// gathers to its wire rank first (gather's leaf pattern,
    /// [`Self::plan_node_gather`]); the remote blocks then travel one of
    /// two ways, whichever
    /// [`SrmModel::gather_lands`](crate::SrmModel::gather_lands) prices
    /// lower: through the root's landings ([`Self::plan_gather_landed`])
    /// or straight into its user buffer ([`Self::plan_gather_direct`]).
    #[inline(never)]
    pub(crate) fn plan_gather(&self, b: &mut PlanBuilder, len: usize, root: usize) {
        if len == 0 || self.csize() == 1 {
            return;
        }
        let chunks = SrmTuning::chunk_count(len, SrmTuning::REDUCE_CHUNK) as u64;
        let rel_end = b.rel(SeqBase::Reduce) + chunks;
        let wire = self.wire_rank(self.cnode(), root);
        // My own segment bypassed my contribution channel.
        let catchup = |b: &mut PlanBuilder| {
            if self.crank() == wire {
                self.plan_contrib_catchup(b, 0, rel_end);
            }
        };
        if self.model(b.tuning()).gather_lands(len) {
            self.plan_quiet(b, wire, len, |b| {
                self.plan_gather_landed(b, len, root);
                catchup(b);
            });
        } else {
            self.plan_gather_direct(b, len, root);
            catchup(b);
        }
        b.advance(SeqBase::Reduce, chunks);
    }

    /// The gather through the root's landings, for node blocks of at
    /// most one landing: each remote master stages its node's segments
    /// in its own user buffer at their final offsets, then credit-puts
    /// the block, one put per run, into the root's [`ChanKind::Reduce`]
    /// landing from its node, packed. The root gathers its own node,
    /// then takes each remote block inside its data counter wait,
    /// copies it out and returns the credit. No address moves.
    fn plan_gather_landed(&self, b: &mut PlanBuilder, len: usize, root: usize) {
        let (rel, root_node) = (b.rel(SeqBase::Reduce), self.cnode_of(root));
        let wire = self.wire_rank(self.cnode(), root);
        let chan = |g| Chan::new(ChanKind::Reduce, self.crank_at(g, 0), root, rel);
        // A node's block: its runs as `(user offset, landing offset,
        // bytes)`, packed in the landing.
        let block = |g: usize| {
            let mut at = 0;
            let runs = self.block_runs(&mut (g..g + 1), len).into_iter();
            runs.map(|(off, bytes)| {
                at += bytes;
                (off, at - bytes, bytes)
            })
            .collect::<Vec<_>>()
        };
        let top = self.ccoord_of(wire).1;
        self.plan_node_gather(b, len, top, |b, src, at, clen| {
            b.copy((src, 0), (BufRef::User, at), clen, CopyCost::Read(1))
        });
        if self.crank() == root {
            for g in (0..self.cnodes()).filter(|&g| g != root_node) {
                let (c, runs) = (chan(g), block(g));
                b.wait_ctr(CtrRef::Data(c), runs.len() as u64);
                for (off, at, bytes) in runs {
                    let (src, dst) = ((BufRef::Chan(c), at), (BufRef::User, off));
                    b.copy(src, dst, bytes, CopyCost::Read(1));
                }
                self.plan_credit_return(b, c);
            }
        } else if self.crank() == wire {
            let c = chan(self.cnode());
            b.wait_ctr(CtrRef::Free(c), 1);
            for (off, at, bytes) in block(self.cnode()) {
                b.push(Step::RmaPut {
                    to: self.cworld_of(root),
                    src: BufRef::User,
                    src_off: off,
                    dst: BufRef::Chan(c),
                    dst_off: at,
                    len: bytes,
                    ctr: Some(CtrRef::Data(c)),
                });
            }
        }
    }

    /// The gather straight into the root's user buffer: the root ships
    /// its user-buffer handle to every remote master by active message;
    /// each remote master puts its own segment and, in reduce-chunk
    /// pieces, every local slot's relayed through that slot's
    /// contribution channel (the reduce leaf pattern) at their final
    /// offsets — zero staging at the root — bumping the root's
    /// [`CtrRef::Landed`]. The root consumes every other task of its node
    /// through its contribution channel, the master's included, and
    /// waits last for the full remote piece count. Interrupts stay
    /// enabled: the root's node may finish its own steps before remote
    /// puts arrive.
    fn plan_gather_direct(&self, b: &mut PlanBuilder, len: usize, root: usize) {
        let chunk = SrmTuning::REDUCE_CHUNK;
        let chunks = SrmTuning::chunk_count(len, chunk);
        let nodes = self.cnodes();
        let root_node = self.cnode_of(root);
        let top = self.ccoord_of(self.wire_rank(self.cnode(), root)).1;

        if self.crank() == root {
            for m in (0..nodes).filter(|&m| m != root_node) {
                b.push(Step::AddrSend {
                    to: self.cmaster_of(m),
                    src: BufRef::User,
                });
            }
            self.plan_node_gather(b, len, top, |b, src, at, clen| {
                b.copy((src, 0), (BufRef::User, at), clen, CopyCost::Read(1))
            });
            // Wait for every remote piece to land in my buffer: every
            // member of every other node relays `chunks` of them.
            if self.cmulti() {
                let n: usize = (0..nodes)
                    .filter(|&g| g != root_node)
                    .map(|g| self.cslots_on(g) * chunks)
                    .sum();
                b.wait_ctr(CtrRef::Landed { rank: root }, n as u64);
            }
        } else if self.cslot() == top {
            // Remote master: take the root's handle, put my own segment,
            // then relay every local slot's pieces.
            let idx = b.take_addr(root);
            let put = |b: &mut PlanBuilder, src, src_off, dst_off, len| {
                b.push(Step::RmaPut {
                    to: self.cworld_of(root),
                    src,
                    src_off,
                    dst: BufRef::Taken { idx },
                    dst_off,
                    len,
                    ctr: Some(CtrRef::Landed { rank: root }),
                })
            };
            for k in 0..chunks {
                let at = self.crank() * len + k * chunk;
                put(b, BufRef::User, at, at, chunk.min(len - k * chunk));
            }
            self.plan_node_gather(b, len, top, |b, src, at, clen| put(b, src, 0, at, clen));
        } else {
            self.plan_node_gather(b, len, top, |_, _, _, _| {});
        }
    }

    /// Gather's leaf pattern on my node, for `len`-byte segments: every
    /// task but slot `top` relays its segment to it chunk by chunk
    /// through its own contribution channel (the producer half of the
    /// reduce-leaf pattern); `top` consumes every other slot's pieces,
    /// slot by slot, handing `sink` each one's contribution buffer, its
    /// offset in the gathered buffer and its length.
    fn plan_node_gather(
        &self,
        b: &mut PlanBuilder,
        len: usize,
        top: usize,
        sink: impl Fn(&mut PlanBuilder, BufRef, usize, usize),
    ) {
        let chunk = SrmTuning::REDUCE_CHUNK;
        let rel0 = b.rel(SeqBase::Reduce);
        // Chunk `k` of a segment as `(chunk index, offset, bytes)`.
        let pieces = (0..SrmTuning::chunk_count(len, chunk))
            .map(|k| (rel0 + k as u64, k * chunk, chunk.min(len - k * chunk)));
        if self.cslot() != top {
            let cost = CopyCost::Write(self.peer_streams());
            for (rel, koff, clen) in pieces {
                let from = (BufRef::User, self.crank() * len + koff);
                self.plan_contrib_publish(b, rel, from, clen, cost);
            }
            return;
        }
        let label = "gather contribution ready";
        for s in (0..self.cslots_here()).filter(|&s| s != top) {
            let seg = self.crank_at(self.cnode(), s) * len;
            for (rel, koff, clen) in pieces.clone() {
                self.plan_contrib_consume(b, (s, rel), rel == rel0, label, |b, src| {
                    sink(b, src, seg + koff, clen)
                });
            }
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
    /// Protocol: the root credit-puts each other node's block, in
    /// pieces (see [`SrmComm::scatter_pieces`]), into its own broadcast
    /// landings at that node's master, which publishes each piece to
    /// its node in place, as it does a broadcast chunk; every slot
    /// copies out just the overlap with its own segment. The root's own
    /// node takes its block through the buffer pair.
    #[inline(never)]
    pub(crate) fn plan_scatter(&self, b: &mut PlanBuilder, len: usize, root: usize) {
        if len == 0 || self.csize() == 1 {
            return;
        }
        let chunk = SrmTuning::REDUCE_CHUNK.min(b.tuning().small_large_switch);
        let (my_node, root_node) = (self.cnode(), self.cnode_of(root));
        let pieces: Vec<Vec<(usize, usize, usize)>> = (0..self.cnodes())
            .map(|g| self.scatter_pieces(g, len, chunk))
            .collect();
        // Piece `j` of a node's block takes pair use `prel0 + j` there
        // and travels on lane `brel0 + j`.
        let (prel0, brel0) = (b.rel(SeqBase::Pair), b.rel(SeqBase::Bcast));
        let remote = || (0..self.cnodes()).filter(|&g| g != root_node);
        let edge = |g, j: usize| {
            let lane = brel0 + j as u64;
            Chan::new(ChanKind::Bcast, root, self.wire_rank(g, root), lane)
        };
        let lanes = remote().map(|g| pieces[g].len()).max().unwrap_or(0);
        let uses_pair = my_node != root_node || self.cslots_here() > 1;

        if self.crank() == root {
            // Piece by piece across the nodes, my own node's last, so
            // each node drains a piece and returns its credit while the
            // others are served.
            let own = if uses_pair { &pieces[my_node][..] } else { &[] };
            for j in 0..lanes.max(own.len()) {
                for g in remote().filter(|&g| j < pieces[g].len()) {
                    let (roff, _, plen) = pieces[g][j];
                    self.plan_credit_put(b, (edge(g, j), 0), (BufRef::User, roff), plen);
                }
                if let Some(&(roff, _, plen)) = own.get(j) {
                    let rel = prel0 + j as u64;
                    self.plan_pair_write(b, rel, (BufRef::User, roff), plen, 1);
                    plan_pair_release(b, rel);
                }
            }
        } else {
            for (j, &(_, boff, plen)) in pieces[my_node].iter().enumerate() {
                let rel = prel0 + j as u64;
                let mine = self.block_overlap(len, (boff, plen), self.cslot());
                if my_node == root_node {
                    self.plan_pair_read(b, (rel, BufRef::Pair { rel }), mine);
                } else if self.c_is_master() {
                    self.plan_landed(b, (rel, edge(my_node, j)), |_| {}, mine);
                } else {
                    self.plan_pair_read(b, (rel, BufRef::Chan(edge(my_node, j))), mine);
                }
            }
        }
        // Uniform advance: per-node piece counts differ on uneven
        // groups, but the Bcast cumulative must advance identically on
        // every member (see the module doc).
        b.advance(SeqBase::Bcast, lanes as u64);
        if uses_pair {
            b.advance(SeqBase::Pair, pieces[my_node].len() as u64);
        }
    }

    /// Plan an allgather: every member's segment `buf[c*len..(c+1)*len]`
    /// (indexed by **communicator rank** `c`) reaches every member's
    /// buffer at the same offsets.
    ///
    /// Protocol: each node's tasks hand their segments to its master
    /// through their contribution channels (gather's leaf pattern),
    /// which copies each to its final offset; the masters exchange their
    /// nodes' blocks ([`Self::plan_allgather_exchange`]); each master
    /// publishes them within its node through the buffer pair, in place
    /// as they land ([`Self::allgather_in_place_uses`]) or as the
    /// broadcast of the assembled buffer once the exchange is over.
    #[inline(never)]
    pub(crate) fn plan_allgather(&self, b: &mut PlanBuilder, len: usize) {
        if len == 0 || self.csize() == 1 {
            return;
        }
        let chunks = SrmTuning::chunk_count(len, SrmTuning::REDUCE_CHUNK) as u64;
        let landed = self.cmulti() && self.csize() * len <= SrmTuning::REDUCE_CHUNK;
        let model = self.model(b.tuning());
        let swaps = match self.cmulti() {
            true => self.allgather_swaps(len, model.allgather_radix(len)),
            false => Vec::new(),
        };
        let in_place = model.allgather_in_place(len);
        let [own, placed] = match in_place {
            true => self.allgather_in_place_uses(b, len, &swaps),
            false => Default::default(),
        };
        let master = self.crank_at(self.cnode(), 0);
        let rel_end = b.rel(SeqBase::Reduce) + chunks;
        self.plan_quiet(b, master, len, |b| {
            self.plan_node_gather(b, len, 0, |b, src, at, clen| {
                b.copy((src, 0), (BufRef::User, at), clen, CopyCost::Read(1))
            });
            let uses = || own.iter().chain(&placed);
            if !self.c_is_master() {
                uses().for_each(|u| self.plan_allgather_use(b, u));
            } else {
                // My own segment is in place already.
                self.plan_contrib_catchup(b, 0, rel_end);
                // My own block goes out after my first puts, or before my
                // first take if that comes first (an extra's block); each
                // landed message alone as it lands. My node's tasks have
                // read a landing before they hand me their next
                // contributions, and I gather those before any exchanging
                // call's puts, so no sender writes it again early
                // (DESIGN.md §16.2).
                let (mut own, mut placed) = (own.iter(), placed.iter());
                let mut take = |b: &mut PlanBuilder, taken: Option<Landed>| {
                    own.by_ref().for_each(|u| self.plan_allgather_use(b, u));
                    if let Some((c, msg)) = taken {
                        match placed.next() {
                            Some(u) => self.plan_allgather_use(b, u),
                            None => self.plan_copy_landed(b, c, msg),
                        }
                    }
                };
                self.plan_allgather_exchange(b, landed, &swaps, &mut take);
            }
            b.advance(SeqBase::Reduce, chunks);
            if landed {
                b.advance(SeqBase::Rd, 1);
            }
            b.advance(SeqBase::Pair, uses().count() as u64);
            if !in_place {
                self.plan_smp_bcast(b, self.csize() * len, self.cworld_of(master));
            }
        });
    }

    /// How my node's master publishes the blocks of an allgather in
    /// place
    /// ([`SrmModel::allgather_in_place`](crate::SrmModel::allgather_in_place)),
    /// as the uses of the node's pair, in order: my own block's cells,
    /// written into the pair once the master's first puts are out, then
    /// one use in place for each landed message, which the node's tasks
    /// copy straight out of the landing as a broadcast chunk's. None on
    /// a one-task node.
    fn allgather_in_place_uses(
        &self,
        b: &PlanBuilder,
        len: usize,
        swaps: &[Swap],
    ) -> [Vec<AllgatherUse>; 2] {
        let mut out: [Vec<AllgatherUse>; 2] = Default::default();
        if self.cslots_here() == 1 {
            return out;
        }
        let (mut rel, lane, my) = (b.rel(SeqBase::Pair), b.rel(SeqBase::Rd), self.cnode());
        let mut next = |runs, landing| {
            rel += 1;
            AllgatherUse {
                rel: rel - 1,
                runs,
                landing,
            }
        };
        let own = self.block_runs(&mut (my..my + 1), len);
        let cells = own.into_iter().flat_map(|(off, bytes)| {
            (0..smp_cells(bytes))
                .map(move |j| smp_cell(bytes, j))
                .map(move |(at, n)| (off + at, n))
        });
        out[0] = cells.map(|run| next(vec![run], None)).collect();
        let me = self.crank_at(my, 0);
        for (g, msg) in swaps.iter().flat_map(|s| &s.from) {
            let c = Chan::new(ChanKind::Rd, self.crank_at(*g, 0), me, lane);
            out[1].push(next(msg.clone(), Some(c)));
        }
        out
    }

    /// My part of one pair use of an allgather: the master writes a cell
    /// of its user buffer into the pair, or publishes a landed message in
    /// place and copies it out itself; every other task copies the use
    /// out of the side or the landing.
    fn plan_allgather_use(&self, b: &mut PlanBuilder, u: &AllgatherUse) {
        let (rel, landing) = (u.rel, u.landing);
        let cell = WaitCell::Pair { rel };
        if !self.c_is_master() {
            b.wait(cell, Until::Use(PairUse::Published), "buffer published");
        } else if landing.is_none() {
            let (off, clen) = u.runs[0];
            self.plan_smp_cell_write(b, off, clen, rel);
            return;
        } else {
            b.wait(
                cell,
                Until::Use(PairUse::Free),
                "buffer released by readers",
            );
            b.push(Step::PairPublish { rel });
        }
        // A landed message's runs sit at their own offsets, a cell at 0.
        let data = landing.map_or(BufRef::Pair { rel }, BufRef::Chan);
        for &(off, bytes) in &u.runs {
            let at = if landing.is_some() { off } else { 0 };
            self.plan_pair_copy_out(b, data, (at, off, bytes));
        }
        plan_pair_release(b, rel);
    }

    /// Copy the runs of a message landed in `c` to their offsets in my
    /// user buffer.
    fn plan_copy_landed(&self, b: &mut PlanBuilder, c: Chan, msg: &Runs) {
        for &(off, bytes) in msg {
            let (src, dst) = ((BufRef::Chan(c), off), (BufRef::User, off));
            b.copy(src, dst, bytes, CopyCost::Read(1));
        }
    }

    /// The allgather's exchange at my node's master, as the steps it
    /// takes: recursive k-ing at radix `k` with no fold. The extras'
    /// blocks fold into their cores; in round `r` each core puts the
    /// nodes it holds to the `k − 1` other members of its digit-`r`
    /// group; the cores hand the assembled buffer back to their extras.
    /// A message is the runs its nodes' segments cover in comm-rank
    /// order, one put each, at their final offsets.
    fn allgather_swaps(&self, len: usize, k: usize) -> Vec<Swap> {
        let (my, n) = (self.cnode(), self.cnodes());
        let rounds = Rounds::k_ing(n, k, my);
        let (core, extras) = (rounds.core(), rounds.extras());
        // A message: the runs `(offset, bytes)` of `nodes`' segments.
        let runs = |nodes: &mut dyn Iterator<Item = usize>| self.block_runs(nodes, len);
        let but = |g: usize| runs(&mut (0..n).filter(move |&h| h != g));
        let held = |r: usize, g: usize| runs(&mut rounds.held(r, g));
        if my != core {
            let (from, to) = (vec![(core, but(my))], vec![(core, runs(&mut (my..my + 1)))]);
            return vec![Swap { from, to }];
        }
        let from = extras.clone().map(|e| (e, runs(&mut (e..e + 1)))).collect();
        let mut swaps = vec![Swap {
            from,
            to: Vec::new(),
        }];
        for round in rounds.clone() {
            // Each member puts to the members after it first, so that no
            // receiver's port takes the whole group's first puts, and
            // takes from the members before it first.
            let (before, after) = round.peers.split_at(round.digit);
            let from = (after.iter().chain(before).rev())
                .map(|&(_, g)| (g, held(round.round, g)))
                .collect();
            let mine = held(round.round, my);
            let to = (after.iter().chain(before))
                .map(|&(to, _)| (to, mine.clone()))
                .collect();
            swaps.push(Swap { from, to });
        }
        let to = extras.map(|e| (e, but(e))).collect();
        swaps.push(Swap {
            from: Vec::new(),
            to,
        });
        swaps
    }

    /// The allgather's exchange between the masters, which hold their
    /// nodes' blocks ([`Self::allgather_swaps`]): `take` runs after each
    /// step's puts, handed `None`, and after each landed message's wait,
    /// handed its landing and runs.
    ///
    /// Where the assembled buffer fits one landing (`landed`), every
    /// message goes into the receiver's [`ChanKind::Rd`] landing; the
    /// call advances [`SeqBase::Rd`] like a small allreduce, and its
    /// landings are reused the same way (DESIGN.md §16.2). Otherwise
    /// every message goes straight into the receiver's user buffer under
    /// the address rule ([`CtrRef::Landed`]): a receiver ships its
    /// handle to a step's senders only once it has taken everything
    /// before, so its counter only ever counts that step's puts.
    fn plan_allgather_exchange(
        &self,
        b: &mut PlanBuilder,
        landed: bool,
        swaps: &[Swap],
        take: &mut dyn FnMut(&mut PlanBuilder, Option<Landed>),
    ) {
        let (my, lane) = (self.cnode(), b.rel(SeqBase::Rd));
        let master = |g| self.crank_at(g, 0);
        let rd = |from, to| Chan::new(ChanKind::Rd, master(from), master(to), lane);
        for (i, swap) in swaps.iter().enumerate() {
            // Before my own puts, ship my handle to each sender.
            for &(g, _) in swap.from.iter().filter(|_| !landed) {
                let (to, src) = (self.cmaster_of(g), BufRef::User);
                b.push(Step::AddrSend { to, src });
            }
            for (to, msg) in &swap.to {
                let (dst, ctr) = if landed {
                    (BufRef::Chan(rd(my, *to)), CtrRef::Data(rd(my, *to)))
                } else {
                    let idx = b.take_addr(master(*to));
                    (BufRef::Taken { idx }, CtrRef::Landed { rank: master(*to) })
                };
                for &(off, len) in msg {
                    b.push(Step::RmaPut {
                        to: self.cmaster_of(*to),
                        src: BufRef::User,
                        src_off: off,
                        dst,
                        dst_off: off,
                        len,
                        ctr: Some(ctr),
                    });
                }
            }
            if !swap.to.is_empty() {
                take(b, None);
            }
            // After them, take everything the senders put; a core's
            // last step, the hand-back to its extras, takes nothing.
            if i > 0 && i + 1 == swaps.len() {
                continue;
            }
            if !landed {
                let puts = swap.from.iter().map(|(_, msg)| msg.len()).sum::<usize>();
                b.wait_ctr(CtrRef::Landed { rank: master(my) }, puts as u64);
                continue;
            }
            for (g, msg) in &swap.from {
                let c = rd(*g, my);
                b.wait_ctr(CtrRef::Data(c), msg.len() as u64);
                take(b, Some((c, msg)));
            }
        }
    }

    /// The byte runs `(offset, bytes)` that the `len`-byte segments of
    /// the members on group nodes `nodes` cover in a buffer indexed by
    /// comm rank, ascending, each as long as the ranks are consecutive:
    /// on the world communicator one per run of consecutive nodes.
    fn block_runs(&self, nodes: &mut dyn Iterator<Item = usize>, len: usize) -> Runs {
        let members = nodes.flat_map(|g| (0..self.cslots_on(g)).map(move |s| (g, s)));
        let segments = members.map(|(g, s)| (self.crank_at(g, s) * len, len));
        merge_runs(segments.collect())
    }
}

/// The byte runs `(offset, bytes)` of an allgather's message, or of the
/// segments it carries: what one put or one copy moves.
type Runs = Vec<(usize, usize)>;

/// A message of the allgather's exchange: the peer group node it goes
/// to or comes from, and its runs.
type Message = (usize, Runs);

/// A message landed at my node's master: its landing and its runs.
type Landed<'a> = (Chan, &'a Runs);

/// One step of the allgather's exchange at my node's master: the
/// messages it takes, from the peers it ships its handle to first, and
/// the messages it puts.
struct Swap {
    from: Vec<Message>,
    to: Vec<Message>,
}

/// One use of my node's buffer pair in an allgather published in place
/// (`SrmComm::allgather_in_place_uses`): use `rel` carries `runs`, out of
/// the pair side or out of `landing`.
struct AllgatherUse {
    rel: u64,
    runs: Runs,
    landing: Option<Chan>,
}

/// `runs` in ascending order, adjacent ones merged.
fn merge_runs(mut runs: Runs) -> Runs {
    runs.sort_unstable();
    let mut out: Runs = Vec::new();
    for (off, bytes) in runs {
        match out.last_mut() {
            Some((start, n)) if *start + *n == off => *n += bytes,
            _ => out.push((off, bytes)),
        }
    }
    out
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
