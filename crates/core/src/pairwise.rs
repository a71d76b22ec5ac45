//! The pairwise RMA exchange subsystem: alltoall, alltoallv and
//! reduce-scatter, the collectives in which every rank holds distinct
//! data for every other rank.
//!
//! Total-exchange collectives have no root and no tree, so the channels
//! the paper's rooted protocols lay along the edges of one tree cannot
//! express them. What the paper's premise still gives is that a put
//! costs its origin only the issue overhead: shared-memory work can run
//! under the wire.
//!
//! ## Alltoall and alltoallv: one wire, every rank drives its own
//!
//! `SrmComm::plan_exchange` compiles both. Each rank ships its user
//! buffer's handle to every remote rank with data for it (a per-call
//! address exchange through the communicator's mailbox), then takes
//! each remote peer's handle and lands that peer's whole segment in its
//! receive half with **one put**, completion-counted by the mailbox's
//! per-rank-pair [`CtrRef::PairwiseDirect`] counter — no node master
//! in between, no staging copy, no credits, at every segment size. Two
//! orderings make it a wire a one-sided transport likes:
//!
//! * **Puts before the intra-node leg.** A put occupies its origin for
//!   the issue overhead only, so the node's shared-memory copies run
//!   while the adapters drain the puts, not in front of them.
//! * **Destinations in a permuted order** (`SrmComm::remote_order`):
//!   node distance first, slot distance second, the address sends in
//!   the mirror order. On a uniform communicator the `k`-th put of
//!   every rank therefore targets a different rank — an ascending walk
//!   would converge every remote sender on one inbound adapter at a
//!   time.
//!
//! The intra-node leg (`SrmComm::plan_local_exchange`) is a rotation
//! over the per-slot contribution channels, the same
//! contributor/consumer flag protocol the reduce tree uses: in round
//! `r` slot `u` publishes its cell for slot `(u + r) mod p` in its own
//! parity buffer and consumes slot `(u - r) mod p`'s. All `p` slots copy
//! at once, so every copy is charged at full bus contention. A channel
//! changes consumer every round; the consumed-in-order guard of
//! `SrmComm::plan_contrib_consume` at each hand-over keeps its DONE flag
//! skip-free.
//!
//! ## Reduce-scatter: two routes between node masters
//!
//! Reduce-scatter pre-reduces inside the node, so its wire runs between
//! node masters, and it has two routes:
//!
//! * **Staged**, below
//!   [`SrmTuning::pairwise_direct_min`](crate::SrmTuning): each ordered
//!   `(src, dst)` pair of group nodes has a [`ChanKind::Ring`] channel
//!   pair, kept in `dst`'s link from `src` like every other channel:
//!   two [`pairwise_chunk`](crate::SrmTuning)-sized landings, each with
//!   a data counter and one credit (§2.3). Piece `k` of a stream
//!   travels on lane `rel0 + k` against [`SeqBase::Reduce`], whose
//!   advance is uniform, so both ends resolve it to the same side. The
//!   source spends the side's credit before its put; the destination
//!   returns it once it has folded the piece. Masters round-robin
//!   across destinations piece by piece, so all streams stay in flight
//!   together, and no per-call address traffic is needed.
//! * **Direct**, at or above it: the masters exchange per-call scratch
//!   handles and put every piece straight into the peer's scratch
//!   region, counted by the per-pair counters — no landings, no
//!   credits.
//!
//! `Ring` stays a family of its own rather than borrowing the `Reduce`
//! channels: its puts and credit waits are what the `pairwise_puts`
//! and `credit_stalls` metrics count.
//!
//! The node leg is the same on both routes. Where a node has several
//! slots and a block several pieces it is **spread** over the slots:
//! each piece is reduced on its own tree over the node
//! (`SrmComm::plan_smp_reduce_spread`), rooted at the slot
//! `SrmComm::reduce_scatter_roots` picks, so the operator passes of the
//! whole `n·len` buffer are shared out instead of all landing on the
//! master. A peer piece's root publishes the piece in its own
//! contribution buffer, as an interior vertex publishes a partial, and
//! the master puts it onto the wire from there, no copy. An own-block
//! piece inside one slot's result segment is reduced at that slot,
//! which writes it to its user buffer; one across several segments is
//! reduced at the master and goes through the buffer pair. Between
//! nodes the master is hung last in every tree it does not root, a
//! leaf, and folds the peers' pieces of the own block into its
//! contribution as they land: it takes them anyway, the credit goes
//! back as soon as the piece is folded, and a master folding nothing
//! would leave the other `p − 1` slots `p/(p − 1)` of the node's mean
//! each. A node of one slot, or a call whose segments are shorter than
//! a piece (the 8 B to 4 KB calls at the default 16 KB piece), reduces
//! every piece at the master as before.
//!
//! ## Group coordinates
//!
//! Everything here is phrased over the communicator's shape: node
//! indices are *group-node* indices (`0..cnodes()`), slot indices are
//! group slots, and user-buffer segments are indexed by communicator
//! rank. Both endpoints of every stream derive its pieces from the
//! group shape and the call shape alone.
//!
//! ## Why the staged route still drains
//!
//! Each side's credit guards its own reuse, within a call and across
//! calls, so no landing is overwritten early whatever the calls
//! around it. Each source master still ends the call with one
//! non-consuming wait per destination, for the credit of its last
//! piece's side: the destination returns its credits in piece order,
//! so none of this call's credits comes back as an interrupt after the
//! call.
//!
//! ## Deadlock freedom
//!
//! Every rank walks the same global round sequence; each blocking step
//! of round `k` waits only on events of rounds `< k` (the credit of
//! piece `k - 2` on the same side, contribution drain two chunks back,
//! pair release two pieces back), on a credit the previous call's
//! destination has already returned, or on same-round predecessors
//! that are unconditionally reachable. Induction over the round order
//! gives progress. The exchange wire blocks only on address takes and
//! completion counters, and every rank issues all its address sends and
//! all its puts before its first wait on a peer's put.
//!
//! The spread node leg adds the master's consumes of the roots' uses
//! (the puts from a root's buffer, and the copy of the master's own
//! result). The roots rotate, so a channel changes consumer from use to
//! use and every consume carries the in-order guard: the consumer of
//! use `u` waits until use `u - 1` is drained. A root's use is consumed
//! by the master two of its own tree vertices later, so the master
//! publishes into three trees at once. Two is as far as the guards
//! allow: my publish of use `u` waits for my parent to drain use `u -
//! 2`; my parent's vertex of that tree may wait (guard) on a consume of
//! use `u - 3`, and that consume must already be behind me. A master
//! that roots a tree waits on every slot of the node, so it owes no
//! consume when it starts one; nor does it when it waits on a peer's
//! put of a round whose puts of its own it has not all issued — every
//! master issues them before it waits. A root that keeps its result
//! skips its channel's use for it (`SrmComm::plan_contrib_skip`) once
//! the use before is drained, so every channel stays gap-free. A spread
//! node reduces its own block's piece a round late, after the peers'
//! pieces of the next round, so the peers' puts of it land under a
//! round of tree work; the credit it returns is that of piece `k`,
//! which the peers need two rounds on.
//!
//! Because the Reduce sequence base indexes cross-node buffer
//! parities, its advance is the same on every member, even members
//! whose own node moved less; a slot that published less
//! re-synchronizes its contribution channel through
//! `plan_contrib_catchup` (DESIGN.md §9.3, §12.3); on a spread node
//! every slot publishes or skips every use itself. The node pair's base
//! counts only the uses my node made.

use crate::embed::children_ascending;
use crate::plan::{BufRef, Chan, ChanKind, CopyCost, CtrRef, PlanBuilder, SeqBase, Step, Val};
use crate::smp::{plan_acc_to_user, plan_pair_release, spread_slot};
use crate::world::SrmComm;
use simnet::NodeId;
use std::collections::VecDeque;

/// The largest alltoallv segment that runs with interrupts off
/// ([`SrmComm::plan_alltoallv`]): the paper's small-call cut (§2.3).
pub(crate) const ALLTOALLV_QUIET_MAX: usize = 8 * 1024;

impl SrmComm {
    /// The [`ChanKind::Ring`] channel of piece lane `lane` from group
    /// node `from`'s master to group node `to`'s.
    fn ring(&self, (from, to): (NodeId, NodeId), lane: u64) -> Chan {
        Chan::new(
            ChanKind::Ring,
            self.crank_at(from, 0),
            self.crank_at(to, 0),
            lane,
        )
    }

    /// The comm ranks off my node in the order this rank's wire visits
    /// them: node distance first, slot distance second. `outbound`
    /// lists the ranks I put to (me plus the distance); otherwise the
    /// mirror walk (me minus the distance) — on a communicator with
    /// equally many members per node, the rank whose `k`-th put targets
    /// me is the `k`-th entry, and the `k`-th destinations of all ranks
    /// are pairwise distinct.
    fn remote_order(&self, outbound: bool) -> Vec<usize> {
        let (n, g, u) = (self.cnodes(), self.cnode(), self.cslot());
        let mut order = Vec::with_capacity(self.csize() - self.cslots_here());
        for dn in 1..n {
            let d = if outbound { g + dn } else { g + n - dn } % n;
            let p = self.cslots_on(d);
            for ds in 0..p {
                let t = if outbound { u + ds } else { u % p + p - ds } % p;
                order.push(self.crank_at(d, t));
            }
        }
        order
    }

    /// Plan the total exchange on the `seg`-strided grid layout:
    /// communicator rank `i` sends `count(i, j)` bytes from send segment
    /// `j` (at `j·seg`) to communicator rank `j`, which receives them in
    /// segment `i` of the second half (at `csize·seg + i·seg`).
    ///
    /// The wire is a per-call address exchange followed by one put per
    /// remote peer straight into its receive segment, with a per-pair
    /// completion counter — the shape of the zero-copy large-message
    /// broadcast, generalized to one stream per ordered rank pair. The
    /// address sends are non-blocking and precede every blocking step,
    /// so no rank can stall a peer's rendezvous; the puts precede the
    /// intra-node leg, which then runs under the wire.
    ///
    /// Buffer-reuse safety needs no extra drain steps: a put snapshots
    /// its source synchronously at issue (send side), and the
    /// receiver's consuming counter waits — one per inbound stream —
    /// *are* the drain (receive side). They also leave every per-pair
    /// counter back at zero, and a taken mailbox slot is provably empty
    /// again before the next call's send can land in it (DESIGN.md
    /// §16.2).
    ///
    /// A multi-node exchange that is `quiet`, of segments up to
    /// [`interrupt_disable_max`](crate::SrmTuning::interrupt_disable_max),
    /// runs with interrupts off on **every** rank, since every rank is a
    /// put target: its inbound puts land while it polls in the drain
    /// waits, not as interrupts inside the rotation's flag waits
    /// (DESIGN.md §16.2, "Reception progress").
    fn plan_exchange(
        &self,
        b: &mut PlanBuilder,
        (seg, quiet): (usize, bool),
        count: impl Fn(usize, usize) -> usize,
    ) {
        if seg == 0 {
            return;
        }
        let body = |b: &mut PlanBuilder| {
            let me = self.crank();
            let rbase = self.csize() * seg;
            // Own segment: already local, one private copy.
            if count(me, me) > 0 {
                let (own, cost) = ((BufRef::User, rbase + me * seg), CopyCost::Read(1));
                b.copy((BufRef::User, me * seg), own, count(me, me), cost);
            }
            let mut inbound = self.remote_order(false);
            inbound.retain(|&s| count(s, me) > 0);
            for &s in &inbound {
                b.push(Step::AddrSend {
                    to: self.cworld_of(s),
                    src: BufRef::User,
                });
            }
            for d in self.remote_order(true) {
                let len = count(me, d);
                if len == 0 {
                    continue;
                }
                let idx = b.take_addr(d);
                b.push(Step::RmaPut {
                    to: self.cworld_of(d),
                    src: BufRef::User,
                    src_off: d * seg,
                    dst: BufRef::Taken { idx },
                    dst_off: rbase + me * seg,
                    len,
                    ctr: Some(CtrRef::PairwiseDirect { src: me, dst: d }),
                });
            }
            self.plan_local_exchange(b, seg, &count);
            // Drain: consume one completion per inbound stream. When these
            // return, every expected segment has landed and the counters
            // are at zero for the next call.
            for &s in &inbound {
                b.wait_ctr(CtrRef::PairwiseDirect { src: s, dst: me }, 1);
            }
        };
        // Every rank is its own wire rank here.
        match quiet {
            true => self.plan_quiet(b, self.crank(), seg, body),
            false => body(b),
        }
    }

    /// Intra-node leg of the exchange: a rotation over the per-slot
    /// contribution channels. In round `r` slot `u` publishes its cell
    /// for slot `(u + r) mod p` in its own channel and consumes
    /// slot `(u - r) mod p`'s, cut into `pairwise_chunk` pieces and
    /// interleaved piece by piece (a slot that published a whole
    /// three-piece cell before reading would wait on a reader that is
    /// waiting the same way). All `p` slots copy at once, so every copy
    /// is charged with `p` streams on the bus.
    fn plan_local_exchange(
        &self,
        b: &mut PlanBuilder,
        seg: usize,
        count: &impl Fn(usize, usize) -> usize,
    ) {
        let cs = b.tuning().pairwise_chunk;
        // Pieces of the cell slot `u` of group node `g` publishes in
        // round `r`.
        let pieces = |g: NodeId, u: usize, r: usize| {
            let to = self.crank_at(g, (u + r) % self.cslots_on(g));
            count(self.crank_at(g, u), to).div_ceil(cs) as u64
        };
        let published =
            |g: NodeId, u: usize, rounds: usize| (1..rounds).map(|r| pieces(g, u, r)).sum::<u64>();
        // The Reduce base indexes cross-node parities, so every member
        // advances it by the most any slot of the group publishes.
        let r_adv = (0..self.cnodes())
            .flat_map(|g| (0..self.cslots_on(g)).map(move |u| (g, u)))
            .map(|(g, u)| published(g, u, self.cslots_on(g)))
            .max()
            .expect("nonempty group");
        if r_adv == 0 {
            return;
        }
        let (g, my, p) = (self.cnode(), self.cslot(), self.cslots_here());
        let me = self.crank();
        let rbase = self.csize() * seg;
        let rel0 = b.rel(SeqBase::Reduce);
        let mut sent = 0u64;
        for r in 1..p {
            let from = (my + p - r) % p;
            let (cto, cfrom) = (self.crank_at(g, (my + r) % p), self.crank_at(g, from));
            let (out, inb) = (count(me, cto), count(cfrom, me));
            // Where this round's cell starts in `from`'s channel.
            let rel_in = rel0 + published(g, from, r);
            for k in 0..out.max(inb).div_ceil(cs) {
                let koff = k * cs;
                if koff < out {
                    let user = (BufRef::User, cto * seg + koff);
                    let len = cs.min(out - koff);
                    let cost = CopyCost::Write(p);
                    self.plan_contrib_publish(b, rel0 + sent, user, len, cost);
                    sent += 1;
                }
                if koff < inb {
                    self.plan_contrib_consume(
                        b,
                        (from, rel_in + k as u64),
                        k == 0,
                        "exchange cell published",
                        |b, src| {
                            let dst = (BufRef::User, rbase + cfrom * seg + koff);
                            b.copy((src, 0), dst, cs.min(inb - koff), CopyCost::Read(p))
                        },
                    );
                }
            }
        }
        // Re-synchronize my channel with the group-wide advance: a slot
        // that published fewer pieces than the group maximum (ragged
        // counts, uneven nodes) raises its own flags the rest of the way.
        self.plan_contrib_catchup(b, sent, rel0 + r_adv);
        b.advance(SeqBase::Reduce, r_adv);
    }

    /// Plan an alltoall of `len`-byte segments: the send half of the
    /// user buffer (`csize·len` bytes, segment `j` for communicator
    /// rank `j`) is exchanged into the receive half (the next
    /// `csize·len` bytes, segment `i` from communicator rank `i`).
    pub(crate) fn plan_alltoall(&self, b: &mut PlanBuilder, len: usize) {
        self.plan_exchange(b, (len, true), |_, _| len);
    }

    /// Plan an alltoallv on the `seg`-strided grid layout: communicator
    /// rank `i` sends `counts[i·n + j]` bytes from send segment `j` to
    /// communicator rank `j`, receiving into receive segment `i` of the
    /// second half.
    ///
    /// Unlike the alltoall it runs quiet only up to
    /// [`ALLTOALLV_QUIET_MAX`]-byte segments (and the knob). With ragged
    /// counts the ranks finish unevenly, and polling at every size
    /// measured slower (`harness::measure`, four calls, against this
    /// cut): +20.4 % on 4×16 / 32 KB, +12.8 % on 4×4 / 16 KB and
    /// +10.9 % on 8×2 / 32 KB (4×4 / 64 KB gained 10.1 %).
    pub(crate) fn plan_alltoallv(&self, b: &mut PlanBuilder, seg: usize, counts: &[usize]) {
        let n = self.csize();
        let quiet = seg <= ALLTOALLV_QUIET_MAX;
        self.plan_exchange(b, (seg, quiet), |i, j| counts[i * n + j]);
    }

    /// Plan a reduce-scatter of `len`-byte result segments: the user
    /// buffer holds `csize` contribution segments; after the call,
    /// segment `me` holds the element-wise reduction of every member's
    /// segment `me`. Each piece round reduces one piece of every peer
    /// node's block on the node and streams it into the peer's master,
    /// then reduces the piece of the own block, folds in the peers'
    /// pieces of it and leaves the result in the owning members' user
    /// buffers. Node blocks decompose exactly like the scatter
    /// protocol's ([`SrmComm::scatter_pieces`]), so non-contiguous and
    /// uneven groups work and both ends of every stream agree on the
    /// piece sequence.
    ///
    /// Where a node has several slots and a segment is at least one
    /// piece long, the node leg is spread over the slots
    /// (module doc): each piece is reduced on a tree rooted where
    /// [`SrmComm::reduce_scatter_roots`] puts it; the master puts a
    /// peer piece from its root's contribution buffer and folds the
    /// landed peer pieces of its own block into its vertex; an
    /// own-block piece inside one slot's result segment is written to
    /// that slot's user buffer by it, one across several goes through
    /// the buffer pair. Otherwise every piece is reduced at the master.
    pub(crate) fn plan_reduce_scatter(&self, b: &mut PlanBuilder, len: usize) {
        let n = self.csize();
        if len == 0 || n == 1 {
            return;
        }
        let nodes = self.cnodes();
        // Unlike the byte-oriented alltoall streams, reduce pieces are
        // combined elementwise, so every piece boundary must fall on an
        // element boundary: round the configured (effective per-shape)
        // chunk down to the 8-byte grid (a multiple of every supported
        // element size).
        let chunk = (b.tuning().pairwise_chunk & !7).max(8);
        let me = self.cnode();
        let my = self.cslot();
        let p = self.cslots_here();
        let multi = self.cmulti();
        let rel0 = b.rel(SeqBase::Reduce);
        let prel0 = b.rel(SeqBase::Pair);
        let mut rel = rel0;

        let pieces: Vec<Vec<(usize, usize, usize)>> = (0..nodes)
            .map(|d| self.scatter_pieces(d, len, chunk))
            .collect();
        let rounds = rounds_of(&pieces);
        let peers = || (0..nodes).filter(|&g| g != me);

        // Direct route: pieces rendezvous in a per-call scratch region
        // at the destination master instead of staging through the
        // `Ring` landings — only the wire differs. The scratch holds
        // one logical block per peer; `region(d, s)` is source `s`'s
        // index among `d`'s peers, ascending.
        let direct = multi && len >= b.tuning().pairwise_direct_min;
        let block_of = |g: usize| self.cslots_on(g) * len;
        let region = |d: usize, s: usize| if s < d { s } else { s - 1 };
        let mut scratch_idx: Vec<Option<usize>> = vec![None; nodes];
        if direct && my == 0 {
            let scratch = b.scratch((nodes - 1) * block_of(me));
            // Sends strictly before takes: no master can stall a
            // peer's rendezvous setup.
            for s in peers() {
                b.push(Step::AddrSend {
                    to: self.cmaster_of(s),
                    src: scratch,
                });
            }
            for d in peers() {
                scratch_idx[d] = Some(b.take_addr(self.crank_at(d, 0)));
            }
        }

        // Spreading pieces shorter than a segment measured slower
        // (2×16 / 4 KB: 1 535.7 against 1 463.5 µs).
        let spread = p > 1 && len >= chunk;
        let roots = spread.then(|| self.reduce_scatter_roots(&pieces, len));
        // The master's put of piece `k` of group node `d`'s block from
        // `src` (a put snapshots its source synchronously).
        let put = |b: &mut PlanBuilder, (d, k): (usize, usize), src: BufRef| {
            let (_, blk, plen) = pieces[d][k];
            if direct {
                // Land the piece straight in the peer master's scratch
                // region — no credits, one counter bump at the target.
                b.push(Step::RmaPut {
                    to: self.cmaster_of(d),
                    src,
                    src_off: 0,
                    dst: BufRef::Taken {
                        idx: scratch_idx[d].expect("scratch handle taken"),
                    },
                    dst_off: region(d, me) * block_of(d) + blk,
                    len: plen,
                    ctr: Some(CtrRef::PairwiseDirect {
                        src: self.crank(),
                        dst: self.crank_at(d, 0),
                    }),
                });
            } else {
                let to = (self.ring((me, d), rel0 + k as u64), 0);
                self.plan_credit_put(b, to, (src, 0), plen);
            }
        };
        // What the master still owes, oldest first.
        let mut owed: VecDeque<Owed> = VecDeque::new();
        let hand_off = |b: &mut PlanBuilder, h: Owed| match h {
            // Put the reduced peer piece from the root's buffer.
            Owed::Put { r, root, d, k } => {
                let label = "reduced piece ready";
                let on = |b: &mut PlanBuilder, src| put(b, (d, k), src);
                self.plan_contrib_consume(b, (root, r), true, label, on);
            }
            // Copy my own result out of the root's buffer.
            Owed::Result { r, root, k } => {
                let (boff, _, plen) = pieces[me][k];
                let label = "reduced piece ready";
                let on = |b: &mut PlanBuilder, src| {
                    b.copy((src, 0), (BufRef::User, boff), plen, CopyCost::Read(1))
                };
                self.plan_contrib_consume(b, (root, r), true, label, on);
            }
        };
        let mut pair_uses = 0;

        for (k, d) in self.reduce_scatter_order(rounds, spread) {
            let Some(&(boff, blk, plen)) = pieces[d].get(k) else {
                continue;
            };
            let r = rel;
            rel += 1;
            let root = roots.as_ref().map_or(0, |roots| roots[k][d]);
            if my == 0 {
                // A hand-off trails my vertex of its tree by
                // `HAND_OFF_LAG` uses. Before my own block's piece of a
                // round, every put of that round goes out, so it
                // precedes my waits on the peers' puts; a master that
                // roots a tree owes nothing.
                let due = |h: &mut Owed| {
                    h.rel() + HAND_OFF_LAG < r || root == 0 || d == me && h.round() <= k
                };
                while let Some(h) = owed.pop_front_if(due) {
                    hand_off(b, h);
                }
            }
            if d != me {
                // A peer node's block: reduce the piece and stream it
                // out, round-robin over destinations.
                if !spread {
                    if self.plan_smp_reduce_chunk(b, (boff, plen, r), (self.tree(), 0)) {
                        put(b, (d, k), BufRef::Acc);
                    }
                    continue;
                }
                let at_root =
                    self.plan_smp_reduce_spread(b, (boff, plen, r), (root, multi), |_| false);
                match (my == 0, at_root) {
                    (true, true) => {
                        put(b, (d, k), BufRef::Acc);
                        self.plan_contrib_skip(b, r);
                    }
                    (true, false) => owed.push_back(Owed::Put { r, root, d, k }),
                    // Hand the piece to the master in place.
                    (false, true) => {
                        let cost = CopyCost::Free;
                        self.plan_contrib_publish(b, r, (BufRef::Acc, 0), plen, cost);
                    }
                    (false, false) => {}
                }
                continue;
            }
            // My own block: reduce the node's contributions, fold in the
            // peers' arrived pieces, leave the result with its owners.
            let lane = rel0 + k as u64;
            // The peers' pieces of it land at the master, which folds
            // them into its vertex of the tree.
            let fold_in = |b: &mut PlanBuilder| {
                if my != 0 || !multi {
                    return false;
                }
                for s in peers() {
                    if !direct {
                        self.plan_fold_landed(b, (self.ring((s, me), lane), 0), plen);
                        continue;
                    }
                    // Per-pair in-order delivery: the k-th completion
                    // from `s` implies pieces `0..=k` have landed, so
                    // piece `k`'s scratch range is readable. These
                    // consuming waits are also the drain — no credit
                    // returns, no end-of-plan flush.
                    let done = CtrRef::PairwiseDirect {
                        src: self.crank_at(s, 0),
                        dst: self.crank(),
                    };
                    b.wait_ctr(done, 1);
                    b.push(Step::LocalReduce {
                        src: BufRef::Scratch,
                        src_off: region(me, s) * block_of(me) + blk,
                        len: plen,
                    });
                }
                true
            };
            let at_root = match spread {
                true => self.plan_smp_reduce_spread(b, (boff, plen, r), (root, multi), fold_in),
                false => {
                    let at_root = self.plan_smp_reduce_chunk(b, (boff, plen, r), (self.tree(), 0));
                    if at_root {
                        fold_in(b);
                    }
                    at_root
                }
            };
            if let Some(owner) = spread.then(|| segment_owner(len, (blk, plen))).flatten() {
                if at_root && owner == my {
                    // The piece lies in my own result segment.
                    plan_acc_to_user(b, boff, plen);
                    self.plan_contrib_skip(b, r);
                } else if my == 0 && owner == 0 {
                    owed.push_back(Owed::Result { r, root, k });
                } else if at_root {
                    // The master's result: it copies it out in place.
                    self.plan_contrib_publish(b, r, (BufRef::Acc, 0), plen, CopyCost::Free);
                }
                continue;
            }
            let prel = prel0 + pair_uses;
            pair_uses += 1;
            // My result segment's part of the piece.
            let mine = self.block_overlap(len, (blk, plen), my);
            if !at_root {
                self.plan_pair_read(b, (prel, BufRef::Pair { rel: prel }), mine);
            } else if p > 1 {
                self.plan_pair_write(b, prel, (BufRef::Acc, 0), plen, 1);
                if let Some(mine) = mine {
                    self.plan_pair_copy_out(b, BufRef::Pair { rel: prel }, mine);
                }
                plan_pair_release(b, prel);
            } else {
                // Single-member node: the accumulator is the result.
                plan_acc_to_user(b, self.crank() * len + blk, plen);
            }
            if spread && my == 0 {
                self.plan_contrib_skip(b, r);
            }
        }
        while let Some(h) = owed.pop_front() {
            hand_off(b, h);
        }

        if multi && my == 0 && !direct {
            // The drain: the credit of each stream's last piece is home
            // (see the module doc).
            for d in peers().filter(|&d| !pieces[d].is_empty()) {
                let last = self.ring((me, d), rel0 + pieces[d].len() as u64 - 1);
                b.wait_ctr_ge(CtrRef::Free(last), Val::Lit(1));
            }
        }
        if my == 0 && !spread {
            // The subtree root consumed everyone's contributions but
            // published none of its own.
            self.plan_contrib_catchup(b, 0, rel);
        }
        // `rel - rel0` is `Σ_d pieces[d].len()` on every member (each
        // walks all destinations plus its own block), so the Reduce
        // advance is uniform by construction. My node's pair carried
        // the pieces of its own block that no one slot owns (none on a
        // single-slot node).
        b.advance(SeqBase::Reduce, rel - rel0);
        if p > 1 {
            b.advance(SeqBase::Pair, pair_uses);
        }
    }

    /// The `(round, group node)` pieces of a reduce_scatter in the order
    /// my node reduces them: round by round, the peer nodes' pieces then
    /// the own block's. A spread node reduces its own block's piece a
    /// round late, so the peers' puts of it have a round of tree work to
    /// land under.
    fn reduce_scatter_order(&self, rounds: usize, spread: bool) -> Vec<(usize, usize)> {
        let me = self.cnode();
        let late = if spread { OWN_LATE } else { 0 };
        let mut order = Vec::new();
        for k in 0..rounds + late {
            order.extend((0..self.cnodes()).filter(|&d| d != me).map(|d| (k, d)));
            if let Some(own) = k.checked_sub(late) {
                order.push((own, me));
            }
        }
        order
    }

    /// The slot that reduces each piece on my node when the node leg is
    /// spread, as `[round][group node]`. An own-block piece inside one
    /// slot's result segment goes to that slot — between nodes, unless
    /// it is the master's, which is busy with the wire — and one across
    /// several to the master. Every other piece goes, in my node's
    /// order, to the root under which its tree finishes first by the
    /// machine's copy and operator costs — list scheduling: each slot
    /// works its pieces in order, a vertex folds its children as they
    /// finish and publishes once its use two back is drained — among
    /// the roots that leave no slot folding more than 1.2× the node's
    /// mean operands over the call, else the one that leaves the
    /// fewest on the busiest slot.
    fn reduce_scatter_roots(
        &self,
        pieces: &[Vec<(usize, usize, usize)>],
        len: usize,
    ) -> Vec<Vec<usize>> {
        let (nodes, me, p) = (self.cnodes(), self.cnode(), self.cslots_here());
        let cfg = self.world.handle.config();
        let kids: Vec<Vec<usize>> = (0..p)
            .map(|v| children_ascending(self.tree(), v, p))
            .collect();
        let hung = self.cmulti();
        let mut free = vec![0u64; p];
        // When each slot's last two channel uses were consumed: a slot
        // publishes a use only once the one two before it is.
        let mut drained = vec![[0u64; 2]; p];
        // An own-block piece inside a non-master slot's result segment
        // is reduced there, one across several at the master.
        let forced = |k: usize, d: usize| {
            let (_, blk, plen) = pieces[d][k];
            match (d == me).then(|| segment_owner(len, (blk, plen)))? {
                Some(0) if hung => None,
                owner => Some(owner.unwrap_or(0)),
            }
        };
        // Operands each slot folds: the forced trees' up front, the
        // master's of the landed pieces, and the others' as placed.
        let mut work = vec![0; p];
        let place = |work: &mut Vec<usize>, top| {
            for (v, kids) in kids.iter().enumerate() {
                work[spread_slot(p, (top, hung), v)] += kids.len();
            }
        };
        for k in 0..pieces[me].len() {
            if let Some(top) = forced(k, me) {
                place(&mut work, top);
            }
            if hung {
                work[0] += nodes - 1;
            }
        }
        let mut roots = vec![vec![0; nodes]; rounds_of(pieces)];
        // Every tree folds `p - 1` operands.
        let free_trees = (0..nodes).map(|d| {
            (0..pieces[d].len())
                .filter(|&k| forced(k, d).is_none())
                .count()
        });
        let total = work.iter().sum::<usize>() + free_trees.sum::<usize>() * (p - 1);
        let order = self.reduce_scatter_order(roots.len(), true);
        let order = order.into_iter().filter(|&(k, d)| k < pieces[d].len());
        for (i, (k, d)) in order.enumerate() {
            let plen = pieces[d][k].2;
            let side = i % 2;
            let fold = cfg.reduce_cost(plen).as_ps();
            let copy = cfg.shm_copy_cost(plen, (p / 2).max(1)).as_ps();
            // The master's vertex of my own block's tree folds the
            // landed pieces.
            let landed = if d == me && hung { nodes as u64 - 1 } else { 0 };
            // Each vertex's finish under a tree rooted at `top`, and
            // when its parent has consumed it.
            let finish = |top: usize| {
                let (mut fin, mut taken) = (vec![0; p], vec![0; p]);
                for v in (0..p).rev() {
                    let u = spread_slot(p, (top, hung), v);
                    let mut at = free[u];
                    if kids[v].is_empty() {
                        at += if u == 0 && landed > 0 {
                            fold * landed
                        } else {
                            copy
                        };
                    }
                    for &c in &kids[v] {
                        at = at.max(fin[c]) + fold;
                        taken[c] = at;
                    }
                    fin[v] = at.max(drained[u][side]);
                }
                taken[0] = fin[0];
                (fin, taken)
            };
            let top = forced(k, d).unwrap_or_else(|| {
                // The earliest finish among the roots that leave no
                // slot folding more than 1.2× the node's mean operands,
                // else the root that leaves the fewest on the busiest.
                let most = |t| {
                    let folds = |v: usize| work[spread_slot(p, (t, hung), v)] + kids[v].len();
                    (0..p).map(folds).max().unwrap_or(0)
                };
                let fair = (0..p).filter(|&t| most(t) * 5 * p <= 6 * total);
                let top = fair.min_by_key(|&t| finish(t).0[0]);
                let top = top.unwrap_or_else(|| (0..p).min_by_key(|&t| most(t)).expect("a slot"));
                place(&mut work, top);
                top
            });
            let (fin, taken) = finish(top);
            for (v, (fin, taken)) in fin.into_iter().zip(taken).enumerate() {
                let u = spread_slot(p, (top, hung), v);
                (free[u], drained[u][side]) = (fin, taken);
            }
            roots[k][d] = top;
        }
        roots
    }
}

/// Rounds of a reduce_scatter: pieces in the longest node block.
fn rounds_of(pieces: &[Vec<(usize, usize, usize)>]) -> usize {
    pieces.iter().map(|v| v.len()).max().unwrap_or(0)
}

/// A consume the master owes after its own vertex of a tree: of use
/// `r` of `root`'s contribution channel, holding piece round `k`.
#[derive(Clone, Copy)]
enum Owed {
    /// Put peer node `d`'s piece onto the wire.
    Put {
        r: u64,
        root: usize,
        d: usize,
        k: usize,
    },
    /// Copy my own result out.
    Result { r: u64, root: usize, k: usize },
}

impl Owed {
    fn rel(self) -> u64 {
        match self {
            Owed::Put { r, .. } | Owed::Result { r, .. } => r,
        }
    }

    fn round(self) -> usize {
        match self {
            Owed::Put { k, .. } | Owed::Result { k, .. } => k,
        }
    }
}

/// How many consumes the master's hand-offs trail its own tree
/// vertices by. A master that waited for each peer piece's root before
/// publishing its contribution to the next tree would run one tree at a
/// time; with this lag three trees are in flight. Two is as far as the
/// in-order guards allow (see the module doc).
const HAND_OFF_LAG: u64 = 2;

/// How many rounds a spread node reduces its own block's piece after
/// the peers' pieces of the same round.
const OWN_LATE: usize = 1;

/// The slot whose result segment holds all of the block piece
/// `(block_off, plen)`, if one does.
fn segment_owner(len: usize, (blk, plen): (usize, usize)) -> Option<usize> {
    let s = blk / len;
    ((blk + plen - 1) / len == s).then_some(s)
}
