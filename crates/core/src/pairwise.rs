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
//! Because the Reduce sequence base indexes cross-node buffer
//! parities, its advance is the same on every member, even members
//! whose own node moved less; a slot that published less
//! re-synchronizes its contribution channel through
//! `plan_contrib_catchup` (DESIGN.md §9.3, §12.3). The node pair's base
//! counts only the uses my node made.

use crate::plan::{BufRef, Chan, ChanKind, CopyCost, CtrRef, PlanBuilder, SeqBase, Step, Val};
use crate::smp::{plan_acc_to_user, plan_pair_release};
use crate::world::SrmComm;
use simnet::NodeId;

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
    /// node's block up the SMP tree, streams it into the peer's `Ring`
    /// landing, then folds the arrived peer pieces into the own-block
    /// reduction and scatters the finished piece through the node's
    /// buffer pair. Node blocks decompose exactly like the scatter
    /// protocol's ([`SrmComm::scatter_pieces`]), so non-contiguous and
    /// uneven groups work and both ends of every stream agree on the
    /// piece sequence.
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
        let rounds = pieces.iter().map(|v| v.len()).max().unwrap_or(0);
        let peers = || (0..nodes).filter(|&g| g != me);

        // Direct route: pieces rendezvous in a per-call scratch region
        // at the destination master instead of staging through the
        // `Ring` landings — the SMP pre-reduction and landing-pair
        // distribution are unchanged, only the wire differs. The
        // scratch holds one logical block per peer; `region(d, s)` is
        // source `s`'s index among `d`'s peers, ascending.
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

        for k in 0..rounds {
            let lane = rel0 + k as u64;
            // Peer-node blocks: reduce this piece to the master and
            // stream it out, round-robin over destinations.
            for d in peers() {
                let Some(&(boff, blk, plen)) = pieces[d].get(k) else {
                    continue;
                };
                let is_root = self.plan_smp_reduce_chunk(b, (boff, plen, rel), (self.tree(), 0));
                rel += 1;
                if !is_root {
                    continue;
                }
                // The put snapshots the accumulator synchronously.
                if direct {
                    // Land the piece straight in the peer master's
                    // scratch region — no credits, one counter bump at
                    // the target.
                    b.push(Step::RmaPut {
                        to: self.cmaster_of(d),
                        src: BufRef::Acc,
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
                    let to = (self.ring((me, d), lane), 0);
                    self.plan_credit_put(b, to, (BufRef::Acc, 0), plen);
                }
            }
            // Own block: reduce the node's contributions, fold in the
            // peers' arrived pieces, distribute the finished piece.
            let Some(&(boff, blk, plen)) = pieces[me].get(k) else {
                continue;
            };
            let is_root = self.plan_smp_reduce_chunk(b, (boff, plen, rel), (self.tree(), 0));
            rel += 1;
            let prel = prel0 + k as u64;
            // My result segment's part of the piece.
            let mine = self.block_overlap(len, (blk, plen), my);
            if !is_root {
                self.plan_pair_read(b, (prel, BufRef::Pair { rel: prel }), mine);
                continue;
            }
            for s in peers() {
                if direct {
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
                } else {
                    self.plan_fold_landed(b, (self.ring((s, me), lane), 0), plen);
                }
            }
            if p > 1 {
                self.plan_pair_write(b, prel, (BufRef::Acc, 0), plen, 1);
                if let Some(mine) = mine {
                    self.plan_pair_copy_out(b, BufRef::Pair { rel: prel }, mine);
                }
                plan_pair_release(b, prel);
            } else {
                // Single-member node: the accumulator is the result.
                plan_acc_to_user(b, self.crank() * len + blk, plen);
            }
        }

        if multi && my == 0 && !direct {
            // The drain: the credit of each stream's last piece is home
            // (see the module doc).
            for d in peers().filter(|&d| !pieces[d].is_empty()) {
                let last = self.ring((me, d), rel0 + pieces[d].len() as u64 - 1);
                b.wait_ctr_ge(CtrRef::Free(last), Val::Lit(1));
            }
        }
        if my == 0 {
            // The subtree root consumed everyone's contributions but
            // published none of its own.
            self.plan_contrib_catchup(b, 0, rel);
        }
        // `rel - rel0` is `Σ_d pieces[d].len()` on every member (each
        // walks all destinations plus its own block), so the Reduce
        // advance is uniform by construction. My node's pair carried
        // its own block's pieces (none on a single-slot node).
        b.advance(SeqBase::Reduce, rel - rel0);
        if p > 1 {
            b.advance(SeqBase::Pair, pieces[me].len() as u64);
        }
    }
}
