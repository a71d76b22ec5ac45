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
//! receive half with **one put**, completion-counted by the `direct`
//! [`rma::CounterFamily`] — no node master in between, no staging copy,
//! no credits, at every segment size. Two orderings make it a wire a
//! one-sided transport likes:
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
//! `SrmComm::plan_hand_consume` at each hand-over keeps its DONE flag
//! skip-free.
//!
//! ## Reduce-scatter: two routes between node masters
//!
//! Reduce-scatter pre-reduces inside the node, so its wire runs between
//! node masters, and it has two routes:
//!
//! * **Staged**, below
//!   [`SrmTuning::pairwise_direct_min`](crate::SrmTuning): a registry
//!   of [`ChanKind::Ring`] channels ([`PairwiseState`]), one per
//!   ordered `(src, dst)` group-node pair — an inbound *landing ring*
//!   at `dst`, its data counter and `src`'s credits — whose handles are
//!   exchanged like registered memory, so a put needs no per-call
//!   address traffic. A source may have at most
//!   [`pairwise_window`](crate::SrmTuning) puts outstanding toward one
//!   destination (the ring has that many
//!   [`pairwise_chunk`](crate::SrmTuning)-sized slots per source); it
//!   spends a credit per put (a consuming [`Step::Wait`] on the credit
//!   counter) and the destination returns the credit once it drains the
//!   slot. Masters round-robin across destinations piece by piece, so
//!   all streams stay in flight together.
//! * **Direct**, at or above it: the masters exchange per-call scratch
//!   handles and put every piece straight into the peer's scratch
//!   region, counted by the `direct` family — no rings, no credits.
//!
//! ## Group coordinates
//!
//! Everything here is phrased over the communicator's shape: node
//! indices are *group-node* indices (`0..cnodes()`), slot indices are
//! group slots, and user-buffer segments are indexed by communicator
//! rank. Both endpoints of every stream derive its pieces from the
//! group shape and the call shape alone.
//!
//! ## Why literal ring offsets are safe
//!
//! Piece `k` of a ring stream lands at ring offset `(k % window) ·
//! chunk`, a plan-time constant — no sequence base is consumed. Two
//! facts make this sound: the credit window keeps at most `window`
//! *consecutive* pieces of a stream outstanding (consecutive indices
//! map to distinct slots), and every master ends its plan waiting for
//! all credits to return (a non-consuming wait for `== window` per
//! destination), so the rings are fully drained between operations and
//! the next plan can restart indexing at zero.
//!
//! ## Deadlock freedom
//!
//! Every rank walks the same global round sequence; each blocking step
//! of round `k` waits only on events of rounds `< k` (credit of piece
//! `k - window`, contribution drain two chunks back, pair release two
//! pieces back) or on same-round predecessors that are
//! unconditionally reachable. Induction over the round order gives
//! progress for any `window ≥ 1`. The exchange wire blocks only on
//! address takes and completion counters, and every rank issues all its
//! address sends and all its puts before its first wait on a peer's
//! put.
//!
//! Because the Reduce sequence base indexes cross-node buffer
//! parities, its advance is the same on every member, even members
//! whose own node moved less; a slot that published less
//! re-synchronizes its contribution channel through
//! `plan_contrib_catchup` (DESIGN.md §9.3, §12.3). The node pair's base
//! counts only the uses my node made.

use crate::inter::seq;
use crate::plan::{
    BufRef, Chan, ChanKind, CopyCost, CtrRef, FlagRef, Hand, Off, PlanBuilder, SeqBase, Step, Val,
};
use crate::smp::{pair_buf, plan_acc_to_user, plan_pair_release, plan_stage_acc};
use crate::tuning::SrmTuning;
use crate::world::{Channel, SrmComm};
use rma::{CounterFamily, LapiCounter};
use shmem::ShmBuffer;
use simnet::{NodeId, SimHandle};
use std::sync::OnceLock;

/// The registry of the pairwise exchange subsystem: the ring channel of
/// every ordered group-node pair and the per-rank-pair completion
/// counters. The two families grow with nodes² and ranks², no tree
/// collective uses either, and each pairwise collective uses one of
/// them — staged reduce-scatter the rings, alltoall, alltoallv and
/// direct reduce-scatter the counters — so each is built, whole, like
/// registered-memory handles exchanged at initialization, when a member
/// first resolves one of its operands.
pub struct PairwiseState {
    handle: SimHandle,
    nodes: usize,
    ranks: usize,
    window: usize,
    /// Bytes of one ring: `window` slots of at least 8 bytes each —
    /// reduce-scatter rounds its piece size up to the element grid even
    /// when `pairwise_chunk` is configured smaller.
    ring: usize,
    /// `rings[dst * nodes + src]`: the [`ChanKind::Ring`] channel of the
    /// stream `src → dst` — a landing ring of `window` slots of
    /// `pairwise_chunk` bytes at `dst`, its data counter (consumed one
    /// per piece by the destination master) and the source's credits
    /// (init `window`, spent per put, restored by `dst`'s zero-byte put
    /// when a ring slot drains).
    pub(crate) rings: OnceLock<Vec<Channel>>,
    /// Completion counters, one per ordered **comm-rank** pair:
    /// `pair(src, dst)` lives at `dst` and is bumped by each of `src`'s
    /// direct puts into `dst`'s user or scratch buffer. The receiver's
    /// consuming waits drain it back to zero every call.
    pub(crate) direct: OnceLock<CounterFamily>,
}

impl PairwiseState {
    /// The empty registry of a `nodes`-node, `ranks`-member group.
    pub(crate) fn new(handle: &SimHandle, tuning: &SrmTuning, nodes: usize, ranks: usize) -> Self {
        PairwiseState {
            handle: handle.clone(),
            nodes,
            ranks,
            window: tuning.pairwise_window,
            ring: tuning.pairwise_window * tuning.pairwise_chunk.max(8),
            rings: OnceLock::new(),
            direct: OnceLock::new(),
        }
    }

    /// The ring channel of the group-node stream `src → dst`.
    pub fn ring(&self, src: NodeId, dst: NodeId) -> &Channel {
        let rings = self.rings.get_or_init(|| {
            (0..self.nodes * self.nodes)
                .map(|_| Channel::new(&self.handle, ShmBuffer::new(self.ring), self.window as u64))
                .collect()
        });
        &rings[dst * self.nodes + src]
    }

    /// The completion counter of the **comm-rank** stream `src → dst`
    /// (lives at `dst`).
    pub fn direct(&self, src: usize, dst: usize) -> &LapiCounter {
        let family = || CounterFamily::new(&self.handle, self.ranks, 0);
        self.direct.get_or_init(family).pair(src, dst)
    }
}

impl SrmComm {
    /// Block until my node holds at least `n` credits toward `d`
    /// without spending any.
    fn plan_credits_ge(&self, b: &mut PlanBuilder, d: NodeId, n: usize) {
        let ring = Chan::new(ChanKind::Ring, self.cnode(), d, 0);
        b.wait_ctr_ge(CtrRef::Free(ring), Val::Lit(n as u64));
    }

    /// Credit-gated put toward group node `d` into the ring slot at
    /// byte `at`, under the effective window `w` of the shape being
    /// compiled. When `w` is narrower than the geometry credit pool, a
    /// non-consuming wait for `geometry - w + 1` credits first keeps at
    /// most `w` puts in flight, so ring slot `r % w` is always drained
    /// before it is reused.
    fn plan_ring_put(
        &self,
        b: &mut PlanBuilder,
        (d, at): (NodeId, usize),
        stage_acc: bool,
        from: (BufRef, Off),
        len: usize,
    ) {
        let (w, w_geom) = (b.tuning().pairwise_window, self.tuning().pairwise_window);
        if w < w_geom {
            self.plan_credits_ge(b, d, w_geom - w + 1);
        }
        let ring = Chan::new(ChanKind::Ring, self.cnode(), d, 0);
        self.plan_credit_put(b, (ring, at), stage_acc, from, len);
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
    /// A multi-node exchange of segments up to
    /// [`interrupt_disable_max`](crate::SrmTuning::interrupt_disable_max)
    /// runs with interrupts off on **every** rank, since every rank is a
    /// put target: its inbound puts land while it polls in the drain
    /// waits, not as interrupts inside the rotation's flag waits
    /// (DESIGN.md §16.2, "Reception progress").
    fn plan_exchange(
        &self,
        b: &mut PlanBuilder,
        seg: usize,
        count: impl Fn(usize, usize) -> usize,
    ) {
        if seg == 0 {
            return;
        }
        let quiet = self.cmulti() && seg <= b.tuning().interrupt_disable_max;
        b.interrupts_off(quiet, |b| {
            let me = self.crank();
            let rbase = self.csize() * seg;
            // Own segment: already local, one private copy.
            if count(me, me) > 0 {
                b.push(Step::ShmCopy {
                    src: BufRef::User,
                    src_off: Off::Lit(me * seg),
                    dst: BufRef::User,
                    dst_off: Off::Lit(rbase + me * seg),
                    len: count(me, me),
                    cost: CopyCost::Read(1),
                });
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
                    src_off: Off::Lit(d * seg),
                    dst: BufRef::Taken { idx },
                    dst_off: Off::Lit(rbase + me * seg),
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
        });
    }

    /// Intra-node leg of the exchange: a rotation over the per-slot
    /// contribution channels. In round `r` slot `u` publishes its cell
    /// for slot `(u + r) mod p` in its own parity buffer and consumes
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
                    let user = (BufRef::User, Off::Lit(cto * seg + koff));
                    let len = cs.min(out - koff);
                    let mine = (Hand::Slot(my), rel0 + sent);
                    self.plan_hand_publish(b, mine, user, len, CopyCost::Write(p));
                    sent += 1;
                }
                if koff < inb {
                    self.plan_hand_consume(
                        b,
                        (Hand::Slot(from), rel_in + k as u64),
                        k == 0,
                        "exchange cell published",
                        |b, src, src_off| {
                            b.push(Step::ShmCopy {
                                src,
                                src_off,
                                dst: BufRef::User,
                                dst_off: Off::Lit(rbase + cfrom * seg + koff),
                                len: cs.min(inb - koff),
                                cost: CopyCost::Read(p),
                            })
                        },
                    );
                }
            }
        }
        // Re-synchronize my channel with the group-wide advance. A slot
        // that published fewer pieces than the group maximum (ragged
        // counts, uneven nodes) raises its own flags the rest of the
        // way — but only after its last consumer finished, so the
        // flags never move backwards.
        if sent < r_adv {
            if sent > 0 {
                b.wait_flag(
                    FlagRef::Done(Hand::Slot(my)),
                    seq(SeqBase::Reduce, rel0 + sent),
                    "exchange cells consumed",
                );
            }
            self.plan_contrib_catchup(b, rel0 + r_adv);
        }
        b.advance(SeqBase::Reduce, r_adv);
    }

    /// Plan an alltoall of `len`-byte segments: the send half of the
    /// user buffer (`csize·len` bytes, segment `j` for communicator
    /// rank `j`) is exchanged into the receive half (the next
    /// `csize·len` bytes, segment `i` from communicator rank `i`).
    pub(crate) fn plan_alltoall(&self, b: &mut PlanBuilder, len: usize) {
        self.plan_exchange(b, len, |_, _| len);
    }

    /// Plan an alltoallv on the `seg`-strided grid layout: communicator
    /// rank `i` sends `counts[i·n + j]` bytes from send segment `j` to
    /// communicator rank `j`, receiving into receive segment `i` of the
    /// second half.
    pub(crate) fn plan_alltoallv(&self, b: &mut PlanBuilder, seg: usize, counts: &[usize]) {
        let n = self.csize();
        self.plan_exchange(b, seg, |i, j| counts[i * n + j]);
    }

    /// Plan a reduce-scatter of `len`-byte result segments: the user
    /// buffer holds `csize` contribution segments; after the call,
    /// segment `me` holds the element-wise reduction of every member's
    /// segment `me`. Each piece round reduces one piece of every peer
    /// node's block up the SMP tree, streams it into the peer's landing
    /// ring, then folds the arrived peer pieces into the own-block
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
        let w = b.tuning().pairwise_window;
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
        // landing rings — the SMP pre-reduction and landing-pair
        // distribution are unchanged, only the wire differs. The
        // scratch holds one logical block per peer; `region(d, s)` is
        // source `s`'s index among `d`'s peers, ascending.
        let direct = multi && len >= b.tuning().pairwise_direct_min;
        let block_of = |g: usize| self.cslots_on(g) * len;
        let region = |d: usize, s: usize| if s < d { s } else { s - 1 };
        let mut scratch_idx: Vec<Option<usize>> = vec![None; nodes];
        if direct && my == 0 {
            b.push(Step::ScratchAlloc {
                len: (nodes - 1) * block_of(me),
            });
            // Sends strictly before takes: no master can stall a
            // peer's rendezvous setup.
            for s in peers() {
                b.push(Step::AddrSend {
                    to: self.cmaster_of(s),
                    src: BufRef::Scratch,
                });
            }
            for d in peers() {
                scratch_idx[d] = Some(b.take_addr(self.crank_at(d, 0)));
            }
        }

        for k in 0..rounds {
            let ring_off = (k % w) * chunk;
            // Peer-node blocks: reduce this piece to the master and
            // stream it out, round-robin over destinations.
            for d in peers() {
                let Some(&(boff, blk, plen)) = pieces[d].get(k) else {
                    continue;
                };
                let is_root = self.plan_smp_reduce_chunk(b, boff, plen, rel, self.tree());
                rel += 1;
                if !is_root {
                    continue;
                }
                // The accumulator ships from the master's own
                // (otherwise idle) contribution buffer so the put has
                // an addressable source; the put snapshots it
                // synchronously.
                let staging = (BufRef::Hand(Hand::Slot(0)), Off::Lit(0));
                if direct {
                    // Land the piece straight in the peer master's
                    // scratch region — no credits, no window, one
                    // counter bump at the target.
                    plan_stage_acc(b, staging.0, staging.1, plen);
                    b.push(Step::RmaPut {
                        to: self.cmaster_of(d),
                        src: staging.0,
                        src_off: staging.1,
                        dst: BufRef::Taken {
                            idx: scratch_idx[d].expect("scratch handle taken"),
                        },
                        dst_off: Off::Lit(region(d, me) * block_of(d) + blk),
                        len: plen,
                        ctr: Some(CtrRef::PairwiseDirect {
                            src: self.crank(),
                            dst: self.crank_at(d, 0),
                        }),
                    });
                } else {
                    self.plan_ring_put(b, (d, ring_off), true, staging, plen);
                }
            }
            // Own block: reduce the node's contributions, fold in the
            // peers' arrived pieces, distribute the finished piece.
            let Some(&(boff, blk, plen)) = pieces[me].get(k) else {
                continue;
            };
            let is_root = self.plan_smp_reduce_chunk(b, boff, plen, rel, self.tree());
            rel += 1;
            let prel = prel0 + k as u64;
            // My result segment's part of the piece.
            let mine = self.block_overlap(len, (blk, plen), my);
            if !is_root {
                self.plan_pair_read(b, (prel, pair_buf(prel)), |_| {}, mine);
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
                        src_off: Off::Lit(region(me, s) * block_of(me) + blk),
                        len: plen,
                    });
                } else {
                    let from = Chan::new(ChanKind::Ring, s, me, 0);
                    self.plan_fold_landed(b, (from, ring_off), plen);
                }
            }
            if p > 1 {
                self.plan_pair_write(b, prel, (BufRef::Acc, Off::Lit(0)), plen, 1);
                if let Some(mine) = mine {
                    self.plan_pair_copy_out(b, pair_buf(prel), mine);
                }
                plan_pair_release(b, prel);
            } else {
                // Single-member node: the accumulator is the result.
                plan_acc_to_user(b, self.crank() * len + blk, plen);
            }
        }

        if multi && my == 0 && !direct {
            for d in peers() {
                if !pieces[d].is_empty() {
                    self.plan_credits_ge(b, d, self.tuning().pairwise_window);
                }
            }
        }
        if my == 0 {
            // The subtree root consumed everyone's contributions but
            // staged none of its own.
            self.plan_contrib_catchup(b, rel);
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
