//! The pairwise RMA exchange subsystem: alltoall, alltoallv and
//! reduce-scatter built on per-node-pair put streams.
//!
//! Total-exchange collectives have no root and no tree: every node pair
//! carries its own data stream concurrently. The machinery the paper's
//! rooted protocols use — channels along the edges of one tree — cannot
//! express that, so this module adds two pieces:
//!
//! * **A registry of ring channels** ([`PairwiseState`]): one
//!   [`ChanKind::Ring`] channel per ordered `(src, dst)` group-node
//!   pair — an inbound *landing ring* at `dst`, its data counter and
//!   `src`'s credits — created when the communicator first touches the
//!   registry, the handles exchanged like registered memory, so any
//!   master can put into any peer's ring with no per-call address
//!   traffic (contrast the large-broadcast protocol, which exchanges
//!   user-buffer addresses every call) and each of the `n·(n-1)`
//!   concurrent streams synchronizes independently. Disjoint
//!   communicators own disjoint registries, so their exchanges never
//!   share a counter.
//! * **A segment-interleaved credit scheme**: a source may have at most
//!   [`SrmTuning::pairwise_window`](crate::SrmTuning) puts outstanding
//!   toward one destination (the ring has that many
//!   [`pairwise_chunk`](crate::SrmTuning)-sized slots per source); it
//!   spends a credit per put (a consuming [`Step::Wait`] on the credit
//!   counter) and the destination
//!   returns the credit once it drains the slot. Senders round-robin
//!   across destinations piece by piece instead of finishing one peer
//!   before starting the next, so all streams stay in flight together.
//!
//! ## Two routes
//!
//! The pieces above implement the **staged** route. Above
//! [`SrmTuning::pairwise_direct_min`](crate::SrmTuning) the planner
//! resolves [`SegmentRoute::Direct`] instead (see [`crate::route`]):
//! a per-call address exchange through the communicator's mailbox,
//! then one rendezvous put per remote peer straight into its
//! user buffer (alltoall/alltoallv) or per-call scratch region
//! (reduce-scatter), completion-counted by the `direct`
//! [`rma::CounterFamily`] — skipping the rings, the credits and their
//! two extra copies entirely.
//!
//! ## Group coordinates
//!
//! Everything here is phrased over the communicator's shape: node
//! indices are *group-node* indices (`0..cnodes()`), slot indices are
//! group slots, and user-buffer segments are indexed by communicator
//! rank. When a group node's members hold consecutive communicator
//! ranks its segments form one contiguous block of the send buffer and
//! the stream chunks the whole block (the world fast path); otherwise
//! the stream degrades to per-`(src_slot, dst_slot)` cell runs, because
//! a single put needs a contiguous source. Both endpoints of a stream
//! derive the identical piece sequence from the group shape alone.
//!
//! ## Why literal ring offsets are safe
//!
//! Piece `k` of a stream lands at ring offset `(k % window) · chunk`,
//! a plan-time constant — no sequence base is consumed. Two facts make
//! this sound: the credit window keeps at most `window` *consecutive*
//! pieces of a stream outstanding (consecutive indices map to distinct
//! slots), and every master ends its plan waiting for all credits to
//! return (a non-consuming wait for `== window` per destination), so the
//! rings are fully drained between operations and the next plan can
//! restart indexing at zero.
//!
//! ## Deadlock freedom
//!
//! Every rank walks the same global round sequence; each blocking step
//! of round `k` waits only on events of rounds `< k` (credit of piece
//! `k - window`, contribution drain of the previous piece, landing-pair
//! release two pieces back) or on same-round predecessors that are
//! unconditionally reachable. Induction over the round order gives
//! progress for any `window ≥ 1`.
//!
//! Non-master slots route their outbound data to the master through the
//! per-slot contribution buffers — the same contributor/consumer flag
//! protocol the reduce tree uses, which is what keeps the node-wide
//! contribution-channel invariant (`plan_contrib_catchup`, DESIGN.md
//! §10.5) intact. Because the Reduce and Landing sequence bases index
//! cross-node buffer parities, their advances are computed as maxima
//! over the *whole group* and applied on every member, even members
//! whose own node moved less (DESIGN.md §12.3).

use crate::inter::seq;
use crate::plan::{
    BufRef, Chan, ChanKind, CopyCost, CtrRef, FlagRef, HandleSrc, Off, PairSel, PlanBuilder,
    SeqBase, Step, Val,
};
use crate::route::{RouteClass, SegmentRoute};
use crate::smp::{plan_acc_to_user, plan_stage_acc};
use crate::tuning::SrmTuning;
use crate::world::{Channel, SrmComm};
use rma::{CounterFamily, LapiCounter};
use shmem::ShmBuffer;
use simnet::{NodeId, SimHandle};

/// The registry of the pairwise exchange subsystem: the ring channel of
/// every ordered group-node pair and the direct route's completion
/// counters. Everything in it grows with nodes² or ranks² and no tree
/// collective uses any of it, so a communicator builds it — whole, like
/// registered-memory handles exchanged at initialization — when a
/// member first touches it ([`SrmComm::pairwise`]).
pub struct PairwiseState {
    nodes: usize,
    /// `rings[dst * nodes + src]`: the [`ChanKind::Ring`] channel of the
    /// stream `src → dst` — a landing ring of `window` slots of
    /// `pairwise_chunk` bytes at `dst`, its data counter (consumed one
    /// per piece by the destination master) and the source's credits
    /// (init `window`, spent per put, restored by `dst`'s zero-byte put
    /// when a ring slot drains).
    rings: Vec<Channel>,
    /// Direct-route completion counters, one per ordered **comm-rank**
    /// pair: `pair(src, dst)` lives at `dst` and is bumped by each of
    /// `src`'s direct puts into `dst`'s user or scratch buffer. The
    /// receiver's consuming waits drain it back to zero every call.
    direct: CounterFamily,
}

impl PairwiseState {
    pub(crate) fn new(handle: &SimHandle, tuning: &SrmTuning, nodes: usize, ranks: usize) -> Self {
        let window = tuning.pairwise_window;
        // Slots hold at least 8 bytes: reduce-scatter rounds its piece
        // size up to the element grid even when `pairwise_chunk` is
        // configured smaller.
        let ring = window * tuning.pairwise_chunk.max(8);
        PairwiseState {
            nodes,
            rings: (0..nodes * nodes)
                .map(|_| Channel::new(handle, ShmBuffer::new(ring), window as u64))
                .collect(),
            direct: CounterFamily::new(handle, ranks, 0),
        }
    }

    /// The ring channel of the group-node stream `src → dst`.
    pub fn ring(&self, src: NodeId, dst: NodeId) -> &Channel {
        &self.rings[dst * self.nodes + src]
    }

    /// The direct-route completion counter of the **comm-rank** stream
    /// `src → dst` (lives at `dst`).
    pub fn direct(&self, src: usize, dst: usize) -> &LapiCounter {
        self.direct.pair(src, dst)
    }
}

/// One wire piece of a node-pair stream, in issue order. Every role
/// (source slot, source master, destination master, destination slots)
/// derives the identical piece sequence from the group shape, which is
/// what lets the four plans meet without any per-call metadata
/// exchange.
struct WirePiece {
    /// Group slot on the source node whose user buffer holds the piece.
    src_slot: usize,
    /// Offset of the piece in that slot's user buffer.
    src_off: usize,
    /// Piece length in bytes (at most `pairwise_chunk`).
    len: usize,
    /// Destination-side scatter: `(dst_slot, piece_off, recv_off,
    /// len)` — the sub-range starting `piece_off` into the piece lands
    /// at `recv_off` of `dst_slot`'s user buffer.
    overlaps: Vec<(usize, usize, usize, usize)>,
}

impl SrmComm {
    /// Pieces of the alltoall stream `s → d` (group nodes): each source
    /// slot's send segments for the destination node's members,
    /// chunked. When `d`'s members hold consecutive communicator ranks
    /// the segments are one contiguous `slots·len` block and a chunk
    /// may span several destination-slot segments (the overlap list
    /// splits it); otherwise every `(src_slot, dst_slot)` cell is its
    /// own chunk run.
    fn alltoall_stream(
        &self,
        len: usize,
        chunk: usize,
        rbase: usize,
        s: NodeId,
        d: NodeId,
    ) -> Vec<WirePiece> {
        if !self.ccontig(d) {
            return self.cell_stream(len, |_, _| len, chunk, rbase, s, d);
        }
        let dp = self.cslots_on(d);
        let base = self.crank_at(d, 0) * len;
        let block = dp * len;
        let mut out = Vec::new();
        for u in 0..self.cslots_on(s) {
            let cu = self.crank_at(s, u);
            for kc in 0..SrmTuning::chunk_count(block, chunk) {
                let koff = kc * chunk;
                let clen = chunk.min(block - koff);
                let overlaps = (0..dp)
                    .filter_map(|t| {
                        let lo = koff.max(t * len);
                        let hi = (koff + clen).min((t + 1) * len);
                        (lo < hi)
                            .then(|| (t, lo - koff, rbase + cu * len + (lo - t * len), hi - lo))
                    })
                    .collect();
                out.push(WirePiece {
                    src_slot: u,
                    src_off: base + koff,
                    len: clen,
                    overlaps,
                });
            }
        }
        out
    }

    /// Pieces of the stream `s → d` (group nodes) cut cell by cell: the
    /// `(src_slot, dst_slot)` cells of the communicator-rank grid on
    /// `seg`-strided segments, `count(src rank, dst rank)` bytes each,
    /// in a fixed nested order, each chunked. Every piece targets
    /// exactly one destination slot.
    fn cell_stream(
        &self,
        seg: usize,
        count: impl Fn(usize, usize) -> usize,
        chunk: usize,
        rbase: usize,
        s: NodeId,
        d: NodeId,
    ) -> Vec<WirePiece> {
        let mut out = Vec::new();
        for u in 0..self.cslots_on(s) {
            let cu = self.crank_at(s, u);
            for t in 0..self.cslots_on(d) {
                let ct = self.crank_at(d, t);
                let cnt = count(cu, ct);
                for kc in 0..cnt.div_ceil(chunk) {
                    let koff = kc * chunk;
                    let clen = chunk.min(cnt - koff);
                    out.push(WirePiece {
                        src_slot: u,
                        src_off: ct * seg + koff,
                        len: clen,
                        overlaps: vec![(t, 0, rbase + cu * seg + koff, clen)],
                    });
                }
            }
        }
        out
    }

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

    /// Emit the inter-node part of a pairwise exchange: the credit-
    /// windowed round-robin over every `(src, dst)` group-node stream
    /// produced by `streams`, with non-master outbound data staged
    /// through the contribution buffers and inbound pieces republished
    /// on the landing pair. Caller handles the intra-node exchange.
    fn plan_pairwise_wire<F>(&self, b: &mut PlanBuilder, streams: F)
    where
        F: Fn(NodeId, NodeId) -> Vec<WirePiece>,
    {
        let nodes = self.cnodes();
        if nodes <= 1 {
            return;
        }
        // Geometry: the ring/credit capacity of the registry.
        let w_geom = self.tuning().pairwise_window;
        // Decisions: the effective per-shape put size and window. Both
        // ends of every stream compile from the same shape, so they
        // agree on the ring slot grid `(r % w) * chunk`, which always
        // fits the geometry ring (`chunk ≤ geometry chunk`,
        // `w ≤ w_geom`).
        let chunk = b.tuning().pairwise_chunk;
        let w = b.tuning().pairwise_window;
        let me = self.cnode();
        let my = self.cslot();
        let p = self.cslots_here();
        let local_multi = p > 1;
        let pair = PairSel::Landing;

        // Stream lengths and per-slot staging totals of the whole
        // group: the sequence-base advances must be uniform across
        // every communicator member (cross-node protocols resolve
        // buffer parities against their own bases), so every rank
        // advances by the group-wide maxima even when its own node
        // moved less.
        let mut inbound = vec![0u64; nodes];
        let mut staged: Vec<Vec<u64>> = (0..nodes).map(|g| vec![0u64; self.cslots_on(g)]).collect();
        for (s, stage) in staged.iter_mut().enumerate() {
            for (d, inb) in inbound.iter_mut().enumerate() {
                if s == d {
                    continue;
                }
                for piece in streams(s, d) {
                    *inb += 1;
                    if piece.src_slot != 0 {
                        stage[piece.src_slot] += 1;
                    }
                }
            }
        }
        let r_adv = staged.iter().flatten().copied().max().unwrap_or(0);
        let g_land = inbound.iter().copied().max().unwrap_or(0);

        let rel0 = b.rel(SeqBase::Reduce);
        let lrel0 = b.rel(SeqBase::Landing);

        let out: Vec<(NodeId, Vec<WirePiece>)> = (0..nodes)
            .filter(|&d| d != me)
            .map(|d| (d, streams(me, d)))
            .collect();
        let inb: Vec<(NodeId, Vec<WirePiece>)> = (0..nodes)
            .filter(|&s| s != me)
            .map(|s| (s, streams(s, me)))
            .collect();
        let rounds = out
            .iter()
            .map(|(_, v)| v.len())
            .chain(inb.iter().map(|(_, v)| v.len()))
            .max()
            .unwrap_or(0);

        // Cursor into each slot's contribution channel (master:
        // consumption order; slot: its own publication order). The
        // orders agree because both sides walk rounds ascending with
        // destinations ascending inside a round.
        let mut crel = vec![0u64; p];
        let mut li = 0u64;

        for r in 0..rounds {
            let ring_off = (r % w) * chunk;
            // Outbound: one piece toward every destination still active.
            for (d, pieces) in &out {
                let Some(piece) = pieces.get(r) else { continue };
                let to = (*d, ring_off);
                let u = piece.src_slot;
                let user = (BufRef::User, Off::Lit(piece.src_off));
                if my == 0 && u == 0 {
                    self.plan_ring_put(b, to, false, user, piece.len);
                } else if my == 0 || u == my {
                    let rel = rel0 + crel[u];
                    crel[u] += 1;
                    if my == 0 {
                        // The put snapshots the source synchronously,
                        // so the contribution side drains immediately.
                        self.plan_contrib_consume(
                            b,
                            u,
                            rel,
                            "pairwise piece staged",
                            |b, src, off| self.plan_ring_put(b, to, false, (src, off), piece.len),
                        );
                    } else {
                        self.plan_contrib_publish(b, rel, user, piece.len, CopyCost::Write(1));
                    }
                }
            }
            // Inbound: drain one piece from every source still active.
            for (s, pieces) in &inb {
                let Some(piece) = pieces.get(r) else { continue };
                let from = Chan::new(ChanKind::Ring, *s, me, 0);
                let landed = BufRef::Chan(from);
                let lrel = lrel0 + li;
                let mine = piece
                    .overlaps
                    .iter()
                    .find(|o| o.0 == my)
                    .map(|&(_, po, recv_off, olen)| (po, recv_off, olen));
                if my != 0 {
                    self.plan_pair_read(b, pair, lrel, |_| {}, mine, self.peer_streams());
                } else if local_multi {
                    b.wait_ctr(CtrRef::Data(from), 1);
                    let slot = (landed, Off::Lit(ring_off));
                    self.plan_pair_write(b, pair, lrel, slot, piece.len, 1);
                    // The ring slot is copied out: return the credit
                    // before distributing locally.
                    self.plan_credit_return(b, from);
                    if let Some(mine) = mine {
                        self.plan_pair_copy_out(b, pair, lrel, mine, self.peer_streams());
                    }
                } else {
                    b.wait_ctr(CtrRef::Data(from), 1);
                    let (po, recv_off, olen) = mine.expect("single-slot node takes every piece");
                    b.push(Step::ShmCopy {
                        src: landed,
                        src_off: Off::Lit(ring_off + po),
                        dst: BufRef::User,
                        dst_off: Off::Lit(recv_off),
                        len: olen,
                        cost: CopyCost::Read(1),
                    });
                    self.plan_credit_return(b, from);
                }
                if local_multi {
                    li += 1;
                }
            }
        }

        // All credits home (the full geometry complement): the rings
        // are drained, so the next operation may index slots from zero
        // again — whatever window it compiles with.
        if my == 0 {
            for (d, pieces) in &out {
                if !pieces.is_empty() {
                    self.plan_credits_ge(b, *d, w_geom);
                }
            }
        }

        // Re-synchronize the contribution channels with the group-wide
        // uniform advance. A slot that staged fewer pieces than the
        // group maximum (ragged counts, uneven nodes, or the master,
        // which stages nothing) raises its own flags the rest of the
        // way — but only after its consumer finished, so the flags
        // never move backwards.
        if r_adv > 0 {
            let mine = if my == 0 { 0 } else { crel[my] };
            if mine > 0 && mine < r_adv {
                b.wait_flag(
                    FlagRef::ContribDone { slot: my },
                    seq(SeqBase::Reduce, rel0 + mine),
                    "pairwise contributions consumed",
                );
            }
            if mine < r_adv {
                self.plan_contrib_catchup(b, rel0 + r_adv);
            }
            b.advance(SeqBase::Reduce, r_adv);
        }
        // Uniform even for members whose node has a single slot or
        // fewer inbound pieces than the group maximum: the parity base
        // must track the rest of the group. The pair's RELEASED
        // counters index uses absolutely, so each slot accounts the
        // uses its node skipped as released.
        if g_land > 0 {
            if li < g_land {
                b.push(Step::PairCatchUp {
                    pair,
                    base: SeqBase::Landing,
                    rel: lrel0 + g_land,
                });
            }
            b.advance(SeqBase::Landing, g_land);
        }
    }

    /// Emit the **direct route** of a pairwise exchange
    /// ([`SegmentRoute::Direct`]): a per-call address exchange followed
    /// by one rendezvous put per remote peer straight into its receive
    /// segment, with a per-pair completion counter instead of ring
    /// credits — the same shape as the zero-copy large-message
    /// broadcast, generalized to `n·(n-1)` concurrent rank streams.
    ///
    /// `xfer(s, d)` describes the comm-rank stream `s → d` as
    /// `(offset in s's user buffer, offset in d's user buffer, bytes)`,
    /// or `None` for an empty stream; both endpoints derive it from the
    /// call shape alone. `local` plans the intra-node leg; it runs
    /// between the outbound address sends and the takes/puts so remote
    /// peers can start putting while this node is busy locally.
    ///
    /// Buffer-reuse safety needs no extra drain steps: a put snapshots
    /// its source synchronously at issue (send side), and the
    /// receiver's consuming counter waits — one per inbound stream —
    /// *are* the drain (receive side). They also leave every per-pair
    /// counter back at zero, and a taken mailbox slot is provably empty
    /// again before the next call's send can land in it (DESIGN.md
    /// §16.2).
    fn plan_pairwise_direct_wire<L, F>(&self, b: &mut PlanBuilder, local: L, xfer: F)
    where
        L: FnOnce(&mut PlanBuilder),
        F: Fn(usize, usize) -> Option<(usize, usize, usize)>,
    {
        let me = self.crank();
        let mynode = self.cnode();
        let remote: Vec<usize> = (0..self.csize())
            .filter(|&c| self.cnode_of(c) != mynode)
            .collect();
        // Ship my user-buffer handle to every remote peer with data
        // for me. Non-blocking, and ahead of every blocking step of
        // this plan — no rank can stall a peer's rendezvous.
        for &s in &remote {
            if xfer(s, me).is_some() {
                b.push(Step::AddrSend {
                    to: self.cworld_of(s),
                    src: HandleSrc::User,
                });
            }
        }
        local(b);
        // One unchunked put per remote destination, ascending comm
        // rank: take the peer's address, land the whole segment in its
        // receive half, bump its completion counter.
        for &d in &remote {
            let Some((src_off, dst_off, len)) = xfer(me, d) else {
                continue;
            };
            let idx = b.take_addr(d);
            b.push(Step::RmaPut {
                to: self.cworld_of(d),
                src: BufRef::User,
                src_off: Off::Lit(src_off),
                dst: BufRef::Taken { idx },
                dst_off: Off::Lit(dst_off),
                len,
                ctr: Some(CtrRef::PairwiseDirect { src: me, dst: d }),
            });
        }
        // Drain: consume one completion per inbound stream. When these
        // return, every expected segment has landed and the counters
        // are at zero for the next call.
        for &s in &remote {
            if xfer(s, me).is_some() {
                b.wait_ctr(CtrRef::PairwiseDirect { src: s, dst: me }, 1);
            }
        }
    }

    /// Intra-node leg of the alltoall: every group slot in turn
    /// publishes its send segments for this node's members through the
    /// SMP broadcast pair; the other slots copy out their segments.
    /// Contiguous-rank nodes publish the whole block per chunk; others
    /// publish per `(publisher, reader)` cell.
    fn plan_local_alltoall(&self, b: &mut PlanBuilder, len: usize) {
        let p = self.cslots_here();
        let me = self.cnode();
        if p <= 1 {
            return;
        }
        if !self.ccontig(me) {
            return self.plan_local_cells(b, len, |_, _| len);
        }
        let cs = b.tuning().pairwise_chunk.min(SrmTuning::SMP_BUF);
        let my = self.cslot();
        let rbase = self.csize() * len;
        let srel0 = b.rel(SeqBase::Smp);
        let streams = self.peer_streams();
        let base = self.crank_at(me, 0) * len;
        let block = p * len;
        let per = SrmTuning::chunk_count(block, cs);
        for u in 0..p {
            let cu = self.crank_at(me, u);
            for kc in 0..per {
                let srel = srel0 + (u * per + kc) as u64;
                let koff = kc * cs;
                let clen = cs.min(block - koff);
                if my == u {
                    let from = (BufRef::User, Off::Lit(base + koff));
                    self.plan_pair_write(b, PairSel::Smp, srel, from, clen, streams);
                } else {
                    let lo = koff.max(my * len);
                    let hi = (koff + clen).min((my + 1) * len);
                    let mine =
                        (lo < hi).then(|| (lo - koff, rbase + cu * len + (lo - my * len), hi - lo));
                    self.plan_pair_read(b, PairSel::Smp, srel, |_| {}, mine, streams);
                }
            }
        }
        b.advance(SeqBase::Smp, (p * per) as u64);
    }

    /// Intra-node exchange cell by cell: the `(publisher, reader)`
    /// cells of `count(publisher rank, reader rank)` bytes on
    /// `seg`-strided segments go through the SMP pair one piece at a
    /// time. Every non-publishing slot handshakes every piece (the pair
    /// protocol needs all readers to release) but only the addressee
    /// copies.
    fn plan_local_cells(
        &self,
        b: &mut PlanBuilder,
        seg: usize,
        count: impl Fn(usize, usize) -> usize,
    ) {
        let p = self.cslots_here();
        if p <= 1 {
            return;
        }
        let cs = b.tuning().pairwise_chunk.min(SrmTuning::SMP_BUF);
        let me = self.cnode();
        let my = self.cslot();
        let rbase = self.csize() * seg;
        let mut srel = b.rel(SeqBase::Smp);
        for u in 0..p {
            let cu = self.crank_at(me, u);
            for tl in (0..p).filter(|&tl| tl != u) {
                let ctl = self.crank_at(me, tl);
                let cnt = count(cu, ctl);
                for kc in 0..cnt.div_ceil(cs) {
                    let koff = kc * cs;
                    let clen = cs.min(cnt - koff);
                    if my == u {
                        let from = (BufRef::User, Off::Lit(ctl * seg + koff));
                        self.plan_pair_write(b, PairSel::Smp, srel, from, clen, 1);
                    } else {
                        let mine = (my == tl).then_some((0, rbase + cu * seg + koff, clen));
                        self.plan_pair_read(b, PairSel::Smp, srel, |_| {}, mine, 1);
                    }
                    srel += 1;
                }
            }
        }
        b.advance(SeqBase::Smp, srel - b.rel(SeqBase::Smp));
    }

    /// Plan an alltoall of `len`-byte segments: the send half of the
    /// user buffer (`csize·len` bytes, segment `j` for communicator
    /// rank `j`) is exchanged into the receive half (the next
    /// `csize·len` bytes, segment `i` from communicator rank `i`).
    pub(crate) fn plan_alltoall(&self, b: &mut PlanBuilder, len: usize) {
        if len == 0 {
            return;
        }
        let n = self.csize();
        let eff = *b.tuning();
        let chunk = eff.pairwise_chunk;
        let rbase = n * len;
        let me = self.crank();
        // Own segment: already local, one private copy.
        b.push(Step::ShmCopy {
            src: BufRef::User,
            src_off: Off::Lit(me * len),
            dst: BufRef::User,
            dst_off: Off::Lit(rbase + me * len),
            len,
            cost: CopyCost::Read(1),
        });
        if self.cmulti()
            && self.segment_route(&eff, RouteClass::Pairwise, len) == SegmentRoute::Direct
        {
            self.plan_pairwise_direct_wire(
                b,
                |b| self.plan_local_alltoall(b, len),
                |s, d| Some((d * len, rbase + s * len, len)),
            );
        } else {
            self.plan_local_alltoall(b, len);
            self.plan_pairwise_wire(b, |s, d| self.alltoall_stream(len, chunk, rbase, s, d));
        }
    }

    /// Plan an alltoallv on the `seg`-strided grid layout: communicator
    /// rank `i` sends `counts[i·n + j]` bytes from send segment `j` to
    /// communicator rank `j`, receiving into receive segment `i` of the
    /// second half.
    pub(crate) fn plan_alltoallv(&self, b: &mut PlanBuilder, seg: usize, counts: &[usize]) {
        let n = self.csize();
        if seg == 0 {
            return;
        }
        let eff = *b.tuning();
        let chunk = eff.pairwise_chunk;
        let rbase = n * seg;
        let me = self.crank();
        let count = |i: usize, j: usize| counts[i * n + j];
        let own = count(me, me);
        if own > 0 {
            b.push(Step::ShmCopy {
                src: BufRef::User,
                src_off: Off::Lit(me * seg),
                dst: BufRef::User,
                dst_off: Off::Lit(rbase + me * seg),
                len: own,
                cost: CopyCost::Read(1),
            });
        }
        if self.cmulti()
            && self.segment_route(&eff, RouteClass::Pairwise, seg) == SegmentRoute::Direct
        {
            self.plan_pairwise_direct_wire(
                b,
                |b| self.plan_local_cells(b, seg, count),
                |s, d| match count(s, d) {
                    0 => None,
                    cnt => Some((d * seg, rbase + s * seg, cnt)),
                },
            );
        } else {
            self.plan_local_cells(b, seg, count);
            self.plan_pairwise_wire(b, |s, d| self.cell_stream(seg, count, chunk, rbase, s, d));
        }
    }

    /// Plan a reduce-scatter of `len`-byte result segments: the user
    /// buffer holds `csize` contribution segments; after the call,
    /// segment `me` holds the element-wise reduction of every member's
    /// segment `me`. Each piece round reduces one piece of every peer
    /// node's block up the SMP tree, streams it into the peer's landing
    /// ring, then folds the arrived peer pieces into the own-block
    /// reduction and scatters the finished piece through the landing
    /// pair. Node blocks decompose exactly like the scatter protocol's
    /// ([`SrmComm::scatter_pieces`]), so non-contiguous and uneven
    /// groups work and both ends of every stream agree on the piece
    /// sequence.
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
        let pair = PairSel::Landing;
        let rel0 = b.rel(SeqBase::Reduce);
        let lrel0 = b.rel(SeqBase::Landing);
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
        let direct = multi
            && self.segment_route(b.tuning(), RouteClass::Pairwise, len) == SegmentRoute::Direct;
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
                    src: HandleSrc::Scratch,
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
                let is_root = self.plan_smp_reduce_chunk(b, boff, plen, rel, 0);
                rel += 1;
                if !is_root {
                    continue;
                }
                // The accumulator ships from the master's own
                // (otherwise idle) contribution buffer so the put has
                // an addressable source; the put snapshots it
                // synchronously.
                let staging = (BufRef::Contrib { slot: 0 }, Off::Lit(0));
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
            let is_root = self.plan_smp_reduce_chunk(b, boff, plen, rel, 0);
            rel += 1;
            let lrel = lrel0 + k as u64;
            // My result segment's part of the piece.
            let mine = self.block_overlap(len, (blk, plen), my);
            if !is_root {
                self.plan_pair_read(b, pair, lrel, |_| {}, mine, self.peer_streams());
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
                self.plan_pair_write(b, pair, lrel, (BufRef::Acc, Off::Lit(0)), plen, 1);
                if let Some(mine) = mine {
                    self.plan_pair_copy_out(b, pair, lrel, mine, self.peer_streams());
                }
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
        // advance is uniform by construction; Landing advances by the
        // round count — the largest per-node piece count — on every
        // member for the same parity-uniformity reason as the wire.
        b.advance(SeqBase::Reduce, rel - rel0);
        if rounds > 0 {
            // My node distributed only its own `pieces[me]` rounds
            // through the landing pair (none on a single-slot node);
            // account the skipped uses as released.
            let mine = if p > 1 { pieces[me].len() } else { 0 };
            if mine < rounds {
                b.push(Step::PairCatchUp {
                    pair,
                    base: SeqBase::Landing,
                    rel: lrel0 + rounds as u64,
                });
            }
            b.advance(SeqBase::Landing, rounds as u64);
        }
    }
}
