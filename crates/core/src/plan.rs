//! The collective-plan IR: every SRM collective compiles into a
//! per-rank [`Plan`] — a straight-line schedule of primitive [`Step`]s
//! — which the [engine](crate::engine) replays against the shared and
//! remote memory substrates.
//!
//! Plans are **cacheable**: nothing in a step refers to the mutable
//! protocol state directly. Buffer sides, cumulative flag targets and
//! drain guards are expressed relative to the per-rank cumulative
//! sequence cells ([`SeqBase`]), which the engine samples once at the
//! start of a call. Re-running the same plan later therefore resolves
//! to fresh buffer parities and flag values automatically, and a call
//! of a given shape `(op, root, len)` plans exactly once per
//! (rank, communicator) seat (see [`PlanCache`]).
//!
//! Since the communicator refactor every structural operand that names
//! a node (`node`, `src`, `dst`, `child` fields below) is a **group
//! node index** — an index into the communicator's node list — and
//! every root is a **comm rank**. On the world communicator these
//! coincide with world node ids and world ranks, and the compiled
//! plans are identical to the pre-communicator ones.
//!
//! The reduction operator and datatype are *late-bound*: a plan for
//! `reduce(len, root)` serves every `(dtype, op)` pair, because the
//! only data-dependent step, [`Step::LocalReduce`], reads them from the
//! executing call.

use crate::tuning::SrmTuning;
use crate::world::SrmComm;
use collops::Shape;
use shmem::PairUse;
use simnet::{NodeId, Rank};
use std::sync::Arc;

/// The per-rank cumulative sequence cells a plan's relative values are
/// resolved against. The engine samples all of them once when a call
/// starts; `Seq { base, rel }` then means `sample[base] + rel`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SeqBase {
    /// Uses of my node's buffer pair, counted by the uses the node made.
    Pair,
    /// Chunks down the [`ChanKind::Bcast`] channels: the same on every
    /// member of the communicator, so both ends of an edge agree on the
    /// lane's parity.
    Bcast,
    /// Reduce chunks through the contribution buffers.
    Reduce,
    /// Chunks through the master→root `xfer` handoff buffer.
    Xfer,
    /// Barriers completed.
    Barrier,
    /// Recursive-doubling allreduces completed: their [`ChanKind::Rd`]
    /// landings alternate halves with this cell.
    Rd,
}

/// Number of [`SeqBase`] cells (size of the engine's sample array).
pub const SEQ_BASES: usize = 6;

impl SeqBase {
    /// Index of this base in the engine's sample array.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// A `u64` resolved at execution time.
#[derive(Clone, Copy, Debug)]
pub enum Val {
    /// A literal.
    Lit(u64),
    /// `bases[base] + rel` — a cumulative flag/counter target.
    Seq {
        /// Sequence cell to resolve against.
        base: SeqBase,
        /// Offset added to the sampled base.
        rel: u64,
    },
}

/// A use of my node's buffer pair, resolved at execution time to the
/// use number `bases[Pair] + rel`, whose parity is the side it takes —
/// consecutive operations alternate buffers.
#[derive(Clone, Copy, Debug)]
pub struct Side {
    /// Use index within this plan.
    pub rel: u64,
}

/// A byte offset resolved at execution time.
#[derive(Clone, Copy, Debug)]
pub enum Off {
    /// A fixed offset.
    Lit(usize),
    /// `((bases[base] + rel) % 2) * stride` — the side-selected half of
    /// a parity-double-buffered staging area.
    Parity {
        /// Sequence cell driving the alternation.
        base: SeqBase,
        /// Chunk index within this plan.
        rel: u64,
        /// Byte stride between the two halves.
        stride: usize,
    },
}

/// Which side of a [`Step::ShmCopy`] pays the simulated memory cost.
///
/// The SRM protocols charge each logical data movement exactly once:
/// a copy *into* shared memory is charged as the shared-side write
/// (the private-side read rides the same pass), a copy *out of* shared
/// memory as the shared-side read, and operator output streams (an
/// accumulator staged for a put) are free because the last operator
/// pass already produced the bytes.
#[derive(Clone, Copy, Debug)]
pub enum CopyCost {
    /// No charge (operator output stream).
    Free,
    /// Charge a read of the source with this many concurrent streams.
    Read(usize),
    /// Charge a write of the destination with this many streams.
    Write(usize),
}

/// Which of the communicator's flow-controlled master-to-master channel
/// families a [`Chan`] belongs to. The family fixes what the channel's
/// `lane` means and which substrate ordering class its steps join.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChanKind {
    /// Small-broadcast edge parent → child, landing in the edge's own
    /// buffers; lane = chunk index ([`SeqBase::Bcast`] parity).
    Bcast,
    /// Pipelined-reduce edge child → parent (scatter borrows it the
    /// other way); lane = chunk index ([`SeqBase::Reduce`] parity).
    Reduce,
    /// Recursive-doubling exchange, and the non-power-of-two fold (odd →
    /// even the fold-in, even → odd the result). Uncredited: the halves
    /// of its landing alternate with [`SeqBase::Rd`]. One lane, 0.
    Rd,
    /// Staged reduce_scatter stream into the destination's landing ring
    /// of [`SrmTuning::pairwise_window`](crate::SrmTuning) slots
    /// (credits start at the window; ring offsets are plan literals
    /// because every ring is drained when the operation completes). One
    /// lane, 0.
    Ring,
}

/// One flow-controlled channel between two group-node masters (§2.3,
/// Figure 4), named structurally: the sender spends a credit
/// ([`CtrRef::Free`], held at `src`), puts into the landing
/// ([`BufRef::Chan`], at `dst`) and bumps the data counter there
/// ([`CtrRef::Data`]); the receiver consumes the data counter and, once
/// the landing is reusable, restores the credit with a zero-byte put.
#[derive(Clone, Copy, Debug)]
pub struct Chan {
    /// The channel family.
    pub kind: ChanKind,
    /// Sending group node.
    pub src: NodeId,
    /// Receiving group node.
    pub dst: NodeId,
    /// Which of the pair's parallel channels (see [`ChanKind`]). Kept
    /// narrow: every step carries up to three channel operands.
    pub lane: u32,
}

impl Chan {
    /// The `kind` channel `src → dst`, lane `lane`.
    pub fn new(kind: ChanKind, src: NodeId, dst: NodeId, lane: u64) -> Chan {
        Chan {
            kind,
            src,
            dst,
            lane: u32::try_from(lane).expect("a plan has fewer than 2^32 chunks"),
        }
    }
}

/// One of my node's handoff channels: a parity-double-buffered staging
/// area ([`BufRef::Hand`]) its producer fills and flags
/// [`FlagRef::Ready`], and its consumer drains and flags
/// [`FlagRef::Done`] — both cumulative use counts against
/// [`Hand::base`].
#[derive(Clone, Copy, Debug)]
pub enum Hand {
    /// The contribution channel slot `.0` produces into (Figure 2).
    Slot(usize),
    /// The master↔root `xfer` channel, for roots that are not their
    /// node's master.
    Xfer,
}

impl Hand {
    /// The sequence base the channel's uses are numbered against.
    pub fn base(self) -> SeqBase {
        match self {
            Hand::Slot(_) => SeqBase::Reduce,
            Hand::Xfer => SeqBase::Xfer,
        }
    }
}

/// A buffer operand. `User` is the executing call's payload buffer;
/// everything else names a shared structure of the fabric or a handle
/// the plan captured earlier ([`Step::AddrTake`]).
#[derive(Clone, Copy, Debug)]
pub enum BufRef {
    /// The collective call's user payload buffer.
    User,
    /// The executor's private accumulator (operator scratch).
    Acc,
    /// One side of my node's buffer pair.
    Pair {
        /// Which side.
        side: Side,
    },
    /// The staging area of one of my node's handoff channels.
    Hand(Hand),
    /// The landing of a channel (remote for put targets, mine when I
    /// read what landed).
    Chan(Chan),
    /// The buffer handle taken by the `idx`-th [`Step::AddrTake`] of
    /// this plan.
    Taken {
        /// Capture index.
        idx: usize,
    },
    /// The executing call's per-call scratch buffer, allocated by
    /// [`Step::ScratchAlloc`] (direct-route reduce_scatter fold
    /// staging). Dies with the call.
    Scratch,
}

/// A LAPI-style counter operand, named structurally.
#[derive(Clone, Copy, Debug)]
pub enum CtrRef {
    /// The data counter of a channel, at its receiver.
    Data(Chan),
    /// The credit counter of a channel, at its sender.
    Free(Chan),
    /// `node`'s large-transfer chunk counter.
    LargeData {
        /// Whose counter.
        node: NodeId,
    },
    /// `node`'s cumulative dissemination-barrier counter for the bumps
    /// of group node `from` (a peer bumps it in one round only).
    BarRound {
        /// Whose counter.
        node: NodeId,
        /// The peer whose bumps it counts.
        from: NodeId,
    },
    /// The completion counter of the `(src → dst)` comm-rank stream,
    /// bumped at `dst` by each of `src`'s puts into `dst`'s user buffer
    /// (alltoall, alltoallv) or scratch buffer (direct-route
    /// reduce_scatter) — one counter per ordered comm-rank pair. The
    /// receiver's consuming waits are the drain: the counter is back at
    /// zero when the call returns.
    PairwiseDirect {
        /// The sending comm rank.
        src: usize,
        /// The receiving comm rank (counter owner).
        dst: usize,
    },
}

/// A spin-flag operand on my node's board.
#[derive(Clone, Copy, Debug)]
pub enum FlagRef {
    /// Flat-barrier flag of `slot`.
    Barrier {
        /// Which slot's flag.
        slot: usize,
    },
    /// Cumulative chunks the channel's producer has published.
    Ready(Hand),
    /// Cumulative chunks the channel's consumer has drained.
    Done(Hand),
}

/// The cell a [`Step::Wait`] watches.
#[derive(Clone, Copy, Debug)]
pub enum WaitCell {
    /// A spin flag on my node's board.
    Flag(FlagRef),
    /// A LAPI counter.
    Ctr(CtrRef),
    /// The use counters of one side of my node's buffer pair;
    /// [`Until::Use`] says which of them, and how far.
    Pair {
        /// Which side (resolves to the full use sequence number).
        side: Side,
    },
}

/// What a [`Step::Wait`] waits for its cell to show.
#[derive(Clone, Copy, Debug)]
pub enum Until {
    /// `cell == val` (the 0/1 barrier flags).
    Eq(Val),
    /// `cell >= val`.
    Ge(Val),
    /// The double-buffer drain guard: with `cum = bases[base] + rel`,
    /// nothing to wait for while `cum < 2` (both sides still fresh);
    /// otherwise `cell >= cum - 1` — the side about to be overwritten
    /// has been drained.
    SideDrained {
        /// Cumulative base.
        base: SeqBase,
        /// Chunk index within this plan.
        rel: u64,
    },
    /// The pair-protocol condition on the use a [`WaitCell::Pair`]
    /// side resolves to.
    Use(PairUse),
}

/// One primitive operation of a schedule. The engine executes steps in
/// order; blocking steps yield to the simulator exactly like the
/// direct-style protocols they were compiled from.
#[derive(Clone, Copy, Debug)]
pub enum Step {
    /// Toggle LAPI interrupts on my dispatcher.
    SetInterrupts(bool),
    /// Copy `len` bytes between buffers, charging per [`CopyCost`].
    ShmCopy {
        /// Source buffer.
        src: BufRef,
        /// Source byte offset.
        src_off: Off,
        /// Destination buffer.
        dst: BufRef,
        /// Destination byte offset.
        dst_off: Off,
        /// Bytes to move.
        len: usize,
        /// Which side is charged, and with how many streams.
        cost: CopyCost,
    },
    /// Snapshot `user[off..off+len]` into the accumulator (free: the
    /// operator's input stream).
    LoadAcc {
        /// User-buffer offset.
        off: usize,
        /// Bytes.
        len: usize,
    },
    /// Fold `src[src_off..src_off+len]` into the accumulator with the
    /// executing call's `(dtype, op)` — operator execution only.
    LocalReduce {
        /// Contribution buffer.
        src: BufRef,
        /// Its byte offset.
        src_off: Off,
        /// Bytes.
        len: usize,
    },
    /// Set `flag` to `val` (cumulative flags only ever grow).
    FlagRaise {
        /// Target flag.
        flag: FlagRef,
        /// New value.
        val: Val,
    },
    /// Block until `cell` shows `until`. The one blocking step besides
    /// [`Step::AddrTake`]: flag cells spin (spin-then-yield cost),
    /// counter cells wait inside a LAPI call and, with `consume`,
    /// subtract the awaited value (`LAPI_Waitcntr`). A consuming wait
    /// on a [`ChanKind::Ring`] credit is what the `credit_stalls`
    /// metric observes.
    Wait {
        /// Cell to watch.
        cell: WaitCell,
        /// Condition to wait for.
        until: Until,
        /// Subtract the awaited value once reached (counter cells).
        consume: bool,
        /// Wait label for traces and deadlock reports (flag and pair
        /// cells; counter waits report under the RMA layer's label).
        label: &'static str,
    },
    /// Raise the READY flag of every other slot for a pair side.
    PairPublish {
        /// Which side.
        side: Side,
    },
    /// Release of a pair side, after my last read of it.
    PairRelease {
        /// Which side.
        side: Side,
    },
    /// One-sided put to rank `to`, optionally bumping a counter there.
    RmaPut {
        /// Target rank (a master).
        to: Rank,
        /// Source buffer (mine).
        src: BufRef,
        /// Source offset.
        src_off: Off,
        /// Destination buffer (the target's).
        dst: BufRef,
        /// Destination offset.
        dst_off: Off,
        /// Bytes.
        len: usize,
        /// Counter bumped at the target on completion.
        ctr: Option<CtrRef>,
    },
    /// Zero-byte put that only bumps a counter at rank `to`.
    CounterPut {
        /// Target rank.
        to: Rank,
        /// Counter to bump.
        ctr: CtrRef,
    },
    /// Leave a buffer handle in rank `to`'s mailbox slot for me:
    /// through shared memory when `to` is on my node (a gather root
    /// handing its buffer to its master), by the communicator's address
    /// active message otherwise.
    AddrSend {
        /// Target rank.
        to: Rank,
        /// The buffer whose handle to ship ([`BufRef::User`], a
        /// [`BufRef::Taken`] one being forwarded, or the
        /// [`BufRef::Scratch`] an earlier step allocated).
        src: BufRef,
    },
    /// Block until my mailbox slot for comm rank `from` holds a buffer
    /// handle, take it and append it to the call's capture list
    /// ([`BufRef::Taken`]). Waits inside a LAPI call unless `from` is on
    /// my node (its handle arrives through shared memory, not by AM).
    AddrTake {
        /// The comm rank whose handle I take.
        from: usize,
    },
    /// Allocate this call's `len`-byte scratch buffer
    /// ([`BufRef::Scratch`]); an [`Step::AddrSend`] can then ship its
    /// handle.
    ScratchAlloc {
        /// Scratch capacity in bytes.
        len: usize,
    },
}

impl Step {
    /// Short static label for the per-step trace hook and debugging.
    pub fn label(&self) -> &'static str {
        match self {
            Step::SetInterrupts(_) => "step:interrupts",
            Step::ShmCopy { .. } => "step:shm-copy",
            Step::LoadAcc { .. } => "step:load-acc",
            Step::LocalReduce { .. } => "step:local-reduce",
            Step::FlagRaise { .. } => "step:flag-raise",
            Step::Wait {
                cell: WaitCell::Ctr(_),
                ..
            } => "step:counter-wait",
            Step::Wait { .. } => "step:flag-wait",
            Step::PairPublish { .. } => "step:pair-publish",
            Step::PairRelease { .. } => "step:pair-release",
            Step::RmaPut { .. } => "step:rma-put",
            Step::CounterPut { .. } => "step:counter-put",
            Step::AddrSend { .. } => "step:addr-send",
            Step::AddrTake { .. } => "step:addr-take",
            Step::ScratchAlloc { .. } => "step:scratch-alloc",
        }
    }
}

/// A compiled per-rank schedule: the full step sequence of one
/// collective call for one rank.
#[derive(Debug, Default)]
pub struct Plan {
    /// The steps, executed in order.
    pub steps: Vec<Step>,
    /// How many uses this plan pushes through each [`SeqBase`] cell
    /// (indexed by [`SeqBase::index`]). Call entry adds these to the
    /// live cells right after sampling them — the sequence-base
    /// relocation rule of `DESIGN.md` — so whatever call enters next,
    /// even with this one still outstanding, samples bases as if this
    /// one had already completed.
    pub advances: [u64; SEQ_BASES],
}

impl Plan {
    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True for the empty schedule (trivial calls compile to nothing).
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }
}

/// Incremental plan construction. The builder tracks, per [`SeqBase`],
/// how far the plan has already advanced each cumulative cell, so
/// planners composed back to back (allgather = gather ++ broadcast)
/// emit correctly offset relative values.
/// The builder also carries the **effective tuning** of the call shape
/// being compiled: the world's decision defaults, overlaid with the
/// matching [`TuneTable`](crate::TuneTable) entry when a table is
/// loaded. Planners read decision knobs (switch points, chunk choices)
/// from here; buffer *geometry* (cell sizes, contribution strides)
/// always comes from the world tuning, which sizes the shared buffers.
#[derive(Debug, Default)]
pub struct PlanBuilder {
    steps: Vec<Step>,
    adv: [u64; SEQ_BASES],
    addrs: usize,
    tuning: SrmTuning,
}

impl PlanBuilder {
    /// Fresh, empty builder compiling under `tuning` — the effective
    /// per-shape decision knobs.
    pub fn with_tuning(tuning: SrmTuning) -> Self {
        PlanBuilder {
            tuning,
            ..PlanBuilder::default()
        }
    }

    /// The effective decision knobs of the call shape being compiled.
    pub fn tuning(&self) -> &SrmTuning {
        &self.tuning
    }

    /// Append a step.
    pub fn push(&mut self, step: Step) {
        self.steps.push(step);
    }

    /// How far this plan has advanced `base` so far — the relative
    /// origin for the next protocol leg using that cell.
    pub fn rel(&self, base: SeqBase) -> u64 {
        self.adv[base.index()]
    }

    /// Record that the plan pushes `by` chunks through `base`: shifts
    /// subsequent [`Self::rel`]s and adds to [`Plan::advances`].
    pub fn advance(&mut self, base: SeqBase, by: u64) {
        self.adv[base.index()] += by;
    }

    /// Block until `cell` shows `until` (no consumption).
    pub fn wait(&mut self, cell: WaitCell, until: Until, label: &'static str) {
        self.push(Step::Wait {
            cell,
            until,
            consume: false,
            label,
        });
    }

    /// Block until `flag >= val`.
    pub fn wait_flag(&mut self, flag: FlagRef, val: Val, label: &'static str) {
        self.wait(WaitCell::Flag(flag), Until::Ge(val), label);
    }

    /// Consume `n` from `ctr` (LAPI `Waitcntr`).
    pub fn wait_ctr(&mut self, ctr: CtrRef, n: u64) {
        self.push(Step::Wait {
            cell: WaitCell::Ctr(ctr),
            until: Until::Ge(Val::Lit(n)),
            consume: true,
            label: "LAPI counter",
        });
    }

    /// Block until `ctr >= val` without consuming.
    pub fn wait_ctr_ge(&mut self, ctr: CtrRef, val: Val) {
        self.wait(
            WaitCell::Ctr(ctr),
            Until::Ge(val),
            "LAPI counter (cumulative)",
        );
    }

    /// Emit `body`, bracketed by [`Step::SetInterrupts`] `false` …
    /// `true` when `quiet` holds: the small-message policy of §2.3, under
    /// which this rank takes the puts aimed at it by polling inside its
    /// counter waits instead of by interrupt.
    pub(crate) fn interrupts_off(&mut self, quiet: bool, body: impl FnOnce(&mut Self)) {
        if quiet {
            self.push(Step::SetInterrupts(false));
        }
        body(self);
        if quiet {
            self.push(Step::SetInterrupts(true));
        }
    }

    /// Emit an [`Step::AddrTake`] of comm rank `from`'s handle and
    /// return its capture index (for [`BufRef::Taken`]).
    pub fn take_addr(&mut self, from: usize) -> usize {
        let idx = self.addrs;
        self.addrs += 1;
        self.steps.push(Step::AddrTake { from });
        idx
    }

    /// Finish: hand over the plan, with its per-base advance totals.
    pub fn finish(self) -> Plan {
        Plan {
            steps: self.steps,
            advances: self.adv,
        }
    }
}

/// Cache key: a call [`Shape`] scoped to the communicator it was issued
/// on. Topology, tuning and tree kind are fixed per world, the group is
/// fixed per communicator and the datatype and operator are late-bound,
/// so the shape is all a plan depends on. The comm dimension keeps keys
/// from distinct communicators distinct even though caches are already
/// per (rank, communicator) — and it is what the per-communicator plan
/// metrics are attributed by.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Communicator id (0 = world).
    pub comm: u64,
    /// The call shape.
    pub shape: Shape,
}

impl PlanKey {
    /// Canonicalize call shapes that compile to identical plans, so
    /// equivalent calls share one LRU slot instead of splitting the
    /// cache across them (`csize` is the communicator's size):
    ///
    /// * On a **single-member** communicator every collective except
    ///   alltoall/alltoallv compiles to the empty schedule (alltoall
    ///   still copies the caller's own segment into the result half of
    ///   its buffer, so it is *not* trivial), and every such shape
    ///   collapses to the canonical `Barrier`.
    /// * A rooted operation with an **empty payload** compiles to the
    ///   empty schedule regardless of root, and normalizes to root 0.
    /// * A rootless allgather/allreduce/alltoall with an empty payload
    ///   likewise compiles to the empty schedule; all three collapse to
    ///   the canonical `Allreduce { len: 0 }` slot.
    pub fn normalized(self, csize: usize) -> PlanKey {
        use Shape as S;
        let trivial = csize == 1;
        let shape = match self.shape {
            S::Alltoall { .. } | S::Alltoallv { .. } if trivial => self.shape,
            _ if trivial => S::Barrier,
            S::Bcast { len, .. } if len == 0 => S::Bcast { len, root: 0 },
            S::Reduce { len, .. } if len == 0 => S::Reduce { len, root: 0 },
            S::Gather { len, .. } if len == 0 => S::Gather { len, root: 0 },
            S::Scatter { len, .. } if len == 0 => S::Scatter { len, root: 0 },
            S::Allgather { len } | S::Allreduce { len } | S::Alltoall { len } if len == 0 => {
                S::Allreduce { len: 0 }
            }
            s => s,
        };
        PlanKey {
            comm: self.comm,
            shape,
        }
    }
}

/// Per-(rank, communicator) LRU cache of compiled plans, keyed by call
/// shape.
/// Capacity comes from [`SrmTuning::plan_cache_cap`](crate::SrmTuning::plan_cache_cap)
/// (`crate::SrmTuning`); the benchmark sweeps repeat each shape
/// hundreds of times, so a small cache removes all re-planning from
/// the measurement loops.
#[derive(Debug)]
pub struct PlanCache {
    cap: usize,
    entries: Vec<(PlanKey, Arc<Plan>)>,
}

impl PlanCache {
    /// Cache with room for `cap` plans (0 disables caching).
    pub fn new(cap: usize) -> Self {
        PlanCache {
            cap,
            entries: Vec::new(),
        }
    }

    /// Look up `key`, refreshing its recency on a hit.
    pub fn get(&mut self, key: &PlanKey) -> Option<Arc<Plan>> {
        let pos = self.entries.iter().position(|(k, _)| k == key)?;
        let entry = self.entries.remove(pos);
        let plan = entry.1.clone();
        self.entries.insert(0, entry);
        Some(plan)
    }

    /// Insert a freshly compiled plan, evicting the least recently
    /// used entry if full.
    pub fn insert(&mut self, key: PlanKey, plan: Arc<Plan>) {
        if self.cap == 0 {
            return;
        }
        if let Some(pos) = self.entries.iter().position(|(k, _)| *k == key) {
            self.entries.remove(pos);
        }
        self.entries.insert(0, (key, plan));
        self.entries.truncate(self.cap);
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl SrmComm {
    /// Wrap a call shape in this communicator's cache key.
    pub fn key(&self, shape: Shape) -> PlanKey {
        PlanKey {
            comm: self.comm_id(),
            shape,
        }
    }

    /// Compile the plan for `key` on this rank (no caching — the
    /// cached path is [`SrmComm::plan_for`]). The builder carries the
    /// **effective tuning** of the shape — the world's decision
    /// defaults, overlaid with the loaded tuning-table entry if one
    /// matches — which is a pure function of the shape, so every rank
    /// resolves the same knobs and compiles consistent plans.
    pub fn build_plan(&self, key: &PlanKey) -> Plan {
        let mut b = PlanBuilder::with_tuning(self.effective_tuning(&key.shape));
        match &key.shape {
            Shape::Bcast { len, root } => self.plan_bcast(&mut b, *len, *root),
            Shape::Reduce { len, root } => self.plan_reduce(&mut b, *len, *root),
            Shape::Allreduce { len } => self.plan_allreduce(&mut b, *len),
            Shape::Barrier => self.plan_barrier(&mut b),
            Shape::Gather { len, root } => self.plan_gather(&mut b, *len, *root),
            Shape::Scatter { len, root } => self.plan_scatter(&mut b, *len, *root),
            Shape::Allgather { len } => self.plan_allgather(&mut b, *len),
            Shape::Alltoall { len } => self.plan_alltoall(&mut b, *len),
            Shape::Alltoallv { seg, counts } => self.plan_alltoallv(&mut b, *seg, counts),
            Shape::ReduceScatter { len } => self.plan_reduce_scatter(&mut b, *len),
        }
        b.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(shape: Shape) -> PlanKey {
        PlanKey { comm: 0, shape }
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = PlanCache::new(2);
        let p = Arc::new(Plan::default());
        c.insert(key(Shape::Barrier), p.clone());
        c.insert(key(Shape::Allreduce { len: 8 }), p.clone());
        assert!(c.get(&key(Shape::Barrier)).is_some()); // refresh
        c.insert(key(Shape::Allgather { len: 8 }), p);
        assert!(c.get(&key(Shape::Barrier)).is_some());
        assert!(c.get(&key(Shape::Allreduce { len: 8 })).is_none());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = PlanCache::new(0);
        c.insert(key(Shape::Barrier), Arc::new(Plan::default()));
        assert!(c.get(&key(Shape::Barrier)).is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn comm_dimension_keeps_keys_distinct() {
        let mut c = PlanCache::new(4);
        let p = Arc::new(Plan::default());
        c.insert(key(Shape::Barrier), p);
        let other = PlanKey {
            comm: 7,
            shape: Shape::Barrier,
        };
        assert!(c.get(&other).is_none());
        assert!(c.get(&key(Shape::Barrier)).is_some());
    }

    #[test]
    fn normalized_collapses_empty_rooted_roots() {
        for root in [1usize, 3] {
            let k = key(Shape::Bcast { len: 0, root }).normalized(4);
            assert_eq!(k, key(Shape::Bcast { len: 0, root: 0 }));
            let k = key(Shape::Scatter { len: 0, root }).normalized(4);
            assert_eq!(k, key(Shape::Scatter { len: 0, root: 0 }));
        }
        // Non-empty payloads keep their root.
        let k = key(Shape::Bcast { len: 8, root: 2 }).normalized(4);
        assert_eq!(k, key(Shape::Bcast { len: 8, root: 2 }));
    }

    #[test]
    fn normalized_collapses_empty_rootless_shapes() {
        // Satellite: the three rootless empty shapes share ONE slot.
        let canon = key(Shape::Allreduce { len: 0 });
        assert_eq!(key(Shape::Allgather { len: 0 }).normalized(4), canon);
        assert_eq!(key(Shape::Allreduce { len: 0 }).normalized(4), canon);
        assert_eq!(key(Shape::Alltoall { len: 0 }).normalized(4), canon);
        // Non-empty rootless shapes are untouched.
        let k = key(Shape::Alltoall { len: 8 }).normalized(4);
        assert_eq!(k, key(Shape::Alltoall { len: 8 }));
    }

    #[test]
    fn normalized_collapses_single_member_groups() {
        let canon = key(Shape::Barrier);
        assert_eq!(key(Shape::Bcast { len: 64, root: 0 }).normalized(1), canon);
        assert_eq!(key(Shape::Allreduce { len: 64 }).normalized(1), canon);
        assert_eq!(key(Shape::Allgather { len: 64 }).normalized(1), canon);
        assert_eq!(key(Shape::ReduceScatter { len: 64 }).normalized(1), canon);
        assert_eq!(key(Shape::Barrier).normalized(1), canon);
        // alltoall still copies the own segment: not collapsed.
        let k = key(Shape::Alltoall { len: 64 }).normalized(1);
        assert_eq!(k, key(Shape::Alltoall { len: 64 }));
    }

    #[test]
    fn builder_tracks_rel_and_addrs() {
        let mut b = PlanBuilder::default();
        assert_eq!(b.rel(SeqBase::Bcast), 0);
        b.advance(SeqBase::Bcast, 3);
        assert_eq!(b.rel(SeqBase::Bcast), 3);
        assert_eq!(b.rel(SeqBase::Pair), 0);
        assert_eq!(b.take_addr(1), 0);
        assert_eq!(b.take_addr(2), 1);
        let plan = b.finish();
        assert_eq!(plan.len(), 2); // the two takes: an advance is not a step
        assert!(!plan.is_empty());
        assert_eq!(plan.advances[SeqBase::Bcast.index()], 3);
        assert_eq!(plan.advances[SeqBase::Pair.index()], 0);
    }
}
