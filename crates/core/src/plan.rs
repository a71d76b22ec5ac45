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
    /// Chunks and scatter pieces through the [`ChanKind::Bcast`]
    /// channels: the same on every member of the communicator, so both
    /// ends of an edge agree on the lane's parity.
    Bcast,
    /// Uses of the contribution channels — every handoff between two
    /// tasks of a node — and chunks and gather blocks through the reduce
    /// landings.
    Reduce,
    /// Flat-barrier phases completed, two per barrier: the check-in and
    /// the release ([`FlagRef::Barrier`]).
    Barrier,
    /// Calls completed that exchange through the [`ChanKind::Rd`]
    /// landings — small (recursive k-ing) allreduces, and allgathers
    /// whose assembled buffer fits one landing: the landings alternate
    /// halves with this cell.
    Rd,
}

/// Number of [`SeqBase`] cells (size of the engine's sample array).
pub const SEQ_BASES: usize = 5;

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

/// Which side of a [`Step::ShmCopy`] pays the simulated memory cost.
///
/// The SRM protocols charge each logical data movement exactly once:
/// a copy *into* shared memory is charged as the shared-side write
/// (the private-side read rides the same pass), a copy *out of* shared
/// memory as the shared-side read, and the operator's streams (loading
/// the accumulator, writing it to its destination) are free because the
/// operator pass over the same bytes is charged.
#[derive(Clone, Copy, Debug)]
pub enum CopyCost {
    /// No charge (an operator stream).
    Free,
    /// Charge a read of the source with this many concurrent streams.
    Read(usize),
    /// Charge a write of the destination with this many streams.
    Write(usize),
}

/// Which of the communicator's flow-controlled cross-node channel
/// families a [`Chan`] belongs to. The family fixes what the channel's
/// `lane` means and which substrate ordering class its steps join.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChanKind {
    /// Small-broadcast edge parent → child, or a scatter root → a
    /// destination master, landing in the edge's own buffers; lane =
    /// chunk index ([`SeqBase::Bcast`] parity). Kept per sending slot.
    Bcast,
    /// Pipelined-reduce edge child → parent, or a remote master's node
    /// block to a gather root; lane = chunk index ([`SeqBase::Reduce`]
    /// parity). Kept per receiving slot.
    Reduce,
    /// Recursive k-ing exchange, the fold-in (extra → core) and the
    /// hand-back (core → extra), of a small allreduce or allgather;
    /// lane = the call's [`SeqBase::Rd`] index, whose parity picks one
    /// of two uncredited channels.
    Rd,
    /// Staged reduce_scatter stream, peer master → destination master;
    /// lane = the piece's [`SeqBase::Reduce`] index. Stored like
    /// `Reduce`, but its own family: its puts and credit waits are what
    /// the `pairwise_puts` and `credit_stalls` metrics count.
    Ring,
}

/// One flow-controlled channel between two comm ranks on different
/// nodes (§2.3, Figure 4), named structurally: the sender spends a
/// credit ([`CtrRef::Free`], held at `src`), puts into the landing
/// ([`BufRef::Chan`], at `dst`) and bumps the data counter there
/// ([`CtrRef::Data`]); the receiver consumes the data counter and, once
/// the landing is reusable, restores the credit with a zero-byte put.
/// Each end is its node's wire rank for the call
/// (`SrmComm::wire_rank`), so a credit always returns to the rank that
/// spends it.
#[derive(Clone, Copy, Debug)]
pub struct Chan {
    /// The channel family.
    pub kind: ChanKind,
    /// Sending comm rank.
    pub src: usize,
    /// Receiving comm rank.
    pub dst: usize,
    /// Which of the pair's parallel channels (see [`ChanKind`]). Kept
    /// narrow: every step carries up to three channel operands.
    pub lane: u32,
}

impl Chan {
    /// The `kind` channel from comm rank `src` to comm rank `dst`, lane
    /// `lane`.
    pub fn new(kind: ChanKind, src: usize, dst: usize, lane: u64) -> Chan {
        Chan {
            kind,
            src,
            dst,
            lane: u32::try_from(lane).expect("a plan has fewer than 2^32 chunks"),
        }
    }
}

/// A buffer operand, always a whole buffer. `User`, `Acc` and `Scratch`
/// are the executing call's own; everything else names a shared
/// structure of the fabric, where a double-buffered one takes a use
/// number whose parity picks the buffer, or a handle the plan took
/// earlier ([`WaitCell::Slot`]).
#[derive(Clone, Copy, Debug)]
pub enum BufRef {
    /// The collective call's user payload buffer.
    User,
    /// The call's accumulator: [`Plan::acc`] bytes that the operator
    /// folds into ([`Step::LocalReduce`]) and copies and puts read.
    Acc,
    /// The buffer of my node's pair that use `bases[Pair] + rel` takes.
    Pair {
        /// Use index within this plan.
        rel: u64,
    },
    /// The buffer of slot `slot`'s contribution channel (Figure 2) that
    /// use `bases[Reduce] + rel` takes.
    Contrib {
        /// The producing slot.
        slot: usize,
        /// Use index within this plan.
        rel: u64,
    },
    /// The landing of a channel (remote for put targets, mine when I
    /// read what landed).
    Chan(Chan),
    /// The buffer handle taken by the `idx`-th [`WaitCell::Slot`] wait
    /// of this plan.
    Taken {
        /// Capture index.
        idx: usize,
    },
    /// The call's scratch: [`Plan::scratch`] bytes
    /// ([`PlanBuilder::scratch`]; direct-route reduce_scatter landing,
    /// or a small-allreduce member's parked value).
    Scratch,
}

/// A LAPI-style counter operand, named structurally.
#[derive(Clone, Copy, Debug)]
pub enum CtrRef {
    /// The data counter of a channel, at its receiver.
    Data(Chan),
    /// The credit counter of a channel, at its sender.
    Free(Chan),
    /// Comm rank `rank`'s counter of puts into a handle it shipped.
    ///
    /// **The address rule**, which every exchange follows: the rank
    /// that ships a handle ([`Step::AddrSend`], always to a rank on
    /// another node) is the target of every put into it, and its last
    /// address step is a wait for those puts on its own counter — this
    /// one, or the [`CtrRef::PairwiseDirect`] counters of the
    /// exchanges. Counters, takes and sends are one nonblocking
    /// ordering class, so a rank cannot ship again before every taker
    /// of its last handle has taken it, and no mailbox slot is ever
    /// overrun (DESIGN.md §16.2). A large-broadcast child, the root of
    /// a gather straight into its user buffer and the masters of an
    /// allgather above one landing own one.
    Landed {
        /// Whose counter.
        rank: usize,
    },
    /// `node`'s dissemination-barrier counter for the bumps of group
    /// node `from` (a peer bumps it once per barrier, in one round),
    /// consumed one bump per barrier.
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

/// A spin-flag operand on my node's board. Every flag counts up: a
/// raise names a [`Val::Seq`] target and a wait waits for at least one.
#[derive(Clone, Copy, Debug)]
pub enum FlagRef {
    /// Flat-barrier flag of `slot`: raised to `bases[Barrier] + 1` by
    /// the slot's check-in and to `+ 2` by the master's release.
    Barrier {
        /// Which slot's flag.
        slot: usize,
    },
    /// Cumulative uses slot `.0` has published on its contribution
    /// channel.
    Ready(usize),
    /// Cumulative uses of slot `.0`'s contribution channel its
    /// consumers have drained.
    Done(usize),
}

/// The cell a [`Step::Wait`] watches.
#[derive(Clone, Copy, Debug)]
pub enum WaitCell {
    /// A spin flag on my node's board.
    Flag(FlagRef),
    /// A LAPI counter.
    Ctr(CtrRef),
    /// The use counters of the buffer that use `bases[Pair] + rel` of
    /// my node's pair takes; [`Until::Use`] says which of them, and how
    /// far.
    Pair {
        /// Use index within this plan.
        rel: u64,
    },
    /// My address-mailbox slot for comm rank `from` (on another node).
    /// A consuming wait for one takes the handle left there and appends
    /// it to the call's captures ([`BufRef::Taken`]); it waits inside a
    /// LAPI call, since only the address active message fills a slot.
    Slot {
        /// The comm rank whose handle I take.
        from: usize,
    },
}

/// What a [`Step::Wait`] waits for its cell to show.
#[derive(Clone, Copy, Debug)]
pub enum Until {
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
    /// resolves to.
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
        src_off: usize,
        /// Destination buffer.
        dst: BufRef,
        /// Destination byte offset.
        dst_off: usize,
        /// Bytes to move.
        len: usize,
        /// Which side is charged, and with how many streams.
        cost: CopyCost,
    },
    /// Fold `src[src_off..src_off+len]` into `acc[..len]` with the
    /// executing call's `(dtype, op)` — operator execution only.
    LocalReduce {
        /// Contribution buffer.
        src: BufRef,
        /// Its byte offset.
        src_off: usize,
        /// Bytes.
        len: usize,
    },
    /// Raise `flag` to at least `val` (flags only ever grow).
    FlagRaise {
        /// Target flag.
        flag: FlagRef,
        /// New value.
        val: Val,
    },
    /// Block until `cell` shows `until`: the one blocking step. Flag
    /// cells spin (spin-then-yield cost), counter cells wait inside a
    /// LAPI call and, with `consume`, subtract the awaited value
    /// (`LAPI_Waitcntr`); a mailbox slot hands over its handle. A
    /// consuming wait on a [`ChanKind::Ring`] credit is what the
    /// `credit_stalls` metric observes.
    Wait {
        /// Cell to watch.
        cell: WaitCell,
        /// Condition to wait for.
        until: Until,
        /// Subtract the awaited value once reached (counter cells), or
        /// take the handle (a mailbox slot).
        consume: bool,
        /// Wait label for traces and deadlock reports (flag, pair and
        /// slot cells; counter waits report under the RMA layer's
        /// label).
        label: &'static str,
    },
    /// Raise the READY flag of every other slot for use `bases[Pair] +
    /// rel` of my node's pair.
    PairPublish {
        /// Use index within this plan.
        rel: u64,
    },
    /// Release of pair use `bases[Pair] + rel`, after my last read of it.
    PairRelease {
        /// Use index within this plan.
        rel: u64,
    },
    /// One-sided put to rank `to`, optionally bumping a counter there.
    RmaPut {
        /// Target rank (a master).
        to: Rank,
        /// Source buffer (mine).
        src: BufRef,
        /// Source offset.
        src_off: usize,
        /// Destination buffer (the target's).
        dst: BufRef,
        /// Destination offset.
        dst_off: usize,
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
    /// Leave a handle of one of my buffers in rank `to`'s mailbox slot
    /// for me, by the communicator's address active message. `to` is on
    /// another node, takes it with a [`WaitCell::Slot`] wait, and every
    /// put into the buffer comes from it (the address rule at
    /// [`CtrRef::Landed`]).
    AddrSend {
        /// Target rank.
        to: Rank,
        /// The buffer whose handle to ship ([`BufRef::User`] or
        /// [`BufRef::Scratch`]).
        src: BufRef,
    },
}

impl Step {
    /// Short static label for the per-step trace hook and debugging.
    pub fn label(&self) -> &'static str {
        match self {
            Step::SetInterrupts(_) => "step:interrupts",
            Step::ShmCopy { .. } => "step:shm-copy",
            Step::LocalReduce { .. } => "step:local-reduce",
            Step::FlagRaise { .. } => "step:flag-raise",
            Step::Wait { cell, .. } => match cell {
                WaitCell::Ctr(_) => "step:counter-wait",
                WaitCell::Slot { .. } => "step:addr-take",
                WaitCell::Flag(_) | WaitCell::Pair { .. } => "step:flag-wait",
            },
            Step::PairPublish { .. } => "step:pair-publish",
            Step::PairRelease { .. } => "step:pair-release",
            Step::RmaPut { .. } => "step:rma-put",
            Step::CounterPut { .. } => "step:counter-put",
            Step::AddrSend { .. } => "step:addr-send",
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
    /// Bytes of the call's accumulator ([`BufRef::Acc`]): the most a
    /// step loads into it, and so the most any step reads from it. Call
    /// entry creates it.
    pub acc: usize,
    /// Bytes of the call's scratch ([`BufRef::Scratch`]). Call entry
    /// creates it.
    pub scratch: usize,
    /// `rem_classes[pc]`: the nonblocking ordering classes of
    /// `steps[pc..]` (see [`crate::nb`]).
    rem_classes: Vec<u8>,
}

impl Plan {
    /// The ordering classes a call parked at step `pc` still has steps
    /// in (none once it has run them all).
    pub(crate) fn classes_from(&self, pc: usize) -> u8 {
        self.rem_classes.get(pc).copied().unwrap_or(0)
    }

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
/// planners composed back to back (the large allreduce's reduce then
/// broadcast, where the model prices that lower) emit correctly offset
/// relative values.
/// The builder also carries the **effective tuning** of the call shape
/// being compiled: the world's tuning, overlaid with the matching
/// [`TuneTable`](crate::TuneTable) entry when a table is loaded.
/// Planners read decision knobs (switch points, chunk choices) from
/// here; buffer *geometry* (cell sizes, contribution strides) always
/// comes from the world tuning, which sizes the shared buffers.
#[derive(Debug, Default)]
pub struct PlanBuilder {
    steps: Vec<Step>,
    adv: [u64; SEQ_BASES],
    addrs: usize,
    acc: usize,
    scratch: usize,
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

    /// Append a step, growing [`Plan::acc`] to what it loads into the
    /// accumulator.
    pub fn push(&mut self, step: Step) {
        if let Step::ShmCopy {
            dst: BufRef::Acc,
            len,
            ..
        } = step
        {
            self.acc = self.acc.max(len);
        }
        self.steps.push(step);
    }

    /// The call's scratch, sized to at least `len` bytes.
    pub fn scratch(&mut self, len: usize) -> BufRef {
        self.scratch = self.scratch.max(len);
        BufRef::Scratch
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

    /// Copy `len` bytes from `src` to `dst`, each a buffer and a byte
    /// offset, charging per `cost`.
    pub fn copy(&mut self, src: (BufRef, usize), dst: (BufRef, usize), len: usize, cost: CopyCost) {
        let ((src, src_off), (dst, dst_off)) = (src, dst);
        self.push(Step::ShmCopy {
            src,
            src_off,
            dst,
            dst_off,
            len,
            cost,
        });
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

    /// Take comm rank `from`'s handle (a consuming [`WaitCell::Slot`]
    /// wait) and return its capture index (for [`BufRef::Taken`]).
    pub fn take_addr(&mut self, from: usize) -> usize {
        let idx = self.addrs;
        self.addrs += 1;
        self.push(Step::Wait {
            cell: WaitCell::Slot { from },
            until: Until::Ge(Val::Lit(1)),
            consume: true,
            label: "peer buffer address",
        });
        idx
    }

    /// Finish: hand over the plan, with its per-base advance totals.
    pub fn finish(self) -> Plan {
        let mut rem = 0;
        let mut rem_classes: Vec<u8> = (self.steps.iter().rev())
            .map(|step| {
                rem |= crate::nb::step_classes(step);
                rem
            })
            .collect();
        rem_classes.reverse();
        Plan {
            rem_classes,
            steps: self.steps,
            advances: self.adv,
            acc: self.acc,
            scratch: self.scratch,
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
    ///
    /// Every planner it dispatches to is `#[inline(never)]`: inlined,
    /// their locals would grow this frame, which every call's compile
    /// runs on its rank's stack (one more 4 KB page per rank, 2 MiB of
    /// peak RSS on 16×16).
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
