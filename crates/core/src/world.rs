//! Cluster-wide SRM state: per-node shared-memory boards and per-node
//! network landing structures, assembled once at setup (the moral
//! equivalent of SRM's initialization-time shared-segment creation and
//! address exchange) — plus first-class **communicators**: every
//! subgroup created by [`SrmWorld::comm_create`] or
//! [`SrmWorld::comm_split`] gets its own group-relative boards, links
//! and address mailbox, so collectives on disjoint groups never share a
//! flag, counter or buffer.
//!
//! Setup builds what is linear in the group. What grows with a product
//! of two group dimensions — a node's channels and counters from each
//! peer node (its `Link`), the address mailbox's slots and its
//! rank-pair counters — is created when first used, so building a world
//! costs O(ranks) whatever it goes on to run.

use crate::embed::{self, GroupTree, TreeKind};
use crate::model::SrmModel;
use crate::plan::{Chan, ChanKind, PlanCache, SEQ_BASES};
use crate::tune::TuneTable;
use crate::tuning::SrmTuning;
use collops::Shape;
use rma::{CounterFamily, LapiCounter, Rma, RmaWorld};
use shmem::{BufPair, FlagBank, ShmBuffer, SpinFlag};
use simnet::{Ctx, NodeId, Rank, Sim, SimHandle, SimVar, Topology};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Shared-memory structures of one SMP node, used by every task on it.
/// Allocated **per communicator**: a subgroup's board is sized by the
/// number of group members on the node, and disjoint groups sharing a
/// physical node still get disjoint flags and buffers.
pub struct NodeBoard {
    /// The node's double buffer (Figure 3), one slot per member: the
    /// intra-node broadcast cells and every node-local distribution of
    /// a broadcast, scatter or reduce_scatter chunk. Only tasks of the
    /// node write it; its uses are numbered by the uses the node made
    /// ([`SeqBase::Pair`](crate::plan::SeqBase::Pair)). A chunk a parent
    /// node put into its edge's landing (a
    /// [`ChanKind::Bcast`] channel) takes a
    /// use of the pair's counters while its bytes stay in the landing,
    /// "directly available to all the tasks".
    pub pair: BufPair,
    /// Flat-barrier flags, one cache line per slot, counting the
    /// barrier's phases ([`FlagRef::Barrier`](crate::plan::FlagRef::Barrier)).
    pub barrier_flags: FlagBank,
    /// Per-slot contribution channels (Figure 2): two
    /// [`SrmTuning::REDUCE_CHUNK`] buffers each, taken by use parity
    /// ([`BufRef::Contrib`](crate::plan::BufRef::Contrib)). Every
    /// handoff between two tasks of the node goes through one of them —
    /// a reduce tree's partial results, gather segments, the exchange's
    /// cells.
    ///
    /// A channel has **one producer, its slot**: only slot `s` writes
    /// `contrib[s]`, each buffer in its publish alone, and raises
    /// `contrib_ready[s]`, in program order, so READY never needs a
    /// guard. Its consumers change between calls
    /// (the parent in a reduce tree, a gather root, the next slot of an
    /// exchange round), so each consumer takes its first use of a plan
    /// in order: it waits until DONE reaches that use before raising it
    /// further, and no raise skips a use another consumer has not read.
    pub contrib: Vec<[ShmBuffer; 2]>,
    /// Cumulative uses each slot has published on its channel.
    pub contrib_ready: Vec<SpinFlag>,
    /// Cumulative uses of each slot's channel its consumers drained.
    pub contrib_done: Vec<SpinFlag>,
}

impl NodeBoard {
    fn new(handle: &SimHandle, tasks_per_node: usize, tuning: &SrmTuning) -> Self {
        NodeBoard {
            pair: BufPair::new(
                handle,
                SrmTuning::SMP_BUF.max(tuning.small_large_switch),
                tasks_per_node,
            ),
            barrier_flags: FlagBank::new(handle, tasks_per_node, 0),
            contrib: (0..tasks_per_node)
                .map(|_| [0, 1].map(|_| ShmBuffer::new(SrmTuning::REDUCE_CHUNK)))
                .collect(),
            contrib_ready: (0..tasks_per_node)
                .map(|_| SpinFlag::new(handle, 0))
                .collect(),
            contrib_done: (0..tasks_per_node)
                .map(|_| SpinFlag::new(handle, 0))
                .collect(),
        }
    }
}

/// One flow-controlled cross-node channel (§2.3, Figure 4), the stored
/// form of a [`Chan`] operand: the landing
/// the sender's puts target, the data counter each put bumps, and the
/// sender's credits, restored by the receiver's zero-byte puts.
pub struct Channel {
    /// Where the puts land.
    pub landing: ShmBuffer,
    /// Bumped at the receiver by each put.
    pub data: LapiCounter,
    /// The sender's credits.
    pub free: LapiCounter,
}

impl Channel {
    pub(crate) fn new(handle: &SimHandle, landing: ShmBuffer, credits: u64) -> Self {
        Channel {
            landing,
            data: LapiCounter::new(handle, 0),
            free: LapiCounter::new(handle, credits),
        }
    }
}

/// Everything one group node keeps for the traffic from one peer group
/// node. A communicator has nodes² links and a call touches few of
/// them, so each link, and each channel or counter in it, is made on
/// first use ([`SrmComm::chan`], [`SrmComm::bar_round`]). Every channel
/// has one sender and one receiver, and the sender owns its credits.
pub(crate) struct Link {
    /// [`ChanKind::Bcast`] channels from the peer node, per sending slot
    /// there (its master, or a root). That sender's puts are the only
    /// writes into the landing, and my node's tasks read the chunks
    /// there.
    bcast: Vec<OnceLock<[Channel; 2]>>,
    /// [`ChanKind::Reduce`] channels from the peer node's master, per
    /// receiving slot here (my master, or a root).
    reduce: Vec<OnceLock<[Channel; 2]>>,
    /// The [`ChanKind::Rd`] pair between the two masters.
    rd: OnceLock<[Channel; 2]>,
    /// Dissemination-barrier bumps from the peer node's master.
    bar: OnceLock<LapiCounter>,
    /// The [`ChanKind::Ring`] pair from the peer node's master.
    ring: OnceLock<[Channel; 2]>,
}

/// One mailbox slot: empty, or the handle left in it.
pub(crate) type HandleSlot = SimVar<Option<ShmBuffer>>;

/// The communicator's one address mechanism: slot `(owner, sender)`
/// holds the buffer handle comm rank `sender` handed comm rank `owner`,
/// on another node, by the communicator's address active message, until
/// the owner's [`WaitCell::Slot`](crate::plan::WaitCell::Slot) wait
/// takes it. A slot is created by whichever of the deposit and the take
/// touches it first. Beside the slots sit the counters of the puts into
/// shipped handles: each comm rank's
/// [`CtrRef::Landed`](crate::plan::CtrRef::Landed), and the exchanges'
/// per-rank-pair [`CtrRef::PairwiseDirect`](crate::plan::CtrRef::PairwiseDirect).
pub(crate) struct Mailbox {
    handle: SimHandle,
    slots: Mutex<BTreeMap<(usize, usize), HandleSlot>>,
    /// Per comm rank: puts landed in a handle it shipped.
    pub(crate) landed: Vec<LapiCounter>,
    /// Per ordered comm-rank pair: the puts of the stream into a handle
    /// the receiver shipped, drained to zero by the receiver every call.
    /// Created for the whole group when a member first resolves one.
    direct: OnceLock<CounterFamily>,
}

impl Mailbox {
    fn new(handle: &SimHandle, ranks: usize) -> Self {
        Mailbox {
            handle: handle.clone(),
            slots: Mutex::default(),
            landed: (0..ranks).map(|_| LapiCounter::new(handle, 0)).collect(),
            direct: OnceLock::new(),
        }
    }

    /// The counter of the comm-rank stream `src → dst` (at `dst`).
    pub(crate) fn direct(&self, src: usize, dst: usize) -> &LapiCounter {
        let family = || CounterFamily::new(&self.handle, self.landed.len(), 0);
        self.direct.get_or_init(family).pair(src, dst)
    }

    /// Comm rank `owner`'s slot for handles from comm rank `sender`.
    pub(crate) fn slot(&self, owner: usize, sender: usize) -> HandleSlot {
        let mut slots = self.slots.lock().expect("mailbox poisoned");
        let slot = slots.entry((owner, sender));
        slot.or_insert_with(|| self.handle.var(None)).clone()
    }

    /// Leave `handle` in slot `(owner, sender)`.
    ///
    /// # Panics
    /// Naming both ranks, if the slot still holds an untaken handle. A
    /// sender cannot ship again before the owner has taken (the address
    /// rule at [`CtrRef::Landed`](crate::plan::CtrRef::Landed)), so the
    /// slot is empty again by its next deposit (DESIGN.md §16.2).
    pub(crate) fn deposit(&self, ctx: &Ctx, owner: usize, sender: usize, handle: ShmBuffer) {
        let slot = self.slot(owner, sender);
        assert!(
            slot.with(|s| s.is_none()),
            "address mailbox overrun: owner comm rank {owner} has not taken \
             the handle sender comm rank {sender} left before"
        );
        slot.store(ctx, Some(handle));
    }
}

/// A communicator's membership and its mapping onto the machine: the
/// stable comm id, the member world ranks in caller order (= comm rank
/// order), the distinct SMP nodes the group touches, and per-node
/// member lists. With a tree kind the node list fixes the SMP-aware
/// embedding of a rooted operation ([`CommGroup::tree`]).
#[derive(Clone, Debug)]
pub struct CommGroup {
    id: u64,
    /// Comm rank → world rank (caller order).
    ranks: Vec<Rank>,
    /// Group node index → world node id, ascending.
    nodes: Vec<NodeId>,
    /// Members per group node (ascending world rank), parallel to
    /// `nodes`. Group slot = index here; group master = slot 0.
    members: Vec<Vec<Rank>>,
    /// World rank → comm rank (None for non-members).
    crank_of: Vec<Option<usize>>,
    /// Comm rank → (group node, group slot).
    coord_of: Vec<(usize, usize)>,
    /// Per group node: do its members occupy **consecutive comm ranks
    /// in slot order**? (Always true for the world communicator; lets
    /// planners stream whole node blocks with single puts.)
    contig: Vec<bool>,
}

impl CommGroup {
    /// The group of `ranks` (comm rank order) on `topo`, with id `id`.
    /// Worlds build theirs in
    /// [`SrmWorld::comm_create`]; building one directly needs no
    /// simulator, for studying embeddings.
    ///
    /// # Panics
    /// If `ranks` is empty, names a rank outside `topo`, or names one
    /// twice.
    pub fn new(topo: Topology, id: u64, ranks: Vec<Rank>) -> Self {
        assert!(!ranks.is_empty(), "empty communicator group");
        assert!(
            ranks.iter().all(|&r| r < topo.nprocs()),
            "group member out of range"
        );
        let mut crank_of: Vec<Option<usize>> = vec![None; topo.nprocs()];
        for (c, &r) in ranks.iter().enumerate() {
            assert!(crank_of[r].is_none(), "rank {r} listed twice in group");
            crank_of[r] = Some(c);
        }
        let mut nodes: Vec<NodeId> = ranks.iter().map(|&r| topo.node_of(r)).collect();
        nodes.sort_unstable();
        nodes.dedup();
        let members: Vec<Vec<Rank>> = nodes
            .iter()
            .map(|&n| {
                let mut m: Vec<Rank> = ranks
                    .iter()
                    .copied()
                    .filter(|&r| topo.node_of(r) == n)
                    .collect();
                m.sort_unstable();
                m
            })
            .collect();
        let mut coord_of = vec![(0usize, 0usize); ranks.len()];
        for (g, m) in members.iter().enumerate() {
            for (s, &r) in m.iter().enumerate() {
                coord_of[crank_of[r].expect("member")] = (g, s);
            }
        }
        let contig = members
            .iter()
            .map(|m| {
                let base = crank_of[m[0]].expect("member");
                m.iter()
                    .enumerate()
                    .all(|(s, &r)| crank_of[r] == Some(base + s))
            })
            .collect();
        CommGroup {
            id,
            ranks,
            nodes,
            members,
            crank_of,
            coord_of,
            contig,
        }
    }

    /// Stable communicator id (0 = world).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Group size (number of member ranks).
    pub fn len(&self) -> usize {
        self.ranks.len()
    }

    /// Is the group empty? (Never true for a constructed group.)
    pub fn is_empty(&self) -> bool {
        self.ranks.is_empty()
    }

    /// Member world ranks in comm rank order.
    pub fn ranks(&self) -> &[Rank] {
        &self.ranks
    }

    /// Number of distinct SMP nodes the group touches.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Member world ranks on group node `g`, in group slot order.
    pub fn members_on(&self, g: usize) -> &[Rank] {
        &self.members[g]
    }

    /// Number of members on group node `g`.
    pub fn slots_on(&self, g: usize) -> usize {
        self.members[g].len()
    }

    /// Comm rank of world rank `r`, if a member.
    pub fn comm_rank_of(&self, r: Rank) -> Option<usize> {
        self.crank_of.get(r).copied().flatten()
    }

    /// (group node, group slot) of comm rank `c`.
    pub fn coord_of(&self, c: usize) -> (usize, usize) {
        self.coord_of[c]
    }

    /// Comm rank of group slot `s` on group node `g`.
    pub fn crank_at(&self, g: usize, s: usize) -> usize {
        self.crank_of[self.members[g][s]].expect("member")
    }

    /// World rank of group node `g`'s master (group slot 0): the one
    /// member of the node that talks to the network for this group.
    pub fn master_of(&self, g: usize) -> Rank {
        self.members[g][0]
    }

    /// Do group node `g`'s members hold consecutive comm ranks in slot
    /// order?
    pub fn contig(&self, g: usize) -> bool {
        self.contig[g]
    }

    /// Group node `my_node`'s place in the `kind` inter-node tree of an
    /// operation rooted on group node `root_node` — what the planners
    /// compile the master-to-master legs from.
    pub fn tree(&self, kind: TreeKind, root_node: usize, my_node: usize) -> GroupTree {
        GroupTree::new(kind, self.nodes.len(), root_node, my_node)
    }

    /// The network edges of an operation on the `kind` tree rooted at
    /// comm rank `root`, as `(parent, child)` pairs of the world ranks
    /// that talk over them — the two nodes' masters
    /// ([`CommGroup::master_of`]) — in relative vertex order.
    ///
    /// # Panics
    /// If `root` is not a comm rank of the group.
    pub fn inter_edges(&self, kind: TreeKind, root: usize) -> Vec<(Rank, Rank)> {
        assert!(root < self.len(), "root out of communicator range");
        let (n, root_node) = (self.nodes.len(), self.coord_of[root].0);
        let edge = |child: usize| {
            let parent = self
                .tree(kind, root_node, child)
                .parent()
                .expect("non-root");
            (self.master_of(parent), self.master_of(child))
        };
        (1..n).map(|v| edge((v + root_node) % n)).collect()
    }

    /// Dependent hops of the embedded `kind` tree: the deepest
    /// intra-node subtree plus the inter-node tree.
    pub fn embedded_height(&self, kind: TreeKind) -> usize {
        let intra = (self.members.iter()).map(|m| embed::height(kind, m.len()));
        intra.max().expect("nonempty group") + embed::height(kind, self.nodes.len())
    }
}

/// Everything one communicator owns: its group, its per-node boards
/// (indexed by **group node**), its links, its address mailbox and the
/// AM id that feeds it.
pub(crate) struct CommState {
    pub group: CommGroup,
    pub boards: Vec<Arc<NodeBoard>>,
    /// `links[dst * nodes + src]`: group node `dst`'s link from group
    /// node `src`, empty until first resolved.
    links: Vec<OnceLock<Box<Link>>>,
    pub mailbox: Arc<Mailbox>,
    pub am_addr: u32,
    /// Per-member protocol sequence cells and plan cache (comm rank →
    /// seat), shared by every handle clone of that member.
    pub seats: Vec<Arc<CommSeat>>,
}

impl CommState {
    /// Allocate what is linear in `group`: one board per group node
    /// sized by that node's member count, the seats, and the address
    /// handler on every member. What grows with a *product* of group
    /// dimensions — the links, the mailbox slots and rank-pair counters
    /// — waits for its first use.
    fn new(
        handle: &SimHandle,
        rma: &RmaWorld,
        tuning: &SrmTuning,
        group: CommGroup,
    ) -> Arc<CommState> {
        let gnodes = group.node_count();
        let boards = (0..gnodes)
            .map(|g| Arc::new(NodeBoard::new(handle, group.slots_on(g), tuning)))
            .collect();
        let links = (0..gnodes * gnodes).map(|_| OnceLock::new()).collect();
        // Every member accepts handles into its mailbox row, keyed by
        // the sender's comm rank.
        let am_addr = group.id() as u32;
        let mailbox = Arc::new(Mailbox::new(handle, group.len()));
        let crank_of = Arc::new(group.crank_of.clone());
        for (owner, &rank) in group.ranks().iter().enumerate() {
            let (mailbox, crank_of) = (mailbox.clone(), crank_of.clone());
            rma.endpoint(rank)
                .register_handler(am_addr, move |hctx, msg| {
                    let sender = crank_of[msg.from].expect("sender is a group member");
                    let handle = msg.buf.expect("address exchange carries a handle");
                    mailbox.deposit(hctx, owner, sender, handle);
                });
        }
        let seats = (0..group.len())
            .map(|_| Arc::new(CommSeat::new(tuning.plan_cache_cap)))
            .collect();
        handle
            .metrics()
            .comm_creates
            .fetch_add(1, Ordering::Relaxed);
        Arc::new(CommState {
            group,
            boards,
            links,
            mailbox,
            am_addr,
            seats,
        })
    }
}

/// One member's per-communicator protocol state: the five cumulative
/// sequence cells the plan engine resolves relative values against, and
/// the compiled-schedule cache. Shared (via `Arc`) between every
/// [`SrmComm`] handle of that (rank, communicator) pair — including the
/// clones the nonblocking executor parks inside pending schedules — so
/// all of them observe the same protocol position.
pub(crate) struct CommSeat {
    /// The cumulative sequence cells, indexed by
    /// [`SeqBase::index`](crate::plan::SeqBase::index): uses of the
    /// node's buffer pair ("consecutive operations alternate buffers",
    /// §2.2), chunks down the broadcast channels, uses of the
    /// contribution channels, barriers and small allreduces
    /// completed.
    pub seq: [AtomicU64; SEQ_BASES],
    /// Compiled-schedule cache, keyed by call shape (see
    /// [`crate::plan::PlanCache`]).
    pub plan_cache: Mutex<PlanCache>,
}

impl CommSeat {
    fn new(cache_cap: usize) -> Self {
        CommSeat {
            seq: Default::default(),
            plan_cache: Mutex::new(PlanCache::new(cache_cap)),
        }
    }
}

/// One rank's nonblocking-executor state (see [`crate::nb`]), shared
/// by **all** of the rank's communicator handles: a single pending
/// queue per rank means a blocking call on one communicator still
/// drives outstanding schedules issued on another (otherwise a rank
/// spinning inside comm A could starve a parked comm-B schedule its
/// peers are waiting on), and lets `shutdown` assert that every
/// subcommunicator is drained.
pub(crate) type RankShared = Mutex<crate::nb::Queue>;

pub(crate) struct WorldInner {
    pub topo: Topology,
    /// The **geometry** tuning every shared buffer was sized with. On
    /// a default world this equals `base`; with a tuning table loaded
    /// it is the table's geometry envelope (capacity knobs raised to
    /// the table maxima).
    pub tuning: SrmTuning,
    /// Decision defaults: the tuning a call shape compiles under when
    /// no table entry matches it.
    pub base: SrmTuning,
    /// The loaded per-shape tuning table, if any.
    pub table: Option<Arc<TuneTable>>,
    pub rma: RmaWorld,
    pub handle: SimHandle,
    pub world_comm: Arc<CommState>,
    pub per_rank: Vec<Arc<RankShared>>,
}

/// The cluster-wide SRM collectives fabric. Build once at setup (it
/// spawns the RMA dispatchers), then hand a [`SrmComm`] to each rank —
/// and optionally carve subgroup communicators with
/// [`SrmWorld::comm_create`] / [`SrmWorld::comm_split`].
pub struct SrmWorld {
    inner: Arc<WorldInner>,
    next_comm: AtomicU64,
}

impl SrmWorld {
    /// Assemble the fabric for `topo` with the given tuning.
    ///
    /// # Panics
    /// If the tuning is internally inconsistent
    /// ([`SrmTuning::validate`]): the small-protocol chunks must fit the
    /// edge landings, and the pairwise pieces the contribution buffers.
    pub fn new(sim: &mut Sim, topo: Topology, tuning: SrmTuning) -> Self {
        SrmWorld::build(sim, topo, tuning, tuning, None)
    }

    /// Assemble the fabric with a searched per-shape [`TuneTable`]
    /// loaded: collectives whose `(op, size class, topology, comm
    /// size)` matches a table entry compile under that entry's
    /// decision knobs; everything else uses `base`. Shared buffers are
    /// sized with the table's **geometry envelope** (`base` with
    /// capacity knobs raised to the table maxima), so every entry's
    /// schedule fits. Loading a table never changes collective
    /// *results* — only the compiled schedules.
    ///
    /// # Panics
    /// If `base` is inconsistent (see [`SrmWorld::new`]) or any table
    /// entry is inconsistent with `base` (check first with
    /// [`TuneTable::validate`] for a typed error).
    pub fn with_tuning_table(
        sim: &mut Sim,
        topo: Topology,
        base: SrmTuning,
        table: Arc<TuneTable>,
    ) -> Self {
        table
            .validate(&base)
            .expect("tuning-table entry inconsistent with base tuning");
        let geometry = table.geometry_envelope(&base);
        SrmWorld::build(sim, topo, geometry, base, Some(table))
    }

    fn build(
        sim: &mut Sim,
        topo: Topology,
        geometry: SrmTuning,
        base: SrmTuning,
        table: Option<Arc<TuneTable>>,
    ) -> Self {
        geometry.validate().expect("inconsistent SrmTuning");
        base.validate().expect("inconsistent SrmTuning");
        let handle = sim.handle();
        let rma = RmaWorld::new(sim, topo.nprocs());
        let world_group = CommGroup::new(topo, 0, (0..topo.nprocs()).collect());
        let world_comm = CommState::new(&handle, &rma, &geometry, world_group);
        let per_rank = (0..topo.nprocs()).map(|_| Arc::default()).collect();
        SrmWorld {
            inner: Arc::new(WorldInner {
                topo,
                tuning: geometry,
                base,
                table,
                rma,
                handle,
                world_comm,
                per_rank,
            }),
            next_comm: AtomicU64::new(1),
        }
    }

    fn handle_for(&self, comm: &Arc<CommState>, crank: usize) -> SrmComm {
        let me = comm.group.ranks()[crank];
        let (gnode, gslot) = comm.group.coord_of(crank);
        SrmComm {
            world: self.inner.clone(),
            comm: comm.clone(),
            me,
            crank,
            gnode,
            gslot,
            rma: self.inner.rma.endpoint(me),
            seat: comm.seats[crank].clone(),
            shared: self.inner.per_rank[me].clone(),
        }
    }

    /// Per-rank handle on the **world** communicator.
    pub fn comm(&self, rank: Rank) -> SrmComm {
        assert!(rank < self.inner.topo.nprocs());
        self.handle_for(&self.inner.world_comm.clone(), rank)
    }

    /// Create a subgroup communicator over `ranks` (caller order =
    /// comm rank order; no duplicates). Returns one [`SrmComm`] handle
    /// per member, in the same order. The group gets its own boards,
    /// links, mailbox and AM handler ids, so collectives on disjoint
    /// groups share no protocol state.
    ///
    /// Call during setup (before `Sim::run`), like [`SrmWorld::new`].
    pub fn comm_create(&self, ranks: &[Rank]) -> Vec<SrmComm> {
        let id = self.next_comm.fetch_add(1, Ordering::Relaxed);
        let group = CommGroup::new(self.inner.topo, id, ranks.to_vec());
        let (handle, rma) = (&self.inner.handle, &self.inner.rma);
        let comm = CommState::new(handle, rma, &self.inner.tuning, group);
        (0..comm.group.len())
            .map(|c| self.handle_for(&comm, c))
            .collect()
    }

    /// MPI-style `comm_split`: rank `r` joins the group of all ranks
    /// with the same `colors[r]`, ordered by `(keys[r], r)`; a negative
    /// color opts the rank out (its slot returns `None`). Both slices
    /// are indexed by world rank and must cover every rank. Returns one
    /// handle per world rank.
    pub fn comm_split(&self, colors: &[i64], keys: &[i64]) -> Vec<Option<SrmComm>> {
        let n = self.inner.topo.nprocs();
        assert_eq!(colors.len(), n, "one color per world rank");
        assert_eq!(keys.len(), n, "one key per world rank");
        let mut out: Vec<Option<SrmComm>> = (0..n).map(|_| None).collect();
        let mut palette: Vec<i64> = colors.iter().copied().filter(|&c| c >= 0).collect();
        palette.sort_unstable();
        palette.dedup();
        for color in palette {
            let mut members: Vec<Rank> = (0..n).filter(|&r| colors[r] == color).collect();
            members.sort_by_key(|&r| (keys[r], r));
            for handle in self.comm_create(&members) {
                let r = handle.rank();
                out[r] = Some(handle);
            }
        }
        out
    }

    /// The topology this world was built for.
    pub fn topology(&self) -> Topology {
        self.inner.topo
    }

    /// The **geometry** tuning every shared buffer was sized with (the
    /// table's envelope when one is loaded, else the base tuning).
    pub fn tuning(&self) -> SrmTuning {
        self.inner.tuning
    }
}

/// One rank's handle on one communicator (the world communicator from
/// [`SrmWorld::comm`], or a subgroup from [`SrmWorld::comm_create`]).
/// Cheap to clone; clones share the same per-(rank, comm) protocol
/// seat and the rank-wide nonblocking queue. Belongs to exactly one
/// logical process.
#[derive(Clone)]
pub struct SrmComm {
    pub(crate) world: Arc<WorldInner>,
    pub(crate) comm: Arc<CommState>,
    /// World rank.
    pub(crate) me: Rank,
    /// Comm rank (caller-order index in the group).
    pub(crate) crank: usize,
    /// Group node index of `me`.
    pub(crate) gnode: usize,
    /// Group slot of `me` within its group node (0 = group master).
    pub(crate) gslot: usize,
    pub(crate) rma: Rma,
    pub(crate) seat: Arc<CommSeat>,
    pub(crate) shared: Arc<RankShared>,
}

impl SrmComm {
    /// This handle's **world** rank.
    pub fn rank(&self) -> Rank {
        self.me
    }

    /// This handle's rank **within the communicator** (caller-order
    /// index; equals [`SrmComm::rank`] on the world communicator).
    /// Collective roots and payload segment layouts use comm ranks.
    pub fn comm_rank(&self) -> usize {
        self.crank
    }

    /// Number of ranks in this communicator.
    pub fn size(&self) -> usize {
        self.comm.group.len()
    }

    /// The communicator's stable id (0 = world).
    pub fn comm_id(&self) -> u64 {
        self.comm.group.id()
    }

    /// The communicator's group (membership, node mapping, tree).
    pub fn group(&self) -> &CommGroup {
        &self.comm.group
    }

    /// The topology.
    pub fn topology(&self) -> Topology {
        self.world.topo
    }

    /// The **geometry** tuning this world's shared buffers were sized
    /// with. Planners take cell sizes and buffer strides from here;
    /// per-shape *decision* knobs come from
    /// [`SrmComm::effective_tuning`] via the plan builder.
    pub fn tuning(&self) -> SrmTuning {
        self.world.tuning
    }

    /// The effective decision knobs for compiling `shape` on this
    /// communicator: the world's base tuning, overlaid — when a
    /// [`TuneTable`] is loaded and holds a matching `(op, size class,
    /// nodes, ranks)` entry — with that entry, clamped to the buffer
    /// geometry. A pure function of `(shape, communicator)`, so every
    /// rank resolves the same knobs and plans stay consistent.
    pub fn effective_tuning(&self, shape: &Shape) -> SrmTuning {
        self.tune_consult(shape).0
    }

    /// [`SrmComm::effective_tuning`] plus the table-consultation
    /// outcome: `Some(true)` table entry hit, `Some(false)` table
    /// loaded but no entry for this shape, `None` no table.
    pub(crate) fn tune_consult(&self, shape: &Shape) -> (SrmTuning, Option<bool>) {
        let base = self.world.base;
        let Some(table) = self.world.table.as_deref() else {
            return (base, None);
        };
        let nodes = self.comm.group.node_count();
        let ranks = self.comm.group.len();
        match table.lookup(shape.op(), shape.class_len(), nodes, ranks) {
            Some(entry) => (entry.apply(&base, &self.world.tuning), Some(true)),
            None => (base, Some(false)),
        }
    }

    /// The configured tree kind: what every call runs on that
    /// [`SrmModel::trees`] does not derive a tree for.
    pub fn tree(&self) -> TreeKind {
        self.world.tuning.configured_tree()
    }

    /// The closed form a call compiled under `t` derives its plan from
    /// ([`SrmModel::trees`], [`SrmModel::allreduce_composes`]): this
    /// group's node count and its fullest node.
    pub(crate) fn model(&self, t: &SrmTuning) -> SrmModel {
        let p = (0..self.cnodes()).map(|g| self.cslots_on(g)).max();
        let topo = Topology::new(self.cnodes(), p.expect("nonempty group"));
        SrmModel::new(self.world.handle.config().clone(), topo, *t)
    }

    /// My world node id.
    pub fn node(&self) -> NodeId {
        self.world.topo.node_of(self.me)
    }

    /// My world slot within the node.
    pub fn slot(&self) -> usize {
        self.world.topo.slot_of(self.me)
    }

    /// Am I my node's **world** master? (Group masters — the tasks that
    /// touch the network for this communicator — are group slot 0,
    /// which coincides with this on the world communicator.)
    pub fn is_master(&self) -> bool {
        self.world.topo.is_master(self.me)
    }

    // --- group-coordinate accessors (the planners' vocabulary) ---

    /// Communicator size (planner shorthand for [`SrmComm::size`]).
    pub(crate) fn csize(&self) -> usize {
        self.comm.group.len()
    }

    /// My comm rank.
    pub(crate) fn crank(&self) -> usize {
        self.crank
    }

    /// Number of group nodes.
    pub(crate) fn cnodes(&self) -> usize {
        self.comm.group.node_count()
    }

    /// My group node index.
    pub(crate) fn cnode(&self) -> usize {
        self.gnode
    }

    /// My group slot within my group node (0 = group master).
    pub(crate) fn cslot(&self) -> usize {
        self.gslot
    }

    /// Members on my group node.
    pub(crate) fn cslots_here(&self) -> usize {
        self.comm.group.slots_on(self.gnode)
    }

    /// Members on group node `g`.
    pub(crate) fn cslots_on(&self, g: usize) -> usize {
        self.comm.group.slots_on(g)
    }

    /// World rank of group node `g`'s master (group slot 0).
    pub(crate) fn cmaster_of(&self, g: usize) -> Rank {
        self.comm.group.master_of(g)
    }

    /// Comm rank of group slot `s` on group node `g`.
    pub(crate) fn crank_at(&self, g: usize, s: usize) -> usize {
        self.comm.group.crank_at(g, s)
    }

    /// (group node, group slot) of comm rank `c`.
    pub(crate) fn ccoord_of(&self, c: usize) -> (usize, usize) {
        self.comm.group.coord_of(c)
    }

    /// Group node of comm rank `c`.
    pub(crate) fn cnode_of(&self, c: usize) -> usize {
        self.comm.group.coord_of(c).0
    }

    /// The comm rank that carries group node `node`'s wire traffic in a
    /// call rooted at comm rank `root`: the root on its own node, the
    /// master everywhere else. It is both ends of every cross-node
    /// channel and address exchange of the call, and the rank that runs
    /// the call with interrupts off (`SrmComm::plan_quiet`).
    pub(crate) fn wire_rank(&self, node: usize, root: usize) -> usize {
        if node == self.cnode_of(root) {
            root
        } else {
            self.crank_at(node, 0)
        }
    }

    /// Does the group span more than one node?
    pub(crate) fn cmulti(&self) -> bool {
        self.comm.group.node_count() > 1
    }

    /// Am I my group node's master?
    pub(crate) fn c_is_master(&self) -> bool {
        self.gslot == 0
    }

    /// Do group node `g`'s members hold consecutive comm ranks in slot
    /// order? (Planners stream whole node blocks when true.)
    pub(crate) fn ccontig(&self, g: usize) -> bool {
        self.comm.group.contig(g)
    }

    /// World rank of comm rank `c`.
    pub(crate) fn cworld_of(&self, c: usize) -> Rank {
        self.comm.group.ranks()[c]
    }

    /// My group node's shared-memory board.
    pub fn board(&self) -> &NodeBoard {
        &self.comm.boards[self.gnode]
    }

    /// Group node `dst`'s link from group node `src`.
    fn link(&self, dst: usize, src: usize) -> &Link {
        self.comm.links[dst * self.cnodes() + src].get_or_init(|| {
            let slots = |g| (0..self.cslots_on(g)).map(|_| OnceLock::new()).collect();
            Box::new(Link {
                bcast: slots(src),
                reduce: slots(dst),
                rd: OnceLock::new(),
                bar: OnceLock::new(),
                ring: OnceLock::new(),
            })
        })
    }

    /// Side `side` of channel `c`, kept at `c.dst`'s node in its link
    /// from `c.src`'s: the one place that states each family's landing
    /// and initial credits.
    /// * `Bcast`, per sending slot: `small_large_switch` landings, one
    ///   credit a side.
    /// * `Reduce`, per receiving slot: [`SrmTuning::REDUCE_CHUNK`]
    ///   landings, one credit a side.
    /// * `Rd`: `REDUCE_CHUNK` landings and no credits, since no byte of
    ///   one is written twice in a call (DESIGN.md §16.2).
    /// * `Ring`: `pairwise_chunk` landings (at least 8 bytes), one
    ///   credit a side.
    pub(crate) fn chan(&self, c: Chan, side: usize) -> &Channel {
        let ((dst, dslot), (src, sslot)) = (self.ccoord_of(c.dst), self.ccoord_of(c.src));
        let (link, t, handle) = (self.link(dst, src), &self.world.tuning, &self.world.handle);
        let (sides, cap, credits) = match c.kind {
            ChanKind::Bcast => (&link.bcast[sslot], t.small_large_switch, 1),
            ChanKind::Reduce => (&link.reduce[dslot], SrmTuning::REDUCE_CHUNK, 1),
            ChanKind::Rd => (&link.rd, SrmTuning::REDUCE_CHUNK, 0),
            ChanKind::Ring => (&link.ring, t.pairwise_chunk.max(8), 1),
        };
        &sides.get_or_init(|| [0, 1].map(|_| Channel::new(handle, ShmBuffer::new(cap), credits)))
            [side]
    }

    /// Group node `node`'s dissemination-barrier counter for the bumps
    /// of group node `from`.
    pub(crate) fn bar_round(&self, node: usize, from: usize) -> &LapiCounter {
        let handle = &self.world.handle;
        (self.link(node, from).bar).get_or_init(|| LapiCounter::new(handle, 0))
    }

    /// The RMA endpoint (exposed for tests and extensions).
    pub fn rma(&self) -> &Rma {
        &self.rma
    }

    /// Allocate a registered user buffer of `len` bytes (the form all
    /// collective payloads take; see the crate docs on memory model).
    pub fn alloc_buffer(&self, len: usize) -> ShmBuffer {
        ShmBuffer::new(len)
    }

    /// Tear down this rank's RMA dispatcher. Call exactly once per
    /// world rank, after the rank's last collective operation on *any*
    /// communicator. Every nonblocking collective on every communicator
    /// must have been waited first (the pending queue is rank-wide, so
    /// this asserts that every subcommunicator is drained).
    pub fn shutdown(&self, ctx: &simnet::Ctx) {
        assert!(
            self.queue().is_empty(),
            "rank {} shut down with outstanding nonblocking collectives",
            self.me,
        );
        self.rma.shutdown(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use collops::{Collectives, DType, ReduceOp};
    use simnet::MachineConfig;

    /// SimVars `SrmWorld::new` allocates for `topo`.
    fn vars_allocated_by_new(topo: Topology) -> u64 {
        let mut sim = Sim::new(MachineConfig::ibm_sp_colony());
        let before = sim.handle().var(()).wait_key();
        let _world = SrmWorld::new(&mut sim, topo, SrmTuning::default());
        sim.handle().var(()).wait_key() - before - 1
    }

    #[test]
    fn construction_allocates_simvars_linear_in_ranks() {
        // Per rank 3 in `rma`, 7 on its board (four pair banks, the
        // barrier flag, two contribution flags) and its `Landed`
        // counter. Per-peer-node state waits for first use.
        assert_eq!(vars_allocated_by_new(Topology::new(16, 16)), 256 * 11);
        assert_eq!(vars_allocated_by_new(Topology::new(64, 16)), 1024 * 11);
    }

    /// Run `body` on every member of a fresh `topo` world's communicator
    /// over `group` (the world communicator when `None`) with a 2 MiB
    /// buffer, and hand back that communicator's state.
    fn run_comm(
        topo: Topology,
        group: Option<&[Rank]>,
        body: fn(&Ctx, &SrmComm, &ShmBuffer),
    ) -> Arc<CommState> {
        let mut sim = Sim::new(MachineConfig::ibm_sp_colony());
        let world = SrmWorld::new(&mut sim, topo, SrmTuning::default());
        let handles = match group {
            Some(ranks) => world.comm_create(ranks),
            None => (0..topo.nprocs()).map(|r| world.comm(r)).collect(),
        };
        for rank in 0..topo.nprocs() {
            let wcomm = world.comm(rank);
            let member = handles.iter().find(|h| h.rank() == rank).cloned();
            sim.spawn(format!("rank{rank}"), move |ctx| {
                if let Some(comm) = member {
                    body(&ctx, &comm, &comm.alloc_buffer(2 << 20));
                }
                wcomm.shutdown(&ctx);
            });
        }
        sim.run().expect("simulation completes");
        handles[0].comm.clone()
    }

    /// The families group node `dst`'s link from `src` holds, if the
    /// link exists: the slots whose channels each per-slot family made,
    /// and whether each other family was made.
    #[derive(Clone, Debug, PartialEq)]
    struct Made {
        bcast: Vec<usize>,
        reduce: Vec<usize>,
        rd: bool,
        bar: bool,
        ring: bool,
    }

    /// Nothing made: the base each expectation overrides.
    const NONE: Made = Made {
        bcast: Vec::new(),
        reduce: Vec::new(),
        rd: false,
        bar: false,
        ring: false,
    };

    /// Links by `(dst, src)` group-node pair, ascending.
    type Links = Vec<((usize, usize), Made)>;

    fn node_pairs(n: usize) -> impl Iterator<Item = (usize, usize)> {
        (0..n).flat_map(move |dst| (0..n).map(move |src| (dst, src)))
    }

    fn made(comm: &CommState, dst: usize, src: usize) -> Option<Made> {
        let link = comm.links[dst * comm.group.node_count() + src].get()?;
        let sides = |family: &[OnceLock<[Channel; 2]>]| {
            (0..family.len())
                .filter(|&s| family[s].get().is_some())
                .collect()
        };
        Some(Made {
            bcast: sides(&link.bcast),
            reduce: sides(&link.reduce),
            rd: link.rd.get().is_some(),
            bar: link.bar.get().is_some(),
            ring: link.ring.get().is_some(),
        })
    }

    /// Every link that exists, with what it holds.
    fn links(comm: &CommState) -> Links {
        let pairs = node_pairs(comm.group.node_count());
        pairs
            .filter_map(|(dst, src)| Some(((dst, src), made(comm, dst, src)?)))
            .collect()
    }

    /// The pairs of `n` nodes that `partner` admits, each link holding
    /// `made`.
    fn pairs_holding(n: usize, partner: fn(usize, usize) -> bool, made: Made) -> Links {
        let pairs = node_pairs(n).filter(|&(dst, src)| partner(dst, src));
        pairs.map(|pair| (pair, made.clone())).collect()
    }

    #[test]
    fn tree_collectives_create_no_pairwise_state_and_only_tree_edge_links() {
        let topo = Topology::new(8, 2);
        let comm = run_comm(topo, None, |ctx, comm, buf| {
            for len in [64, 256 << 10] {
                comm.broadcast(ctx, buf, len, 0);
                comm.reduce(ctx, buf, len, DType::U64, ReduceOp::Max, 0);
            }
            comm.allreduce(ctx, buf, 256 << 10, DType::U64, ReduceOp::Max);
        });
        assert!(comm.mailbox.direct.get().is_none(), "rank-pair counters");
        // The one-chunk calls and the allreduce ran on the configured
        // tree, both ways. The 256 KB broadcast derives a binary one
        // (the mailbox test below reads it off the address exchange)
        // and the reduce a chain, and only the reduce lands in
        // channels: a parent's, from its child.
        let nodes = |kind| -> Vec<(NodeId, NodeId)> {
            (comm.group.inter_edges(kind, 0).iter())
                .map(|&(parent, child)| (topo.node_of(parent), topo.node_of(child)))
                .collect()
        };
        let (own, derived) = (nodes(TreeKind::Binomial), nodes(TreeKind::Chain));
        for (a, b) in node_pairs(8) {
            let link = made(&comm, a, b);
            let edge = own.contains(&(a, b)) || own.contains(&(b, a)) || derived.contains(&(a, b));
            assert_eq!(link.is_some(), edge, "link {a} -> {b}");
            let Some(link) = link else { continue };
            let other = (link.rd, link.bar, link.ring);
            assert_eq!(other, (false, false, false), "link {a} -> {b}: {link:?}");
        }

        // A group whose root shares its node with a lower rank: the
        // edge the group reports joins the masters, 1 and 4, but the
        // root puts over it itself, into the channels node 1 keeps for
        // slot 1 of node 0. The large broadcast's address exchange
        // names the pair: child master 4 to root 3.
        let sub = run_comm(
            Topology::new(2, 4),
            Some(&[3, 1, 4, 6]),
            |ctx, comm, buf| {
                comm.broadcast(ctx, buf, 64, 0);
                comm.broadcast(ctx, buf, 256 << 10, 0);
            },
        );
        assert_eq!(sub.group.inter_edges(TreeKind::Binomial, 0), [(1, 4)]);
        let want = Made {
            bcast: vec![1],
            ..NONE
        };
        assert_eq!(links(&sub), [((1, 0), want)]);
        let exchanged: Vec<(Rank, Rank)> = (mailbox_slots(&sub).iter())
            .map(|&(owner, sender)| (sub.group.ranks()[owner], sub.group.ranks()[sender]))
            .collect();
        assert_eq!(exchanged, [(3, 4)]);
    }

    /// A barrier bumps one counter per round partner and a small
    /// allreduce lands only in the `Rd` pairs of its exchange partners:
    /// each link from a partner node holds that family alone, and no
    /// other link, rank-pair counter or mailbox slot exists. Sixteen
    /// 2-way nodes run both at radix 4: the barrier's two rounds bump
    /// the nodes 1, 2, 3, 4, 8 and 12 ahead, and the allreduce, with no
    /// extras, exchanges with every node one base-4 digit away.
    #[test]
    fn a_barrier_and_a_small_allreduce_create_only_their_partners_state() {
        let topo = Topology::new(16, 2);
        let model = SrmModel::new(MachineConfig::ibm_sp_colony(), topo, SrmTuning::default());
        assert_eq!((model.barrier_radix(), model.allreduce_radix(64)), (4, 4));
        let barriers = run_comm(topo, None, |ctx, comm, _| {
            comm.barrier(ctx);
            comm.barrier(ctx);
        });
        let partner = |dst, src| [1, 2, 3, 4, 8, 12].contains(&((dst + 16 - src) % 16));
        let want = pairs_holding(16, partner, Made { bar: true, ..NONE });
        assert_eq!(links(&barriers), want);
        let allreduces = run_comm(topo, None, |ctx, comm, buf| {
            comm.allreduce(ctx, buf, 64, DType::U64, ReduceOp::Max);
            comm.allreduce(ctx, buf, 64, DType::U64, ReduceOp::Max);
        });
        let partner = |a: usize, b: usize| (a % 4 != b % 4) != (a / 4 != b / 4);
        let want = pairs_holding(16, partner, Made { rd: true, ..NONE });
        assert_eq!(links(&allreduces), want);
        for comm in [barriers, allreduces] {
            assert!(comm.mailbox.direct.get().is_none(), "rank-pair counters");
            assert_eq!(mailbox_slots(&comm), []);
        }
    }

    /// An allgather lands only where its exchange partners put: in the
    /// `Rd` pairs of their links where the assembled buffer fits one
    /// landing, else in the user buffers behind mailbox slots between
    /// the masters, with no link at all, and no tree channel either way.
    /// Sixteen 2-way nodes run radix 4 at 8 B, the allreduce's partners,
    /// and one round of fifteen peers at 4 KB.
    #[test]
    fn an_allgather_creates_only_its_partners_state() {
        let topo = Topology::new(16, 2);
        let model = SrmModel::new(MachineConfig::ibm_sp_colony(), topo, SrmTuning::default());
        assert_eq!(
            (model.allgather_radix(8), model.allgather_radix(4 << 10)),
            (4, 16)
        );
        let landed = run_comm(topo, None, |ctx, comm, buf| {
            comm.allgather(ctx, buf, 8);
            comm.allgather(ctx, buf, 8);
        });
        let partner = |a: usize, b: usize| (a % 4 != b % 4) != (a / 4 != b / 4);
        let want = pairs_holding(16, partner, Made { rd: true, ..NONE });
        assert_eq!(links(&landed), want);
        assert_eq!(mailbox_slots(&landed), []);
        let direct = run_comm(topo, None, |ctx, comm, buf| {
            comm.allgather(ctx, buf, 4 << 10);
            comm.allgather(ctx, buf, 4 << 10);
        });
        assert_eq!(links(&direct), []);
        let masters = node_pairs(16).filter(|(owner, sender)| owner != sender);
        let want: Vec<(usize, usize)> = masters.map(|(o, s)| (2 * o, 2 * s)).collect();
        assert_eq!(mailbox_slots(&direct), want);
        for comm in [landed, direct] {
            assert!(comm.mailbox.direct.get().is_none(), "rank-pair counters");
        }
    }

    /// The pairwise collectives pay only for what they run: alltoall at
    /// any size needs the rank-pair counters and no `Ring` pair; a
    /// reduce_scatter below the direct threshold a `Ring` pair on every
    /// pair of distinct nodes, nothing else in those links, and no
    /// counters.
    #[test]
    fn pairwise_families_appear_with_the_collective_that_uses_them() {
        let topo = Topology::new(4, 4);
        let alltoall = run_comm(topo, None, |ctx, comm, buf| {
            for len in [8, 4 << 10, 64 << 10] {
                comm.alltoall(ctx, buf, len);
            }
        });
        assert!(
            alltoall.mailbox.direct.get().is_some(),
            "rank-pair counters"
        );
        assert_eq!(links(&alltoall), []);
        let staged = run_comm(topo, None, |ctx, comm, buf| {
            comm.reduce_scatter(ctx, buf, 4 << 10, DType::U64, ReduceOp::Max)
        });
        assert!(staged.mailbox.direct.get().is_none(), "rank-pair counters");
        let want = pairs_holding(4, |dst, src| dst != src, Made { ring: true, ..NONE });
        assert_eq!(links(&staged), want);
    }

    /// Each `Ring` side's credit guards its own reuse, and the drain
    /// waits only on the last piece's side; once a staged
    /// reduce_scatter of three pieces a stream (12 KB segments on 4×4,
    /// 16 KB pieces) and a barrier are over, every side of every pair
    /// is home: its credit back, its data counter taken to zero.
    #[test]
    fn a_staged_reduce_scatter_leaves_every_ring_side_drained() {
        let comm = run_comm(Topology::new(4, 4), None, |ctx, comm, buf| {
            comm.reduce_scatter(ctx, buf, 12 << 10, DType::U64, ReduceOp::Max);
            comm.barrier(ctx);
        });
        for (dst, src) in node_pairs(4).filter(|(dst, src)| dst != src) {
            let link = comm.links[dst * 4 + src].get().expect("link made");
            let sides = link.ring.get().expect("ring pair made");
            let held = sides.each_ref().map(|c| (c.free.peek(), c.data.peek()));
            assert_eq!(held, [(1, 0); 2], "ring {src} -> {dst}");
        }
    }

    /// The `(owner, sender)` mailbox slots that exist, ascending.
    fn mailbox_slots(comm: &CommState) -> Vec<(usize, usize)> {
        comm.mailbox.slots.lock().unwrap().keys().copied().collect()
    }

    /// One mailbox serves all three exchanges, and a slot exists only
    /// where a handle travelled: not in a gather through the landings. (The `Overlap` scenarios of
    /// `tests/schedule_golden.rs` at 128 KB keep a large `ibroadcast`
    /// and an `ialltoall` in flight through it together.)
    #[test]
    fn mailbox_slots_exist_only_for_pairs_that_exchanged_a_handle() {
        let topo = Topology::new(8, 2);
        // Large broadcast: each child node's master to its parent's
        // (on the world communicator a master's comm rank is its rank).
        let bcast = run_comm(topo, None, |ctx, comm, buf| {
            comm.broadcast(ctx, buf, 256 << 10, 0)
        });
        // Eight 32 KB puts on eight nodes: the derived tree is the chain.
        let mut edges = bcast.group.inter_edges(TreeKind::Chain, 0);
        edges.sort_unstable();
        assert_eq!(edges.len(), 7);
        assert_eq!(mailbox_slots(&bcast), edges);
        // A 64 B gather rooted at rank 3, not its node's master, takes
        // the node blocks in the root's landings: no address moves.
        let landed = run_comm(topo, None, |ctx, comm, buf| comm.gather(ctx, buf, 64, 3));
        assert_eq!(mailbox_slots(&landed), []);
        // At 16 KB a node's block outgrows a landing: the root ships its
        // address to the seven remote masters by AM, none to its own
        // master. It returns once every remote piece has landed, so
        // every address message has been sent by then.
        let gather = run_comm(topo, None, |ctx, comm, buf| {
            comm.gather(ctx, buf, 16 << 10, 3);
            if comm.rank() == 3 {
                assert_eq!(ctx.metrics_snapshot().rma_ams, 7);
            }
        });
        let want: Vec<(usize, usize)> = (0..16)
            .step_by(2)
            .filter(|&m| m != 2)
            .map(|m| (m, 3))
            .collect();
        assert_eq!(mailbox_slots(&gather), want);
        // Alltoall: every ordered pair of ranks on different nodes.
        let alltoall = run_comm(topo, None, |ctx, comm, buf| {
            comm.alltoall(ctx, buf, 64 << 10)
        });
        let pairs = (0..16).flat_map(|owner| (0..16).map(move |sender| (owner, sender)));
        let want: Vec<(usize, usize)> = pairs.filter(|&(o, s)| o / 2 != s / 2).collect();
        assert_eq!(mailbox_slots(&alltoall), want);
        // A world that exchanges no address has no slot.
        let barriers = run_comm(Topology::new(64, 16), None, |ctx, comm, _| {
            comm.barrier(ctx)
        });
        assert_eq!(mailbox_slots(&barriers), []);
    }

    #[test]
    fn a_second_deposit_before_the_take_panics_naming_both_ranks() {
        let mut sim = Sim::new(MachineConfig::ibm_sp_colony());
        let mailbox = Mailbox::new(&sim.handle(), 3);
        sim.spawn("depositor", move |ctx| {
            for _ in 0..2 {
                mailbox.deposit(&ctx, 2, 1, ShmBuffer::new(8));
            }
        });
        let error = format!("{:?}", sim.run().expect_err("the second deposit panics"));
        assert!(error.contains("owner comm rank 2"), "{error}");
        assert!(error.contains("sender comm rank 1"), "{error}");
    }
}
