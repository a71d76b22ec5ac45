//! Analytical performance model of the SRM collectives — the paper's
//! stated future work (§5: "development of an analytical performance
//! model of the SRM collectives to better understand, model, and
//! evaluate effectiveness of this technique under different
//! assumptions and parameter values such as the SMP node size,
//! intra-SMP memory bandwidth, and performance of inter-node
//! communication").
//!
//! The model predicts the **steady-state per-call latency** of each
//! collective from the machine parameters and the protocol structure:
//! closed-form sums over the pipeline stages, with no simulation. It
//! deliberately ignores second-order effects (flow-control stalls,
//! dispatcher occupancy, tie-breaking) — the point of having both the
//! model and the simulator is to measure how much those effects are
//! worth, which `tests/` and the `model_vs_sim` bench binary do.
//!
//! Notation (from [`simnet::MachineConfig`]):
//! `L` net latency, `G` net per-byte, `o` LAPI origin overhead,
//! `t` LAPI target overhead, `c` counter check, `γ` shm per-byte under
//! contention, `f`/`fs` flag read/store, `ρ` reduce per-byte.

use crate::embed::{children, height, profile, radix_power, Round, Rounds, TreeKind};
use crate::tune::TuneOp as Op;
use crate::tuning::SrmTuning;
use simnet::{MachineConfig, SimTime, Topology};

/// The trees one rooted call runs on: between the node masters, and
/// (reduce only) over each node's slots under its master.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Trees {
    /// Inter-node tree over the group's nodes.
    pub inter: TreeKind,
    /// Intra-node reduce tree over a node's slots.
    pub intra: TreeKind,
}

/// Closed-form latency predictions for the SRM collectives.
#[derive(Clone, Debug)]
pub struct SrmModel {
    cfg: MachineConfig,
    topo: Topology,
    tuning: SrmTuning,
}

impl SrmModel {
    /// Model for one (machine, topology, tuning) triple.
    pub fn new(cfg: MachineConfig, topo: Topology, tuning: SrmTuning) -> Self {
        SrmModel { cfg, topo, tuning }
    }

    /// The trees an `op` call of `len` bytes runs on. A call that is
    /// one chunk, or not a broadcast or reduce, or made under a forced
    /// [`SrmTuning::tree`], runs on the configured kind. A pipeline
    /// runs on whichever candidate its closed form
    /// (`fill + (chunks − 1) · interval`) says finishes first — between
    /// the nodes the configured kind, binary or a chain; under a
    /// reducing master the configured kind or a hung binary tree — the
    /// earlier candidate on a tie.
    pub fn trees(&self, op: Op, len: usize) -> Trees {
        let own = self.tuning.configured_tree();
        let on = |inter, intra| Trees { inter, intra };
        let (inters, intras) = (
            [own, TreeKind::Binary, TreeKind::Chain],
            [own, TreeKind::HungBinary],
        );
        let intras = match op {
            _ if self.tuning.tree.is_some() => return on(own, own),
            Op::Bcast if self.bcast_chunking(len).1 > 1 => &intras[..1],
            Op::Reduce if len > SrmTuning::REDUCE_CHUNK => &intras[..],
            _ => return on(own, own),
        };
        let time = |t: &Trees| match op {
            Op::Bcast => self.bcast_on(len, t.inter),
            _ => self.reduce_on(len, *t),
        };
        let candidates = (inters.iter()).flat_map(|&e| intras.iter().map(move |&i| on(e, i)));
        candidates
            .min_by_key(time)
            .expect("six candidates or three")
    }

    /// Chunk size and count of a multi-node broadcast of `len` bytes.
    fn bcast_chunking(&self, len: usize) -> (usize, u64) {
        let t = &self.tuning;
        let chunk = if len > t.small_large_switch {
            SrmTuning::SMP_BUF
        } else {
            t.small_bcast_chunk(len)
        };
        (chunk.min(len), SrmTuning::chunk_count(len, chunk) as u64)
    }

    /// One LAPI put of `bytes`, origin call to data landed (no queueing).
    fn put_time(&self, bytes: usize) -> SimTime {
        self.cfg.lapi_origin_overhead
            + self.cfg.net_per_byte.cost_of(bytes)
            + self.cfg.net_latency
            + self.cfg.lapi_target_overhead
            + self.cfg.lapi_counter_check
    }

    /// Intra-node distribution of one chunk through the flat two-buffer
    /// broadcast: publish `p-1` flags, all readers drain concurrently.
    fn smp_chunk_out(&self, bytes: usize) -> SimTime {
        let p = self.topo.tasks_per_node();
        if p == 1 {
            return SimTime::ZERO;
        }
        self.cfg.flag_set_op * (p as u64 - 1)
            + self.cfg.flag_op
            + self.cfg.shm_copy_cost(bytes, p - 1)
    }

    /// Staging copy of one chunk into a shared buffer.
    fn stage(&self, bytes: usize) -> SimTime {
        self.cfg.shm_copy_cost(bytes, 1)
    }

    /// The flat broadcast of `len` bytes within a node. Chunks
    /// pipeline, so one staging plus the drain of every chunk's reader
    /// phase.
    fn smp_bcast(&self, len: usize) -> SimTime {
        let cell = SrmTuning::SMP_BUF;
        let chunks = SrmTuning::chunk_count(len, cell) as u64;
        let last = len - (chunks as usize - 1) * cell.min(len);
        self.stage(cell.min(len))
            + self.smp_chunk_out(cell.min(len)) * (chunks - 1)
            + self.smp_chunk_out(last)
    }

    /// Predicted broadcast latency for a `len`-byte payload.
    pub fn bcast(&self, len: usize) -> SimTime {
        self.bcast_on(len, self.trees(Op::Bcast, len).inter)
    }

    /// [`Self::bcast`] on the `inter` tree between the nodes.
    fn bcast_on(&self, len: usize, inter: TreeKind) -> SimTime {
        if len == 0 || self.topo.nprocs() == 1 {
            return SimTime::ZERO;
        }
        if !self.topo.multi_node() {
            return self.smp_bcast(len);
        }
        // A chunk reaches the last node after the tree's fill; what
        // follows it costs the busiest master's adapter one wire time
        // per child.
        let (chunk, chunks) = self.bcast_chunking(len);
        let wire = self.cfg.net_per_byte.cost_of(chunk);
        let tree = profile(inter, self.topo.nodes(), wire, self.put_time(0));
        let fan = tree.fan as u64;
        if len <= self.tuning.small_large_switch {
            // Small protocol: stage at the root, distribute the last
            // chunk locally. An edge landing comes back once its node
            // has drained it and the credit has flown home — to a
            // master staging the next chunk: two sides, so half of that
            // per chunk. This floor is what keeps the chain out of the
            // 4 KB-chunk pipelines, whose wire time it undercuts.
            let credit = self.put_time(chunk)
                + self.smp_chunk_out(chunk)
                + self.put_time(0)
                + self.cfg.interrupt_cost;
            let interval = (wire * fan).max(SimTime::from_ps(credit.as_ps() / 2));
            self.stage(chunk) + tree.fill + interval * (chunks - 1) + self.smp_chunk_out(chunk)
        } else {
            // Large protocol: address exchange, then puts straight into
            // the user buffers while each node's SMP pipeline
            // redistributes.
            self.put_time(0)
                + tree.fill
                + self.cfg.net_per_byte.cost_of(len - chunk) * fan
                + self.stage(chunk)
                + self.smp_chunk_out(chunk)
        }
    }

    /// Predicted reduce latency (sum over the intra-node combine tree,
    /// the inter-node pipeline, and the per-chunk operator work).
    pub fn reduce(&self, len: usize) -> SimTime {
        self.reduce_on(len, self.trees(Op::Reduce, len))
    }

    /// [`Self::reduce`] on `trees`.
    fn reduce_on(&self, len: usize, trees: Trees) -> SimTime {
        if len == 0 || self.topo.nprocs() == 1 {
            return SimTime::ZERO;
        }
        let (n, p) = (self.topo.nodes(), self.topo.tasks_per_node());
        let chunk = SrmTuning::REDUCE_CHUNK.min(len);
        let fold = self.cfg.reduce_cost(chunk);
        // Intra-node: leaf copy, then one combine per child, a level
        // after the other.
        let flags = self.cfg.flag_op + self.cfg.flag_set_op;
        let intra = profile(trees.intra, p, fold + flags, SimTime::ZERO);
        // Inter-node: each hop ships a chunk and combines it.
        let inter = profile(trees.inter, n, fold, self.put_time(chunk));
        // The bytes after the first chunk pass at the pace of the
        // slowest of the busiest master (one combine per child slot and
        // child node), the busiest slot and the busiest adapter's
        // inbound port.
        let rest = len - chunk;
        let wire = self.cfg.net_per_byte.cost_of(rest) * inter.fan as u64;
        let busiest = (intra.root_fan + inter.fan).max(intra.fan) as u64;
        let pipeline = (self.cfg.reduce_cost(rest) * busiest).max(wire);
        self.cfg.shm_copy_cost(chunk, (p / 2).max(1)) + intra.fill + inter.fill + pipeline
    }

    /// Does an allreduce of `len` bytes run as a reduce to group node
    /// 0's master and a broadcast from it, each on the trees it derives,
    /// rather than as the four-stage pipeline on the configured tree?
    /// Only past one reduce chunk, between nodes and on the default
    /// [`SrmTuning::tree`] — and where the two closed forms in sequence
    /// finish first: the pipeline overlaps its legs but stays on the
    /// configured tree, which a large call pays for per chunk at node
    /// 0's master; a mid-sized one gains more from the overlap.
    pub fn allreduce_composes(&self, len: usize) -> bool {
        self.tuning.tree.is_none()
            && self.topo.multi_node()
            && len > SrmTuning::REDUCE_CHUNK
            && self.reduce(len) + self.bcast(len) < self.allreduce_pipeline(len)
    }

    /// Predicted allreduce latency of the plan that runs: recursive
    /// doubling, the four-stage pipeline, or a reduce then a broadcast
    /// ([`Self::allreduce_composes`]).
    pub fn allreduce(&self, len: usize) -> SimTime {
        if self.allreduce_composes(len) {
            self.reduce(len) + self.bcast(len)
        } else {
            self.allreduce_pipeline(len)
        }
    }

    /// [`Self::allreduce`] without the composition.
    fn allreduce_pipeline(&self, len: usize) -> SimTime {
        if len == 0 || self.topo.nprocs() == 1 {
            return SimTime::ZERO;
        }
        let (n, p) = (self.topo.nodes(), self.topo.tasks_per_node());
        let own = self.tuning.configured_tree();
        let smp_levels = height(own, p) as u64;
        if len <= SrmTuning::REDUCE_CHUNK {
            // SMP reduce + log2(n) pairwise exchange rounds + SMP bcast.
            let smp_reduce = self.cfg.shm_copy_cost(len, (p / 2).max(1))
                + (self.cfg.reduce_cost(len) + self.cfg.flag_op + self.cfg.flag_set_op)
                    * smp_levels;
            let exchange = self.exchange_on(self.allreduce_radix(len), len);
            smp_reduce + exchange + self.stage(len) + self.smp_chunk_out(len)
        } else {
            // Four-stage pipeline: one full traversal (reduce to node 0,
            // broadcast back) plus the bottleneck pace for the bytes
            // after the first chunk — the down leg trails the up leg,
            // so a chunk's round trip is paid once, not per chunk.
            let chunk = SrmTuning::REDUCE_CHUNK.min(len);
            let rest = len - chunk;
            let hop_r = self.put_time(chunk) + self.cfg.reduce_cost(chunk);
            let hop_b = self.put_time(chunk);
            let hops = height(own, n) as u64;
            let smp = self.cfg.shm_copy_cost(chunk, (p / 2).max(1))
                + self.cfg.reduce_cost(chunk) * smp_levels
                + self.stage(chunk)
                + self.smp_chunk_out(chunk);
            // Steady-state pace: the slower of node 0's master — one
            // combine per child slot and child node, then staging the
            // result for both broadcasts — and its adapter, which
            // takes `fanout` chunks in and sends `fanout` out on
            // separate ports.
            let fanout = children(own, 0, n).len().max(1) as u64;
            let folds = children(own, 0, p).len() as u64 + fanout;
            let busy = self.cfg.reduce_cost(rest) * folds + self.stage(rest);
            let wire = self.cfg.net_per_byte.cost_of(rest) * fanout;
            smp + (hop_r + hop_b) * hops + busy.max(wire)
        }
    }

    /// Predicted alltoall latency for `len`-byte segments. Two terms
    /// bound it (Task & Chauhan's multi-core cluster model): every
    /// rank's own port serializes its `remote` outbound segments, and
    /// under that wire the node rotates `p - 1` rounds of one publish
    /// and one consume with all `p` slots on the memory bus. Around the
    /// larger of the two sit the own-segment copy, the origin overhead
    /// of one address message and one put per remote peer, and the
    /// flight of the first address and of the last put.
    pub fn alltoall(&self, len: usize) -> SimTime {
        if len == 0 {
            return SimTime::ZERO;
        }
        let p = self.topo.tasks_per_node();
        let remote = (self.topo.nprocs() - p) as u64;
        let local = self.cfg.shm_copy_cost(len, p) * (2 * (p as u64 - 1));
        if remote == 0 {
            return self.stage(len) + local;
        }
        let wire = self.cfg.net_per_byte.cost_of(len) * remote;
        let flight = self.cfg.net_latency + self.cfg.lapi_target_overhead;
        self.stage(len)
            + self.cfg.lapi_origin_overhead * (2 * remote)
            + flight * 2
            + wire.max(local)
            + self.cfg.lapi_counter_check
    }

    /// Predicted reduce_scatter latency for `len`-byte result segments.
    /// The node leg reduces every piece of the node's `n·len` bytes on
    /// its own tree, the roots spread over the slots; each slot works
    /// the pieces in order, so a piece holds the leg for the most
    /// operator passes any one vertex makes on it, the root's fan-in.
    /// Each master's port and inbound wire carry `cslots·len·(nodes −
    /// 1)` bytes, and every peer piece that lands costs a fold and, as
    /// the call runs with interrupts on, an interrupt. The call takes
    /// the largest of the three, plus one piece's fill: its leaf copy,
    /// a fold per tree level and, between nodes, a put out and a credit
    /// or counter back.
    pub fn reduce_scatter(&self, len: usize) -> SimTime {
        let (nodes, p) = (self.topo.nodes(), self.topo.tasks_per_node());
        if len == 0 || nodes * p == 1 {
            return SimTime::ZERO;
        }
        let kind = self.tuning.configured_tree();
        let block = p * len;
        let piece = ((self.tuning.pairwise_chunk & !7).max(8)).min(block);
        let per_block = SrmTuning::chunk_count(block, piece) as u64;
        let fold = self.cfg.reduce_cost(piece);
        let fan_in = children(kind, 0, p).len() as u64;
        let node = fold * (fan_in * per_block * nodes as u64);
        let wire = self.cfg.net_per_byte.cost_of(block) * (nodes as u64 - 1);
        let landed = (fold + self.cfg.interrupt_cost) * (per_block * (nodes as u64 - 1));
        let mut fill = fold * height(kind, p) as u64;
        if p > 1 {
            fill += self.cfg.shm_copy_cost(piece, (p / 2).max(1));
        }
        if nodes > 1 {
            fill += self.put_time(piece) * 2;
        }
        node.max(wire).max(landed) + fill
    }

    /// The radix of the barrier's dissemination rounds between the
    /// nodes: the `k` whose closed form is lowest, the smaller on a tie.
    /// The barrier has no tree, so a forced [`SrmTuning::tree`] leaves
    /// it alone: `harness::measure` syncs with it, and a forced-tree
    /// measurement must start the way a derived one does.
    pub fn barrier_radix(&self) -> usize {
        self.radix(|k| self.barrier_on(k))
    }

    /// The radix of the small allreduce's exchange between the nodes
    /// for `len` bytes, chosen like [`Self::barrier_radix`] from the
    /// exchange's closed form: per payload size, because each round's
    /// `k − 1` wires and folds serialize on one master.
    pub fn allreduce_radix(&self, len: usize) -> usize {
        self.radix(|k| self.exchange_on(k, len))
    }

    /// The radix of the allgather's exchange between the nodes for
    /// `len`-byte segments, chosen like [`Self::barrier_radix`] from
    /// the exchange's closed form: per segment size, because a round's
    /// messages grow with `kʳ`.
    pub fn allgather_radix(&self, len: usize) -> usize {
        self.radix(|k| self.allgather_on(k, len))
    }

    /// Whether an allgather of `len`-byte segments publishes its node
    /// blocks within each node in place (`plan_allgather`): each alone
    /// as it comes, the master's own block first, rather than the
    /// whole buffer's broadcast once the exchange is over. Only where
    /// the exchange lands in the landings (priced with every node as
    /// full as the fullest, so the plan's lands too) and in place is
    /// priced strictly lower.
    pub fn allgather_in_place(&self, len: usize) -> bool {
        !self.allgather_takes(len).is_empty()
            && self.allgather_publication(len, true) < self.allgather_publication(len, false)
    }

    /// The bytes of each node block core 0's master takes in the
    /// allgather's exchange through the landings, in take order: the
    /// extras', then each round's. None where the exchange does not
    /// land or a node has one task and publishes nothing.
    fn allgather_takes(&self, len: usize) -> Vec<usize> {
        let (n, p) = (self.topo.nodes(), self.topo.tasks_per_node());
        if n == 1 || p == 1 || n * p * len > SrmTuning::REDUCE_CHUNK {
            return Vec::new();
        }
        let rounds = Rounds::k_ing(n, self.allgather_radix(len), 0);
        let extras = rounds.extras().map(|_| p * len);
        let held = |r: usize, g: usize| rounds.held(r, g).len() * p * len;
        let round = |r: Round| {
            r.peers
                .iter()
                .map(|&(_, g)| held(r.round, g))
                .collect::<Vec<_>>()
        };
        extras.chain(rounds.clone().flat_map(round)).collect()
    }

    /// The allgather's publication within a node, as the master works
    /// it on top of the exchange. In place, a block costs one use's
    /// flags and a copy out beside the readers (the master's own block
    /// first goes into the pair), in place of the copy out that the
    /// exchange's rounds price; otherwise it is the broadcast of all
    /// `P·len` bytes.
    fn allgather_publication(&self, len: usize, in_place: bool) -> SimTime {
        let (n, p) = (self.topo.nodes(), self.topo.tasks_per_node());
        if !in_place {
            return self.smp_bcast(n * p * len);
        }
        let cfg = &self.cfg;
        let use_of = |bytes| {
            cfg.flag_set_op * (p as u64 - 1) + cfg.flag_op * 2 + cfg.shm_copy_cost(bytes, p - 1)
        };
        let block = p * len;
        let own = self.stage(block) + use_of(block);
        (self.allgather_takes(len).into_iter())
            .fold(own, |t, bytes| t + use_of(bytes) - self.stage(bytes))
    }

    /// The `k` in `2..=n` at which `time` is lowest, the smaller on a
    /// tie; 2 below three nodes.
    fn radix(&self, time: impl Fn(usize) -> SimTime) -> usize {
        let n = self.topo.nodes();
        if n < 3 {
            return 2;
        }
        (2..=n)
            .min_by_key(|&k| time(k))
            .expect("three nodes or more")
    }

    /// Predicted barrier latency: flat check-in, the dissemination
    /// rounds at [`Self::barrier_radix`], flat release.
    pub fn barrier(&self) -> SimTime {
        self.barrier_on(self.barrier_radix())
    }

    /// [`Self::barrier`] at radix `k`: a round in which every master
    /// bumps `m` peers is a [`Self::round`] of `m` empty puts.
    fn barrier_on(&self, k: usize) -> SimTime {
        if self.topo.nprocs() == 1 {
            return SimTime::ZERO;
        }
        let cfg = &self.cfg;
        let (p, n) = (self.topo.tasks_per_node() as u64, self.topo.nodes());
        let checkin = cfg.flag_set_op + cfg.flag_op * (p - 1);
        let release = cfg.flag_set_op * (p - 1) + cfg.flag_op;
        let rounds = Rounds::dissemination(n, k, 0);
        let bumps = rounds.map(|r| self.round(r.peers.len() as u64, SimTime::ZERO, SimTime::ZERO));
        bumps.fold(checkin + release, |time, round| time + round)
    }

    /// The small allreduce's exchange between the masters at radix `k`
    /// on `len` bytes, as `plan_allreduce_small` compiles it: the
    /// `n − kʳ` extra nodes fold into the `kʳ ≤ n` core nodes, at most
    /// `j` into one core, and take the result back; the cores run `r`
    /// rounds of `k − 1` peers. At radix 2 a core late from its fold-in
    /// delays one partner a round, and the hand-back overlaps that: the
    /// two fold rounds cost one. Past radix 2 the delay reaches every
    /// group it enters, and a member that is neither first nor second in
    /// its group parks its own value and starts from the first member's:
    /// two copies a round.
    fn exchange_on(&self, k: usize, len: usize) -> SimTime {
        let n = self.topo.nodes();
        let (cores, rounds) = radix_power(n, k);
        let wire = self.cfg.net_per_byte.cost_of(len);
        let fold = self.cfg.reduce_cost(len);
        let park = if k > 2 {
            self.stage(len) * 2
        } else {
            SimTime::ZERO
        };
        let j = (n - cores).div_ceil(cores) as u64;
        let folds = match j {
            0 => SimTime::ZERO,
            _ if k == 2 => self.round(j, wire, fold),
            _ => self.round(j, wire, fold) * 2,
        };
        folds + (self.round(k as u64 - 1, wire, fold) + park) * rounds as u64
    }

    /// Predicted allgather latency for `len`-byte segments: each node's
    /// tasks hand their segments to the master, the masters exchange
    /// at [`Self::allgather_radix`], and each master publishes the
    /// blocks within its node, in place where
    /// [`Self::allgather_in_place`] says so.
    pub fn allgather(&self, len: usize) -> SimTime {
        let (n, p) = (self.topo.nodes(), self.topo.tasks_per_node());
        if len == 0 || n * p == 1 {
            return SimTime::ZERO;
        }
        let gather = self.stage(len) + (self.cfg.flag_op + self.stage(len)) * (p as u64 - 1);
        let exchange = match n {
            1 => SimTime::ZERO,
            _ => self.allgather_on(self.allgather_radix(len), len),
        };
        let in_place = self.allgather_in_place(len);
        gather + exchange + self.allgather_publication(len, in_place)
    }

    /// The allgather's exchange between the masters at radix `k`, as
    /// `plan_allgather` compiles it: the extras' blocks fold into the
    /// cores, each core puts the nodes it holds to the `k − 1` others of
    /// each round's group (`kʳ` runs of a core and its extras), and the
    /// cores hand the assembled buffer back to their extras — priced
    /// from core 0, which holds the longest run. A call whose assembled
    /// buffer fits one landing copies each message out where it lands;
    /// a larger one puts straight into the user buffers once each
    /// receiver's address has arrived.
    fn allgather_on(&self, k: usize, len: usize) -> SimTime {
        let (n, p) = (self.topo.nodes(), self.topo.tasks_per_node());
        let block = p * len;
        let landed = n * block <= SrmTuning::REDUCE_CHUNK;
        let round = |m: usize, nodes: usize| {
            let (bytes, m) = (nodes * block, m as u64);
            let wire = self.cfg.net_per_byte.cost_of(bytes);
            match landed {
                true => self.round(m, wire, self.stage(bytes)),
                false => self.round(m, wire, SimTime::ZERO) + self.put_time(0),
            }
        };
        let rounds = Rounds::k_ing(n, k, 0);
        let extras = rounds.extras().len();
        let folds = match extras {
            0 => SimTime::ZERO,
            j => round(j, 1) + round(j, n - 1),
        };
        let held = |r: usize| rounds.held(r, 0).len();
        let exchange = (rounds.clone()).map(|r| round(k - 1, held(r.round)));
        exchange.fold(folds, |time, round| time + round)
    }

    /// Predicted gather latency for `len`-byte segments, of the plan
    /// that runs ([`Self::gather_lands`]).
    pub fn gather(&self, len: usize) -> SimTime {
        let (n, p) = (self.topo.nodes(), self.topo.tasks_per_node());
        if len == 0 || n * p == 1 {
            return SimTime::ZERO;
        }
        if n == 1 {
            return self.node_gather(len);
        }
        let (landed, direct) = self.gather_ways(len);
        landed.map_or(direct, |landed| landed.min(direct))
    }

    /// Does a gather of `len`-byte segments take the remote node blocks
    /// in the root's landings rather than straight in its user buffer?
    /// Only between nodes, where a node's block fits one landing and the
    /// landed closed form is the lower.
    pub fn gather_lands(&self, len: usize) -> bool {
        let (landed, direct) = self.gather_ways(len);
        self.topo.multi_node() && landed.is_some_and(|landed| landed < direct)
    }

    /// A wire rank's gather of its node's other `p − 1` segments: a flag
    /// wait and a copy each.
    fn node_gather(&self, len: usize) -> SimTime {
        let p = self.topo.tasks_per_node() as u64;
        (self.cfg.flag_op + self.stage(len)) * (p - 1)
    }

    /// The gather's two ways between the nodes, `(landed, direct)`, from
    /// the root's side; `landed` is `None` where a node's block
    /// outgrows one landing. Both wait for the `m = n − 1` remote
    /// blocks, one wire time each through the root's port, and the
    /// direct way first ships the root's address.
    /// * Direct: the address's and the first piece's flight, then per
    ///   block the wire or the `p·chunks` pieces' target overheads,
    ///   whichever is longer; a master's node gather hides under the
    ///   address's flight.
    /// * Landed: the masters' node gather and one flight, then per block
    ///   the wire or the root's take, copy-out and credit, whichever is
    ///   longer. The root takes the blocks in node order while they land
    ///   in any, so every copy but one is priced as queued behind the
    ///   block it waits for.
    fn gather_ways(&self, len: usize) -> (Option<SimTime>, SimTime) {
        let cfg = &self.cfg;
        let (n, p) = (self.topo.nodes(), self.topo.tasks_per_node());
        let (m, block) = ((n.max(2) - 1) as u64, p * len);
        let chunks = SrmTuning::chunk_count(len, SrmTuning::REDUCE_CHUNK) as u64;
        let flight = cfg.lapi_origin_overhead + cfg.net_latency + cfg.lapi_target_overhead;
        let wire = cfg.net_per_byte.cost_of(block);
        let pieces = cfg.lapi_target_overhead * (p as u64 * chunks);
        let direct = flight * 2 + wire.max(pieces) * m;
        let copy = cfg.lapi_counter_check + self.stage(block);
        let take = cfg.lapi_target_overhead + copy + cfg.lapi_origin_overhead;
        let landed = self.node_gather(len) + flight + wire.max(take) * m + copy * (m - 1);
        ((block <= SrmTuning::REDUCE_CHUNK).then_some(landed), direct)
    }

    /// One exchange round in which every master puts a `wire`-long
    /// message to `m` peers and folds (`fold` each) as many. A master
    /// with interrupts off takes an arrival only inside a LAPI call: the
    /// last one lands after its own `m` origin overheads or the first
    /// put's flight, whichever ends later, plus the `m` wires its one
    /// port serializes; then the receiving dispatcher's `m` target
    /// overheads alternate with the waiter's `m` counter checks and
    /// folds.
    fn round(&self, m: u64, wire: SimTime, fold: SimTime) -> SimTime {
        let cfg = &self.cfg;
        let o = cfg.lapi_origin_overhead;
        let landed = (o * m).max(o + cfg.net_latency) + wire * m;
        landed + (cfg.lapi_target_overhead + cfg.lapi_counter_check + fold) * m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(nodes: usize, tpn: usize) -> SrmModel {
        SrmModel::new(
            MachineConfig::ibm_sp_colony(),
            Topology::new(nodes, tpn),
            SrmTuning::default(),
        )
    }

    #[test]
    fn degenerate_cases_are_zero() {
        let m = model(1, 1);
        assert_eq!(m.bcast(1024), SimTime::ZERO);
        assert_eq!(m.barrier(), SimTime::ZERO);
        assert_eq!(model(4, 4).bcast(0), SimTime::ZERO);
    }

    #[test]
    fn bcast_monotone_in_size_and_nodes() {
        let m = model(8, 16);
        assert!(m.bcast(64) < m.bcast(4096));
        assert!(m.bcast(4096) < m.bcast(1 << 20));
        assert!(model(2, 16).bcast(4096) < model(16, 16).bcast(4096));
    }

    #[test]
    fn barrier_scales_logarithmically() {
        // The paper's radix 2.
        let radix2 = |nodes| model(nodes, 16).barrier_on(2);
        let (b2, b4, b16) = (radix2(2), radix2(4), radix2(16));
        // 1, 2, 4 rounds: equal increments.
        assert_eq!((b4 - b2).as_ps(), (b16 - b4).as_ps() / 2);
    }

    #[test]
    fn switch_points_show_in_the_curve() {
        let m = model(4, 16);
        let t = SrmTuning::default();
        // Just below and above the small/large broadcast switch, the
        // model changes regime but stays continuous within 3x.
        let below = m.bcast(t.small_large_switch);
        let above = m.bcast(t.small_large_switch + 1);
        let ratio = above.as_ps() as f64 / below.as_ps() as f64;
        assert!((0.33..3.0).contains(&ratio), "discontinuity {ratio}");
    }

    #[test]
    fn alltoall_is_bound_by_the_wire_or_by_the_bus() {
        let len = 16 << 10;
        let cfg = MachineConfig::ibm_sp_colony();
        // One 16-way node: 15 rounds of two bus-bound copies.
        let bus = cfg.shm_copy_cost(len, 16) * 30;
        assert_eq!(model(1, 16).alltoall(len), bus + cfg.shm_copy_cost(len, 1));
        // 4x4: twelve segments through each rank's port dwarf the
        // node's six copies; 4x16 adds wire, not bus time.
        let wire = cfg.net_per_byte.cost_of(len) * 12;
        let t = model(4, 4).alltoall(len);
        assert!(wire < t && t < wire + SimTime::from_us(100), "{t}");
        assert!(model(4, 16).alltoall(len) > wire * 4);
        assert_eq!(model(4, 4).alltoall(0), SimTime::ZERO);
    }

    #[test]
    fn reduce_and_allreduce_ordering() {
        let m = model(8, 16);
        for len in [1024usize, 64 << 10, 1 << 20] {
            // An allreduce does strictly more work than a reduce.
            assert!(m.allreduce(len) > m.reduce(len), "len {len}");
        }
    }
}
