//! Schedule-exploration stress harness: sweep seeded perturbations
//! over randomized collective programs and check every run against the
//! sequential reference plus structural invariants.
//!
//! The simulator is deterministic, so any single test explores exactly
//! one interleaving. This module derives, from one `u64` seed, a whole
//! **scenario**: a cluster shape (2–8 nodes), a perturbation config
//! ([`Perturb`]: delivery jitter, bounded reordering, compute stalls,
//! an optional straggler rank, plus the dispatcher- and link-level
//! mechanisms — interrupt coalescing, AM handler stalls, per-link
//! bandwidth factors and transient dips), up to two (possibly
//! overlapping) subgroup communicators, up to two `comm_split`
//! partitions of the world ([`SplitSpec`]: round-robin or block
//! colors, optionally reversed keys, optionally one excluded rank),
//! and a program of blocking/nonblocking collective steps with
//! rotated roots. Steps may additionally carry an [`AliasMode`]:
//! an in-place blocking allreduce chained twice through the same
//! buffer, or a root-side payload buffer shared read-only between two
//! outstanding nonblocking broadcasts. [`explore_one`] runs the
//! scenario and checks:
//!
//! * **bit-exactness** — after every operation each rank verifies its
//!   buffer against the sequential reference (same oracle as
//!   `tests/nonblocking.rs`);
//! * **quiescence** — after a final verification allreduce and world
//!   barrier, every contribution channel is drained
//!   (`contrib_ready == contrib_done` on every board) and shutdown asserts the nonblocking queue is empty;
//! * **plan-cache coherence** — per-communicator `hits + misses`
//!   equals collective calls issued, and `nb_issued` matches the
//!   program's nonblocking step count;
//! * **accounting sanity** — injected-delay totals dominate the max
//!   skew.
//!
//! On failure the harness reports the exact seed and a one-line
//! reproducer command ([`repro_line`]); the seed alone regenerates the
//! scenario, so every failure replays bit-exactly, and [`shrink`] cuts
//! it down to the fewest steps and perturbation mechanisms that still
//! fail. The `explore` binary in the bench crate drives
//! [`explore_sweep`] from the command line (`--seeds N`, `--shrink
//! SEED`); `tests/stress_explore.rs` runs a small tier-1 smoke sweep.

use crate::harness::{ragged_counts, Op};
use collops::{reference_reduce, Collectives, DType, NonblockingCollectives, ReduceOp};
use shmem::ShmBuffer;
use simnet::{Faults, MachineConfig, Perturb, Sim, SimError, SimTime, SplitMix64, Topology};
use srm::{SrmComm, SrmTuning, SrmWorld};
use std::fmt;
use std::sync::{Arc, Mutex};

/// Options that pin parts of the otherwise seed-derived scenario.
#[derive(Clone, Copy, Debug)]
pub struct ExploreOpts {
    /// Fix the node count (else drawn from 2..=8 per seed).
    pub nodes: Option<usize>,
    /// Fix the tasks-per-node count (else drawn per seed, ≤ 16 ranks).
    pub tpn: Option<usize>,
    /// Upper bound on program length (drawn from 3..=max_ops).
    pub max_ops: usize,
    /// Allow subgroup-communicator steps.
    pub subgroups: bool,
    /// The worlds' [`SrmTuning::pairwise_direct_min`]: 0 forces every
    /// reduce_scatter segment down the direct route, `usize::MAX` down
    /// the staged one. Both forced sweeps must produce bit-identical
    /// results to the default one — the CI smoke runs all three. A
    /// forced route also stretches the drawn reduce_scatter segments
    /// (`ROUTE_SCALE`).
    pub pairwise_direct_min: usize,
    /// Faults planted in every scenario's world: the sweep must then
    /// *fail* (the `explore` binary's `--inject`).
    pub faults: Faults,
    /// Multiplier on the lengths of the tree operations (broadcast,
    /// reduce, allreduce). The grammar's segments stop at 8 960 bytes —
    /// recursive-doubling allreduces, single-chunk reduces and
    /// broadcasts — so 8 or 16 is what reaches the chunked pipelines.
    /// 1 (the default) derives every seed's scenario unchanged.
    pub tree_scale: usize,
    /// Replace every step's drawn operation with this one (the
    /// `explore` binary's `--ops`). The override follows the usual op
    /// draw, so `None` (the default) derives every seed's scenario
    /// unchanged.
    pub only: Option<Op>,
}

impl Default for ExploreOpts {
    fn default() -> Self {
        ExploreOpts {
            nodes: None,
            tpn: None,
            max_ops: 6,
            subgroups: true,
            pairwise_direct_min: SrmTuning::default().pairwise_direct_min,
            faults: Faults::default(),
            tree_scale: 1,
            only: None,
        }
    }
}

/// One `comm_split` partition of the world communicator, described by
/// its color/key derivation rather than explicit member lists — the
/// same spec regenerates the exact partition on replay.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SplitSpec {
    /// Number of colors (parts). Every world rank gets color
    /// `r % ncolors` (round-robin) or `r * ncolors / n` (block),
    /// unless excluded.
    pub ncolors: usize,
    /// `true` for contiguous block colors (parts align with nodes);
    /// `false` for round-robin colors (parts straddle nodes).
    pub block: bool,
    /// `true` to pass descending keys, so each part's communicator
    /// ranks run in *reverse* world-rank order.
    pub rev: bool,
    /// One world rank opted out with a negative color (its handle is
    /// `None` and it skips every step on this communicator).
    pub exclude: Option<usize>,
}

impl SplitSpec {
    /// Color of world rank `r` in an `n`-rank world, or `-1` if
    /// excluded.
    pub fn color(&self, r: usize, n: usize) -> i64 {
        if self.exclude == Some(r) {
            -1
        } else if self.block {
            (r * self.ncolors / n) as i64
        } else {
            (r % self.ncolors) as i64
        }
    }

    /// Sort key of world rank `r` (descending when `rev`).
    pub fn key(&self, r: usize) -> i64 {
        if self.rev {
            -(r as i64)
        } else {
            r as i64
        }
    }

    /// Member lists of the non-empty parts, in color order, each in
    /// communicator-rank order — exactly the partition
    /// [`srm::SrmWorld::comm_split`] builds from
    /// [`SplitSpec::color`]/[`SplitSpec::key`] slices.
    pub fn parts(&self, n: usize) -> Vec<Vec<usize>> {
        (0..self.ncolors as i64)
            .map(|c| {
                let mut members: Vec<usize> = (0..n).filter(|&r| self.color(r, n) == c).collect();
                members.sort_by_key(|&r| (self.key(r), r));
                members
            })
            .filter(|m| !m.is_empty())
            .collect()
    }
}

impl fmt::Display for SplitSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}c{}{}",
            self.ncolors,
            if self.block { "-blk" } else { "-rr" },
            if self.rev { "-rev" } else { "" }
        )?;
        if let Some(x) = self.exclude {
            write!(f, "-x{x}")?;
        }
        Ok(())
    }
}

/// Buffer-aliasing pattern attached to a program step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AliasMode {
    /// No aliasing: the step runs once on a fresh buffer.
    None,
    /// In-place chain (blocking allreduce only): run the operation
    /// **twice** through the same buffer back to back. The second
    /// round's expected result is the reduction of `n` copies of the
    /// first round's result — exercises the in-place read-after-write
    /// contract of the reduce substrate.
    ChainBlocking,
    /// Shared read-only source (nonblocking broadcast only): issue the
    /// broadcast **twice**; the root sources both from one shared
    /// buffer (read-read aliasing, which the issue-time guard admits),
    /// while every other rank lands the payloads in two distinct
    /// buffers. Both copies must verify.
    SharedRoot,
}

/// One step of a derived program. `comm` 0 is the world; higher values
/// index the scenario's subgroups and then its splits.
#[derive(Clone, Copy, Debug)]
pub struct ProgStep {
    /// The collective to run.
    pub op: Op,
    /// Communicator index: 0 = world, `1..=groups.len()` = subgroups,
    /// then one index per [`SplitSpec`] (each rank acts in its own
    /// part; an excluded rank skips the step).
    pub comm: usize,
    /// Per-rank / per-pair segment length in bytes (multiple of 8).
    pub seg: usize,
    /// Communicator-relative root (ignored by rootless ops). For a
    /// split communicator it is below every part's size.
    pub root: usize,
    /// Issue nonblocking and overlap with the following steps.
    pub nonblocking: bool,
    /// Buffer-aliasing pattern (doubles the step's call count when not
    /// [`AliasMode::None`]).
    pub alias: AliasMode,
}

/// A fully derived scenario: everything [`explore_one`] needs, a pure
/// function of `(seed, opts)`.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Number of SMP nodes.
    pub nodes: usize,
    /// Tasks per node.
    pub tpn: usize,
    /// The perturbation installed for the run.
    pub perturb: Perturb,
    /// Subgroup member lists (world ranks, ascending).
    pub groups: Vec<Vec<usize>>,
    /// `comm_split` partitions of the world, indexed after the groups.
    pub splits: Vec<SplitSpec>,
    /// The program, executed in order by every member rank.
    pub steps: Vec<ProgStep>,
}

impl Scenario {
    /// Number of world ranks.
    pub fn nranks(&self) -> usize {
        self.nodes * self.tpn
    }

    /// Total member ranks of communicator index `cidx` — the world
    /// size, a subgroup's size, or the union of a split's parts.
    pub fn members(&self, cidx: usize) -> usize {
        let n = self.nranks();
        if cidx == 0 {
            n
        } else if cidx <= self.groups.len() {
            self.groups[cidx - 1].len()
        } else {
            self.splits[cidx - 1 - self.groups.len()]
                .parts(n)
                .iter()
                .map(Vec::len)
                .sum()
        }
    }

    /// Smallest communicator a rank can land in at index `cidx` (the
    /// root bound: every part of a split must contain the root).
    pub fn min_csize(&self, cidx: usize) -> usize {
        let n = self.nranks();
        if cidx == 0 {
            n
        } else if cidx <= self.groups.len() {
            self.groups[cidx - 1].len()
        } else {
            self.splits[cidx - 1 - self.groups.len()]
                .parts(n)
                .iter()
                .map(Vec::len)
                .min()
                .expect("a split always has at least one part")
        }
    }
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "topo={}x{} groups=[", self.nodes, self.tpn)?;
        for (i, g) in self.groups.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{g:?}")?;
        }
        write!(f, "] splits=[")?;
        for (i, sp) in self.splits.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{sp}")?;
        }
        write!(f, "] steps=[")?;
        for (i, s) in self.steps.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(
                f,
                "{}{}@c{}/{}r{}{}",
                if s.nonblocking { "i" } else { "" },
                s.op.name(),
                s.comm,
                s.seg,
                s.root,
                match s.alias {
                    AliasMode::None => "",
                    AliasMode::ChainBlocking => "+chain",
                    AliasMode::SharedRoot => "+shared",
                }
            )?;
        }
        write!(f, "] perturb{{{}}}", self.perturb)
    }
}

/// Outcome of one clean scenario run.
#[derive(Clone, Debug)]
pub struct ExploreOutcome {
    /// The seed that produced the scenario.
    pub seed: u64,
    /// The derived scenario.
    pub scenario: Scenario,
    /// Virtual makespan of the run.
    pub end_time: SimTime,
    /// Final event counters.
    pub metrics: simnet::MetricsSnapshot,
}

/// One detected failure: the error plus everything needed to replay it.
#[derive(Clone, Debug)]
pub struct ExploreFailure {
    /// The seed that produced the scenario.
    pub seed: u64,
    /// The derived scenario (human-readable context).
    pub scenario: String,
    /// What went wrong (panic message, deadlock diagnosis, or a
    /// violated invariant).
    pub error: String,
    /// One-line command that reproduces the run exactly.
    pub repro: String,
}

impl fmt::Display for ExploreFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "seed 0x{:016x}: {}", self.seed, self.error)?;
        writeln!(f, "  scenario: {}", self.scenario)?;
        write!(f, "  repro: {}", self.repro)
    }
}

/// Aggregate of an [`explore_sweep`].
#[derive(Clone, Debug, Default)]
pub struct ExploreSummary {
    /// Seeds run.
    pub explored: u64,
    /// Failures, in seed order (empty on a clean sweep).
    pub failures: Vec<ExploreFailure>,
    /// Total perturbation events injected across the sweep.
    pub perturb_events: u64,
    /// Largest single injected delay seen (ps).
    pub max_skew_ps: u64,
    /// Total collective calls verified (steps × participating ranks).
    pub calls_checked: u64,
}

/// Segment sizes the grammar draws from (all multiples of 8; the rare
/// large one crosses the small-broadcast pipeline threshold).
const SEGS: [usize; 5] = [8, 64, 256, 1024, 4096];
const RARE_SEG: usize = 8960;
/// Multiplier on reduce_scatter segments under a forced route: up to
/// 140 KB, so segments of one piece or more, some with pieces across
/// segment edges, run the node leg spread over the slots
/// (`SrmComm::plan_reduce_scatter`), which the grammar's segments never
/// reach at the default 16 KB piece.
const ROUTE_SCALE: usize = 16;

/// Derive the scenario for `seed` under `opts` — pure and total, so a
/// failure report's seed regenerates it exactly.
pub fn derive_scenario(seed: u64, opts: &ExploreOpts) -> Scenario {
    let mut sm = SplitMix64(seed ^ 0x9E37_79B9_7F4A_7C15);
    let nodes = opts.nodes.unwrap_or_else(|| 2 + sm.below(7) as usize);
    let tpn = opts.tpn.unwrap_or_else(|| {
        let cap = 16 / nodes;
        *[1usize, 2, 4]
            .iter()
            .filter(|&&t| t <= cap.max(1))
            .nth(sm.below(3) as usize % [1usize, 2, 4].iter().filter(|&&t| t <= cap.max(1)).count())
            .expect("at least tpn=1 fits")
    });
    let n = nodes * tpn;

    let mut groups: Vec<Vec<usize>> = Vec::new();
    if opts.subgroups && n >= 4 {
        let ngroups = sm.below(3) as usize; // 0..=2 subgroups
        for _ in 0..ngroups {
            let mut g: Vec<usize> = (0..n).filter(|_| sm.below(2) == 1).collect();
            if g.len() < 2 {
                g = vec![0, n - 1];
            }
            groups.push(g);
        }
    }

    // comm_split partitions — drawn after the groups so their comm
    // indexes follow the group indexes. Overlap comes for free: every
    // split partitions the *whole* world, so two splits (and any
    // subgroup) share ranks.
    let mut splits: Vec<SplitSpec> = Vec::new();
    if opts.subgroups && n >= 4 {
        let nsplits = sm.below(3) as usize; // 0..=2 splits
        for _ in 0..nsplits {
            splits.push(SplitSpec {
                ncolors: 2 + sm.below(2) as usize,
                block: sm.below(2) == 1,
                rev: sm.below(2) == 1,
                exclude: (sm.below(4) == 0).then(|| sm.below(n as u64) as usize),
            });
        }
    }

    let partial = Scenario {
        nodes,
        tpn,
        perturb: Perturb::new(0),
        groups,
        splits,
        steps: Vec::new(),
    };
    let ncomms = 1 + partial.groups.len() + partial.splits.len();

    let default_direct_min = SrmTuning::default().pairwise_direct_min;
    let nsteps = 3 + sm.below(opts.max_ops.saturating_sub(2).max(1) as u64) as usize;
    let mut steps = Vec::with_capacity(nsteps);
    for _ in 0..nsteps {
        // Weight toward the world communicator.
        let comm = if ncomms == 1 || sm.below(2) == 0 {
            0
        } else {
            1 + sm.below((ncomms - 1) as u64) as usize
        };
        // Roots must be valid in *every* part of a split.
        let csize = partial.min_csize(comm);
        let seg = if sm.below(12) == 0 {
            RARE_SEG
        } else {
            SEGS[sm.below(SEGS.len() as u64) as usize]
        };
        let op = Op::ALL[sm.below(Op::ALL.len() as u64) as usize];
        let op = opts.only.unwrap_or(op);
        let seg = match op {
            Op::Bcast | Op::Reduce | Op::Allreduce => seg * opts.tree_scale,
            Op::ReduceScatter if opts.pairwise_direct_min != default_direct_min => {
                seg * ROUTE_SCALE
            }
            _ => seg,
        };
        let root = sm.below(csize as u64) as usize;
        let nonblocking = sm.below(10) < 4;
        // Aliasing patterns ride on the ops whose contracts they
        // exercise: in-place chains on blocking allreduce, a shared
        // read-only source on nonblocking broadcast.
        let alias = if op == Op::Allreduce && !nonblocking && sm.below(6) == 0 {
            AliasMode::ChainBlocking
        } else if op == Op::Bcast && nonblocking && sm.below(6) == 0 {
            AliasMode::SharedRoot
        } else {
            AliasMode::None
        };
        steps.push(ProgStep {
            op,
            comm,
            seg,
            root,
            nonblocking,
            alias,
        });
    }

    let perturb = Perturb {
        seed: sm.next_u64(),
        delivery_jitter: SimTime::from_us(sm.below(6)),
        reorder_permille: sm.below(300) as u32,
        reorder_window: SimTime::from_us(sm.below(25)),
        stall_permille: sm.below(50) as u32,
        stall_max: SimTime::from_us(1 + sm.below(6)),
        straggler: (sm.below(10) < 4).then(|| sm.below(n as u64) as usize),
        straggler_delay: SimTime::from_us(sm.below(60)),
        coalesce_permille: sm.below(120) as u32,
        coalesce_max: SimTime::from_us(1 + sm.below(8)),
        am_stall_permille: sm.below(80) as u32,
        am_stall_max: SimTime::from_us(1 + sm.below(10)),
        bw_permille: sm.below(500) as u32,
        bw_dip_permille: sm.below(40) as u32,
        bw_dip_mult: 2 + sm.below(3) as u32,
        bw_dip_window: SimTime::from_us(10 + sm.below(41)),
    };

    Scenario {
        perturb,
        steps,
        ..partial
    }
}

/// One-line command that replays seed `seed` under `opts` through the
/// bench-crate explorer binary.
pub fn repro_line(seed: u64, opts: &ExploreOpts) -> String {
    let mut s = format!(
        "cargo run --release -p srm-bench --bin explore -- --seeds 1 --start-seed 0x{seed:016x}"
    );
    if let Some(n) = opts.nodes {
        s.push_str(&format!(" --nodes {n}"));
    }
    if let Some(t) = opts.tpn {
        s.push_str(&format!(" --tpn {t}"));
    }
    if !opts.subgroups {
        s.push_str(" --no-subgroups");
    }
    match opts.pairwise_direct_min {
        0 => s.push_str(" --route direct"),
        usize::MAX => s.push_str(" --route staged"),
        _ => {}
    }
    if opts.tree_scale != 1 {
        s.push_str(&format!(" --tree-scale {}", opts.tree_scale));
    }
    if let Some(op) = opts.only {
        s.push_str(&format!(" --ops {}", op.as_str()));
    }
    s
}

/// Deterministic per-step payload: distinct bytes per (communicator
/// rank, byte index, step), so misrouted or stale segments are visible.
fn fill(comm_rank: usize, step: usize, total: usize) -> Vec<u8> {
    (0..total)
        .map(|i| (comm_rank as u64 * 131 + i as u64 * 7 + step as u64 * 29 + 3) as u8)
        .collect()
}

/// Verify this rank's buffer after `op` completed on a communicator of
/// `n` ranks (this rank is `me`), per the op's contract. `step` salts
/// the deterministic inputs.
#[allow(clippy::too_many_arguments)]
fn verify_step(
    op: Op,
    me: usize,
    n: usize,
    seg: usize,
    root: usize,
    step: usize,
    got: &[u8],
) -> Result<(), String> {
    let total = op.shape(seg, root, n).extent(n);
    let init = |r: usize| fill(r, step, total);
    let fail = |what: &str| {
        Err(format!(
            "step {step} {}: rank {me}/{n} seg={seg} root={root}: {what}",
            op.name()
        ))
    };
    // On mismatch, pinpoint the first differing byte (`off` is the
    // buffer offset of `got`'s compared range) — invaluable when
    // decoding whose payload actually landed there.
    let check = |what: &str, off: usize, got: &[u8], want: &[u8]| -> Result<(), String> {
        if got == want {
            return Ok(());
        }
        let i = got
            .iter()
            .zip(want)
            .position(|(a, b)| a != b)
            .unwrap_or(got.len().min(want.len()));
        fail(&format!(
            "{what}: first diff at byte {} (got 0x{:02x}, want 0x{:02x})",
            off + i,
            got.get(i).copied().unwrap_or(0),
            want.get(i).copied().unwrap_or(0)
        ))
    };
    match op {
        Op::Barrier => Ok(()),
        Op::Bcast => check("broadcast payload", 0, &got[..seg], &init(root)[..seg]),
        Op::Reduce | Op::Allreduce => {
            if op == Op::Reduce && me != root {
                return Ok(());
            }
            let contribs: Vec<Vec<u8>> = (0..n).map(|r| init(r)[..seg].to_vec()).collect();
            let expect = reference_reduce(DType::U64, ReduceOp::Sum, &contribs);
            check("reduction", 0, &got[..seg], &expect)
        }
        Op::Gather => {
            if me == root {
                for src in 0..n {
                    check(
                        &format!("gathered segment from rank {src}"),
                        src * seg,
                        &got[src * seg..(src + 1) * seg],
                        &init(src)[src * seg..(src + 1) * seg],
                    )?;
                }
            }
            Ok(())
        }
        Op::Scatter => check(
            "scattered segment",
            me * seg,
            &got[me * seg..(me + 1) * seg],
            &init(root)[me * seg..(me + 1) * seg],
        ),
        Op::Allgather => {
            for src in 0..n {
                check(
                    &format!("allgathered segment from rank {src}"),
                    src * seg,
                    &got[src * seg..(src + 1) * seg],
                    &init(src)[src * seg..(src + 1) * seg],
                )?;
            }
            Ok(())
        }
        Op::Alltoall => {
            let rbase = n * seg;
            for src in 0..n {
                check(
                    &format!("alltoall segment from rank {src}"),
                    rbase + src * seg,
                    &got[rbase + src * seg..rbase + (src + 1) * seg],
                    &init(src)[me * seg..(me + 1) * seg],
                )?;
            }
            Ok(())
        }
        Op::Alltoallv => {
            let rbase = n * seg;
            let counts = ragged_counts(n, seg);
            for src in 0..n {
                let c = counts[src * n + me];
                check(
                    &format!("alltoallv live prefix from rank {src}"),
                    rbase + src * seg,
                    &got[rbase + src * seg..rbase + src * seg + c],
                    &init(src)[me * seg..me * seg + c],
                )?;
            }
            Ok(())
        }
        Op::ReduceScatter => {
            let contribs: Vec<Vec<u8>> = (0..n).map(init).collect();
            let expect = reference_reduce(DType::U64, ReduceOp::Sum, &contribs);
            check(
                "reduce_scatter block",
                me * seg,
                &got[me * seg..(me + 1) * seg],
                &expect[me * seg..(me + 1) * seg],
            )
        }
    }
}

/// Quiescence check: every contribution channel on every board this
/// rank can see is drained — cumulative publish counts equal cumulative
/// consume counts.
fn check_quiescent(comm: &SrmComm, tag: &str) {
    let board = comm.board();
    for (slot, (r, d)) in board
        .contrib_ready
        .iter()
        .zip(board.contrib_done.iter())
        .enumerate()
    {
        assert_eq!(
            r.peek(),
            d.peek(),
            "{tag}: contribution channel slot {slot} not drained"
        );
    }
}

/// Run the scenario derived from `seed`; check bit-exactness and all
/// structural invariants. Returns the outcome, or a failure with the
/// reproducer line.
pub fn explore_one(seed: u64, opts: &ExploreOpts) -> Result<ExploreOutcome, ExploreFailure> {
    run_scenario(seed, derive_scenario(seed, opts), opts)
}

/// Run a (possibly hand-modified) scenario. [`explore_one`] is the
/// normal entry; this one exists so tests can replay a derived
/// scenario with individual perturbation knobs changed.
pub fn run_scenario(
    seed: u64,
    scenario: Scenario,
    opts: &ExploreOpts,
) -> Result<ExploreOutcome, ExploreFailure> {
    let fail = |error: String| ExploreFailure {
        seed,
        scenario: scenario.to_string(),
        error,
        repro: repro_line(seed, opts),
    };

    let topo = Topology::new(scenario.nodes, scenario.tpn);
    let n = topo.nprocs();
    let mut sim = Sim::new(MachineConfig::ibm_sp_colony());
    sim.set_perturb(scenario.perturb);
    sim.set_faults(opts.faults);
    let tuning = SrmTuning {
        pairwise_direct_min: opts.pairwise_direct_min,
        ..SrmTuning::default()
    };
    let world = SrmWorld::new(&mut sim, topo, tuning);

    // Build subgroup and split communicators; per rank, its handle at
    // each comm index. `comm_ids[cidx]` lists `(comm id, size)` of
    // every constituent communicator: one entry for the world or a
    // subgroup, one entry per part for a split.
    let mut sub_of: Vec<Vec<Option<SrmComm>>> = (0..n).map(|_| Vec::new()).collect();
    let mut comm_ids: Vec<Vec<(u64, usize)>> = vec![vec![(0, n)]]; // world is comm 0
    for g in &scenario.groups {
        let handles = world.comm_create(g);
        comm_ids.push(vec![(handles[0].comm_id(), g.len())]);
        let mut by_rank: Vec<Option<SrmComm>> = (0..n).map(|_| None).collect();
        for (h, &r) in handles.into_iter().zip(g) {
            by_rank[r] = Some(h);
        }
        for (r, slot) in by_rank.into_iter().enumerate() {
            sub_of[r].push(slot);
        }
    }
    for sp in &scenario.splits {
        let colors: Vec<i64> = (0..n).map(|r| sp.color(r, n)).collect();
        let keys: Vec<i64> = (0..n).map(|r| sp.key(r)).collect();
        let by_rank = world.comm_split(&colors, &keys);
        comm_ids.push(
            sp.parts(n)
                .iter()
                .map(|part| {
                    let h = by_rank[part[0]].as_ref().expect("part member has a handle");
                    (h.comm_id(), part.len())
                })
                .collect(),
        );
        for (r, slot) in by_rank.into_iter().enumerate() {
            sub_of[r].push(slot);
        }
    }

    let steps = Arc::new(scenario.steps.clone());
    let errors: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    for (rank, subs) in sub_of.into_iter().enumerate() {
        let wcomm = world.comm(rank);
        let steps = steps.clone();
        let errors = errors.clone();
        sim.spawn(format!("rank{rank}"), move |ctx| {
            let comm_of = |idx: usize| -> Option<&SrmComm> {
                if idx == 0 {
                    Some(&wcomm)
                } else {
                    subs[idx - 1].as_ref()
                }
            };
            // Outstanding nonblocking steps: (step idx, request, buf,
            // comm idx), waited in issue order at the next barrier
            // point (a blocking step this rank runs, or program end).
            let mut outstanding: Vec<(usize, collops::CollRequest, ShmBuffer, usize)> = Vec::new();
            let mut report = |e: String| errors.lock().expect("error log poisoned").push(e);
            let drain = |ctx: &simnet::Ctx,
                         outstanding: &mut Vec<(usize, collops::CollRequest, ShmBuffer, usize)>,
                         report: &mut dyn FnMut(String)| {
                for (i, req, buf, cidx) in outstanding.drain(..) {
                    let c = match cidx {
                        0 => &wcomm,
                        _ => subs[cidx - 1].as_ref().expect("issued on a member rank"),
                    };
                    c.wait(ctx, req);
                    let s = steps[i];
                    let got = buf.with(|d| d.to_vec());
                    if let Err(e) =
                        verify_step(s.op, c.comm_rank(), c.size(), s.seg, s.root, i, &got)
                    {
                        report(e);
                    }
                }
            };
            for (i, s) in steps.iter().enumerate() {
                let Some(c) = comm_of(s.comm) else { continue };
                let (me, csize) = (c.comm_rank(), c.size());
                let shape = s.op.shape(s.seg, s.root, csize);
                let total = shape.extent(csize);
                let buf = c.alloc_buffer(total);
                buf.with_mut(|d| d.copy_from_slice(&fill(me, i, total)));
                let sum = Some((DType::U64, ReduceOp::Sum));
                if s.nonblocking {
                    let req = c.issue(&ctx, shape.clone(), &buf, sum);
                    outstanding.push((i, req, buf.clone(), s.comm));
                    if s.alias == AliasMode::SharedRoot {
                        // Second broadcast of the same step: the root
                        // re-sources its shared (read-only) payload,
                        // everyone else lands into a fresh buffer.
                        let buf2 = if me == s.root {
                            buf
                        } else {
                            let b = c.alloc_buffer(total);
                            b.with_mut(|d| d.copy_from_slice(&fill(me, i, total)));
                            b
                        };
                        let req2 = c.issue(&ctx, shape, &buf2, sum);
                        outstanding.push((i, req2, buf2, s.comm));
                    }
                    // A slice of overlapped compute before the next step.
                    ctx.advance(SimTime::from_us(3));
                } else {
                    drain(&ctx, &mut outstanding, &mut report);
                    let c = comm_of(s.comm).expect("membership is static");
                    let run = || c.call(&ctx, shape.clone(), &buf, sum);
                    run();
                    if s.alias == AliasMode::ChainBlocking {
                        // In-place chain: feed round 1's result straight
                        // back through the same buffer. Every rank now
                        // contributes the identical round-1 sum, so the
                        // expected result is that sum reduced n times.
                        run();
                        let contribs: Vec<Vec<u8>> = (0..csize)
                            .map(|r| fill(r, i, total)[..s.seg].to_vec())
                            .collect();
                        let round1 = reference_reduce(DType::U64, ReduceOp::Sum, &contribs);
                        let expect =
                            reference_reduce(DType::U64, ReduceOp::Sum, &vec![round1; csize]);
                        let got = buf.with(|d| d[..s.seg].to_vec());
                        if got != expect {
                            report(format!(
                                "step {i} chained allreduce: rank {me}/{csize} seg={} : \
                                 round-2 result does not match the rereduced round-1 sum",
                                s.seg
                            ));
                        }
                    } else {
                        let got = buf.with(|d| d.to_vec());
                        if let Err(e) = verify_step(s.op, me, csize, s.seg, s.root, i, &got) {
                            report(e);
                        }
                    }
                }
            }
            drain(&ctx, &mut outstanding, &mut report);

            // Final verification allreduce + barrier, then quiescence.
            let vstep = steps.len();
            let vbuf = wcomm.alloc_buffer(64);
            vbuf.with_mut(|d| d.copy_from_slice(&fill(rank, vstep, 64)));
            wcomm.allreduce(&ctx, &vbuf, 64, DType::U64, ReduceOp::Sum);
            let got = vbuf.with(|d| d.to_vec());
            if let Err(e) = verify_step(Op::Allreduce, rank, n, 64, 0, vstep, &got) {
                report(format!("final verification: {e}"));
            }
            wcomm.barrier(&ctx);
            check_quiescent(&wcomm, "world");
            for sub in subs.iter().flatten() {
                check_quiescent(sub, "subgroup");
            }
            wcomm.shutdown(&ctx);
        });
    }

    let report = match sim.run() {
        Ok(r) => r,
        Err(SimError::Deadlock { blocked }) => {
            let mut msg = String::from("deadlock:");
            for b in blocked.iter().take(6) {
                msg.push_str(&format!(" [{} @{} on '{}']", b.name, b.time, b.waiting_on));
            }
            return Err(fail(msg));
        }
        Err(e) => return Err(fail(format!("{e:?}"))),
    };
    let data_errors = Arc::try_unwrap(errors)
        .expect("all LPs joined")
        .into_inner()
        .expect("error log poisoned");
    if let Some(first) = data_errors.first() {
        return Err(fail(format!(
            "{} data check failure(s); first: {first}",
            data_errors.len()
        )));
    }

    // Plan-cache coherence: per constituent communicator, hits +
    // misses equals the collective calls issued on it (program steps
    // on that comm index — aliased steps run their operation twice —
    // plus the final allreduce + barrier on the world, each once per
    // member rank).
    let step_weight = |s: &ProgStep| if s.alias == AliasMode::None { 1u64 } else { 2 };
    for (cidx, ids) in comm_ids.iter().enumerate() {
        let calls: u64 = scenario
            .steps
            .iter()
            .filter(|s| s.comm == cidx)
            .map(step_weight)
            .sum::<u64>()
            + if cidx == 0 { 2 } else { 0 };
        for &(cid, size) in ids {
            let expect = calls * size as u64;
            let row = report.by_comm.iter().find(|r| r.comm == cid);
            let got = row.map_or(0, |r| r.plan_hits + r.plan_misses);
            if got != expect {
                return Err(fail(format!(
                    "plan-cache incoherent on comm {cid}: hits+misses={got}, expected \
                     {expect} ({calls} calls x {size} ranks)"
                )));
            }
        }
    }
    let expect_nb: u64 = scenario
        .steps
        .iter()
        .filter(|s| s.nonblocking)
        .map(|s| step_weight(s) * scenario.members(s.comm) as u64)
        .sum();
    if report.metrics.nb_issued != expect_nb {
        return Err(fail(format!(
            "nb accounting: nb_issued={}, expected {expect_nb}",
            report.metrics.nb_issued
        )));
    }
    if report.metrics.perturb_delay_ps < report.metrics.perturb_max_skew_ps {
        return Err(fail(format!(
            "perturb accounting: total delay {} < max skew {}",
            report.metrics.perturb_delay_ps, report.metrics.perturb_max_skew_ps
        )));
    }
    // The dispatcher- and link-level counters are subsets of the
    // overall perturbation event count.
    if report.metrics.perturb_dispatch_events + report.metrics.perturb_bw_events
        > report.metrics.perturb_events
    {
        return Err(fail(format!(
            "perturb accounting: dispatch {} + bw {} exceed total events {}",
            report.metrics.perturb_dispatch_events,
            report.metrics.perturb_bw_events,
            report.metrics.perturb_events
        )));
    }

    Ok(ExploreOutcome {
        seed,
        scenario,
        end_time: report.end_time,
        metrics: report.metrics,
    })
}

/// Sweep `count` consecutive seeds starting at `start`. Never panics;
/// failures are collected with their reproducer lines.
pub fn explore_sweep(start: u64, count: u64, opts: &ExploreOpts) -> ExploreSummary {
    let mut summary = ExploreSummary::default();
    for seed in start..start.saturating_add(count) {
        summary.explored += 1;
        match explore_one(seed, opts) {
            Ok(out) => {
                summary.perturb_events += out.metrics.perturb_events;
                summary.max_skew_ps = summary.max_skew_ps.max(out.metrics.perturb_max_skew_ps);
                let n = out.scenario.nranks() as u64;
                summary.calls_checked += out
                    .scenario
                    .steps
                    .iter()
                    .map(|s| {
                        let w = if s.alias == AliasMode::None { 1u64 } else { 2 };
                        w * out.scenario.members(s.comm) as u64
                    })
                    .sum::<u64>()
                    + 2 * n;
            }
            Err(f) => summary.failures.push(f),
        }
    }
    summary
}

/// The perturbation mechanisms [`shrink`] tries to switch off, each
/// as the edit that switches it off.
const KNOBS: [fn(&mut Perturb); 8] = [
    |p| p.delivery_jitter = SimTime::ZERO,
    |p| p.reorder_permille = 0,
    |p| p.stall_permille = 0,
    |p| p.straggler = None,
    |p| p.coalesce_permille = 0,
    |p| p.am_stall_permille = 0,
    |p| p.bw_permille = 0,
    |p| p.bw_dip_permille = 0,
];

/// Delta-debug the scenario `seed` derives under `opts`: drop program
/// steps one at a time until no single drop still fails, then switch
/// off perturbation mechanisms one at a time, keeping each cut under
/// which [`run_scenario`] still fails. Returns the smallest failing
/// scenario found and its failure, or `None` if the seed passes.
pub fn shrink(seed: u64, opts: &ExploreOpts) -> Option<(Scenario, ExploreFailure)> {
    let fails = |s: &Scenario| run_scenario(seed, s.clone(), opts).err();
    let mut best = derive_scenario(seed, opts);
    let mut failure = fails(&best)?;
    loop {
        let before = best.steps.len();
        let mut i = 0;
        while i < best.steps.len() {
            let mut cand = best.clone();
            cand.steps.remove(i);
            match fails(&cand) {
                Some(f) => (best, failure) = (cand, f),
                None => i += 1,
            }
        }
        if best.steps.len() == before {
            break;
        }
    }
    for off in KNOBS {
        let mut cand = best.clone();
        off(&mut cand.perturb);
        if cand.perturb != best.perturb {
            if let Some(f) = fails(&cand) {
                (best, failure) = (cand, f);
            }
        }
    }
    Some((best, failure))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derivation_is_deterministic() {
        let opts = ExploreOpts::default();
        let a = derive_scenario(12345, &opts);
        let b = derive_scenario(12345, &opts);
        assert_eq!(a.to_string(), b.to_string());
        let c = derive_scenario(12346, &opts);
        assert_ne!(a.to_string(), c.to_string());
    }

    #[test]
    fn derivation_respects_bounds() {
        let opts = ExploreOpts::default();
        for seed in 0..200 {
            let s = derive_scenario(seed, &opts);
            let n = s.nranks();
            assert!((2..=8).contains(&s.nodes));
            assert!((2..=16).contains(&n));
            assert!((3..=opts.max_ops).contains(&s.steps.len()));
            for g in &s.groups {
                assert!(g.len() >= 2);
                assert!(g.iter().all(|&r| r < n));
            }
            for sp in &s.splits {
                assert!((2..=3).contains(&sp.ncolors));
                let parts = sp.parts(n);
                assert!(!parts.is_empty());
                // The parts partition the non-excluded ranks exactly.
                let covered: usize = parts.iter().map(Vec::len).sum();
                assert_eq!(covered, n - usize::from(sp.exclude.is_some()));
                for p in &parts {
                    assert!(p.iter().all(|&r| r < n && sp.exclude != Some(r)));
                }
            }
            for st in &s.steps {
                assert_eq!(st.seg % 8, 0);
                assert!(st.comm < 1 + s.groups.len() + s.splits.len());
                // The root index is valid in every constituent part.
                assert!(st.root < s.min_csize(st.comm));
                match st.alias {
                    AliasMode::None => {}
                    AliasMode::ChainBlocking => {
                        assert_eq!(st.op, Op::Allreduce);
                        assert!(!st.nonblocking);
                    }
                    AliasMode::SharedRoot => {
                        assert_eq!(st.op, Op::Bcast);
                        assert!(st.nonblocking);
                    }
                }
            }
        }
    }

    #[test]
    fn split_spec_orders_parts() {
        // 8 ranks, 2 round-robin colors, reversed keys, rank 3 excluded.
        let sp = SplitSpec {
            ncolors: 2,
            block: false,
            rev: true,
            exclude: Some(3),
        };
        let parts = sp.parts(8);
        assert_eq!(parts, vec![vec![6, 4, 2, 0], vec![7, 5, 1]]);
        // Block colors carve contiguous ranges.
        let sp = SplitSpec {
            ncolors: 3,
            block: true,
            rev: false,
            exclude: None,
        };
        assert_eq!(sp.parts(6), vec![vec![0, 1], vec![2, 3], vec![4, 5]]);
    }

    #[test]
    fn fixed_topology_is_honoured() {
        let opts = ExploreOpts {
            nodes: Some(4),
            tpn: Some(2),
            ..ExploreOpts::default()
        };
        for seed in 0..50 {
            let s = derive_scenario(seed, &opts);
            assert_eq!((s.nodes, s.tpn), (4, 2));
        }
        assert!(repro_line(7, &opts).contains("--nodes 4 --tpn 2"));
    }

    #[test]
    fn tree_scale_stretches_the_tree_ops_only() {
        let scaled = ExploreOpts {
            tree_scale: 8,
            ..ExploreOpts::default()
        };
        for seed in 0..50 {
            let (a, b) = (
                derive_scenario(seed, &ExploreOpts::default()),
                derive_scenario(seed, &scaled),
            );
            for (x, y) in a.steps.iter().zip(&b.steps) {
                let tree = matches!(x.op, Op::Bcast | Op::Reduce | Op::Allreduce);
                assert_eq!(y.seg, x.seg * if tree { 8 } else { 1 });
                assert_eq!((x.op, x.comm, x.root), (y.op, y.comm, y.root));
            }
        }
        assert!(repro_line(7, &scaled).ends_with("--tree-scale 8"));
        assert!(!repro_line(7, &ExploreOpts::default()).contains("tree-scale"));
    }

    #[test]
    fn only_replaces_the_drawn_op_and_keeps_the_world() {
        let only = ExploreOpts {
            only: Some(Op::Bcast),
            ..ExploreOpts::default()
        };
        for seed in 0..50 {
            let (a, b) = (
                derive_scenario(seed, &ExploreOpts::default()),
                derive_scenario(seed, &only),
            );
            assert_eq!(
                (a.nodes, a.tpn, &a.groups, &a.splits),
                (b.nodes, b.tpn, &b.groups, &b.splits)
            );
            assert!(b.steps.iter().all(|s| s.op == Op::Bcast));
            // Until the first step whose draws depend on its op, the
            // program is the same one.
            let (x, y) = (&a.steps[0], &b.steps[0]);
            assert_eq!((x.comm, x.seg), (y.comm, y.seg));
        }
        assert!(repro_line(7, &only).ends_with("--ops bcast"));
    }
}
