//! Seeded perturbation: deterministic fault injection for schedule
//! exploration.
//!
//! The kernel is bit-deterministic, so every test explores exactly
//! *one* interleaving of a protocol. The paper's protocols (parity-slot
//! reuse, cumulative flag sequences, credit windows) are correct only
//! under ordering invariants that deterministic replay cannot probe.
//! This module adds a **perturbation layer**: a [`Perturb`] config
//! installed with [`Sim::set_perturb`](crate::Sim::set_perturb) that
//! injects controlled variance at seven kinds of points:
//!
//! * **delivery jitter** — every network delivery (put, active message,
//!   get reply) may be delayed by up to [`Perturb::delivery_jitter`];
//! * **bounded reordering** — with probability
//!   [`Perturb::reorder_permille`]/1000 a delivery is additionally held
//!   back by up to [`Perturb::reorder_window`], letting deliveries from
//!   *other* source–destination pairs overtake it;
//! * **compute stalls** — each LP scheduling point ([`Ctx::advance`],
//!   [`Ctx::wait_any_until`], the nonblocking executor's park/unpark)
//!   stalls with probability [`Perturb::stall_permille`]/1000 for up to
//!   [`Perturb::stall_max`];
//! * **straggler mode** — one chosen rank's entry into every collective
//!   is delayed by up to [`Perturb::straggler_delay`];
//! * **interrupt coalescing** — every interrupt a dispatcher takes may
//!   be followed by an extra coalescing delay of up to
//!   [`Perturb::coalesce_max`] (probability
//!   [`Perturb::coalesce_permille`]/1000), modelling adapters that
//!   batch interrupt delivery;
//! * **handler stalls** — each message dispatch point (an RMA
//!   dispatcher delivering a payload or running an AM handler, an MPI
//!   endpoint matching a receive) may stall for up to
//!   [`Perturb::am_stall_max`] (probability
//!   [`Perturb::am_stall_permille`]/1000), modelling slow handlers and
//!   preempted LAPI threads;
//! * **bandwidth variation** — every directed link `(src, dst)` gets a
//!   static wire-time stretch of up to [`Perturb::bw_permille`]/1000
//!   (a pure hash of `(seed, src, dst)`, so heterogeneity is stable
//!   across a run), and with probability
//!   [`Perturb::bw_dip_permille`]/1000 a link enters a **transient
//!   dip**: for [`Perturb::bw_dip_window`] its wire times are
//!   multiplied by [`Perturb::bw_dip_mult`]. Dips are asymmetric —
//!   `(a, b)` can dip while `(b, a)` runs at full speed.
//!
//! [`Ctx::advance`]: crate::Ctx::advance
//! [`Ctx::wait_any_until`]: crate::Ctx::wait_any_until
//!
//! ## Legal-delivery bound
//!
//! Jitter only ever *adds* latency, and the per-ordered-pair clamp in
//! `PerturbState::delivery` keeps deliveries between one `(src, dst)`
//! pair in their unperturbed (link-serialized) order. So every
//! perturbed delivery schedule is one the real network could have
//! produced: LAPI-style RMA guarantees neither global ordering nor
//! bounded latency, only eventual per-link delivery. Cross-pair
//! reordering and arbitrary slowdowns are legal; same-pair reordering
//! (which the simulated wire never produces, because the origin port
//! serializes) is not injected either.
//!
//! ## Determinism
//!
//! All randomness comes from one [`Xoshiro256`] stream seeded with
//! [`Perturb::seed`] via [`SplitMix64`] — no OS entropy. Draws happen
//! only while an LP holds the kernel turn, and the kernel's
//! minimum-time-first schedule is itself deterministic, so the draw
//! order — and therefore the entire run — replays bit-exactly from
//! `(seed, config)` alone. The static link factor does not draw from
//! the stream at all: it is a pure hash of `(seed, src, dst)`.
//! Disabled mechanisms consume no draws, so a config that only enables
//! the original mechanisms replays their exact PR 7 streams. Every
//! injected event is counted in [`Metrics`](crate::Metrics)
//! (`perturb_events`, `perturb_delay_ps`, `perturb_max_skew_ps`, with
//! dispatcher-side and link-level events additionally broken out as
//! `perturb_dispatch_events` / `perturb_bw_events`) and recorded in an
//! attached [`Trace`](crate::Trace) under `perturb:*` labels.

use crate::time::SimTime;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;

/// SplitMix64: the seeding generator (one multiply-xorshift pipeline
/// per draw). Used to expand a single `u64` seed into the
/// [`Xoshiro256`] state, and available to harnesses that need a cheap
/// independent stream.
#[derive(Clone, Debug)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// Next 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// xoshiro256** — the perturbation layer's main stream.
#[derive(Clone, Debug)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// State expanded from `seed` with [`SplitMix64`].
    pub fn seeded(seed: u64) -> Self {
        let mut sm = SplitMix64(seed);
        Xoshiro256 {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }

    /// Next 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform draw in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Bernoulli draw: true with probability `permille`/1000.
    pub fn chance(&mut self, permille: u32) -> bool {
        permille > 0 && self.below(1000) < u64::from(permille)
    }

    /// Uniform time in `[0, max]` (ZERO when `max` is ZERO).
    pub fn time_in(&mut self, max: SimTime) -> SimTime {
        if max.is_zero() {
            SimTime::ZERO
        } else {
            SimTime(self.below(max.0 + 1))
        }
    }
}

/// Perturbation configuration: `(seed, bounds)`. The default disables
/// every mechanism; [`Perturb::standard`] is the moderate preset the
/// stress harness and the perturbed test variants use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Perturb {
    /// PRNG seed; with the same config, the seed alone selects the run.
    pub seed: u64,
    /// Max extra latency added to every network delivery (0 disables).
    pub delivery_jitter: SimTime,
    /// Per-mille chance a delivery is additionally held back.
    pub reorder_permille: u32,
    /// Max hold-back of a reordered delivery.
    pub reorder_window: SimTime,
    /// Per-mille chance each LP scheduling point injects a stall.
    pub stall_permille: u32,
    /// Max injected stall duration.
    pub stall_max: SimTime,
    /// World rank whose entry into every collective is delayed.
    pub straggler: Option<usize>,
    /// Max straggler entry delay.
    pub straggler_delay: SimTime,
    /// Per-mille chance each taken interrupt is followed by an extra
    /// coalescing delay (dispatcher-side; 0 disables).
    pub coalesce_permille: u32,
    /// Max interrupt-coalescing delay.
    pub coalesce_max: SimTime,
    /// Per-mille chance each message dispatch point (RMA delivery, AM
    /// handler entry, MPI receive match) injects a handler stall.
    pub am_stall_permille: u32,
    /// Max injected handler-stall duration.
    pub am_stall_max: SimTime,
    /// Upper bound, in permille of the nominal wire time, on the
    /// static per-directed-link stretch. Each link's actual stretch is
    /// a pure hash of `(seed, src, dst)` in `0..=bw_permille`, so link
    /// heterogeneity is stable for the whole run (0 disables).
    pub bw_permille: u32,
    /// Per-mille chance a wire-time query starts a transient dip on
    /// its directed link (0 disables dips).
    pub bw_dip_permille: u32,
    /// Wire-time multiplier while a link is dipped (values below 2
    /// make dips a no-op).
    pub bw_dip_mult: u32,
    /// Duration of one transient dip.
    pub bw_dip_window: SimTime,
}

impl Default for Perturb {
    fn default() -> Self {
        Perturb::new(0)
    }
}

impl Perturb {
    /// Everything disabled; only the seed set.
    pub fn new(seed: u64) -> Self {
        Perturb {
            seed,
            delivery_jitter: SimTime::ZERO,
            reorder_permille: 0,
            reorder_window: SimTime::ZERO,
            stall_permille: 0,
            stall_max: SimTime::ZERO,
            straggler: None,
            straggler_delay: SimTime::ZERO,
            coalesce_permille: 0,
            coalesce_max: SimTime::ZERO,
            am_stall_permille: 0,
            am_stall_max: SimTime::ZERO,
            bw_permille: 0,
            bw_dip_permille: 0,
            bw_dip_mult: 0,
            bw_dip_window: SimTime::ZERO,
        }
    }

    /// Moderate all-mechanism preset (no straggler): a few microseconds
    /// of delivery jitter, occasional bounded hold-backs, compute and
    /// handler stalls, mild link heterogeneity with rare short dips —
    /// enough to shuffle schedules without dominating them.
    pub fn standard(seed: u64) -> Self {
        Perturb {
            seed,
            delivery_jitter: SimTime::from_us(3),
            reorder_permille: 150,
            reorder_window: SimTime::from_us(20),
            stall_permille: 25,
            stall_max: SimTime::from_us(5),
            straggler: None,
            straggler_delay: SimTime::ZERO,
            coalesce_permille: 40,
            coalesce_max: SimTime::from_us(2),
            am_stall_permille: 30,
            am_stall_max: SimTime::from_us(3),
            bw_permille: 200,
            bw_dip_permille: 15,
            bw_dip_mult: 3,
            bw_dip_window: SimTime::from_us(20),
        }
    }

    /// Same config with straggler mode on `rank`, delayed up to `max`
    /// at every collective entry.
    pub fn with_straggler(mut self, rank: usize, max: SimTime) -> Self {
        self.straggler = Some(rank);
        self.straggler_delay = max;
        self
    }

    /// Is any mechanism enabled?
    pub fn is_active(&self) -> bool {
        !self.delivery_jitter.is_zero()
            || self.reorder_permille > 0
            || self.stall_permille > 0
            || self.straggler.is_some()
            || self.coalesce_permille > 0
            || self.am_stall_permille > 0
            || self.bw_permille > 0
            || self.bw_dip_permille > 0
    }
}

impl fmt::Display for Perturb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "seed=0x{:016x} jitter={} reorder={}%o/{} stall={}%o/{} straggler=",
            self.seed,
            self.delivery_jitter,
            self.reorder_permille,
            self.reorder_window,
            self.stall_permille,
            self.stall_max,
        )?;
        match self.straggler {
            Some(r) => write!(f, "{r}/{}", self.straggler_delay)?,
            None => write!(f, "none")?,
        }
        write!(
            f,
            " coalesce={}%o/{} amstall={}%o/{} bw={}%o dip={}%o x{}/{}",
            self.coalesce_permille,
            self.coalesce_max,
            self.am_stall_permille,
            self.am_stall_max,
            self.bw_permille,
            self.bw_dip_permille,
            self.bw_dip_mult,
            self.bw_dip_window,
        )
    }
}

/// Live state of the perturbation layer: the config plus the PRNG and
/// the per-ordered-pair delivery clamp. Owned by the kernel
/// (`Shared`); all access is through [`Ctx`](crate::Ctx) hook methods,
/// which serialize on the kernel turn.
pub(crate) struct PerturbState {
    cfg: Perturb,
    inner: Mutex<PerturbInner>,
}

struct PerturbInner {
    rng: Xoshiro256,
    /// Latest perturbed delivery time issued per ordered `(src, dst)`
    /// pair — the clamp that preserves per-pair delivery order.
    last_delivery: HashMap<(usize, usize), SimTime>,
    /// Expiry time of the transient bandwidth dip active on each
    /// directed link, if any.
    dip_until: HashMap<(usize, usize), SimTime>,
}

/// Outcome of one wire-time query ([`PerturbState::wire`]): the extra
/// wire time and whether a transient dip contributed to it.
pub(crate) struct WireStretch {
    pub(crate) added: SimTime,
    pub(crate) dip: bool,
}

impl PerturbState {
    pub(crate) fn new(cfg: Perturb) -> Self {
        PerturbState {
            cfg,
            inner: Mutex::new(PerturbInner {
                rng: Xoshiro256::seeded(cfg.seed),
                last_delivery: HashMap::new(),
                dip_until: HashMap::new(),
            }),
        }
    }

    /// Jitter (and possibly hold back) one delivery from `src` to
    /// `dst` scheduled at `at`. Returns the perturbed delivery time:
    /// never earlier than `at`, and never earlier than the last
    /// perturbed delivery of the same ordered pair.
    pub(crate) fn delivery(&self, src: usize, dst: usize, at: SimTime) -> SimTime {
        let mut inner = self.inner.lock();
        let mut new_at = at + inner.rng.time_in(self.cfg.delivery_jitter);
        if inner.rng.chance(self.cfg.reorder_permille) {
            new_at += inner.rng.time_in(self.cfg.reorder_window);
        }
        if let Some(&floor) = inner.last_delivery.get(&(src, dst)) {
            new_at = new_at.max(floor);
        }
        inner.last_delivery.insert((src, dst), new_at);
        new_at
    }

    /// Draw one scheduling-point stall: `Some(duration)` with
    /// probability `stall_permille`/1000, `None` otherwise.
    pub(crate) fn stall(&self) -> Option<SimTime> {
        let mut inner = self.inner.lock();
        if !inner.rng.chance(self.cfg.stall_permille) {
            return None;
        }
        let d = inner.rng.time_in(self.cfg.stall_max);
        (!d.is_zero()).then_some(d)
    }

    /// Draw the straggler delay for `rank`'s entry into a collective
    /// (None unless `rank` is the configured straggler).
    pub(crate) fn straggler(&self, rank: usize) -> Option<SimTime> {
        if self.cfg.straggler != Some(rank) {
            return None;
        }
        let d = self.inner.lock().rng.time_in(self.cfg.straggler_delay);
        (!d.is_zero()).then_some(d)
    }

    /// Draw one interrupt-coalescing delay: `Some(duration)` with
    /// probability `coalesce_permille`/1000, `None` otherwise. Consumes
    /// no draw when the mechanism is disabled, so enabling only the
    /// PR 7 mechanisms replays their exact streams.
    pub(crate) fn coalesce(&self) -> Option<SimTime> {
        let mut inner = self.inner.lock();
        if !inner.rng.chance(self.cfg.coalesce_permille) {
            return None;
        }
        let d = inner.rng.time_in(self.cfg.coalesce_max);
        (!d.is_zero()).then_some(d)
    }

    /// Draw one dispatch-point handler stall: `Some(duration)` with
    /// probability `am_stall_permille`/1000, `None` otherwise.
    pub(crate) fn am_stall(&self) -> Option<SimTime> {
        let mut inner = self.inner.lock();
        if !inner.rng.chance(self.cfg.am_stall_permille) {
            return None;
        }
        let d = inner.rng.time_in(self.cfg.am_stall_max);
        (!d.is_zero()).then_some(d)
    }

    /// Static stretch of link `(src, dst)` in permille of the nominal
    /// wire time: a pure hash of `(seed, src, dst)`, independent of
    /// draw order, so the same link is slow for the whole run.
    pub(crate) fn link_permille(&self, src: usize, dst: usize) -> u64 {
        if self.cfg.bw_permille == 0 {
            return 0;
        }
        let mut sm = SplitMix64(
            self.cfg.seed
                ^ (src as u64).wrapping_mul(0xA076_1D64_78BD_642F)
                ^ (dst as u64).wrapping_mul(0xE703_7ED1_A0B4_28DB),
        );
        sm.next_u64() % (u64::from(self.cfg.bw_permille) + 1)
    }

    /// Stretch one wire time of `wire` on directed link `(src, dst)` at
    /// virtual time `now`: the static per-link factor plus, while the
    /// link is dipped (or a fresh dip draw hits), the transient
    /// multiplier. Zero-length wires are never stretched and never
    /// start dips.
    pub(crate) fn wire(&self, src: usize, dst: usize, now: SimTime, wire: SimTime) -> WireStretch {
        if wire.is_zero() {
            return WireStretch {
                added: SimTime::ZERO,
                dip: false,
            };
        }
        let mut added = SimTime(wire.0 * self.link_permille(src, dst) / 1000);
        let mut dip = false;
        if self.cfg.bw_dip_permille > 0 {
            let mut inner = self.inner.lock();
            let active = inner
                .dip_until
                .get(&(src, dst))
                .is_some_and(|&until| now < until);
            let started = !active && inner.rng.chance(self.cfg.bw_dip_permille);
            if started {
                inner
                    .dip_until
                    .insert((src, dst), now + self.cfg.bw_dip_window);
            }
            if active || started {
                dip = true;
                added += wire * u64::from(self.cfg.bw_dip_mult.saturating_sub(1));
            }
        }
        WireStretch { added, dip }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_varies() {
        let mut a = SplitMix64(42);
        let mut b = SplitMix64(42);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        let mut c = SplitMix64(43);
        let zs: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_ne!(xs, zs);
        // Not constant.
        assert!(xs.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn xoshiro_same_seed_same_stream() {
        let mut a = Xoshiro256::seeded(7);
        let mut b = Xoshiro256::seeded(7);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Xoshiro256::seeded(8);
        let same = (0..64).filter(|_| a.next_u64() == c.next_u64()).count();
        assert!(same < 4, "streams of different seeds nearly identical");
    }

    #[test]
    fn draws_respect_bounds() {
        let mut r = Xoshiro256::seeded(1);
        for _ in 0..1000 {
            assert!(r.below(13) < 13);
            let t = r.time_in(SimTime::from_us(5));
            assert!(t <= SimTime::from_us(5));
        }
        assert!(!r.chance(0));
        assert!(r.chance(1000));
        assert_eq!(r.time_in(SimTime::ZERO), SimTime::ZERO);
    }

    #[test]
    fn delivery_clamp_preserves_pair_order() {
        let cfg = Perturb {
            delivery_jitter: SimTime::from_us(10),
            reorder_permille: 500,
            reorder_window: SimTime::from_us(50),
            ..Perturb::new(3)
        };
        let st = PerturbState::new(cfg);
        let mut last = SimTime::ZERO;
        for i in 0..200u64 {
            let at = SimTime::from_us(i); // unperturbed order is monotone
            let got = st.delivery(0, 1, at);
            assert!(got >= at, "jitter only adds");
            assert!(got >= last, "pair order regressed");
            last = got;
        }
    }

    #[test]
    fn disabled_config_injects_nothing() {
        let st = PerturbState::new(Perturb::new(9));
        assert_eq!(st.delivery(0, 1, SimTime::from_us(4)), SimTime::from_us(4));
        assert!(st.stall().is_none());
        assert!(st.straggler(0).is_none());
        assert!(st.coalesce().is_none());
        assert!(st.am_stall().is_none());
        let ws = st.wire(0, 1, SimTime::ZERO, SimTime::from_us(7));
        assert!(ws.added.is_zero() && !ws.dip);
        assert!(!Perturb::new(9).is_active());
        assert!(Perturb::standard(9).is_active());
    }

    #[test]
    fn coalesce_and_am_stall_respect_bounds() {
        let cfg = Perturb {
            coalesce_permille: 1000,
            coalesce_max: SimTime::from_us(2),
            am_stall_permille: 1000,
            am_stall_max: SimTime::from_us(4),
            ..Perturb::new(11)
        };
        let st = PerturbState::new(cfg);
        let mut coalesced = 0;
        let mut stalled = 0;
        for _ in 0..200 {
            if let Some(d) = st.coalesce() {
                assert!(d <= SimTime::from_us(2));
                coalesced += 1;
            }
            if let Some(d) = st.am_stall() {
                assert!(d <= SimTime::from_us(4));
                stalled += 1;
            }
        }
        assert!(coalesced > 150, "certain coalesce mostly missed");
        assert!(stalled > 150, "certain stall mostly missed");
    }

    #[test]
    fn link_factor_is_pure_and_per_link() {
        let cfg = Perturb {
            bw_permille: 500,
            ..Perturb::new(21)
        };
        let st = PerturbState::new(cfg);
        // Pure: repeated queries agree regardless of interleaved draws.
        let a = st.link_permille(0, 1);
        let _ = st.stall();
        assert_eq!(st.link_permille(0, 1), a);
        assert!(a <= 500);
        // Directed: (0,1) and (1,0) are independent links; across many
        // links at least one pair differs.
        let distinct = (0..16)
            .flat_map(|s| (0..16).map(move |d| (s, d)))
            .filter(|&(s, d)| s != d)
            .map(|(s, d)| st.link_permille(s, d))
            .collect::<std::collections::HashSet<_>>();
        assert!(distinct.len() > 4, "link factors nearly constant");
        // A different seed redraws the whole link map.
        let other = PerturbState::new(Perturb {
            bw_permille: 500,
            ..Perturb::new(22)
        });
        let moved = (0..16).filter(|&d| other.link_permille(0, d) != st.link_permille(0, d));
        assert!(moved.count() > 0);
    }

    #[test]
    fn dips_are_transient_and_asymmetric() {
        let cfg = Perturb {
            bw_dip_permille: 1000, // every query starts (or rides) a dip
            bw_dip_mult: 3,
            bw_dip_window: SimTime::from_us(10),
            ..Perturb::new(33)
        };
        let st = PerturbState::new(cfg);
        let wire = SimTime::from_us(1);
        let w0 = st.wire(0, 1, SimTime::ZERO, wire);
        assert!(w0.dip);
        assert_eq!(w0.added, wire * 2); // mult 3 => 2x extra

        // Inside the window the same link stays dipped without a new draw.
        let w1 = st.wire(0, 1, SimTime::from_us(5), wire);
        assert!(w1.dip);
        // The reverse link dips independently (its own draw/window).
        let w2 = st.wire(1, 0, SimTime::from_us(5), wire);
        assert!(w2.dip);
        // Past the window a fresh query re-draws (certain here).
        let w3 = st.wire(0, 1, SimTime::from_us(50), wire);
        assert!(w3.dip);
        // Zero-permille dips never fire even mid-run.
        let quiet = PerturbState::new(Perturb {
            bw_permille: 0,
            ..Perturb::new(33)
        });
        let wq = quiet.wire(0, 1, SimTime::ZERO, wire);
        assert!(wq.added.is_zero() && !wq.dip);
    }

    #[test]
    fn straggler_only_hits_configured_rank() {
        let cfg = Perturb::new(5).with_straggler(2, SimTime::from_us(100));
        let st = PerturbState::new(cfg);
        assert!(st.straggler(0).is_none());
        assert!(st.straggler(1).is_none());
        let hits = (0..32).filter(|_| st.straggler(2).is_some()).count();
        assert!(hits > 0, "straggler never delayed");
    }

    #[test]
    fn display_is_a_one_line_repro() {
        let p = Perturb::standard(0xABC).with_straggler(3, SimTime::from_us(50));
        let s = format!("{p}");
        assert!(s.contains("seed=0x0000000000000abc"));
        assert!(s.contains("straggler=3/"));
        assert!(s.contains("coalesce="));
        assert!(s.contains("amstall="));
        assert!(s.contains("bw="));
        assert!(s.contains("dip="));
        assert!(!s.contains('\n'));
    }
}
