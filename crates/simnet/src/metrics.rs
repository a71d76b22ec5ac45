//! Global event counters for a simulation run.
//!
//! The counters answer the paper's structural claims directly: SRM's
//! advantage comes from *fewer data movements* and *no tag matching*, so
//! tests assert on `shm_copies`, `net_messages`, `matches`, etc. rather
//! than only on modelled times.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

macro_rules! metrics {
    ($($(#[$doc:meta])* $name:ident),+ $(,)?) => {
        /// Live counters, incremented with relaxed atomics (the kernel
        /// serializes logical processes, so these are uncontended).
        #[derive(Default, Debug)]
        pub struct Metrics {
            $($(#[$doc])* pub $name: AtomicU64,)+
        }

        /// A point-in-time copy of [`Metrics`], cheap to diff and assert on.
        #[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
        pub struct MetricsSnapshot {
            $($(#[$doc])* pub $name: u64,)+
        }

        impl Metrics {
            /// Copy every counter.
            pub fn snapshot(&self) -> MetricsSnapshot {
                MetricsSnapshot {
                    $($name: self.$name.load(Ordering::Relaxed),)+
                }
            }
        }

        impl MetricsSnapshot {
            /// Counter-wise `self - earlier`, for measuring one operation
            /// inside a longer run.
            pub fn since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
                MetricsSnapshot {
                    $($name: self.$name - earlier.$name,)+
                }
            }
        }
    };
}

metrics! {
    /// Intra-node shared-memory copy operations (each chunk counts once).
    shm_copies,
    /// Bytes moved by intra-node shared-memory copies.
    shm_bytes,
    /// Cache-line flag set/clear operations in shared memory.
    flag_ops,
    /// Messages injected into the inter-node network (puts and sends).
    net_messages,
    /// Bytes injected into the inter-node network.
    net_bytes,
    /// RMA put operations issued.
    rma_puts,
    /// Active messages issued.
    rma_ams,
    /// Interrupts taken by LAPI-style dispatchers (data arrived while the
    /// target was not polling and interrupts were enabled).
    interrupts,
    /// Point-to-point messages sent via the eager protocol.
    eager_sends,
    /// Point-to-point messages sent via the rendezvous protocol.
    rndv_sends,
    /// Receive-side tag-matching operations performed.
    matches,
    /// Messages that arrived before the matching receive was posted and
    /// had to be staged in an early-arrival buffer (extra copy).
    early_arrivals,
    /// Bytes combined by reduction operators.
    reduce_bytes,
    /// Collective calls served from the compiled-schedule cache.
    plan_hits,
    /// Collective calls that had to compile their schedule.
    plan_misses,
    /// Schedule steps executed by the plan engine.
    engine_steps,
    /// Engine steps that moved or combined payload bytes.
    engine_copy_steps,
    /// Engine steps that blocked on a flag, counter or buffer side.
    engine_wait_steps,
    /// Engine steps that injected one-sided traffic (puts, counter
    /// bumps, address messages).
    engine_put_steps,
    /// Nonblocking collective requests issued (`i`-prefixed calls).
    nb_issued,
    /// Times an outstanding schedule was parked at a blocking step by
    /// the interleaving executor (its head probe came back not-ready).
    nb_parks,
    /// One-sided data puts into the staged reduce_scatter's credited
    /// landings (`ChanKind::Ring`), their only user (alltoall and
    /// alltoallv put nothing through them).
    pairwise_puts,
    /// Times a pairwise sender reached a credit wait with no credit
    /// available (its destination had not yet folded the landing's last
    /// piece), blocking or
    /// nonblocking — staged reduce_scatter only.
    credit_stalls,
    /// One-sided puts landed straight in the destination user buffer
    /// (alltoall, alltoallv: one per remote rank pair, at every size) or
    /// per-call scratch buffer (reduce_scatter's direct route) after a
    /// per-call address exchange, skipping the staged landings.
    pairwise_direct_puts,
    /// Communicators created (the world communicator counts once; each
    /// `comm_create`/`comm_split` group counts once more).
    comm_creates,
    /// Perturbation events injected by the seeded perturbation layer
    /// (delivery jitter, bounded reorders, compute stalls, straggler
    /// delays). Zero unless a [`Perturb`](crate::perturb::Perturb)
    /// config is installed.
    perturb_events,
    /// Total virtual time (picoseconds) injected by perturbation events.
    perturb_delay_ps,
    /// Largest single injected delay (picoseconds) — the max skew of
    /// the run. Monotone (a running max), so `since` never underflows,
    /// but unlike the other counters its diff is not itself a max.
    perturb_max_skew_ps,
    /// Dispatcher-side perturbation events (interrupt-coalescing
    /// delays, AM/receive handler stalls). A subset of
    /// `perturb_events`.
    perturb_dispatch_events,
    /// Link-level perturbation events (static per-link wire stretches
    /// and transient bandwidth dips). A subset of `perturb_events`.
    perturb_bw_events,
    /// Plan compiles whose tuning-table lookup found a matching entry
    /// (counted on the plan-cache miss path only; zero unless a tuning
    /// table is loaded).
    tune_table_hits,
    /// Plan compiles that fell back to the base tuning because the
    /// loaded tuning table had no entry for the shape.
    tune_table_misses,
}

/// One communicator's share of the plan-cache and tuning-table
/// counters — a row of [`ByComm::snapshot`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CommRow {
    /// Id of the communicator that issued the collectives (0 = world).
    pub comm: u64,
    /// Calls served from the plan cache.
    pub plan_hits: u64,
    /// Calls that compiled their plan.
    pub plan_misses: u64,
    /// Compiles that found a tuning-table entry (zero unless a table
    /// is loaded).
    pub tune_hits: u64,
    /// Compiles that fell back to the base tuning under a loaded table.
    pub tune_misses: u64,
}

/// Per-communicator breakdown of the `plan_*` and `tune_table_*`
/// counters. Kept outside [`MetricsSnapshot`] (which stays `Copy`);
/// snapshot it separately with [`ByComm::snapshot`].
#[derive(Default, Debug)]
pub struct ByComm {
    inner: Mutex<BTreeMap<u64, CommRow>>,
}

impl ByComm {
    /// Update communicator `comm`'s row (created zeroed on first use).
    pub fn record(&self, comm: u64, update: impl FnOnce(&mut CommRow)) {
        let mut rows = self.inner.lock().expect("per-comm map poisoned");
        update(rows.entry(comm).or_insert(CommRow {
            comm,
            ..CommRow::default()
        }));
    }

    /// The rows in ascending comm-id order.
    pub fn snapshot(&self) -> Vec<CommRow> {
        let rows = self.inner.lock().expect("per-comm map poisoned");
        rows.values().copied().collect()
    }
}

impl Metrics {
    /// Bump one counter by `n`.
    #[inline]
    pub fn add(&self, counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reads_counters() {
        let m = Metrics::default();
        m.shm_copies.fetch_add(3, Ordering::Relaxed);
        m.net_bytes.fetch_add(100, Ordering::Relaxed);
        let s = m.snapshot();
        assert_eq!(s.shm_copies, 3);
        assert_eq!(s.net_bytes, 100);
        assert_eq!(s.flag_ops, 0);
    }

    #[test]
    fn plan_by_comm_tracks_per_communicator() {
        let p = ByComm::default();
        p.record(0, |r| r.plan_misses += 1);
        p.record(0, |r| r.plan_hits += 2);
        p.record(3, |r| r.plan_misses += 1);
        p.record(3, |r| r.tune_hits += 1);
        let row = |comm, plan_hits, plan_misses, tune_hits| CommRow {
            comm,
            plan_hits,
            plan_misses,
            tune_hits,
            tune_misses: 0,
        };
        assert_eq!(p.snapshot(), vec![row(0, 2, 1, 0), row(3, 0, 1, 1)]);
    }

    #[test]
    fn since_diffs() {
        let m = Metrics::default();
        m.matches.fetch_add(2, Ordering::Relaxed);
        let a = m.snapshot();
        m.matches.fetch_add(5, Ordering::Relaxed);
        m.eager_sends.fetch_add(1, Ordering::Relaxed);
        let b = m.snapshot();
        let d = b.since(&a);
        assert_eq!(d.matches, 5);
        assert_eq!(d.eager_sends, 1);
        assert_eq!(d.shm_bytes, 0);
    }
}
