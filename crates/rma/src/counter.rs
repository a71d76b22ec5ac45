//! LAPI-style completion counters.
//!
//! LAPI decouples synchronization from data transfer through *counters*:
//! the dispatcher increments a counter when a communication phase
//! completes, and a task can probe or block waiting for a counter to
//! reach a value (`LAPI_Waitcntr` semantics: wait until `cntr >= val`,
//! then subtract `val`). The paper's small-message broadcast uses one
//! counter per shared buffer for flow control, "to avoid an interrupt
//! when a message arrives and pass control to the LAPI dispatcher"
//! (§2.4).
//!
//! Blocking waits live on [`Rma`](crate::Rma) (they must mark the task
//! as being *inside a LAPI call* so the dispatcher can make progress);
//! this module only holds the counter state itself.

use simnet::{Ctx, SimHandle, SimVar};

/// A monotonic completion counter incremented by the dispatcher.
#[derive(Clone)]
pub struct LapiCounter {
    pub(crate) var: SimVar<u64>,
}

impl LapiCounter {
    /// New counter with the given initial value. Flow-control counters
    /// typically start at the number of initially-free buffers.
    pub fn new(handle: &SimHandle, init: u64) -> Self {
        LapiCounter {
            var: handle.var(init),
        }
    }

    /// Dispatcher-side increment (costless for the target task: the
    /// LAPI threads do this work; delivery overhead is charged by the
    /// dispatcher separately).
    pub(crate) fn incr(&self, ctx: &Ctx, n: u64) {
        self.var.update(ctx, |v| *v += n);
    }

    /// Current value, without cost (tests, diagnostics, and the
    /// nonblocking executor's readiness probes — blocking protocol code
    /// must use [`Rma::wait_counter`](crate::Rma::wait_counter)).
    pub fn peek(&self) -> u64 {
        self.var.get()
    }

    /// Kernel wake key of the counter's backing variable, for
    /// multi-variable waits
    /// ([`Ctx::wait_any_until`](simnet::Ctx::wait_any_until)).
    pub fn wait_key(&self) -> u64 {
        self.var.wait_key()
    }
}

/// A **per-pair counter family**: one completion counter for every
/// `(src, dst)` endpoint pair of an `n`-way exchange, instead of one
/// counter per collective.
///
/// Total-exchange protocols (alltoall and friends) have `n·(n-1)`
/// concurrent point-to-point streams; a single shared counter cannot
/// tell which stream completed. A family gives each ordered pair its
/// own [`LapiCounter`], so a receiver can wait on exactly the stream it
/// needs and a sender's flow-control credits are returned per
/// destination. Allocate once at setup (the handles are exchanged like
/// registered memory) and index with [`CounterFamily::pair`].
pub struct CounterFamily {
    n: usize,
    ctrs: Vec<LapiCounter>,
}

impl CounterFamily {
    /// Family of `n × n` counters, each starting at `init`.
    pub fn new(handle: &SimHandle, n: usize, init: u64) -> Self {
        CounterFamily {
            n,
            ctrs: (0..n * n).map(|_| LapiCounter::new(handle, init)).collect(),
        }
    }

    /// The counter of the ordered pair `(src, dst)`.
    ///
    /// # Panics
    /// If either index is out of range.
    pub fn pair(&self, src: usize, dst: usize) -> &LapiCounter {
        assert!(src < self.n && dst < self.n, "pair index out of range");
        &self.ctrs[src * self.n + dst]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{MachineConfig, Sim};

    #[test]
    fn peek_and_init() {
        let s = Sim::new(MachineConfig::uniform_test());
        let c = LapiCounter::new(&s.handle(), 2);
        assert_eq!(c.peek(), 2);
        drop(s);
    }

    #[test]
    fn family_pairs_are_distinct() {
        let s = Sim::new(MachineConfig::uniform_test());
        let f = CounterFamily::new(&s.handle(), 3, 1);
        // Distinct pairs are distinct counters.
        let keys: std::collections::HashSet<u64> = (0..3)
            .flat_map(|a| (0..3).map(move |b| (a, b)))
            .map(|(a, b)| f.pair(a, b).wait_key())
            .collect();
        assert_eq!(keys.len(), 9);
        assert_eq!(f.pair(2, 1).peek(), 1);
        drop(s);
    }
}
