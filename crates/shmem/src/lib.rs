//! # shmem — intra-node shared-memory substrate
//!
//! Models the fastest communication domain of an SMP cluster: shared
//! memory within one node. Provides the three building blocks the
//! paper's SMP-side protocols are written in terms of:
//!
//! * [`SpinFlag`] / [`FlagBank`] — cache-line-padded synchronization
//!   flags with the spin-then-yield policy of the paper's §2.4;
//! * [`ShmBuffer`] — shared byte buffers carrying real data, with a
//!   contention-aware copy cost model (concurrent streams share the
//!   node memory bus);
//! * [`BufPair`] — the two-buffer + READY-flag structure of the paper's
//!   Figure 3: each node's one pair, written only by the node's own
//!   tasks, for pipelined broadcast and every node-local distribution.
//!
//! Everything here is per-node: two tasks may share these structures
//! only if the topology places them on the same node; the higher layers
//! enforce that.

#![deny(missing_docs)]

pub mod buffer;
pub mod bufpair;
pub mod flag;

pub use buffer::ShmBuffer;
pub use bufpair::{BufPair, PairUse};
pub use flag::{FlagBank, SpinFlag};
