//! The repo benchmark.
//!
//! Five workloads, two clocks (the **virtual** time the protocols are
//! judged by and the **host** time the simulator burns), and per-layer
//! attribution taken from outside: by timing calls into each layer's
//! public functions, by diffing the public `MetricsSnapshot`, and by
//! reading the public `simnet::Trace`. Nothing in the repo is changed
//! to make it measurable. See `README.md` in this directory.

pub mod json;
pub mod micro;
pub mod oracle;
pub mod proc;
pub mod report;
pub mod run;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod world;
