//! # srm-cluster — a reproduction of *Fast Collective Operations Using
//! Shared and Remote Memory Access Protocols on Clusters* (Tipparaju,
//! Nieplocha, Panda — IPPS 2003)
//!
//! This root crate re-exports the whole stack and provides the
//! measurement [`harness`] used by the examples, the integration tests
//! and the per-figure benchmark binaries:
//!
//! * [`simnet`] — deterministic virtual-time cluster simulator;
//! * [`shmem`] — intra-node shared-memory substrate;
//! * [`rma`] — LAPI-like one-sided communication;
//! * [`msg`] — MPI-style point-to-point (eager/rendezvous/tag matching);
//! * [`mpi_coll`] — the IBM-MPI-like and MPICH-like baseline collectives;
//! * [`srm`] — the paper's SRM collectives;
//! * [`collops`] — datatypes, reduction operators and the common
//!   [`collops::Collectives`] trait.
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for
//! the paper-vs-measured record of every figure.

pub mod explore;
pub mod harness;

pub use collops;
pub use mpi_coll;
pub use msg;
pub use rma;
pub use shmem;
pub use simnet;
pub use srm;

pub use explore::{
    derive_scenario, explore_one, explore_sweep, repro_line, run_scenario, shrink, AliasMode,
    ExploreFailure, ExploreOpts, ExploreOutcome, ExploreSummary, ProgStep, Scenario, SplitSpec,
};
pub use harness::{
    measure, measure_with_table, ragged_counts, ratio_percent, HarnessOpts, Impl, Measurement, Op,
};
