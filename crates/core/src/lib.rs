//! # srm — Shared-Remote-Memory collective operations
//!
//! The paper's contribution: broadcast, reduce, allreduce and barrier
//! implemented **directly** on the two fastest transports of an SMP
//! cluster — shared memory inside each node and one-sided RMA (LAPI
//! `put`) between nodes — instead of layering them over point-to-point
//! message passing.
//!
//! ## Memory model
//!
//! Collective payloads live in [`shmem::ShmBuffer`]s, which model
//! **registered memory**: the network may put into them directly (the
//! zero-copy large-message broadcast), exactly as LAPI could target any
//! user address on the SP. Intra-node sharing, however, only happens
//! through the designated per-node structures (edge landings, the
//! node's buffer pair, contribution slots) — a user buffer is
//! private to its rank as far as other local tasks are concerned, which
//! is why the protocols pay the copies the paper says they pay and no
//! others.
//!
//! ## Shape of the implementation
//!
//! * [`embed`] — binomial/binary/Fibonacci trees and their SMP-aware
//!   embedding (one subtree per node, masters form the inter-node tree);
//! * [`smp`] (methods on [`SrmComm`]) — the intra-node protocols of
//!   §2.2: flat two-buffer broadcast, Figure-2 reduce, flat flag barrier;
//! * [`inter`] (methods on [`SrmComm`]) — the integrated protocols of
//!   §2.3–2.4: buffered small-message broadcast with counter flow
//!   control and 4 KB pipelining, zero-copy large-message broadcast
//!   with address exchange, pipelined reduce, recursive-k-ing,
//!   four-stage-pipeline or reduce-then-broadcast allreduce, and the
//!   dissemination barrier;
//! * [`pairwise`] (methods on [`SrmComm`]) — the pairwise RMA exchange
//!   subsystem: alltoall and alltoallv as one put per remote rank pair
//!   over a node-local rotation through the contribution buffers, and
//!   reduce-scatter as per-node-pair put streams, over two credited
//!   landings per node pair or direct into per-call scratch;
//! * [`plan`] — the schedule IR: every collective call compiles to a
//!   per-rank [`Plan`] of primitive steps, cached per call shape;
//! * [`engine`] (methods on [`SrmComm`]) — the executor that replays a
//!   plan against the substrates; the *only* execution path;
//! * [`nb`] — the nonblocking interleaving executor: `i`-prefixed
//!   collectives park their schedules on a per-rank queue and progress
//!   inside `test`/`wait` calls, overlapping with each other and with
//!   compute;
//! * [`world`] — communicators ([`CommGroup`], [`SrmWorld::comm_create`]
//!   / [`SrmWorld::comm_split`]) and the per-group-node shared boards
//!   and per-master network state each one owns, assembled at setup;
//! * [`tuning`] — every switch point and buffer size, defaulting to the
//!   paper's published values (plus the plan-cache capacity and the
//!   per-step trace switch);
//! * [`tune`] — searched, persisted per-shape tuning tables: a world
//!   loaded with [`SrmWorld::with_tuning_table`] resolves a
//!   [`TuneTable`] entry per (op, size class, topology, comm size) at
//!   plan compile, so each call shape gets its own switch points.
//!
//! ```
//! use collops::Collectives;
//! use simnet::{MachineConfig, Sim, Topology};
//! use srm::{SrmTuning, SrmWorld};
//!
//! let topo = Topology::new(2, 4); // 2 nodes x 4 tasks
//! let mut sim = Sim::new(MachineConfig::ibm_sp_colony());
//! let world = SrmWorld::new(&mut sim, topo, SrmTuning::default());
//! for rank in 0..topo.nprocs() {
//!     let comm = world.comm(rank);
//!     sim.spawn(format!("rank{rank}"), move |ctx| {
//!         let buf = comm.alloc_buffer(1024);
//!         if rank == 0 {
//!             buf.with_mut(|d| d.fill(7));
//!         }
//!         comm.broadcast(&ctx, &buf, 1024, 0);
//!         buf.with(|d| assert!(d.iter().all(|&b| b == 7)));
//!         comm.shutdown(&ctx);
//!     });
//! }
//! sim.run().unwrap();
//! ```

#![deny(missing_docs)]

pub mod api;
pub mod embed;
pub mod engine;
pub mod inter;
pub mod model;
pub mod nb;
pub mod pairwise;
pub mod plan;
pub mod smp;
pub mod tune;
pub mod tuning;
pub mod world;

/// [`collops::Shape`], the call value a [`PlanKey`] wraps.
pub use collops::Shape as PlanShape;
pub use embed::{GroupTree, TreeKind};
pub use model::SrmModel;
pub use plan::{Plan, PlanBuilder, PlanCache, PlanKey, Step};
pub use tune::{TableParseError, TuneEntry, TuneEntryError, TuneKey, TuneOp, TuneTable};
pub use tuning::{SrmTuning, TuningError};
pub use world::{Channel, CommGroup, NodeBoard, SrmComm, SrmWorld};
