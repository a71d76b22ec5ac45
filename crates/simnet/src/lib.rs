//! # simnet — deterministic virtual-time cluster simulation
//!
//! The substrate under the SRM-collectives reproduction: a simulator in
//! which every MPI task is a stackful user-space fiber (a *logical
//! process*, LP) executing real protocol code, while a turn-based
//! kernel keeps a virtual clock per LP and always runs the LP with the
//! smallest clock. All of a world's fibers run on the host thread that
//! calls [`Sim::run`]; handing the turn over is a stack switch, not an
//! OS context switch (the `unsafe` that takes lives in `fiber.rs`,
//! next to the argument for why it is sound, and at its resume/yield
//! call sites in `kernel.rs`).
//! Results are bit-deterministic: the same program produces the same
//! virtual times and event counts on any host.
//!
//! The crate provides four things:
//!
//! * the kernel ([`Sim`], [`Ctx`], [`SimVar`]) — see [`kernel`] and
//!   [`simvar`] for the scheduling and causality rules;
//! * virtual time ([`SimTime`], [`PerByte`]);
//! * the cluster shape ([`Topology`]: `n` SMP nodes × `p` tasks); and
//! * the machine cost model ([`MachineConfig`]) with presets calibrated
//!   to the paper's IBM SP "Colony" platform.
//!
//! Higher layers (`shmem`, `rma`, `msg`) model shared-memory, LAPI-like
//! RMA and MPI point-to-point transports on top of these primitives.
//!
//! ```
//! use simnet::{MachineConfig, Sim, SimTime};
//!
//! let mut sim = Sim::new(MachineConfig::ibm_sp_colony());
//! let ready = sim.handle().var(false);
//!
//! let r = ready.clone();
//! sim.spawn("producer", move |ctx| {
//!     ctx.advance(SimTime::from_us(3)); // model 3 us of work
//!     r.store(&ctx, true);
//! });
//! sim.spawn("consumer", move |ctx| {
//!     ready.wait(&ctx, "producer ready", |v| *v);
//!     assert_eq!(ctx.now(), SimTime::from_us(3));
//! });
//!
//! let report = sim.run().unwrap();
//! assert_eq!(report.end_time, SimTime::from_us(3));
//! ```

#![deny(missing_docs)]

pub mod config;
pub mod error;
mod fiber;
pub mod kernel;
pub mod metrics;
pub mod perturb;
pub mod simvar;
pub mod time;
pub mod topology;
pub mod trace;

pub use config::MachineConfig;
pub use error::{BlockedLp, SimError};
pub use kernel::{Ctx, Faults, LpId, Report, Sim, SimHandle};
pub use metrics::{ByComm, CommRow, Metrics, MetricsSnapshot};
pub use perturb::{Perturb, SplitMix64, Xoshiro256};
pub use simvar::SimVar;
pub use time::{PerByte, SimTime};
pub use topology::{NodeId, Rank, Topology};
pub use trace::{Trace, TraceEvent};
