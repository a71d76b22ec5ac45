//! # collops — shared vocabulary of the collective implementations
//!
//! Datatypes and reduction operators ([`DType`], [`ReduceOp`],
//! [`combine`]), little-endian payload codecs, a sequential
//! [`reference_reduce`] used by every correctness test, the call value
//! ([`Shape`], [`Op`]) and the [`Collectives`] trait — one entry,
//! [`Collectives::call`] — through which the benchmark harness drives
//! SRM and the MPI baselines uniformly.

#![deny(missing_docs)]

pub mod dtype;
pub mod shape;
pub mod traits;

pub use dtype::{
    combine, combine_buffers_costed, combine_costed, from_bytes_f64, from_bytes_u64,
    reference_reduce, to_bytes_f64, to_bytes_u64, DType, ReduceOp,
};
pub use shape::{ragged_counts, Op, Shape};
pub use traits::{CollRequest, Collectives, CollectivesExt, NonblockingCollectives};
