//! SRM tuning parameters (paper §2.4 and Figure 4).
//!
//! All protocol switch points and buffer geometries in one place. The
//! defaults are the paper's published values where it gives them
//! (64 KB small/large broadcast switch, 4 KB pipeline chunks applied
//! between 8 KB and 32 KB, 16 KB reduce chunks, which also bound
//! the small allreduce's exchange) and sensible choices where it does
//! not. What the buffer geometry already decides is not a knob: the
//! large broadcast puts one [`SrmTuning::SMP_BUF`] cell at a time.

use crate::embed::TreeKind;
use std::fmt;

/// A typed inconsistency in a [`SrmTuning`] — the knob combinations
/// that would corrupt buffer geometry or deadlock a protocol if a
/// world were built from them. Returned by [`SrmTuning::validate`];
/// [`crate::SrmWorld::new`] panics with the same messages.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TuningError {
    /// The small-broadcast pipeline range is inconsistent:
    /// `pipeline_min > pipeline_max`, `pipeline_chunk` zero, or
    /// `pipeline_chunk` / `pipeline_max` above `small_large_switch`.
    /// (Equal min and max is legal — it disables pipelining.)
    PipelineRangeInvalid,
    /// `pairwise_chunk` is zero or exceeds
    /// [`SrmTuning::REDUCE_CHUNK`] (pairwise
    /// pieces stage through the contribution buffers).
    PairwiseChunkInvalid,
}

impl fmt::Display for TuningError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            TuningError::PipelineRangeInvalid => {
                "small-broadcast pipeline chunk must be nonzero and its range lie below the large switch"
            }
            TuningError::PairwiseChunkInvalid => {
                "pairwise_chunk must be nonzero and fit the contribution buffers"
            }
        };
        f.write_str(msg)
    }
}

impl std::error::Error for TuningError {}

/// Protocol switch points and buffer sizes for the SRM collectives.
#[derive(Clone, Copy, Debug)]
pub struct SrmTuning {
    /// Tree shape for the inter-node and intra-node reduce trees
    /// (broadcast within a node is flat; see §2.2). `Some` forces the
    /// kind on every call. `None` (the default) is binomial, except
    /// that each multi-chunk broadcast and reduce runs on the trees
    /// [`SrmModel::trees`](crate::SrmModel::trees) derives for it.
    pub tree: Option<TreeKind>,
    /// Broadcasts at or below this size use the buffered small-message
    /// protocol; above it, the zero-copy large-message protocol
    /// (Figure 4; the paper's switch is 64 KB). It also sizes each
    /// broadcast edge's landing and, with [`SrmTuning::SMP_BUF`], the
    /// node's buffer pair.
    pub small_large_switch: usize,
    /// Small-protocol messages in `(pipeline_min, pipeline_max]` are
    /// split into `pipeline_chunk` pieces and pipelined through the two
    /// sides of the pair and of each edge landing ("messages larger
    /// than 8 KB and smaller than 32 KB are split into 4 KB chunks",
    /// §2.4).
    pub pipeline_min: usize,
    /// Upper bound of the pipelined sub-range.
    pub pipeline_max: usize,
    /// Chunk size used in the pipelined sub-range.
    pub pipeline_chunk: usize,
    /// Multi-node collectives at or below this size run with LAPI
    /// interrupts disabled (§2.3) on each node's wire rank, which takes
    /// the puts aimed at it by polling (`SrmComm::plan_quiet`):
    /// broadcast and reduce (the root on its node), allreduce and
    /// allgather on the masters, alltoall on every rank, alltoallv on
    /// every rank for segments up to 8 KiB only
    /// (`ALLTOALLV_QUIET_MAX` in `pairwise.rs`), the landed gather on
    /// its root and masters; the barrier's masters at every size.
    /// Scatter, reduce_scatter and the direct gather never do: their
    /// put targets already wait inside counter waits, and toggling
    /// their masters measured slower (EXPERIMENTS.md D5).
    ///
    /// The default, `usize::MAX`, is no cap: the paper's small-call cut
    /// (8 KiB) made a 1 MB reduce's masters take each arriving chunk as
    /// a 24 µs interrupt, where polling is what `SrmModel` prices
    /// (EXPERIMENTS.md A4). The field stays as an override for
    /// ablations, forced candidates and tune tables (`off` in a table
    /// file is `usize::MAX`); 0 keeps interrupts on everywhere.
    pub interrupt_disable_max: usize,
    /// Capacity of each per-(rank, communicator) compiled-schedule cache
    /// ([`crate::plan::PlanCache`]): how many distinct call shapes
    /// `(op, root, len)` keep their plans. 0 disables caching (every
    /// call re-plans).
    pub plan_cache_cap: usize,
    /// Emit one trace event per engine step (`step:*` labels) on top of
    /// the protocol-level markers — the raw material for per-step
    /// timeline rendering. Off by default: it multiplies trace volume.
    pub trace_steps: bool,
    /// Piece size of the pairwise collectives: each reduce_scatter
    /// stream between two node masters moves in puts of at most this
    /// many bytes, and alltoall/alltoallv cut their intra-node cells
    /// into pieces of it (their remote segments travel whole). Must not
    /// exceed [`SrmTuning::REDUCE_CHUNK`] (the pieces stage through the
    /// contribution buffers).
    pub pairwise_chunk: usize,
    /// reduce_scatter segments at or above this size take the **direct
    /// route**: a per-call address exchange between the node masters,
    /// then puts straight into the destination master's scratch buffer,
    /// skipping the credited `Ring` landings. `usize::MAX`
    /// disables the direct route (staged everywhere); 0 forces it for
    /// every segment size. Alltoall and alltoallv are direct at every
    /// size and ignore it.
    pub pairwise_direct_min: usize,
}

impl Default for SrmTuning {
    fn default() -> Self {
        SrmTuning {
            tree: None,
            small_large_switch: 64 * 1024,
            pipeline_min: 8 * 1024,
            pipeline_max: 32 * 1024,
            pipeline_chunk: 4 * 1024,
            interrupt_disable_max: usize::MAX,
            plan_cache_cap: 32,
            trace_steps: false,
            pairwise_chunk: 16 * 1024,
            pairwise_direct_min: 64 * 1024,
        }
    }
}

impl SrmTuning {
    /// The intra-node broadcast cell (Figure 3): messages longer than
    /// this are chunked through the node's buffer pair, whose sides hold
    /// the larger of this and `small_large_switch`. It is also the put
    /// size of the zero-copy large broadcast, whose chunk `k` is the
    /// intra-node pipeline's cell `k`.
    pub const SMP_BUF: usize = 32 * 1024;

    /// Chunk size of the pipelined reduce (and of the large-allreduce
    /// four-stage pipeline), the most a scatter piece carries, and the
    /// size of each contribution buffer and exchange landing. Allreduce
    /// uses inter-node recursive k-ing up to this size ("for messages
    /// up to 16 KB", §2.4) and above it the four-stage pipeline or a
    /// reduce then a broadcast, whichever
    /// [`SrmModel::allreduce_composes`](crate::SrmModel::allreduce_composes)
    /// prices lower.
    pub const REDUCE_CHUNK: usize = 16 * 1024;

    /// Maximum nonblocking collectives outstanding per rank. Issuing
    /// one more blocks until *some* outstanding request completes (MPI
    /// allows implementations to throttle; bounding the queue bounds
    /// the interleaving executor's per-poll scan).
    pub const MAX_OUTSTANDING: usize = 8;

    /// The kind every call runs on that derives no tree of its own:
    /// the forced [`Self::tree`], else binomial.
    pub fn configured_tree(&self) -> TreeKind {
        self.tree.unwrap_or(TreeKind::Binomial)
    }

    /// Check the knob combinations for internal consistency. The world
    /// constructors call this and panic on error; callers assembling a
    /// tuning programmatically (e.g. the autotuner) can check first.
    ///
    /// `pipeline_min == pipeline_max` is *valid*: it disables the
    /// pipelined sub-range (no length is strictly above the min and at
    /// or below the max), which the ablation studies rely on.
    pub fn validate(&self) -> Result<(), TuningError> {
        if self.pipeline_chunk == 0
            || self.pipeline_chunk > self.small_large_switch
            || self.pipeline_min > self.pipeline_max
            || self.pipeline_max > self.small_large_switch
        {
            return Err(TuningError::PipelineRangeInvalid);
        }
        if self.pairwise_chunk == 0 || self.pairwise_chunk > Self::REDUCE_CHUNK {
            return Err(TuningError::PairwiseChunkInvalid);
        }
        Ok(())
    }

    /// Chunking of a small-protocol broadcast of `len` bytes: the chunk
    /// size the landing buffers cycle through.
    pub fn small_bcast_chunk(&self, len: usize) -> usize {
        if len > self.pipeline_min && len <= self.pipeline_max {
            self.pipeline_chunk
        } else {
            len.max(1)
        }
    }

    /// Number of chunks a payload of `len` splits into at `chunk`
    /// granularity (at least 1).
    pub fn chunk_count(len: usize, chunk: usize) -> usize {
        if len == 0 {
            1
        } else {
            len.div_ceil(chunk)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_switch_points() {
        let t = SrmTuning::default();
        assert_eq!(t.small_large_switch, 65536);
        assert_eq!(t.pipeline_chunk, 4096);
        assert_eq!(SrmTuning::REDUCE_CHUNK, 16384);
        // 16 KB message: inside the pipelined sub-range.
        assert_eq!(t.small_bcast_chunk(16 * 1024), 4096);
        // 4 KB and 64 KB messages: single chunk.
        assert_eq!(t.small_bcast_chunk(4096), 4096);
        assert_eq!(t.small_bcast_chunk(64 * 1024), 64 * 1024);
    }

    #[test]
    fn validate_accepts_default_and_disabled_pipeline() {
        assert_eq!(SrmTuning::default().validate(), Ok(()));
        // min == max disables pipelining; the ablations build such worlds.
        let off = SrmTuning {
            pipeline_min: 64 * 1024,
            pipeline_max: 64 * 1024,
            ..SrmTuning::default()
        };
        assert_eq!(off.validate(), Ok(()));
    }

    #[test]
    fn validate_typed_errors() {
        let d = SrmTuning::default();
        let cases = [
            (
                SrmTuning {
                    pipeline_min: d.pipeline_max + 1,
                    ..d
                },
                TuningError::PipelineRangeInvalid,
            ),
            (
                SrmTuning {
                    pipeline_max: d.small_large_switch + 1,
                    ..d
                },
                TuningError::PipelineRangeInvalid,
            ),
            // A zero chunk would cut a pipelined broadcast into no
            // chunks: `chunk_count` divides by it.
            (
                SrmTuning {
                    pipeline_chunk: 0,
                    ..d
                },
                TuningError::PipelineRangeInvalid,
            ),
            (
                SrmTuning {
                    pairwise_chunk: SrmTuning::REDUCE_CHUNK + 1,
                    ..d
                },
                TuningError::PairwiseChunkInvalid,
            ),
        ];
        for (t, want) in cases {
            assert_eq!(t.validate(), Err(want), "{t:?}");
        }
    }

    #[test]
    fn chunk_count_edges() {
        assert_eq!(SrmTuning::chunk_count(0, 4096), 1);
        assert_eq!(SrmTuning::chunk_count(1, 4096), 1);
        assert_eq!(SrmTuning::chunk_count(4096, 4096), 1);
        assert_eq!(SrmTuning::chunk_count(4097, 4096), 2);
        assert_eq!(SrmTuning::chunk_count(8 * 1024 * 1024, 65536), 128);
    }
}
