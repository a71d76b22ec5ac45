//! A collective call as one value: [`Shape`] says which operation and
//! with which arguments, [`Op`] is the operation alone. Every layer
//! that touches a call — the [`Collectives`](crate::Collectives) trait,
//! SRM's plan key, the baselines' dispatch, the tuning table, the
//! harness — shares these two types, and what a call's arguments imply
//! (the bytes it touches, whether they are valid, who is written) is
//! answered here once.

use simnet::Rank;
use std::sync::Arc;

/// The ten collectives, without arguments.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Op {
    /// `broadcast`.
    Bcast,
    /// `reduce`.
    Reduce,
    /// `allreduce`.
    Allreduce,
    /// `barrier`.
    Barrier,
    /// `gather`.
    Gather,
    /// `scatter`.
    Scatter,
    /// `allgather`.
    Allgather,
    /// `alltoall`.
    Alltoall,
    /// `alltoallv`.
    Alltoallv,
    /// `reduce_scatter`.
    ReduceScatter,
}

impl Op {
    /// All ops, in declaration (and tuning-table serialization) order.
    pub const ALL: [Op; 10] = [
        Op::Bcast,
        Op::Reduce,
        Op::Allreduce,
        Op::Barrier,
        Op::Gather,
        Op::Scatter,
        Op::Allgather,
        Op::Alltoall,
        Op::Alltoallv,
        Op::ReduceScatter,
    ];

    /// Stable lower-case token used in tuning-table files and CLI flags.
    pub fn as_str(self) -> &'static str {
        match self {
            Op::Bcast => "bcast",
            Op::Reduce => "reduce",
            Op::Allreduce => "allreduce",
            Op::Barrier => "barrier",
            Op::Gather => "gather",
            Op::Scatter => "scatter",
            Op::Allgather => "allgather",
            Op::Alltoall => "alltoall",
            Op::Alltoallv => "alltoallv",
            Op::ReduceScatter => "reduce_scatter",
        }
    }

    /// Inverse of [`Op::as_str`].
    pub fn from_name(s: &str) -> Option<Op> {
        Op::ALL.into_iter().find(|op| op.as_str() == s)
    }

    /// Display name (reports, figure legends, golden-table keys).
    pub fn name(self) -> &'static str {
        match self {
            Op::Bcast => "broadcast",
            Op::ReduceScatter => "reduce-scatter",
            other => other.as_str(),
        }
    }

    /// The call of this operation on `n` ranks with payload parameter
    /// `len` (payload, segment or slot bytes, as the operation reads
    /// it), rooted at `root` where it has a root, and with the
    /// [`ragged_counts`] matrix where it takes one.
    pub fn shape(self, len: usize, root: Rank, n: usize) -> Shape {
        match self {
            Op::Bcast => Shape::Bcast { len, root },
            Op::Reduce => Shape::Reduce { len, root },
            Op::Allreduce => Shape::Allreduce { len },
            Op::Barrier => Shape::Barrier,
            Op::Gather => Shape::Gather { len, root },
            Op::Scatter => Shape::Scatter { len, root },
            Op::Allgather => Shape::Allgather { len },
            Op::Alltoall => Shape::Alltoall { len },
            Op::Alltoallv => Shape::Alltoallv {
                seg: len,
                counts: ragged_counts(n, len).into(),
            },
            Op::ReduceScatter => Shape::ReduceScatter { len },
        }
    }
}

/// The deterministic ragged count matrix [`Op::shape`] gives alltoallv,
/// a pure function of `(nprocs, seg)` and so identical on every rank:
/// with `h = i·7 + j·13 + 3`, slot `(i, j)` is empty, full (`seg`
/// bytes) or strictly partial as `h mod 3` is 0, 1 or 2 — a third of
/// the pairs each, for every `seg`, and the partial sizes differ from
/// pair to pair, so row and column sums are uneven.
pub fn ragged_counts(nprocs: usize, seg: usize) -> Vec<usize> {
    (0..nprocs * nprocs)
        .map(|k| {
            let h = (k / nprocs) * 7 + (k % nprocs) * 13 + 3;
            match h % 3 {
                0 => 0,
                1 => seg,
                // In `1..seg` wherever that range is not empty.
                _ => (1 + h * 7919 % seg.saturating_sub(1).max(1)).min(seg),
            }
        })
        .collect()
}

/// One collective call: the operation and its arguments. The buffer
/// layout each variant implies is the contract of the
/// [`Collectives`](crate::Collectives) method it links to. Roots are
/// **communicator ranks**; the datatype and operator of the reducing
/// operations travel beside the shape, not in it, so one shape (and one
/// compiled SRM plan) serves every `(dtype, op)` pair. Not `Copy`: the
/// alltoallv shape shares its counts by `Arc`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Shape {
    /// [`broadcast`](crate::Collectives::broadcast).
    Bcast {
        /// Payload bytes.
        len: usize,
        /// Root rank.
        root: Rank,
    },
    /// [`reduce`](crate::Collectives::reduce).
    Reduce {
        /// Payload bytes.
        len: usize,
        /// Root rank.
        root: Rank,
    },
    /// [`allreduce`](crate::Collectives::allreduce).
    Allreduce {
        /// Payload bytes.
        len: usize,
    },
    /// [`barrier`](crate::Collectives::barrier).
    Barrier,
    /// [`gather`](crate::Collectives::gather).
    Gather {
        /// Per-rank segment bytes.
        len: usize,
        /// Root rank.
        root: Rank,
    },
    /// [`scatter`](crate::Collectives::scatter).
    Scatter {
        /// Per-rank segment bytes.
        len: usize,
        /// Root rank.
        root: Rank,
    },
    /// [`allgather`](crate::Collectives::allgather).
    Allgather {
        /// Per-rank segment bytes.
        len: usize,
    },
    /// [`alltoall`](crate::Collectives::alltoall).
    Alltoall {
        /// Per-pair segment bytes.
        len: usize,
    },
    /// [`alltoallv`](crate::Collectives::alltoallv).
    Alltoallv {
        /// Segment grid stride (every count is at most this).
        seg: usize,
        /// Flattened `n × n` count matrix.
        counts: Arc<[usize]>,
    },
    /// [`reduce_scatter`](crate::Collectives::reduce_scatter).
    ReduceScatter {
        /// Per-rank segment bytes.
        len: usize,
    },
}

impl Shape {
    /// Which operation this is a call of.
    pub fn op(&self) -> Op {
        self.parts().0
    }

    /// The length a tuning table classes the call by: its payload
    /// parameter — the segment stride for alltoallv, 0 for the barrier.
    pub fn class_len(&self) -> usize {
        self.parts().1
    }

    /// The root, for the four rooted operations.
    pub fn root(&self) -> Option<Rank> {
        self.parts().2
    }

    /// `(operation, payload parameter, root)`.
    fn parts(&self) -> (Op, usize, Option<Rank>) {
        match *self {
            Shape::Bcast { len, root } => (Op::Bcast, len, Some(root)),
            Shape::Reduce { len, root } => (Op::Reduce, len, Some(root)),
            Shape::Allreduce { len } => (Op::Allreduce, len, None),
            Shape::Barrier => (Op::Barrier, 0, None),
            Shape::Gather { len, root } => (Op::Gather, len, Some(root)),
            Shape::Scatter { len, root } => (Op::Scatter, len, Some(root)),
            Shape::Allgather { len } => (Op::Allgather, len, None),
            Shape::Alltoall { len } => (Op::Alltoall, len, None),
            Shape::Alltoallv { seg, .. } => (Op::Alltoallv, seg, None),
            Shape::ReduceScatter { len } => (Op::ReduceScatter, len, None),
        }
    }

    /// The bytes a call on `n` ranks needs, and the rule a shorter
    /// buffer breaks.
    fn layout(&self, n: usize) -> (usize, &'static str) {
        let (op, len, _) = self.parts();
        match op {
            Op::Bcast | Op::Reduce | Op::Allreduce => (len, "payload longer than buffer"),
            Op::Barrier => (0, ""),
            Op::Gather => (n * len, "gather needs size*len capacity"),
            Op::Scatter => (n * len, "scatter needs size*len capacity"),
            Op::Allgather => (n * len, "allgather needs size*len capacity"),
            Op::ReduceScatter => (n * len, "reduce_scatter needs size*len capacity"),
            Op::Alltoall => (
                2 * n * len,
                "alltoall needs 2*size*len capacity (send half + recv half)",
            ),
            Op::Alltoallv => (
                2 * n * len,
                "alltoallv needs 2*size*seg capacity (send half + recv half)",
            ),
        }
    }

    /// The leading bytes of its buffer a call on `n` ranks reads or
    /// writes — the capacity it needs.
    pub fn extent(&self, n: usize) -> usize {
        self.layout(n).0
    }

    /// Validate the call against a communicator of `n` ranks and a
    /// buffer of `cap` bytes: the root is a member, an alltoallv count
    /// matrix is the full `n × n` with every cell within its `seg`-byte
    /// slot, and the buffer holds the shape's layout.
    ///
    /// # Panics
    /// Naming the violated rule, otherwise.
    pub fn check(&self, n: usize, cap: usize) {
        if let Some(root) = self.root() {
            assert!(root < n, "root out of communicator range");
        }
        if let Shape::Alltoallv { seg, counts } = self {
            assert!(
                counts.len() == n * n,
                "alltoallv counts must be the full size*size matrix"
            );
            assert!(
                counts.iter().all(|c| c <= seg),
                "alltoallv count exceeds its segment capacity"
            );
        }
        let (need, rule) = self.layout(n);
        assert!(need <= cap, "{rule}");
    }

    /// Whether the call writes into the buffer of communicator rank
    /// `crank` (what decides if two outstanding calls may share one).
    pub fn writes(&self, crank: usize) -> bool {
        match *self {
            Shape::Barrier => false,
            // A broadcast root only reads its buffer; everyone else lands
            // the payload in it. Scatter is the same split.
            Shape::Bcast { root, .. } | Shape::Scatter { root, .. } => crank != root,
            // Reduce writes only at the root.
            Shape::Reduce { root, .. } => crank == root,
            // A gather may stage a node's segments in any rank's buffer
            // (outside its own segment it is unspecified); every rootless
            // shape writes every rank's buffer.
            Shape::Gather { .. }
            | Shape::Alltoall { .. }
            | Shape::Alltoallv { .. }
            | Shape::ReduceScatter { .. }
            | Shape::Allgather { .. }
            | Shape::Allreduce { .. } => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(n: usize, c: usize) -> Arc<[usize]> {
        vec![c; n].into()
    }

    #[test]
    fn op_and_class_len_follow_the_variant() {
        for op in Op::ALL {
            let s = op.shape(24, 1, 3);
            assert_eq!(s.op(), op);
            assert_eq!(s.class_len(), if op == Op::Barrier { 0 } else { 24 });
            let rooted = matches!(op, Op::Bcast | Op::Reduce | Op::Gather | Op::Scatter);
            assert_eq!(s.root(), rooted.then_some(1));
            assert_eq!(Op::from_name(op.as_str()), Some(op));
        }
        assert_eq!(Op::Bcast.name(), "broadcast");
        assert_eq!(Op::ReduceScatter.name(), "reduce-scatter");
        assert_eq!(Op::ReduceScatter.as_str(), "reduce_scatter");
        let v = Op::Alltoallv.shape(24, 0, 3);
        let Shape::Alltoallv { seg: 24, counts } = v else {
            panic!("alltoallv shape carries seg and counts")
        };
        assert_eq!(&counts[..], &ragged_counts(3, 24)[..]);
    }

    #[test]
    fn extent_is_the_layout_each_method_documents() {
        let n = 4;
        let want = [64, 64, 64, 0, 256, 256, 256, 512, 512, 256];
        for (op, want) in Op::ALL.into_iter().zip(want) {
            assert_eq!(op.shape(64, 0, n).extent(n), want, "{}", op.name());
        }
    }

    #[test]
    fn check_admits_the_tightest_call_and_names_each_rule() {
        let n = 4;
        let rule = |s: &Shape, cap: usize| {
            let s = s.clone();
            let e = std::panic::catch_unwind(move || s.check(n, cap)).err()?;
            let literal = e.downcast_ref::<&str>().map(|m| m.to_string());
            Some(literal.unwrap_or_else(|| *e.downcast::<String>().expect("assert message")))
        };
        for op in Op::ALL {
            let s = op.shape(64, 3, n);
            assert_eq!(rule(&s, s.extent(n)), None, "{}", op.name());
            if s.extent(n) > 0 {
                let msg = rule(&s, s.extent(n) - 1).expect("short buffer rejected");
                assert!(msg.contains("capacity") || msg.contains("longer than"));
            }
        }
        let bad_root = rule(&Shape::Gather { len: 64, root: 4 }, 256);
        assert_eq!(bad_root.as_deref(), Some("root out of communicator range"));
        let short = Shape::Alltoallv {
            seg: 64,
            counts: counts(15, 64),
        };
        let msg = rule(&short, 512).expect("15 counts rejected");
        assert_eq!(msg, "alltoallv counts must be the full size*size matrix");
        let wide = Shape::Alltoallv {
            seg: 64,
            counts: counts(16, 65),
        };
        let msg = rule(&wide, 512).expect("count past seg rejected");
        assert_eq!(msg, "alltoallv count exceeds its segment capacity");
    }

    #[test]
    fn writes_splits_rooted_shapes_at_the_root() {
        let at = |s: Shape| [s.writes(0), s.writes(2)];
        assert_eq!(at(Shape::Barrier), [false, false]);
        assert_eq!(at(Shape::Bcast { len: 8, root: 2 }), [true, false]);
        assert_eq!(at(Shape::Scatter { len: 8, root: 2 }), [true, false]);
        assert_eq!(at(Shape::Reduce { len: 8, root: 2 }), [false, true]);
        for op in [
            Op::Gather,
            Op::Allreduce,
            Op::Allgather,
            Op::Alltoall,
            Op::Alltoallv,
            Op::ReduceScatter,
        ] {
            assert_eq!(at(op.shape(8, 0, 3)), [true, true], "{}", op.name());
        }
    }
}
