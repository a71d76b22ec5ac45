//! The public [`Collectives`] and [`NonblockingCollectives`] faces of
//! [`SrmComm`]: validate the call against the communicator's shape
//! (`check`, the one place that does), then plan-and-execute it through
//! the engine (the only execution path; see [`crate::plan`]) —
//! immediately for the blocking operations, via the interleaving
//! executor ([`crate::nb`]) for the `i`-prefixed ones.
//!
//! Roots are **communicator ranks** and payload segment layouts are
//! indexed by communicator rank: on a subgroup of size `n`, a gather
//! needs `n·len` bytes and `root` must be `< n`, regardless of how
//! many ranks the world has.

use crate::plan::PlanShape;
use crate::world::SrmComm;
use collops::{CollRequest, Collectives, DType, NonblockingCollectives, ReduceOp};
use shmem::ShmBuffer;
use simnet::{Ctx, Rank};

/// Validate a call of `shape` with payload `buf` on a communicator of
/// `n` ranks: the root is a member, an alltoallv count matrix is the
/// full `n × n` with every cell within its `seg`-byte slot, and the
/// buffer holds the shape's layout.
///
/// # Panics
/// Naming the violated rule, otherwise.
fn check(shape: &PlanShape, n: usize, buf: &ShmBuffer) {
    use PlanShape as S;
    if let S::Bcast { root, .. }
    | S::Reduce { root, .. }
    | S::Gather { root, .. }
    | S::Scatter { root, .. } = shape
    {
        assert!(*root < n, "root out of communicator range");
    }
    if let S::Alltoallv { seg, counts } = shape {
        assert!(
            counts.len() == n * n,
            "alltoallv counts must be the full size*size matrix"
        );
        assert!(
            counts.iter().all(|c| c <= seg),
            "alltoallv count exceeds its segment capacity"
        );
    }
    let (need, rule) = match shape {
        S::Bcast { len, .. } | S::Reduce { len, .. } | S::Allreduce { len } => {
            (*len, "payload longer than buffer")
        }
        S::Gather { len, .. } => (n * len, "gather needs size*len capacity"),
        S::Scatter { len, .. } => (n * len, "scatter needs size*len capacity"),
        S::Allgather { len } => (n * len, "allgather needs size*len capacity"),
        S::ReduceScatter { len } => (n * len, "reduce_scatter needs size*len capacity"),
        S::Alltoall { len } => (
            2 * n * len,
            "alltoall needs 2*size*len capacity (send half + recv half)",
        ),
        S::Alltoallv { seg, .. } => (
            2 * n * seg,
            "alltoallv needs 2*size*seg capacity (send half + recv half)",
        ),
        S::Barrier => return,
    };
    assert!(need <= buf.capacity(), "{rule}");
}

impl SrmComm {
    /// Validate, plan and run a blocking call.
    fn run(&self, ctx: &Ctx, shape: PlanShape, buf: &ShmBuffer, op: Option<(DType, ReduceOp)>) {
        check(&shape, self.size(), buf);
        self.run_planned(ctx, self.key(shape), buf, op);
    }

    /// Validate, plan and issue a nonblocking call.
    fn issue(
        &self,
        ctx: &Ctx,
        shape: PlanShape,
        buf: &ShmBuffer,
        op: Option<(DType, ReduceOp)>,
    ) -> CollRequest {
        check(&shape, self.size(), buf);
        CollRequest::new(self.nb_issue(ctx, self.key(shape), buf, op))
    }
}

impl Collectives for SrmComm {
    fn broadcast(&self, ctx: &Ctx, buf: &ShmBuffer, len: usize, root: Rank) {
        self.run(ctx, PlanShape::Bcast { len, root }, buf, None);
    }

    fn reduce(
        &self,
        ctx: &Ctx,
        buf: &ShmBuffer,
        len: usize,
        dtype: DType,
        op: ReduceOp,
        root: Rank,
    ) {
        self.run(ctx, PlanShape::Reduce { len, root }, buf, Some((dtype, op)));
    }

    fn allreduce(&self, ctx: &Ctx, buf: &ShmBuffer, len: usize, dtype: DType, op: ReduceOp) {
        self.run(ctx, PlanShape::Allreduce { len }, buf, Some((dtype, op)));
    }

    fn barrier(&self, ctx: &Ctx) {
        // The barrier needs no payload; reuse a zero-length handle.
        self.run(ctx, PlanShape::Barrier, &ShmBuffer::new(0), None);
    }

    fn gather(&self, ctx: &Ctx, buf: &ShmBuffer, len: usize, root: Rank) {
        self.run(ctx, PlanShape::Gather { len, root }, buf, None);
    }

    fn scatter(&self, ctx: &Ctx, buf: &ShmBuffer, len: usize, root: Rank) {
        self.run(ctx, PlanShape::Scatter { len, root }, buf, None);
    }

    fn allgather(&self, ctx: &Ctx, buf: &ShmBuffer, len: usize) {
        self.run(ctx, PlanShape::Allgather { len }, buf, None);
    }

    fn alltoall(&self, ctx: &Ctx, buf: &ShmBuffer, len: usize) {
        self.run(ctx, PlanShape::Alltoall { len }, buf, None);
    }

    fn alltoallv(&self, ctx: &Ctx, buf: &ShmBuffer, seg: usize, counts: &[usize]) {
        let counts = counts.into();
        self.run(ctx, PlanShape::Alltoallv { seg, counts }, buf, None);
    }

    fn reduce_scatter(&self, ctx: &Ctx, buf: &ShmBuffer, len: usize, dtype: DType, op: ReduceOp) {
        let shape = PlanShape::ReduceScatter { len };
        self.run(ctx, shape, buf, Some((dtype, op)));
    }

    fn name(&self) -> &'static str {
        "SRM"
    }
}

impl NonblockingCollectives for SrmComm {
    fn ibroadcast(&self, ctx: &Ctx, buf: &ShmBuffer, len: usize, root: Rank) -> CollRequest {
        self.issue(ctx, PlanShape::Bcast { len, root }, buf, None)
    }

    fn ireduce(
        &self,
        ctx: &Ctx,
        buf: &ShmBuffer,
        len: usize,
        dtype: DType,
        op: ReduceOp,
        root: Rank,
    ) -> CollRequest {
        self.issue(ctx, PlanShape::Reduce { len, root }, buf, Some((dtype, op)))
    }

    fn iallreduce(
        &self,
        ctx: &Ctx,
        buf: &ShmBuffer,
        len: usize,
        dtype: DType,
        op: ReduceOp,
    ) -> CollRequest {
        self.issue(ctx, PlanShape::Allreduce { len }, buf, Some((dtype, op)))
    }

    fn ibarrier(&self, ctx: &Ctx) -> CollRequest {
        // The schedule holds its own handle to the zero-length payload.
        self.issue(ctx, PlanShape::Barrier, &ShmBuffer::new(0), None)
    }

    fn igather(&self, ctx: &Ctx, buf: &ShmBuffer, len: usize, root: Rank) -> CollRequest {
        self.issue(ctx, PlanShape::Gather { len, root }, buf, None)
    }

    fn iscatter(&self, ctx: &Ctx, buf: &ShmBuffer, len: usize, root: Rank) -> CollRequest {
        self.issue(ctx, PlanShape::Scatter { len, root }, buf, None)
    }

    fn iallgather(&self, ctx: &Ctx, buf: &ShmBuffer, len: usize) -> CollRequest {
        self.issue(ctx, PlanShape::Allgather { len }, buf, None)
    }

    fn ialltoall(&self, ctx: &Ctx, buf: &ShmBuffer, len: usize) -> CollRequest {
        self.issue(ctx, PlanShape::Alltoall { len }, buf, None)
    }

    fn ialltoallv(&self, ctx: &Ctx, buf: &ShmBuffer, seg: usize, counts: &[usize]) -> CollRequest {
        let counts = counts.into();
        self.issue(ctx, PlanShape::Alltoallv { seg, counts }, buf, None)
    }

    fn ireduce_scatter(
        &self,
        ctx: &Ctx,
        buf: &ShmBuffer,
        len: usize,
        dtype: DType,
        op: ReduceOp,
    ) -> CollRequest {
        let shape = PlanShape::ReduceScatter { len };
        self.issue(ctx, shape, buf, Some((dtype, op)))
    }

    fn test(&self, ctx: &Ctx, req: &CollRequest) -> bool {
        self.nb_test(ctx, req.id())
    }

    fn wait(&self, ctx: &Ctx, req: CollRequest) {
        self.nb_wait_id(ctx, req.id());
    }
}
