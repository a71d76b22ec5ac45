//! The public [`Collectives`] and [`NonblockingCollectives`] faces of
//! [`SrmComm`]: validate the call against the communicator's shape
//! ([`Shape::check`]), then plan-and-execute it through the engine (the
//! only execution path; see [`crate::plan`]) — immediately for `call`,
//! via the interleaving executor ([`crate::nb`]) for `issue`.
//!
//! Roots are **communicator ranks** and payload segment layouts are
//! indexed by communicator rank: on a subgroup of size `n`, a gather
//! needs `n·len` bytes and `root` must be `< n`, regardless of how
//! many ranks the world has.

use crate::world::SrmComm;
use collops::{CollRequest, Collectives, DType, NonblockingCollectives, ReduceOp, Shape};
use shmem::ShmBuffer;
use simnet::Ctx;

impl Collectives for SrmComm {
    fn call(&self, ctx: &Ctx, shape: Shape, buf: &ShmBuffer, reduce: Option<(DType, ReduceOp)>) {
        shape.check(self.size(), buf.capacity());
        self.run_planned(ctx, self.key(shape), buf, reduce);
    }

    fn name(&self) -> &'static str {
        "SRM"
    }
}

impl NonblockingCollectives for SrmComm {
    fn issue(
        &self,
        ctx: &Ctx,
        shape: Shape,
        buf: &ShmBuffer,
        reduce: Option<(DType, ReduceOp)>,
    ) -> CollRequest {
        shape.check(self.size(), buf.capacity());
        CollRequest::new(self.nb_issue(ctx, self.key(shape), buf, reduce))
    }

    fn test(&self, ctx: &Ctx, req: &CollRequest) -> bool {
        self.nb_test(ctx, req.id())
    }

    fn wait(&self, ctx: &Ctx, req: CollRequest) {
        self.nb_wait_id(ctx, req.id());
    }
}
