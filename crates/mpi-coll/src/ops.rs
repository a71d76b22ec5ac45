//! The baseline collective algorithms over point-to-point messaging.
//!
//! These reproduce the *structure* of circa-2002 MPI collectives:
//!
//! * broadcast — binomial tree (both vendors; the paper notes MPICH
//!   used binomial trees for broadcast and reduce);
//! * reduce — binomial tree, combining at every level;
//! * allreduce — recursive doubling (IBM profile) or reduce-then-
//!   broadcast (MPICH profile);
//! * barrier — binomial gather+release (both vendors);
//! * gather / scatter — linear at the root (both vendors);
//! * allgather — gather+broadcast (IBM profile) or ring (MPICH
//!   profile);
//! * alltoall / alltoallv — pairwise rotation sendrecv (both vendors,
//!   the classic long-message schedule);
//! * reduce-scatter — reduce-then-scatter (IBM profile) or pairwise
//!   exchange-and-combine (MPICH profile).
//!
//! Every hop is an ordinary tagged message through [`msg`], so each hop
//! pays matching, per-message overheads, eager/rendezvous protocol
//! costs and the intra-node two-copy shared-memory path — the paper's
//! structural case against building collectives this way.
//!
//! ## Communicator views
//!
//! Each algorithm runs over a [`CommView`]: rank arithmetic (trees,
//! rings, rotations) happens in **communicator rank** space, and the
//! view translates every endpoint of every message to a world rank and
//! stamps the communicator's context id into the high tag bits — the
//! MPI context-id mechanism, so two communicators sharing tasks can
//! never match each other's messages. The world view is the identity
//! translation with context id 0, which reproduces the original world
//! collectives bit for bit.

use crate::tree;
use collops::{combine_costed, DType, ReduceOp};
use msg::{MsgEndpoint, Tag};
use simnet::{Ctx, Rank};

const TAG_BCAST: Tag = 0x0100;
const TAG_REDUCE: Tag = 0x0200;
const TAG_ALLREDUCE: Tag = 0x0300;
const TAG_BARRIER_UP: Tag = 0x0400;
const TAG_BARRIER_DOWN: Tag = 0x0401;
const TAG_GATHER: Tag = 0x0500;
const TAG_SCATTER: Tag = 0x0600;
const TAG_ALLGATHER: Tag = 0x0700;
const TAG_ALLTOALL: Tag = 0x0800;
const TAG_ALLTOALLV: Tag = 0x0900;
const TAG_REDUCE_SCATTER: Tag = 0x0A00;

/// Base tags occupy the low 16 bits of the 32-bit [`Tag`]; the
/// communicator context id lives above this shift.
const CTX_SHIFT: u32 = 16;

/// A communicator's window onto the point-to-point fabric.
///
/// Holds the comm-rank → world-rank translation (`None` for the world
/// communicator, where the map is the identity) and the tag offset
/// carrying the context id. All the collective algorithms in this
/// module address peers by communicator rank through this view.
pub struct CommView<'a> {
    ep: &'a MsgEndpoint,
    /// Communicator rank → world rank; `None` means the world.
    group: Option<&'a [Rank]>,
    /// The caller's communicator rank.
    crank: usize,
    /// `ctx_id << 16`, OR-ed into every tag.
    tag_base: Tag,
}

impl<'a> CommView<'a> {
    /// The world communicator: identity rank map, context id 0.
    pub fn world(ep: &'a MsgEndpoint) -> Self {
        CommView {
            ep,
            group: None,
            crank: ep.rank(),
            tag_base: 0,
        }
    }

    /// A sub-communicator over `group` (communicator rank `i` is world
    /// rank `group[i]`). The caller must be a member. `ctx_id` is the
    /// communicator's context id — in MPI the library agrees on one at
    /// `MPI_Comm_create`; here the caller supplies a nonzero id, the
    /// same on every member, distinct per concurrently-active
    /// communicator that shares tasks with another.
    pub fn subgroup(ep: &'a MsgEndpoint, group: &'a [Rank], ctx_id: u16) -> Self {
        assert!(ctx_id != 0, "context id 0 is reserved for the world");
        let nprocs = ep.topology().nprocs();
        assert!(!group.is_empty(), "empty communicator group");
        assert!(
            group.iter().all(|&r| r < nprocs),
            "group member out of world range"
        );
        let mut sorted: Vec<Rank> = group.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert!(sorted.len() == group.len(), "duplicate rank in group");
        let crank = group
            .iter()
            .position(|&r| r == ep.rank())
            .expect("caller is not a member of the group");
        CommView {
            ep,
            group: Some(group),
            crank,
            tag_base: (ctx_id as Tag) << CTX_SHIFT,
        }
    }

    /// Number of ranks in the communicator.
    pub fn size(&self) -> usize {
        self.group
            .map_or_else(|| self.ep.topology().nprocs(), <[Rank]>::len)
    }

    /// The caller's communicator rank.
    pub fn rank(&self) -> usize {
        self.crank
    }

    /// World rank of communicator rank `crank`.
    fn world_rank(&self, crank: usize) -> Rank {
        self.group.map_or(crank, |g| g[crank])
    }

    fn send(&self, ctx: &Ctx, dst: usize, tag: Tag, data: &[u8]) {
        self.ep
            .send(ctx, self.world_rank(dst), self.tag_base | tag, data);
    }

    fn recv(&self, ctx: &Ctx, src: usize, tag: Tag, buf: &mut [u8]) -> usize {
        self.ep
            .recv(ctx, self.world_rank(src), self.tag_base | tag, buf)
    }

    #[allow(clippy::too_many_arguments)]
    fn sendrecv(
        &self,
        ctx: &Ctx,
        dst: usize,
        stag: Tag,
        out: &[u8],
        src: usize,
        rtag: Tag,
        inb: &mut [u8],
    ) {
        self.ep.sendrecv(
            ctx,
            self.world_rank(dst),
            self.tag_base | stag,
            out,
            self.world_rank(src),
            self.tag_base | rtag,
            inb,
        );
    }
}

/// Binomial-tree broadcast of `data` (significant at `root`); on return
/// every rank's `data` holds the payload.
pub fn bcast_binomial(cv: &CommView, ctx: &Ctx, data: &mut [u8], root: Rank) {
    let size = cv.size();
    if size == 1 || data.is_empty() {
        return;
    }
    let me = tree::vrank(cv.rank(), root, size);
    if let Some((parent, _)) = tree::binomial_parent(me, size) {
        cv.recv(ctx, tree::unvrank(parent, root, size), TAG_BCAST, data);
    }
    for child in tree::binomial_children(me, size) {
        cv.send(ctx, tree::unvrank(child, root, size), TAG_BCAST, data);
    }
}

/// Binomial-tree reduce; on return `data` on `root` holds the combined
/// result (other ranks' buffers hold partial results, as in MPI).
pub fn reduce_binomial(
    cv: &CommView,
    ctx: &Ctx,
    data: &mut [u8],
    dtype: DType,
    op: ReduceOp,
    root: Rank,
) {
    let size = cv.size();
    if size == 1 || data.is_empty() {
        return;
    }
    let me = tree::vrank(cv.rank(), root, size);
    let mut tmp = vec![0u8; data.len()];
    // Receive children nearest-first (they finish their subtrees first).
    for child in tree::binomial_children_ascending(me, size) {
        cv.recv(ctx, tree::unvrank(child, root, size), TAG_REDUCE, &mut tmp);
        combine_costed(ctx, dtype, op, data, &tmp);
    }
    if let Some((parent, _)) = tree::binomial_parent(me, size) {
        cv.send(ctx, tree::unvrank(parent, root, size), TAG_REDUCE, data);
    }
}

/// Recursive-doubling allreduce (IBM profile). Handles non-power-of-two
/// sizes with the standard fold-in/fold-out steps.
pub fn allreduce_recursive_doubling(
    cv: &CommView,
    ctx: &Ctx,
    data: &mut [u8],
    dtype: DType,
    op: ReduceOp,
) {
    let size = cv.size();
    if size == 1 || data.is_empty() {
        return;
    }
    let rank = cv.rank();
    let pof2 = prev_pow2(size);
    let rem = size - pof2;
    let mut tmp = vec![0u8; data.len()];

    // Fold the `rem` extra ranks into their even neighbours.
    let newrank: isize = if rank < 2 * rem {
        if rank % 2 == 1 {
            cv.send(ctx, rank - 1, TAG_ALLREDUCE, data);
            -1
        } else {
            cv.recv(ctx, rank + 1, TAG_ALLREDUCE, &mut tmp);
            combine_costed(ctx, dtype, op, data, &tmp);
            (rank / 2) as isize
        }
    } else {
        (rank - rem) as isize
    };

    if newrank >= 0 {
        let newrank = newrank as usize;
        let mut mask = 1usize;
        while mask < pof2 {
            let partner_new = newrank ^ mask;
            let partner = if partner_new < rem {
                partner_new * 2
            } else {
                partner_new + rem
            };
            cv.sendrecv(
                ctx,
                partner,
                TAG_ALLREDUCE,
                data,
                partner,
                TAG_ALLREDUCE,
                &mut tmp,
            );
            combine_costed(ctx, dtype, op, data, &tmp);
            mask <<= 1;
        }
    }

    // Unfold: give the result back to the odd ranks that sat out.
    if rank < 2 * rem {
        if rank.is_multiple_of(2) {
            cv.send(ctx, rank + 1, TAG_ALLREDUCE, data);
        } else {
            cv.recv(ctx, rank - 1, TAG_ALLREDUCE, data);
        }
    }
}

/// Reduce-then-broadcast allreduce (MPICH profile).
pub fn allreduce_reduce_bcast(
    cv: &CommView,
    ctx: &Ctx,
    data: &mut [u8],
    dtype: DType,
    op: ReduceOp,
) {
    reduce_binomial(cv, ctx, data, dtype, op, 0);
    bcast_binomial(cv, ctx, data, 0);
}

/// Binomial gather + binomial release barrier (both profiles).
pub fn barrier_tree(cv: &CommView, ctx: &Ctx) {
    let size = cv.size();
    if size == 1 {
        return;
    }
    let me = cv.rank(); // root 0
    let mut sink = [0u8; 0];
    for child in tree::binomial_children_ascending(me, size) {
        cv.recv(ctx, child, TAG_BARRIER_UP, &mut sink);
    }
    if let Some((parent, _)) = tree::binomial_parent(me, size) {
        cv.send(ctx, parent, TAG_BARRIER_UP, &[]);
        cv.recv(ctx, parent, TAG_BARRIER_DOWN, &mut sink);
    }
    for child in tree::binomial_children(me, size) {
        cv.send(ctx, child, TAG_BARRIER_DOWN, &[]);
    }
}

/// Linear gather (both era vendors gathered linearly at the root):
/// every rank sends its segment `data[me*seg..(me+1)*seg]` straight to
/// `root`; the root receives `P-1` tagged messages into their final
/// offsets.
pub fn gather_linear(cv: &CommView, ctx: &Ctx, data: &mut [u8], seg: usize, root: Rank) {
    let size = cv.size();
    if size == 1 || seg == 0 {
        return;
    }
    let me = cv.rank();
    if me == root {
        for r in 0..size {
            if r != root {
                cv.recv(ctx, r, TAG_GATHER, &mut data[r * seg..(r + 1) * seg]);
            }
        }
    } else {
        cv.send(ctx, root, TAG_GATHER, &data[me * seg..(me + 1) * seg]);
    }
}

/// Linear scatter: the root sends each rank its segment
/// `data[r*seg..(r+1)*seg]` as one tagged message.
pub fn scatter_linear(cv: &CommView, ctx: &Ctx, data: &mut [u8], seg: usize, root: Rank) {
    let size = cv.size();
    if size == 1 || seg == 0 {
        return;
    }
    let me = cv.rank();
    if me == root {
        for r in 0..size {
            if r != root {
                cv.send(ctx, r, TAG_SCATTER, &data[r * seg..(r + 1) * seg]);
            }
        }
    } else {
        cv.recv(ctx, root, TAG_SCATTER, &mut data[me * seg..(me + 1) * seg]);
    }
}

/// Gather-then-broadcast allgather (IBM profile): linear gather of the
/// segments to rank 0, binomial broadcast of the assembled buffer.
pub fn allgather_gather_bcast(cv: &CommView, ctx: &Ctx, data: &mut [u8], seg: usize) {
    gather_linear(cv, ctx, data, seg, 0);
    bcast_binomial(cv, ctx, data, 0);
}

/// Ring allgather (MPICH profile): `P-1` rounds; in round `s` each rank
/// forwards to its right neighbour the segment it received in round
/// `s-1` (its own in round 0), so every segment travels the whole ring.
pub fn allgather_ring(cv: &CommView, ctx: &Ctx, data: &mut [u8], seg: usize) {
    let size = cv.size();
    if size == 1 || seg == 0 {
        return;
    }
    let me = cv.rank();
    let right = (me + 1) % size;
    let left = (me + size - 1) % size;
    for step in 0..size - 1 {
        let send_seg = (me + size - step) % size;
        let recv_seg = (me + size - step - 1) % size;
        let out = data[send_seg * seg..(send_seg + 1) * seg].to_vec();
        let mut inb = vec![0u8; seg];
        cv.sendrecv(
            ctx,
            right,
            TAG_ALLGATHER,
            &out,
            left,
            TAG_ALLGATHER,
            &mut inb,
        );
        data[recv_seg * seg..(recv_seg + 1) * seg].copy_from_slice(&inb);
    }
}

/// Pairwise-rotation alltoall (both vendors' long-message schedule):
/// `data` is the split buffer `[send segments | recv segments]` of
/// `2 * P * seg` bytes. Round `r` exchanges with `dst = me + r` and
/// `src = me - r` (mod `P`), so every round is a disjoint pairing and
/// no rank is ever the target of two concurrent sends.
pub fn alltoall_pairwise(cv: &CommView, ctx: &Ctx, data: &mut [u8], seg: usize) {
    let size = cv.size();
    if seg == 0 {
        return;
    }
    let me = cv.rank();
    let rbase = size * seg;
    data.copy_within(me * seg..(me + 1) * seg, rbase + me * seg);
    for r in 1..size {
        let dst = (me + r) % size;
        let src = (me + size - r) % size;
        let out = data[dst * seg..(dst + 1) * seg].to_vec();
        let mut inb = vec![0u8; seg];
        cv.sendrecv(ctx, dst, TAG_ALLTOALL, &out, src, TAG_ALLTOALL, &mut inb);
        data[rbase + src * seg..rbase + (src + 1) * seg].copy_from_slice(&inb);
    }
}

/// Pairwise-rotation alltoallv: like [`alltoall_pairwise`] but each
/// `seg`-byte slot carries only `counts[i*P+j]` live bytes (`counts` is
/// the full row-major `P * P` matrix, identical everywhere).
pub fn alltoallv_pairwise(cv: &CommView, ctx: &Ctx, data: &mut [u8], seg: usize, counts: &[usize]) {
    let size = cv.size();
    if seg == 0 {
        return;
    }
    let me = cv.rank();
    let rbase = size * seg;
    let own = counts[me * size + me];
    data.copy_within(me * seg..me * seg + own, rbase + me * seg);
    for r in 1..size {
        let dst = (me + r) % size;
        let src = (me + size - r) % size;
        let scnt = counts[me * size + dst];
        let rcnt = counts[src * size + me];
        let out = data[dst * seg..dst * seg + scnt].to_vec();
        let mut inb = vec![0u8; rcnt];
        cv.sendrecv(ctx, dst, TAG_ALLTOALLV, &out, src, TAG_ALLTOALLV, &mut inb);
        data[rbase + src * seg..rbase + src * seg + rcnt].copy_from_slice(&inb);
    }
}

/// Reduce-then-scatter reduce-scatter (IBM profile): binomial reduce of
/// the whole `P * seg` buffer to rank 0, then a linear scatter of the
/// result blocks. `data` follows the in-place layout: block `i` of the
/// result lands at `data[i*seg..(i+1)*seg]` on rank `i`.
pub fn reduce_scatter_reduce_then_scatter(
    cv: &CommView,
    ctx: &Ctx,
    data: &mut [u8],
    seg: usize,
    dtype: DType,
    op: ReduceOp,
) {
    reduce_binomial(cv, ctx, data, dtype, op, 0);
    scatter_linear(cv, ctx, data, seg, 0);
}

/// Pairwise exchange-and-combine reduce-scatter (MPICH profile, the
/// long-message schedule): round `r` sends the untouched contribution
/// for `dst = me + r` and folds `src = me - r`'s contribution into the
/// caller's own result block — `P-1` rounds, each moving exactly one
/// block per rank.
pub fn reduce_scatter_pairwise(
    cv: &CommView,
    ctx: &Ctx,
    data: &mut [u8],
    seg: usize,
    dtype: DType,
    op: ReduceOp,
) {
    let size = cv.size();
    if size == 1 || seg == 0 {
        return;
    }
    let me = cv.rank();
    let mut tmp = vec![0u8; seg];
    for r in 1..size {
        let dst = (me + r) % size;
        let src = (me + size - r) % size;
        let out = data[dst * seg..(dst + 1) * seg].to_vec();
        cv.sendrecv(
            ctx,
            dst,
            TAG_REDUCE_SCATTER,
            &out,
            src,
            TAG_REDUCE_SCATTER,
            &mut tmp,
        );
        combine_costed(ctx, dtype, op, &mut data[me * seg..(me + 1) * seg], &tmp);
    }
}

/// Largest power of two ≤ `n` (n ≥ 1).
pub fn prev_pow2(n: usize) -> usize {
    assert!(n >= 1);
    1 << (usize::BITS - 1 - n.leading_zeros())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prev_pow2_values() {
        assert_eq!(prev_pow2(1), 1);
        assert_eq!(prev_pow2(2), 2);
        assert_eq!(prev_pow2(3), 2);
        assert_eq!(prev_pow2(240), 128);
        assert_eq!(prev_pow2(256), 256);
    }

    #[test]
    fn ctx_id_clears_the_base_tags() {
        // Every base tag must fit under the context shift.
        for tag in [
            TAG_BCAST,
            TAG_REDUCE,
            TAG_ALLREDUCE,
            TAG_BARRIER_UP,
            TAG_BARRIER_DOWN,
            TAG_GATHER,
            TAG_SCATTER,
            TAG_ALLGATHER,
            TAG_ALLTOALL,
            TAG_ALLTOALLV,
            TAG_REDUCE_SCATTER,
        ] {
            assert_eq!(tag >> CTX_SHIFT, 0, "tag {tag:#x} collides with ctx ids");
        }
    }
}
