//! Segment routing: **where does a segment land?**
//!
//! Every SRM wire protocol ultimately answers one question per
//! segment: does it travel *staged* — through a pre-registered shared
//! landing structure (the broadcast landing pair, the pairwise landing
//! rings) with credit-based flow control — or *direct*, rendezvous
//! style: exchange a buffer address for this call, then one put
//! straight into the destination buffer (the paper's §2 large-message
//! protocol; the same shape as MPICH's large-message rendezvous).
//!
//! [`SegmentRoute`] makes the answer a first-class planner decision,
//! resolved per (operation family, segment size, effective tuning) by
//! [`SrmComm::segment_route`] — so the broadcast's 64 KB switch
//! ([`SrmTuning::small_large_switch`]) and reduce-scatter's
//! [`SrmTuning::pairwise_direct_min`] threshold are two rows of the
//! same routing decision. Alltoall and alltoallv are not routed: their
//! one wire is direct at every size ([`crate::pairwise`]).

use crate::plan::PlanShape;
use crate::tuning::SrmTuning;
use crate::world::SrmComm;

/// Where a protocol's wire segments land — the planner's routing
/// decision, resolved once per compiled call shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SegmentRoute {
    /// Segments stage through pre-registered shared landing structures
    /// (landing pairs, pairwise rings) under credit flow control, then
    /// copy into place.
    Staged,
    /// Segments land straight in the destination user (or per-call
    /// scratch) buffer: a per-call address exchange, then one put per
    /// stream with a completion counter — no intermediate copies.
    Direct,
}

impl SegmentRoute {
    /// Trace label emitted at plan-compile time (`route:staged` /
    /// `route:direct`), rendered by the timeline example alongside the
    /// `tuned:*` labels.
    pub fn label(self) -> &'static str {
        match self {
            SegmentRoute::Staged => "route:staged",
            SegmentRoute::Direct => "route:direct",
        }
    }
}

/// The protocol families a [`SegmentRoute`] is resolved for. Each
/// family has its own switch knob because its staged path amortizes
/// differently (a broadcast landing pair serves a whole node; a
/// pairwise ring serves one stream).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RouteClass {
    /// Rooted tree protocols (broadcast): direct above
    /// [`SrmTuning::small_large_switch`].
    Rooted,
    /// The master-to-master streams of reduce_scatter: direct at or
    /// above [`SrmTuning::pairwise_direct_min`].
    Pairwise,
}

impl SrmComm {
    /// Resolve the route for a `seg`-byte segment of protocol family
    /// `class` under the effective tuning `eff`. A pure function of its
    /// arguments, so every member of a communicator resolves the same
    /// route and compiles consistent plans.
    pub fn segment_route(&self, eff: &SrmTuning, class: RouteClass, seg: usize) -> SegmentRoute {
        let direct = match class {
            RouteClass::Rooted => seg > eff.small_large_switch,
            RouteClass::Pairwise => seg >= eff.pairwise_direct_min,
        };
        if direct {
            SegmentRoute::Direct
        } else {
            SegmentRoute::Staged
        }
    }

    /// The route `shape` compiles with under `eff`, or `None` for
    /// shapes without a routed wire leg (non-routed protocols — the
    /// total exchanges among them — empty payloads, single-node
    /// communicators). Drives the compile-time
    /// `route:*` trace label.
    pub(crate) fn route_of_shape(
        &self,
        shape: &PlanShape,
        eff: &SrmTuning,
    ) -> Option<SegmentRoute> {
        if !self.cmulti() {
            return None;
        }
        use PlanShape as S;
        let (class, seg) = match shape {
            S::Bcast { len, .. } if *len > 0 => (RouteClass::Rooted, *len),
            S::ReduceScatter { len } if *len > 0 => (RouteClass::Pairwise, *len),
            _ => return None,
        };
        Some(self.segment_route(eff, class, seg))
    }
}
