//! The point-to-point engine: envelopes, matching, and the three
//! transfer protocols (shared-memory, eager, rendezvous).
//!
//! The model is **receiver-driven**: a send deposits a timestamped
//! envelope in the receiver's queue and charges the sender its local
//! costs; the receiver's `recv` performs matching and realizes the
//! arrival timing. This reproduces the cost structure the paper holds
//! against point-to-point-based collectives:
//!
//! * every hop pays per-message send/recv overheads **and tag
//!   matching**;
//! * intra-node messages pay **two copies** (sender into the shared
//!   queue, receiver out of it);
//! * eager inter-node messages that arrive before the receive is
//!   posted pay an **early-arrival copy**;
//! * messages over the vendor's eager limit pay a **rendezvous
//!   handshake** (RTS → CTS → data), serializing a round trip into the
//!   transfer.
//!
//! Rendezvous data timing is computed by the receiver at CTS-grant time
//! assuming a promptly-resuming sender; in the collectives measured
//! here both ends are inside the same blocking operation, so the
//! approximation is tight.

use crate::vendor::Vendor;
use parking_lot::Mutex;
use simnet::{Ctx, Rank, Sim, SimHandle, SimTime, SimVar, Topology};
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Outstanding-message credits per directed rank pair. Real MPI
/// transports bound the unacknowledged messages between two endpoints
/// (flow-control tokens in MPCI, eager-buffer credits in IBM MPI);
/// without this bound, back-to-back collective calls would pipeline
/// unrealistically well through the model.
const PAIR_CREDITS: usize = 2;

/// Message tag (collectives use fixed per-operation tags).
pub type Tag = u32;

/// Release times of a pair's outstanding-send credits.
type CreditVar = SimVar<Vec<SimTime>>;

enum Kind {
    /// Intra-node transfer through a shared-memory queue slot.
    Shm { data: Vec<u8> },
    /// Inter-node eager: data travels with the envelope.
    Eager { data: Vec<u8>, arrive_at: SimTime },
    /// Inter-node rendezvous request-to-send.
    Rts {
        data: Vec<u8>,
        arrive_at: SimTime,
        handshake: SimVar<bool>,
    },
}

struct Envelope {
    src: Rank,
    tag: Tag,
    kind: Kind,
}

/// In-flight send completion handle (see [`MsgEndpoint::isend`]).
pub struct SendReq {
    state: SendState,
}

enum SendState {
    /// Shm/eager: sender-side work already charged; buffer reusable.
    Complete,
    /// Rendezvous: must wait for CTS, then clock out the data.
    Rndv { handshake: SimVar<bool>, len: usize },
}

struct Inner {
    topo: Topology,
    vendor: Vendor,
    queues: Vec<SimVar<Vec<Envelope>>>,
    handle: SimHandle,
    /// Per directed (src, dst) pair: timestamps at which send credits
    /// become available again (created lazily).
    credits: Mutex<HashMap<(Rank, Rank), CreditVar>>,
    /// Per-node switch-adapter availability: all tasks of an SMP node
    /// share one network adapter (as on the SP), so their outbound
    /// serializations queue on this clock.
    node_link: Vec<SimVar<SimTime>>,
}

/// The cluster-wide point-to-point fabric for one MPI implementation.
pub struct MsgWorld {
    inner: Arc<Inner>,
}

impl MsgWorld {
    /// Build the fabric for `topo` with `vendor` tuning. Unlike the RMA
    /// fabric this spawns no helper processes: MPI progress happens
    /// inside blocking calls.
    pub fn new(sim: &mut Sim, topo: Topology, vendor: Vendor) -> Self {
        let handle = sim.handle();
        let queues = (0..topo.nprocs()).map(|_| handle.var(Vec::new())).collect();
        let node_link = (0..topo.nodes())
            .map(|_| handle.var(SimTime::ZERO))
            .collect();
        MsgWorld {
            inner: Arc::new(Inner {
                topo,
                vendor,
                queues,
                handle,
                credits: Mutex::new(HashMap::new()),
                node_link,
            }),
        }
    }

    /// Endpoint for task `rank`.
    pub fn endpoint(&self, rank: Rank) -> MsgEndpoint {
        assert!(rank < self.inner.topo.nprocs());
        MsgEndpoint {
            inner: self.inner.clone(),
            me: rank,
        }
    }

    /// The vendor profile in use.
    pub fn vendor(&self) -> Vendor {
        self.inner.vendor
    }

    /// The topology in use.
    pub fn topology(&self) -> Topology {
        self.inner.topo
    }
}

/// Per-task point-to-point endpoint.
#[derive(Clone)]
pub struct MsgEndpoint {
    inner: Arc<Inner>,
    me: Rank,
}

impl MsgEndpoint {
    /// This endpoint's rank.
    pub fn rank(&self) -> Rank {
        self.me
    }

    /// The topology (collectives need it for tree construction).
    pub fn topology(&self) -> Topology {
        self.inner.topo
    }

    /// The vendor profile.
    pub fn vendor(&self) -> Vendor {
        self.inner.vendor
    }

    fn credit_var(&self, src: Rank, dst: Rank) -> CreditVar {
        self.inner
            .credits
            .lock()
            .entry((src, dst))
            .or_insert_with(|| self.inner.handle.var(vec![SimTime::ZERO; PAIR_CREDITS]))
            .clone()
    }

    /// Take one send credit toward `dst`, blocking until the earliest
    /// outstanding message has been acknowledged.
    fn acquire_credit(&self, ctx: &Ctx, dst: Rank) {
        let var = self.credit_var(self.me, dst);
        let at = var.wait_take(ctx, "send credit (flow control)", |v| {
            if v.is_empty() {
                None
            } else {
                let (i, _) = v
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, t)| **t)
                    .expect("nonempty");
                Some(v.swap_remove(i))
            }
        });
        ctx.advance_to(at);
    }

    /// Regenerate a credit toward `dst` at absolute time `at`. Credits
    /// return at the *transport* level — when the message has been
    /// buffered at the receiver and the acknowledgement has travelled
    /// back — independent of when (or in what order) the application
    /// posts its receives; real MPIs move unexpected messages into
    /// internal buffers precisely so that flow control cannot deadlock
    /// against matching order.
    fn regen_credit(&self, ctx: &Ctx, dst: Rank, at: SimTime) {
        let var = self.credit_var(self.me, dst);
        var.update(ctx, move |v| v.push(at));
    }

    /// Blocking standard-mode send.
    pub fn send(&self, ctx: &Ctx, dst: Rank, tag: Tag, data: &[u8]) {
        let req = self.isend(ctx, dst, tag, data);
        self.wait_send(ctx, req);
    }

    /// Start a send; returns a handle to complete it. For shared-memory
    /// and eager messages the send is already complete (the buffer has
    /// been copied or injected); rendezvous sends finish in
    /// [`MsgEndpoint::wait_send`].
    pub fn isend(&self, ctx: &Ctx, dst: Rank, tag: Tag, data: &[u8]) -> SendReq {
        assert!(dst < self.inner.topo.nprocs(), "send to unknown rank");
        let cfg = ctx.config();
        let extra = self.inner.vendor.extra_per_msg();
        self.acquire_credit(ctx, dst);
        let m = ctx.metrics();

        if self.inner.topo.same_node(self.me, dst) {
            // Shared-memory path: per-message overhead + copy into the
            // shared queue slot (copy #1 of 2).
            ctx.advance(cfg.mpi_send_overhead + extra);
            ctx.advance(cfg.shm_copy_cost(data.len(), 1));
            m.shm_copies.fetch_add(1, Ordering::Relaxed);
            m.shm_bytes.fetch_add(data.len() as u64, Ordering::Relaxed);
            self.push(
                ctx,
                dst,
                Envelope {
                    src: self.me,
                    tag,
                    kind: Kind::Shm {
                        data: data.to_vec(),
                    },
                },
            );
            // Queue-slot recycled once the receiver side drains it.
            self.regen_credit(
                ctx,
                dst,
                ctx.now() + cfg.mpi_recv_overhead + cfg.shm_copy_cost(data.len(), 1),
            );
            return SendReq {
                state: SendState::Complete,
            };
        }

        // Inter-node.
        m.net_messages.fetch_add(1, Ordering::Relaxed);
        m.net_bytes.fetch_add(data.len() as u64, Ordering::Relaxed);
        if data.len() <= self.inner.vendor.eager_limit(self.inner.topo.nprocs()) {
            m.eager_sends.fetch_add(1, Ordering::Relaxed);
            // Sender clocks the message onto the wire through the
            // node's shared adapter. Link-level perturbations stretch
            // the wire term here (the sender-side advance in
            // `wait_send` stays nominal; only the computation that
            // determines delivery time is perturbed).
            let wire = ctx.perturb_wire(
                self.me,
                dst,
                self.inner
                    .vendor
                    .scale_wire(cfg.net_per_byte.cost_of(data.len())),
            );
            ctx.advance(cfg.mpi_send_overhead + extra);
            let link = &self.inner.node_link[self.inner.topo.node_of(self.me)];
            let done = ctx.now().max(link.get()) + wire;
            link.store(ctx, done);
            ctx.advance_to(done);
            let arrive_at = ctx.now() + cfg.net_latency;
            // Transport ack: buffered at the target, ack flies back.
            self.regen_credit(ctx, dst, arrive_at + cfg.net_latency);
            self.push(
                ctx,
                dst,
                Envelope {
                    src: self.me,
                    tag,
                    kind: Kind::Eager {
                        data: data.to_vec(),
                        arrive_at,
                    },
                },
            );
            SendReq {
                state: SendState::Complete,
            }
        } else {
            m.rndv_sends.fetch_add(1, Ordering::Relaxed);
            // RTS control message; data is held until CTS (the
            // handshake itself paces the pair, so the credit returns
            // after the control round trip).
            ctx.advance(cfg.mpi_send_overhead + extra);
            let handshake = ctx.handle().var(false);
            let arrive_at = ctx.now() + cfg.net_latency;
            self.regen_credit(ctx, dst, arrive_at + cfg.net_latency);
            self.push(
                ctx,
                dst,
                Envelope {
                    src: self.me,
                    tag,
                    kind: Kind::Rts {
                        data: data.to_vec(),
                        arrive_at,
                        handshake: handshake.clone(),
                    },
                },
            );
            SendReq {
                state: SendState::Rndv {
                    handshake,
                    len: data.len(),
                },
            }
        }
    }

    /// Complete a send started with [`MsgEndpoint::isend`].
    pub fn wait_send(&self, ctx: &Ctx, req: SendReq) {
        match req.state {
            SendState::Complete => {}
            SendState::Rndv { handshake, len } => {
                let cfg = ctx.config();
                // Wait for the receiver's clear-to-send...
                handshake.wait(ctx, "rendezvous CTS", |g| *g);
                // ...which still has to travel back to us...
                ctx.advance(cfg.net_latency);
                // ...then clock the payload out.
                ctx.advance(
                    cfg.mpi_send_overhead
                        + self.inner.vendor.extra_per_msg()
                        + self.inner.vendor.scale_wire(cfg.net_per_byte.cost_of(len)),
                );
            }
        }
    }

    /// Blocking receive of a message from `src` with `tag` into `buf`.
    /// Returns the payload length.
    ///
    /// # Panics
    /// If the matched message is longer than `buf` (truncation is an
    /// application error in this codebase).
    pub fn recv(&self, ctx: &Ctx, src: Rank, tag: Tag, buf: &mut [u8]) -> usize {
        let cfg = ctx.config();
        let extra = self.inner.vendor.extra_per_msg();
        let m = ctx.metrics();
        let posted_at = ctx.now();

        let env = self.inner.queues[self.me].wait_take(ctx, "matching message", move |q| {
            let idx = q.iter().position(|e| e.src == src && e.tag == tag)?;
            Some(q.remove(idx))
        });
        m.matches.fetch_add(1, Ordering::Relaxed);
        // The matching point is the message-layer analogue of an AM
        // dispatch: a perturbed run may stall the handler here before
        // the payload is copied out.
        ctx.perturb_am_stall_apply(ctx.perturb_am_stall_draw());

        match env.kind {
            Kind::Shm { data } => {
                assert!(data.len() <= buf.len(), "shm message longer than buffer");
                // Matching + copy out of the shared queue (copy #2 of 2).
                ctx.advance(cfg.mpi_match_overhead + cfg.mpi_recv_overhead + extra);
                ctx.advance(cfg.shm_copy_cost(data.len(), 1));
                m.shm_copies.fetch_add(1, Ordering::Relaxed);
                m.shm_bytes.fetch_add(data.len() as u64, Ordering::Relaxed);
                buf[..data.len()].copy_from_slice(&data);
                data.len()
            }
            Kind::Eager { data, arrive_at } => {
                assert!(data.len() <= buf.len(), "eager message longer than buffer");
                if arrive_at <= posted_at {
                    // Early arrival: the message sat in a system buffer
                    // and must be copied into the user buffer now.
                    m.early_arrivals.fetch_add(1, Ordering::Relaxed);
                    ctx.advance(cfg.mpi_match_overhead + cfg.mpi_recv_overhead + extra);
                    ctx.advance(cfg.shm_copy_cost(data.len(), 1));
                    m.shm_copies.fetch_add(1, Ordering::Relaxed);
                    m.shm_bytes.fetch_add(data.len() as u64, Ordering::Relaxed);
                } else {
                    // Receive was posted in time: data lands in place.
                    ctx.advance_to(arrive_at);
                    ctx.advance(cfg.mpi_match_overhead + cfg.mpi_recv_overhead + extra);
                }
                buf[..data.len()].copy_from_slice(&data);
                data.len()
            }
            Kind::Rts {
                data,
                arrive_at,
                handshake,
            } => {
                assert!(data.len() <= buf.len(), "rndv message longer than buffer");
                // Handle the RTS when it is physically here.
                ctx.advance_to(arrive_at);
                ctx.advance(cfg.mpi_match_overhead + extra);
                // Grant CTS; the sender resumes one latency later, pays
                // its send-side costs, and the data flies back.
                let granted_at = ctx.now();
                handshake.store(ctx, true);
                // The sender resumes one latency later, restarts its
                // send path, and queues on its node's shared adapter.
                // The data leg travels src -> me, so the link factor is
                // keyed on that direction.
                let wire = ctx.perturb_wire(
                    src,
                    self.me,
                    self.inner
                        .vendor
                        .scale_wire(cfg.net_per_byte.cost_of(data.len())),
                );
                let floor = granted_at
                    + cfg.net_latency // CTS travel
                    + cfg.mpi_send_overhead
                    + self.inner.vendor.extra_per_msg();
                let link = &self.inner.node_link[self.inner.topo.node_of(src)];
                let ser_done = floor.max(link.get()) + wire;
                link.store(ctx, ser_done);
                let data_arrive = ser_done + cfg.net_latency; // data travel
                ctx.advance_to(data_arrive);
                // Posted receive: data lands directly in the user buffer.
                ctx.advance(cfg.mpi_recv_overhead + extra);
                buf[..data.len()].copy_from_slice(&data);
                data.len()
            }
        }
    }

    /// Deadlock-free combined send+receive (the shape recursive
    /// doubling needs): start the send, complete the receive, then
    /// finish the send.
    #[allow(clippy::too_many_arguments)]
    pub fn sendrecv(
        &self,
        ctx: &Ctx,
        dst: Rank,
        send_tag: Tag,
        send_data: &[u8],
        src: Rank,
        recv_tag: Tag,
        recv_buf: &mut [u8],
    ) -> usize {
        let req = self.isend(ctx, dst, send_tag, send_data);
        let n = self.recv(ctx, src, recv_tag, recv_buf);
        self.wait_send(ctx, req);
        n
    }

    fn push(&self, ctx: &Ctx, dst: Rank, env: Envelope) {
        self.inner.queues[dst].update(ctx, move |q| q.push(env));
    }
}
