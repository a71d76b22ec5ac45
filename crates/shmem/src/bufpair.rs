//! The paper's double-buffer structure (its Figure 3): two shared
//! buffers A and B, each protected by a bank of per-reader READY flags.
//!
//! A writer alternates between the buffers: it fills buffer `i`,
//! publishes it to every reader, and moves on to fill buffer `1 - i`
//! while the readers drain `i` — a two-stage pipeline. Each reader
//! releases the buffer when done, and the writer must see a buffer
//! fully released before refilling it.
//!
//! # One writer per buffer
//!
//! The protocol is sound only if one writer at a time fills a side, and
//! that is the rule every user of a pair keeps:
//! * the writers are the tasks of the node that owns the pair; they
//!   take a side in turn, each claiming it through [`PairUse::Free`];
//! * a remote put never targets the pair. A chunk a parent node puts
//!   lands in that edge's own landing, where the edge's credit orders
//!   it. The node master then publishes a use of the pair's counters
//!   for it, so the node's tasks read the landing in the pair's order
//!   and the credit returns once [`PairUse::Drained`] holds.
//!
//! # Use sequences, not 0/1 flags
//!
//! The paper's protocol sets a READY flag to 1 on publish and clears it
//! on release, which is sound only while the writer never changes: the
//! writer alone sets flags, so when it observes all-clear it knows its
//! own previous publish completed and every reader drained it.
//!
//! SRM hands the writer role around the node between uses (broadcast
//! roots rotate across calls). There a cleared flag is ambiguous — it
//! means both "released" and "not yet published" — and a new writer can
//! pass its free-wait while the previous writer's publish (a per-reader
//! sequence of flag stores) is still in flight, overwrite the buffer,
//! and feed the late-notified readers the wrong data. The
//! schedule-exploration stress harness caught exactly this under
//! compute-stall perturbation.
//!
//! The flags are therefore **cumulative use counters**. Uses of the
//! pair are numbered by a sequence `q` that counts every use the node
//! made (side `q % 2`, per-side use index `c = q / 2`):
//! * publishing use `q` raises each reader's READY flag for that side
//!   to `c + 1`;
//! * releasing it raises the reader's own RELEASED flag to `c + 1`;
//! * a writer drawn from the slot bank releases its own use like a
//!   reader, after its last read of the side (a master forwarding the
//!   side onto the wire or copying its own part out reads it after the
//!   publish), so the released bank also records that the publish
//!   completed and that the writer is done with the side;
//! * the free-wait for use `q` waits for every RELEASED flag of that
//!   side to reach `q / 2` — distinguishing "everyone is done with use
//!   `q - 2`" from "use `q - 2` was never announced".

use crate::buffer::ShmBuffer;
use crate::flag::{FlagBank, SpinFlag};
use simnet::{Ctx, SimHandle};

/// What a waiter needs of use `q` of a pair side (see
/// [`BufPair::watch`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PairUse {
    /// Writer claim: every slot has released use `q - 2` of this side
    /// (trivially true for the first use of each side).
    Free,
    /// Reader: use `q` is published to my slot.
    Published,
    /// Writer drain-acknowledge: use `q` itself is fully released —
    /// what a node master needs before returning the flow-control
    /// credit of the edge landing the use's bytes came in.
    Drained,
}

/// Two shared buffers with per-reader READY / RELEASED counter banks.
#[derive(Clone)]
pub struct BufPair {
    bufs: [ShmBuffer; 2],
    ready: [FlagBank; 2],
    released: [FlagBank; 2],
}

impl BufPair {
    /// Two buffers of `capacity` bytes each, with `readers` flags per
    /// buffer, all counters starting at zero (buffers free).
    pub fn new(handle: &SimHandle, capacity: usize, readers: usize) -> Self {
        BufPair {
            bufs: [ShmBuffer::new(capacity), ShmBuffer::new(capacity)],
            ready: [
                FlagBank::new(handle, readers, 0),
                FlagBank::new(handle, readers, 0),
            ],
            released: [
                FlagBank::new(handle, readers, 0),
                FlagBank::new(handle, readers, 0),
            ],
        }
    }

    /// Buffer `side` (0 or 1). Alternation helper: `side = q % 2`.
    pub fn buf(&self, side: usize) -> &ShmBuffer {
        &self.bufs[side & 1]
    }

    /// The counters a waiter on use `q` watches, with the value all of
    /// them must reach: the one place the `q → (side, per-side use)`
    /// arithmetic of the module doc lives. `me` is the waiter's slot
    /// (only [`PairUse::Published`] looks at it). Costless probes, wake
    /// keys and blocking waits all derive from the returned pair.
    pub fn watch(&self, q: u64, what: PairUse, me: usize) -> (&[SpinFlag], u64) {
        let (side, use_idx) = ((q % 2) as usize, q / 2);
        match what {
            PairUse::Free => (self.released[side].flags(), use_idx),
            PairUse::Published => (std::slice::from_ref(self.ready[side].flag(me)), use_idx + 1),
            PairUse::Drained => (self.released[side].flags(), use_idx + 1),
        }
    }

    fn wait(&self, ctx: &Ctx, label: &'static str, q: u64, what: PairUse, me: usize) {
        let (flags, value) = self.watch(q, what, me);
        for f in flags {
            f.wait_ge(ctx, label, value);
        }
    }

    /// Number of readers each buffer serves.
    pub fn readers(&self) -> usize {
        self.ready[0].len()
    }

    /// Capacity of each buffer in bytes.
    pub fn capacity(&self) -> usize {
        self.bufs[0].capacity()
    }

    /// Writer side: block until every slot has released use `q - 2` of
    /// this side (trivially true for the first use of each side).
    pub fn wait_free(&self, ctx: &Ctx, q: u64) {
        self.wait(ctx, "buffer released by readers", q, PairUse::Free, 0);
    }

    /// Writer side: publish use `q` to every reader. For a writer that
    /// is *not* itself a slot in the bank (e.g. a dedicated producer);
    /// writers drawn from the bank use [`BufPair::publish_from`].
    pub fn publish(&self, ctx: &Ctx, q: u64) {
        let bank = &self.ready[(q % 2) as usize];
        for r in 0..bank.len() {
            bank.flag(r).raise(ctx, q / 2 + 1);
        }
    }

    /// Writer side: publish use `q` to every slot except `writer`
    /// (the writer's own slot). The writer still owes its own
    /// [`BufPair::release`], after its last read of the side: ordered
    /// after the last READY store, it witnesses that this publish
    /// completed, so the next writer of the side can pass
    /// [`BufPair::wait_free`] neither mid-publish nor while this writer
    /// still reads the side.
    pub fn publish_from(&self, ctx: &Ctx, q: u64, writer: usize) {
        let bank = &self.ready[(q % 2) as usize];
        for r in (0..bank.len()).filter(|&r| r != writer) {
            bank.flag(r).raise(ctx, q / 2 + 1);
        }
    }

    /// Reader side: block until use `q` is published to reader `me`.
    pub fn wait_published(&self, ctx: &Ctx, q: u64, me: usize) {
        self.wait(ctx, "buffer published", q, PairUse::Published, me);
    }

    /// Reader side: release use `q` (raise own RELEASED counter).
    pub fn release(&self, ctx: &Ctx, q: u64, me: usize) {
        self.released[(q % 2) as usize]
            .flag(me)
            .raise(ctx, q / 2 + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{MachineConfig, Sim, SimTime};

    /// Full pipelined producer/consumer exchange through a BufPair:
    /// checks both data integrity and that the two buffers actually
    /// overlap in time (pipelining).
    #[test]
    fn pipelined_stream_delivers_all_chunks() {
        let mut s = Sim::new(MachineConfig::uniform_test());
        let pair = BufPair::new(&s.handle(), 256, 2);
        let chunks: Vec<Vec<u8>> = (0..6u8).map(|i| vec![i; 256]).collect();

        let p = pair.clone();
        let send = chunks.clone();
        s.spawn("writer", move |ctx| {
            for (seq, chunk) in send.iter().enumerate() {
                let q = seq as u64;
                p.wait_free(&ctx, q);
                p.buf(seq % 2).write(&ctx, 0, chunk, 1);
                p.publish(&ctx, q);
            }
        });

        for reader in 0..2usize {
            let p = pair.clone();
            let expect = chunks.clone();
            s.spawn(format!("reader{reader}"), move |ctx| {
                for (seq, chunk) in expect.iter().enumerate() {
                    let q = seq as u64;
                    p.wait_published(&ctx, q, reader);
                    let mut got = vec![0u8; 256];
                    p.buf(seq % 2).read(&ctx, 0, &mut got, 2);
                    assert_eq!(&got, chunk, "chunk {seq} corrupted");
                    p.release(&ctx, q, reader);
                }
            });
        }
        s.run().unwrap();
    }

    #[test]
    fn writer_blocks_until_readers_release() {
        let mut s = Sim::new(MachineConfig::uniform_test());
        let pair = BufPair::new(&s.handle(), 64, 1);

        let p = pair.clone();
        s.spawn("writer", move |ctx| {
            // Publish side 0 twice; the second use must wait for the
            // first to be released.
            p.wait_free(&ctx, 0);
            p.buf(0).write(&ctx, 0, &[1u8; 64], 1);
            p.publish(&ctx, 0);
            p.wait_free(&ctx, 2);
            // Reader released at >= 10us; we cannot be earlier.
            assert!(ctx.now() >= SimTime::from_us(10));
        });
        let p = pair.clone();
        s.spawn("reader", move |ctx| {
            p.wait_published(&ctx, 0, 0);
            ctx.advance(SimTime::from_us(10)); // slow consumer
            p.release(&ctx, 0, 0);
        });
        s.run().unwrap();
    }

    /// The writer-handoff invariant: when writers are drawn from the
    /// slot bank and rotate between uses, the next writer's free-wait
    /// must also wait for the *previous writer* to be done with the
    /// side — its publish finished and its own reads of the side over,
    /// witnessed by its explicit release — not only for reader
    /// releases.
    #[test]
    fn writer_handoff_waits_for_previous_publish() {
        let mut s = Sim::new(MachineConfig::uniform_test());
        let pair = BufPair::new(&s.handle(), 64, 3);

        // Slot 0 writes use 0 of side 0, publishes it at 20us and reads
        // the side until 30us before it releases.
        let p = pair.clone();
        s.spawn("w1", move |ctx| {
            p.wait_free(&ctx, 0);
            p.buf(0).write(&ctx, 0, &[7u8; 64], 1);
            ctx.advance(SimTime::from_us(20)); // stalled mid-publish
            p.publish_from(&ctx, 0, 0);
            ctx.advance(SimTime::from_us(10)); // still forwarding the side
            assert_eq!(p.buf(0).with(|d| d[0]), 7);
            p.release(&ctx, 0, 0);
        });
        // Slots 1 and 2 read use 0, then slot 1 writes use 2 (side 0
        // again): its free-wait must not pass before w1's publish.
        for me in 1..3usize {
            let p = pair.clone();
            s.spawn(format!("r{me}"), move |ctx| {
                p.wait_published(&ctx, 0, me);
                assert_eq!(p.buf(0).with(|d| d[0]), 7);
                p.release(&ctx, 0, me);
                if me == 1 {
                    p.wait_free(&ctx, 2);
                    assert!(ctx.now() >= SimTime::from_us(30));
                    p.buf(0).write(&ctx, 0, &[9u8; 64], 1);
                    p.publish_from(&ctx, 2, me);
                    p.release(&ctx, 2, me);
                }
            });
        }
        s.run().unwrap();
    }

    #[test]
    fn geometry_accessors() {
        let s = Sim::new(MachineConfig::uniform_test());
        let pair = BufPair::new(&s.handle(), 128, 3);
        assert_eq!(pair.readers(), 3);
        assert_eq!(pair.capacity(), 128);
        // side indexing wraps
        assert_eq!(pair.buf(2).capacity(), pair.buf(0).capacity());
        drop(s);
    }
}
