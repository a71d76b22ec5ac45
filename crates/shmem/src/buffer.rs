//! Shared-memory data buffers.
//!
//! A [`ShmBuffer`] is a fixed-capacity byte buffer in simulated shared
//! memory. It holds **real bytes** — the collectives implemented on top
//! of it move and combine actual data, so their results can be checked
//! against sequential references — while charging the machine model's
//! copy costs to the calling logical process.
//!
//! Synchronization is *not* this type's job: exactly as on real
//! hardware, callers must order their accesses with flags
//! ([`SpinFlag`](crate::SpinFlag)). The simulator's turn-based kernel
//! makes unsynchronized access deterministic rather than undefined, so
//! protocol races show up as stable, debuggable wrong answers in tests.

use parking_lot::{Mutex, MutexGuard};
use simnet::Ctx;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// End of the range `[off, off + len)` inside a buffer of `cap` bytes.
///
/// # Panics
/// Naming the access (`what`), if the range overflows or runs past `cap`.
fn end_within(what: &str, off: usize, len: usize, cap: usize) -> usize {
    off.checked_add(len)
        .filter(|&end| end <= cap)
        .unwrap_or_else(|| {
            panic!("shm {what} out of bounds: offset {off} + len {len} > capacity {cap}")
        })
}

/// Fixed-capacity shared byte buffer.
///
/// The bytes are allocated by the first data access, not by
/// [`ShmBuffer::new`]: a world sizes every landing, contribution and
/// ring buffer for the largest call it could be asked for, and most
/// are never touched. An unwritten buffer reads as zeros either way.
#[derive(Clone)]
pub struct ShmBuffer {
    /// Fixed at creation and kept beside the `Arc`, so bounds checks
    /// (one per put) take no lock.
    cap: usize,
    /// Empty until the first data access, `cap` bytes from then on.
    data: Arc<Mutex<Vec<u8>>>,
}

impl ShmBuffer {
    /// `capacity` zeroed bytes of shared memory.
    pub fn new(capacity: usize) -> Self {
        ShmBuffer {
            cap: capacity,
            data: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// The bytes, allocated (zeroed) on the first call.
    fn bytes(&self) -> MutexGuard<'_, Vec<u8>> {
        let mut data = self.data.lock();
        if data.len() != self.cap {
            *data = vec![0u8; self.cap];
        }
        data
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Does the range `[offset, offset + len)` lie within this buffer?
    /// Overflow-safe; `rma` bounds-checks every put with it at issue,
    /// before the bytes travel to a remotely-supplied buffer handle.
    pub fn fits(&self, offset: usize, len: usize) -> bool {
        offset.checked_add(len).is_some_and(|end| end <= self.cap)
    }

    /// `true` when `other` is a clone of this buffer, i.e. both handles
    /// alias the same underlying storage. The nonblocking executor uses
    /// this to reject write-aliased buffers shared between outstanding
    /// collectives (read-read sharing is fine).
    pub fn same_storage(&self, other: &ShmBuffer) -> bool {
        Arc::ptr_eq(&self.data, &other.data)
    }

    /// Copy `src` into the buffer at `offset`, charging the copy cost
    /// for `streams` concurrent copy streams on this node's bus.
    ///
    /// # Panics
    /// If the write would run past the buffer's capacity (fixed shared
    /// segments do not grow).
    pub fn write(&self, ctx: &Ctx, offset: usize, src: &[u8], streams: usize) {
        let end = end_within("write", offset, src.len(), self.cap);
        self.bytes()[offset..end].copy_from_slice(src);
        self.charge_copy(ctx, src.len(), streams);
    }

    /// Copy `dst.len()` bytes out of the buffer starting at `offset`,
    /// charging the copy cost for `streams` concurrent streams.
    pub fn read(&self, ctx: &Ctx, offset: usize, dst: &mut [u8], streams: usize) {
        let end = end_within("read", offset, dst.len(), self.cap);
        dst.copy_from_slice(&self.bytes()[offset..end]);
        self.charge_copy(ctx, dst.len(), streams);
    }

    /// Inspect the contents without cost. For operations whose cost is
    /// charged separately (e.g. a reduction that reads two operands and
    /// writes one result charges `reduce_cost`, not three copies).
    pub fn with<R>(&self, f: impl FnOnce(&[u8]) -> R) -> R {
        f(&self.bytes())
    }

    /// Mutate the contents without cost (see [`ShmBuffer::with`]).
    pub fn with_mut<R>(&self, f: impl FnOnce(&mut [u8]) -> R) -> R {
        f(&mut self.bytes())
    }

    /// Copy `len` bytes from `self[src_off..]` into `dst[dst_off..]`
    /// without cost (see [`ShmBuffer::with`]): one `memcpy` between two
    /// buffers, a `memmove` when both handles share storage, so
    /// overlapping ranges copy as if through a temporary.
    ///
    /// Both locks are held only for the copy itself; no simulation
    /// operation runs under them.
    ///
    /// # Panics
    /// If either range runs past its buffer's capacity.
    pub fn copy_to(&self, src_off: usize, dst: &ShmBuffer, dst_off: usize, len: usize) {
        let src_end = end_within("copy source", src_off, len, self.cap);
        let dst_end = end_within("copy destination", dst_off, len, dst.cap);
        if self.same_storage(dst) {
            self.bytes().copy_within(src_off..src_end, dst_off);
        } else {
            let from = self.bytes();
            dst.bytes()[dst_off..dst_end].copy_from_slice(&from[src_off..src_end]);
        }
    }

    /// Account one copy of `len` bytes by `streams` concurrent streams.
    pub fn charge_copy(&self, ctx: &Ctx, len: usize, streams: usize) {
        ctx.advance(ctx.config().shm_copy_cost(len, streams));
        let m = ctx.metrics();
        m.shm_copies.fetch_add(1, Ordering::Relaxed);
        m.shm_bytes.fetch_add(len as u64, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{MachineConfig, Sim, SimTime};

    #[test]
    fn fits_bounds_and_overflow() {
        let buf = ShmBuffer::new(64);
        assert!(buf.fits(0, 64));
        assert!(buf.fits(64, 0));
        assert!(buf.fits(32, 32));
        assert!(!buf.fits(32, 33));
        assert!(!buf.fits(65, 0));
        assert!(!buf.fits(usize::MAX, 2));
    }

    #[test]
    fn write_then_read_roundtrip() {
        let mut s = Sim::new(MachineConfig::uniform_test());
        let buf = ShmBuffer::new(64);
        let b = buf.clone();
        s.spawn("lp", move |ctx| {
            let src: Vec<u8> = (0..32).collect();
            b.write(&ctx, 8, &src, 1);
            let mut dst = vec![0u8; 32];
            b.read(&ctx, 8, &mut dst, 1);
            assert_eq!(dst, src);
        });
        let r = s.run().unwrap();
        assert_eq!(r.metrics.shm_copies, 2);
        assert_eq!(r.metrics.shm_bytes, 64);
        // uniform_test: 1000 ps/B, no startup => 32 KB? no: 32 B * 2.
        assert_eq!(r.end_time, SimTime::from_ps(2 * 32 * 1000));
    }

    #[test]
    fn contention_slows_copies() {
        let mut s = Sim::new(MachineConfig::uniform_test());
        let buf = ShmBuffer::new(1024);
        let b = buf.clone();
        s.spawn("lp", move |ctx| {
            let src = vec![7u8; 1024];
            let t0 = ctx.now();
            b.write(&ctx, 0, &src, 1);
            let single = ctx.now() - t0;
            let t1 = ctx.now();
            b.write(&ctx, 0, &src, 4);
            let contended = ctx.now() - t1;
            assert!(contended > single);
            assert_eq!(contended, single * 2); // 4 * 500 = 2000 vs 1000 ps/B
        });
        s.run().unwrap();
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn write_past_capacity_panics() {
        let mut s = Sim::new(MachineConfig::uniform_test());
        let buf = ShmBuffer::new(16);
        s.spawn("lp", move |ctx| {
            buf.write(&ctx, 8, &[0u8; 16], 1);
        });
        // The panic surfaces as an LpPanic error; re-panic for the test.
        if let Err(e) = s.run() {
            panic!("{e}");
        }
    }

    #[test]
    fn with_mut_has_no_cost() {
        let mut s = Sim::new(MachineConfig::uniform_test());
        let buf = ShmBuffer::new(8);
        let b = buf.clone();
        s.spawn("lp", move |ctx| {
            b.with_mut(|d| d[0] = 42);
            assert_eq!(ctx.now(), SimTime::ZERO);
            assert_eq!(b.with(|d| d[0]), 42);
        });
        let r = s.run().unwrap();
        assert_eq!(r.metrics.shm_copies, 0);
    }

    fn counting(cap: usize) -> ShmBuffer {
        let buf = ShmBuffer::new(cap);
        buf.with_mut(|d| d.iter_mut().enumerate().for_each(|(i, b)| *b = i as u8));
        buf
    }

    #[test]
    fn copy_to_between_disjoint_buffers() {
        let (src, dst) = (counting(32), ShmBuffer::new(16));
        src.copy_to(8, &dst, 4, 6);
        dst.with(|d| assert_eq!(d, [0, 0, 0, 0, 8, 9, 10, 11, 12, 13, 0, 0, 0, 0, 0, 0]));
        src.with(|d| assert!(d.iter().enumerate().all(|(i, &b)| b == i as u8)));
    }

    #[test]
    fn copy_to_same_storage_overlapping_either_way() {
        // Forward overlap (destination above the source) …
        let buf = counting(16);
        buf.copy_to(0, &buf.clone(), 4, 8);
        buf.with(|d| assert_eq!(d[..12], [0, 1, 2, 3, 0, 1, 2, 3, 4, 5, 6, 7]));
        // … and backward overlap (destination below it).
        let buf = counting(16);
        buf.copy_to(4, &buf.clone(), 0, 8);
        buf.with(|d| assert_eq!(d[..12], [4, 5, 6, 7, 8, 9, 10, 11, 8, 9, 10, 11]));
    }

    #[test]
    #[should_panic(expected = "source out of bounds: offset 12 + len 8 > capacity 16")]
    fn copy_to_source_overrun_panics() {
        ShmBuffer::new(16).copy_to(12, &ShmBuffer::new(64), 0, 8);
    }

    #[test]
    #[should_panic(expected = "destination out of bounds: offset 60 + len 8 > capacity 64")]
    fn copy_to_destination_overrun_panics() {
        ShmBuffer::new(16).copy_to(0, &ShmBuffer::new(64), 60, 8);
    }

    #[test]
    #[should_panic(expected = "destination out of bounds: offset 10 + len 8 > capacity 16")]
    fn copy_to_same_storage_overrun_panics() {
        let buf = ShmBuffer::new(16);
        buf.copy_to(0, &buf.clone(), 10, 8);
    }

    #[test]
    fn capacity_reported() {
        let buf = ShmBuffer::new(4096);
        assert_eq!(buf.capacity(), 4096);
    }

    /// Have the bytes been allocated yet?
    fn allocated(buf: &ShmBuffer) -> bool {
        buf.data.lock().capacity() != 0
    }

    #[test]
    fn capacity_fits_same_storage_and_clone_do_not_allocate() {
        let buf = ShmBuffer::new(4096);
        let other = ShmBuffer::new(4096);
        assert_eq!(buf.capacity(), 4096);
        assert!(buf.fits(4000, 96) && !buf.fits(4000, 97));
        let twin = buf.clone();
        assert!(buf.same_storage(&twin) && !buf.same_storage(&other));
        assert!(!allocated(&buf) && !allocated(&other));
        // The first data access through either handle allocates for both.
        twin.with_mut(|d| d[7] = 7);
        assert!(allocated(&buf) && !allocated(&other));
        assert_eq!(buf.with(|d| (d.len(), d[7])), (4096, 7));
    }

    #[test]
    fn unwritten_buffer_reads_as_zeros() {
        assert!(ShmBuffer::new(48).with(|d| d.len() == 48 && d.iter().all(|&b| b == 0)));
        // As a copy source, over bytes that were not zero before.
        let dst = counting(16);
        ShmBuffer::new(48).copy_to(40, &dst, 4, 8);
        dst.with(|d| assert_eq!(d, [0, 1, 2, 3, 0, 0, 0, 0, 0, 0, 0, 0, 12, 13, 14, 15]));
        // And through the costed read.
        let mut s = Sim::new(MachineConfig::uniform_test());
        s.spawn("lp", move |ctx| {
            let mut out = [0xffu8; 8];
            ShmBuffer::new(48).read(&ctx, 40, &mut out, 1);
            assert_eq!(out, [0u8; 8]);
        });
        s.run().unwrap();
    }

    #[test]
    fn out_of_bounds_on_an_unwritten_buffer_names_its_offsets_and_allocates_nothing() {
        let buf = ShmBuffer::new(16);
        let overrun = |f: &dyn Fn()| {
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
            *caught.unwrap_err().downcast::<String>().unwrap()
        };
        assert_eq!(
            overrun(&|| buf.copy_to(12, &ShmBuffer::new(64), 0, 8)),
            "shm copy source out of bounds: offset 12 + len 8 > capacity 16"
        );
        assert_eq!(
            overrun(&|| ShmBuffer::new(64).copy_to(0, &buf, 10, 8)),
            "shm copy destination out of bounds: offset 10 + len 8 > capacity 16"
        );
        assert!(!allocated(&buf));
    }

    #[test]
    fn zero_capacity_buffer_is_valid() {
        let (a, b) = (ShmBuffer::new(0), ShmBuffer::new(0));
        assert_eq!(a.capacity(), 0);
        assert!(a.fits(0, 0) && !a.fits(0, 1));
        assert!(a.with(|d| d.is_empty()));
        a.with_mut(|d| assert!(d.is_empty()));
        a.copy_to(0, &b, 0, 0);
        a.copy_to(0, &a.clone(), 0, 0);
        assert!(!a.same_storage(&b));
        assert!(!allocated(&a) && !allocated(&b));
    }
}
