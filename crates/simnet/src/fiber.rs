//! Stackful user-space fibers: a private stack per logical process and
//! a register-save stack switch. This file holds the crate's only
//! `unsafe` apart from the resume/yield call sites and the LP entry
//! function in [`kernel`](crate::kernel).
//!
//! A [`Fiber`] is an `mmap`ed stack with an inaccessible guard region
//! below it and one saved stack pointer. [`switch`] pushes the
//! callee-saved registers of the running context onto its own stack,
//! installs another context's stack pointer, pops *its* registers and
//! returns there — a function call that comes back on a different
//! stack. Nothing else is saved: a context only ever gives up the CPU
//! by calling `switch`, so the compiler has already spilled whatever
//! caller-saved state it needs. The floating-point control words
//! (MXCSR/x87 CW, FPCR) are deliberately shared, as they would be
//! between the callees of one thread.
//!
//! # Why the `unsafe` is sound
//!
//! * **One host thread per `Sim`.** Fibers are created, resumed and
//!   dropped by the thread inside [`Sim::run`](crate::Sim::run), and
//!   they suspend through a [`Ctx`](crate::Ctx), which is neither
//!   `Send` nor `Sync` and refuses to act for an LP that is not the
//!   one holding the turn. So a saved stack pointer is only installed
//!   on the thread that saved it, while its stack is mapped, and each
//!   save is resumed at most once.
//! * **A listed stack holds no live context.** A dropped fiber's
//!   mapping, guard region intact, goes to a free list local to its
//!   thread, which [`Fiber::new`] draws from before it maps, and which
//!   is unmapped when the thread exits: a world after the first of its
//!   size on a thread pays no `mmap`, `mprotect`, `munmap` or
//!   first-touch fault. The saved stack pointer dies with the `Fiber`,
//!   so nothing can resume into a listed stack; whatever its abandoned
//!   frames left behind is dead bytes, overwritten by the next initial
//!   frame. Only the owning thread ever sees the list (a `Fiber` is not
//!   `Send`), so concurrent `Sim`s on different threads still share
//!   nothing.
//! * **No guard across a switch.** The kernel drops its scheduler
//!   `MutexGuard` before every `switch` and re-locks after, so no lock
//!   is held by a suspended context.
//! * **The entry frame owns nothing.** A fiber's stack is given up
//!   without running destructors, so by the time an LP switches out
//!   for the last time its entry function holds only borrows of data
//!   owned by `Sim::run`; everything the LP owned was dropped when its
//!   closure returned or unwound.
//! * **Unwinds stop at the entry.** The entry function catches every
//!   panic of the LP closure (including the quiet abort the kernel
//!   raises to tear a run down), and it is `extern "C"`, so an unwind
//!   that did escape would abort the process rather than walk off the
//!   stack base. The base holds a null return address (and a null
//!   frame pointer), which is also where backtraces end.

use std::cell::RefCell;
use std::ffi::c_void;
use std::ptr;

#[cfg(not(all(unix, any(target_arch = "x86_64", target_arch = "aarch64"))))]
compile_error!(
    "simnet's fiber switch is written for x86_64 (System V) and aarch64 (AAPCS64) on unix only"
);

/// Usable stack per fiber: room for unoptimised protocol frames plus a
/// panic's formatting and unwinding on top of them.
const STACK_BYTES: usize = 512 * 1024;
/// Inaccessible region below each stack; a multiple of every page size
/// the supported targets use (4, 16 or 64 KiB).
const GUARD_BYTES: usize = 64 * 1024;

const PROT_NONE: i32 = 0;
const PROT_READ_WRITE: i32 = 1 | 2;
const MAP_PRIVATE: i32 = 0x02;
#[cfg(any(target_os = "linux", target_os = "android"))]
const MAP_ANONYMOUS: i32 = 0x20;
#[cfg(not(any(target_os = "linux", target_os = "android")))]
const MAP_ANONYMOUS: i32 = 0x1000;

// std links libc on every unix target, so these resolve without a
// dependency; `off` is `off_t`, 64-bit on the supported targets.
extern "C" {
    fn mmap(addr: *mut c_void, len: usize, prot: i32, flags: i32, fd: i32, off: i64)
        -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
    fn munmap(addr: *mut c_void, len: usize) -> i32;
}

/// What a fiber runs: called once on the new stack with the `arg`
/// given to [`Fiber::new`] and the stack pointer of the context that
/// first resumed it. It must never return; its last act is a
/// [`switch`] away that is never answered.
pub(crate) type Entry = unsafe extern "C" fn(arg: *mut u8, from: *mut u8) -> !;

/// Bytes per mapping: the guard region, then the stack above it.
const MAP_BYTES: usize = GUARD_BYTES + STACK_BYTES;

/// Mappings of this thread's dropped fibers, lowest addresses, for its
/// next fibers to run on (see the module docs).
struct StackList {
    free: Vec<*mut u8>,
    /// Where the thread's exit reports how many mappings it returned.
    #[cfg(test)]
    unmapped_at_exit: Option<std::sync::Arc<std::sync::atomic::AtomicUsize>>,
}

thread_local! {
    static STACKS: RefCell<StackList> = const {
        RefCell::new(StackList {
            free: Vec::new(),
            #[cfg(test)]
            unmapped_at_exit: None,
        })
    };
}

impl Drop for StackList {
    fn drop(&mut self) {
        for &base in &self.free {
            // SAFETY: a listed mapping was made by `map_stack` and its
            // fiber is gone: nothing refers into it.
            unsafe { munmap(base.cast(), MAP_BYTES) };
        }
        #[cfg(test)]
        if let Some(count) = &self.unmapped_at_exit {
            count.fetch_add(self.free.len(), std::sync::atomic::Ordering::SeqCst);
        }
    }
}

/// Map a stack with its guard region below it; returns the lowest
/// address of the mapping.
///
/// # Panics
/// If the kernel refuses the mapping (address space or
/// `vm.max_map_count` exhausted) — the fiber equivalent of a failed
/// thread spawn.
fn map_stack() -> *mut u8 {
    // SAFETY: an anonymous private mapping at an address of the
    // kernel's choosing aliases nothing; the result is checked.
    let base = unsafe {
        mmap(
            ptr::null_mut(),
            MAP_BYTES,
            PROT_READ_WRITE,
            MAP_PRIVATE | MAP_ANONYMOUS,
            -1,
            0,
        )
    };
    assert!(
        base.addr() != usize::MAX, // MAP_FAILED
        "mmap of a fiber stack failed: {}",
        std::io::Error::last_os_error()
    );
    // SAFETY: the guard region is the low end of the mapping just
    // made, page-aligned at both ends.
    let rc = unsafe { mprotect(base, GUARD_BYTES, PROT_NONE) };
    assert!(
        rc == 0,
        "mprotect of a fiber guard region failed: {}",
        std::io::Error::last_os_error()
    );
    base.cast()
}

/// A suspended execution context on a stack of its own.
pub(crate) struct Fiber {
    /// Lowest address of the mapping (the guard region comes first).
    base: *mut u8,
    /// Where [`switch`] left this context's callee-saved registers.
    sp: *mut u8,
}

impl Fiber {
    /// Take a stack off this thread's free list, or map one, and lay
    /// out its first frame so that the first [`Fiber::resume`] enters
    /// `entry(arg, resumer's stack pointer)`.
    ///
    /// # Panics
    /// If a stack has to be mapped and the kernel refuses.
    pub(crate) fn new(entry: Entry, arg: *mut u8) -> Fiber {
        let base = STACKS
            .with_borrow_mut(|stacks| stacks.free.pop())
            .unwrap_or_else(map_stack);
        // SAFETY: the top is one past the end of the mapping, 16-byte
        // aligned because mappings are page-aligned; the frame written
        // below it lies inside the writable part, which no context
        // uses (a fresh mapping, or a dropped fiber's).
        let sp = unsafe { initial_frame(base.add(MAP_BYTES), entry, arg) };
        Fiber { base, sp }
    }

    /// Run this fiber on the calling thread until it switches back.
    ///
    /// # Safety
    /// The fiber must be suspended — fresh, or switched out through
    /// the stack pointer its entry function (or a later `switch`)
    /// received — must not have made its final switch, and must have
    /// been created on the calling thread.
    pub(crate) unsafe fn resume(&mut self) {
        // SAFETY: `self.sp` is the frame `initial_frame` built or the
        // one the fiber's own last `switch` pushed; the caller
        // guarantees it is live and resumed once.
        self.sp = unsafe { switch(self.sp) };
    }
}

impl Drop for Fiber {
    fn drop(&mut self) {
        // Frames still on the stack are abandoned, not unwound; the
        // kernel makes sure they own nothing (see the module docs).
        let listed = STACKS.try_with(|stacks| stacks.borrow_mut().free.push(self.base));
        if listed.is_err() {
            // The thread is exiting and its list is already gone.
            // SAFETY: exactly the mapping `new` took or made.
            unsafe { munmap(self.base.cast(), MAP_BYTES) };
        }
    }
}

/// Stacks on the calling thread's free list: with no fiber alive, every
/// mapping the thread has made.
#[cfg(test)]
pub(crate) fn stacks_listed() -> usize {
    STACKS.with_borrow(|stacks| stacks.free.len())
}

/// Have the calling thread add to `count`, when it exits, the number
/// of listed stacks it unmapped.
#[cfg(test)]
pub(crate) fn report_unmapped_at_exit(count: std::sync::Arc<std::sync::atomic::AtomicUsize>) {
    STACKS.with_borrow_mut(|stacks| stacks.unmapped_at_exit = Some(count));
}

/// The frame a first [`switch`] into a new stack pops, as 8-byte slot
/// indices from its lowest address: how many slots, and which of them
/// carry `arg` and `entry` (in callee-saved registers) to [`start`] and
/// which holds the address the switch returns to.
///
/// x86_64, low to high: r15 r14 r13 r12 rbx rbp | return address | 0.
/// After the pops and the `ret`, rsp = top - 8: the stack looks as if
/// a caller with return address 0 had just `call`ed — the alignment
/// the ABI promises at a function entry, and where backtraces stop.
#[cfg(target_arch = "x86_64")]
mod frame {
    pub(super) const SLOTS: usize = 8;
    pub(super) const ENTRY: usize = 2; // r13
    pub(super) const ARG: usize = 3; // r12
    pub(super) const RETURN: usize = 6;
}

/// aarch64, low to high: x19 x20 … x28 | x29 x30 | d8 … d15. After the
/// loads sp = top (16-byte aligned, as AAPCS64 requires at all times)
/// and `ret` goes to x30; [`start`] zeroes the link register, and the
/// frame pointer is already null, so backtraces stop there.
#[cfg(target_arch = "aarch64")]
mod frame {
    pub(super) const SLOTS: usize = 20;
    pub(super) const ARG: usize = 0; // x19
    pub(super) const ENTRY: usize = 1; // x20
    pub(super) const RETURN: usize = 11; // x30
}

/// Write the first frame of a new stack below `top`: zeroed registers
/// except the slots [`frame`] names. Returns the stack pointer to
/// [`switch`] to.
///
/// # Safety
/// `top` must be 16-byte aligned with at least `frame::SLOTS * 8`
/// writable bytes below it.
unsafe fn initial_frame(top: *mut u8, entry: Entry, arg: *mut u8) -> *mut u8 {
    // SAFETY: every write is within the `frame::SLOTS` slots below
    // `top` that the caller vouches for.
    unsafe {
        let sp = top.cast::<usize>().sub(frame::SLOTS);
        ptr::write_bytes(sp, 0, frame::SLOTS);
        sp.add(frame::ARG).write(arg as usize);
        sp.add(frame::ENTRY).write(entry as usize);
        sp.add(frame::RETURN).write(start as *const () as usize);
        sp.cast()
    }
}

/// Suspend the running context and continue the one whose saved stack
/// pointer is `to`. Returns — when some context switches back to this
/// one — the stack pointer under which *that* context was saved.
///
/// # Safety
/// `to` must have been produced by [`initial_frame`] or returned to a
/// context by an earlier `switch`, on this thread; its stack must
/// still be mapped and it must not have been continued since. No lock
/// guard or other borrow that another context needs may be live in the
/// caller.
#[cfg(target_arch = "x86_64")]
#[unsafe(naked)]
pub(crate) unsafe extern "C" fn switch(to: *mut u8) -> *mut u8 {
    // System V: rbx, rbp, r12–r15 are callee-saved; the return address
    // is already on the stack. The resumed context sees our stack
    // pointer as the return value of its own `switch` call.
    core::arch::naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "mov rax, rsp",
        "mov rsp, rdi",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
    )
}

/// First instructions of a new fiber: move the values [`initial_frame`]
/// parked in callee-saved registers into argument position and enter
/// `entry(arg, from)` as if called from a frame with return address 0.
#[cfg(target_arch = "x86_64")]
#[unsafe(naked)]
unsafe extern "C" fn start() -> ! {
    core::arch::naked_asm!("mov rdi, r12", "mov rsi, rax", "jmp r13")
}

/// See the x86_64 twin. AAPCS64: x19–x28, the frame pointer x29, the
/// link register x30 and the low halves of v8–v15 are callee-saved.
#[cfg(target_arch = "aarch64")]
#[unsafe(naked)]
pub(crate) unsafe extern "C" fn switch(to: *mut u8) -> *mut u8 {
    core::arch::naked_asm!(
        "sub sp, sp, #160",
        "stp x19, x20, [sp, #0]",
        "stp x21, x22, [sp, #16]",
        "stp x23, x24, [sp, #32]",
        "stp x25, x26, [sp, #48]",
        "stp x27, x28, [sp, #64]",
        "stp x29, x30, [sp, #80]",
        "stp d8, d9, [sp, #96]",
        "stp d10, d11, [sp, #112]",
        "stp d12, d13, [sp, #128]",
        "stp d14, d15, [sp, #144]",
        "mov x9, sp",
        "mov sp, x0",
        "mov x0, x9",
        "ldp x19, x20, [sp, #0]",
        "ldp x21, x22, [sp, #16]",
        "ldp x23, x24, [sp, #32]",
        "ldp x25, x26, [sp, #48]",
        "ldp x27, x28, [sp, #64]",
        "ldp x29, x30, [sp, #80]",
        "ldp d8, d9, [sp, #96]",
        "ldp d10, d11, [sp, #112]",
        "ldp d12, d13, [sp, #128]",
        "ldp d14, d15, [sp, #144]",
        "add sp, sp, #160",
        "ret",
    )
}

/// See the x86_64 twin; the branch goes through x16 so it may land on
/// a `bti c` pad.
#[cfg(target_arch = "aarch64")]
#[unsafe(naked)]
unsafe extern "C" fn start() -> ! {
    core::arch::naked_asm!(
        "mov x1, x0",
        "mov x0, x19",
        "mov x16, x20",
        "mov x30, xzr",
        "br x16",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What the test fiber and its driver share: the host's saved
    /// stack pointer and a log of where control has been.
    struct Shuttle {
        host: *mut u8,
        log: Vec<u32>,
    }

    unsafe extern "C" fn bounce(arg: *mut u8, from: *mut u8) -> ! {
        // SAFETY: `arg` is the `Shuttle` on the driver's stack, which
        // is suspended (and so not touching it) whenever we run.
        let sh = unsafe { &mut *arg.cast::<Shuttle>() };
        sh.host = from;
        for i in 0..3 {
            sh.log.push(10 + i);
            // Callee-saved state must survive the round trip.
            let keep = std::hint::black_box(i * 7);
            // SAFETY: `sh.host` is the driver's latest suspension.
            sh.host = unsafe { switch(sh.host) };
            assert_eq!(std::hint::black_box(keep), i * 7);
        }
        sh.log.push(99);
        // SAFETY: as above; the driver never resumes us again.
        unsafe { switch(sh.host) };
        std::process::abort()
    }

    #[test]
    fn fiber_and_host_alternate() {
        let mut sh = Shuttle {
            host: ptr::null_mut(),
            log: Vec::new(),
        };
        let arg = ptr::addr_of_mut!(sh).cast::<u8>();
        let mut f = Fiber::new(bounce, arg);
        for round in 0..4 {
            // SAFETY: `f` is fresh or suspended in `bounce`'s loop and
            // makes its final switch only on the fourth round.
            unsafe { f.resume() };
            // SAFETY: the fiber is suspended; we are the only accessor.
            unsafe { (*arg.cast::<Shuttle>()).log.push(round) };
        }
        assert_eq!(sh.log, vec![10, 0, 11, 1, 12, 2, 99, 3]);
    }

    unsafe extern "C" fn check_entry_abi(arg: *mut u8, from: *mut u8) -> ! {
        // A 16-byte-aligned local proves the entry alignment was what
        // the compiler assumed.
        #[repr(align(16))]
        struct Aligned(u128);
        let probe = std::hint::black_box(Aligned(0));
        let ok = (ptr::addr_of!(probe.0) as usize).is_multiple_of(16);
        // A backtrace must terminate at the null return address.
        let bt = std::backtrace::Backtrace::force_capture();
        std::hint::black_box(&bt);
        drop(bt);
        // SAFETY: `arg` is the driver's `bool`; the driver is suspended.
        unsafe { *arg.cast::<bool>() = ok };
        // SAFETY: `from` is the driver's suspension; never resumed again.
        unsafe { switch(from) };
        std::process::abort()
    }

    #[test]
    fn entry_is_aligned_and_backtraces_terminate() {
        let mut ok = false;
        let mut f = Fiber::new(check_entry_abi, ptr::addr_of_mut!(ok).cast());
        // SAFETY: a fresh fiber, resumed once.
        unsafe { f.resume() };
        assert!(ok);
    }

    #[test]
    fn many_fibers_map_and_unmap() {
        unsafe extern "C" fn once(_arg: *mut u8, from: *mut u8) -> ! {
            // SAFETY: `from` is the driver's suspension.
            unsafe { switch(from) };
            std::process::abort()
        }
        let mut fibers: Vec<Fiber> = (0..600)
            .map(|_| Fiber::new(once, ptr::null_mut()))
            .collect();
        for f in &mut fibers {
            // SAFETY: fresh fibers, each resumed once.
            unsafe { f.resume() };
        }
    }
}
