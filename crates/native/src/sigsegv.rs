//! The process-global SIGSEGV dispatcher.
//!
//! A fixed-capacity, lock-free registry maps fault addresses to tracked
//! regions. The handler is installed once (idempotently) and must stay
//! async-signal-safe: it touches only atomics and issues the
//! `mprotect` syscall. Unknown faults re-raise with the default
//! disposition so real bugs still produce a crash.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Once;

/// Maximum simultaneously registered regions.
pub(crate) const MAX_REGIONS: usize = 64;

/// One registry slot. `bitmap` points at the owning region's
/// `[AtomicU64]` dirty words; the region keeps that allocation alive
/// until it unregisters.
struct Slot {
    active: AtomicBool,
    start: AtomicUsize,
    len: AtomicUsize,
    bitmap: AtomicUsize,
    page_size: AtomicUsize,
    /// Faults the handler resolved for this registration (a statistic:
    /// it publishes no other data, hence `Relaxed` throughout).
    faults: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)]
const EMPTY_SLOT: Slot = Slot {
    active: AtomicBool::new(false),
    start: AtomicUsize::new(0),
    len: AtomicUsize::new(0),
    bitmap: AtomicUsize::new(0),
    page_size: AtomicUsize::new(0),
    faults: AtomicU64::new(0),
};

static SLOTS: [Slot; MAX_REGIONS] = [EMPTY_SLOT; MAX_REGIONS];

static INSTALL: Once = Once::new();

/// Install the SIGSEGV handler (idempotent).
pub(crate) fn ensure_handler() {
    // SAFETY: sigaction with a zeroed struct and a handler whose
    // signature matches SA_SIGINFO; both calls are checked for failure
    // and Once guarantees single installation.
    INSTALL.call_once(|| unsafe {
        let mut action: libc::sigaction = std::mem::zeroed();
        action.sa_sigaction = handler
            as unsafe extern "C" fn(libc::c_int, *mut libc::siginfo_t, *mut libc::c_void)
            as usize;
        action.sa_flags = libc::SA_SIGINFO | libc::SA_NODEFER;
        libc::sigemptyset(&mut action.sa_mask);
        let rc = libc::sigaction(libc::SIGSEGV, &action, std::ptr::null_mut());
        assert_eq!(rc, 0, "sigaction(SIGSEGV) failed");
        // The paper's Quadrics NIC writes arrive as bus errors on some
        // platforms; track SIGBUS the same way for mmap'ed files.
        let rc = libc::sigaction(libc::SIGBUS, &action, std::ptr::null_mut());
        assert_eq!(rc, 0, "sigaction(SIGBUS) failed");
    });
}

/// Register a region; returns its slot index.
///
/// # Safety
/// `bitmap` must point at `len.div_ceil(64 * page_size)`... i.e. enough
/// `AtomicU64` words for `len / page_size` pages, and must outlive the
/// registration.
pub(crate) unsafe fn register(
    start: usize,
    len: usize,
    bitmap: *const AtomicU64,
    page_size: usize,
) -> usize {
    ensure_handler();
    for (i, slot) in SLOTS.iter().enumerate() {
        if slot.active.compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire).is_ok() {
            slot.start.store(start, Ordering::Release);
            slot.len.store(len, Ordering::Release);
            slot.bitmap.store(bitmap as usize, Ordering::Release);
            slot.page_size.store(page_size, Ordering::Release);
            slot.faults.store(0, Ordering::Relaxed);
            return i;
        }
    }
    panic!("sigsegv registry full ({MAX_REGIONS} regions)");
}

/// Unregister a slot previously returned by [`register`].
pub(crate) fn unregister(slot: usize) {
    let s = &SLOTS[slot];
    s.start.store(0, Ordering::Release);
    s.len.store(0, Ordering::Release);
    s.bitmap.store(0, Ordering::Release);
    s.active.store(false, Ordering::Release);
}

/// Page faults the handler has resolved for the region registered in
/// `slot` (counted per registration, so concurrent regions never see
/// each other's faults).
pub(crate) fn faults(slot: usize) -> u64 {
    SLOTS[slot].faults.load(Ordering::Relaxed)
}

/// The async-signal-safe fault handler.
///
/// # Safety
/// Invoked by the kernel with valid pointers.
unsafe extern "C" fn handler(
    _sig: libc::c_int,
    info: *mut libc::siginfo_t,
    _ctx: *mut libc::c_void,
) {
    let addr = if info.is_null() { 0 } else { (*info).si_addr() as usize };
    if addr != 0 {
        for slot in &SLOTS {
            if !slot.active.load(Ordering::Acquire) {
                continue;
            }
            let start = slot.start.load(Ordering::Acquire);
            let len = slot.len.load(Ordering::Acquire);
            if addr >= start && addr < start + len {
                let page_size = slot.page_size.load(Ordering::Acquire);
                let page = (addr - start) / page_size;
                // Unprotect exactly the faulting page so later writes
                // in this timeslice are free (§4.2).
                let page_base = start + page * page_size;
                libc::mprotect(
                    page_base as *mut libc::c_void,
                    page_size,
                    libc::PROT_READ | libc::PROT_WRITE,
                );
                let bitmap = slot.bitmap.load(Ordering::Acquire) as *const AtomicU64;
                let word = &*bitmap.add(page / 64);
                word.fetch_or(1u64 << (page % 64), Ordering::AcqRel);
                slot.faults.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
    }
    // Not ours: restore the default disposition and re-raise so the
    // process crashes exactly as it would have without us.
    let mut dfl: libc::sigaction = std::mem::zeroed();
    dfl.sa_sigaction = libc::SIG_DFL;
    libc::sigaction(libc::SIGSEGV, &dfl, std::ptr::null_mut());
    libc::raise(libc::SIGSEGV);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_register_unregister_cycles() {
        let words: Vec<AtomicU64> = (0..4).map(|_| AtomicU64::new(0)).collect();
        let mut slots = Vec::new();
        for _ in 0..8 {
            // SAFETY: `words` holds 4 AtomicU64s — enough bitmap words
            // for one 4096-byte page — and outlives the registration.
            let s = unsafe { register(0x1000, 0x1000, words.as_ptr(), 4096) };
            slots.push(s);
        }
        let distinct: std::collections::BTreeSet<usize> = slots.iter().copied().collect();
        assert_eq!(distinct.len(), 8, "distinct slots");
        for s in slots {
            unregister(s);
        }
        // Slots are reusable after unregistration.
        // SAFETY: as above — `words` covers the single page registered.
        let s = unsafe { register(0x2000, 0x1000, words.as_ptr(), 4096) };
        unregister(s);
    }

    #[test]
    fn handler_installation_is_idempotent() {
        ensure_handler();
        ensure_handler();
    }
}
