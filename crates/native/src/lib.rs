//! # ickpt-native — the real dirty-page tracking mechanism
//!
//! Everything else in this workspace runs on a simulated MMU; this
//! crate demonstrates the *actual* mechanism the paper's
//! instrumentation library used (§4.2), on this machine, from Rust:
//!
//! 1. [`region::TrackedRegion`] `mmap`s an anonymous arena and
//!    write-protects it (`mprotect(PROT_READ)`).
//! 2. The first write to any page raises `SIGSEGV`; the process-global
//!    handler installed by `sigsegv` finds the owning region, marks
//!    the page dirty in an atomic bitmap, and re-enables writes on that
//!    one page (`mprotect(PROT_READ|PROT_WRITE)`). Subsequent writes in
//!    the same timeslice are free — exactly the paper's handler.
//! 3. [`sampler::TimesliceSampler`] (or a manual
//!    [`region::TrackedRegion::sample`]) plays the alarm: it records
//!    the dirty set (the IWS), clears it, and re-protects all pages.
//!
//! [`maps`] parses `/proc/self/maps`, which is how a preload library
//! discovers the data segments it must protect (§4.1).
//!
//! The signal handler is strictly async-signal-safe: it performs only
//! address arithmetic, atomic loads/stores and the `mprotect` syscall.
//! Faults at addresses outside every tracked region are re-raised with
//! the default disposition, so genuine crashes still crash.
//!
//! Dependency note: `libc` is required for `mmap`/`mprotect`/
//! `sigaction`; the repro notes for this paper call out exactly this
//! route ("nix/libc crates expose mprotect and SIGSEGV handling").

#![deny(unreachable_pub)]

pub mod intrusiveness;
pub mod maps;
mod region;
mod sampler;
mod sigsegv;

pub use region::TrackedRegion;
pub use sampler::TimesliceSampler;

/// Native page size used by this crate (queried from the OS).
pub fn page_size() -> usize {
    // SAFETY: sysconf is always safe to call.
    let ps = unsafe { libc::sysconf(libc::_SC_PAGESIZE) };
    assert!(ps > 0, "sysconf(_SC_PAGESIZE) failed");
    ps as usize
}

#[cfg(test)]
mod tests {
    #[test]
    fn page_size_is_sane() {
        let ps = super::page_size();
        assert!(ps >= 4096 && ps.is_power_of_two());
    }
}
