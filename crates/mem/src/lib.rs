//! # ickpt-mem — simulated UNIX process address space
//!
//! This crate is the memory substrate for the `ickpt` incremental
//! checkpointing library (a reproduction of Sancho et al., *On the
//! Feasibility of Incremental Checkpointing for Scientific Computing*,
//! IPDPS 2004).
//!
//! The paper instruments the **data memory** of unmodified Fortran/MPI
//! processes: initialized data, uninitialized data (BSS), the heap
//! (grown with `brk`/`sbrk`) and `mmap`'ed memory (§4.1). The stack is
//! excluded because it cannot be write-protected while a signal handler
//! runs on it (§4.2), and it is negligible (< 42 KB in the paper's
//! measurements).
//!
//! We reproduce that structure here as an explicit model:
//!
//! * `page` — 4 KiB pages and page-range arithmetic.
//! * `dirty` — word-packed dirty bitmaps, the hot data structure of the
//!   write tracker.
//! * `layout` — an Itanium-II-like data-segment layout (§4.1: data and
//!   BSS follow the text segment, the heap grows upward, `mmap` regions
//!   live in their own arena, the stack grows down from a fixed address).
//! * `heap` — `brk`/`sbrk` emulation.
//! * `mmap_area` — a first-fit `mmap`/`munmap` arena allocator with
//!   coalescing, so dynamic codes such as Sage exercise mapping churn.
//! * `space` — two address-space implementations over one layout:
//!   [`space::SparseSpace`] tracks only *metadata* (mapping state), which
//!   lets characterization experiments run with multi-gigabyte footprints,
//!   and [`space::BackedSpace`] stores real page contents for
//!   checkpoint/restore correctness tests.

#![deny(unreachable_pub)]
#![forbid(unsafe_code)]

mod dirty;
mod error;
mod heap;
mod layout;
mod mmap_area;
mod page;
mod space;

#[cfg(test)]
mod prop;

pub use dirty::DirtyBitmap;
pub use error::MemError;
pub use layout::{DataLayout, LayoutBuilder};
pub use page::{pages_for_bytes, PageRange, PAGE_SIZE};
pub use space::{AddressSpace, BackedSpace, PageSink, PageSource, SparseSpace, WriteProfile};
