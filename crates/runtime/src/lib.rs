//! The `rml` runtime system: a page-based region heap with a
//! reference-tracing copying garbage collector.
//!
//! This is the runtime substrate the paper's evaluation runs on (the
//! MLKit's region runtime, reproduced in simulation):
//!
//! * **regions** are growable lists of fixed-size pages allocated from a
//!   free list; `letregion` pushes and pops them ([`heap`]),
//! * regions are either *infinite* (heap-allocated, subject to tracing
//!   collection) or *finite* (stack-like, known size, never collected) —
//!   the distinction computed by the multiplicity analysis in `rml-repr`,
//! * the collector ([`gc`]) is a **Cheney-style copying collector that
//!   preserves region identity**: live objects of every infinite region
//!   are evacuated into fresh pages of the *same* region, exactly the
//!   region-aware collection of Hallenberg–Elsman–Tofte (PLDI 2002) that
//!   the paper builds on,
//! * every pointer carries the **epoch** of its target page, so a trace
//!   that reaches into a deallocated region is *detected* rather than
//!   silently corrupting memory — this is how the benchmarks demonstrate
//!   the paper's soundness problem: under strategy `rg-`, collection of
//!   Figure 1's program stops with [`gc::GcError::DanglingPointer`].
//!
//! Words, object headers, and layouts live in [`word`]; allocation
//! statistics (bytes allocated, live peaks, collection counts — the
//! paper's `rss` and `gc #` columns) in [`stats`].

// The torture rig's subject: library code here must surface failures as
// structured errors, never via panicking escape hatches. Test modules
// (compiled only under `cfg(test)`) are exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
// The collector and the heap are safe Rust: pages are split with
// `split_at_mut`, not aliased through raw pointers.
#![forbid(unsafe_code)]

pub mod gc;
pub mod heap;
pub mod rng;
pub mod stats;
pub mod verify;
pub mod word;

pub use gc::GcError;
pub use heap::{Heap, RegionId, RegionKind, UniformKind};
pub use rng::Xorshift64;
pub use stats::{GcPause, HeapStats};
pub use verify::{HeapInvariantError, InvariantKind, VerifyReport};
pub use word::{ObjKind, Word, WORD_BYTES};
