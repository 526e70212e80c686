//! # graphbig-runtime
//!
//! The parallel substrate for the CPU workloads: a persistent [`ThreadPool`]
//! with SPMD-style parallel regions and dynamically scheduled
//! [`parfor`] loops.
//!
//! The paper runs its CPU workloads on a 16-core Xeon with threads pinned to
//! hardware cores; [`ThreadPool::new`] mirrors the thread-count knob (actual
//! affinity pinning is OS-specific and outside this library's scope — the
//! pool runs one share per requested core, the caller's and n − 1 workers',
//! which is the part that matters for the workloads' structure).
//!
//! Built from scratch on one `std` mutex, two condvars and `std` atomics per
//! the repository's from-scratch substrate rule — no external
//! synchronization crates; the design follows the guidance of *Rust Atomics
//! and Locks* (one locked region slot, condvar-backed waiting). The thread
//! that opens a region runs its share 0, as in OpenMP fork–join.

#![warn(missing_docs)]

pub mod cancel;
pub mod frontier;
pub mod parfor;
pub mod pool;

pub use cancel::{CancelToken, Cancelled};
pub use frontier::{ChunkedSink, Frontier};
pub use pool::ThreadPool;

/// Default worker count mirroring the paper's 16-core test machine.
pub const PAPER_CORES: usize = 16;
