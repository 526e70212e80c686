//! # graphbig-runtime
//!
//! The parallel substrate for the CPU workloads: a persistent [`ThreadPool`]
//! with SPMD-style parallel regions and dynamically scheduled
//! [`parfor`] loops.
//!
//! The paper runs its CPU workloads on a 16-core Xeon with threads pinned to
//! hardware cores; [`ThreadPool::new`] mirrors the thread-count knob (actual
//! affinity pinning is OS-specific and outside this library's scope — the
//! pool keeps one long-lived worker per requested core, which is the part
//! that matters for the workloads' structure).
//!
//! Built from scratch on `std::sync::mpsc` channels, `std` mutexes/condvars
//! and `std` atomics per the repository's from-scratch substrate rule — no
//! external synchronization crates; the design follows the guidance of
//! *Rust Atomics and Locks* (acquire/release pairs around the job latch,
//! condvar-backed waiting).

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
