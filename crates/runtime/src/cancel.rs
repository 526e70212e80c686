//! Cooperative cancellation for long-running kernels.
//!
//! A [`CancelToken`] combines an explicit cancellation flag (shared through
//! an `Arc`, so any holder can cancel the others) with an optional wall-clock
//! deadline. Kernels poll [`CancelToken::step`] (or [`CancelToken::check`],
//! a step with no payload) at frontier-level boundaries — between
//! supersteps, never inside the tight per-edge loops —
//! so cancellation costs one relaxed load plus one `Instant::now` per level
//! and a cancelled query abandons at most one level of work.
//!
//! The serving engine (`crates/engine`) hands every admitted query a token
//! carrying its deadline; dropping a request or missing the deadline turns
//! into an `Err(Cancelled)` from the kernel instead of a completed result.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The error a cancellable kernel returns when its token fired. Carries no
/// payload: the caller that owns the token knows whether the cause was an
/// explicit cancel or a deadline (see [`CancelToken::deadline_passed`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cancelled;

impl std::fmt::Display for Cancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("query cancelled")
    }
}

impl std::error::Error for Cancelled {}

/// A cloneable cancellation handle: an atomic flag shared across clones plus
/// an optional deadline fixed at construction.
///
/// Tokens also carry an optional *chaos key* identifying the request at the
/// `runtime.cancel.check` failpoint. Tokens without a key (the default —
/// including [`CancelToken::never`], which the sequential oracle uses) are
/// immune to injection even while a fault plan is armed.
///
/// Independently of the chaos key, a token can carry a *trace id* (the
/// engine's request id): when set, every [`CancelToken::step`] drops a
/// `kernel_step` event into the always-on flight recorder, so a failure
/// dump shows how far inside the kernel a request got and the Chrome
/// trace shows each superstep inside the request's `engine.exec`.
/// Untraced tokens (id 0, the default) record nothing.
#[derive(Debug, Clone)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    deadline: Option<Instant>,
    key: u64,
    trace_id: u64,
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken {
            flag: Arc::default(),
            deadline: None,
            key: graphbig_chaos::NO_KEY,
            trace_id: 0,
        }
    }
}

impl CancelToken {
    /// A token with no deadline that cancels only via [`CancelToken::cancel`].
    pub fn new() -> Self {
        Self::default()
    }

    /// A token that can never fire — the zero-cost way to run a cancellable
    /// kernel unconditionally (the non-cancellable public wrappers use it).
    pub fn never() -> Self {
        Self::default()
    }

    /// A token that also fires once `deadline` passes.
    pub fn with_deadline(deadline: Instant) -> Self {
        CancelToken {
            deadline: Some(deadline),
            ..Self::default()
        }
    }

    /// Tag this token with a chaos request key; the `runtime.cancel.check`
    /// failpoint uses it to decide deterministically whether to inject.
    pub fn with_chaos_key(mut self, key: u64) -> Self {
        self.key = key;
        self
    }

    /// The chaos key ([`graphbig_chaos::NO_KEY`] when untagged).
    pub fn chaos_key(&self) -> u64 {
        self.key
    }

    /// Tag this token with the engine's request id for flight recording;
    /// 0 (the default) means untraced.
    pub fn with_trace_id(mut self, id: u64) -> Self {
        self.trace_id = id;
        self
    }

    /// The flight-recorder trace id (0 when untraced).
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// A token firing `timeout` from now.
    pub fn with_timeout(timeout: Duration) -> Self {
        Self::with_deadline(Instant::now() + timeout)
    }

    /// Request cancellation; every clone of this token observes it.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// True when [`CancelToken::cancel`] was called on any clone (ignores
    /// the deadline).
    pub fn cancel_requested(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }

    /// The deadline, if one was set.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// True when the deadline exists and has passed.
    pub fn deadline_passed(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// True when the token has fired for either reason.
    pub fn is_cancelled(&self) -> bool {
        self.cancel_requested() || self.deadline_passed()
    }

    /// [`CancelToken::step`] for a superstep with no payload to report.
    #[inline]
    pub fn check(&self) -> Result<(), Cancelled> {
        self.step(0)
    }

    /// The polling call kernels place at superstep boundaries. `arg` is
    /// the kernel's one number about the step it is entering (the frontier
    /// length for BFS); it rides the `kernel_step` event of a traced token
    /// and is ignored otherwise.
    ///
    /// Under an armed fault plan, the `runtime.cancel.check` failpoint may
    /// delay here, force a cancellation (`Cancel` / `DeadlineExpire` both
    /// set the shared flag so every later check agrees), or panic — kernels
    /// run on the executor thread at superstep boundaries, where the
    /// engine's panic guard converts that into a `Failed` status.
    #[inline]
    pub fn step(&self, arg: u64) -> Result<(), Cancelled> {
        if self.trace_id != 0 {
            use graphbig_telemetry::recorder;
            recorder::record(recorder::EventKind::KernelStep, self.trace_id, arg);
        }
        if let Some(fault) = graphbig_chaos::failpoint!("runtime.cancel.check", self.key) {
            use graphbig_chaos::FaultAction;
            match fault.action {
                FaultAction::Cancel | FaultAction::DeadlineExpire => {
                    self.cancel();
                    return Err(Cancelled);
                }
                FaultAction::Panic => {
                    panic!("{} at runtime.cancel.check", graphbig_chaos::PANIC_MSG)
                }
                _ => {}
            }
        }
        if self.is_cancelled() {
            Err(Cancelled)
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_is_live() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert!(t.check().is_ok());
        assert_eq!(t.deadline(), None);
    }

    #[test]
    fn cancel_propagates_to_clones() {
        let t = CancelToken::new();
        let clone = t.clone();
        clone.cancel();
        assert!(t.is_cancelled());
        assert!(t.cancel_requested());
        assert_eq!(t.check(), Err(Cancelled));
    }

    #[test]
    fn expired_deadline_fires_without_cancel() {
        let t = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(t.deadline_passed());
        assert!(t.is_cancelled());
        assert!(!t.cancel_requested(), "deadline is not an explicit cancel");
    }

    #[test]
    fn future_deadline_stays_live() {
        let t = CancelToken::with_timeout(Duration::from_secs(3600));
        assert!(!t.is_cancelled());
        assert!(t.deadline().is_some());
    }

    #[test]
    fn never_token_survives_everything_but_cancel() {
        let t = CancelToken::never();
        assert!(t.check().is_ok());
        t.cancel();
        assert!(t.check().is_err());
    }
}
