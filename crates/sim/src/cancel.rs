//! Cooperative run cancellation.
//!
//! A long-running [`crate::Engine::run_until`] call can be asked to stop
//! early by another thread: install a shared [`CancelToken`] on the
//! engine's thread (via [`CancelGuard`]), hand a clone to the
//! controller, and let it call [`CancelToken::cancel`]. The engine
//! checks the token at *calendar-slice* granularity — once per
//! [`crate::event::SLICE_NS`]-nanosecond wheel slice the clock enters,
//! with an event-count fallback for pathological single-slice runs — so
//! cancel latency is bounded without a per-event atomic load showing up
//! on the hot path's profile.
//!
//! Cancellation is cooperative and *clean*: the engine finishes the
//! event it is dispatching, stops popping, and leaves its state
//! consistent (every artifact probe sees complete events only, so a
//! cancelled run's trace is truncated but lintable). A token that is
//! already cancelled when `run_until` begins stops the run before the
//! first pop, so sliced drivers (heartbeat loops) observe a cancel at
//! the very next slice no matter how the horizon is diced.
//!
//! An armed token changes neither the dispatch loop nor the shard count.
//! A one-shard run checks it before each calendar slice; a sharded run
//! checks it at every epoch barrier, where all shards stop together.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Shared cancellation flag: cloned freely, flipped once.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request cancellation. Idempotent; visible to the engine at its
    /// next calendar-slice check.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Has cancellation been requested?
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

thread_local! {
    /// Token engines on this thread consult; `None` = never cancelled.
    static TOKEN: RefCell<Option<CancelToken>> = const { RefCell::new(None) };
}

/// Install `token` for engines run on this thread, returning the
/// previous installation. Prefer [`CancelGuard`] for panic-safe
/// bracketing.
pub fn set_token(token: Option<CancelToken>) -> Option<CancelToken> {
    TOKEN.with(|t| t.replace(token))
}

/// The token currently installed on this thread, if any.
pub fn token() -> Option<CancelToken> {
    TOKEN.with(|t| t.borrow().clone())
}

/// RAII bracket around [`set_token`]: restores the previous token on
/// drop, including during unwinding.
pub struct CancelGuard {
    prev: Option<CancelToken>,
}

impl CancelGuard {
    /// Install `token` until the guard drops.
    pub fn new(token: CancelToken) -> Self {
        CancelGuard {
            prev: set_token(Some(token)),
        }
    }
}

impl Drop for CancelGuard {
    fn drop(&mut self) {
        set_token(self.prev.take());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_is_shared_and_sticky() {
        let t = CancelToken::new();
        let clone = t.clone();
        assert!(!t.is_cancelled());
        clone.cancel();
        assert!(t.is_cancelled());
        t.cancel(); // idempotent
        assert!(t.is_cancelled());
    }

    #[test]
    fn guard_installs_and_restores() {
        assert!(token().is_none());
        let outer = CancelToken::new();
        let _g = CancelGuard::new(outer.clone());
        assert!(token().is_some());
        {
            let inner = CancelToken::new();
            let _g2 = CancelGuard::new(inner.clone());
            inner.cancel();
            assert!(token().expect("installed").is_cancelled());
        }
        // inner guard dropped: outer token back, still un-cancelled
        assert!(!token().expect("restored").is_cancelled());
        drop(_g);
        assert!(token().is_none());
    }
}
