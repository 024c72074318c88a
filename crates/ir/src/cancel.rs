//! Cooperative cancellation for long-running simulations.
//!
//! A [`CancelToken`] is a cheap, cloneable flag a supervisor (the sweep
//! watchdog, a future job-queue service) can set from another thread.
//! The simulator polls it at *sync-point boundaries* — nest ends, lane
//! switches, pipeline-chain handoffs — and
//! aborts the run with a `cancelled` result instead of relying on the
//! cycle/wall budget alone. Polling at sync points (never mid-segment)
//! keeps the check off the innermost hot path and means an aborted run
//! stops at a well-defined place in the schedule.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A shared cancellation flag. Cloning shares the flag; once cancelled it
/// stays cancelled (there is no reset — supervisors hand each retry a
/// fresh token).
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Request cancellation. Idempotent; safe from any thread.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Has cancellation been requested? (Acquire pairing with `cancel`.)
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_is_shared_and_sticky() {
        let t = CancelToken::new();
        let u = t.clone();
        assert!(!t.is_cancelled() && !u.is_cancelled());
        u.cancel();
        assert!(t.is_cancelled() && u.is_cancelled());
        u.cancel(); // idempotent
        assert!(t.is_cancelled());
    }

    #[test]
    fn token_crosses_threads() {
        let t = CancelToken::new();
        let u = t.clone();
        std::thread::spawn(move || u.cancel()).join().ok();
        assert!(t.is_cancelled());
    }
}
