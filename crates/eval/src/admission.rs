//! Admission control for batch query execution.
//!
//! A batch slows down for everyone once concurrent queries outnumber
//! what the host can serve: every admitted query competes for the same
//! storage and the same decoded-leaf cache. [`AdmissionGate`] bounds the
//! number of in-flight queries instead; a query that cannot get a slot
//! within the queue timeout is *shed* with a typed [`Overloaded`] rather
//! than left to pile up behind the others. Load shedding is a first-class
//! outcome: callers see exactly which queries ran and which were refused.

use std::fmt;
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// A query was refused admission: every execution slot stayed busy for
/// the whole queue timeout.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Overloaded {
    /// The gate's concurrency limit at the time of refusal.
    pub max_inflight: usize,
    /// How long the query waited in the queue before being shed.
    pub waited: Duration,
}

impl fmt::Display for Overloaded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "overloaded: all {} slots busy for {:?}",
            self.max_inflight, self.waited
        )
    }
}

impl std::error::Error for Overloaded {}

/// Bounded-concurrency gate: at most `max_inflight` permits are out at
/// any moment, and a caller waits at most `queue_timeout` for one.
///
/// Built on `std::sync::{Mutex, Condvar}` — the gate must block, not
/// spin, while a slot is busy, and must wake promptly when one frees.
#[derive(Debug)]
pub struct AdmissionGate {
    /// Permits out. Every critical section leaves the count consistent,
    /// so a lock poisoned by a panicking holder is recovered, not fatal.
    inflight: Mutex<usize>,
    freed: Condvar,
    max_inflight: usize,
    queue_timeout: Duration,
}

impl AdmissionGate {
    /// Creates a gate with `max_inflight` slots (clamped to at least 1)
    /// and the given queue timeout.
    pub fn new(max_inflight: usize, queue_timeout: Duration) -> Self {
        AdmissionGate {
            inflight: Mutex::new(0),
            freed: Condvar::new(),
            max_inflight: max_inflight.max(1),
            queue_timeout,
        }
    }

    /// The gate's concurrency limit.
    pub fn max_inflight(&self) -> usize {
        self.max_inflight
    }

    /// Number of permits currently out.
    pub fn inflight(&self) -> usize {
        *self.inflight.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Acquires an execution slot, waiting up to the queue timeout.
    /// Returns a permit that releases the slot on drop, or a typed
    /// [`Overloaded`] if every slot stayed busy for the whole wait.
    pub fn admit(&self) -> Result<AdmissionPermit<'_>, Overloaded> {
        let start = Instant::now();
        let mut inflight = self.inflight.lock().unwrap_or_else(PoisonError::into_inner);
        while *inflight >= self.max_inflight {
            let waited = start.elapsed();
            let Some(budget) = self.queue_timeout.checked_sub(waited) else {
                return Err(Overloaded {
                    max_inflight: self.max_inflight,
                    waited,
                });
            };
            let (guard, timeout) = self
                .freed
                .wait_timeout(inflight, budget)
                .unwrap_or_else(PoisonError::into_inner);
            inflight = guard;
            if timeout.timed_out() && *inflight >= self.max_inflight {
                return Err(Overloaded {
                    max_inflight: self.max_inflight,
                    waited: start.elapsed(),
                });
            }
        }
        *inflight += 1;
        Ok(AdmissionPermit { gate: self })
    }
}

/// An execution slot held for the lifetime of one query. Dropping it
/// releases the slot and wakes one queued waiter.
#[derive(Debug)]
pub struct AdmissionPermit<'g> {
    gate: &'g AdmissionGate,
}

impl Drop for AdmissionPermit<'_> {
    fn drop(&mut self) {
        let gate = self.gate;
        let mut inflight = gate.inflight.lock().unwrap_or_else(PoisonError::into_inner);
        *inflight = inflight.saturating_sub(1);
        drop(inflight);
        gate.freed.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn permits_release_on_drop() {
        let gate = AdmissionGate::new(2, Duration::from_millis(5));
        let a = gate.admit().unwrap();
        let b = gate.admit().unwrap();
        assert_eq!(gate.inflight(), 2);
        drop(a);
        assert_eq!(gate.inflight(), 1);
        let _c = gate.admit().unwrap();
        drop(b);
        assert_eq!(gate.inflight(), 1);
    }

    #[test]
    fn single_slot_gate_sheds_with_typed_overloaded() {
        let gate = AdmissionGate::new(1, Duration::from_millis(20));
        let held = gate.admit().unwrap();
        let err = gate.admit().unwrap_err();
        assert_eq!(err.max_inflight, 1);
        assert!(
            err.waited >= Duration::from_millis(20),
            "shed after only {:?}",
            err.waited
        );
        drop(held);
        // The slot is free again; admission must now succeed.
        let _again = gate.admit().unwrap();
    }

    #[test]
    fn queued_waiter_wakes_when_slot_frees() {
        let gate = Arc::new(AdmissionGate::new(1, Duration::from_secs(5)));
        let held = gate.admit().unwrap();
        let g2 = Arc::clone(&gate);
        let waiter = std::thread::spawn(move || g2.admit().map(|_p| ()).is_ok());
        // Give the waiter time to park, then free the slot.
        std::thread::sleep(Duration::from_millis(30));
        drop(held);
        assert!(waiter.join().expect("waiter panicked"));
    }

    #[test]
    fn zero_slots_clamps_to_one() {
        let gate = AdmissionGate::new(0, Duration::from_millis(1));
        assert_eq!(gate.max_inflight(), 1);
        let _p = gate.admit().unwrap();
    }
}
