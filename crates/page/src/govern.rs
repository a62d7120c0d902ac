//! Per-query resource governance: deadlines, cooperative cancellation,
//! and logical-read budgets.
//!
//! A serving system cannot let one pathological query (a huge-radius
//! range query on a high-overlap tree, a kNN scan over a degraded index)
//! hold a worker thread and the buffer pool hostage. [`QueryContext`]
//! carries the limits a caller imposes on one query;
//! [`BufferPool::read_with`](crate::BufferPool::read_with) consults it
//! before every page fetch (a visit served from a caller's own cache is
//! admitted with [`QueryContext::admit_read`] all the same), so a cancel, an
//! expired deadline, or an exhausted budget is observed within **one
//! pool read** — the unit the paper's cost model charges for anyway.
//!
//! A denied fetch surfaces as [`PageError::Interrupted`] carrying the
//! typed [`Interrupt`]; index engines catch it and return their partial
//! results as a `Degraded` outcome instead of an error (see `hyt-index`).
//!
//! ```
//! use hyt_page::{BufferPool, IoStats, MemStorage, PageError, QueryContext};
//!
//! let pool = BufferPool::new(MemStorage::with_page_size(128));
//! let a = pool.allocate().unwrap();
//! pool.write(a, b"x").unwrap();
//!
//! let ctx = QueryContext::default().with_max_reads(1);
//! let mut io = IoStats::default();
//! assert!(pool.read_with(a, false, &mut io, &ctx, <[u8]>::to_vec).is_ok());
//! // The second fetch exceeds the budget and is denied, typed.
//! assert!(matches!(
//!     pool.read_with(a, false, &mut io, &ctx, <[u8]>::to_vec),
//!     Err(PageError::Interrupted(i)) if i == hyt_page::Interrupt::BudgetExhausted
//! ));
//! ```

use crate::IoStats;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a governed page fetch was denied.
///
/// Ordered by how engines prioritize them: an explicit cancel wins over
/// an expired deadline, which wins over an exhausted budget.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Interrupt {
    /// The query's [`CancelToken`] was triggered.
    Cancelled,
    /// The query's deadline has passed.
    DeadlineExceeded,
    /// The query has spent its logical-read budget.
    BudgetExhausted,
}

impl fmt::Display for Interrupt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Interrupt::Cancelled => write!(f, "cancelled"),
            Interrupt::DeadlineExceeded => write!(f, "deadline exceeded"),
            Interrupt::BudgetExhausted => write!(f, "read budget exhausted"),
        }
    }
}

/// Cooperative cancellation handle shared between a query and its
/// controller (clones observe the same flag).
///
/// Cancellation is *cooperative*: the query observes the flag at its
/// next governed page fetch. There is no thread interruption, so a
/// cancelled query always unwinds through its own code, releasing locks
/// normally.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// Creates a token in the not-cancelled state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation; every clone observes it.
    pub fn cancel(&self) {
        self.0.store(true, SeqCst);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(SeqCst)
    }
}

/// Resource limits for one query: deadline, cancel token and
/// logical-read budget. All limits are optional; the default context is
/// unlimited.
///
/// The context is *checked* at page-fetch granularity by the pool's
/// governed read, `read_with`, so every limit is observed within one
/// page read.
#[derive(Clone, Debug, Default)]
pub struct QueryContext {
    /// Absolute point in time after which fetches are denied.
    pub deadline: Option<Instant>,
    /// Cooperative cancel flag.
    pub cancel: Option<CancelToken>,
    /// Maximum logical page reads (random + sequential) this query may
    /// issue. The N+1st fetch is denied.
    pub max_logical_reads: Option<u64>,
}

impl QueryContext {
    /// The shared unlimited context (never denies anything).
    pub fn unlimited() -> &'static QueryContext {
        static UNLIMITED: QueryContext = QueryContext {
            deadline: None,
            cancel: None,
            max_logical_reads: None,
        };
        &UNLIMITED
    }

    /// Sets an absolute deadline.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the deadline `timeout` from now.
    pub fn with_timeout(self, timeout: Duration) -> Self {
        self.with_deadline(Instant::now() + timeout)
    }

    /// Attaches a cancel token.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Sets the logical-read budget.
    pub fn with_max_reads(mut self, max: u64) -> Self {
        self.max_logical_reads = Some(max);
        self
    }

    /// Checks cancel and deadline (not the read budget).
    pub fn check_interrupt(&self) -> Result<(), Interrupt> {
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                return Err(Interrupt::Cancelled);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(Interrupt::DeadlineExceeded);
            }
        }
        Ok(())
    }

    /// Full admission check for one more page fetch: cancel, deadline,
    /// then the read budget against the query's own accumulator `io`
    /// (per-query budgets work even when many queries share one pool).
    pub fn admit_read(&self, io: &IoStats) -> Result<(), Interrupt> {
        self.check_interrupt()?;
        if let Some(max) = self.max_logical_reads {
            if io.logical_reads + io.seq_reads >= max {
                return Err(Interrupt::BudgetExhausted);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_admits_everything() {
        let ctx = QueryContext::unlimited();
        let io = IoStats {
            logical_reads: u64::MAX / 2,
            ..IoStats::default()
        };
        assert!(ctx.admit_read(&io).is_ok());
    }

    #[test]
    fn cancel_token_is_shared_between_clones() {
        let t = CancelToken::new();
        let clone = t.clone();
        assert!(!clone.is_cancelled());
        t.cancel();
        assert!(clone.is_cancelled());
        let ctx = QueryContext::default().with_cancel(clone);
        assert_eq!(ctx.check_interrupt(), Err(Interrupt::Cancelled));
    }

    #[test]
    fn deadline_in_the_past_denies() {
        let ctx = QueryContext::default().with_deadline(Instant::now() - Duration::from_millis(1));
        assert_eq!(ctx.check_interrupt(), Err(Interrupt::DeadlineExceeded));
        // A generous deadline admits.
        let ctx = QueryContext::default().with_timeout(Duration::from_secs(3600));
        assert!(ctx.check_interrupt().is_ok());
    }

    #[test]
    fn budget_counts_random_and_sequential_reads() {
        let ctx = QueryContext::default().with_max_reads(3);
        let mut io = IoStats::default();
        assert!(ctx.admit_read(&io).is_ok());
        io.logical_reads = 2;
        io.seq_reads = 1;
        assert_eq!(ctx.admit_read(&io), Err(Interrupt::BudgetExhausted));
    }

    #[test]
    fn cancel_outranks_deadline_and_budget() {
        let token = CancelToken::new();
        token.cancel();
        let ctx = QueryContext::default()
            .with_cancel(token)
            .with_deadline(Instant::now() - Duration::from_millis(1))
            .with_max_reads(0);
        assert_eq!(
            ctx.admit_read(&IoStats::default()),
            Err(Interrupt::Cancelled)
        );
    }

    #[test]
    fn interrupts_display() {
        assert_eq!(Interrupt::Cancelled.to_string(), "cancelled");
        assert!(Interrupt::DeadlineExceeded.to_string().contains("deadline"));
        assert!(Interrupt::BudgetExhausted.to_string().contains("budget"));
    }
}
