//! Cooperative cancellation for long-running flows.
//!
//! A [`CancelToken`] is a cheap, cloneable handle combining an explicit
//! cancel flag with an optional wall-clock deadline. Work loops call
//! [`CancelToken::check`] at natural boundaries (per pattern band, per
//! ATPG fault, per ILP node batch); the first check that observes the
//! cancellation records *when* it was observed so the flow can report the
//! request→stop latency (`robustness.cancel_latency_ms`).
//!
//! `FASTMON_DEADLINE_SECS=<float>` arms a deadline token from the
//! environment ([`from_env`]); the `run_all` driver sets it on children to
//! request a *soft* stop (checkpoint flushed, partial results returned
//! with structured notes) before escalating to a hard kill.

use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// The typed error produced when a phase observes cancellation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cancelled {
    /// The flow phase that observed the cancellation.
    pub phase: &'static str,
}

impl fmt::Display for Cancelled {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "run cancelled during {}", self.phase)
    }
}

impl Error for Cancelled {}

#[derive(Debug)]
struct Inner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
    /// When cancellation was requested (explicit `cancel()`) or first
    /// observed past the deadline — the start of the latency window.
    requested_at: OnceLock<Instant>,
}

/// A cloneable cooperative-cancellation handle.
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl CancelToken {
    /// A token that only cancels when [`cancel`](Self::cancel) is called.
    #[must_use]
    pub fn new() -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: None,
                requested_at: OnceLock::new(),
            }),
        }
    }

    /// A token that auto-cancels once `budget` has elapsed from now.
    #[must_use]
    pub fn with_deadline(budget: Duration) -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: Instant::now().checked_add(budget),
                requested_at: OnceLock::new(),
            }),
        }
    }

    /// Requests cancellation. Idempotent; the first call stamps the
    /// latency-window start.
    pub fn cancel(&self) {
        self.inner.requested_at.get_or_init(Instant::now);
        self.inner.cancelled.store(true, Ordering::Relaxed);
    }

    /// True once cancellation has been requested or the deadline passed.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        if self.inner.cancelled.load(Ordering::Relaxed) {
            return true;
        }
        if let Some(deadline) = self.inner.deadline {
            if Instant::now() >= deadline {
                // The deadline itself is when the "request" happened.
                self.inner.requested_at.get_or_init(|| deadline);
                self.inner.cancelled.store(true, Ordering::Relaxed);
                return true;
            }
        }
        false
    }

    /// Returns `Err(Cancelled { phase })` once cancellation is observed.
    ///
    /// # Errors
    ///
    /// Fails when the token has been cancelled or its deadline passed.
    pub fn check(&self, phase: &'static str) -> Result<(), Cancelled> {
        if self.is_cancelled() {
            Err(Cancelled { phase })
        } else {
            Ok(())
        }
    }

    /// Time elapsed since cancellation was requested, if it was. This is
    /// the request→now latency a graceful shutdown reports.
    #[must_use]
    pub fn latency_since_request(&self) -> Option<Duration> {
        self.inner
            .requested_at
            .get()
            .map(|t| Instant::now().saturating_duration_since(*t))
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::new()
    }
}

/// Builds a deadline token from `FASTMON_DEADLINE_SECS` (float seconds),
/// or `None` when unset/invalid. Invalid values — including a budget too
/// large for a [`Duration`] — warn rather than abort: a bad knob should
/// not take down a campaign.
#[must_use]
pub fn from_env() -> Option<CancelToken> {
    let raw = std::env::var("FASTMON_DEADLINE_SECS").ok()?;
    let raw = raw.trim();
    if raw.is_empty() {
        return None;
    }
    match raw.parse().map(Duration::try_from_secs_f64) {
        Ok(Ok(budget)) => Some(CancelToken::with_deadline(budget)),
        _ => {
            eprintln!("warning: ignoring invalid FASTMON_DEADLINE_SECS={raw:?}");
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_cancel_trips_checks_and_records_latency() {
        let token = CancelToken::new();
        assert!(token.check("analyze").is_ok());
        assert!(token.latency_since_request().is_none());
        let clone = token.clone();
        clone.cancel();
        assert!(token.is_cancelled());
        assert_eq!(token.check("analyze"), Err(Cancelled { phase: "analyze" }));
        assert!(token.latency_since_request().is_some());
    }

    #[test]
    fn deadline_token_expires() {
        let token = CancelToken::with_deadline(Duration::from_secs(0));
        assert!(token.is_cancelled());
        assert_eq!(token.check("sta"), Err(Cancelled { phase: "sta" }));
        let roomy = CancelToken::with_deadline(Duration::from_secs(3600));
        assert!(roomy.check("sta").is_ok());
    }

    #[test]
    fn deadline_knob_ignores_values_a_duration_cannot_hold() {
        // The only test in this binary that touches the variable.
        let token_for = |raw: &str| {
            std::env::set_var("FASTMON_DEADLINE_SECS", raw);
            let token = from_env();
            std::env::remove_var("FASTMON_DEADLINE_SECS");
            token
        };
        // 1e30 s overflows `Duration`; the knob used to panic on it
        for bad in ["1e30", "-1", "NaN", "inf", "soon", " "] {
            assert!(token_for(bad).is_none(), "{bad:?}");
        }
        assert!(token_for("0").unwrap().is_cancelled());
        assert!(!token_for("3600.5").unwrap().is_cancelled());
        // representable, but past any `Instant`: a token without deadline
        assert!(!token_for("1e18").unwrap().is_cancelled());
    }

    #[test]
    fn cancelled_error_displays_phase() {
        let err = Cancelled { phase: "ilp" };
        assert_eq!(err.to_string(), "run cancelled during ilp");
    }
}
