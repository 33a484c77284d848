//! Bounded exponential backoff for delivery retries.
//!
//! Only the number of attempts is configurable (`EngineConfig::retry_attempts`);
//! the schedule's shape is fixed: 500 ms, doubling, capped at 10 s. Backoff
//! is computed in *virtual* time and is fully deterministic — no jitter — so
//! chaos runs replay identically.

use sl_stt::Duration;

/// Backoff before the first retry.
const BASE_BACKOFF: Duration = Duration::from_millis(500);
/// Multiplier applied per subsequent attempt.
const BACKOFF_MULTIPLIER: u64 = 2;
/// Upper bound on any single backoff.
const MAX_BACKOFF: Duration = Duration::from_secs(10);

/// Backoff before retry number `attempt` (0-based):
/// `min(BASE_BACKOFF * BACKOFF_MULTIPLIER^attempt, MAX_BACKOFF)`.
pub fn backoff(attempt: u32) -> Duration {
    let mut d = BASE_BACKOFF;
    for _ in 0..attempt {
        d = d.saturating_mul(BACKOFF_MULTIPLIER);
        if d.as_millis() >= MAX_BACKOFF.as_millis() {
            return MAX_BACKOFF;
        }
    }
    d
}

/// Total virtual time spent backing off if all `attempts` retries are used —
/// the *retry budget*. An outage shorter than this is survivable.
pub fn budget(attempts: u32) -> Duration {
    let mut total = Duration::ZERO;
    for a in 0..attempts {
        total = total + backoff(a);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_and_caps() {
        assert_eq!(backoff(0), Duration::from_millis(500));
        assert_eq!(backoff(1), Duration::from_secs(1));
        assert_eq!(backoff(2), Duration::from_secs(2));
        assert_eq!(backoff(3), Duration::from_secs(4));
        assert_eq!(backoff(4), Duration::from_secs(8));
        // 16 s exceeds the 10 s cap.
        assert_eq!(backoff(5), Duration::from_secs(10));
        assert_eq!(backoff(50), Duration::from_secs(10));
    }

    #[test]
    fn budget_sums_backoffs() {
        // 0.5 + 1 + 2 + 4 + 8 + 10 = 25.5 s
        assert_eq!(budget(6), Duration::from_millis(25_500));
    }

    #[test]
    fn disabled_never_retries() {
        // `retry_attempts = 0` turns retrying off: no budget at all.
        assert_eq!(budget(0), Duration::ZERO);
    }

    #[test]
    fn backoff_is_deterministic() {
        for a in 0..10 {
            assert_eq!(backoff(a), backoff(a));
        }
    }
}
