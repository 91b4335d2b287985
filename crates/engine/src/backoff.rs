//! Jittered exponential backoff for transient-failure retry loops.
//!
//! One schedule shared by every retrying client in the serving tier:
//! the `ligra-serve --client` pump, and `ligra-route`'s backend
//! reconnect/probe loop. The delay for attempt `k` is a capped
//! exponential base (`base_ms << k`, clamped at `cap_ms`) plus up to
//! 50% deterministic jitter derived from a caller-supplied salt, so a
//! fleet of retrying clients neither stampedes in lockstep nor
//! diverges between runs of the same seed — the whole schedule is a
//! pure function of `(salt, attempt)`.
//!
//! When the server supplied an explicit `retry_after_ms` hint (the
//! router's shed naming the earliest replica backoff it knows), the hint
//! overrides the computed delay: the server knows its fleet better than
//! our curve.

use crate::metrics::mix64;
use std::time::Duration;

/// A deterministic jittered-exponential retry schedule.
#[derive(Debug, Clone, Copy)]
pub struct Backoff {
    /// First-attempt base delay, milliseconds.
    pub base_ms: u64,
    /// Upper clamp on the exponential base, milliseconds (jitter may
    /// add up to 50% on top).
    pub cap_ms: u64,
    /// Jitter stream selector — distinct salts (request ordinal,
    /// backend id) get distinct but reproducible jitter.
    pub salt: u64,
}

impl Backoff {
    /// The schedule the serve client has always used: 10ms base,
    /// 640ms cap (10 << 6).
    pub fn serve_client(salt: u64) -> Self {
        Backoff { base_ms: 10, cap_ms: 640, salt }
    }

    /// The delay before retry `attempt` (0-based): capped exponential
    /// base plus deterministic jitter in `[0, base/2]`.
    pub fn delay(&self, attempt: u32) -> Duration {
        let base = self
            .base_ms
            .saturating_mul(1u64 << attempt.min(63) as u64)
            .min(self.cap_ms.max(self.base_ms));
        let jitter =
            mix64(self.salt.wrapping_mul(31).wrapping_add(attempt as u64)) % (base / 2 + 1);
        Duration::from_millis(base.saturating_add(jitter))
    }

    /// [`Backoff::delay`], with a server-supplied `retry_after_ms`
    /// hint taking precedence over the computed schedule.
    pub fn delay_with_hint(&self, attempt: u32, retry_after_ms: Option<u64>) -> Duration {
        match retry_after_ms {
            Some(ms) => Duration::from_millis(ms),
            None => self.delay(attempt),
        }
    }
}

/// Pulls `"retry_after_ms":N` out of a flat-JSON response line, if
/// present — the wire-format side of the hint override.
pub fn retry_after_ms(resp: &str) -> Option<u64> {
    ligra::jsonl::field_u64(resp, "retry_after_ms")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_in_salt_and_attempt() {
        let a = Backoff::serve_client(7);
        let b = Backoff::serve_client(7);
        for attempt in 0..10 {
            assert_eq!(a.delay(attempt), b.delay(attempt), "attempt {attempt}");
        }
        // A different salt draws different jitter somewhere in the run.
        let c = Backoff::serve_client(8);
        assert!((0..10).any(|k| a.delay(k) != c.delay(k)), "salts share a jitter stream");
    }

    #[test]
    fn base_grows_exponentially_then_caps() {
        let b = Backoff { base_ms: 10, cap_ms: 640, salt: 0 };
        for attempt in 0..16u32 {
            let base = 10u64.saturating_mul(1 << attempt.min(63)).min(640);
            let d = b.delay(attempt).as_millis() as u64;
            assert!(d >= base, "attempt {attempt}: {d} < base {base}");
            assert!(d <= base + base / 2, "attempt {attempt}: {d} > base+50% jitter");
        }
        // Far past the cap the delay stays bounded.
        assert!(b.delay(60).as_millis() as u64 <= 640 + 320);
    }

    #[test]
    fn huge_attempt_counts_never_overflow() {
        let b = Backoff { base_ms: u64::MAX / 2, cap_ms: u64::MAX, salt: 3 };
        // saturating arithmetic: no panic, no wraparound to a tiny delay.
        assert!(b.delay(u32::MAX).as_millis() > 0);
    }

    #[test]
    fn retry_after_hint_overrides_the_curve() {
        let b = Backoff::serve_client(1);
        assert_eq!(b.delay_with_hint(3, Some(25)), Duration::from_millis(25));
        assert_eq!(b.delay_with_hint(3, None), b.delay(3));
    }

    #[test]
    fn retry_after_ms_parses_flat_json() {
        assert_eq!(
            retry_after_ms(r#"{"ok":false,"transient":true,"retry_after_ms":120}"#),
            Some(120)
        );
        assert_eq!(retry_after_ms(r#"{"ok":true}"#), None);
        assert_eq!(retry_after_ms(r#"{"retry_after_ms":"soon"}"#), None);
    }
}
