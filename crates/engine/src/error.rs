//! Typed terminal errors for submitted queries.
//!
//! PR-4-era engines carried a bare `String`; the robustness layer needs
//! structure — a waiter must be able to tell a validation failure from
//! an injected transient fault from a caught panic, because each implies
//! a different client action (fix the request, retry with backoff, or
//! report a bug / fault-injection finding).

use std::any::Any;

/// Why a query reached the `Failed` or `Panicked` terminal state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// The query was invalid for its snapshot (out-of-range source,
    /// symmetry requirement). Not retryable: fix the request.
    App(String),
    /// A fault-injection schedule fired a spurious transient error at
    /// the named point. Retryable: a re-submitted query takes a fresh
    /// pass through the schedule.
    Injected {
        /// Fault-point name (`edgemap.round` for a running query).
        point: &'static str,
        /// 1-based hit count at which the schedule fired.
        hit: u64,
    },
    /// The query panicked and the worker caught the unwind. The worker
    /// self-heals; the panic is confined to this query.
    Panicked {
        /// Where the panic originated: a fault-point name when the
        /// unwind carried a typed `FaultError` payload, else
        /// `"query.run"` (the app itself) or `"scheduler"` (a caught
        /// scheduler bug).
        point: &'static str,
        /// The panic message, best effort (`&str`/`String` payloads).
        msg: String,
    },
}

impl QueryError {
    /// Whether a client retry is a reasonable response to this error.
    pub fn is_transient(&self) -> bool {
        matches!(self, QueryError::Injected { .. })
    }
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::App(msg) => f.write_str(msg),
            QueryError::Injected { point, hit } => {
                write!(f, "fault-inject: injected fault at {point} (hit {hit})")
            }
            QueryError::Panicked { point, msg } => {
                write!(f, "query panicked at {point}: {msg}")
            }
        }
    }
}

impl std::error::Error for QueryError {}

/// Classifies a caught unwind payload. Typed `FaultError` payloads map
/// back to their fault point (an injected `Error` at a point with no
/// `Result` channel stays a transient [`QueryError::Injected`], an
/// injected panic becomes [`QueryError::Panicked`] at its point); plain
/// `panic!` payloads keep their message.
pub fn classify_panic(payload: &(dyn Any + Send)) -> QueryError {
    if let Some(fe) = payload.downcast_ref::<ligra::FaultError>() {
        if fe.action == ligra::FaultAction::Error {
            return QueryError::Injected { point: fe.point.name(), hit: fe.hit };
        }
        return QueryError::Panicked { point: fe.point.name(), msg: fe.to_string() };
    }
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "opaque panic payload".to_string());
    QueryError::Panicked { point: "query.run", msg }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ligra::{FaultAction, FaultError, FaultPoint};
    use std::panic::{catch_unwind, panic_any, AssertUnwindSafe};

    #[test]
    fn classify_plain_panics_keeps_the_message() {
        let payload =
            catch_unwind(AssertUnwindSafe(|| panic!("index out of bounds: 7"))).unwrap_err();
        let err = classify_panic(payload.as_ref());
        assert_eq!(
            err,
            QueryError::Panicked { point: "query.run", msg: "index out of bounds: 7".into() }
        );
        assert!(!err.is_transient());
    }

    #[test]
    fn classify_typed_fault_payloads_by_action() {
        let boom =
            FaultError { point: FaultPoint::EdgemapRound, hit: 3, action: FaultAction::Panic };
        let payload = catch_unwind(AssertUnwindSafe(|| panic_any(boom))).unwrap_err();
        match classify_panic(payload.as_ref()) {
            QueryError::Panicked { point: "edgemap.round", .. } => {}
            other => panic!("unexpected {other:?}"),
        }

        let spurious =
            FaultError { point: FaultPoint::EdgemapRound, hit: 2, action: FaultAction::Error };
        let payload = catch_unwind(AssertUnwindSafe(|| panic_any(spurious))).unwrap_err();
        let err = classify_panic(payload.as_ref());
        assert_eq!(err, QueryError::Injected { point: "edgemap.round", hit: 2 });
        assert!(err.is_transient());
    }

    #[test]
    fn display_is_stable_and_greppable() {
        let e = QueryError::Panicked { point: "query.run", msg: "boom".into() };
        assert_eq!(e.to_string(), "query panicked at query.run: boom");
        let e = QueryError::Injected { point: "edgemap.round", hit: 1 };
        assert!(e.to_string().contains("edgemap.round"));
        assert_eq!(QueryError::App("bad".into()).to_string(), "bad");
    }
}
