//! A long-lived concurrent query engine over Ligra graph snapshots.
//!
//! The traversal crates answer one query on one graph in one call; this
//! crate turns them into a *service*:
//!
//! * [`snapshot`] — immutable epoch-stamped graph versions behind `Arc`,
//!   so graph installs never disturb in-flight queries;
//! * [`query`] — the typed query vocabulary (BFS, BC, CC, PageRank,
//!   Radii, Bellman-Ford, k-core, MIS) and its dispatch onto the traced
//!   apps, with validation instead of panics;
//! * [`scheduler`] — bounded admission queue, fixed worker pool,
//!   per-query deadlines, and cooperative cancellation that yields at
//!   edgeMap round boundaries via [`ligra::CancelToken`];
//! * [`cache`] — an LRU of results keyed `(epoch, query)`;
//! * [`mutate`] — the live-update path ([`MutationLog`]): batched
//!   edge/vertex deltas applied as cheap overlay graphs, each publishing
//!   a new epoch, with background compaction back to a flat CSR;
//! * [`span`] — per-query lifecycle telemetry (queue wait, run time,
//!   rounds executed before completion or cancellation), carrying a
//!   `trace_id` that joins engine spans to on-disk kernel traces;
//! * [`metrics`] — the lock-free serving-tier metrics registry
//!   (striped counters, gauges, log-bucketed latency histograms) and
//!   its hand-rolled Prometheus text exposition;
//! * [`lockdep`] — named-site tracked lock guards; with the
//!   `lock-check` feature every engine-tier acquisition feeds the
//!   runtime lock-order oracle (`LockOracle`), which aborts on the
//!   first cycle-closing acquisition with both threads' witness chains;
//! * [`error`] — typed terminal errors ([`QueryError`]) distinguishing
//!   validation failures, injected transient faults, and caught panics;
//! * [`wire`] — the flat-JSONL request/response format spoken by the
//!   `ligra-serve` binary;
//! * [`handler`] — [`Replica`]: one request line in, one response line
//!   out, the whole of what `ligra-serve` answers, callable in-process;
//! * [`serve`] — the front-end both binaries share: connection loop,
//!   accept loop with its shutdown gate, Prometheus scrape listener,
//!   `--fault` plan builder, SIGTERM latch and drain;
//! * [`backoff`] — the deterministic jittered-exponential retry
//!   schedule shared by the serve client pump and the router's
//!   reconnect/probe loops;
//! * [`route`] — the replicated serving router behind `ligra-route`:
//!   per-backend Healthy/Degraded/Down state machine, least-outstanding
//!   read routing with failover, and journaled write fan-out with
//!   replay (DESIGN.md §16).
//!
//! Robustness (DESIGN.md §11): workers isolate query panics with
//! `catch_unwind` and self-heal; admission refuses at a full queue
//! ([`SubmitError::QueueFull`]) and sheds at dequeue when queue wait
//! consumed the deadline ([`QueryStatus::Shed`]); the `fault-inject` feature arms
//! deterministic fault schedules ([`FaultPlan`], re-exported from
//! `ligra`) at named points for chaos testing.

#![warn(missing_docs)]

pub mod backoff;
pub mod cache;
pub mod error;
pub mod handler;
pub mod lockdep;
pub mod metrics;
pub mod mutate;
pub mod query;
pub mod route;
pub mod scheduler;
pub mod serve;
pub mod snapshot;
pub mod span;
pub mod wire;

pub use backoff::Backoff;
pub use cache::ResultCache;
pub use error::QueryError;
pub use handler::Replica;
pub use ligra::{FaultAction, FaultError, FaultPlan, FaultPoint};
pub use lockdep::{LockOracle, LockReport, LockViolation, TrackedGuard};
pub use metrics::{Histogram, HistogramSnapshot, MetricsRegistry};
pub use mutate::{
    CompactionReport, MutateError, MutationConfig, MutationLog, MutationReport, MutationStatus,
};
pub use query::{Answer, Query, QueryOutput, Summary, PAGERANK_ALPHA};
pub use route::{BackendState, Router, RouterConfig, RouterMetrics};
pub use scheduler::{
    Engine, EngineConfig, EngineStats, LookupError, QueryHandle, QueryReport, SubmitError,
};
pub use serve::{Frontend, Server, WireEvent};
pub use snapshot::{GraphStore, Snapshot};
pub use span::{QuerySpan, QueryStatus, RoundCounter};
pub use wire::{error_response, JsonObj, Request};
