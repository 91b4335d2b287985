//! `edgeMap` tuning knobs.

use crate::cancel::CancelToken;
use crate::fault::FaultPlan;
use crate::race::RaceOracle;

/// Which traversal `edgeMap` should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traversal {
    /// The paper's direction heuristic, and nothing else: dense when
    /// `|U| + Σ deg⁺(u) > threshold`, sparse otherwise. It never picks
    /// [`Traversal::DenseForward`] or [`Traversal::Partitioned`].
    Auto,
    /// Always push along out-edges of the frontier (sparse representation).
    Sparse,
    /// Always pull along in-edges of all vertices (dense representation,
    /// early exit via `cond`).
    Dense,
    /// Always push along out-edges of *all* vertices whose dense flag is
    /// set — the paper's "dense forward" variant, which avoids reading the
    /// transpose at the cost of atomic updates and no early exit.
    DenseForward,
    /// Cache-aware scatter/gather over contiguous vertex partitions:
    /// scatter appends `(dst, payload)` updates into per-partition bins,
    /// gather drains each bin with partition-exclusive (non-atomic)
    /// writes. Trades one streaming pass of bin traffic for the random
    /// LLC misses of dense pull. Forced-only: scatter must bin every
    /// frontier out-edge where pull's early exit skips most of them, and
    /// it measured 12–14 ns/edge against pull's 2.3–2.6 (DESIGN.md §13).
    Partitioned,
}

impl Traversal {
    /// All traversal policies, in the order benches sweep them.
    pub const ALL: [Traversal; 5] = [
        Traversal::Auto,
        Traversal::Sparse,
        Traversal::Dense,
        Traversal::DenseForward,
        Traversal::Partitioned,
    ];

    /// The canonical name [`std::fmt::Display`] renders.
    pub fn name(self) -> &'static str {
        match self {
            Traversal::Auto => "auto",
            Traversal::Sparse => "sparse",
            Traversal::Dense => "dense",
            Traversal::DenseForward => "dense-forward",
            Traversal::Partitioned => "partitioned",
        }
    }
}

impl std::fmt::Display for Traversal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Options for [`crate::edge_map_with`].
#[derive(Debug, Clone, Copy)]
pub struct EdgeMapOptions<'a> {
    /// Direction-switch threshold; `None` means the paper's default
    /// `m / 20`.
    pub threshold: Option<u64>,
    /// Traversal selection.
    pub traversal: Traversal,
    /// When `false`, skip materializing the output subset (Ligra's
    /// `no_output` flag) — used by PageRank, whose next frontier is
    /// computed by a separate `vertexFilter`.
    pub output: bool,
    /// Cooperative cancellation: when the token reports cancelled,
    /// `edgeMap` returns an empty subset instead of running the round, so
    /// frontier-driven loops drain at the next round boundary. Applications
    /// with loops not driven by the `edgeMap` output (PageRank, k-core,
    /// MIS, BC's backward sweep) check the same token themselves.
    pub cancel: Option<&'a CancelToken>,
    /// Shadow-state race oracle certifying the update function's win
    /// discipline. Recording only happens in builds with the core
    /// `race-check` feature; without it the attached oracle is inert
    /// (the traversal hooks compile away). See [`crate::race`].
    pub oracle: Option<&'a RaceOracle>,
    /// Deterministic fault-injection schedule checked at the
    /// `edgemap.round` fault point. Active only in builds with the
    /// `fault-inject` feature; without it the attached plan is inert
    /// (the round hook compiles away). See [`crate::fault`].
    pub fault: Option<&'a FaultPlan>,
    /// log2 of the partition width in vertices for the partitioned
    /// traversal; `None` means the cache-sized default in
    /// `ligra_graph::partition`.
    pub partition_bits: Option<u32>,
}

impl Default for EdgeMapOptions<'_> {
    fn default() -> Self {
        EdgeMapOptions {
            threshold: None,
            traversal: Traversal::Auto,
            output: true,
            cancel: None,
            oracle: None,
            fault: None,
            partition_bits: None,
        }
    }
}

impl<'a> EdgeMapOptions<'a> {
    /// Default options (auto direction, `m/20` threshold).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets an explicit direction-switch threshold.
    pub fn threshold(mut self, t: u64) -> Self {
        self.threshold = Some(t);
        self
    }

    /// Forces a traversal strategy.
    pub fn traversal(mut self, t: Traversal) -> Self {
        self.traversal = t;
        self
    }

    /// Disables output-subset construction.
    pub fn no_output(mut self) -> Self {
        self.output = false;
        self
    }

    /// Attaches a cancellation token checked at every round boundary.
    pub fn cancel(mut self, token: &'a CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Attaches a race oracle recording every update attempt (active
    /// only under the `race-check` feature).
    pub fn race_oracle(mut self, oracle: &'a RaceOracle) -> Self {
        self.oracle = Some(oracle);
        self
    }

    /// Attaches a fault plan checked at the start of every round
    /// (active only under the `fault-inject` feature).
    pub fn fault_plan(mut self, plan: &'a FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Whether the attached token (if any) has requested a stop.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.cancel.is_some_and(CancelToken::is_cancelled)
    }

    /// The effective threshold for a graph with `m` edges.
    #[inline]
    pub fn effective_threshold(&self, m: usize) -> u64 {
        self.threshold.unwrap_or(m as u64 / 20)
    }

    /// Sets the partition width (log2 vertices per partition) for the
    /// partitioned traversal.
    pub fn partition_bits(mut self, bits: u32) -> Self {
        self.partition_bits = Some(bits);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_threshold_is_m_over_20() {
        let o = EdgeMapOptions::new();
        assert_eq!(o.effective_threshold(2000), 100);
        assert_eq!(o.threshold(7).effective_threshold(2000), 7);
    }

    #[test]
    fn builder_chains() {
        let o = EdgeMapOptions::new().traversal(Traversal::Sparse).no_output();
        assert_eq!(o.traversal, Traversal::Sparse);
        assert!(!o.output);
        assert!(o.cancel.is_none());
        assert!(!o.is_cancelled());
    }

    #[test]
    fn cancel_token_threads_through() {
        let token = CancelToken::new();
        let o = EdgeMapOptions::new().cancel(&token);
        assert!(!o.is_cancelled());
        token.cancel();
        assert!(o.is_cancelled());
    }

    #[test]
    fn fault_plan_threads_through() {
        let plan = crate::fault::FaultPlan::seeded(42);
        let o = EdgeMapOptions::new().fault_plan(&plan);
        assert!(o.fault.is_some());
        assert!(EdgeMapOptions::new().fault.is_none());
    }

    #[test]
    fn race_oracle_threads_through() {
        let oracle = crate::race::RaceOracle::new(4, crate::race::WinContract::Claim);
        let o = EdgeMapOptions::new().race_oracle(&oracle);
        assert!(o.oracle.is_some());
        assert!(EdgeMapOptions::new().oracle.is_none());
    }

    #[test]
    fn traversal_display_round_trips() {
        let names: Vec<String> = Traversal::ALL.iter().map(Traversal::to_string).collect();
        assert_eq!(names, ["auto", "sparse", "dense", "dense-forward", "partitioned"]);
        for t in Traversal::ALL {
            assert_eq!(t.to_string(), t.name());
        }
    }

    #[test]
    fn partition_knobs_default_and_chain() {
        let o = EdgeMapOptions::new();
        assert!(o.partition_bits.is_none());
        assert_eq!(o.partition_bits(12).partition_bits, Some(12));
    }
}
