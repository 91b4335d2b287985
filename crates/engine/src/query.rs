//! The typed query vocabulary and its dispatch onto the traced apps.
//!
//! `Query` is `Hash + Eq` so `(epoch, Query)` can key the result cache;
//! every variant therefore carries only integer parameters (PageRank runs
//! a fixed iteration count with `eps = 0` instead of a float threshold).
//! `run` validates against the snapshot first — out-of-range sources and
//! symmetry requirements come back as `Err`, never as panics, so one bad
//! request cannot take down a serving worker.

use crate::snapshot::Snapshot;
use ligra::{EdgeMapOptions, Recorder};
use ligra_apps::{
    bc_traced, bellman_ford_traced, bfs_traced, cc_traced, kcore_traced, mis_traced,
    pagerank_traced, radii_traced, BcResult, BellmanFordResult, BfsResult, CcResult, KCoreResult,
    MisResult, PageRankResult, RadiiResult, INFINITE_DISTANCE, UNREACHED,
};
use ligra_graph::UnitWeighted;
use std::sync::Arc;

/// PageRank damping factor used by every engine query (the paper's value).
pub const PAGERANK_ALPHA: f64 = 0.85;

/// One analytics request against a snapshot.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Query {
    /// Breadth-first search from `source`.
    Bfs {
        /// Root vertex.
        source: u32,
    },
    /// Single-source betweenness centrality (Brandes) from `source`.
    Bc {
        /// Root vertex.
        source: u32,
    },
    /// Connected components (label propagation). Symmetric graphs only.
    Cc,
    /// PageRank for exactly `iters` damped iterations (`eps = 0`).
    PageRank {
        /// Iterations to run.
        iters: u32,
    },
    /// Multi-BFS graph radii estimation with sample seed `seed`.
    Radii {
        /// Sample-selection seed.
        seed: u64,
    },
    /// Bellman-Ford shortest paths from `source` (unit weights unless a
    /// weighted graph was installed).
    BellmanFord {
        /// Root vertex.
        source: u32,
    },
    /// k-core decomposition (peeling). Symmetric graphs only.
    KCore,
    /// Maximal independent set with priority seed `seed`. Symmetric
    /// graphs only.
    Mis {
        /// Priority seed.
        seed: u64,
    },
}

impl Query {
    /// Every query-kind name, indexed by [`Query::kind_index`]. The
    /// metrics registry keys its per-kind latency histograms off this
    /// array, so the order is part of the closed metric vocabulary.
    pub const KIND_NAMES: [&'static str; 8] =
        ["bfs", "bc", "cc", "pagerank", "radii", "bellman-ford", "kcore", "mis"];

    /// Dense index of this query's kind into [`Query::KIND_NAMES`].
    pub fn kind_index(&self) -> usize {
        match self {
            Query::Bfs { .. } => 0,
            Query::Bc { .. } => 1,
            Query::Cc => 2,
            Query::PageRank { .. } => 3,
            Query::Radii { .. } => 4,
            Query::BellmanFord { .. } => 5,
            Query::KCore => 6,
            Query::Mis { .. } => 7,
        }
    }

    /// Short stable name, used in spans and the wire protocol.
    pub fn name(&self) -> &'static str {
        Self::KIND_NAMES[self.kind_index()]
    }

    /// Whether this query only makes sense on a symmetric graph.
    pub fn needs_symmetric(&self) -> bool {
        matches!(self, Query::Cc | Query::KCore | Query::Mis { .. })
    }

    fn source(&self) -> Option<u32> {
        match *self {
            Query::Bfs { source } | Query::Bc { source } | Query::BellmanFord { source } => {
                Some(source)
            }
            _ => None,
        }
    }

    /// Checks this query against a snapshot without running it.
    pub fn validate(&self, snap: &Snapshot) -> Result<(), String> {
        let n = snap.num_vertices();
        if n == 0 {
            return Err("graph is empty".to_string());
        }
        if let Some(s) = self.source() {
            if s as usize >= n {
                return Err(format!("source {s} out of range (n = {n})"));
            }
        }
        if self.needs_symmetric() && !snap.graph().is_symmetric() {
            return Err(format!("{} requires a symmetric graph", self.name()));
        }
        Ok(())
    }

    /// Coarse upper estimate of the bytes this query's run allocates on
    /// `snap`: per-vertex app state plus frontier buffers — no query
    /// allocates per-arc state, so the estimate is proportional to `n`
    /// alone. The memory-budget admission check sums these for in-flight
    /// queries — it bounds the order of magnitude of engine memory
    /// pressure, not the exact byte count.
    pub fn estimated_run_bytes(&self, snap: &Snapshot) -> u64 {
        let n = snap.num_vertices() as u64;
        let per_vertex: u64 = match self {
            Query::Bfs { .. } => 8,          // parent + dist (u32 each)
            Query::Bc { .. } => 24,          // sigma + dependency (f64) + visited
            Query::Cc => 8,                  // label + prev label
            Query::PageRank { .. } => 16,    // rank + next (f64 each)
            Query::Radii { .. } => 20,       // radii + two 64-bit visit masks / 8
            Query::BellmanFord { .. } => 12, // i64 dist + relaxed flag
            Query::KCore => 8,               // coreness + live degree
            Query::Mis { .. } => 9,          // priority (u64) + state
        };
        // Frontier overhead: dense bitsets both ways plus sparse output
        // buffers, called 8 bytes per vertex.
        n * (per_vertex + 8)
    }

    /// Runs the query on `snap`, delivering per-round telemetry to `rec`.
    /// `opts` carries the traversal policy and the cancellation token; a
    /// cancelled run still returns `Ok` with whatever partial state the
    /// app drained to — the scheduler discards it based on the token.
    pub fn run<R: Recorder>(
        &self,
        snap: &Snapshot,
        opts: EdgeMapOptions,
        rec: &mut R,
    ) -> Result<QueryOutput, String> {
        self.validate(snap)?;
        let g = snap.graph().as_ref();
        Ok(match *self {
            Query::Bfs { source } => QueryOutput::Bfs(bfs_traced(g, source, opts, rec)),
            Query::Bc { source } => QueryOutput::Bc(bc_traced(g, source, opts, rec)),
            Query::Cc => QueryOutput::Cc(cc_traced(g, opts, rec)),
            Query::PageRank { iters } => QueryOutput::PageRank(pagerank_traced(
                g,
                PAGERANK_ALPHA,
                0.0,
                iters as usize,
                opts,
                rec,
            )),
            Query::Radii { seed } => QueryOutput::Radii(radii_traced(g, seed, opts, rec)),
            Query::BellmanFord { source } => {
                QueryOutput::BellmanFord(match snap.weighted_graph() {
                    Some(wg) => bellman_ford_traced(wg.as_ref(), source, opts, rec),
                    None => bellman_ford_traced(&UnitWeighted(g), source, opts, rec),
                })
            }
            Query::KCore => QueryOutput::KCore(kcore_traced(g, opts, rec)),
            Query::Mis { seed } => QueryOutput::Mis(mis_traced(g, seed, opts, rec)),
        })
    }
}

/// The result of a completed query, wrapping the app-level result struct.
#[derive(Debug, Clone)]
pub enum QueryOutput {
    /// BFS parents/distances.
    Bfs(BfsResult),
    /// Brandes dependency scores.
    Bc(BcResult),
    /// Component labels.
    Cc(CcResult),
    /// Ranks.
    PageRank(PageRankResult),
    /// Estimated radii.
    Radii(RadiiResult),
    /// Shortest-path distances.
    BellmanFord(BellmanFordResult),
    /// Coreness values.
    KCore(KCoreResult),
    /// Independent-set membership.
    Mis(MisResult),
}

impl QueryOutput {
    /// Flat key/value summary for the wire protocol: small scalar facts
    /// only, never the full per-vertex vectors.
    pub fn summary(&self) -> Vec<(&'static str, String)> {
        match self {
            QueryOutput::Bfs(r) => vec![
                ("rounds", r.rounds.to_string()),
                ("reached", r.reached.to_string()),
                ("max_dist", max_reached(&r.dist).to_string()),
            ],
            QueryOutput::Bc(r) => {
                let sum: f64 = r.dependencies.iter().sum();
                vec![("rounds", r.rounds.to_string()), ("dependency_sum", format!("{sum:.6}"))]
            }
            QueryOutput::Cc(r) => vec![
                ("rounds", r.rounds.to_string()),
                ("components", r.num_components().to_string()),
            ],
            QueryOutput::PageRank(r) => {
                let sum: f64 = r.rank.iter().sum();
                vec![
                    ("iterations", r.iterations.to_string()),
                    ("rank_sum", format!("{sum:.6}")),
                    ("final_error", format!("{:.3e}", r.final_error)),
                ]
            }
            QueryOutput::Radii(r) => vec![
                ("rounds", r.rounds.to_string()),
                ("samples", r.sample.len().to_string()),
                ("max_radius", r.radii.iter().copied().max().unwrap_or(0).to_string()),
            ],
            QueryOutput::BellmanFord(r) => {
                let reached = r.dist.iter().filter(|&&d| d != INFINITE_DISTANCE).count();
                vec![
                    ("rounds", r.rounds.to_string()),
                    ("reached", reached.to_string()),
                    ("negative_cycle", r.negative_cycle.to_string()),
                ]
            }
            QueryOutput::KCore(r) => {
                vec![("rounds", r.rounds.to_string()), ("max_core", r.max_core.to_string())]
            }
            QueryOutput::Mis(r) => {
                vec![("rounds", r.rounds.to_string()), ("set_size", r.size().to_string())]
            }
        }
    }
}

/// A reply summary ([`QueryOutput::summary`]), shared between the
/// result cache, the job and its retired record.
pub type Summary = Arc<[(&'static str, String)]>;

/// A finished query's output together with its reply summary, computed
/// once when the result is produced so no reply — cache hits included —
/// walks the per-vertex vectors again.
#[derive(Debug, Clone)]
pub struct Answer {
    /// The full app-level result.
    pub output: Arc<QueryOutput>,
    /// `output.summary()`, computed once.
    pub summary: Summary,
}

impl Answer {
    /// Wraps `output`, computing its summary.
    pub fn new(output: QueryOutput) -> Answer {
        Answer { summary: output.summary().into(), output: Arc::new(output) }
    }
}

fn max_reached(dist: &[u32]) -> u32 {
    dist.iter().copied().filter(|&d| d != UNREACHED).max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::Snapshot;
    use ligra::NoopRecorder;
    use ligra_graph::generators::{cycle, grid3d};
    use ligra_graph::{build_graph, BuildOptions};

    fn snap(g: ligra_graph::Graph) -> Snapshot {
        Snapshot::from_graph(1, Arc::new(g))
    }

    #[test]
    fn out_of_range_source_is_an_error_not_a_panic() {
        let s = snap(cycle(8));
        let err = Query::Bfs { source: 99 }.run(&s, EdgeMapOptions::new(), &mut NoopRecorder);
        assert!(err.is_err());
        assert!(err.unwrap_err().contains("out of range"));
    }

    #[test]
    fn symmetry_requirement_is_an_error_on_directed_graphs() {
        let g = build_graph(4, &[(0, 1), (1, 2)], BuildOptions::directed());
        let s = snap(g);
        for q in [Query::Cc, Query::KCore, Query::Mis { seed: 1 }] {
            let err = q.run(&s, EdgeMapOptions::new(), &mut NoopRecorder);
            assert!(err.unwrap_err().contains("symmetric"), "{q:?}");
        }
        // Directed BFS is fine.
        assert!(Query::Bfs { source: 0 }.run(&s, EdgeMapOptions::new(), &mut NoopRecorder).is_ok());
    }

    #[test]
    fn every_query_runs_on_a_symmetric_graph() {
        let s = snap(grid3d(4));
        // Same n (64), a third of the arcs.
        let sparser = snap(cycle(64));
        let queries = [
            Query::Bfs { source: 0 },
            Query::Bc { source: 0 },
            Query::Cc,
            Query::PageRank { iters: 5 },
            Query::Radii { seed: 1 },
            Query::BellmanFord { source: 0 },
            Query::KCore,
            Query::Mis { seed: 1 },
        ];
        for q in queries {
            let out = q.run(&s, EdgeMapOptions::new(), &mut NoopRecorder).unwrap();
            let summary = out.summary();
            assert!(!summary.is_empty(), "{q:?}");
            // No query allocates per-arc state: the estimate ignores m.
            assert_eq!(q.estimated_run_bytes(&s), q.estimated_run_bytes(&sparser), "{q:?}");
        }
    }
}
