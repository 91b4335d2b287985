//! Machine-readable trace export for [`TraversalStats`].
//!
//! One flat format, hand-rolled so the framework stays dependency-free:
//! **JSON lines** — one self-describing JSON object per recorded event
//! ([`to_json_lines`], written to disk by [`save_jsonl`]). The schema is
//! flat (only numbers, booleans, and closed-vocabulary strings), so any
//! JSON parser reads a line, and so does the engine's flat-JSON scanner
//! (`ligra_engine::wire::Fields`). Nothing in the product reads a trace
//! back — the figure binaries render from the stats they hold — so there
//! is no importer. [`summary`] folds a trace into per-mode aggregates for
//! quick human inspection.

use crate::stats::{Mode, Op, TraversalStats};
use std::fmt::Write as _;

/// Serializes a trace as JSON lines: one flat object per event, `round`
/// being the event's position in the trace.
pub fn to_json_lines(stats: &TraversalStats) -> String {
    let mut out = String::new();
    for (i, r) in stats.rounds.iter().enumerate() {
        let _ = write!(
            out,
            concat!(
                "{{\"round\":{},\"op\":\"{}\",\"mode\":\"{}\",",
                "\"frontier_vertices\":{},\"frontier_out_edges\":{},",
                "\"work\":{},\"threshold\":{},\"forced\":{},",
                "\"input_repr\":\"{}\",\"output_repr\":\"{}\",\"converted\":{},",
                "\"output_vertices\":{},\"frontier_bytes\":{},\"time_ns\":{},",
                "\"cas_attempts\":{},\"cas_wins\":{},",
                "\"edges_scanned\":{},\"edges_skipped\":{},",
                "\"partitions\":{},\"bins_flushed\":{},\"scatter_bytes\":{}}}\n"
            ),
            i,
            r.op,
            r.mode,
            r.frontier_vertices,
            r.frontier_out_edges,
            r.work,
            r.threshold,
            r.forced,
            r.input_repr,
            r.output_repr,
            r.converted,
            r.output_vertices,
            r.frontier_bytes,
            r.time_ns,
            r.cas_attempts,
            r.cas_wins,
            r.edges_scanned,
            r.edges_skipped,
            r.partitions,
            r.bins_flushed,
            r.scatter_bytes,
        );
    }
    out
}

/// Writes a trace as `<dir>/<stem>.jsonl` (the [`to_json_lines`] format)
/// and returns the path written. One shared helper so every producer of
/// on-disk kernel traces — the figure binaries and the engine's
/// per-query trace join — agrees on naming and format; a span or report
/// that carries `stem` can always be resolved back to its rows.
pub fn save_jsonl(
    dir: &std::path::Path,
    stem: &str,
    stats: &TraversalStats,
) -> Result<std::path::PathBuf, String> {
    let path = dir.join(format!("{stem}.jsonl"));
    std::fs::write(&path, to_json_lines(stats))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path)
}

/// Aggregate view of a trace, one bucket per `edgeMap` mode plus totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Total recorded events (edge and vertex operations).
    pub events: usize,
    /// `edgeMap` rounds by mode: sparse, dense, dense-forward.
    pub sparse_rounds: usize,
    /// Dense (pull) rounds.
    pub dense_rounds: usize,
    /// Dense-forward rounds.
    pub dense_forward_rounds: usize,
    /// Partitioned scatter/gather rounds.
    pub partitioned_rounds: usize,
    /// Rounds whose input frontier was converted between representations.
    pub conversions: usize,
    /// Total wall-clock nanoseconds across all events.
    pub total_time_ns: u64,
    /// Σ edges scanned by the traversals.
    pub edges_scanned: u64,
    /// Σ in-edges skipped by the pull early exit.
    pub edges_skipped: u64,
    /// Σ atomic update attempts in the push traversals.
    pub cas_attempts: u64,
    /// Σ atomic update attempts that won.
    pub cas_wins: u64,
    /// Σ bytes the partitioned scatter phase wrote into bins.
    pub scatter_bytes: u64,
}

impl TraceSummary {
    /// Fraction of atomic update attempts that won (1.0 when none made).
    pub fn cas_win_rate(&self) -> f64 {
        if self.cas_attempts == 0 {
            1.0
        } else {
            self.cas_wins as f64 / self.cas_attempts as f64
        }
    }

    /// Fraction of in-edges the pull traversal avoided reading.
    pub fn early_exit_rate(&self) -> f64 {
        let total = self.edges_scanned + self.edges_skipped;
        if total == 0 {
            0.0
        } else {
            self.edges_skipped as f64 / total as f64
        }
    }
}

impl std::fmt::Display for TraceSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{} events ({} sparse / {} dense / {} dense-fwd / {} partitioned edgeMap rounds, \
             {} conversions)",
            self.events,
            self.sparse_rounds,
            self.dense_rounds,
            self.dense_forward_rounds,
            self.partitioned_rounds,
            self.conversions
        )?;
        writeln!(
            f,
            "time {:.3} ms | edges scanned {} skipped {} (early-exit {:.1}%)",
            self.total_time_ns as f64 / 1e6,
            self.edges_scanned,
            self.edges_skipped,
            100.0 * self.early_exit_rate()
        )?;
        write!(
            f,
            "cas attempts {} wins {} (win rate {:.1}%)",
            self.cas_attempts,
            self.cas_wins,
            100.0 * self.cas_win_rate()
        )
    }
}

/// Folds a trace into a [`TraceSummary`].
pub fn summary(stats: &TraversalStats) -> TraceSummary {
    let mut s = TraceSummary { events: stats.rounds.len(), ..TraceSummary::default() };
    for r in &stats.rounds {
        if r.op == Op::EdgeMap {
            match r.mode {
                Mode::Sparse => s.sparse_rounds += 1,
                Mode::Dense => s.dense_rounds += 1,
                Mode::DenseForward => s.dense_forward_rounds += 1,
                Mode::Partitioned => s.partitioned_rounds += 1,
            }
            if r.converted {
                s.conversions += 1;
            }
        }
        s.total_time_ns += r.time_ns;
        s.edges_scanned += r.edges_scanned;
        s.edges_skipped += r.edges_skipped;
        s.cas_attempts += r.cas_attempts;
        s.cas_wins += r.cas_wins;
        s.scatter_bytes += r.scatter_bytes;
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{ReprKind, RoundStat};

    fn sample_trace() -> TraversalStats {
        let mut t = TraversalStats::new();
        t.rounds.push(RoundStat {
            op: Op::EdgeMap,
            frontier_vertices: 1,
            frontier_out_edges: 9,
            work: 10,
            threshold: 500,
            forced: false,
            mode: Mode::Sparse,
            input_repr: ReprKind::Sparse,
            output_repr: ReprKind::Sparse,
            converted: false,
            output_vertices: 9,
            frontier_bytes: 40,
            time_ns: 1234,
            cas_attempts: 9,
            cas_wins: 9,
            edges_scanned: 9,
            edges_skipped: 0,
            partitions: 0,
            bins_flushed: 0,
            scatter_bytes: 0,
        });
        t.rounds.push(RoundStat {
            op: Op::EdgeMap,
            frontier_vertices: 900,
            frontier_out_edges: 8000,
            work: 8900,
            threshold: 500,
            forced: false,
            mode: Mode::Dense,
            input_repr: ReprKind::Sparse,
            output_repr: ReprKind::Dense,
            converted: true,
            output_vertices: 80,
            frontier_bytes: 256,
            time_ns: 5678,
            cas_attempts: 0,
            cas_wins: 0,
            edges_scanned: 1000,
            edges_skipped: 9000,
            partitions: 0,
            bins_flushed: 0,
            scatter_bytes: 0,
        });
        t.rounds.push(RoundStat {
            op: Op::EdgeMap,
            frontier_vertices: 600,
            frontier_out_edges: 7000,
            work: 7600,
            threshold: 500,
            forced: true,
            mode: Mode::Partitioned,
            input_repr: ReprKind::Dense,
            output_repr: ReprKind::Dense,
            converted: false,
            output_vertices: 40,
            frontier_bytes: 256,
            time_ns: 4321,
            cas_attempts: 0,
            cas_wins: 0,
            edges_scanned: 7000,
            edges_skipped: 0,
            partitions: 8,
            bins_flushed: 24,
            scatter_bytes: 56_000,
        });
        t.rounds.push(RoundStat::vertex_op(Op::VertexMap, 80, ReprKind::Dense, 80));
        t
    }

    #[test]
    fn json_lines_spell_every_key_in_order() {
        let want = concat!(
            r#"{"round":0,"op":"edge_map","mode":"sparse","#,
            r#""frontier_vertices":1,"frontier_out_edges":9,"#,
            r#""work":10,"threshold":500,"forced":false,"#,
            r#""input_repr":"sparse","output_repr":"sparse","converted":false,"#,
            r#""output_vertices":9,"frontier_bytes":40,"time_ns":1234,"#,
            r#""cas_attempts":9,"cas_wins":9,"#,
            r#""edges_scanned":9,"edges_skipped":0,"#,
            r#""partitions":0,"bins_flushed":0,"scatter_bytes":0}"#,
            "\n",
            r#"{"round":1,"op":"edge_map","mode":"dense","#,
            r#""frontier_vertices":900,"frontier_out_edges":8000,"#,
            r#""work":8900,"threshold":500,"forced":false,"#,
            r#""input_repr":"sparse","output_repr":"dense","converted":true,"#,
            r#""output_vertices":80,"frontier_bytes":256,"time_ns":5678,"#,
            r#""cas_attempts":0,"cas_wins":0,"#,
            r#""edges_scanned":1000,"edges_skipped":9000,"#,
            r#""partitions":0,"bins_flushed":0,"scatter_bytes":0}"#,
            "\n",
            r#"{"round":2,"op":"edge_map","mode":"partitioned","#,
            r#""frontier_vertices":600,"frontier_out_edges":7000,"#,
            r#""work":7600,"threshold":500,"forced":true,"#,
            r#""input_repr":"dense","output_repr":"dense","converted":false,"#,
            r#""output_vertices":40,"frontier_bytes":256,"time_ns":4321,"#,
            r#""cas_attempts":0,"cas_wins":0,"#,
            r#""edges_scanned":7000,"edges_skipped":0,"#,
            r#""partitions":8,"bins_flushed":24,"scatter_bytes":56000}"#,
            "\n",
            r#"{"round":3,"op":"vertex_map","mode":"dense","#,
            r#""frontier_vertices":80,"frontier_out_edges":0,"#,
            r#""work":80,"threshold":0,"forced":false,"#,
            r#""input_repr":"dense","output_repr":"dense","converted":false,"#,
            r#""output_vertices":80,"frontier_bytes":0,"time_ns":0,"#,
            r#""cas_attempts":0,"cas_wins":0,"#,
            r#""edges_scanned":0,"edges_skipped":0,"#,
            r#""partitions":0,"bins_flushed":0,"scatter_bytes":0}"#,
            "\n",
        );
        assert_eq!(to_json_lines(&sample_trace()), want);
        assert_eq!(to_json_lines(&TraversalStats::new()), "");
    }

    #[test]
    fn string_fields_stay_closed_vocabulary() {
        // The exporter writes these strings between quotes without escaping,
        // so every string the serializers can emit must avoid '"' and '\\'
        // (and, for readers that split lines on them, ',' and ':'). This pins the schema: adding an
        // enum variant (or a new string column) whose rendering breaks the
        // invariant must fail here, not mis-parse downstream.
        let ops = [Op::EdgeMap, Op::VertexMap, Op::VertexFilter];
        let modes = [Mode::Sparse, Mode::Dense, Mode::DenseForward, Mode::Partitioned];
        let reprs = [ReprKind::Sparse, ReprKind::Dense];
        let rendered: Vec<String> = ops
            .iter()
            .map(ToString::to_string)
            .chain(modes.iter().map(ToString::to_string))
            .chain(reprs.iter().map(ToString::to_string))
            .collect();
        for s in &rendered {
            assert!(!s.contains([',', ':', '"', '\\']), "{s:?} would break the flat trace format");
        }
    }

    #[test]
    fn summary_aggregates_modes_and_counters() {
        let t = sample_trace();
        let s = summary(&t);
        assert_eq!(s.events, 4);
        assert_eq!(
            (s.sparse_rounds, s.dense_rounds, s.dense_forward_rounds, s.partitioned_rounds),
            (1, 1, 0, 1)
        );
        assert_eq!(s.conversions, 1);
        assert_eq!(s.total_time_ns, 1234 + 5678 + 4321);
        assert_eq!(s.cas_attempts, 9);
        assert_eq!(s.edges_skipped, 9000);
        assert_eq!(s.scatter_bytes, 56_000);
        let text = s.to_string();
        assert!(text.contains("1 sparse / 1 dense"));
        assert!(text.contains("1 partitioned"));
        assert!(text.contains("win rate 100.0%"));
    }
}
