//! Machine-readable trace export for [`TraversalStats`].
//!
//! One flat format, hand-rolled so the framework stays dependency-free:
//! **JSON lines** — one self-describing JSON object per recorded event
//! ([`to_json_lines`] / [`from_json_lines`]). The schema is flat (only
//! numbers, booleans, and closed-vocabulary strings), so a line is read
//! by the repo's one flat-JSON scanner, [`crate::jsonl`], not a general
//! JSON implementation.
//!
//! The round trip is lossless (`from_json_lines(to_json_lines(t)) == t`).
//! Nothing in the product reads a trace back — the figure binaries render
//! from the stats they hold — so the importer exists for tests and
//! offline tooling, and is the `RoundStat`-from-fields mapping and a line
//! loop over [`Fields`]. [`summary`] folds a trace into per-mode
//! aggregates for quick human inspection.

use crate::jsonl::{text, Fields};
use crate::stats::{Mode, Op, RoundStat, TraversalStats};
use std::fmt::{Display, Write as _};
use std::str::FromStr;

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

/// One exported line back as a [`RoundStat`] — the only part of the
/// import that is about traces; the line itself is read by [`Fields`].
/// A repeated key reads as its first occurrence, and a closed-vocabulary
/// string reads the same bare as quoted.
fn round_stat(line: &str) -> Result<RoundStat, String> {
    fn get<T: FromStr<Err: Display>>(fields: &[(&str, &str)], key: &str) -> Result<T, String> {
        let (_, raw) = fields
            .iter()
            .find(|(k, _)| *k == key)
            .ok_or_else(|| format!("missing field {key:?}"))?;
        text(raw).parse().map_err(|e| format!("field {key:?}: {e}: {raw}"))
    }
    let f = &Fields::new(line).collect::<Result<Vec<_>, _>>()?;
    Ok(RoundStat {
        op: get(f, "op")?,
        frontier_vertices: get(f, "frontier_vertices")?,
        frontier_out_edges: get(f, "frontier_out_edges")?,
        work: get(f, "work")?,
        threshold: get(f, "threshold")?,
        forced: get(f, "forced")?,
        mode: get(f, "mode")?,
        input_repr: get(f, "input_repr")?,
        output_repr: get(f, "output_repr")?,
        converted: get(f, "converted")?,
        output_vertices: get(f, "output_vertices")?,
        frontier_bytes: get(f, "frontier_bytes")?,
        time_ns: get(f, "time_ns")?,
        cas_attempts: get(f, "cas_attempts")?,
        cas_wins: get(f, "cas_wins")?,
        edges_scanned: get(f, "edges_scanned")?,
        edges_skipped: get(f, "edges_skipped")?,
        partitions: get(f, "partitions")?,
        bins_flushed: get(f, "bins_flushed")?,
        scatter_bytes: get(f, "scatter_bytes")?,
    })
}

/// Parses the output of [`to_json_lines`] back into a trace.
///
/// Accepts exactly the flat schema this module emits, with the fields
/// in any order and unknown fields ignored — it is a format reader, not
/// a general JSON parser. Blank lines are skipped.
pub fn from_json_lines(text: &str) -> Result<TraversalStats, String> {
    let mut stats = TraversalStats::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        stats.rounds.push(round_stat(line).map_err(|e| format!("line {}: {e}", lineno + 1))?);
    }
    Ok(stats)
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
    use crate::stats::ReprKind;

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
    fn json_lines_round_trip() {
        let t = sample_trace();
        let text = to_json_lines(&t);
        assert_eq!(text.lines().count(), 4);
        assert!(text.lines().next().unwrap().starts_with("{\"round\":0,\"op\":\"edge_map\""));
        let back = from_json_lines(&text).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn empty_trace_round_trips() {
        let t = TraversalStats::new();
        assert_eq!(from_json_lines(&to_json_lines(&t)).unwrap(), t);
    }

    #[test]
    fn parsers_reject_malformed_input() {
        assert!(from_json_lines("not json\n").is_err());
        assert!(from_json_lines("{\"round\":0}\n").is_err(), "missing fields");
    }

    #[test]
    fn json_parser_rejects_quotes_and_escapes_in_values() {
        let good = to_json_lines(&sample_trace());
        // Interior quote, backslash escape, and unbalanced quote must all be
        // hard errors, never silently trimmed into a different value.
        for (from, to) in [
            ("\"sparse\"", "\"spa\"rse\""),
            ("\"sparse\"", "\"spa\\u0022rse\""),
            ("\"sparse\"", "\"sparse"),
        ] {
            let bad = good.replacen(from, to, 1);
            assert_ne!(bad, good, "mutation {to:?} did not apply");
            assert!(from_json_lines(&bad).is_err(), "accepted {to:?}");
        }
    }

    #[test]
    fn string_fields_stay_closed_vocabulary() {
        // The exporter writes these strings between quotes without escaping
        // and the importer reads them back as spelled, so every string the
        // serializers can emit must avoid '"' and '\\' (and, for readers that
        // split lines on them, ',' and ':'). This pins the schema: adding an
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
