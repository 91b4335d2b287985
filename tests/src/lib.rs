//! Shared helpers for the cross-crate integration tests.
//!
//! The real content of this package lives in its `tests/` directory; this
//! library only hosts utilities reused by several integration test files.

use ligra::TraversalStats;
use ligra_engine::wire::{field, field_bool, field_u64, Fields};

/// Asserts that `text`, an export of `stats` (`ligra::to_json_lines`),
/// carries exactly its events when read back through the wire scanner:
/// one well-formed line per event, in order, every field equal to the
/// event's value.
pub fn assert_trace_lines_match(text: &str, stats: &TraversalStats) {
    assert_eq!(text.lines().count(), stats.rounds.len(), "one line per event");
    for (i, (line, r)) in text.lines().zip(&stats.rounds).enumerate() {
        assert!(Fields::new(line).all(|pair| pair.is_ok()), "malformed line {i}: {line}");
        let numbers = [
            ("round", i as u64),
            ("frontier_vertices", r.frontier_vertices),
            ("frontier_out_edges", r.frontier_out_edges),
            ("work", r.work),
            ("threshold", r.threshold),
            ("output_vertices", r.output_vertices),
            ("frontier_bytes", r.frontier_bytes),
            ("time_ns", r.time_ns),
            ("cas_attempts", r.cas_attempts),
            ("cas_wins", r.cas_wins),
            ("edges_scanned", r.edges_scanned),
            ("edges_skipped", r.edges_skipped),
            ("partitions", r.partitions),
            ("bins_flushed", r.bins_flushed),
            ("scatter_bytes", r.scatter_bytes),
        ];
        for (key, want) in numbers {
            assert_eq!(field_u64(line, key), Some(want), "{key} of line {i}: {line}");
        }
        for (key, want) in [("forced", r.forced), ("converted", r.converted)] {
            assert_eq!(field_bool(line, key), Some(want), "{key} of line {i}: {line}");
        }
        let words = [
            ("op", r.op.to_string()),
            ("mode", r.mode.to_string()),
            ("input_repr", r.input_repr.to_string()),
            ("output_repr", r.output_repr.to_string()),
        ];
        for (key, want) in &words {
            assert_eq!(field(line, key), Some(want.as_str()), "{key} of line {i}: {line}");
        }
    }
}
