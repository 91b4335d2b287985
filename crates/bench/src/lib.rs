//! Shared harness for regenerating the paper's tables and figures.
//!
//! Every binary in this crate prints one artifact of the Ligra paper's
//! evaluation section (see DESIGN.md §4 for the experiment index). The
//! graph suite mirrors Table 1's input families at laptop scale; set
//! `LIGRA_SCALE=large` for bigger inputs (paper-shaped, minutes of
//! runtime) or `LIGRA_SCALE=tiny` for smoke tests; any other value is
//! refused.

use ligra_graph::generators::rmat::RmatOptions;
use ligra_graph::generators::{grid3d, random_local, rmat};
use ligra_graph::{Graph, GraphStats};
use std::time::Instant;

/// One benchmark input: a named graph plus the traversal source the
/// harness uses (the paper picks vertex 0 for synthetic inputs and a
/// high-degree vertex for Twitter; we do the same for the rMat stand-in).
pub struct Input {
    /// Display name (Table 1's first column).
    pub name: &'static str,
    /// The graph.
    pub graph: Graph,
    /// Source vertex for BFS / BC / Bellman–Ford.
    pub source: u32,
}

/// Scale selector read from `LIGRA_SCALE` (tiny | default | large).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Smoke-test sizes (seconds for the full suite).
    Tiny,
    /// Default laptop-scale sizes.
    Default,
    /// Larger runs for more stable shape measurements.
    Large,
}

impl Scale {
    /// Reads the scale from the environment; unset means `Default`. Any
    /// other value than `tiny`, `default` or `large` exits the process
    /// with status 2 and a message naming the accepted values.
    pub fn from_env() -> Scale {
        let value = match std::env::var("LIGRA_SCALE") {
            Ok(v) => Some(v),
            Err(std::env::VarError::NotPresent) => None,
            Err(std::env::VarError::NotUnicode(raw)) => Some(raw.to_string_lossy().into_owned()),
        };
        Scale::parse(value.as_deref()).unwrap_or_else(|msg| {
            eprintln!("{msg}");
            std::process::exit(2)
        })
    }

    fn parse(value: Option<&str>) -> Result<Scale, String> {
        match value {
            None | Some("default") => Ok(Scale::Default),
            Some("tiny") => Ok(Scale::Tiny),
            Some("large") => Ok(Scale::Large),
            Some(other) => {
                Err(format!("LIGRA_SCALE={other:?} is not one of: tiny, default, large"))
            }
        }
    }
}

/// Builds the Table 1 input suite at the given scale.
///
/// | name | family | paper counterpart |
/// |---|---|---|
/// | 3d-grid | 6-regular torus | 3d-grid (10⁷ vertices) |
/// | random-local | geometric-distance random | randLocal (10⁷) |
/// | rMat | power law a=.5 b=c=.1 | rMat24/rMat27 |
/// | rMat-sk | Graph500 skew, directed | Twitter (real graph substitute) |
pub fn inputs(scale: Scale) -> Vec<Input> {
    let (side, rl_n, log_n, log_n_sk) = match scale {
        Scale::Tiny => (12, 4_000, 12, 11),
        Scale::Default => (32, 100_000, 17, 15),
        Scale::Large => (64, 500_000, 19, 17),
    };
    let mut out = Vec::new();

    out.push(Input { name: "3d-grid", graph: grid3d(side), source: 0 });
    out.push(Input { name: "random-local", graph: random_local(rl_n, 10, 42), source: 0 });
    out.push(Input { name: "rMat", graph: rmat(&RmatOptions::paper(log_n)), source: 0 });

    let sk = rmat(&RmatOptions::twitter_like(log_n_sk));
    let (hub, _) = sk.max_out_degree();
    out.push(Input { name: "rMat-sk", graph: sk, source: hub });

    out
}

/// Minimum wall-clock seconds over `reps` invocations (the paper reports
/// per-run medians; min is the conventional low-noise choice for
/// single-machine microbenchmarks).
pub fn time_best<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    assert!(reps >= 1);
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        let _result = f(); // dropped after the clock is read
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// Prints a Table-1-style row for a graph.
pub fn print_graph_row(name: &str, g: &Graph) {
    let s = GraphStats::of(g);
    println!(
        "{:<14} {:>10} {:>12} {:>10} {:>8.2} {:>9} {}",
        name,
        s.num_vertices,
        s.num_edges,
        s.max_degree.1,
        s.avg_degree,
        s.isolated,
        if s.symmetric { "symmetric" } else { "directed" },
    );
}

/// Formats seconds the way the paper's tables do (2-3 significant digits).
pub fn fmt_secs(t: f64) -> String {
    if t < 0.01 {
        format!("{:.2}ms", t * 1e3)
    } else if t < 1.0 {
        format!("{:.1}ms", t * 1e3)
    } else {
        format!("{t:.2}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_suite_builds_and_validates() {
        let suite = inputs(Scale::Tiny);
        assert_eq!(suite.len(), 4);
        for input in &suite {
            ligra_graph::properties::assert_valid(&input.graph);
            assert!((input.source as usize) < input.graph.num_vertices());
            assert!(input.graph.num_edges() > 0);
        }
        // Shapes: synthetic symmetric families vs the directed substitute.
        assert!(suite[0].graph.is_symmetric());
        assert!(!suite[3].graph.is_symmetric());
    }

    #[test]
    fn timer_measures_something() {
        let mut calls = 0;
        let best = time_best(3, || {
            calls += 1;
            std::hint::black_box((0..100_000u64).sum::<u64>())
        });
        assert_eq!(calls, 3);
        assert!(best >= 0.0);
    }

    #[test]
    fn scale_accepts_exactly_three_spellings() {
        assert_eq!(Scale::parse(None), Ok(Scale::Default));
        assert_eq!(Scale::parse(Some("default")), Ok(Scale::Default));
        assert_eq!(Scale::parse(Some("tiny")), Ok(Scale::Tiny));
        assert_eq!(Scale::parse(Some("large")), Ok(Scale::Large));
        for bad in ["", "Tiny", "TINY", "small", " tiny", "large ", "bogus", "tiny\u{fffd}"] {
            let msg = Scale::parse(Some(bad)).unwrap_err();
            assert!(msg.contains("tiny, default, large"), "{bad:?}: {msg}");
        }
    }

    #[test]
    fn seconds_formatting() {
        assert_eq!(fmt_secs(2.0), "2.00s");
        assert_eq!(fmt_secs(0.5), "500.0ms");
        assert_eq!(fmt_secs(0.005), "5.00ms");
    }
}
