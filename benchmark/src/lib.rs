//! The repo's benchmark: one harness that measures the Ligra stack from
//! outside, layer by layer (kernels → engine → wire → router), on five
//! named workloads. See `benchmark/README.md`.
//!
//! The harness only calls public functions of the measured crates and
//! speaks the public wire protocol of the measured binaries; it sets no
//! pool thread count and no `LIGRA_*` variable, so a run measures the
//! system as users get it.

#![warn(missing_docs)]

pub mod analytics;
pub mod compare;
pub mod engine_probes;
pub mod json;
pub mod library;
pub mod process;
pub mod rng;
pub mod serving;
pub mod spec;
pub mod stats;
pub mod sysinfo;
pub mod trace;

use spec::{Scale, Workload, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Metric values by catalogue name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// One invocation of one workload.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Which workload.
    pub workload: Workload,
    /// Input seed: same seed, same graph, sources and request streams.
    pub seed: u64,
    /// Length of the measured phase in seconds.
    pub seconds: f64,
    /// `false`: end-to-end metrics; `true`: per-layer metrics and spans.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Directory holding `ligra-serve` and `ligra-route`.
    pub bin_dir: PathBuf,
    /// Directory for scratch files and trace output (inside the checkout).
    pub out_dir: PathBuf,
}

/// What one run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted in the measured phases.
    pub attempted: u64,
    /// Operations that failed, were refused or shed, or answered wrongly.
    pub failed: u64,
    /// Metric values; per-layer metrics absent here are reported as 0
    /// (the workload's traffic never entered that layer).
    pub metrics: Metrics,
    /// Sample counts behind the medians, by metric name.
    pub samples: Vec<(String, u64)>,
    /// Extra facts for the result file, as (key, raw JSON value).
    pub stamps: Vec<(String, String)>,
    /// The span log of a traced run.
    pub tracer: Option<trace::Tracer>,
}

impl Outcome {
    /// Stamps the size of the workload's graph.
    pub fn stamp_graph(&mut self, g: &ligra_graph::Graph) {
        self.stamps.push(("vertices".into(), g.num_vertices().to_string()));
        self.stamps.push(("arcs".into(), g.num_edges().to_string()));
        self.stamps.push(("csr_bytes".into(), library::csr_bytes(g).to_string()));
    }

    /// Whether every attempted operation succeeded with the right answer.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The catalogue entries this run reports, with their values.
    pub fn reported(&self, trace: bool) -> Result<Vec<(&'static str, &'static str, f64)>, String> {
        if trace {
            Ok(PER_LAYER
                .iter()
                .map(|p| (p.name, p.unit, self.metrics.get(p.name).copied().unwrap_or(0.0)))
                .collect())
        } else {
            END_TO_END
                .iter()
                .map(|e| {
                    let v = self.metrics.get(e.name).copied();
                    v.map(|v| (e.name, e.unit, v))
                        .ok_or_else(|| format!("end-to-end metric {} was not measured", e.name))
                })
                .collect()
        }
    }

    /// The driver's result line: one JSON object with exactly the keys
    /// `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_line(&self, trace: bool) -> Result<String, String> {
        let metrics: Vec<String> = self
            .reported(trace)?
            .into_iter()
            .map(|(name, unit, v)| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    json::quote(name),
                    json::number(v),
                    json::quote(unit)
                )
            })
            .collect();
        Ok(format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",")
        ))
    }
}

/// Runs one workload once.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    if cfg.workload.is_analytics() {
        analytics::run(cfg)
    } else {
        serving::run(cfg)
    }
}

/// The repo root: the parent of this package's directory, located from
/// the running executable's build-time manifest path.
pub fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("benchmark/ sits inside the repo")
}

/// The result file of one run: the driver's result plus the stamps that
/// make it reproducible.
pub fn result_document(cfg: &RunConfig, out: &Outcome) -> Result<String, String> {
    let root = repo_root();
    let threads = ligra_parallel::num_threads();
    let mut fields = vec![
        ("workload".to_string(), json::quote(cfg.workload.name())),
        ("seed".to_string(), cfg.seed.to_string()),
        ("seconds".to_string(), json::number(cfg.seconds)),
        ("trace".to_string(), cfg.trace.to_string()),
        ("smoke".to_string(), cfg.scale.smoke.to_string()),
        ("git_commit".to_string(), json::quote(&sysinfo::git_commit(root))),
        ("rustc".to_string(), json::quote(&sysinfo::rustc_version(root))),
        ("nproc".to_string(), sysinfo::nproc().to_string()),
        ("llc_bytes".to_string(), sysinfo::llc_bytes().to_string()),
        ("pool_threads".to_string(), threads.to_string()),
        (
            "pool_is_parallel".to_string(),
            ligra_parallel::utils::pool_is_parallel(threads).to_string(),
        ),
    ];
    fields.extend(out.stamps.iter().cloned());
    let samples: Vec<String> =
        out.samples.iter().map(|(k, n)| format!("{}:{n}", json::quote(k))).collect();
    fields.push(("samples".to_string(), format!("{{{}}}", samples.join(","))));
    fields.push(("result".to_string(), out.result_line(cfg.trace)?));
    let body: Vec<String> =
        fields.iter().map(|(k, v)| format!("  {}: {v}", json::quote(k))).collect();
    Ok(format!("{{\n{}\n}}\n", body.join(",\n")))
}
