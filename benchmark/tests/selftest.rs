//! Self-tests of the benchmark, at `--smoke` scale (rMat `log_n` 10/12,
//! grid side 16, 2 s phases): the declarations in `BENCHMARK.json` match
//! the harness's catalogue, the emitted JSON has the driver's schema, and
//! one seed reproduces the exact counts while another changes the inputs.

use ligra_benchmark::json::{self, Value};
use ligra_benchmark::library::build_graph;
use ligra_benchmark::repo_root;
use ligra_benchmark::serving::{source_pool, Op, Stream};
use ligra_benchmark::spec::{why, Scale, Workload, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::Command;
use std::sync::{Arc, Once};

/// Where the release `ligra-serve`/`ligra-route` are; builds them once
/// (offline, root workspace) when they are not there yet.
fn server_bin_dir() -> PathBuf {
    static BUILD: Once = Once::new();
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or(repo_root().join("target"), PathBuf::from);
    let target = if target.is_relative() { repo_root().join(target) } else { target };
    BUILD.call_once(|| {
        let status = Command::new("cargo")
            .args(["build", "--release", "--offline", "--quiet", "-p", "ligra-engine"])
            .args(["--bin", "ligra-serve", "--bin", "ligra-route"])
            .env("CARGO_TARGET_DIR", &target)
            .current_dir(repo_root())
            .status()
            .expect("cargo runs");
        assert!(status.success(), "building ligra-serve/ligra-route failed");
    });
    target.join("release")
}

/// Runs the harness once at smoke scale and returns its parsed result line.
fn smoke(workload: &str, seed: u64, trace: bool) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_ligra-bench"))
        .args(["--workload", workload, "--seed", &seed.to_string(), "--seconds", "2", "--smoke"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--bin-dir")
        .arg(server_bin_dir())
        .output()
        .expect("harness runs");
    assert!(out.status.success(), "{workload}: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    json::parse(stdout.lines().last().expect("a result line")).expect("the last line is JSON")
}

fn keys(v: &Value) -> Vec<&str> {
    v.as_obj().expect("an object").iter().map(|(k, _)| k.as_str()).collect()
}

fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn benchmark_json_declares_exactly_the_catalogue() {
    let text =
        std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json exists");
    assert!(text.len() <= 64 * 1024);
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    assert_eq!(
        keys(&doc),
        ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
    );
    let strings = |key: &str| -> Vec<&str> {
        doc.get(key)
            .and_then(Value::as_arr)
            .expect(key)
            .iter()
            .map(|v| v.as_str().expect("a string"))
            .collect()
    };
    assert_eq!(strings("command"), ["bash", "benchmark/run.sh"]);
    assert_eq!(strings("paths"), ["benchmark"]);
    let seconds = doc.get("run_seconds").and_then(Value::as_f64).expect("run_seconds");
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);

    let workloads = doc.get("workloads").and_then(Value::as_arr).expect("workloads");
    assert_eq!(workloads.len(), Workload::ALL.len());
    for (declared, w) in workloads.iter().zip(Workload::ALL) {
        assert_eq!(keys(declared), ["name", "why"]);
        assert_eq!(declared.get("name").and_then(Value::as_str), Some(w.name()));
        assert_eq!(declared.get("why").and_then(Value::as_str), Some(why(w)));
        assert!(why(w).len() <= 200 && !why(w).contains('\n'), "{}", w.name());
        assert!(is_name(w.name()));
    }

    let e2e = doc.get("end_to_end").and_then(Value::as_arr).expect("end_to_end");
    assert!(e2e.len() == END_TO_END.len() && e2e.len() <= 16);
    for (declared, m) in e2e.iter().zip(END_TO_END) {
        assert_eq!(keys(declared), ["name", "unit", "better", "bound"]);
        assert_eq!(declared.get("name").and_then(Value::as_str), Some(m.name));
        assert_eq!(declared.get("unit").and_then(Value::as_str), Some(m.unit));
        assert_eq!(declared.get("better").and_then(Value::as_str), Some(m.better.name()));
        assert_eq!(declared.get("bound").and_then(Value::as_f64), Some(m.bound));
        assert!(m.bound > 0.0 && m.bound <= 0.25);
        assert!(is_name(m.name) && is_unit(m.unit), "{}", m.name);
    }
    let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is declared");
    assert_eq!((setup.unit, setup.better.name()), ("s", "lower"));
    assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");

    let layers = doc.get("per_layer").and_then(Value::as_arr).expect("per_layer");
    assert!(layers.len() == PER_LAYER.len() && layers.len() <= 128);
    for (declared, m) in layers.iter().zip(PER_LAYER) {
        assert_eq!(keys(declared), ["name", "unit", "better"]);
        assert_eq!(declared.get("name").and_then(Value::as_str), Some(m.name));
        assert_eq!(declared.get("unit").and_then(Value::as_str), Some(m.unit));
        assert_eq!(declared.get("better").and_then(Value::as_str), Some(m.better.name()));
        assert!(is_name(m.name) && is_unit(m.unit), "{}", m.name);
        // Every per-layer metric names the (metric, workload) it should move.
        let (metric, workload) = m.moves;
        let yardstick = (metric, workload) == ("-", "-");
        assert!(
            yardstick || END_TO_END.iter().any(|e| e.name == metric),
            "{} moves {metric}?",
            m.name
        );
        assert!(yardstick || Workload::parse(workload).is_some(), "{} on {workload}?", m.name);
    }
    let mut names: Vec<&str> =
        END_TO_END.iter().map(|m| m.name).chain(PER_LAYER.iter().map(|m| m.name)).collect();
    names.sort_unstable();
    assert!(names.windows(2).all(|w| w[0] != w[1]), "a metric name is used twice");
}

fn assert_result_schema(result: &Value, trace: bool) {
    assert_eq!(keys(result), ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
    assert!(result.get("attempted").and_then(Value::as_f64).expect("attempted") >= 1.0);
    assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
    let metrics = result.get("metrics").expect("metrics");
    let expected: Vec<(&str, &str)> = if trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    assert_eq!(keys(metrics), expected.iter().map(|(n, _)| *n).collect::<Vec<_>>());
    for (name, unit) in expected {
        let m = metrics.get(name).expect(name);
        assert_eq!(keys(m), ["value", "unit"]);
        assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit));
        let value = m.get("value").and_then(Value::as_f64).expect("a numeric value");
        assert!(value.is_finite(), "{name}");
        assert!(trace || value > 0.0, "end-to-end metric {name} is {value}");
    }
}

#[test]
fn every_workload_emits_the_drivers_schema() {
    for w in Workload::ALL {
        assert_result_schema(&smoke(w.name(), 5, false), false);
    }
}

/// The per-layer values that must repeat exactly for one seed.
fn exact_counts(result: &Value) -> Vec<(&'static str, f64)> {
    let metrics = result.get("metrics").expect("metrics");
    PER_LAYER
        .iter()
        .filter(|m| m.exact)
        .map(|m| {
            (
                m.name,
                metrics
                    .get(m.name)
                    .and_then(|v| v.get("value"))
                    .and_then(Value::as_f64)
                    .expect(m.name),
            )
        })
        .collect()
}

#[test]
fn one_seed_reproduces_the_exact_counts() {
    for workload in ["analytics_grid", "serve_point", "serve_rw"] {
        let (a, b) = (smoke(workload, 7, true), smoke(workload, 7, true));
        assert_result_schema(&a, true);
        assert_eq!(exact_counts(&a), exact_counts(&b), "{workload}");
    }
    // A layer the traffic never enters reads 0; one it does enter does not.
    let value = |r: &Value, name: &str| {
        r.get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Value::as_f64)
            .expect("metric")
    };
    let (grid, routed) = (smoke("analytics_grid", 7, true), smoke("route_point", 7, true));
    assert_eq!(value(&grid, "wire.request_bytes"), 0.0);
    assert_eq!(value(&grid, "route.rtt_floor_us"), 0.0);
    assert!(value(&grid, "core.rounds.bfs") > 0.0);
    assert!(value(&routed, "route.rtt_floor_us") > 0.0);
    assert!(value(&routed, "wire.request_bytes") > 0.0);
}

#[test]
fn another_seed_is_another_request_stream() {
    let scale = Scale { smoke: true };
    let stream = |seed: u64, conn: u64| -> Vec<Op> {
        let g = Arc::new(build_graph(Workload::ServeRw, scale, seed));
        let pool = source_pool(&g);
        Stream::new(Workload::ServeRw, seed, conn, g, pool).take(200).collect()
    };
    assert_eq!(stream(3, 0), stream(3, 0), "one seed, one stream");
    assert_ne!(stream(3, 0), stream(4, 0), "the seed picks the stream");
    assert_ne!(stream(3, 0), stream(3, 1), "each connection has its own");
    let ops = stream(3, 0);
    let writes = ops.iter().filter(|op| matches!(op, Op::Write(_))).count();
    assert!((20..=60).contains(&writes), "about a fifth are writes, got {writes}/200");
    let point: Vec<Op> = {
        let g = Arc::new(build_graph(Workload::ServePoint, scale, 3));
        let pool = source_pool(&g);
        Stream::new(Workload::ServePoint, 3, 0, g, pool).take(200).collect()
    };
    assert!(point.iter().all(|op| matches!(op, Op::Read(..))), "the point mix never writes");
}
