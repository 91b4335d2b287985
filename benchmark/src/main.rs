//! `ligra-bench`: the benchmark's command line. `benchmark/run.sh` builds
//! everything and execs this with its own arguments.
//!
//! ```text
//! ligra-bench --workload NAME --seed N --seconds S --trace 0|1   one run; last stdout line is the result
//! ligra-bench [suite] [--seed N] [--runs K] [--out DIR]           every workload, untraced then traced
//! ligra-bench compare A/ B/                                       judge two result sets by BENCHMARK.json's bounds
//! ligra-bench aa [--runs K]                                       suite twice on this tree, then compare
//! ligra-bench spec                                                print BENCHMARK.json from the catalogue
//! ```
//! Everywhere: `--smoke` (self-test sizes), `--seconds S`, `--bin-dir DIR`.
//! `--result-file PATH` (what the suite passes to each run) writes the
//! stamped result document instead of the bare result line.

use ligra_benchmark::spec::{Scale, Workload, RUN_SECONDS};
use ligra_benchmark::{compare, repo_root, result_document, run, Outcome, RunConfig};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Args {
    command: String,
    positional: Vec<String>,
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    runs: usize,
    bin_dir: PathBuf,
    out_dir: PathBuf,
    result_file: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut args = Args {
        command: String::new(),
        positional: Vec::new(),
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        runs: 0,
        bin_dir: exe.parent().map(Path::to_path_buf).unwrap_or_default(),
        out_dir: repo_root().join("benchmark").join("out"),
        result_file: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        fn parsed<T: std::str::FromStr>(name: &str, raw: String) -> Result<T, String> {
            raw.parse().map_err(|_| format!("{name}: cannot parse {raw:?}"))
        }
        match a.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                args.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => args.seed = parsed("--seed", value("--seed")?)?,
            "--seconds" => args.seconds = Some(parsed("--seconds", value("--seconds")?)?),
            "--trace" => args.trace = parsed::<u8>("--trace", value("--trace")?)? != 0,
            "--runs" => args.runs = parsed("--runs", value("--runs")?)?,
            "--smoke" => args.smoke = true,
            "--bin-dir" => args.bin_dir = value("--bin-dir")?.into(),
            "--out" => args.out_dir = value("--out")?.into(),
            "--result-file" => args.result_file = Some(value("--result-file")?.into()),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            word if args.command.is_empty() => args.command = word.to_string(),
            word => args.positional.push(word.to_string()),
        }
    }
    if args.seconds.is_some_and(|s| s.is_nan() || s <= 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

fn config(args: &Args, workload: Workload, seed: u64, trace: bool, out_dir: &Path) -> RunConfig {
    let scale = Scale { smoke: args.smoke };
    RunConfig {
        workload,
        seed,
        seconds: args.seconds.unwrap_or(if args.smoke { 2.0 } else { RUN_SECONDS as f64 }),
        trace,
        scale,
        bin_dir: args.bin_dir.clone(),
        out_dir: out_dir.to_path_buf(),
    }
}

/// Runs once, prints every reported metric by name with its unit, and
/// leaves the span log of a traced run in the output directory.
fn run_and_print(cfg: &RunConfig) -> Result<Outcome, String> {
    std::fs::create_dir_all(&cfg.out_dir)
        .map_err(|e| format!("create {}: {e}", cfg.out_dir.display()))?;
    let out = run(cfg)?;
    println!(
        "# {} seed={} trace={} attempted={} failed={}",
        cfg.workload.name(),
        cfg.seed,
        u8::from(cfg.trace),
        out.attempted,
        out.failed
    );
    for (name, unit, value) in out.reported(cfg.trace)? {
        println!("{name:<34} {value:>16.6} {unit}");
    }
    if let Some(tracer) = &out.tracer {
        let path = cfg.out_dir.join(format!("trace-{}.jsonl", cfg.workload.name()));
        tracer.write_jsonl(&path).map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    Ok(out)
}

/// Every workload: `runs` untraced runs on consecutive seeds, then one
/// traced run; one result file per run. Each run is a fresh process of
/// this executable in single-run mode, so it is exactly what the driver
/// measures and one run's peak memory cannot leak into the next.
fn suite(args: &Args, out_dir: &Path) -> Result<bool, String> {
    std::fs::create_dir_all(out_dir).map_err(|e| format!("create {}: {e}", out_dir.display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut correct = true;
    for workload in Workload::ALL {
        let seeds = (0..args.runs.max(1) as u64).map(|i| (args.seed + i, false));
        for (seed, trace) in seeds.chain([(args.seed, true)]) {
            let cfg = config(args, workload, seed, trace, out_dir);
            let file = format!("result-{}-s{seed}-t{}.json", workload.name(), u8::from(trace));
            let mut run = std::process::Command::new(&exe);
            run.args(["--workload", workload.name(), "--seed", &seed.to_string()])
                .args([
                    "--seconds",
                    &cfg.seconds.to_string(),
                    "--trace",
                    if trace { "1" } else { "0" },
                ])
                .arg("--bin-dir")
                .arg(&cfg.bin_dir)
                .arg("--out")
                .arg(out_dir)
                .arg("--result-file")
                .arg(out_dir.join(file));
            if args.smoke {
                run.arg("--smoke");
            }
            let status = run.status().map_err(|e| format!("spawn {}: {e}", exe.display()))?;
            // Exit 1 is a finished run with a wrong or failed operation.
            match status.code() {
                Some(0) => {}
                Some(1) => correct = false,
                _ => return Err(format!("{} seed {seed} ended with {status}", workload.name())),
            }
        }
    }
    Ok(correct)
}

fn real_main() -> Result<bool, String> {
    let mut args = parse_args()?;
    let benchmark_json = repo_root().join("BENCHMARK.json");
    match (args.command.as_str(), args.workload) {
        ("", Some(workload)) => {
            let out_dir = args.out_dir.clone();
            let cfg = config(&args, workload, args.seed, args.trace, &out_dir);
            let out = run_and_print(&cfg)?;
            if let Some(path) = &args.result_file {
                std::fs::write(path, result_document(&cfg, &out)?)
                    .map_err(|e| format!("write {}: {e}", path.display()))?;
                return Ok(out.correct());
            }
            // The driver reads the last line of stdout, and wants exit
            // code 0 with `correct` telling the outcome.
            println!("{}", out.result_line(cfg.trace)?);
            Ok(true)
        }
        ("" | "suite", None) => suite(&args, &args.out_dir),
        ("spec", None) => {
            print!("{}", ligra_benchmark::spec::benchmark_json());
            Ok(true)
        }
        ("compare", None) => match args.positional.as_slice() {
            [a, b] => compare::compare(Path::new(a), Path::new(b), &benchmark_json),
            _ => Err("usage: compare A/ B/".to_string()),
        },
        ("aa", None) => {
            // Spread needs several runs a side; three keeps A/A near 15 minutes.
            if args.runs == 0 {
                args.runs = 3;
            }
            let (a, b) = (args.out_dir.join("aa-a"), args.out_dir.join("aa-b"));
            let correct = suite(&args, &a)? & suite(&args, &b)?;
            Ok(compare::compare(&a, &b, &benchmark_json)? && correct)
        }
        (other, _) => Err(format!("unknown command {other:?} (suite | compare A B | aa | spec)")),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("ligra-bench: {e}");
            ExitCode::from(2)
        }
    }
}
