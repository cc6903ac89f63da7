//! The repository's benchmark: end-to-end and per-layer metrics of the
//! threefive solver and service on three seeded workloads.
//!
//! ```text
//! perfbench --workload <stencil-solve|lbm-solve|serve-small> --seed N
//!           --seconds S --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! metrics of a separate traced run. Progress, host context and span
//! self-times go to stderr; the last stdout line is the result object.
//! See `README.md` in this directory for the workloads and metrics.

mod host;
mod measure;
mod serve;
mod solve;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use crate::host::json_num;
use crate::solve::{Lbm, Stencil};
use crate::workloads::{run_serve, run_solve, Config, Outcome};

/// End-to-end metrics: (name, unit).
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("mups", "MUPS"),
    ("jobs_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
];

/// Per-layer metrics: (name, unit).
const PER_LAYER: &[(&str, &str)] = &[
    ("simd.sweep_s", "s"),
    ("simd.ops", "count"),
    ("simd.computed_bytes", "bytes"),
    ("engine35.sweep_s", "s"),
    ("engine35.sweep_1t_s", "s"),
    ("engine35.compute_s", "s"),
    ("engine35.kappa", "ratio"),
    ("engine35.computed_bytes", "bytes"),
    ("sync.barrier_wait_s", "s"),
    ("sync.barrier_share", "frac"),
    ("sync.barrier_episodes", "count"),
    ("sync.episode_ns", "ns"),
    ("sync.pool_lease_us", "us"),
    ("run.run_plan_s", "s"),
    ("run.overhead_s", "s"),
    ("run.snapshot_s", "s"),
    ("run.finite_scan_s", "s"),
    ("run.downgrades", "count"),
    ("serve_runner.seed_grid_ms", "ms"),
    ("serve_runner.checksum_ms", "ms"),
    ("serve_runner.run_ms", "ms"),
    ("serve.codec_us", "us"),
    ("serve.queue_push_pop_us", "us"),
    ("serve.ping_rtt_us", "us"),
    ("serve.exec_ms_p50", "ms"),
    ("serve.outside_exec_ms_p50", "ms"),
    ("serve.spec_repeat_frac", "frac"),
    ("residual_frac", "frac"),
    ("trace_overhead_frac", "frac"),
    ("peak_rss_mb", "MB"),
];

/// Workload names.
const WORKLOADS: &[&str] = &["stencil-solve", "lbm-solve", "serve-small"];

/// Grid edge and steps of `stencil-solve`: each SP array is 1.24 GiB, at
/// least 4× the host's 300 MiB L3, so the solve is DRAM-bound.
const STENCIL_N: usize = 688;
const STENCIL_STEPS: usize = 8;
/// Lattice edge and steps of `lbm-solve`.
const LBM_N: usize = 128;
const LBM_STEPS: usize = 8;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (expected one of {WORKLOADS:?})"
        ));
    }
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not '{other}'")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Builds the release `threefive` binary into this benchmark's own target
/// directory and returns its path.
fn build_daemon() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    // <target>/release/perfbench → <target>
    let target = exe
        .parent()
        .and_then(Path::parent)
        .ok_or("cannot locate the target directory")?;
    let repo = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .ok_or("cannot locate the repository root")?;
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--quiet",
            "--bin",
            "threefive",
            "--manifest-path",
        ])
        .arg(repo.join("Cargo.toml"))
        .arg("--target-dir")
        .arg(target)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cargo build: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build of the daemon failed: {status}"));
    }
    Ok(target.join("release").join("threefive"))
}

fn report(args: &Args, outcome: Outcome) -> Result<String, String> {
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let names: Vec<&str> = outcome.metrics.iter().map(|m| m.0).collect();
    let expected: Vec<&str> = table.iter().map(|m| m.0).collect();
    let aborted = outcome.metrics.is_empty();
    if !aborted && names != expected {
        return Err(format!(
            "metric set {names:?} differs from the table {expected:?}"
        ));
    }
    let t = &outcome.tally;
    let correct = t.failed == 0 && outcome.selftest.is_ok() && !aborted;

    eprintln!(
        "perfbench: {} seed {} trace {}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    for note in &outcome.notes {
        eprintln!("  {note}");
    }
    match &outcome.selftest {
        Ok(s) => eprintln!("  self-test: {s}"),
        Err(s) => eprintln!("  SELF-TEST FAILED: {s}"),
    }
    eprintln!(
        "  operations: {} attempted, {} failed, failed_frac {}",
        t.attempted,
        t.failed,
        t.failed as f64 / t.attempted.max(1) as f64
    );
    for why in &t.reasons {
        eprintln!("  failed: {why}");
    }
    if outcome.spans.enabled() {
        eprintln!("  span self-times (calls, total s, self s):");
        for (name, calls, total, own) in outcome.spans.self_times() {
            eprintln!("    {name:28} {calls:6} {total:12.6} {own:12.6}");
        }
        let dir = Path::new(".perfbench");
        let file = dir.join(format!("trace-{}-{}.json", args.workload, args.seed));
        match std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&file, outcome.spans.to_json()))
        {
            Ok(()) => eprintln!("  spans written to {}", file.display()),
            Err(e) => eprintln!("  could not write spans: {e}"),
        }
    }
    let mut fields = Vec::new();
    for &(name, unit) in table {
        // An aborted run (no daemon came up) measured nothing; its metrics
        // read 0 next to `correct: false`.
        let value = outcome
            .metrics
            .iter()
            .find(|m| m.0 == name)
            .map_or(0.0, |m| m.1);
        eprintln!("  {name:28} {value:>16.6} {unit}");
        let value = if value.is_finite() { value } else { 0.0 };
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_num(value)
        ));
    }
    println!("{}", outcome.context);
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        t.attempted.max(1),
        t.failed,
        fields.join(", ")
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let daemon = match build_daemon() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let cfg = Config {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        daemon,
    };
    let outcome = match args.workload.as_str() {
        "stencil-solve" => run_solve(&Stencil::seeded(STENCIL_N, STENCIL_STEPS, cfg.seed), &cfg),
        "lbm-solve" => run_solve(&Lbm::seeded(LBM_N, LBM_STEPS, cfg.seed), &cfg),
        _ => run_serve(&cfg),
    };
    match report(&args, outcome) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use threefive::bench::json::Json;

    /// `BENCHMARK.json` lists exactly the workloads and metrics this
    /// program prints, in the same order and with the same units.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect("a list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let owned = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(list("end_to_end"), owned(END_TO_END));
        assert_eq!(list("per_layer"), owned(PER_LAYER));
        let workloads: Vec<String> = list("workloads").into_iter().map(|w| w.0).collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
