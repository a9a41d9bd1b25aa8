//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <imcaf-ubg|daemon-mix|cluster-solve> --seed <n>
//!           --seconds <s> --trace <0|1> [--size full|tiny] [--corrupt]
//!           [--work-dir <dir>]
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics; with
//! `--trace 1` it records spans around its calls into each layer, reads the
//! program's `imc_obs` counters, and reports the per-layer metrics. Every
//! answer is checked; a failed check fails the run (exit 1). The last line
//! of standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics`. `--corrupt` flips one seed of the first checked answer,
//! which the checks must catch. `--size tiny` shrinks every workload for
//! the smoke test.

mod cluster_solve;
mod daemon_mix;
mod imcaf_ubg;
mod load;
mod util;

use std::path::PathBuf;
use std::process::ExitCode;

use util::{cpu_times, peak_rss_mb, steal_share, Report, Tracer};

/// End-to-end metrics, printed by every workload with `--trace 0`.
const END_TO_END: &[&str] = &[
    "setup_s",
    "peak_rss_mb",
    "op_p50_ms",
    "op2_ms",
    "capacity_per_s",
    "quality",
];

/// Per-layer metrics, printed by every workload with `--trace 1`; a layer
/// a workload does not call reports `0` with the metric's unit.
const PER_LAYER: &[(&str, &str)] = &[
    ("instance.build_s", "s"),
    ("instance.louvain_s", "s"),
    ("instance.nodes", "count"),
    ("instance.edges", "count"),
    ("instance.communities", "count"),
    ("ric.gen_s", "s"),
    ("ric.samples_per_s", "1/s"),
    ("ric.samples", "count"),
    ("ric.arena_bytes", "bytes"),
    ("ric.index_entries", "count"),
    ("maxr.solve_s", "s"),
    ("maxr.evaluations", "count"),
    ("maxr.evals_per_s", "1/s"),
    ("maxr.wasted_evaluations", "count"),
    ("maxr.stale_rechecks", "count"),
    ("maxr.useful_ratio", "ratio"),
    ("estimate.calls", "count"),
    ("estimate.samples_drawn", "count"),
    ("estimate.s", "s"),
    ("imcaf.rounds", "count"),
    ("imcaf.unattributed_share", "ratio"),
    ("snapshot.bytes", "bytes"),
    ("snapshot.load_s", "s"),
    ("snapshot.view_open_s", "s"),
    ("service.estimate_p99_ms", "ms"),
    ("service.estimate_server_ms", "ms"),
    ("service.estimate_transport_ms", "ms"),
    ("service.solve_server_s", "s"),
    ("service.deadline_misses", "count"),
    ("service.refused", "count"),
    ("load.late_p99_ms", "ms"),
    ("cluster.scatter_rounds", "count"),
    ("cluster.batch_mean", "count"),
    ("cluster.rpc_p50_us", "us"),
    ("cluster.rpc_p99_us", "us"),
    ("cluster.compute_s", "s"),
    ("cluster.scatter_wait_s", "s"),
    ("cluster.reduce_s", "s"),
    ("cluster.retries", "count"),
    ("cluster.local_greedy_s", "s"),
    ("cluster.overhead_ratio", "ratio"),
    ("cluster.ubg_overhead_ratio", "ratio"),
    ("obs.trace_overhead", "ratio"),
    ("obs.spans", "count"),
    ("obs.trace_bytes", "bytes"),
];

/// Parsed command line.
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub tiny: bool,
    pub corrupt: bool,
    pub work_dir: PathBuf,
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
        corrupt: false,
        work_dir: PathBuf::from(".bench_build/perfbench-work"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--corrupt" {
            opts.corrupt = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?
            }
            "--trace" => opts.trace = value == "1",
            "--size" => opts.tiny = value == "tiny",
            "--work-dir" => opts.work_dir = PathBuf::from(&value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&opts.work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", opts.work_dir.display());
        return ExitCode::from(2);
    }
    let mut report = Report::default();
    let mut tracer = Tracer::new(opts.trace);
    let cpu_before = cpu_times();
    match opts.workload.as_str() {
        "imcaf-ubg" => imcaf_ubg::run(&opts, &mut report, &mut tracer),
        "daemon-mix" => daemon_mix::run(&opts, &mut report, &mut tracer),
        "cluster-solve" => cluster_solve::run(&opts, &mut report, &mut tracer),
        other => {
            eprintln!("perfbench: unknown workload `{other}`");
            return ExitCode::from(2);
        }
    }
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    // Time the hypervisor took from this machine slows every layer at
    // once; shown so a slow run can be told from a slow program.
    if let (Some(before), Some(after)) = (cpu_before, cpu_times()) {
        eprintln!(
            "perfbench: CPU steal during the run: {:.4} of all CPU time",
            steal_share(&before, &after)
        );
    }
    if opts.trace {
        let path = opts.work_dir.join(format!("trace-{}.jsonl", opts.workload));
        let bytes = tracer.write(&path).unwrap_or(0);
        report.metric(
            "obs.spans",
            (tracer.span_count() as u64 + report.sink_events) as f64,
            "count",
        );
        report.metric(
            "obs.trace_bytes",
            (bytes + report.sink_bytes) as f64,
            "bytes",
        );
        eprintln!("perfbench: spans written to {}", path.display());
    }
    for failure in report.failures() {
        eprintln!("perfbench: CHECK FAILED: {failure}");
    }
    print_result(&opts, &report)
}

/// Prints the metric table and the final JSON line; the exit code is 1
/// when any check failed.
fn print_result(opts: &Opts, report: &Report) -> ExitCode {
    let lookup = |name: &str| {
        report
            .metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, u)| (*v, u.clone()))
    };
    let selected: Vec<(String, f64, String)> = if opts.trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let (value, unit) = lookup(name).unwrap_or((0.0, unit.to_string()));
                (name.to_string(), value, unit)
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&name| {
                let (value, unit) = lookup(name).unwrap_or((0.0, "missing".to_string()));
                (name.to_string(), value, unit)
            })
            .collect()
    };
    for (name, value, unit) in &selected {
        println!(
            "{:<32} {value:>16.6} {unit}",
            format!("{}.{name}", opts.workload)
        );
    }
    let complete = opts.trace || selected.iter().all(|(_, _, unit)| unit != "missing");
    // A metric that could not be measured (infinite or NaN) fails the run;
    // JSON has no number for it, so it is written as null.
    let finite = selected.iter().all(|(_, value, _)| value.is_finite());
    for (name, value, _) in selected.iter().filter(|(_, v, _)| !v.is_finite()) {
        eprintln!("perfbench: CHECK FAILED: {name} is {value}");
    }
    let correct = report.failed == 0 && report.attempted > 0 && complete && finite;
    let metrics: Vec<String> = selected
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() {
                format!("{value:?}")
            } else {
                "null".to_string()
            };
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
