//! Runs one benchmark workload and prints its metrics; the last line
//! of standard output is the result object. Normally started through
//! `python3 perfbench/run.py`, which builds this binary first.
//!
//! ```text
//! iriscast-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                    [--out <dir>] [--rustc <version>] [--rev <rev>]
//! ```

use iriscast_perfbench::trace::Tracer;
use iriscast_perfbench::workloads::{backfill, cosim_week, live_wire, snapshot_day};
use iriscast_perfbench::{
    fast, setup_at_reference, stats, to_reference, Budget, Outcome, RunConfig, MAX_UNACCOUNTED,
    PER_LAYER,
};
use serde::Serialize;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: String,
    cfg: RunConfig,
    out: PathBuf,
    rustc: String,
    rev: String,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut out = PathBuf::from("perfbench/out");
    let (mut rustc, mut rev) = ("unknown".to_string(), "unknown".to_string());
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--out" => out = PathBuf::from(value),
            "--rustc" => rustc = value,
            "--rev" => rev = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        cfg: RunConfig {
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.ok_or("--trace is required")?,
        },
        out,
        rustc,
        rev,
    })
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn to_json<T: Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("benchmark records serialize")
}

/// One metric of the result line.
#[derive(Serialize)]
struct Metric {
    value: f64,
    unit: String,
}

fn metric_map<'a>(
    metrics: impl IntoIterator<Item = (&'a str, f64, &'a str)>,
) -> BTreeMap<String, Metric> {
    metrics
        .into_iter()
        .map(|(name, value, unit)| {
            let unit = unit.to_string();
            (name.to_string(), Metric { value, unit })
        })
        .collect()
}

/// The result line: the last line of standard output.
#[derive(Serialize)]
struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, Metric>,
}

/// Where the run ran.
#[derive(Serialize)]
struct Host {
    nproc: usize,
    cpu: String,
    rustc: String,
    rev: String,
}

/// The report written beside the traces.
#[derive(Serialize)]
struct Report {
    workload: String,
    seed: u64,
    seconds: f64,
    host: Host,
    budget: Budget,
    /// The run's fast-state host probe time, ms, and the factor the
    /// result's times were scaled by.
    host_probe_ms: f64,
    to_reference: f64,
    named: BTreeMap<String, Metric>,
    result: RunResult,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cfg = args.cfg;
    let runner: fn(&RunConfig, &mut Tracer) -> Outcome = match args.workload.as_str() {
        "snapshot_day" => snapshot_day::run,
        "live_wire" => live_wire::run,
        "backfill" => backfill::run,
        "cosim_week" => cosim_week::run,
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    let host = Host {
        nproc: std::thread::available_parallelism().map_or(1, usize::from),
        cpu: cpu_model(),
        rustc: args.rustc,
        rev: args.rev,
    };
    println!("host {}", to_json(&host));

    let mut tracer = Tracer::new();
    let mut out = runner(&cfg, &mut tracer);
    let budget = out.budget;
    println!("budget {} {}", args.workload, to_json(&budget));
    if !budget.within(host.nproc) {
        eprintln!(
            "perfbench: {} used {} load threads and {} connections, host has nproc = {}",
            args.workload, budget.load_threads, budget.connections, host.nproc
        );
        return ExitCode::from(3);
    }
    let speed = to_reference(&out.probe_ns);
    println!(
        "{} host_probe_ms = {} ms (times below are as measured; the result line's are x {speed})",
        args.workload,
        fast(&out.probe_ns) / 1e6
    );
    println!(
        "{} setup_s = {} s (median, as measured)",
        args.workload,
        stats::median(&out.setup_s)
    );
    for (name, value, unit) in &out.named {
        println!("{} {name} = {value} {unit}", args.workload);
    }

    let metrics = if cfg.trace {
        let unaccounted = tracer.unaccounted_share();
        out.check(unaccounted <= MAX_UNACCOUNTED);
        let overhead =
            stats::median(&out.traced_main_ns) / stats::median(&out.untraced_main_ns) - 1.0;
        metric_map(PER_LAYER.iter().map(|&(name, unit, _)| {
            let value = match name {
                "trace.unaccounted_share" => unaccounted,
                "trace.overhead_share" => overhead,
                _ => out
                    .layers
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |(_, v)| *v),
            };
            (name, value, unit)
        }))
    } else {
        let ok_share = (out.attempted - out.failed) as f64 / out.attempted.max(1) as f64;
        metric_map([
            ("setup_s", setup_at_reference(&out), "s"),
            ("peak_rss_mib", stats::peak_rss_mib(), "MiB"),
            ("ok_share", ok_share, "ratio"),
            ("primary_ms", out.primary_ms * speed, "ms"),
            ("secondary_ms", out.secondary_ms * speed, "ms"),
        ])
    };

    // A metric that is not a finite number is a failed measurement;
    // JSON carries it as `null`.
    let finite = metrics.values().all(|m| m.value.is_finite());
    let result = RunResult {
        correct: out.attempted > 0 && out.failed == 0 && finite,
        attempted: out.attempted.max(1),
        failed: out.failed,
        metrics,
    };
    let result_line = to_json(&result);
    let tag = format!("{}-trace{}", args.workload, u8::from(cfg.trace));
    let report = Report {
        workload: args.workload.clone(),
        seed: cfg.seed,
        seconds: cfg.seconds,
        host,
        budget,
        host_probe_ms: fast(&out.probe_ns) / 1e6,
        to_reference: speed,
        named: metric_map(out.named.iter().copied()),
        result,
    };
    let written = std::fs::create_dir_all(&args.out)
        .and_then(|()| {
            std::fs::write(
                args.out.join(format!("report-{tag}.json")),
                to_json(&report) + "\n",
            )
        })
        .and_then(|()| {
            if cfg.trace {
                std::fs::write(
                    args.out.join(format!("trace-{}.csv", args.workload)),
                    tracer.to_csv(),
                )
            } else {
                Ok(())
            }
        });
    if let Err(e) = written {
        eprintln!("perfbench: writing {}: {e}", args.out.display());
        return ExitCode::from(4);
    }
    println!("{result_line}");
    ExitCode::SUCCESS
}
