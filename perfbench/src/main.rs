//! The A-ABFT workspace benchmark: one binary, two workloads, every
//! metric printed by name with its unit.
//!
//! ```text
//! aabft-perfbench --workload <multiply_512|serve_skewed>
//!                 --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//! ```
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics,
//! measured with no span recording; with `--trace 1` it carries the
//! per-layer metrics, computed from the benchmark's own spans around each
//! public call (written to `--trace-out` as JSON lines). Every operation's
//! output is checked; a miss counts as a failed operation.

mod campaign;
mod multiply;
mod report;
mod serve;
mod stats;
mod trace;

use report::Measured;
use std::path::PathBuf;
use trace::Tracer;

/// End-to-end metrics, printed by every workload with `--trace 0`.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("throughput_ops_s", "1/s"),
    ("tax_ms_p50", "ms"),
    ("plain_ms_p50", "ms"),
];

/// Per-layer metrics, printed by every workload with `--trace 1`. A layer
/// the workload does not run reads 0.
const PER_LAYER: [(&str, &str); 40] = [
    // multiply_512: staged phases of the protected multiply.
    ("upload_ms_p50", "ms"),
    ("encode_gemm_ms_p50", "ms"),
    ("reduce_ms_p50", "ms"),
    ("check_ms_p50", "ms"),
    ("finish_ms_p50", "ms"),
    ("overhead_x_p50", "ratio"),
    ("phase_sum_share", "ratio"),
    ("host_bytes_copied_per_op", "bytes"),
    // Device and Obs counts per operation (all workloads).
    ("launches_per_op", "count"),
    ("dispatches_per_op", "count"),
    ("clean_launches_per_op", "count"),
    ("clean_launch_share", "ratio"),
    ("sim_flops_per_op", "count"),
    ("sim_gmem_bytes_per_op", "bytes"),
    // serve_skewed: admission, queue, waves, placement, calibration.
    ("submit_us_p50", "us"),
    ("queue_len_mean", "count"),
    ("wave_size_mean", "count"),
    ("replica0_busy_share", "ratio"),
    ("replica1_busy_share", "ratio"),
    ("replica0_wave_ms_mean", "ms"),
    ("replica1_wave_ms_mean", "ms"),
    ("replica0_wave_share", "ratio"),
    ("steal_share", "ratio"),
    ("cal_updates", "count"),
    ("cal_cold_hits", "count"),
    // Self-healing campaign (multiply_512 traced run): trials, probes, heal ladder.
    ("trial_ms_mean", "ms"),
    ("clean_multiply_ms_p50", "ms"),
    ("instrumented_multiply_ms_p50", "ms"),
    ("corrected", "count"),
    ("recomputed", "count"),
    ("reran", "count"),
    ("unrecovered", "count"),
    ("mis_corrected", "count"),
    ("recovery_attempts", "count"),
    ("launches_per_trial", "count"),
    // Tracing overhead: traced minus untraced operations, per end-to-end metric.
    ("trace_overhead_latency_p50_pct", "%"),
    ("trace_overhead_latency_p90_pct", "%"),
    ("trace_overhead_throughput_pct", "%"),
    ("trace_overhead_tax_pct", "%"),
    ("trace_overhead_plain_pct", "%"),
];

#[derive(Debug, Clone, Copy)]
enum Workload {
    Multiply512,
    ServeSkewed,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "multiply_512" => Some(Workload::Multiply512),
            "serve_skewed" => Some(Workload::ServeSkewed),
            _ => None,
        }
    }

    /// The rayon worker count: compute threads capped at `nproc`. The
    /// serving fleet runs one dispatcher per replica, each with
    /// ⌊nproc/replicas⌋ workers.
    fn workers(self, nproc: usize) -> usize {
        match self {
            Workload::ServeSkewed => serve::workers(nproc),
            Workload::Multiply512 => nproc,
        }
    }
}

struct Args {
    workload: Workload,
    workload_name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
}

const USAGE: &str = "usage: aabft-perfbench --workload <multiply_512|serve_skewed> \
--seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]";

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut trace_out) =
        (None, None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload_name = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload: Workload::parse(&workload_name)
            .ok_or_else(|| format!("unknown workload {workload_name}"))?,
        workload_name,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        trace_out,
    })
}

/// Steal and total jiffies over all CPUs from `/proc/stat` (Linux only).
fn host_steal() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().sum()))
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    });
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = args.workload.workers(nproc);
    rayon::ThreadPoolBuilder::new()
        .num_threads(workers)
        .build_global()
        .expect("sizing the global pool cannot fail");

    let tracer = args.trace.then(Tracer::new);
    let steal_before = host_steal();
    let measured: Measured = match args.workload {
        Workload::Multiply512 => multiply::run(args.seed, args.seconds, tracer.as_ref()),
        Workload::ServeSkewed => serve::run(args.seed, args.seconds, tracer.as_ref()),
    };

    let mut info = vec![
        ("workload", json_str(&args.workload_name)),
        ("seed", args.seed.to_string()),
        ("nproc", nproc.to_string()),
        ("rayon_workers", workers.to_string()),
    ];
    // CPU time the hypervisor gave to other guests during the run, as a
    // share of all CPU time: the usual reason a run reads slow.
    if let (Some((s0, t0)), Some((s1, t1))) = (steal_before, host_steal()) {
        info.push((
            "host_steal_share",
            format!(
                "{:.4}",
                stats::share(s1.saturating_sub(s0) as f64, t1.saturating_sub(t0) as f64)
            ),
        ));
    }
    if let Workload::ServeSkewed = args.workload {
        info.push(("replicas", serve::FLEET.len().to_string()));
        info.push(("workers_per_dispatcher", workers.to_string()));
    }
    info.extend(measured.info.iter().map(|(k, v)| (*k, v.clone())));
    info.extend(measured.checks.iter().map(|(k, ok)| (*k, ok.to_string())));
    let info_json = format!(
        "{{\"info\":{{{}}}}}",
        info.iter()
            .map(|(k, v)| format!("{}:{v}", json_str(k)))
            .collect::<Vec<_>>()
            .join(",")
    );
    println!("{info_json}");

    if let (Some(tr), Some(path)) = (&tracer, &args.trace_out) {
        if let Err(e) = tr.write_jsonl(path, &info_json) {
            eprintln!("writing spans to {}: {e}", path.display());
            std::process::exit(1);
        }
    }

    let value = |name: &str| {
        measured
            .values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    };
    let (list, required): (&[(&str, &str)], bool) = if args.trace {
        (&PER_LAYER, false)
    } else {
        (&END_TO_END, true)
    };
    let mut all_finite = true;
    let metrics: Vec<String> = list
        .iter()
        .map(|&(name, unit)| {
            let v = match value(name) {
                Some(v) => v,
                None if required => panic!("workload did not measure end-to-end metric {name}"),
                None => 0.0,
            };
            all_finite &= v.is_finite();
            let v = if v.is_finite() { v } else { 0.0 };
            format!(
                "{}:{{\"value\":{v},\"unit\":{}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    let correct = measured.failed == 0 && all_finite && measured.checks.iter().all(|&(_, ok)| ok);
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        measured.attempted,
        measured.failed,
        metrics.join(",")
    );
}

#[cfg(test)]
mod tests {
    use super::{END_TO_END, PER_LAYER};

    /// The metric lists printed here are the ones `BENCHMARK.json` declares,
    /// in the same order and with the same units.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = aabft_obs::json::parse(text).expect("BENCHMARK.json parses");
        for (key, list) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let declared: Vec<(&str, &str)> = doc
                .get(key)
                .and_then(|v| v.as_array())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f| m.get(f).and_then(|v| v.as_str()).expect("name and unit");
                    (field("name"), field("unit"))
                })
                .collect();
            assert_eq!(declared, list, "{key}");
        }
    }
}
