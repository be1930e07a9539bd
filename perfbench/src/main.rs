//! `maple-perfbench`: the repeatable host-performance benchmark of the
//! MAPLE simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_kernels|mempool_1024|multi_tenant> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process, one simulation thread. It repeats closed-loop passes of
//! the workload until `--seconds` have elapsed (at least one pass),
//! checks every pass, and prints a report followed, as the last line of
//! standard output, by one JSON object: `correct`, `attempted`,
//! `failed` and `metrics`. With `--trace 0` the metrics are the
//! end-to-end ones, from untraced passes; with `--trace 1` they are the
//! per-layer ones, from traced passes alternated with untraced ones (the
//! difference in wall time is the tracing overhead). It exits 1 if any
//! check failed and 2 on a usage error. See `perfbench/README.md`.

mod calibrate;
mod layers;
mod spans;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use calibrate::to_reference;
use layers::{per_layer, PER_LAYER};
use stats::{median, quartiles, spread};
use workloads::{pass, setup_only, Pass, Workload};

/// End-to-end metric names and units, in output order.
const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("sim_mcycles_per_s", "Mcycles/s"),
    ("peak_rss_mb", "MB"),
    ("maple_speedup", "x"),
    ("lima_latency_reduction", "x"),
    ("serve_latency_mean_cycles", "cycles"),
    ("serve_fairness", "x"),
];

/// `setup_s` is the median of at least this many set-ups per run.
const MIN_SETUP_SAMPLES: usize = 5;

/// The paper's Figure 8 MAPLE-decoupling geomean, printed beside the
/// measured value for reference only: it comes from a different kernel
/// set, on hardware this model is not validated against.
const PAPER_FIG8_SPEEDUP: f64 = 1.51;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// The commit of a checkout that still has its `.git` directory, read
/// from the working directory only.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let id = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head.to_string(),
    };
    id.trim()
        .get(..12)
        .filter(|short| short.bytes().all(|b| b.is_ascii_hexdigit()))
        .unwrap_or("unknown")
        .to_string()
}

/// The process's resident-memory high-water mark (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Simulated Mcycles per host second inside the simulation calls.
fn mcycles_per_s(p: &Pass) -> f64 {
    let cycles: f64 = p.calls.iter().map(|c| c.cycles as f64).sum();
    let secs: f64 = p.calls.iter().map(|c| c.host_s).sum();
    cycles / secs / 1.0e6
}

fn summary(xs: &[f64]) -> String {
    let (q1, q3) = quartiles(xs);
    let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    format!(
        "median {:.4} of {} samples [min {lo:.4}, q1 {q1:.4}, q3 {q3:.4}, max {hi:.4}, \
         (q3-q1)/median {:.4}]",
        median(xs),
        xs.len(),
        spread(xs)
    )
}

/// Runs passes until the budget is spent: untraced ones, or in trace
/// mode untraced and traced ones alternately (at least one of each).
/// Returns each pass with whether it was traced.
fn run_passes(args: &Args) -> Vec<(bool, Pass)> {
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut passes: Vec<(bool, Pass)> = Vec::new();
    loop {
        let traced = args.trace && passes.len() % 2 == 1;
        let p = pass(args.workload, args.seed, traced);
        eprintln!(
            "[perfbench] {} pass {} ({}): {:.3} s",
            args.workload.name(),
            passes.len() + 1,
            if traced { "traced" } else { "untraced" },
            p.wall_s
        );
        passes.push((traced, p));
        // Stop when one more pass would end further past the budget than
        // stopping now ends short of it.
        let elapsed = start.elapsed();
        let mean_pass = elapsed / passes.len() as u32;
        if (!args.trace || passes.len() >= 2) && elapsed + mean_pass / 2 >= budget {
            return passes;
        }
    }
}

/// Units attempted and failed over every pass, and the number of passes
/// that did not reproduce the first pass's simulated results exactly. A
/// pass that does not reproduce counts all its units as failed.
fn check(passes: &[(bool, Pass)]) -> (u64, u64, u64) {
    let first = &passes[0].1;
    let (mut attempted, mut failed, mut mismatched) = (0, 0, 0);
    for (_, p) in passes {
        attempted += p.attempted;
        let same = p.sim == first.sim
            && p.calls.len() == first.calls.len()
            && p.calls
                .iter()
                .zip(&first.calls)
                .all(|(a, b)| a.digest == b.digest);
        if same {
            failed += p.failed;
        } else {
            mismatched += 1;
            failed += p.attempted;
        }
    }
    (attempted, failed, mismatched)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: maple-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let passes = run_passes(&args);
    let calibration: Vec<f64> = passes
        .iter()
        .flat_map(|(_, p)| p.spans.calibration())
        .copied()
        .collect();
    let cal_s = median(&calibration);
    let (attempted, failed, mismatched) = check(&passes);
    let first = &passes[0].1;
    let untraced: Vec<&Pass> = passes.iter().filter(|(t, _)| !t).map(|(_, p)| p).collect();
    let traced: Vec<&Pass> = passes.iter().filter(|(t, _)| *t).map(|(_, p)| p).collect();
    let walls: Vec<f64> = untraced.iter().map(|p| p.wall_s).collect();

    let host_cores = std::thread::available_parallelism().map_or(0, usize::from);
    let provenance = |samples: usize| {
        format!(
            "[workload={} seed={} host_cores={host_cores} commit={} samples={samples}]",
            w.name(),
            args.seed,
            commit()
        )
    };
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} host_cores={host_cores} commit={} \
         passes={} (untraced {}, traced {})",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        commit(),
        passes.len(),
        untraced.len(),
        traced.len()
    );
    for (i, (t, p)) in passes.iter().enumerate() {
        let calls: Vec<String> = p.calls.iter().map(|c| format!("{:.4}", c.host_s)).collect();
        println!(
            "pass {} {}: wall {:.4} s, setup {:.4} s, {:.4} Mcycles/s, {}/{} failed; call seconds {}",
            i + 1,
            if *t { "traced" } else { "untraced" },
            p.wall_s,
            p.setup_s,
            mcycles_per_s(p),
            p.failed,
            p.attempted,
            calls.join(" ")
        );
    }
    for c in &first.calls {
        println!(
            "  call {:<22} {:>9.4} s {:>12} cycles {:>5} tiles {} digest {:016x}",
            c.label,
            c.host_s,
            c.cycles,
            c.tiles,
            if c.ok { "ok  " } else { "FAIL" },
            c.digest
        );
    }

    // (name, unit, value, samples)
    let mut metrics: Vec<(&str, &str, f64, usize)> = Vec::new();
    if args.trace {
        let layer_runs: Vec<BTreeMap<String, f64>> = traced
            .iter()
            .map(|p| per_layer(&p.calls, &p.spans.self_times()))
            .collect();
        let traced_wall = median(&traced.iter().map(|p| p.wall_s).collect::<Vec<_>>());
        for &(name, unit) in PER_LAYER {
            let v = if name == "trace.overhead_frac" {
                traced_wall / median(&walls) - 1.0
            } else {
                median(&layer_runs.iter().map(|m| m[name]).collect::<Vec<_>>())
            };
            metrics.push((name, unit, to_reference(v, unit, cal_s), traced.len()));
        }
        println!(
            "tracing overhead: traced pass wall {traced_wall:.4} s vs untraced {:.4} s {}",
            median(&walls),
            provenance(passes.len())
        );
        // Host times of the serving layer exist only where a session
        // runs, so they are reported here and left out of the JSON.
        if w == Workload::MultiTenant {
            let of = |f: &dyn Fn(&Pass) -> f64| {
                let v = median(&traced.iter().map(|p| f(p)).collect::<Vec<_>>());
                to_reference(v, "s", cal_s)
            };
            let prov = provenance(traced.len());
            println!(
                "per_layer serve.new_s {} s {prov}",
                of(&|p| p.spans.self_times()["serve.new"])
            );
            println!(
                "per_layer serve.run_s {} s {prov}",
                of(&|p| p.calls[0].host_s)
            );
            println!(
                "per_layer serve.host_us_per_request {} us {prov}",
                of(&|p| p.calls[0].host_s * 1.0e6 / p.attempted as f64)
            );
        }
    } else {
        let mut setups: Vec<f64> = untraced.iter().map(|p| p.setup_s).collect();
        while setups.len() < MIN_SETUP_SAMPLES {
            setups.push(setup_only(w, args.seed));
        }
        let rates: Vec<f64> = untraced.iter().map(|p| mcycles_per_s(p)).collect();
        let sim = first.sim;
        let n = passes.len();
        let values = [
            (median(&walls), walls.len()),
            (median(&setups), setups.len()),
            (median(&rates), rates.len()),
            (peak_rss_mb(), 1),
            (sim.maple_speedup, n),
            (sim.lima_latency_reduction, n),
            (sim.latency_mean_cycles, n),
            (sim.fairness, n),
        ];
        for (&(name, unit), (v, samples)) in END_TO_END.iter().zip(values) {
            metrics.push((name, unit, to_reference(v, unit, cal_s), samples));
        }
        println!("raw wall_s: {}", summary(&walls));
        println!("raw setup_s: {}", summary(&setups));
        println!("raw sim_mcycles_per_s: {}", summary(&rates));
        println!("raw calibration_s: {}", summary(&calibration));
        if w == Workload::MultiTenant {
            println!(
                "serve latency_p50_bucket_upper {} cycles, latency_p99_bucket_upper {} cycles \
                 (power-of-two bucket bounds, not gated) {}",
                sim.p50_bucket_upper,
                sim.p99_bucket_upper,
                provenance(n)
            );
        } else {
            println!(
                "reference: paper Fig 8 MAPLE speedup {PAPER_FIG8_SPEEDUP}x beside maple_speedup \
                 {:.4}x (a different kernel set; this model is not validated against hardware)",
                sim.maple_speedup
            );
        }
    }
    println!(
        "host speed: calibration loop median {cal_s:.5} s over {} samples (reference {} s); \
         host-time metrics below are scaled by {:.4} to the reference speed",
        calibration.len(),
        calibrate::REFERENCE_SECONDS,
        calibrate::REFERENCE_SECONDS / cal_s
    );
    let kind = if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    };
    for (name, unit, v, samples) in &metrics {
        println!("{kind} {name} {v} {unit} {}", provenance(*samples));
    }
    let finite = metrics.iter().all(|m| m.2.is_finite());
    let correct = failed == 0 && finite;
    println!(
        "checks: fail_frac {} ({failed}/{attempted}), passes not reproducing pass 1: \
         {mismatched}, metrics finite: {finite} {}",
        failed as f64 / attempted.max(1) as f64,
        provenance(passes.len())
    );
    let json: Vec<String> = metrics
        .iter()
        .filter(|_| finite)
        .map(|(name, unit, v, _)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        json.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
