//! CI gate for the event-horizon scheduler: one stall-heavy SPMV config
//! runs under both steppers; any divergence in the final cycle count,
//! the run statistics, or the metrics-snapshot JSON fails the build.
//! Doubles as the perf smoke: prints simulated Mcycles per host second
//! for the dense and skipping loops and the resulting speedup.
//!
//! With `--partitions N` it instead runs the partitioned determinism
//! gate: the same stall-heavy shape under MAPLE decoupling, once
//! single-threaded and once sharded into `N` spatial partitions (worker
//! count from `MAPLE_JOBS`/host parallelism), printing only
//! host-independent lines so `ci.sh` can byte-diff the output across
//! worker counts.
//!
//! With `--scale N` it runs the hierarchical-fabric determinism gate:
//! an `N`-tile clustered SoC (4×4 crossbar clusters, one L2 bank and
//! one MAPLE engine per cluster) under the skipping stepper vs a
//! 4-partition run, printing only host-independent lines for the
//! cross-worker byte-diff — the scale smoke of `ci.sh`.
//!
//! With `--speedup-floor X` it runs the partitioned *throughput*
//! expectation: the 4-partition sweep must reach `X`× the
//! single-threaded skipping baseline. This gate is honest about the
//! host: on a 1-core container the parallel stepper cannot win, so the
//! expectation is **skipped** (exit 0, with an explicit skip line) —
//! only the bit-exactness gates above apply there.
//!
//! Any other argument, a missing or non-positive value, or more than one
//! flag prints the usage line and exits 2.

use maple_bench::report::FigureReport;
use maple_bench::scaling::scale_gate;
use maple_bench::stepper::{partitioned_gate, partitioned_sweep, stall_heavy_comparison};

const USAGE: &str = "usage: stepper_check [--partitions N | --scale TILES | --speedup-floor X]";

/// The gate selected on the command line.
enum Mode {
    Default,
    Partitions(usize),
    Scale(usize),
    SpeedupFloor(f64),
}

/// Parses the arguments after the program name; `None` on anything the
/// usage line does not allow.
fn parse_mode(args: &[String]) -> Option<Mode> {
    match args {
        [] => Some(Mode::Default),
        [flag, value] => match flag.as_str() {
            "--partitions" => value.parse().ok().filter(|&n| n > 0).map(Mode::Partitions),
            "--scale" => value.parse().ok().filter(|&n| n > 0).map(Mode::Scale),
            "--speedup-floor" => value
                .parse()
                .ok()
                .filter(|&f: &f64| f > 0.0)
                .map(Mode::SpeedupFloor),
            _ => None,
        },
        _ => None,
    }
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The `--speedup-floor` gate; returns the process exit code.
fn speedup_floor_gate(floor: f64) -> i32 {
    let cores = host_cores();
    if cores <= 1 {
        println!(
            "stepper speedup gate SKIPPED: host_cores=1 pins the partitioned \
             stepper at ~1.0x (bit-exactness gates still enforced)"
        );
        return 0;
    }
    let sweep = partitioned_sweep(0x57E9, &[4], None);
    if let Some(msg) = sweep.divergence() {
        eprintln!("[stepper_check] PARTITIONED STEPPER DIVERGENCE\n{msg}");
        return 1;
    }
    let speedup = sweep.speedup_at(4).expect("4-partition run present");
    println!(
        "stepper speedup gate: host_cores={cores}, 4 partitions at {speedup:.2}x \
         over skipping baseline (floor {floor:.2}x)"
    );
    if speedup < floor {
        eprintln!(
            "[stepper_check] partitioned speedup {speedup:.2}x below the \
             {floor:.2}x floor on a {cores}-core host"
        );
        return 1;
    }
    0
}

/// Prints a host-independent gate report, or the divergence and exits 1.
fn emit_gate(result: Result<String, String>, failure: &str) {
    match result {
        Ok(report) => println!("{report}"),
        Err(msg) => {
            eprintln!("[stepper_check] {failure}\n{msg}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(mode) = parse_mode(&args) else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    match mode {
        Mode::Default => {}
        Mode::SpeedupFloor(floor) => std::process::exit(speedup_floor_gate(floor)),
        Mode::Scale(tiles) => {
            return emit_gate(scale_gate(0x5CA1E, tiles), "HIERARCHICAL FABRIC DIVERGENCE");
        }
        Mode::Partitions(n) => {
            return emit_gate(partitioned_gate(0x57E9, n), "PARTITIONED STEPPER DIVERGENCE");
        }
    }

    let cmp = stall_heavy_comparison(0x57E9);
    if let Some(msg) = cmp.divergence() {
        eprintln!("[stepper_check] STEPPER DIVERGENCE\n{msg}");
        std::process::exit(1);
    }
    let mut rep = FigureReport::new(
        "stepper",
        "Event-horizon stepper vs dense reference (SPMV do-all, DRAM 300cy)",
        "n/a — host throughput, bit-exact by construction",
    );
    rep.line(
        "simulated cycles",
        cmp.dense.stats.cycles as f64,
        " cy",
        "—",
    );
    rep.line(
        "dense host throughput",
        cmp.dense.mcycles_per_sec(),
        " Mcy/s",
        "—",
    );
    rep.line(
        "skipping host throughput",
        cmp.skipping.mcycles_per_sec(),
        " Mcy/s",
        "—",
    );
    rep.line("stepper speedup", cmp.speedup(), "x", ">=2x acceptance");
    print!("{}", rep.render());
    println!(
        "stepper ok: bit-exact at {} cycles; dense {:.2} Mcy/s, skipping {:.2} Mcy/s ({:.1}x)",
        cmp.dense.stats.cycles,
        cmp.dense.mcycles_per_sec(),
        cmp.skipping.mcycles_per_sec(),
        cmp.speedup()
    );
}
