//! CLI runner: execute any workload/variant/thread combination and print
//! its statistics.
//!
//! ```text
//! cargo run --release -p maple-bench --bin run_workload -- <app> <dataset> <variant> [threads]
//!
//!   app      sdhp | spmm | spmv | bfs
//!   dataset  a label from `--list` (e.g. riscv-s, wiki, suitesparse)
//!   variant  doall | sw-dec | maple-dec | desc | sw-pref | maple-lima | droplet
//!   threads  default 2 (1 for the prefetch variants)
//! ```
//!
//! `run_workload --list` prints the available (app, dataset) pairs.

use maple_bench::experiments::{app_datasets, run_case, CaseSpec, VARIANTS};
use maple_workloads::Variant;

fn usage() -> ! {
    let labels: Vec<&str> = VARIANTS.iter().map(|v| v.label()).collect();
    eprintln!("usage: run_workload <app> <dataset> <variant> [threads]");
    eprintln!("       run_workload --list");
    eprintln!("variants: {}", labels.join(" "));
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--list") {
        for (app, ds) in app_datasets() {
            println!("{app:<6} {ds}");
        }
        return;
    }
    if args.len() < 3 {
        usage();
    }
    let Some(variant) = VARIANTS.into_iter().find(|v| v.label() == args[2]) else {
        eprintln!("unknown variant `{}`", args[2]);
        usage();
    };
    let default_threads = match variant {
        Variant::SwPrefetch { .. } | Variant::MapleLima => 1,
        _ => 2,
    };
    let threads: usize = args
        .get(3)
        .map(|t| t.parse().unwrap_or_else(|_| usage()))
        .unwrap_or(default_threads);

    if !app_datasets().contains(&(args[0].clone(), args[1].clone())) {
        eprintln!("unknown app/dataset `{} {}` (try --list)", args[0], args[1]);
        std::process::exit(2);
    }
    let stats = run_case(&CaseSpec::new(&args[0], &args[1], variant, threads));
    println!("app       {}", args[0]);
    println!("dataset   {}", args[1]);
    println!("variant   {}", variant.label());
    println!("threads   {threads}");
    println!("verified  {}", stats.verified);
    println!("cycles    {}", stats.cycles);
    println!("loads     {}", stats.loads);
    println!("load lat  {:.1} cycles (mean)", stats.mean_load_latency);
    let (fetches, pstall, cstall, tlb) = stats.engine;
    println!("engine    fetches={fetches} produce_stalls={pstall} consume_stalls={cstall} tlb_misses={tlb}");
    if !stats.verified {
        std::process::exit(1);
    }
}
