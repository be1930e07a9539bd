//! Per-call records and the per-layer metrics derived from them.
//!
//! Every simulation call (a kernel run or a serving session) leaves a
//! [`Call`]: its host seconds, its simulated cycles and tile count, a
//! correctness verdict, a digest of its simulated results, and additive
//! counters keyed by layer. Counters come from `RunStats` for every call
//! and from the `MetricsSnapshot` when the entry point hands back its
//! `System` (SPMV runs, serving sessions); `Bfs`/`Sdhp` return only
//! `RunStats`, so snapshot-only counters cover the calls that have one.

use std::collections::BTreeMap;

use maple_soc::System;
use maple_trace::metrics::MetricValue;
use maple_trace::MetricsSnapshot;
use maple_workloads::RunStats;

use crate::stats::{ns_per, ratio_or};

/// Additive simulated counters of one or more calls.
pub type Counts = BTreeMap<String, f64>;

/// One call into a simulation entry point.
#[derive(Debug, Clone)]
pub struct Call {
    /// `kernel/variant/threads` or `serve/session`.
    pub label: String,
    /// Host seconds inside the call.
    pub host_s: f64,
    /// Simulated cycles the call ran.
    pub cycles: u64,
    /// Tiles of the simulated SoC.
    pub tiles: u64,
    /// Whether the call verified and finished without a hang.
    pub ok: bool,
    /// Digest of the call's simulated results.
    pub digest: u64,
    /// Layer counters.
    pub counts: Counts,
}

/// FNV-1a over a byte string: the digest every repetition is compared
/// with.
#[must_use]
pub fn fnv(parts: &[&str]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for p in parts {
        for b in p.bytes().chain([0xff]) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// The snapshot JSON with host- and mode-dependent keys stripped, as the
/// repository's cross-mode comparisons do for `dispatch/`.
#[must_use]
pub fn simulated_json(snap: &MetricsSnapshot) -> String {
    let mut s = snap.clone();
    s.retain(|n| !n.contains("/dispatch/") && !n.starts_with("trace/") && !n.starts_with("host/"));
    s.to_json().render()
}

fn add(c: &mut Counts, key: impl Into<String>, v: f64) {
    *c.entry(key.into()).or_insert(0.0) += v;
}

/// Counters every `RunStats` carries. `engine` marks variants that
/// drive a MAPLE engine (their queue occupancy is meaningful).
#[must_use]
pub fn run_stats_counts(stats: &RunStats, engine: bool) -> Counts {
    let mut c = Counts::new();
    add(
        &mut c,
        "cpu.instructions",
        stats.cores.iter().map(|d| d.instructions as f64).sum(),
    );
    add(&mut c, "cpu.core_cycles", stats.core_cycles as f64);
    for (label, cycles) in stats.stall.buckets() {
        add(
            &mut c,
            format!("cpu.stall.{}", label.replace('-', "_")),
            cycles as f64,
        );
    }
    let (fetches, produce, consume, tlb) = stats.engine;
    add(&mut c, "core.mem_fetches", fetches as f64);
    add(&mut c, "core.produce_stalls", produce as f64);
    add(&mut c, "core.consume_stalls", consume as f64);
    add(&mut c, "vm.engine_tlb_misses", tlb as f64);
    if engine {
        add(&mut c, "core.q0_occupancy_sum", stats.queue0_occupancy_mean);
        add(&mut c, "core.q0_runs", 1.0);
    }
    c
}

/// Adds the snapshot-only counters, replacing the engine-0 figures
/// `RunStats` carries with sums over every engine. `host_s` is the
/// call's host time, kept beside the snapshot's events so per-event
/// costs divide matching quantities.
pub fn add_snapshot(c: &mut Counts, snap: &MetricsSnapshot, sys: &System, host_s: f64) {
    add(c, "snap.host_s", host_s);
    for key in [
        "core.mem_fetches",
        "core.produce_stalls",
        "core.consume_stalls",
    ] {
        c.insert(key.to_string(), 0.0);
    }
    let tlb: u64 = (0..sys.config().maples)
        .map(|e| sys.engine(e).tlb_misses())
        .sum();
    c.insert("vm.engine_tlb_misses".into(), tlb as f64);
    for (name, value) in snap.entries() {
        let parts: Vec<&str> = name.split('/').collect();
        match (parts.as_slice(), value) {
            (["noc", "injected"], MetricValue::Counter(v)) => add(c, "noc.packets", *v as f64),
            (["noc", "hops"], MetricValue::Counter(v)) => add(c, "noc.hops", *v as f64),
            (["noc", "global", "hops"], MetricValue::Counter(v)) => {
                add(c, "noc.global_hops", *v as f64);
            }
            (["noc", "latency"], MetricValue::Histogram(h)) => {
                add(c, "noc.latency_sum", h.mean * h.count as f64);
                add(c, "noc.latency_n", h.count as f64);
            }
            ([core, "l1", "loads"], MetricValue::Counter(v)) if core.starts_with("core") => {
                add(c, "mem.l1_loads", *v as f64);
            }
            ([core, "l1", "load_hits"], MetricValue::Counter(v)) if core.starts_with("core") => {
                add(c, "mem.l1_hits", *v as f64);
            }
            ([core, "ptw_stall_cycles"], MetricValue::Counter(v)) if core.starts_with("core") => {
                add(c, "vm.core_ptw_stall_cycles", *v as f64);
            }
            (["l2", stat @ ("hits" | "misses")], MetricValue::Counter(v)) => {
                add(c, format!("mem.l2_{stat}"), *v as f64);
            }
            (["l2", bank, "hits" | "misses"], MetricValue::Counter(v)) => {
                add(c, format!("mem.l2_requests.{bank}"), *v as f64);
            }
            (["dram", "requests"], MetricValue::Counter(v)) => {
                add(c, "mem.dram_requests", *v as f64)
            }
            (["dram", "latency"], MetricValue::Histogram(h)) => {
                add(c, "mem.dram_latency_sum", h.mean * h.count as f64);
                add(c, "mem.dram_latency_n", h.count as f64);
            }
            (
                [engine, stat @ ("mem_fetches" | "produce_stalls" | "consume_stalls" | "lima_completed"
                | "llc_prefetches")],
                MetricValue::Counter(v),
            ) if engine.starts_with("engine") => add(c, format!("core.{stat}"), *v as f64),
            (
                ["serve", stat @ ("context_switches" | "remaps" | "batches" | "switch_cycles"
                | "elapsed_vcycles")],
                MetricValue::Counter(v),
            ) => add(c, format!("serve.{stat}"), *v as f64),
            _ => {}
        }
    }
    if sys.l2_bank_count() == 1 {
        let single = c.get("mem.l2_hits").copied().unwrap_or(0.0)
            + c.get("mem.l2_misses").copied().unwrap_or(0.0);
        add(c, "mem.l2_requests.bank0", single);
    }
}

/// Sums the counters of `calls`.
#[must_use]
pub fn total(calls: &[Call]) -> Counts {
    let mut t = Counts::new();
    for call in calls {
        for (k, v) in &call.counts {
            add(&mut t, k.clone(), *v);
        }
    }
    t
}

/// Host-time inputs of the per-layer metrics: span self times of one
/// traced pass.
pub type SelfTimes = BTreeMap<&'static str, f64>;

/// The per-layer metric names and units, in output order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.dataset_gen_s", "s"),
    ("workloads.reference_s", "s"),
    ("soc.system_new_s", "s"),
    ("soc.upload_s", "s"),
    ("soc.run_s", "s"),
    ("soc.host_ns_per_cycle", "ns"),
    ("soc.host_ns_per_tile_cycle", "ns"),
    ("soc.setup_verify_share", "fraction"),
    ("noc.packets", "count"),
    ("noc.hops", "count"),
    ("noc.latency_mean_cycles", "cycles"),
    ("noc.global_hop_share", "fraction"),
    ("noc.host_ns_per_hop", "ns"),
    ("mem.l1_hit_ratio", "fraction"),
    ("mem.l2_hit_ratio", "fraction"),
    ("mem.dram_requests", "count"),
    ("mem.dram_latency_mean_cycles", "cycles"),
    ("mem.l2_bank_imbalance", "x"),
    ("vm.engine_tlb_misses", "count"),
    ("vm.core_ptw_stall_cycles", "cycles"),
    ("cpu.instructions", "count"),
    ("cpu.ipc", "inst/cycle"),
    ("cpu.stall.compute_frac", "fraction"),
    ("cpu.stall.l1_miss_frac", "fraction"),
    ("cpu.stall.l2_miss_frac", "fraction"),
    ("cpu.stall.dram_frac", "fraction"),
    ("cpu.stall.consume_wait_frac", "fraction"),
    ("cpu.stall.mmio_frac", "fraction"),
    ("cpu.stall.fault_recovery_frac", "fraction"),
    ("core.mem_fetches", "count"),
    ("core.produce_stalls", "count"),
    ("core.consume_stalls", "count"),
    ("core.lima_completed", "count"),
    ("core.llc_prefetches", "count"),
    ("core.queue0_occupancy_mean", "entries"),
    ("serve.context_switches", "count"),
    ("serve.remaps", "count"),
    ("serve.batches", "count"),
    ("serve.switch_overhead_frac", "fraction"),
    ("trace.snapshot_s", "s"),
    ("trace.overhead_frac", "fraction"),
];

/// The per-layer metrics of one traced pass, except
/// `trace.overhead_frac`, which compares passes and is filled in by the
/// caller.
#[must_use]
pub fn per_layer(calls: &[Call], spans: &SelfTimes) -> BTreeMap<String, f64> {
    let c = total(calls);
    let get = |k: &str| c.get(k).copied().unwrap_or(0.0);
    let span = |k: &str| spans.get(k).copied().unwrap_or(0.0);
    let run_s: f64 = calls.iter().map(|x| x.host_s).sum();
    let cycles: f64 = calls.iter().map(|x| x.cycles as f64).sum();
    let tile_cycles: f64 = calls.iter().map(|x| (x.cycles * x.tiles) as f64).sum();
    let core_cycles = get("cpu.core_cycles");
    let stall_total: f64 = c
        .iter()
        .filter(|(k, _)| k.starts_with("cpu.stall."))
        .map(|(_, v)| v)
        .sum();
    let banks: Vec<f64> = c
        .iter()
        .filter(|(k, _)| k.starts_with("mem.l2_requests."))
        .map(|(_, v)| *v)
        .collect();
    let bank_mean = banks.iter().sum::<f64>() / banks.len().max(1) as f64;
    let bank_max = banks.iter().copied().fold(0.0, f64::max);

    let mut m = BTreeMap::new();
    let mut put = |name: &str, v: f64| {
        m.insert(name.to_string(), v);
    };
    put("workloads.dataset_gen_s", span("workloads.dataset_gen"));
    put("workloads.reference_s", span("workloads.reference"));
    put("soc.system_new_s", span("soc.system_new"));
    put("soc.upload_s", span("soc.upload"));
    put("soc.run_s", run_s);
    put("soc.host_ns_per_cycle", ns_per(run_s, cycles));
    put("soc.host_ns_per_tile_cycle", ns_per(run_s, tile_cycles));
    put(
        "soc.setup_verify_share",
        ratio_or(span("soc.upload") + span("workloads.reference"), run_s, 0.0),
    );
    put("noc.packets", get("noc.packets"));
    put("noc.hops", get("noc.hops"));
    put(
        "noc.latency_mean_cycles",
        ratio_or(get("noc.latency_sum"), get("noc.latency_n"), 0.0),
    );
    put(
        "noc.global_hop_share",
        ratio_or(get("noc.global_hops"), get("noc.hops"), 0.0),
    );
    put(
        "noc.host_ns_per_hop",
        ns_per(get("snap.host_s"), get("noc.hops")),
    );
    put(
        "mem.l1_hit_ratio",
        ratio_or(get("mem.l1_hits"), get("mem.l1_loads"), 0.0),
    );
    put(
        "mem.l2_hit_ratio",
        ratio_or(
            get("mem.l2_hits"),
            get("mem.l2_hits") + get("mem.l2_misses"),
            0.0,
        ),
    );
    put("mem.dram_requests", get("mem.dram_requests"));
    put(
        "mem.dram_latency_mean_cycles",
        ratio_or(get("mem.dram_latency_sum"), get("mem.dram_latency_n"), 0.0),
    );
    put("mem.l2_bank_imbalance", ratio_or(bank_max, bank_mean, 1.0));
    put("vm.engine_tlb_misses", get("vm.engine_tlb_misses"));
    put("vm.core_ptw_stall_cycles", get("vm.core_ptw_stall_cycles"));
    put("cpu.instructions", get("cpu.instructions"));
    put(
        "cpu.ipc",
        ratio_or(get("cpu.instructions"), core_cycles, 0.0),
    );
    put(
        "cpu.stall.compute_frac",
        ratio_or(core_cycles - stall_total, core_cycles, 0.0),
    );
    for bucket in [
        "l1_miss",
        "l2_miss",
        "dram",
        "consume_wait",
        "mmio",
        "fault_recovery",
    ] {
        put(
            &format!("cpu.stall.{bucket}_frac"),
            ratio_or(get(&format!("cpu.stall.{bucket}")), core_cycles, 0.0),
        );
    }
    for stat in [
        "mem_fetches",
        "produce_stalls",
        "consume_stalls",
        "lima_completed",
        "llc_prefetches",
    ] {
        put(&format!("core.{stat}"), get(&format!("core.{stat}")));
    }
    put(
        "core.queue0_occupancy_mean",
        ratio_or(get("core.q0_occupancy_sum"), get("core.q0_runs"), 0.0),
    );
    put("serve.context_switches", get("serve.context_switches"));
    put("serve.remaps", get("serve.remaps"));
    put("serve.batches", get("serve.batches"));
    put(
        "serve.switch_overhead_frac",
        ratio_or(
            get("serve.switch_cycles"),
            get("serve.elapsed_vcycles"),
            0.0,
        ),
    );
    put("trace.snapshot_s", span("trace.snapshot"));
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call(host_s: f64, cycles: u64, tiles: u64, counts: &[(&str, f64)]) -> Call {
        Call {
            label: "t".into(),
            host_s,
            cycles,
            tiles,
            ok: true,
            digest: 0,
            counts: counts.iter().map(|(k, v)| ((*k).to_string(), *v)).collect(),
        }
    }

    #[test]
    fn tile_cycle_and_hop_costs() {
        // 1024 tiles × 1e6 cycles in 2.048 s is 2 ns per tile-cycle; a
        // 4-tile run of 1e6 cycles in 1 s adds 1 s over 4e6 tile-cycles.
        let calls = vec![
            call(
                2.048,
                1_000_000,
                1024,
                &[("noc.hops", 4.0e6), ("snap.host_s", 2.048)],
            ),
            call(1.0, 1_000_000, 4, &[]),
        ];
        let m = per_layer(&calls, &SelfTimes::new());
        assert!((m["soc.run_s"] - 3.048).abs() < 1e-12);
        assert!((m["soc.host_ns_per_cycle"] - 1524.0).abs() < 1e-9);
        let want = 3.048e9 / (1024.0e6 + 4.0e6);
        assert!((m["soc.host_ns_per_tile_cycle"] - want).abs() < 1e-9);
        // Only the call with a snapshot counts toward host time per hop.
        assert!((m["noc.host_ns_per_hop"] - 512.0).abs() < 1e-9);
    }

    #[test]
    fn shares_and_ratios() {
        let calls = vec![call(
            4.0,
            100,
            4,
            &[
                ("cpu.core_cycles", 200.0),
                ("cpu.instructions", 50.0),
                ("cpu.stall.dram", 60.0),
                ("cpu.stall.l1_miss", 40.0),
                ("mem.l2_requests.bank0", 30.0),
                ("mem.l2_requests.bank1", 10.0),
                ("noc.hops", 10.0),
                ("noc.global_hops", 4.0),
            ],
        )];
        let spans: SelfTimes = [("soc.upload", 0.5), ("workloads.reference", 0.5)].into();
        let m = per_layer(&calls, &spans);
        assert_eq!(m["cpu.ipc"], 0.25);
        assert_eq!(m["cpu.stall.dram_frac"], 0.3);
        assert_eq!(m["cpu.stall.compute_frac"], 0.5);
        assert_eq!(m["mem.l2_bank_imbalance"], 1.5);
        assert_eq!(m["noc.global_hop_share"], 0.4);
        assert_eq!(m["soc.setup_verify_share"], 0.25);
    }

    #[test]
    fn every_per_layer_metric_is_computed_once() {
        let m = per_layer(&[], &SelfTimes::new());
        for (name, _) in PER_LAYER {
            assert!(
                m.contains_key(*name) || *name == "trace.overhead_frac",
                "{name}"
            );
        }
        assert_eq!(m.len(), PER_LAYER.len() - 1);
    }

    #[test]
    fn digest_separates_parts() {
        assert_ne!(fnv(&["ab", "c"]), fnv(&["a", "bc"]));
        assert_eq!(fnv(&["x"]), fnv(&["x"]));
    }
}
