//! The evaluation's case plan and its one simulated sweep.
//!
//! [`plan`] names the cases of every simulated figure of Section 5
//! (Figures 8, 9–11, 12, 13 and 15, the §5.3 queue sweep and the
//! tiled-engine ablation). A [`CaseSpec`] carries the built
//! [`SocConfig`], so two cases are the same simulation exactly when
//! instance, variant, thread count and machine are equal. [`sweep`]
//! runs each distinct case once as one `maple-fleet` batch (worker count
//! from `MAPLE_JOBS`) and hands every figure its rows in its own case
//! order. Nothing is kept between runs: every row is a function of the
//! current tree.

use std::sync::OnceLock;

use maple_fleet::FleetConfig;
use maple_soc::SocConfig;
use maple_trace::{StallBreakdown, StallRow};
use maple_workloads::bfs::Bfs;
use maple_workloads::harness::config_for;
use maple_workloads::{RunStats, Variant};

use crate::instances;

/// One measured (app, dataset, variant) cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// Application name.
    pub app: String,
    /// Dataset label.
    pub dataset: String,
    /// Variant label.
    pub variant: String,
    /// Cycles to completion.
    pub cycles: u64,
    /// Load instructions retired.
    pub loads: u64,
    /// Mean load-to-use latency.
    pub load_latency: f64,
    /// Result matched the host reference.
    pub verified: bool,
    /// Total core cycles backing the stall attribution.
    pub core_cycles: u64,
    /// Aggregate stall attribution across cores.
    pub stall: StallBreakdown,
}

impl Measurement {
    fn from_stats(spec: &CaseSpec, s: &RunStats) -> Self {
        Measurement {
            app: spec.app.clone(),
            dataset: spec.dataset.clone(),
            variant: spec.variant.label().into(),
            cycles: s.cycles,
            loads: s.loads,
            load_latency: s.mean_load_latency,
            verified: s.verified,
            core_cycles: s.core_cycles,
            stall: s.stall,
        }
    }
}

/// One case of the plan: a kernel instance, a variant, a thread count
/// and the machine it runs on.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseSpec {
    /// Application name.
    pub app: String,
    /// Dataset label.
    pub dataset: String,
    /// Variant under test.
    pub variant: Variant,
    /// Thread count.
    pub threads: usize,
    /// The SoC the case simulates.
    pub config: SocConfig,
}

impl CaseSpec {
    /// A case on the kernel's own machine for the variant:
    /// [`config_for`]`(variant, threads)`, except that BFS reshapes
    /// MAPLE's queues ([`Bfs::config_for`]).
    #[must_use]
    pub fn new(app: &str, dataset: &str, variant: Variant, threads: usize) -> Self {
        let config = match app {
            "bfs" => Bfs::config_for(variant, threads),
            _ => config_for(variant, threads),
        };
        CaseSpec {
            app: app.into(),
            dataset: dataset.into(),
            variant,
            threads,
            config,
        }
    }

    /// The same case on an adjusted machine (queue size, round-trip
    /// latency, engine count).
    #[must_use]
    pub fn tuned(mut self, tune: impl FnOnce(SocConfig) -> SocConfig) -> Self {
        self.config = tune(self.config);
        self
    }
}

/// The variants the evaluation runs (software prefetching at distance
/// 16), in `run_workload`'s listing order.
pub const VARIANTS: [Variant; 7] = [
    Variant::Doall,
    Variant::SwDecoupled,
    Variant::MapleDecoupled,
    Variant::Desc,
    Variant::SwPrefetch { dist: 16 },
    Variant::MapleLima,
    Variant::Droplet,
];

/// Runs cases as one fleet batch.
///
/// `run` executes one case. Rows come back in case order — bit-identical
/// at every worker count.
///
/// # Panics
///
/// Panics when a case fails verification or when a job panics.
pub fn suite_with(
    pool: &FleetConfig,
    name: &str,
    cases: &[CaseSpec],
    run: impl Fn(&CaseSpec) -> RunStats + Sync,
) -> Vec<Measurement> {
    eprintln!(
        "[{name}] simulating {} cases on {} workers...",
        cases.len(),
        pool.workers
    );
    let run = &run;
    let jobs: Vec<_> = cases.iter().map(|spec| move || run(spec)).collect();
    let results = maple_fleet::run_batch(pool, jobs);
    let describe = |spec: &CaseSpec| {
        format!(
            "{}/{}/{} t={}",
            spec.app,
            spec.dataset,
            spec.variant.label(),
            spec.threads
        )
    };
    let stats = maple_fleet::into_results(results)
        .unwrap_or_else(|(j, e)| panic!("[{name}] {}: {e}", describe(&cases[j])));
    cases
        .iter()
        .zip(&stats)
        .map(|(spec, s)| {
            assert!(s.verified, "{} failed verification", describe(spec));
            Measurement::from_stats(spec, s)
        })
        .collect()
}

/// Runs one case on its own machine.
///
/// # Panics
///
/// Panics on an unknown app or dataset (see [`app_datasets`]).
#[must_use]
pub fn run_case(spec: &CaseSpec) -> RunStats {
    fn instance<I>(list: Vec<(&'static str, I)>, dataset: &str) -> I {
        list.into_iter()
            .find(|(l, _)| *l == dataset)
            .unwrap_or_else(|| panic!("unknown dataset {dataset}"))
            .1
    }
    let (ds, variant, threads) = (spec.dataset.as_str(), spec.variant, spec.threads);
    let machine = |_: SocConfig| spec.config.clone();
    match spec.app.as_str() {
        "sdhp" => instance(instances::sdhp(), ds).run_tuned(variant, threads, machine),
        "spmm" => instance(instances::spmm(), ds).run_tuned(variant, threads, machine),
        "spmv" => instance(instances::spmv(), ds).run_tuned(variant, threads, machine),
        "bfs" => instance(instances::bfs(), ds).run_tuned(variant, threads, machine),
        other => panic!("unknown app {other}"),
    }
}

/// Every (app, dataset) pair of the evaluation. The instances are built
/// once per process to read their labels.
#[must_use]
pub fn app_datasets() -> Vec<(String, String)> {
    static PAIRS: OnceLock<Vec<(String, String)>> = OnceLock::new();
    PAIRS
        .get_or_init(|| {
            let mut v = Vec::new();
            for (l, _) in instances::sdhp() {
                v.push(("sdhp".into(), l.into()));
            }
            for (l, _) in instances::spmm() {
                v.push(("spmm".into(), l.into()));
            }
            for (l, _) in instances::spmv() {
                v.push(("spmv".into(), l.into()));
            }
            for (l, _) in instances::bfs() {
                v.push(("bfs".into(), l.into()));
            }
            v
        })
        .clone()
}

fn matrix(variants: &[(Variant, usize)]) -> Vec<CaseSpec> {
    let mut cases = Vec::new();
    for (app, ds) in app_datasets() {
        for &(variant, threads) in variants {
            cases.push(CaseSpec::new(&app, &ds, variant, threads));
        }
    }
    cases
}

/// Figure 8 variants.
const DECOUPLING: [(Variant, usize); 3] = [
    (Variant::Doall, 2),
    (Variant::SwDecoupled, 2),
    (Variant::MapleDecoupled, 2),
];

/// Figures 9–11 variants.
const PREFETCH: [(Variant, usize); 3] = [
    (Variant::Doall, 1),
    (Variant::SwPrefetch { dist: 16 }, 1),
    (Variant::MapleLima, 1),
];

/// Figure 12 variants.
const PRIOR_WORK: [(Variant, usize); 4] = [
    (Variant::Doall, 2),
    (Variant::MapleDecoupled, 2),
    (Variant::Desc, 2),
    (Variant::Droplet, 2),
];

/// The Figure 13 kernels (the decoupling-friendly subjects).
pub const SCALING_KERNELS: [(&str, &str); 3] = [
    ("spmv", "riscv-s"),
    ("sdhp", "suitesparse"),
    ("bfs", "wiki"),
];

/// Figure 13 thread counts.
pub const SCALING_THREADS: [usize; 3] = [2, 4, 8];

/// The kernels of the Figure 15 and queue-size sweeps.
pub const SWEEP_KERNELS: [(&str, &str); 2] = [("spmv", "riscv-s"), ("sdhp", "suitesparse")];

/// Figure 15 sweep: extra engine pipeline cycles on top of the ~25-cycle
/// baseline round trip, with the approximate RTT each point gives.
pub const RTT_SWEEP: [(u64, &str); 3] = [(0, "~25"), (25, "~50"), (75, "~100")];

/// §5.3 queue sizes, entries per queue.
pub const QUEUE_SIZES: [usize; 4] = [8, 16, 32, 64];

/// Engine counts of the tiled-engine ablation (SPMV, 8 threads).
pub const ABLATION_ENGINES: [usize; 3] = [1, 2, 4];

/// Per-figure values: the cases of each simulated figure in [`plan`], or
/// the rows [`sweep_with`] returns for them. Fields hold rows in plan
/// order: the dataset-matrix figures per workload then variant, the
/// sweeps per kernel a do-all then one maple-dec case per point.
#[derive(Debug, Clone, PartialEq)]
pub struct PerFigure<T> {
    /// Figure 8: (do-all, sw-dec, maple-dec) at 2 threads.
    pub fig08: T,
    /// Figures 9–11: (no-prefetch, sw-prefetch, LIMA) at 1 thread.
    pub fig09: T,
    /// Figure 12: (do-all, maple-dec, DeSC, DROPLET) at 2 threads.
    pub fig12: T,
    /// Figure 13: per kernel and [`SCALING_THREADS`] count, do-all then
    /// maple-dec.
    pub fig13: T,
    /// Figure 15: over [`RTT_SWEEP`].
    pub fig15: T,
    /// §5.3: over [`QUEUE_SIZES`].
    pub queue_sweep: T,
    /// Ablation: SPMV at 8 threads over [`ABLATION_ENGINES`].
    pub ablation: T,
}

impl<T> PerFigure<T> {
    /// Every figure's value, in declaration order.
    #[must_use]
    pub fn each(&self) -> [&T; 7] {
        [
            &self.fig08,
            &self.fig09,
            &self.fig12,
            &self.fig13,
            &self.fig15,
            &self.queue_sweep,
            &self.ablation,
        ]
    }

    /// Applies `f` to every figure's value.
    #[must_use]
    pub fn map<U>(self, mut f: impl FnMut(T) -> U) -> PerFigure<U> {
        PerFigure {
            fig08: f(self.fig08),
            fig09: f(self.fig09),
            fig12: f(self.fig12),
            fig13: f(self.fig13),
            fig15: f(self.fig15),
            queue_sweep: f(self.queue_sweep),
            ablation: f(self.ablation),
        }
    }
}

/// Do-all, then maple-dec on each machine `tunes` gives, for one kernel
/// at `threads`.
fn decoupled_sweep<P: Copy>(
    (app, ds): (&str, &str),
    threads: usize,
    points: &[P],
    tune: impl Fn(SocConfig, P) -> SocConfig,
) -> Vec<CaseSpec> {
    let maple =
        |&p: &P| CaseSpec::new(app, ds, Variant::MapleDecoupled, threads).tuned(|c| tune(c, p));
    let mut cases = vec![CaseSpec::new(app, ds, Variant::Doall, threads)];
    cases.extend(points.iter().map(maple));
    cases
}

/// The case plan of every simulated figure, in each figure's row order
/// (see the [`PerFigure`] fields).
#[must_use]
pub fn plan() -> PerFigure<Vec<CaseSpec>> {
    let mut fig13 = Vec::new();
    for (app, ds) in SCALING_KERNELS {
        for t in SCALING_THREADS {
            fig13.push(CaseSpec::new(app, ds, Variant::Doall, t));
            fig13.push(CaseSpec::new(app, ds, Variant::MapleDecoupled, t));
        }
    }
    let extras = RTT_SWEEP.map(|(extra, _)| extra);
    let (mut fig15, mut queue_sweep) = (Vec::new(), Vec::new());
    for k in SWEEP_KERNELS {
        fig15.extend(decoupled_sweep(
            k,
            2,
            &extras,
            SocConfig::with_maple_extra_latency,
        ));
        queue_sweep.extend(decoupled_sweep(
            k,
            2,
            &QUEUE_SIZES,
            SocConfig::with_queue_entries,
        ));
    }
    let spmv = ("spmv", "riscv-s");
    PerFigure {
        fig08: matrix(&DECOUPLING),
        fig09: matrix(&PREFETCH),
        fig12: matrix(&PRIOR_WORK),
        fig13,
        fig15,
        queue_sweep,
        ablation: decoupled_sweep(spmv, 8, &ABLATION_ENGINES, SocConfig::with_maples),
    }
}

/// The distinct cases of `plan`, in first-appearance order: a case
/// several figures share (or one figure repeats) is simulated once.
#[must_use]
pub fn distinct_cases(plan: &PerFigure<Vec<CaseSpec>>) -> Vec<CaseSpec> {
    let mut cases: Vec<CaseSpec> = Vec::new();
    for spec in plan.each().into_iter().flatten() {
        if !cases.contains(spec) {
            cases.push(spec.clone());
        }
    }
    cases
}

/// Runs every distinct case of [`plan`] once, as one batch through
/// `run`, and returns each figure's rows in its own case order.
#[must_use]
pub fn sweep_with(
    pool: &FleetConfig,
    run: impl Fn(&CaseSpec) -> RunStats + Sync,
) -> PerFigure<Vec<Measurement>> {
    let plan = plan();
    let cases = distinct_cases(&plan);
    let rows = suite_with(pool, "sweep", &cases, run);
    plan.map(|figure| {
        figure
            .iter()
            .map(|spec| {
                let i = cases.iter().position(|c| c == spec).expect("case in sweep");
                rows[i].clone()
            })
            .collect()
    })
}

/// [`sweep_with`] under the `MAPLE_JOBS` worker count, running real
/// workload cases.
#[must_use]
pub fn sweep() -> PerFigure<Vec<Measurement>> {
    sweep_with(&FleetConfig::from_env(), run_case)
}

/// Aggregates measurements into one stall-attribution row per variant
/// (summed across every workload/dataset).
#[must_use]
pub fn stall_rows_by_variant(rows: &[Measurement], variants: &[&str]) -> Vec<StallRow> {
    variants
        .iter()
        .map(|v| {
            let mut row = StallRow {
                label: (*v).to_owned(),
                core_cycles: 0,
                breakdown: StallBreakdown::default(),
            };
            for m in rows.iter().filter(|m| m.variant == *v) {
                row.core_cycles += m.core_cycles;
                row.breakdown.merge(&m.stall);
            }
            row
        })
        .collect()
}

/// Finds a measurement.
#[must_use]
pub fn find<'a>(rows: &'a [Measurement], app: &str, ds: &str, variant: &str) -> &'a Measurement {
    rows.iter()
        .find(|m| m.app == app && m.dataset == ds && m.variant == variant)
        .unwrap_or_else(|| panic!("no measurement for {app}/{ds}/{variant}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_merge_exactly_when_the_machine_is_equal() {
        let dec = |t| CaseSpec::new("spmv", "riscv-s", Variant::MapleDecoupled, t);
        // Tunings that rebuild the default machine are the same case...
        assert_eq!(dec(2).tuned(|c| c.with_queue_entries(32)), dec(2));
        assert_eq!(dec(2).tuned(|c| c.with_maple_extra_latency(0)), dec(2));
        assert_eq!(dec(8).tuned(|c| c.with_maples(1)), dec(8));
        // ...while a different machine under the same labels is not.
        assert_ne!(dec(2).tuned(|c| c.with_queue_entries(16)), dec(2));
        assert_ne!(dec(8).tuned(|c| c.with_maples(2)), dec(8));
        assert_ne!(dec(4), dec(2));
        // BFS runs on its own queue shape, which its cases carry.
        let bfs = CaseSpec::new("bfs", "wiki", Variant::MapleDecoupled, 2);
        assert_eq!(bfs.config.maple.default_entries, 128);

        let plan = plan();
        let merged = distinct_cases(&plan);
        assert_eq!(merged.len(), 88);
        let queue16 = &plan.queue_sweep[2];
        let queue32 = &plan.queue_sweep[3];
        assert_eq!(queue16.config.maple.default_entries, 16);
        assert!(merged.contains(queue16));
        assert!(merged.contains(queue32));
        assert_eq!(
            merged.iter().filter(|c| *c == queue32).count(),
            1,
            "the 32-entry case is the Figure 8 maple-dec case"
        );
        assert_eq!(plan.queue_sweep[3], plan.fig08[11]);
        assert_eq!(plan.fig15[1], plan.fig08[11]);
        assert_eq!(plan.ablation[1], plan.fig13[5]);
    }
}
