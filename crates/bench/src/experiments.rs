//! Shared experiment execution for the figure binaries.
//!
//! Suites run the workload/variant matrices of Section 5 through the
//! `maple-fleet` runtime: independent cases are dispatched as one batch
//! (worker count from `MAPLE_JOBS`). Nothing is kept
//! between runs: every suite simulates every case, so each row is a
//! function of the current tree. `fig10` and `fig11` therefore
//! re-simulate the Figure 9 suite; `bench_summary` runs the Figure 8, 9
//! and 12 matrices as one deduplicated batch ([`summary_sweep`]).

use maple_fleet::FleetConfig;
use maple_trace::{StallBreakdown, StallRow};
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
    fn from_stats(app: &str, dataset: &str, variant: &str, s: &RunStats) -> Self {
        Measurement {
            app: app.into(),
            dataset: dataset.into(),
            variant: variant.into(),
            cycles: s.cycles,
            loads: s.loads,
            load_latency: s.mean_load_latency,
            verified: s.verified,
            core_cycles: s.core_cycles,
            stall: s.stall,
        }
    }

    /// Lookup key.
    #[must_use]
    pub fn key(&self) -> (String, String, String) {
        (self.app.clone(), self.dataset.clone(), self.variant.clone())
    }
}

/// One case of a suite matrix.
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
}

/// Execution accounting of one suite: the `jobs=N, wall=…s` line every
/// figure binary prints, and the JSON form of the same numbers.
#[derive(Debug, Clone)]
pub struct FleetLine {
    /// Worker threads the batch ran with.
    pub jobs: usize,
    /// Suite wall-clock, seconds.
    pub wall_seconds: f64,
}

impl FleetLine {
    /// The one-line text rendering.
    #[must_use]
    pub fn render(&self) -> String {
        format!("jobs={}, wall={:.2}s", self.jobs, self.wall_seconds)
    }
}

/// A completed suite: one [`Measurement`] per case, in case order, plus
/// the execution accounting.
#[derive(Debug, Clone)]
pub struct SuiteRun {
    /// Measurements, in the order the cases were specified.
    pub rows: Vec<Measurement>,
    /// Fleet accounting for the suite.
    pub fleet: FleetLine,
}

/// Runs a suite of cases as one fleet batch.
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
) -> SuiteRun {
    let t0 = std::time::Instant::now();
    eprintln!(
        "[{name}] simulating {} cases on {} workers...",
        cases.len(),
        pool.workers
    );
    let run = &run;
    let jobs: Vec<_> = cases.iter().map(|spec| move || run(spec)).collect();
    let results = maple_fleet::run_batch(pool, jobs);
    let stats = maple_fleet::into_results(results)
        .unwrap_or_else(|(j, e)| {
            let spec = &cases[j];
            panic!(
                "[{name}] {}/{}/{} t={}: {e}",
                spec.app,
                spec.dataset,
                spec.variant.label(),
                spec.threads
            )
        });
    let rows = cases
        .iter()
        .zip(&stats)
        .map(|(spec, s)| {
            assert!(
                s.verified,
                "{}/{}/{} failed verification",
                spec.app,
                spec.dataset,
                spec.variant.label()
            );
            Measurement::from_stats(&spec.app, &spec.dataset, spec.variant.label(), s)
        })
        .collect();
    let fleet = FleetLine {
        jobs: pool.workers,
        wall_seconds: t0.elapsed().as_secs_f64(),
    };
    eprintln!("[{name}] {}", fleet.render());
    SuiteRun { rows, fleet }
}

/// [`suite_with`] under the `MAPLE_JOBS` worker count, running real
/// workload cases.
fn suite(name: &str, cases: &[CaseSpec]) -> SuiteRun {
    suite_with(&FleetConfig::from_env(), name, cases, run_case)
}

/// Dispatches one case to the right workload.
fn run_case(spec: &CaseSpec) -> RunStats {
    let (ds, variant, threads) = (spec.dataset.as_str(), spec.variant, spec.threads);
    match spec.app.as_str() {
        "sdhp" => {
            let inst = instances::sdhp()
                .into_iter()
                .find(|(l, _)| *l == ds)
                .expect("dataset")
                .1;
            inst.run(variant, threads)
        }
        "spmm" => {
            let inst = instances::spmm()
                .into_iter()
                .find(|(l, _)| *l == ds)
                .expect("dataset")
                .1;
            inst.run(variant, threads)
        }
        "spmv" => {
            let inst = instances::spmv()
                .into_iter()
                .find(|(l, _)| *l == ds)
                .expect("dataset")
                .1;
            inst.run(variant, threads)
        }
        "bfs" => {
            let inst = instances::bfs()
                .into_iter()
                .find(|(l, _)| *l == ds)
                .expect("dataset")
                .1;
            inst.run(variant, threads)
        }
        other => panic!("unknown app {other}"),
    }
}

/// Every (app, dataset) pair of the evaluation.
#[must_use]
pub fn app_datasets() -> Vec<(String, String)> {
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
}

fn matrix(pairs: &[(String, String)], variants: &[(Variant, usize)]) -> Vec<CaseSpec> {
    let mut cases = Vec::new();
    for (app, ds) in pairs {
        for &(variant, threads) in variants {
            cases.push(CaseSpec {
                app: app.clone(),
                dataset: ds.clone(),
                variant,
                threads,
            });
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

/// Figure 8 suite: every dataset under 2-thread do-all, software
/// decoupling and MAPLE decoupling.
#[must_use]
pub fn decoupling_suite() -> SuiteRun {
    suite("fig08", &matrix(&app_datasets(), &DECOUPLING))
}

/// Figures 9–11 suite: every dataset under single-thread no-prefetch,
/// software prefetching and MAPLE LIMA.
#[must_use]
pub fn prefetch_suite() -> SuiteRun {
    suite("fig09", &matrix(&app_datasets(), &PREFETCH))
}

/// Figure 12 suite: every dataset under 2-thread do-all, MAPLE
/// decoupling, DeSC and DROPLET.
#[must_use]
pub fn prior_work_suite() -> SuiteRun {
    suite("fig12", &matrix(&app_datasets(), &PRIOR_WORK))
}

/// The case matrices of the Figure 8, 9 and 12 suites, in that order.
#[must_use]
pub fn figure_matrices() -> [Vec<CaseSpec>; 3] {
    let pairs = app_datasets();
    [DECOUPLING.as_slice(), &PREFETCH, &PRIOR_WORK].map(|variants| matrix(&pairs, variants))
}

/// The Figure 8, 9 and 12 rows of `BENCH_maple.json`, simulated as one
/// batch.
#[derive(Debug, Clone)]
pub struct SummarySweep {
    /// Figure 8 rows, in case order.
    pub fig08: Vec<Measurement>,
    /// Figure 9 rows, in case order.
    pub fig09: Vec<Measurement>,
    /// Figure 12 rows, in case order.
    pub fig12: Vec<Measurement>,
    /// Fleet accounting for the one batch.
    pub fleet: FleetLine,
}

/// Runs the union of [`figure_matrices`] as one batch through `run`,
/// each case once (Figure 12 shares its do-all and MAPLE decoupling
/// cases with Figure 8), then takes each figure's rows from it.
#[must_use]
pub fn summary_sweep_with(
    pool: &FleetConfig,
    run: impl Fn(&CaseSpec) -> RunStats + Sync,
) -> SummarySweep {
    let matrices = figure_matrices();
    let mut cases: Vec<CaseSpec> = Vec::new();
    for spec in matrices.iter().flatten() {
        if !cases.contains(spec) {
            cases.push(spec.clone());
        }
    }
    let all = suite_with(pool, "bench_summary", &cases, run);
    let [fig08, fig09, fig12] = matrices.map(|figure| {
        figure
            .iter()
            .map(|spec| {
                let i = cases.iter().position(|c| c == spec).expect("case in sweep");
                all.rows[i].clone()
            })
            .collect()
    });
    SummarySweep {
        fig08,
        fig09,
        fig12,
        fleet: all.fleet,
    }
}

/// [`summary_sweep_with`] under the `MAPLE_JOBS` worker count, running
/// real workload cases.
#[must_use]
pub fn summary_sweep() -> SummarySweep {
    summary_sweep_with(&FleetConfig::from_env(), run_case)
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
pub fn find<'a>(
    rows: &'a [Measurement],
    app: &str,
    ds: &str,
    variant: &str,
) -> &'a Measurement {
    rows.iter()
        .find(|m| m.app == app && m.dataset == ds && m.variant == variant)
        .unwrap_or_else(|| panic!("no measurement for {app}/{ds}/{variant}"))
}
