//! Acceptance tests for the `maple-fleet` execution runtime as wired
//! into the bench harness: results are bit-identical at every worker
//! count, a panicking job is isolated into a typed error, every suite
//! simulates every case (no row outlives the code that produced it),
//! and `bench_summary` simulates each distinct case of its three figure
//! matrices exactly once.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use maple_bench::experiments::{figure_matrices, suite_with, summary_sweep_with, CaseSpec};
use maple_bench::summary::{build_json, HarnessLine};
use maple_fleet::{run_batch, FleetConfig};
use maple_trace::StallBreakdown;
use maple_workloads::harness::FaultReport;
use maple_workloads::{RunStats, Variant};

/// A deterministic synthetic "simulation": stats are a pure function of
/// the case descriptor, so any cross-worker-count divergence can only
/// come from the fleet plumbing under test.
fn synthetic_run(spec: &CaseSpec) -> RunStats {
    let mut h: u64 = 0xfeed;
    for b in spec
        .app
        .bytes()
        .chain(spec.dataset.bytes())
        .chain(spec.variant.label().bytes())
    {
        h = h.wrapping_mul(31).wrapping_add(u64::from(b));
    }
    h = h.wrapping_add(spec.threads as u64);
    RunStats {
        cycles: 1000 + h % 9000,
        loads: 10 + h % 90,
        mean_load_latency: 4.0 + (h % 16) as f64,
        verified: true,
        cores: Vec::new(),
        engine: (0, 0, 0, 0),
        queue0_occupancy_mean: 0.0,
        queues_produced: h % 64,
        queues_consumed: h % 64,
        queues_drained: true,
        noc_injected: 100,
        noc_delivered: 100,
        hung: false,
        faults: FaultReport::default(),
        core_cycles: 2 * (1000 + h % 9000),
        stall: StallBreakdown {
            l1_miss: h % 100,
            l2_miss: h % 50,
            dram: h % 200,
            consume_wait: h % 10,
            mmio: h % 5,
            fault_recovery: 0,
        },
    }
}

fn cases_of(variants: &[(Variant, usize)]) -> Vec<CaseSpec> {
    let mut cases = Vec::new();
    for (app, ds) in [("spmv", "small"), ("spmv", "large"), ("bfs", "road")] {
        for &(variant, threads) in variants {
            cases.push(CaseSpec {
                app: app.into(),
                dataset: ds.into(),
                variant,
                threads,
            });
        }
    }
    cases
}

#[test]
fn suite_rows_and_summary_json_identical_across_worker_counts() {
    let fig08_cases = cases_of(&[
        (Variant::Doall, 2),
        (Variant::SwDecoupled, 2),
        (Variant::MapleDecoupled, 2),
    ]);
    let fig09_cases = cases_of(&[
        (Variant::Doall, 1),
        (Variant::SwPrefetch { dist: 16 }, 1),
        (Variant::MapleLima, 1),
    ]);
    let fig12_cases = cases_of(&[
        (Variant::Doall, 2),
        (Variant::MapleDecoupled, 2),
        (Variant::Desc, 2),
        (Variant::Droplet, 2),
    ]);

    // Fixed harness line: the run-to-run numbers (wall, jobs) enter the
    // JSON only through this argument, so the rendered document must be
    // byte-identical at every worker count.
    let harness = HarnessLine::default();
    let mut reference = None;
    for workers in [1usize, 2, 8] {
        let pool = FleetConfig::from_env().with_workers(workers);
        let fig08 = suite_with(&pool, "t08", &fig08_cases, synthetic_run);
        let fig09 = suite_with(&pool, "t09", &fig09_cases, synthetic_run);
        let fig12 = suite_with(&pool, "t12", &fig12_cases, synthetic_run);
        assert_eq!(fig08.fleet.jobs, workers);
        assert_eq!(fig08.rows.len(), fig08_cases.len());

        let mut rows = fig08.rows.clone();
        rows.extend(fig09.rows.clone());
        rows.extend(fig12.rows.clone());
        let json = build_json(
            &fig08.rows,
            &fig09.rows,
            &fig12.rows,
            42.0,
            &harness,
            None,
            None,
            None,
            None,
        )
        .render_pretty();
        match &reference {
            None => reference = Some((rows, json)),
            Some((ref_rows, ref_json)) => {
                assert_eq!(&rows, ref_rows, "rows diverged at workers={workers}");
                assert_eq!(
                    &json, ref_json,
                    "summary JSON diverged at workers={workers}"
                );
            }
        }
    }
}

#[test]
fn panicking_job_is_isolated_while_others_complete() {
    let cfg = FleetConfig::from_env().with_workers(4);
    let jobs: Vec<Box<dyn Fn() -> u64 + Send>> = (0u64..6)
        .map(|i| {
            Box::new(move || {
                assert!(i != 2, "synthetic failure in job two");
                i * 7
            }) as Box<dyn Fn() -> u64 + Send>
        })
        .collect();
    let results = run_batch(&cfg, jobs);
    assert_eq!(results.len(), 6);
    for (i, r) in results.iter().enumerate() {
        if i == 2 {
            let err = r.as_ref().expect_err("job two must fail");
            assert!(err.message.contains("synthetic failure"), "{err}");
        } else {
            assert_eq!(*r.as_ref().expect("healthy job"), i as u64 * 7);
        }
    }
    // The pool survives: a follow-up batch runs clean.
    let again = run_batch(&cfg, (0u64..4).map(|i| move || i).collect::<Vec<_>>());
    assert!(again.iter().all(Result::is_ok));
}

#[test]
fn every_suite_run_simulates_with_its_own_run_function() {
    // Same cases, same configuration, two different "simulators": each
    // call must return its own function's rows. A result store keyed on
    // the case descriptor would serve the second call the first call's
    // rows — the stale-row failure this harness must not have.
    let cases = cases_of(&[(Variant::Doall, 2), (Variant::MapleDecoupled, 2)]);
    let pool = FleetConfig::from_env().with_workers(2);
    let shifted = |spec: &CaseSpec| {
        let mut s = synthetic_run(spec);
        s.cycles += 1;
        s
    };
    let first = suite_with(&pool, "first", &cases, synthetic_run);
    let second = suite_with(&pool, "second", &cases, shifted);
    for (spec, (a, b)) in cases.iter().zip(first.rows.iter().zip(&second.rows)) {
        assert_eq!(a.cycles, synthetic_run(spec).cycles);
        assert_eq!(
            b.cycles,
            shifted(spec).cycles,
            "second call must not reuse rows"
        );
    }
}

#[test]
fn summary_sweep_simulates_each_distinct_case_once() {
    let calls = AtomicUsize::new(0);
    let seen = Mutex::new(Vec::new());
    let pool = FleetConfig::from_env().with_workers(2);
    let sweep = summary_sweep_with(&pool, |spec| {
        calls.fetch_add(1, Ordering::Relaxed);
        seen.lock().expect("no test job panics").push(spec.clone());
        synthetic_run(spec)
    });
    let seen = seen.into_inner().expect("no test job panics");
    assert_eq!(
        calls.load(Ordering::Relaxed),
        64,
        "Figs 8/9/12 share 16 cases: 24 + 24 + 32 - 16"
    );
    for (i, c) in seen.iter().enumerate() {
        assert!(!seen[..i].contains(c), "case {c:?} simulated twice");
    }

    let figures = figure_matrices();
    for (figure, rows) in figures
        .iter()
        .zip([&sweep.fig08, &sweep.fig09, &sweep.fig12])
    {
        assert_eq!(figure.len(), rows.len());
        for (spec, m) in figure.iter().zip(rows) {
            assert!(seen.contains(spec), "sweep covers every matrix");
            assert_eq!(
                (m.app.as_str(), m.dataset.as_str(), m.variant.as_str()),
                (
                    spec.app.as_str(),
                    spec.dataset.as_str(),
                    spec.variant.label()
                )
            );
            assert_eq!(m.cycles, synthetic_run(spec).cycles);
        }
    }
}
