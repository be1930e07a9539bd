//! Host-throughput comparison of the two `System` steppers.
//!
//! Runs one stall-heavy configuration — SPMV do-all against the default
//! 300-cycle DRAM, a gather working set far larger than the caches — once
//! under the dense cycle-by-cycle reference loop and once under the
//! event-horizon skipping scheduler, and reports simulated Mcycles per
//! host second for both. The two runs must be bit-exact (same final
//! cycle count, same `RunStats`, same metrics snapshot); [`divergence`]
//! renders any mismatch for the CI gate.
//!
//! [`divergence`]: StepperComparison::divergence

use std::time::Instant;

use maple_workloads::data::{dense_vector, uniform_sparse};
use maple_workloads::harness::{RunStats, Variant};
use maple_workloads::spmv::Spmv;

/// One timed run of the benchmark config under one stepper.
#[derive(Debug)]
pub struct StepperRun {
    /// Workload statistics (simulated; stepper-independent by contract).
    pub stats: RunStats,
    /// Rendered metrics-snapshot JSON (simulated; stepper-independent).
    pub metrics_json: String,
    /// Host wall-clock of the `System::run` call alone.
    pub wall_seconds: f64,
}

impl StepperRun {
    /// Simulated megacycles per host second.
    #[must_use]
    pub fn mcycles_per_sec(&self) -> f64 {
        self.stats.cycles as f64 / self.wall_seconds / 1.0e6
    }
}

/// The paired measurement: same workload, both steppers.
#[derive(Debug)]
pub struct StepperComparison {
    /// The dense cycle-by-cycle reference loop.
    pub dense: StepperRun,
    /// The event-horizon skipping scheduler (the default stepper).
    pub skipping: StepperRun,
}

impl StepperComparison {
    /// Host-throughput ratio: skipping over dense.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.skipping.mcycles_per_sec() / self.dense.mcycles_per_sec()
    }

    /// `None` when the two runs are bit-exact; otherwise a rendered
    /// description of the first mismatch (final cycle count, run stats,
    /// or metrics snapshot) for the CI gate to print before failing.
    #[must_use]
    pub fn divergence(&self) -> Option<String> {
        if self.skipping.stats.cycles != self.dense.stats.cycles {
            return Some(format!(
                "final cycle count diverged: skipping={} dense={}",
                self.skipping.stats.cycles, self.dense.stats.cycles
            ));
        }
        if self.skipping.stats != self.dense.stats {
            return Some(format!(
                "run stats diverged:\nskipping: {:?}\ndense:    {:?}",
                self.skipping.stats, self.dense.stats
            ));
        }
        if self.skipping.metrics_json != self.dense.metrics_json {
            return Some("metrics snapshot JSON diverged".into());
        }
        None
    }
}

/// Runs the stall-heavy benchmark config under both steppers.
///
/// `rows`/`cols` size the sparse gather (the checked-in default is
/// `stall_heavy_comparison`); `seed` fixes the instance.
#[must_use]
pub fn compare_steppers(rows: usize, cols: usize, seed: u64) -> StepperComparison {
    let a = uniform_sparse(rows, cols, 8, seed);
    let x = dense_vector(cols, seed ^ 0x9);
    let inst = Spmv { a, x };
    let measure = |dense: bool| {
        let t0 = Instant::now();
        let (stats, sys) = inst.run_observed(Variant::Doall, 2, move |c| {
            if dense {
                c.with_dense_stepper()
            } else {
                c
            }
        });
        let wall_seconds = t0.elapsed().as_secs_f64();
        assert!(!stats.hung, "benchmark config must complete");
        StepperRun {
            metrics_json: sys.metrics_snapshot().to_json().render(),
            stats,
            wall_seconds,
        }
    };
    // Dense first: the expensive run up front, the default stepper's
    // time measured on a warmed allocator.
    let dense = measure(true);
    let skipping = measure(false);
    StepperComparison { dense, skipping }
}

/// The default stall-heavy instance: SPMV do-all, 300-cycle DRAM, a
/// working set that misses both cache levels on most gathers.
#[must_use]
pub fn stall_heavy_comparison(seed: u64) -> StepperComparison {
    compare_steppers(512, 64 * 1024, seed)
}

/// One timed run of the partitioned stepper at a given partition count.
#[derive(Debug)]
pub struct PartitionedRun {
    /// Spatial partitions the mesh was sharded into.
    pub partitions: usize,
    /// The timed run (simulated content is stepper-independent).
    pub run: StepperRun,
}

/// Partitioned-stepper throughput sweep: the single-threaded skipping
/// baseline plus one partitioned run per requested partition count, all
/// on the same scaled stall-heavy mesh.
#[derive(Debug)]
pub struct PartitionedSweep {
    /// The single-threaded event-horizon baseline.
    pub skipping: StepperRun,
    /// One partitioned measurement per partition count.
    pub runs: Vec<PartitionedRun>,
}

impl PartitionedSweep {
    /// Host-throughput ratio of the run at `partitions` over the
    /// single-threaded skipping baseline.
    #[must_use]
    pub fn speedup_at(&self, partitions: usize) -> Option<f64> {
        self.runs
            .iter()
            .find(|r| r.partitions == partitions)
            .map(|r| r.run.mcycles_per_sec() / self.skipping.mcycles_per_sec())
    }

    /// `None` when every partitioned run is bit-exact with the skipping
    /// baseline; otherwise a rendered description of the first mismatch.
    #[must_use]
    pub fn divergence(&self) -> Option<String> {
        for r in &self.runs {
            if r.run.stats != self.skipping.stats {
                return Some(format!(
                    "run stats diverged at {} partitions:\npartitioned: {:?}\nskipping:    {:?}",
                    r.partitions, r.run.stats, self.skipping.stats
                ));
            }
            if r.run.metrics_json != self.skipping.metrics_json {
                return Some(format!(
                    "metrics snapshot JSON diverged at {} partitions",
                    r.partitions
                ));
            }
        }
        None
    }
}

/// Runs the scaled stall-heavy config — SPMV under MAPLE decoupling,
/// 16 threads over 8 engines, a gather far beyond both cache levels —
/// once single-threaded and once per entry of `partition_counts`.
/// Workers per partitioned run come from `MAPLE_JOBS`/host parallelism
/// unless `workers` pins them.
#[must_use]
pub fn partitioned_sweep(
    seed: u64,
    partition_counts: &[usize],
    workers: Option<usize>,
) -> PartitionedSweep {
    // 8192 rows: ~660k simulated cycles, so each timed run spans whole
    // seconds of host time and the partitions×workers throughput rows
    // measure the stepper, not allocator noise (the previous 1024-row
    // instance finished in 83k cycles, under a quarter-second).
    let a = uniform_sparse(8192, 128 * 1024, 8, seed);
    let x = dense_vector(128 * 1024, seed ^ 0x9);
    let inst = Spmv { a, x };
    let measure = |partitions: usize| {
        let t0 = Instant::now();
        let (stats, sys) = inst.run_observed(Variant::MapleDecoupled, 16, move |c| {
            let c = c.with_maples(8);
            let c = if partitions > 1 {
                c.with_partitions(partitions)
            } else {
                c
            };
            match workers {
                Some(w) if partitions > 1 => c.with_partition_workers(w),
                _ => c,
            }
        });
        let wall_seconds = t0.elapsed().as_secs_f64();
        assert!(!stats.hung, "benchmark config must complete");
        StepperRun {
            metrics_json: sys.metrics_snapshot().to_json().render(),
            stats,
            wall_seconds,
        }
    };
    let skipping = measure(1);
    let runs = partition_counts
        .iter()
        .map(|&n| PartitionedRun {
            partitions: n,
            run: measure(n),
        })
        .collect();
    PartitionedSweep { skipping, runs }
}

/// The partitioned determinism gate behind `stepper_check --partitions`:
/// the moderate stall-heavy config, run single-threaded and partitioned,
/// rendered as **host-independent** lines (simulated facts and a content
/// digest only — no wall-clock), so `ci.sh` can diff the bytes across
/// `MAPLE_JOBS` values.
///
/// # Errors
///
/// Returns the rendered divergence when the partitioned run is not
/// bit-exact with the single-threaded stepper.
pub fn partitioned_gate(seed: u64, partitions: usize) -> Result<String, String> {
    let a = uniform_sparse(512, 64 * 1024, 8, seed);
    let x = dense_vector(64 * 1024, seed ^ 0x9);
    let inst = Spmv { a, x };
    let run = |partitions: usize| {
        inst.run_observed(Variant::MapleDecoupled, 4, move |c| {
            let c = c.with_maples(2);
            if partitions > 1 {
                c.with_partitions(partitions)
            } else {
                c
            }
        })
    };
    let (seq_stats, seq_sys) = run(1);
    let (part_stats, part_sys) = run(partitions);
    if part_stats != seq_stats {
        return Err(format!(
            "run stats diverged at {partitions} partitions:\npartitioned: {part_stats:?}\n\
             single:      {seq_stats:?}"
        ));
    }
    let seq_json = seq_sys.metrics_snapshot().to_json().render();
    let part_json = part_sys.metrics_snapshot().to_json().render();
    if part_json != seq_json {
        return Err(format!(
            "metrics snapshot JSON diverged at {partitions} partitions"
        ));
    }
    let mut d = maple_fleet::Digest::new(0x5057);
    d.str(&part_json);
    Ok(format!(
        "partitioned gate: {partitions} partitions\n\
         simulated cycles: {}\n\
         verified: {}\n\
         metrics digest: {:#018x}\n\
         partitioned ok: bit-exact across {partitions} partitions",
        part_stats.cycles,
        part_stats.verified,
        d.finish()
    ))
}
