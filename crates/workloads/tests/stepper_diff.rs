//! Stepper differential suite: the event-horizon skipping scheduler
//! (`System::run`) must be **bit-exact** with the dense cycle-by-cycle
//! reference loop (`System::dense_run`) — identical cycle counts, run
//! statistics, fault reports, trace event streams, metrics snapshots and
//! occupancy samples — across the oracle variant grid, the chaos
//! schedule grid, and traced runs.
//!
//! The dense stepper is selected through the configuration
//! (`SocConfig::with_dense_stepper`), which reaches every workload entry
//! point via the `run_tuned` tuning closure.

use maple_trace::TraceConfig;
use maple_workloads::bfs::Bfs;
use maple_workloads::data::{dense_vector, uniform_sparse};
use maple_workloads::harness::{RunStats, Variant};
use maple_workloads::oracle::{chaos_schedules, ORACLE_VARIANTS};
use maple_workloads::sdhp::Sdhp;
use maple_workloads::spmv::Spmv;

/// Master seed: fixed so any divergence replays exactly.
const SEED: u64 = 0x57E9_9E87;

fn assert_same(kernel: &str, v: Variant, t: usize, skip: &RunStats, dense: &RunStats) {
    assert_eq!(
        skip, dense,
        "{kernel} {v:?} x{t}: skipping stepper diverged from dense reference\n\
         replay: SEED={SEED:#x}"
    );
    assert!(skip.verified, "{kernel} {v:?} x{t}: wrong result");
}

#[test]
fn grid_spmv_bit_exact() {
    let a = uniform_sparse(24, 4 * 1024, 5, SEED);
    let x = dense_vector(4 * 1024, SEED ^ 0x51);
    let inst = Spmv { a, x };
    // The oracle grid plus the variants it leaves out (LIMA command mode
    // and software prefetch), so every load path crosses the stepper.
    let grid: Vec<(Variant, usize)> = ORACLE_VARIANTS
        .iter()
        .copied()
        .chain([(Variant::MapleLima, 1), (Variant::SwPrefetch { dist: 4 }, 1)])
        .collect();
    for (v, t) in grid {
        let skip = inst.run(v, t);
        let dense = inst.run_tuned(v, t, |c| c.with_dense_stepper());
        assert_same("spmv", v, t, &skip, &dense);
    }
}

#[test]
fn grid_bfs_bit_exact() {
    let graph = uniform_sparse(48, 48, 4, SEED ^ 0xB);
    let root = (0..graph.nrows)
        .find(|&r| !graph.row_range(r).is_empty())
        .unwrap_or(0) as u32;
    let inst = Bfs { graph, root };
    for &(v, t) in &ORACLE_VARIANTS {
        let skip = inst.run(v, t);
        let dense = inst.run_tuned(v, t, |c| c.with_dense_stepper());
        assert_same("bfs", v, t, &skip, &dense);
    }
}

#[test]
fn grid_sdhp_bit_exact() {
    let a = uniform_sparse(24, 2048, 5, SEED ^ 0x5);
    let inst = Sdhp::from_sparse(&a, SEED ^ 0x50);
    for &(v, t) in &ORACLE_VARIANTS {
        let skip = inst.run(v, t);
        let dense = inst.run_tuned(v, t, |c| c.with_dense_stepper());
        assert_same("sdhp", v, t, &skip, &dense);
    }
}

#[test]
fn chaos_grid_bit_exact() {
    // Every named chaos schedule, including the deliberately
    // unrecoverable ack blackout: injected faults, watchdog retries,
    // poisons and the final hang diagnosis must be cycle-identical under
    // both steppers (chaos injections are horizon terms, so a skipped-to
    // cycle lands exactly on the injection).
    let a = uniform_sparse(24, 4 * 1024, 5, SEED ^ 0xC);
    let x = dense_vector(4 * 1024, SEED ^ 0xC1);
    let inst = Spmv { a, x };
    for schedule in chaos_schedules(SEED) {
        let plane = schedule.plane.clone();
        let skip = inst.run_tuned(Variant::MapleDecoupled, 2, {
            let p = plane.clone();
            move |c| c.with_fault_plane(p)
        });
        let dense = inst.run_tuned(Variant::MapleDecoupled, 2, move |c| {
            c.with_fault_plane(plane).with_dense_stepper()
        });
        assert_eq!(
            skip, dense,
            "chaos schedule `{}`: skipping diverged from dense\nreplay: SEED={SEED:#x}",
            schedule.name
        );
        // No claim about recovery here (that is chaos_oracle's contract,
        // which runs the full degradation ladder): only that both
        // steppers tell the same story, hung or not.
        assert_eq!(skip.hung, dense.hung);
    }
}

#[test]
fn partitioned_grid_bit_exact() {
    // The partitions×workers cell grid: every combination of 1/2/4
    // spatial partitions and 1/2/4 workers must reproduce the dense
    // reference byte-for-byte — run stats, the metrics snapshot JSON
    // (which embeds the occupancy histograms sampled on scheduled
    // cycles), everything. 4 cores + 2 engines so a 4-way split
    // exercises real cuts, including zero-engine partitions.
    let a = uniform_sparse(32, 4 * 1024, 5, SEED ^ 0x17);
    let x = dense_vector(4 * 1024, SEED ^ 0x171);
    let inst = Spmv { a, x };
    let tune = |c: maple_soc::SocConfig| c.with_maples(2);
    let (dense_stats, dense_sys) =
        inst.run_observed(Variant::MapleDecoupled, 4, |c| tune(c).with_dense_stepper());
    let dense_json = dense_sys.metrics_snapshot().to_json().render();
    for parts in [1usize, 2, 4] {
        for workers in [1usize, 2, 4] {
            let (stats, sys) = inst.run_observed(Variant::MapleDecoupled, 4, move |c| {
                tune(c).with_partitions(parts).with_partition_workers(workers)
            });
            assert_eq!(
                stats, dense_stats,
                "partitions={parts} workers={workers}: diverged from dense\n\
                 replay: SEED={SEED:#x}"
            );
            assert_eq!(
                sys.metrics_snapshot().to_json().render(),
                dense_json,
                "partitions={parts} workers={workers}: metrics JSON diverged"
            );
        }
    }
}

#[test]
fn partitioned_variant_grid_bit_exact() {
    // Every oracle variant (plus LIMA command mode and software
    // prefetch) through the partitioned stepper at an odd partition
    // count, so uneven cuts and the DeSC pair constraint both fire.
    let a = uniform_sparse(24, 4 * 1024, 5, SEED ^ 0x23);
    let x = dense_vector(4 * 1024, SEED ^ 0x231);
    let inst = Spmv { a, x };
    let grid: Vec<(Variant, usize)> = ORACLE_VARIANTS
        .iter()
        .copied()
        .chain([(Variant::MapleLima, 1), (Variant::SwPrefetch { dist: 4 }, 1)])
        .collect();
    for (v, t) in grid {
        let part = inst.run_tuned(v, t, |c| c.with_partitions(3).with_partition_workers(2));
        let dense = inst.run_tuned(v, t, |c| c.with_dense_stepper());
        assert_eq!(
            part, dense,
            "spmv {v:?} x{t}: partitioned stepper diverged from dense\n\
             replay: SEED={SEED:#x}"
        );
        assert!(part.verified, "spmv {v:?} x{t}: wrong result");
    }
}

#[test]
fn partitioned_chaos_grid_bit_exact() {
    // Chaos injections land hub-side and cross the cut as commands; a
    // reset aimed at an engine in another partition, watchdog retries
    // and retirements must all replay identically — including the final
    // hang diagnosis when the schedule is unrecoverable.
    let a = uniform_sparse(24, 4 * 1024, 5, SEED ^ 0x2C);
    let x = dense_vector(4 * 1024, SEED ^ 0x2C1);
    let inst = Spmv { a, x };
    for schedule in chaos_schedules(SEED ^ 0xFACE) {
        let plane = schedule.plane.clone();
        let part = inst.run_tuned(Variant::MapleDecoupled, 2, {
            let p = plane.clone();
            move |c| {
                c.with_fault_plane(p)
                    .with_partitions(4)
                    .with_partition_workers(4)
            }
        });
        let dense = inst.run_tuned(Variant::MapleDecoupled, 2, move |c| {
            c.with_fault_plane(plane).with_dense_stepper()
        });
        assert_eq!(
            part, dense,
            "chaos schedule `{}`: partitioned diverged from dense\nreplay: SEED={SEED:#x}",
            schedule.name
        );
        assert_eq!(part.hung, dense.hung);
    }
}

#[test]
fn partitioned_traced_streams_identical() {
    // The sharpest probe: per-cycle trace records from per-component
    // rings, merged canonically, must be byte-identical to the dense
    // run's — regardless of which worker emitted them.
    let a = uniform_sparse(16, 2048, 4, SEED ^ 0x37);
    let x = dense_vector(2048, SEED ^ 0x371);
    let inst = Spmv { a, x };
    let (part_stats, part_sys) = inst.run_observed(Variant::MapleDecoupled, 4, |c| {
        c.with_maples(2)
            .with_tracing(TraceConfig::default())
            .with_partitions(4)
            .with_partition_workers(4)
    });
    let (dense_stats, dense_sys) = inst.run_observed(Variant::MapleDecoupled, 4, |c| {
        c.with_maples(2)
            .with_tracing(TraceConfig::default())
            .with_dense_stepper()
    });
    assert_eq!(part_stats, dense_stats, "stats diverged on traced run");
    let part_records = part_sys.trace_records();
    let dense_records = dense_sys.trace_records();
    assert_eq!(
        part_records.len(),
        dense_records.len(),
        "trace record count diverged"
    );
    for (i, (p, d)) in part_records.iter().zip(&dense_records).enumerate() {
        assert_eq!(p, d, "trace record {i} diverged");
    }
    assert_eq!(part_sys.trace_dropped(), dense_sys.trace_dropped());
    assert_eq!(
        part_sys.metrics_snapshot().to_json().render(),
        dense_sys.metrics_snapshot().to_json().render(),
        "metrics snapshot diverged on traced run"
    );
}

/// Wraps a flat configuration in the degenerate hierarchy: one cluster
/// sized exactly to the existing mesh, so the clustered configuration
/// surface is exercised while the simulation must stay byte-identical.
fn one_cluster(c: maple_soc::SocConfig) -> maple_soc::SocConfig {
    let tiles = usize::from(c.mesh_width) * usize::from(c.mesh_height);
    c.with_clusters(maple_soc::ClusterConfig::new(tiles, 1, 1))
}

/// A genuinely hierarchical fabric: 2×2 clusters of 3×3 tiles with one
/// L2 bank per cluster — crossbars, inter-cluster mesh legs and address
/// interleaving all live.
fn clustered(c: maple_soc::SocConfig) -> maple_soc::SocConfig {
    c.with_clusters(maple_soc::ClusterConfig::new(9, 2, 2))
}

#[test]
fn one_cluster_grid_bit_identical_to_flat() {
    // The tentpole's anchor: a hierarchical configuration with a single
    // cluster shaped like the flat mesh must be byte-identical to the
    // flat configuration — run stats AND the full metrics snapshot —
    // across every oracle variant and all three steppers.
    let a = uniform_sparse(24, 4 * 1024, 5, SEED ^ 0x61);
    let x = dense_vector(4 * 1024, SEED ^ 0x611);
    let inst = Spmv { a, x };
    let grid: Vec<(Variant, usize)> = ORACLE_VARIANTS
        .iter()
        .copied()
        .chain([(Variant::MapleLima, 1), (Variant::SwPrefetch { dist: 4 }, 1)])
        .collect();
    for (v, t) in grid {
        let (flat_stats, flat_sys) = inst.run_observed(v, t, |c| c);
        let flat_json = flat_sys.metrics_snapshot().to_json().render();
        let (one_stats, one_sys) = inst.run_observed(v, t, one_cluster);
        assert_eq!(
            one_stats, flat_stats,
            "spmv {v:?} x{t}: 1-cluster hierarchy diverged from flat mesh\n\
             replay: SEED={SEED:#x}"
        );
        assert_eq!(
            one_sys.metrics_snapshot().to_json().render(),
            flat_json,
            "spmv {v:?} x{t}: 1-cluster metrics JSON diverged from flat"
        );
    }
    // The remaining steppers, on the richest variant.
    let (flat_stats, flat_sys) = inst.run_observed(Variant::MapleDecoupled, 2, |c| c);
    let flat_json = flat_sys.metrics_snapshot().to_json().render();
    let modes: Vec<(&str, RunStats, String)> = vec![
        {
            let (s, sys) =
                inst.run_observed(Variant::MapleDecoupled, 2, |c| one_cluster(c).with_dense_stepper());
            ("dense", s, sys.metrics_snapshot().to_json().render())
        },
        {
            let (s, sys) = inst.run_observed(Variant::MapleDecoupled, 2, |c| {
                one_cluster(c).with_partitions(3).with_partition_workers(2)
            });
            ("partitioned", s, sys.metrics_snapshot().to_json().render())
        },
    ];
    for (mode, s, json) in modes {
        assert_eq!(
            s, flat_stats,
            "1-cluster {mode} stepper diverged from flat skipping\nreplay: SEED={SEED:#x}"
        );
        assert_eq!(json, flat_json, "1-cluster {mode} metrics JSON diverged");
    }
}

#[test]
fn one_cluster_chaos_bit_identical_to_flat() {
    // Chaos replay must not notice the degenerate hierarchy either: the
    // flat fabric arm draws the same RNG streams in the same order, and
    // bank 0 draws the historical DRAM stream.
    let a = uniform_sparse(24, 4 * 1024, 5, SEED ^ 0x6C);
    let x = dense_vector(4 * 1024, SEED ^ 0x6C1);
    let inst = Spmv { a, x };
    for schedule in chaos_schedules(SEED ^ 0xC10) {
        let plane = schedule.plane.clone();
        let flat = inst.run_tuned(Variant::MapleDecoupled, 2, {
            let p = plane.clone();
            move |c| c.with_fault_plane(p)
        });
        let one = inst.run_tuned(Variant::MapleDecoupled, 2, {
            let p = plane.clone();
            move |c| one_cluster(c).with_fault_plane(p)
        });
        let one_part = inst.run_tuned(Variant::MapleDecoupled, 2, move |c| {
            one_cluster(c)
                .with_fault_plane(plane)
                .with_partitions(4)
                .with_partition_workers(4)
        });
        assert_eq!(
            one, flat,
            "chaos schedule `{}`: 1-cluster diverged from flat\nreplay: SEED={SEED:#x}",
            schedule.name
        );
        assert_eq!(
            one_part, flat,
            "chaos schedule `{}`: partitioned 1-cluster diverged from flat\nreplay: SEED={SEED:#x}",
            schedule.name
        );
    }
}

#[test]
fn clustered_fabric_steppers_bit_exact() {
    // A live hierarchy (crossbars, mesh legs, 4 L2 banks): no flat
    // reference exists, so the contract is stepper-invariance — dense,
    // skipping and partitioned (cluster-aligned cuts) must agree on run
    // stats and the full metrics snapshot, banked/global namespaces
    // included.
    let a = uniform_sparse(32, 4 * 1024, 5, SEED ^ 0x71);
    let x = dense_vector(4 * 1024, SEED ^ 0x711);
    let inst = Spmv { a, x };
    let tune = |c: maple_soc::SocConfig| clustered(c.with_maples(2));
    let (dense_stats, dense_sys) =
        inst.run_observed(Variant::MapleDecoupled, 4, |c| tune(c).with_dense_stepper());
    assert!(dense_stats.verified, "clustered run computed a wrong result");
    let dense_json = dense_sys.metrics_snapshot().to_json().render();
    let (skip_stats, skip_sys) = inst.run_observed(Variant::MapleDecoupled, 4, tune);
    assert_eq!(
        skip_stats, dense_stats,
        "clustered: skipping diverged from dense\nreplay: SEED={SEED:#x}"
    );
    assert_eq!(
        skip_sys.metrics_snapshot().to_json().render(),
        dense_json,
        "clustered: skipping metrics JSON diverged"
    );
    for parts in [2usize, 4] {
        for workers in [1usize, 4] {
            let (stats, sys) = inst.run_observed(Variant::MapleDecoupled, 4, move |c| {
                tune(c).with_partitions(parts).with_partition_workers(workers)
            });
            assert_eq!(
                stats, dense_stats,
                "clustered partitions={parts} workers={workers}: diverged from dense\n\
                 replay: SEED={SEED:#x}"
            );
            assert_eq!(
                sys.metrics_snapshot().to_json().render(),
                dense_json,
                "clustered partitions={parts} workers={workers}: metrics JSON diverged"
            );
        }
    }
}

#[test]
fn clustered_chaos_grid_bit_exact() {
    // Chaos on the live hierarchy, including mid-run engine resets whose
    // commands cross cluster-aligned partition cuts into the pool of a
    // different cluster, plus the crossbar's own fault sites.
    let a = uniform_sparse(24, 4 * 1024, 5, SEED ^ 0x7C);
    let x = dense_vector(4 * 1024, SEED ^ 0x7C1);
    let inst = Spmv { a, x };
    let tune = |c: maple_soc::SocConfig| clustered(c.with_maples(2));
    for schedule in chaos_schedules(SEED ^ 0xC1A) {
        let plane = schedule.plane.clone();
        let dense = inst.run_tuned(Variant::MapleDecoupled, 2, {
            let p = plane.clone();
            move |c| tune(c).with_fault_plane(p).with_dense_stepper()
        });
        let skip = inst.run_tuned(Variant::MapleDecoupled, 2, {
            let p = plane.clone();
            move |c| tune(c).with_fault_plane(p)
        });
        let part = inst.run_tuned(Variant::MapleDecoupled, 2, move |c| {
            tune(c)
                .with_fault_plane(plane)
                .with_partitions(4)
                .with_partition_workers(4)
        });
        assert_eq!(
            skip, dense,
            "clustered chaos `{}`: skipping diverged from dense\nreplay: SEED={SEED:#x}",
            schedule.name
        );
        assert_eq!(
            part, dense,
            "clustered chaos `{}`: partitioned diverged from dense\nreplay: SEED={SEED:#x}",
            schedule.name
        );
        assert_eq!(skip.hung, dense.hung);
    }
}

#[test]
fn traced_run_streams_identical() {
    // Tracing observes individual cycles, so it is the sharpest probe of
    // skipping correctness: every captured (cycle, event) record must be
    // identical, as must the full metrics snapshot (which carries the
    // occupancy histograms sampled on scheduled cycles).
    let a = uniform_sparse(16, 2048, 4, SEED ^ 0x7);
    let x = dense_vector(2048, SEED ^ 0x71);
    let inst = Spmv { a, x };
    let (skip_stats, skip_sys) = inst.run_observed(Variant::MapleDecoupled, 2, |c| {
        c.with_tracing(TraceConfig::default())
    });
    let (dense_stats, dense_sys) = inst.run_observed(Variant::MapleDecoupled, 2, |c| {
        c.with_tracing(TraceConfig::default()).with_dense_stepper()
    });
    assert_eq!(skip_stats, dense_stats, "stats diverged on traced run");
    let skip_records = skip_sys.trace_records();
    let dense_records = dense_sys.trace_records();
    assert_eq!(
        skip_records.len(),
        dense_records.len(),
        "trace record count diverged"
    );
    for (i, (s, d)) in skip_records.iter().zip(&dense_records).enumerate() {
        assert_eq!(s, d, "trace record {i} diverged");
    }
    assert_eq!(
        skip_sys.metrics_snapshot().to_json().render(),
        dense_sys.metrics_snapshot().to_json().render(),
        "metrics snapshot diverged on traced run"
    );
}
