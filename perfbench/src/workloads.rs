//! The three workloads. Each pass is one closed-loop cycle: set up (make
//! the inputs from the seed, compute the host reference, build a
//! `System`, upload the arrays), then make every simulation call in
//! turn, each starting when the previous one ended.
//!
//! The kernel entry points (`Spmv::run_observed`, `Bfs::run`,
//! `Sdhp::run`) build their own `System`, upload and verify inside the
//! call, and `ServeSim::new` does the same for a session. The set-up
//! phase therefore measures `System::new`, the upload and the host
//! reference standalone, on the same configuration and arrays, so that
//! the cost of each layer shows apart from the simulation.

use std::hint::black_box;

use maple_serve::{Request, ServeConfig, ServeSim};
use maple_soc::{ClusterConfig, SocConfig, System};
use maple_workloads::bfs::Bfs;
use maple_workloads::data::{dense_vector, rmat, uniform_sparse, Csr, Dataset};
use maple_workloads::harness::{config_for, upload_u32};
use maple_workloads::sdhp::Sdhp;
use maple_workloads::slice::upload_tenant;
use maple_workloads::spmv::Spmv;
use maple_workloads::{RunStats, Variant};

use crate::layers::{add_snapshot, fnv, run_stats_counts, simulated_json, Call, Counts};
use crate::spans::Spans;
use crate::stats::geomean;

/// A named workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Evaluation-grade SPMV/SDHP/BFS on the 2-core flat FPGA SoC.
    PaperKernels,
    /// SPMV on the 1024-tile clustered fabric.
    Mempool1024,
    /// A four-tenant serving session on one resident `System`.
    MultiTenant,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperKernels,
        Workload::Mempool1024,
        Workload::MultiTenant,
    ];

    /// The command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperKernels => "paper_kernels",
            Workload::Mempool1024 => "mempool_1024",
            Workload::MultiTenant => "multi_tenant",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The simulated outcome of a pass. Deterministic per seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sim {
    /// Geomean of do-all over maple-dec cycles (1.0 where the workload
    /// has no such pair).
    pub maple_speedup: f64,
    /// Geomean of do-all over LIMA mean load latency (1.0 where the
    /// workload has no such pair).
    pub lima_latency_reduction: f64,
    /// Exact mean simulated latency of one unit of work: a served
    /// request, or one kernel run of the closed loop.
    pub latency_mean_cycles: f64,
    /// Max/min per-tenant throughput (1.0 for the single closed-loop
    /// client of the batch workloads).
    pub fairness: f64,
    /// Median request latency, upper bound of its power-of-two bucket
    /// (0 where the workload serves no requests).
    pub p50_bucket_upper: u64,
    /// 99th-percentile latency, upper bound of its bucket.
    pub p99_bucket_upper: u64,
}

/// What one pass did.
#[derive(Debug)]
pub struct Pass {
    /// Host seconds of the whole pass, set-up included, calibration
    /// samples left out.
    pub wall_s: f64,
    /// Host seconds before the first simulation call.
    pub setup_s: f64,
    /// Every simulation call, in order.
    pub calls: Vec<Call>,
    /// Units of work offered: kernel runs, or served requests.
    pub attempted: u64,
    /// Units of work that failed a check.
    pub failed: u64,
    /// The simulated outcome.
    pub sim: Sim,
    /// The span recorder (no spans unless traced) with the pass's
    /// calibration samples.
    pub spans: Spans,
}

/// Derives an independent input seed for part `k` of a workload.
#[must_use]
pub fn mix(seed: u64, k: u64) -> u64 {
    let mut z = seed ^ k.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The inputs of one workload, ready for its simulation calls.
enum Inputs {
    Paper {
        spmv: Spmv,
        sdhp: Sdhp,
        bfs: Bfs,
    },
    Mempool {
        speedup: Spmv,
        latency: Spmv,
    },
    Serve {
        session: Box<ServeSim>,
        expected: Vec<Vec<Vec<u32>>>,
    },
}

/// Tiles per crossbar cluster and clusters per side of the 1024-tile
/// fabric: 8×8 clusters of 4×4 tiles, as `bench::scaling` builds it.
const CLUSTER_TILES: usize = 16;
const CLUSTER_SIDE: u16 = 8;
/// Cores of the speedup pair on the 1024-tile fabric: two per cluster.
const MEMPOOL_THREADS: usize = 128;
/// Engines on the 1024-tile fabric: one per cluster.
const MEMPOOL_ENGINES: usize = 64;

/// The 1024-tile configuration with `engines` MAPLE instances.
#[must_use]
pub fn mempool_config(cfg: SocConfig, engines: usize) -> SocConfig {
    cfg.with_maples(engines).with_clusters(ClusterConfig::new(
        CLUSTER_TILES,
        CLUSTER_SIDE,
        CLUSTER_SIDE,
    ))
}

/// Paper-kernel instances at the shapes of `maple_bench::instances`
/// (SPMV riscv-l, SDHP kron, BFS wiki), generated from `seed`.
#[must_use]
pub fn paper_instances(seed: u64) -> (Spmv, Sdhp, Bfs) {
    let s = mix(seed, 1);
    let spmv = Spmv {
        a: uniform_sparse(384, 128 * 1024, 8, s),
        x: dense_vector(128 * 1024, s ^ 0x1234),
    };
    let kron = rmat(9, 10, (0.57, 0.19, 0.19, 0.05), mix(seed, 2));
    let sdhp = Sdhp::from_sparse(&kron, mix(seed, 3));
    let bfs = Bfs::new(Dataset::WikiLike, mix(seed, 4));
    (spmv, sdhp, bfs)
}

/// Mempool instances at the shapes of `bench::scaling::measure_scale`
/// for 1024 tiles: the speedup pair's matrix (64 rows per core) and the
/// fixed single-thread latency pair's matrix.
#[must_use]
pub fn mempool_instances(seed: u64) -> (Spmv, Spmv) {
    let speedup = Spmv {
        a: uniform_sparse(64 * MEMPOOL_THREADS, 32 * 1024, 6, mix(seed, 5)),
        x: dense_vector(32 * 1024, mix(seed, 6)),
    };
    let latency = Spmv {
        a: uniform_sparse(64, 8 * 1024, 5, mix(seed, 7)),
        x: dense_vector(8 * 1024, mix(seed, 8)),
    };
    (speedup, latency)
}

/// The serving session: `ServeConfig::standard`'s four tenants, engines
/// and lanes, with every tenant's request count and the seed scaled.
#[must_use]
pub fn serve_config(seed: u64) -> ServeConfig {
    let mut cfg = ServeConfig::standard(mix(seed, 9));
    for t in &mut cfg.tenants {
        t.requests *= SERVE_REQUEST_SCALE;
    }
    cfg
}

/// Multiplier on `ServeConfig::standard`'s request counts, so a session
/// lasts seconds.
pub const SERVE_REQUEST_SCALE: usize = 8;

/// Builds a `System` for `cfg` and uploads `arrays` into it with
/// `System::alloc` + `write_slice_u32`, as the kernel entry points do
/// inside their calls.
fn soc_setup(s: &mut Spans, cfg: SocConfig, arrays: &[&[u32]]) {
    let (mut sys, _) = s.time("soc.system_new", |_| System::new(cfg));
    s.time("soc.upload", |_| {
        for a in arrays {
            black_box(upload_u32(&mut sys, a));
        }
    });
    black_box(sys);
}

/// Set-up: inputs, host reference, `System`/`ServeSim` construction and
/// upload.
fn setup(w: Workload, seed: u64, s: &mut Spans) -> Inputs {
    match w {
        Workload::PaperKernels => {
            let ((spmv, sdhp, bfs), _) = s.time("workloads.dataset_gen", |_| paper_instances(seed));
            s.time("workloads.reference", |_| {
                black_box((spmv.reference(), sdhp.reference(), bfs.reference()))
            });
            let cfg = || config_for(Variant::Doall, 2);
            let unvisited = vec![u32::MAX; bfs.graph.nrows];
            soc_setup(
                s,
                cfg(),
                &[&spmv.a.row_ptr, &spmv.a.col_idx, &spmv.a.values, &spmv.x],
            );
            soc_setup(s, cfg(), &[&sdhp.dense, &sdhp.lin, &sdhp.values]);
            soc_setup(
                s,
                cfg(),
                &[&bfs.graph.row_ptr, &bfs.graph.col_idx, &unvisited],
            );
            Inputs::Paper { spmv, sdhp, bfs }
        }
        Workload::Mempool1024 => {
            let ((speedup, latency), _) =
                s.time("workloads.dataset_gen", |_| mempool_instances(seed));
            s.time("workloads.reference", |_| {
                black_box((speedup.reference(), latency.reference()))
            });
            let cfg = mempool_config(config_for(Variant::Doall, MEMPOOL_THREADS), MEMPOOL_ENGINES);
            let a = &speedup.a;
            soc_setup(s, cfg, &[&a.row_ptr, &a.col_idx, &a.values, &speedup.x]);
            Inputs::Mempool { speedup, latency }
        }
        Workload::MultiTenant => {
            let cfg = serve_config(seed);
            let (tenants, _) = s.time("workloads.dataset_gen", |_| {
                cfg.tenants
                    .iter()
                    .enumerate()
                    .map(|(t, spec)| (spec.dataset(), spec.schedule(t as u64)))
                    .collect::<Vec<((Csr, Vec<u32>), Vec<Request>)>>()
            });
            let (expected, _) = s.time("workloads.reference", |_| {
                tenants
                    .iter()
                    .map(|((a, x), reqs)| reqs.iter().map(|r| r.query.reference(a, x)).collect())
                    .collect::<Vec<Vec<Vec<u32>>>>()
            });
            let (mut sys, _) = s.time("soc.system_new", |_| System::new(cfg.soc_config()));
            s.time("soc.upload", |_| {
                for ((a, x), _) in &tenants {
                    black_box(upload_tenant(&mut sys, a, x));
                }
            });
            black_box(sys);
            let (session, _) = s.time("serve.new", |_| ServeSim::new(cfg));
            Inputs::Serve {
                session: Box::new(session),
                expected,
            }
        }
    }
}

/// Tiles of the simulated SoC.
fn tiles(cfg: &SocConfig) -> u64 {
    u64::from(cfg.mesh_width) * u64::from(cfg.mesh_height)
}

/// Makes one kernel call, records it in `calls` and returns its stats.
/// `engine` marks variants that drive a MAPLE engine; `cfg` is the
/// call's configuration before any tuning (its tile count is used when
/// the call hands back no `System`).
fn kernel_call(
    s: &mut Spans,
    calls: &mut Vec<Call>,
    label: &str,
    engine: bool,
    cfg: &SocConfig,
    call: impl FnOnce() -> (RunStats, Option<System>),
) -> RunStats {
    s.calibrate();
    let ((stats, sys), host_s) = s.time("soc.run", |_| call());
    let mut counts = run_stats_counts(&stats, engine);
    let mut snap_json = String::new();
    let mut call_tiles = tiles(cfg);
    if let Some(sys) = &sys {
        let ((snap, json), _) = s.time("trace.snapshot", |_| {
            let snap = sys.metrics_snapshot();
            let json = simulated_json(&snap);
            (snap, json)
        });
        add_snapshot(&mut counts, &snap, sys, host_s);
        snap_json = json;
        call_tiles = tiles(sys.config());
    }
    calls.push(Call {
        label: label.to_string(),
        host_s,
        cycles: stats.cycles,
        tiles: call_tiles,
        ok: stats.verified && !stats.hung,
        digest: fnv(&[&format!("{stats:?}"), &snap_json]),
        counts,
    });
    stats
}

/// Do-all cycles over `other`'s cycles: the MAPLE speedup.
fn speedup(doall: &RunStats, other: &RunStats) -> f64 {
    doall.cycles as f64 / other.cycles as f64
}

/// Do-all mean load latency over `other`'s.
fn latency_reduction(doall: &RunStats, other: &RunStats) -> f64 {
    doall.mean_load_latency / other.mean_load_latency
}

/// The simulation calls of one pass over prepared inputs. Returns the
/// calls, the units of work attempted and failed, and the outcome.
fn simulate(inputs: Inputs, s: &mut Spans) -> (Vec<Call>, u64, u64, Sim) {
    let mut calls = Vec::new();
    let c = &mut calls;
    let (speedups, reductions) = match inputs {
        Inputs::Serve {
            mut session,
            expected,
        } => return serve_session(&mut session, &expected, s),
        Inputs::Paper { spmv, sdhp, bfs } => {
            let flat = &config_for(Variant::Doall, 2);
            let observed = |v, t| {
                let (st, sys) = spmv.run_observed(v, t, |cfg| cfg);
                (st, Some(sys))
            };
            let spmv_doall = kernel_call(s, c, "spmv/doall/2", false, flat, || {
                observed(Variant::Doall, 2)
            });
            let spmv_dec = kernel_call(s, c, "spmv/maple-dec/2", true, flat, || {
                observed(Variant::MapleDecoupled, 2)
            });
            let spmv_lima = kernel_call(s, c, "spmv/maple-lima/1", true, flat, || {
                observed(Variant::MapleLima, 1)
            });
            let sdhp_doall = kernel_call(s, c, "sdhp/doall/2", false, flat, || {
                (sdhp.run(Variant::Doall, 2), None)
            });
            let sdhp_dec = kernel_call(s, c, "sdhp/maple-dec/2", true, flat, || {
                (sdhp.run(Variant::MapleDecoupled, 2), None)
            });
            let bfs_doall = kernel_call(s, c, "bfs/doall/2", false, flat, || {
                (bfs.run(Variant::Doall, 2), None)
            });
            let bfs_dec = kernel_call(s, c, "bfs/maple-dec/2", true, flat, || {
                (bfs.run(Variant::MapleDecoupled, 2), None)
            });
            let bfs_lima = kernel_call(s, c, "bfs/maple-lima/1", true, flat, || {
                (bfs.run(Variant::MapleLima, 1), None)
            });
            (
                vec![
                    speedup(&spmv_doall, &spmv_dec),
                    speedup(&sdhp_doall, &sdhp_dec),
                    speedup(&bfs_doall, &bfs_dec),
                ],
                vec![
                    latency_reduction(&spmv_doall, &spmv_lima),
                    latency_reduction(&bfs_doall, &bfs_lima),
                ],
            )
        }
        Inputs::Mempool {
            speedup: big,
            latency: small,
        } => {
            let cfg = &mempool_config(config_for(Variant::Doall, MEMPOOL_THREADS), MEMPOOL_ENGINES);
            let run = |inst: &Spmv, v, t, engines| {
                let (st, sys) = inst.run_observed(v, t, |base| mempool_config(base, engines));
                (st, Some(sys))
            };
            let doall = kernel_call(s, c, "spmv/doall/128", false, cfg, || {
                run(&big, Variant::Doall, MEMPOOL_THREADS, MEMPOOL_ENGINES)
            });
            let dec = kernel_call(s, c, "spmv/maple-dec/128", true, cfg, || {
                run(
                    &big,
                    Variant::MapleDecoupled,
                    MEMPOOL_THREADS,
                    MEMPOOL_ENGINES,
                )
            });
            let base = kernel_call(s, c, "spmv-small/doall/1", false, cfg, || {
                run(&small, Variant::Doall, 1, 1)
            });
            let lima = kernel_call(s, c, "spmv-small/maple-lima/1", true, cfg, || {
                run(&small, Variant::MapleLima, 1, 1)
            });
            (
                vec![speedup(&doall, &dec)],
                vec![latency_reduction(&base, &lima)],
            )
        }
    };
    // Every kernel run is one request of the single closed-loop client.
    let sim = Sim {
        maple_speedup: geomean(&speedups),
        lima_latency_reduction: geomean(&reductions),
        latency_mean_cycles: calls.iter().map(|c| c.cycles as f64).sum::<f64>()
            / calls.len() as f64,
        fairness: 1.0,
        p50_bucket_upper: 0,
        p99_bucket_upper: 0,
    };
    let attempted = calls.len() as u64;
    let failed = calls.iter().filter(|c| !c.ok).count() as u64;
    (calls, attempted, failed, sim)
}

/// Runs the serving session and checks every request's output against
/// the benchmark's own host reference.
fn serve_session(
    session: &mut ServeSim,
    expected: &[Vec<Vec<u32>>],
    s: &mut Spans,
) -> (Vec<Call>, u64, u64, Sim) {
    s.calibrate();
    let (summary, host_s) = s.time("serve.run", |_| session.run());
    let ((snap, json), _) = s.time("trace.snapshot", |_| {
        let snap = session.metrics();
        let json = simulated_json(&snap);
        (snap, json)
    });
    let outputs = session.outputs();
    let mut failed = 0u64;
    for (t, want) in expected.iter().enumerate() {
        for (i, w) in want.iter().enumerate() {
            let got = outputs
                .get(t)
                .and_then(|o| o.get(i))
                .and_then(Option::as_ref);
            failed += u64::from(got != Some(w));
        }
    }
    let attempted = expected.iter().map(|e| e.len() as u64).sum::<u64>();
    failed += summary.tenants.iter().map(|t| t.failed).sum::<u64>();
    let sys = session.system();
    let mut counts = Counts::new();
    counts.insert(
        "core.q0_occupancy_sum".into(),
        sys.queue_occupancy(0, 0).mean(),
    );
    counts.insert("core.q0_runs".into(), 1.0);
    add_snapshot(&mut counts, &snap, sys, host_s);
    // The session reloads each lane core per request, which restarts its
    // counters, so the per-core figures (cpu.*, L1 hits, page-walk
    // stalls) would describe only the last request: leave them out.
    for key in ["mem.l1_loads", "mem.l1_hits", "vm.core_ptw_stall_cycles"] {
        counts.remove(key);
    }
    let completed: u64 = summary.tenants.iter().map(|t| t.completed).sum();
    let latency_sum: f64 = summary
        .tenants
        .iter()
        .map(|t| t.mean * t.completed as f64)
        .sum();
    let call = Call {
        label: "serve/session".into(),
        host_s,
        cycles: summary.sim_cycles,
        tiles: tiles(sys.config()),
        ok: summary.verified && failed == 0,
        digest: fnv(&[&format!("{summary:?}"), &json, &format!("{outputs:?}")]),
        counts,
    };
    let out = Sim {
        maple_speedup: 1.0,
        lima_latency_reduction: 1.0,
        latency_mean_cycles: latency_sum / completed.max(1) as f64,
        fairness: summary.fairness(),
        p50_bucket_upper: summary.p50,
        p99_bucket_upper: summary.p99,
    };
    (vec![call], attempted, failed, out)
}

/// One pass: set-up, then every simulation call. `traced` records spans.
/// A host-speed calibration sample precedes the set-up and every call;
/// the pass's wall time leaves the samples out.
#[must_use]
pub fn pass(w: Workload, seed: u64, traced: bool) -> Pass {
    let mut spans = Spans::new(traced);
    let (((calls, attempted, failed, sim), setup_s), pass_s) = spans.time("pass", |s| {
        s.calibrate();
        let (inputs, setup_s) = s.time("setup", |s| setup(w, seed, s));
        (simulate(inputs, s), setup_s)
    });
    let wall_s = pass_s - spans.calibration().iter().sum::<f64>();
    Pass {
        wall_s,
        setup_s,
        calls,
        attempted,
        failed,
        sim,
        spans,
    }
}

/// Set-up alone, for extra `setup_s` samples. Returns its host seconds.
#[must_use]
pub fn setup_only(w: Workload, seed: u64) -> f64 {
    Spans::new(false).time("setup", |s| setup(w, seed, s)).1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_instances_have_the_figure_harness_shapes() {
        let (spmv, sdhp, bfs) = paper_instances(7);
        let (_, riscv_l) = maple_bench::instances::spmv().swap_remove(1);
        let (_, kron) = maple_bench::instances::sdhp().swap_remove(1);
        let (_, wiki) = maple_bench::instances::bfs().swap_remove(0);
        assert_eq!(
            (spmv.a.nrows, spmv.a.ncols, spmv.x.len()),
            (riscv_l.a.nrows, riscv_l.a.ncols, riscv_l.x.len())
        );
        assert_eq!(spmv.a.nnz(), riscv_l.a.nnz());
        assert_eq!(sdhp.dense.len(), kron.dense.len());
        assert_eq!(bfs.graph.nrows, wiki.graph.nrows);
    }

    #[test]
    fn mempool_config_is_the_scaling_sweeps_1024_tile_row() {
        let base = || config_for(Variant::Doall, MEMPOOL_THREADS);
        let ours = mempool_config(base(), MEMPOOL_ENGINES);
        let sweep = maple_bench::scaling::scaled_config(base(), 1024, MEMPOOL_ENGINES);
        assert_eq!(format!("{ours:?}"), format!("{sweep:?}"));
        assert_eq!(
            u32::from(ours.mesh_width) * u32::from(ours.mesh_height),
            1024
        );
    }

    #[test]
    fn serve_config_scales_standard_request_counts_only() {
        let ours = serve_config(3);
        let standard = ServeConfig::standard(mix(3, 9));
        assert_eq!((ours.maples, ours.lanes_per_engine), (2, 2));
        for (a, b) in ours.tenants.iter().zip(&standard.tenants) {
            assert_eq!(a.requests, b.requests * SERVE_REQUEST_SCALE);
            assert_eq!((a.mean_gap, a.rows, a.seed), (b.mean_gap, b.rows, b.seed));
        }
    }

    #[test]
    fn seeds_make_the_inputs() {
        assert_eq!(mix(5, 1), mix(5, 1));
        assert_ne!(mix(5, 1), mix(5, 2));
        assert_ne!(mix(5, 1), mix(6, 1));
        let (a, _) = mempool_instances(1);
        let (b, _) = mempool_instances(1);
        let (c, _) = mempool_instances(2);
        assert_eq!(a.a.col_idx, b.a.col_idx);
        assert_ne!(a.a.col_idx, c.a.col_idx);
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
