//! Benchmark harness: regenerates every table and figure of the paper's
//! evaluation (Section 5) on the simulated SoC.
//!
//! [`experiments`] plans the cases of every simulated figure and runs
//! each distinct one once; [`figures`] renders every figure and table
//! from those rows; the `bench_summary` binary writes them all to
//! `results/` and rolls the headline numbers into `BENCH_maple.json`.
//! The [`instances`] module pins the evaluation-grade problem sizes
//! (gather targets far larger than the caches), and [`report`] renders
//! the result tables.

#![deny(missing_docs)]

pub mod experiments;
pub mod figures;
pub mod instances;
pub mod report;
pub mod scaling;
pub mod serving;
pub mod stepper;
pub mod summary;

pub use report::{banner, FigureReport, SpeedupTable};
