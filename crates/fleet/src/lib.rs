//! Deterministic parallel execution runtime for the MAPLE workspace.
//!
//! Every experiment in this reproduction — the figure sweeps, the
//! differential oracle grid, the chaos grid, the property suites — is an
//! embarrassingly parallel matrix of independent `System` runs. This
//! crate is the shared runtime that executes such matrices across worker
//! threads without giving up the workspace's bit-exact reproducibility:
//!
//! - [`pool`]: a batch executor over `std::thread` scoped threads that
//!   claim jobs from one shared cursor. A batch of jobs returns its
//!   results **in submission order, bit-identical regardless of worker
//!   count or completion order**; a panicking job becomes a typed
//!   [`pool::JobError`] in its own slot without poisoning the pool.
//! - [`crew`]: a long-lived worker gang for *one* job stepped in many
//!   synchronized rounds — the execution substrate of the soc crate's
//!   partitioned parallel stepper. Rounds apply a pure function to
//!   share-nothing slots, so results are bit-identical at any helper
//!   count (including zero, the sequential reference).
//! - [`digest`]: an in-tree FNV-1a/splitmix64 content digest, stable
//!   across runs and hosts, that the gate binaries print over each run's
//!   metrics so two runs can be byte-diffed on one line.
//!
//! The crate is hermetic by design: std-only, zero dependencies (not even
//! on other workspace crates).
//!
//! # Determinism contract
//!
//! The pool guarantees submission-order collection; it is the *caller's*
//! side of the contract that each job is a pure function of its inputs
//! (the cycle-level simulator is deterministic by construction). Under
//! that contract, `MAPLE_JOBS=1`, `=2` and `=8` produce byte-identical
//! result vectors — asserted by `tests/fleet.rs` and by the
//! `scripts/ci.sh` determinism gate.

#![deny(missing_docs)]

pub mod crew;
pub mod digest;
pub mod pool;

pub use crew::{Conductor, Crew};
pub use digest::Digest;
pub use pool::{into_results, jobs_from_env, run_batch, FleetConfig, JobError};
