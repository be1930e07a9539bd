//! Host-speed calibration.
//!
//! On a shared host the simulator's speed drifts by tens of percent over
//! minutes while its work stays the same. The benchmark therefore times,
//! before the set-up and before every simulation call of every pass (see
//! `Spans::calibrate`), a small fixed loop of its own that stresses the
//! host the way the simulator does: a cycle loop moving packets through
//! many `VecDeque` queues with a `BTreeMap` of in-flight entries. Its
//! median time in a run gives the run's host speed, and every host-time
//! metric is scaled to [`REFERENCE_SECONDS`], the loop's time on a quiet
//! host. Because the loop belongs to the benchmark, a change to the
//! simulator leaves it alone and shows in full in the scaled metrics.
//!
//! The loop and the reference are the ruler: changing either changes
//! every scaled value and needs a fresh baseline.

use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

/// Seconds [`sample`] takes on a quiet host of the kind the benchmark
/// was built on (2 vCPUs of an Intel Xeon VM).
pub const REFERENCE_SECONDS: f64 = 0.055;

/// Runs the calibration loop once and returns its host seconds.
#[must_use]
pub fn sample() -> f64 {
    const QUEUES: usize = 256;
    const CYCLES: u64 = 10_000;
    let t0 = Instant::now();
    let mut queues: Vec<VecDeque<u64>> = (0..QUEUES as u64)
        .map(|q| (0..4).map(|j| q * 4 + j).collect())
        .collect();
    let mut inflight: BTreeMap<u64, u64> = BTreeMap::new();
    let mut acc = 0u64;
    for cycle in 0..CYCLES {
        for q in 0..QUEUES {
            if let Some(p) = queues[q].pop_front() {
                let dst = ((p.wrapping_mul(0x9e37_79b9) >> 7) as usize + q) % QUEUES;
                if p % 5 == 0 {
                    inflight.insert(p ^ cycle, cycle);
                }
                queues[dst].push_back(p.wrapping_add(cycle));
            }
        }
        while inflight.len() > 512 {
            if let Some((_, v)) = inflight.pop_first() {
                acc = acc.wrapping_add(v);
            }
        }
    }
    black_box(acc);
    t0.elapsed().as_secs_f64()
}

/// Scales a host-time value measured while the calibration loop took
/// `calibration_s` to the reference host speed: times (`s`, `ns`, `us`)
/// shrink on a slow host, rates (`Mcycles/s`) grow; other units pass
/// through unchanged.
#[must_use]
pub fn to_reference(value: f64, unit: &str, calibration_s: f64) -> f64 {
    let slowdown = calibration_s / REFERENCE_SECONDS;
    match unit {
        "s" | "ns" | "us" => value / slowdown,
        "Mcycles/s" => value * slowdown,
        _ => value,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_cancels_a_uniform_slowdown() {
        // A host half as fast doubles both the pass and the calibration
        // time; the scaled values are what the reference host measures.
        let cal = 2.0 * REFERENCE_SECONDS;
        assert!((to_reference(20.0, "s", cal) - 10.0).abs() < 1e-12);
        assert!((to_reference(300.0, "ns", cal) - 150.0).abs() < 1e-12);
        assert!((to_reference(2.0, "Mcycles/s", cal) - 4.0).abs() < 1e-12);
        assert_eq!(to_reference(0.4, "fraction", cal), 0.4);
        assert_eq!(to_reference(17.0, "count", cal), 17.0);
        assert_eq!(to_reference(5.0, "s", REFERENCE_SECONDS), 5.0);
    }

    #[test]
    fn sample_is_positive() {
        assert!(sample() > 0.0);
    }
}
