#!/usr/bin/env bash
# Hermetic CI gate for the MAPLE workspace.
#
# Everything here runs with --offline: the workspace has zero crates.io
# dependencies by design (all deps are in-tree path crates), so a fresh
# checkout builds and tests with no network and no pre-populated cargo
# registry. If a dependency on an external crate ever sneaks in, the
# resolution step below is the first thing that fails.
#
# Usage: scripts/ci.sh

set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> dependency audit: workspace must resolve offline with zero crates.io deps"
# cargo tree prints only workspace-local path crates when the workspace is
# hermetic; any registry dependency shows up with a version source.
if cargo tree --offline --workspace --edges normal,build,dev 2>/dev/null \
    | grep -E '\(registry|crates\.io' ; then
    echo "ERROR: external (crates.io) dependency found in the tree above" >&2
    exit 1
fi

echo "==> tier-1 gate: release build"
cargo build --offline --workspace --release

echo "==> tier-1 gate: tests"
cargo test --offline --workspace -q

echo "==> perfbench: the benchmark's own tests"
# perfbench is a separate Cargo workspace, so the tier-1 stage above never
# builds it; its tests dev-depend on maple-bench and check that the
# benchmark's workload shapes still match the figure harness.
cargo test --offline --release -q --manifest-path perfbench/Cargo.toml

echo "==> chaos: fixed-seed fault-injection grid + generated schedules"
# The grid (named schedules x kernels) is fully fixed-seed; the property
# test generates MAPLE_CHAOS_CASES random schedules on top (default 6 —
# raise it for long soak runs, e.g. MAPLE_CHAOS_CASES=200 scripts/ci.sh).
cargo test --offline --release -p maple-workloads --test chaos_oracle -q
MAPLE_CHAOS_CASES="${MAPLE_CHAOS_CASES:-6}" \
    cargo test --offline --release -p maple-workloads --test chaos_prop -q

echo "==> fleet: oracle grid must be bit-identical across worker counts"
# The determinism contract of the maple-fleet executor: the full oracle
# grid (differential variants x kernels + fixed-seed chaos schedules)
# prints the same bytes no matter how many workers run it.
MAPLE_JOBS=1 cargo run --offline --release -q -p maple-bench --bin oracle_grid \
    > target/oracle_grid_jobs1.txt
MAPLE_JOBS=4 cargo run --offline --release -q -p maple-bench --bin oracle_grid \
    > target/oracle_grid_jobs4.txt
if ! diff target/oracle_grid_jobs1.txt target/oracle_grid_jobs4.txt; then
    echo "ERROR: oracle grid output differs between MAPLE_JOBS=1 and =4" >&2
    exit 1
fi
echo "    fleet ok: $(wc -l < target/oracle_grid_jobs1.txt) grid rows identical at 1 and 4 workers"

echo "==> stepper: dense vs event-horizon skipping must be bit-exact"
# One stall-heavy SPMV config runs under both steppers; the binary exits
# nonzero on any divergence in the final cycle count, the run stats, or
# the MetricsSnapshot JSON. Its closing line is the perf smoke: host
# throughput (Mcycles/s) for both loops and the skipping speedup.
cargo run --offline --release -q -p maple-bench --bin stepper_check \
    | tee target/stepper_check.txt | tail -n 1
grep -q "stepper ok: bit-exact" target/stepper_check.txt

echo "==> stepper: partitioned run must be bit-exact at any worker count"
# The partitioned parallel stepper shards one System into 4 spatial
# partitions; the gate compares it against the single-threaded stepper
# and prints only host-independent lines (simulated facts + a metrics
# digest), so the output must be byte-identical at 1 and 4 workers.
MAPLE_JOBS=1 cargo run --offline --release -q -p maple-bench --bin stepper_check \
    -- --partitions 4 > target/partitioned_gate_jobs1.txt
MAPLE_JOBS=4 cargo run --offline --release -q -p maple-bench --bin stepper_check \
    -- --partitions 4 > target/partitioned_gate_jobs4.txt
if ! diff target/partitioned_gate_jobs1.txt target/partitioned_gate_jobs4.txt; then
    echo "ERROR: partitioned gate output differs between MAPLE_JOBS=1 and =4" >&2
    exit 1
fi
grep -q "partitioned ok: bit-exact" target/partitioned_gate_jobs1.txt
echo "    $(tail -n 1 target/partitioned_gate_jobs1.txt), identical at 1 and 4 workers"

echo "==> serving: multi-tenant oracle grid must be bit-exact at any worker count"
# The serving gate runs the multi-tenant differential oracle over every
# stepper × chaos cell plus the engine-kill ladder cell,
# printing only host-independent lines (percentiles, fairness, switch
# counters, a metrics digest). Byte-diffing across MAPLE_JOBS values
# proves tenant isolation holds regardless of fleet parallelism.
MAPLE_JOBS=1 cargo run --offline --release -q -p maple-bench --bin serve_check \
    > target/serve_gate_jobs1.txt
MAPLE_JOBS=4 cargo run --offline --release -q -p maple-bench --bin serve_check \
    > target/serve_gate_jobs4.txt
if ! diff target/serve_gate_jobs1.txt target/serve_gate_jobs4.txt; then
    echo "ERROR: serving gate output differs between MAPLE_JOBS=1 and =4" >&2
    exit 1
fi
grep -q "serve ok: bit-exact" target/serve_gate_jobs1.txt
echo "    $(tail -n 1 target/serve_gate_jobs1.txt), identical at 1 and 4 workers"

echo "==> scale smoke: 256-tile hierarchical fabric, bit-exact at any worker count"
# A MemPool-scale configuration (16 crossbar clusters of 16 tiles, 32
# cores, 16 engines, 16 interleaved L2 banks) through the skipping and
# 4-partition steppers. Host-independent lines only, byte-diffed across
# MAPLE_JOBS; the wall-clock budget guards against the hierarchy making
# large fabrics accidentally quadratic to simulate.
SCALE_T0=$SECONDS
MAPLE_JOBS=1 cargo run --offline --release -q -p maple-bench --bin stepper_check \
    -- --scale 256 > target/scale_gate_jobs1.txt
MAPLE_JOBS=4 cargo run --offline --release -q -p maple-bench --bin stepper_check \
    -- --scale 256 > target/scale_gate_jobs4.txt
SCALE_WALL=$((SECONDS - SCALE_T0))
if ! diff target/scale_gate_jobs1.txt target/scale_gate_jobs4.txt; then
    echo "ERROR: scale gate output differs between MAPLE_JOBS=1 and =4" >&2
    exit 1
fi
grep -q "scale ok: bit-exact at 256 tiles" target/scale_gate_jobs1.txt
SCALE_BUDGET=120
if [ "$SCALE_WALL" -gt "$SCALE_BUDGET" ]; then
    echo "ERROR: 256-tile scale smoke took ${SCALE_WALL}s (budget ${SCALE_BUDGET}s)" >&2
    exit 1
fi
echo "    $(tail -n 1 target/scale_gate_jobs1.txt), identical at 1 and 4 workers (${SCALE_WALL}s)"

echo "==> lint: clippy, warnings are errors"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> docs gate: rustdoc builds warning-clean, intra-doc links resolve"
RUSTDOCFLAGS="-D warnings -D rustdoc::broken-intra-doc-links" \
    cargo doc --offline --no-deps --workspace -q

echo "==> trace smoke: traced SPMV run exports a valid, non-empty trace"
cargo run --offline --release -q --example trace_spmv > /dev/null
python3 - <<'PY'
import json
with open("target/trace_spmv.json") as f:
    doc = json.load(f)
events = doc["traceEvents"]
assert len(events) > 100, f"trace too small: {len(events)} events"
phases = {e["ph"] for e in events}
for ph in ("B", "E", "X", "C", "M"):
    assert ph in phases, f"missing phase {ph}"
print(f"    trace ok: {len(events)} events, phases {sorted(phases)}")
PY

echo "==> stepper: partitioned throughput floor (skipped honestly on 1-core hosts)"
# The speedup expectation is host-dependent: a 1-core container pins the
# parallel stepper at ~1.0x no matter the partition count, so the gate
# skips itself there (with an explicit message) instead of faking a
# pass or failing spuriously. Bit-exactness above is never skipped.
cargo run --offline --release -q -p maple-bench --bin stepper_check \
    -- --speedup-floor 1.2 | tee target/stepper_speedup.txt
grep -Eq "stepper speedup gate" target/stepper_speedup.txt

echo "==> CI gate passed"
