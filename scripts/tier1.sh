#!/usr/bin/env bash
# Tier-1 verification: release build, full test suite, and a scaled-down
# `repro table1` smoke run that must stay inside a wall-time budget and
# produce a well-formed table. Run from the repository root:
#
#   scripts/tier1.sh [smoke-budget-seconds]
#
# The smoke budget (default 120 s) is generous: at --scale 0.25 the sweep
# takes ~2 s on one core with the strided engine; blowing the budget means
# a serious performance regression, not noise.
set -euo pipefail
cd "$(dirname "$0")/.."

BUDGET="${1:-120}"

echo "== tier1: cargo build --release --workspace"
# --workspace so the repro binary itself is rebuilt (a bare root build
# only rebuilds the dct-bench *library* the root package depends on).
cargo build --release --workspace

echo "== tier1: cargo test --workspace -q"
# Every crate's suites, not only the root package's: golden_cycles,
# differential, kernel_differential, race_mutations, chaos, cache_chaos,
# the serve suites, native differential/stress, and the differential
# fuzz smoke (256 cases, each run on the reference walk, the strided fast
# path AND the native threaded backend; all three must agree bit for bit).
cargo test --workspace -q

echo "== tier1: panic-site ratchet"
# New panic!/unwrap() sites must not appear above the pinned baseline
# (scripts/panic_baseline.txt). Each line names a crate (its whole src/
# tree) or a single file under crates/, with its bound. Lowering a count
# is fine — update the baseline downward when you remove panic sites.
# The zero bounds pin code that must never take the process down: the
# memory profiler and race detector observe every access of a run, the
# fused kernels run raw-pointer sweeps in the innermost loop, the chaos
# supervisor heals what it supervises, the native backend runs real
# worker threads, and the serve service runs unattended.
while read -r target pinned; do
    [ -z "$target" ] && continue
    path="crates/$target"
    [ -f "$path" ] || path="crates/$target/src"
    if [ ! -e "$path" ]; then
        echo "tier1 FAIL: panic baseline names $target, but $path does not exist" >&2
        exit 1
    fi
    # `|| true`: grep exits 1 on zero matches, which pipefail would
    # otherwise turn into a silent script death for panic-free targets.
    count=$(grep -rhoE 'panic!|\.unwrap\(\)' "$path" --include='*.rs' | wc -l || true)
    if [ "$count" -gt "$pinned" ]; then
        echo "tier1 FAIL: $path has $count panic!/unwrap() sites (baseline $pinned)" >&2
        echo "  use DctError/Result instead, or justify and bump scripts/panic_baseline.txt" >&2
        exit 1
    fi
    echo "  $target: $count/$pinned"
done < scripts/panic_baseline.txt

echo "== tier1: segment kernels bit-identity (fig8 kernels off vs on)"
# The fused-kernel engine must not perturb a single reported number; the
# interpreter run is the oracle.
kern_on=$(./target/release/repro fig8 --scale 0.15 --procs 8 2>/dev/null)
kern_off=$(./target/release/repro fig8 --scale 0.15 --procs 8 --no-kernels 2>/dev/null)
if [ "$kern_on" != "$kern_off" ]; then
    echo "tier1 FAIL: fig8 output differs between kernels on and --no-kernels" >&2
    diff <(echo "$kern_on") <(echo "$kern_off") >&2 || true
    exit 1
fi
echo "  fig8: bit-identical with kernels on and off"

echo "== tier1: repro --race-check smoke (schedule soundness)"
# Every benchmark x strategy must be certified race-free by the
# happens-before detector — the only oracle that can see missing
# synchronization in a deterministic simulator.
./target/release/repro --race-check --scale 0.1 --procs 8

echo "== tier1: repro explain stencil smoke (memory profiler end-to-end)"
# The explain pipeline must run every strategy with the profiler on,
# render the ranked attribution table, and emit the JSON artifact.
explain_out=$(./target/release/repro explain stencil --scale 0.1 --procs 32 2>/dev/null)
for needle in "why is this slow" "diagnosis:" "false-sh"; do
    if ! grep -q "$needle" <<<"$explain_out"; then
        echo "tier1 FAIL: 'repro explain stencil' output missing '$needle'" >&2
        exit 1
    fi
done
if [ ! -s results/explain_stencil.json ]; then
    echo "tier1 FAIL: results/explain_stencil.json not written" >&2
    exit 1
fi
echo "  explain stencil: table + diagnosis + JSON artifact OK"

echo "== tier1: repro chaos smoke (seeded fault injection, bit-identity)"
# The chaos oracle: a sweep under seeded injected faults (worker panics,
# checkpoint corruption, stuck cells, whole-sweep kills) must converge
# bit-identical to a fault-free sweep. The binary exits non-zero on any
# divergence; we additionally require the seed to actually fire faults.
chaos_out=$(./target/release/repro chaos stencil --scale 0.1 --seed 42 --faults 6 --out results/chaos-smoke 2>/dev/null)
echo "$chaos_out"
if ! grep -q "BIT-IDENTICAL" <<<"$chaos_out"; then
    echo "tier1 FAIL: chaos sweep did not converge bit-identical" >&2
    exit 1
fi
fired=$(grep -c '^  fired' <<<"$chaos_out" || true)
if [ "${fired:-0}" -lt 3 ]; then
    echo "tier1 FAIL: chaos smoke fired only ${fired} fault(s) (need >= 3 to mean anything)" >&2
    exit 1
fi
echo "  chaos: ${fired} faults fired, converged bit-identical"

echo "== tier1: repro native smoke (threaded backend vs simulator)"
# The third leg of the differential oracle, standalone: every benchmark x
# strategy executed on real threads under jitter stress, checksums
# bit-identical to the simulator. The binary exits non-zero on any
# divergence (after dumping a minimized repro to results/).
native_out=$(./target/release/repro native --scale 0.1 --procs 8 --reps 4 2>/dev/null)
echo "$native_out"
if ! grep -q "all 21 cells bit-identical to the simulator" <<<"$native_out"; then
    echo "tier1 FAIL: native backend did not match the simulator on all cells" >&2
    exit 1
fi

echo "== tier1: repro table1 --cache warm rerun (zero executions)"
# The content-addressed cache's acceptance bar: a second run against the
# same store must execute nothing (every cell served by key) and print a
# byte-identical table. Stats go to stderr, so stdout diffs are clean.
rm -rf results/cache-smoke
cold_out=$(./target/release/repro table1 --scale 0.1 --procs 8 \
    --cache --cache-dir results/cache-smoke/cache \
    --out results/cache-smoke/ckpt1 2>results/cache-smoke-cold.err)
if ! grep -q "cells executed 28 served 0" results/cache-smoke-cold.err; then
    echo "tier1 FAIL: cold cached table1 did not execute all 28 cells" >&2
    cat results/cache-smoke-cold.err >&2
    exit 1
fi
warm_out=$(./target/release/repro table1 --scale 0.1 --procs 8 \
    --cache --cache-dir results/cache-smoke/cache \
    --out results/cache-smoke/ckpt2 2>results/cache-smoke-warm.err)
if ! grep -q "cells executed 0 served 28" results/cache-smoke-warm.err; then
    echo "tier1 FAIL: warm cached table1 executed cells (must serve all 28 from the store)" >&2
    cat results/cache-smoke-warm.err >&2
    exit 1
fi
if [ "$cold_out" != "$warm_out" ]; then
    echo "tier1 FAIL: warm cached table1 output differs from the cold run" >&2
    diff <(echo "$cold_out") <(echo "$warm_out") >&2 || true
    exit 1
fi
echo "  table1 --cache: 28 cells cold, 0 executed warm, tables byte-identical"

echo "== tier1: repro serve smoke (HTTP API end-to-end)"
# The sweep service: bind an ephemeral port, submit the suite as a job,
# poll it to completion, and require the served table to be byte-for-byte
# what a direct `repro table1` with the same parameters prints — then a
# clean drain-and-exit through POST /api/shutdown.
rm -rf results/serve-smoke
mkdir -p results/serve-smoke
./target/release/repro serve --port 0 \
    --cache-dir results/serve-smoke/cache --out results/serve-smoke/ckpt \
    --workers 2 \
    >results/serve-smoke/stdout.log 2>results/serve-smoke/stderr.log &
serve_pid=$!
port=""
for _ in $(seq 1 100); do
    port=$(sed -nE 's|.*127\.0\.0\.1:([0-9]+).*|\1|p' results/serve-smoke/stdout.log 2>/dev/null || true)
    [ -n "$port" ] && break
    sleep 0.1
done
if [ -z "$port" ]; then
    echo "tier1 FAIL: serve never reported its listening port" >&2
    cat results/serve-smoke/stderr.log >&2 || true
    kill "$serve_pid" 2>/dev/null || true
    exit 1
fi
sub=$(curl -sS -X POST "http://127.0.0.1:$port/api/sweep" --data '{"scale_milli":100,"procs":8}')
job=$(sed -nE 's|.*"job":([0-9]+).*|\1|p' <<<"$sub")
if [ -z "$job" ]; then
    echo "tier1 FAIL: sweep submission rejected: $sub" >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
fi
state=""
for _ in $(seq 1 600); do
    state=$(curl -sS "http://127.0.0.1:$port/api/job/$job")
    grep -q '"state":"done"' <<<"$state" && break
    sleep 0.2
done
if ! grep -q '"state":"done"' <<<"$state"; then
    echo "tier1 FAIL: serve job $job never finished: $state" >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
fi
table=$(curl -sS "http://127.0.0.1:$port/api/job/$job/table")
direct=$(./target/release/repro table1 --scale 0.1 --procs 8 \
    --cache --cache-dir results/serve-smoke/direct-cache \
    --out results/serve-smoke/direct-ckpt 2>/dev/null)
if [ "$table" != "$direct" ]; then
    echo "tier1 FAIL: served table differs from direct 'repro table1' output" >&2
    diff <(echo "$table") <(echo "$direct") >&2 || true
    kill "$serve_pid" 2>/dev/null || true
    exit 1
fi
curl -sS -X POST "http://127.0.0.1:$port/api/shutdown" >/dev/null
shut=1
for _ in $(seq 1 100); do
    if ! kill -0 "$serve_pid" 2>/dev/null; then shut=0; break; fi
    sleep 0.1
done
if [ "$shut" -ne 0 ]; then
    echo "tier1 FAIL: serve did not exit within 10s of /api/shutdown" >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
fi
wait "$serve_pid" 2>/dev/null || true
if ! grep -q "shut down cleanly" results/serve-smoke/stderr.log; then
    echo "tier1 FAIL: serve exited without draining cleanly" >&2
    cat results/serve-smoke/stderr.log >&2 || true
    exit 1
fi
echo "  serve: submit/poll/fetch matches table1 byte-for-byte, clean shutdown"

echo "== tier1: repro table1 --scale 0.25 smoke (budget ${BUDGET}s)"
start=$(date +%s)
out=$(./target/release/repro table1 --scale 0.25 2>/dev/null)
end=$(date +%s)
elapsed=$((end - start))

echo "$out"
echo "[smoke took ${elapsed}s]"

# The table must contain every benchmark row.
for bench in vpenta lu stencil adi erlebacher swm256 tomcatv; do
    if ! grep -q "$bench" <<<"$out"; then
        echo "tier1 FAIL: '$bench' missing from table1 output" >&2
        exit 1
    fi
done

if [ "$elapsed" -gt "$BUDGET" ]; then
    echo "tier1 FAIL: smoke run took ${elapsed}s > budget ${BUDGET}s" >&2
    exit 1
fi

echo "tier1 OK"
