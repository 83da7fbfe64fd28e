#!/usr/bin/env sh
# Tier-1 gate: formatting, lints, the full test suite, and a short run
# of the hot-path benchmark (which must produce BENCH_hotpath.json).
# Run from anywhere; everything executes at the repository root.
#
# BENCH_hotpath.json schema (written by `cargo bench -p bench --bench
# hotpath`; every entry named here is gated below):
#   results[]        per-M replica rates (batched_pps and one *_pps per
#                    instrumented stage) plus telemetry/latency/span/
#                    disk-writer overheads, each with a signed `_raw`
#                    companion and an `_iqr` [q1, q3] of its block
#                    ratios (the gates read the clamped median; the
#                    IQR is printed beside it)
#   consumer_pool    pooled vs per-queue delivery (pool_speedup)
#   single_hot_queue pool worker scaling on one queue
#                    (hotq_speedup)
#   backend_dispatch mono vs dyn queue calls
#                    (backend_dispatch_overhead, with _raw and _iqr)
#   flow_tracking    per-chunk flow analytics (flow_tracking_overhead,
#                    with _raw and _iqr)
#   latency_slo      tail-latency SLO pair (DESIGN.md section 4.16):
#                    R = 31 vs R = 256 p50/p99/p99.9 under saturating
#                    load, plus the small pool's R x M / pps bound
#                    (reported, not gated); gated
#                    small_pool_p999_ns <= large_pool_p999_ns
set -eu

cd "$(dirname "$0")/.."

echo "==> .rs line totals (tracked per change)"
for dir in crates/core crates/bench crates/apps crates/capdisk tests examples; do
    lines=$(find "$dir" -name '*.rs' -exec cat {} + | wc -l)
    echo "    $dir: $lines"
done

echo "==> cargo fmt --check"
if cargo fmt --version >/dev/null 2>&1; then
    cargo fmt --check
else
    echo "    rustfmt not installed; skipping"
fi

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
if cargo clippy --version >/dev/null 2>&1; then
    cargo clippy --workspace --all-targets -- -D warnings
else
    echo "    clippy not installed; skipping"
fi

echo "==> cargo doc --workspace --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> snapshot schema golden test"
cargo test -q --test snapshot_schema

echo "==> hot-path benchmark (quick mode)"
rm -f BENCH_hotpath.json
CRITERION_QUICK=1 cargo bench -p bench --bench hotpath
if [ ! -f BENCH_hotpath.json ]; then
    echo "FAIL: benchmark did not produce BENCH_hotpath.json" >&2
    exit 1
fi

echo "==> latency-stamping overhead budget (<= 5% at every M)"
# Seal stamps amortize per NIC poll batch and delivery stamps per
# consumer drain call (one lazy clock read each), so the budget holds
# at every chunk size — including the small-M entries where a
# per-chunk stamp used to cost the most.
awk '
    /"m":/            { m = $2 + 0 }
    /"latency_overhead":/ { sub(/,$/, "", $2); ov[m] = $2 + 0; ms[m] = 1 }
    /"latency_overhead_iqr":/ { getline lo; getline hi; iqr[m] = sprintf("[%.2f%%, %.2f%%]", lo * 100, hi * 100) }
    END {
        n = 0; bad = 0
        for (m in ms) {
            n++
            printf "    m=%d latency_overhead=%.2f%% (IQR %s)\n", m, ov[m] * 100, iqr[m]
            if (ov[m] > 0.05) {
                printf "FAIL: latency stamping overhead %.2f%% > 5%% at m=%d\n", ov[m] * 100, m
                bad = 1
            }
        }
        if (n == 0) { print "FAIL: no latency_overhead entries"; exit 1 }
        if (bad) exit 1
    }
' BENCH_hotpath.json

echo "==> span-tracing overhead budget (<= 3% at the largest M)"
# 1-in-N lifecycle spans (stamp bookkeeping, per-stage histograms, the
# mutex-guarded span ring) are measured against the latency-stamped
# baseline at the benchmark's largest M, the paper's operating range;
# smaller M entries are recorded in the JSON for inspection.
awk '
    /"m":/            { m = $2 + 0 }
    /"span_tracing_overhead":/ { sub(/,$/, "", $2); ov[m] = $2 + 0; if (m > max_m) max_m = m }
    /"span_tracing_overhead_iqr":/ { getline lo; getline hi; iqr[m] = sprintf("[%.2f%%, %.2f%%]", lo * 100, hi * 100) }
    END {
        if (max_m == 0) { print "FAIL: no span_tracing_overhead entries"; exit 1 }
        printf "    m=%d span_tracing_overhead=%.2f%% (IQR %s)\n", max_m, ov[max_m] * 100, iqr[max_m]
        if (ov[max_m] > 0.03) {
            printf "FAIL: span tracing overhead %.2f%% > 3%% at m=%d\n", ov[max_m] * 100, max_m
            exit 1
        }
    }
' BENCH_hotpath.json

echo "==> disk-writer encode overhead budget (<= 30% at m=1, <= 50% at the largest M)"
# The capdisk writer encodes pcapng through a precomputed EPB header
# template into cursor-addressed batch storage (pure slice stores, no
# per-packet Vec bookkeeping). At m=1 the stamped baseline does
# comparable per-packet work, so the encode's instruction cost shows
# directly and is gated tight. At large M the baseline runs at memory
# speed without ever reading payload bytes, while the encode must
# stream every payload through the batch buffer — the ratio floors
# near 40% on pure memory traffic (see EXPERIMENTS.md, known
# deviations), so the large-M ceiling only guards against regressing
# back toward the old field-by-field encoder.
awk '
    /"m":/               { m = $2 + 0 }
    /"disk_writer_overhead":/ {
        sub(/,$/, "", $2); ov[m] = $2 + 0
        if (m > max_m) max_m = m
        if (min_m == 0 || m < min_m) min_m = m
    }
    /"disk_writer_overhead_iqr":/ { getline lo; getline hi; iqr[m] = sprintf("[%.2f%%, %.2f%%]", lo * 100, hi * 100) }
    END {
        if (max_m == 0) { print "FAIL: no disk_writer_overhead entries"; exit 1 }
        printf "    m=%d disk_writer_overhead=%.2f%% (IQR %s)  m=%d disk_writer_overhead=%.2f%% (IQR %s)\n", \
            min_m, ov[min_m] * 100, iqr[min_m], max_m, ov[max_m] * 100, iqr[max_m]
        if (ov[min_m] > 0.30) {
            printf "FAIL: disk writer encode overhead %.2f%% > 30%% at m=%d\n", ov[min_m] * 100, min_m
            exit 1
        }
        if (ov[max_m] > 0.50) {
            printf "FAIL: disk writer encode overhead %.2f%% > 50%% at m=%d\n", ov[max_m] * 100, max_m
            exit 1
        }
    }
' BENCH_hotpath.json

echo "==> consumer pool speedup gate (>= 1.5x single consumer at 4q/4w)"
# The consumer pool must beat a single consumer on the same
# skewed workload by overlapping the blocking per-chunk I/O stage
# (DESIGN.md section 4.11). Conservation is asserted inside the bench.
awk '
    /"pool_speedup":/ { sub(/,$/, "", $2); speedup = $2 + 0; seen = 1 }
    END {
        if (!seen) { print "FAIL: no pool_speedup entry in BENCH_hotpath.json"; exit 1 }
        printf "    pool_speedup=%.2fx\n", speedup
        if (speedup < 1.5) {
            printf "FAIL: consumer pool speedup %.2fx < 1.5x\n", speedup
            exit 1
        }
    }
' BENCH_hotpath.json

echo "==> single-hot-queue speedup gate (>= 1.5x, 1q/4w vs 1q/1w)"
# Every pool worker claims from the hot queue's claim queue, so its
# delivery rate must scale with the worker count (DESIGN.md section
# 4.11). Conservation is asserted in the bench.
awk '
    /"hotq_speedup":/ { sub(/,$/, "", $2); speedup = $2 + 0; seen = 1 }
    END {
        if (!seen) { print "FAIL: no hotq_speedup entry in BENCH_hotpath.json"; exit 1 }
        printf "    hotq_speedup=%.2fx\n", speedup
        if (speedup < 1.5) {
            printf "FAIL: single-hot-queue speedup %.2fx < 1.5x\n", speedup
            exit 1
        }
    }
' BENCH_hotpath.json

echo "==> backend dispatch overhead budget (<= 2%, mono vs dyn trait calls)"
# The engine reaches its queues through Arc<dyn BackendQueue> (the
# CaptureBackend abstraction, DESIGN.md section 4.13). The dynamic
# dispatch plus per-frame callback indirection must stay within 2% of
# the monomorphized nicsim path, or the trait boundary has grown a
# real per-packet cost.
awk '
    /"backend_dispatch_overhead":/ { sub(/,$/, "", $2); ov = $2 + 0; seen = 1 }
    /"backend_dispatch_overhead_iqr":/ { getline lo; getline hi; iqr = sprintf("[%.2f%%, %.2f%%]", lo * 100, hi * 100) }
    END {
        if (!seen) { print "FAIL: no backend_dispatch_overhead entry in BENCH_hotpath.json"; exit 1 }
        printf "    backend_dispatch_overhead=%.2f%% (IQR %s)\n", ov * 100, iqr
        if (ov > 0.02) {
            printf "FAIL: backend dispatch overhead %.2f%% > 2%%\n", ov * 100
            exit 1
        }
    }
' BENCH_hotpath.json

echo "==> flow-tracking overhead budget (<= 10% at 1M flows)"
# The per-chunk flow-analytics stage (two-pass batched ingest into a
# pre-warmed million-entry set-associative table, top-K offers, and the
# telemetry delta flush) is measured against the BPF-filtering consumer
# it rides beside. The baseline applies the filter x=10 times — a
# deliberately *light* application load, an order of magnitude below
# the paper's heavy x=300 setting (Figs. 9-10) — so the gate holds even
# when the consumer does little work, not only when its own cost
# dwarfs the flow stage (DESIGN.md section 4.15).
awk '
    /"flow_tracking_overhead":/ { sub(/,$/, "", $2); ov = $2 + 0; seen = 1 }
    /"flow_tracking_overhead_iqr":/ { getline lo; getline hi; iqr = sprintf("[%.2f%%, %.2f%%]", lo * 100, hi * 100) }
    END {
        if (!seen) { print "FAIL: no flow_tracking_overhead entry in BENCH_hotpath.json"; exit 1 }
        printf "    flow_tracking_overhead=%.2f%% (IQR %s)\n", ov * 100, iqr
        if (ov > 0.10) {
            printf "FAIL: flow tracking overhead %.2f%% > 10%%\n", ov * 100
            exit 1
        }
    }
' BENCH_hotpath.json

echo "==> tail-latency SLO gate (small-pool p99.9 <= large-pool p99.9)"
# R alone bounds the sealed backlog (DESIGN.md section 4.16): under
# saturating load the R = 31 pool, whose backlog is at most 31 chunks
# deep, must not show a worse p99.9 than the R = 256 pool. The small
# pool's R x M / pps bound is printed beside it but not gated: measured
# p99.9 has landed above it (one histogram bucket, plus host stalls).
awk '
    /"large_pool_p999_ns":/ { sub(/,$/, "", $2); large = $2 + 0; seen_l = 1 }
    /"small_pool_p999_ns":/ { sub(/,$/, "", $2); small = $2 + 0; seen_s = 1 }
    /"small_pool_bound_ns":/ { sub(/,$/, "", $2); bound = $2 + 0 }
    END {
        if (!seen_l || !seen_s) { print "FAIL: no latency_slo p99.9 entries in BENCH_hotpath.json"; exit 1 }
        printf "    large pool p99.9=%dus  small pool p99.9=%dus (bound %dus)\n", large / 1000, small / 1000, bound / 1000
        if (small > large) {
            printf "FAIL: small-pool p99.9 %dus exceeds large-pool p99.9 %dus\n", small / 1000, large / 1000
            exit 1
        }
    }
' BENCH_hotpath.json

echo "==> BENCH_hotpath.json gated-entry completeness"
# Every key a gate above reads must be present: a refactor that drops
# one from the benchmark output must fail here, not silently skip its
# gate on the next edit.
for key in latency_overhead span_tracing_overhead disk_writer_overhead pool_speedup hotq_speedup backend_dispatch_overhead flow_tracking_overhead latency_slo large_pool_p999_ns small_pool_p999_ns; do
    if ! grep -q "\"$key\":" BENCH_hotpath.json; then
        echo "FAIL: BENCH_hotpath.json is missing gated entry \"$key\"" >&2
        exit 1
    fi
done
echo "    all gated keys present"

echo "==> backend conformance suite (nicsim + shmring, release)"
# Both CaptureBackend implementations must pass the identical
# conservation, zero-allocation, and teardown contracts — the suites
# iterate over [nicsim, shmring] internally and label failures by
# backend name.
cargo test -q --release --test engine_conformance
cargo test -q --release --test offload_conservation

echo "==> claim CAS protocol: exhaustive two-thread interleavings"
cargo test -q --release --test claim_interleavings

echo "==> in-order claim conservation (reorder buffer + forced stop)"
cargo test -q --release --test inorder_conservation

echo "==> pool conservation smoke (off-shard claiming, deque primitive, forced stop)"
cargo test -q --release --test steal_conservation

echo "==> flow-count conservation (eviction pressure, forced stop, ordered and unordered)"
cargo test -q --release --test flow_conservation

echo "==> multi-core delivery scaling point (2 workers, small)"
# Writes to a scratch directory so the full-scale results/ artifacts
# referenced by EXPERIMENTS.md are not clobbered by the smoke run.
cargo run -q --release -p bench --bin fig_scaling -- --small --out target/check-scaling

echo "==> online flow analytics point (2k flows, 2 workers, small)"
# Conservation and (eviction-free) exact top-16 are asserted inside
# the binary at every point.
cargo run -q --release -p bench --bin fig_flows -- --small --out target/check-flows

echo "==> tail-latency sweep point (pool size x load, small)"
# Conservation is asserted inside the binary at every point; the
# headline pair (largest pool, saturating load) is echoed in the
# table title.
cargo run -q --release -p bench --bin fig_latency -- --small --out target/check-latency

echo "==> capture-and-save sweep (5 paced points, small)"
# Disk-leg conservation (delivered == written + disk_drop) is asserted
# inside the binary at every point; injection runs on the harness
# pacer (apps::live::inject).
cargo run -q --release -p bench --bin fig_capture_save -- --small --out target/check-capture-save

echo "==> EXPERIMENTS.md tables match the committed results/*.json"
# The smoke runs above write under target/, so results/ stays the
# reference the EXPERIMENTS tables are rendered from.
if command -v python3 >/dev/null 2>&1; then
    python3 scripts/experiments_tables.py --check
else
    echo "    python3 not installed; skipping"
fi

echo "==> end-to-end benchmark builds and passes its tests (e2ebench, release)"
# e2ebench is its own workspace against the engine's public API: an API
# change that breaks the benchmark fails here, not at benchmark time.
cargo test --release --offline --manifest-path e2ebench/Cargo.toml

echo "==> capture-to-disk smoke (conservation + rotation + degradation)"
cargo test -q --test capture_to_disk

echo "==> scrape endpoint + sampler escape hatch (live run)"
# Covers both ends of the env contract: endpoint live during a real
# threaded capture run, and engines still building/running with the
# sampler disabled (WIRECAP_TELEMETRY_SAMPLE_MS=0).
cargo test -q --test telemetry_endpoint

echo "==> /trace.json is valid Chrome trace-event JSON"
# The telemetry_endpoint test scrapes a fully span-sampled live run and
# leaves the /trace.json body at target/check-trace.json. Validate it
# as what chrome://tracing / Perfetto load: a JSON array of event
# objects, each carrying ph/ts/pid/tid.
if [ ! -f target/check-trace.json ]; then
    echo "FAIL: telemetry_endpoint did not leave target/check-trace.json" >&2
    exit 1
fi
if command -v python3 >/dev/null 2>&1; then
    python3 - <<'EOF'
import json, sys
with open("target/check-trace.json") as f:
    events = json.load(f)
assert isinstance(events, list), "trace must be an array"
assert events, "trace must not be empty"
for e in events:
    assert isinstance(e, dict), f"non-object event: {e!r}"
    for key in ("ph", "ts", "pid", "tid"):
        assert key in e, f"event missing {key}: {e!r}"
assert any(e["ph"] == "X" for e in events), "no complete (span) events"
print(f"    {len(events)} trace events, all carrying ph/ts/pid/tid")
EOF
else
    # No python3: structural spot checks only.
    head -c1 target/check-trace.json | grep -q '\[' || {
        echo "FAIL: trace.json is not a JSON array" >&2; exit 1; }
    for key in '"ph"' '"ts"' '"pid"' '"tid"'; do
        grep -q "$key" target/check-trace.json || {
            echo "FAIL: trace.json has no $key fields" >&2; exit 1; }
    done
    echo "    trace.json structural checks passed (python3 unavailable)"
fi

echo "==> escape hatch: figure harness runs with the sampler disabled"
WIRECAP_TELEMETRY_SAMPLE_MS=0 WIRECAP_TELEMETRY_LISTEN= \
    cargo run -q --release --example quickstart >/dev/null

echo "==> all checks passed"
