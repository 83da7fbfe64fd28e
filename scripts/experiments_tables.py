#!/usr/bin/env python3
"""Renders the EXPERIMENTS.md tables for `fig_scaling`, its hot-queue
sweep and `fig_latency` from the committed `results/*.json`.

Run from the repository root after regenerating the results:

    cargo run --release -p bench --bin fig_scaling
    cargo run --release -p bench --bin fig_latency
    python3 scripts/experiments_tables.py

and paste each printed table over the one under the matching heading.
"""

import json
import sys
from pathlib import Path

RESULTS = Path(sys.argv[1] if len(sys.argv) > 1 else "results")


def load(name):
    return json.loads((RESULTS / f"{name}.json").read_text())


def num(x):
    """Integer with thin-space thousands separators, as EXPERIMENTS uses."""
    return f"{round(x):,}".replace(",", " ")


def table(header, rows):
    print("| " + " | ".join(header) + " |")
    print("|" + "---|" * len(header))
    for row in rows:
        print("| " + " | ".join(row) + " |")
    print()


def scaling():
    doc = load("fig_scaling")
    print(f"fig_scaling ({doc['packets_per_point']} packets per point):\n")
    table(
        ["mode", "queues", "workers", "pps", "stolen chunks"],
        [
            [p["mode"], str(p["queues"]), str(p["workers"]), num(p["pps"]), num(p["stolen_chunks"])]
            for p in doc["points"]
        ],
    )
    print(
        f"pool_speedup = {doc['pool_speedup']:.2f}x at "
        f"{doc['speedup_queues']}q/{doc['speedup_workers']}w\n"
    )


def hotq():
    doc = load("fig_scaling_hotq")
    print(f"fig_scaling_hotq ({doc['packets_per_point']} packets per point):\n")
    table(
        ["mode", "workers", "pps", "claim contention", "parks"],
        [
            [p["mode"], str(p["workers"]), num(p["pps"]), num(p["claim_contention"]), num(p["worker_parks"])]
            for p in doc["points"]
        ],
    )
    print(f"hotq_speedup = {doc['hotq_speedup']:.2f}x at 1q/{doc['speedup_workers']}w\n")


def latency():
    doc = load("fig_latency")
    m = doc["cells_per_chunk"]
    print(f"fig_latency ({doc['packets_per_point']} packets per point, M = {m}):\n")
    rows = []
    for p in doc["points"]:
        saturating = p["offered_pps"] == 0
        # Under saturation a FIFO claim queue holds at most R_eff chunks,
        # each served in M / pps seconds on average: the p99.9 bound.
        bound = num(p["r_effective"] * m * 1e6 / p["pps"]) if saturating else "—"
        rows.append(
            [
                p["mode"],
                str(p["pool_chunks"]),
                str(p["r_effective"]),
                "sat." if saturating else f"{p['offered_pps'] // 1000} k",
                num(p["pps"]),
                num(p["p50_ns"] / 1e3),
                num(p["p99_ns"] / 1e3),
                num(p["p999_ns"] / 1e3),
                bound,
            ]
        )
    table(
        ["mode", "R_cfg", "R_eff", "load", "pps", "p50 µs", "p99 µs", "p99.9 µs", "R_eff × service µs"],
        rows,
    )


if __name__ == "__main__":
    scaling()
    hotq()
    latency()
