#!/usr/bin/env python3
"""Renders the EXPERIMENTS.md tables for `fig_scaling`, its hot-queue
sweep and `fig_latency` from the committed `results/*.json`.

Run from the repository root after regenerating the results:

    cargo run --release -p bench --bin fig_scaling
    cargo run --release -p bench --bin fig_latency
    python3 scripts/experiments_tables.py

and paste each printed table over the one under the matching heading.

    python3 scripts/experiments_tables.py --check

renders the same tables and compares each with the first table under
its heading in EXPERIMENTS.md; it prints a diff and exits 1 on any
difference.
"""

import argparse
import difflib
import json
import sys
from pathlib import Path


def num(x):
    """Integer with thin-space thousands separators, as EXPERIMENTS uses."""
    return f"{round(x):,}".replace(",", " ")


def table(header, rows):
    lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    lines += ["| " + " | ".join(row) + " |" for row in rows]
    return lines


def scaling(doc):
    rows = [
        [p["mode"], str(p["queues"]), str(p["workers"]), num(p["pps"]), num(p["stolen_chunks"])]
        for p in doc["points"]
    ]
    return (
        f"fig_scaling ({doc['packets_per_point']} packets per point):",
        table(["mode", "queues", "workers", "pps", "stolen chunks"], rows),
        f"pool_speedup = {doc['pool_speedup']:.2f}x at "
        f"{doc['speedup_queues']}q/{doc['speedup_workers']}w",
    )


def hotq(doc):
    rows = [
        [p["mode"], str(p["workers"]), num(p["pps"]), num(p["claim_contention"]), num(p["worker_parks"])]
        for p in doc["points"]
    ]
    return (
        f"fig_scaling_hotq ({doc['packets_per_point']} packets per point):",
        table(["mode", "workers", "pps", "claim contention", "parks"], rows),
        f"hotq_speedup = {doc['hotq_speedup']:.2f}x at 1q/{doc['speedup_workers']}w",
    )


def latency(doc):
    m = doc["cells_per_chunk"]
    rows = []
    for p in doc["points"]:
        bound = p["backlog_bound_ns"]
        rows.append(
            [
                str(p["pool_chunks"]),
                f"{p['offered_pps'] // 1000} k" if p["offered_pps"] else "sat.",
                num(p["pps"]),
                num(p["p50_ns"] / 1e3),
                num(p["p99_ns"] / 1e3),
                num(p["p999_ns"] / 1e3),
                "—" if bound is None else num(bound / 1e3),
            ]
        )
    return (
        f"fig_latency ({doc['packets_per_point']} packets per point, M = {m}):",
        table(["R", "load", "pps", "p50 µs", "p99 µs", "p99.9 µs", "R × service µs"], rows),
        None,
    )


EXPERIMENTS = Path("EXPERIMENTS.md")

# (results file, renderer, EXPERIMENTS.md heading prefix)
TABLES = [
    ("fig_scaling", scaling, "### `bin/fig_scaling` — multi-core delivery scaling"),
    ("fig_scaling_hotq", hotq, "### `bin/fig_scaling` hot-queue sweep"),
    ("fig_latency", latency, "### `bin/fig_latency`"),
]


def documented_table(doc_lines, heading):
    """The first markdown table after the line starting with `heading`."""
    start = next((i for i, line in enumerate(doc_lines) if line.startswith(heading)), None)
    if start is None:
        return None
    rows = []
    for line in doc_lines[start + 1 :]:
        if line.startswith("#"):
            break
        if line.startswith("|"):
            rows.append(line)
        elif rows:
            break
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("results", nargs="?", default="results", type=Path)
    ap.add_argument("--check", action="store_true", help="compare with EXPERIMENTS.md instead of printing")
    args = ap.parse_args()

    doc_lines = EXPERIMENTS.read_text().splitlines() if args.check else []
    failed = False
    for name, render, heading in TABLES:
        doc = json.loads((args.results / f"{name}.json").read_text())
        title, rendered, footer = render(doc)
        if not args.check:
            print(title + "\n")
            print("\n".join(rendered) + "\n")
            if footer:
                print(footer + "\n")
            continue
        documented = documented_table(doc_lines, heading)
        if documented is None:
            print(f"FAIL: no heading starting with {heading!r} in {EXPERIMENTS}")
            failed = True
        elif documented != rendered:
            print(f"FAIL: the {name} table in {EXPERIMENTS} differs from {args.results}/{name}.json:")
            sys.stdout.writelines(
                line + "\n"
                for line in difflib.unified_diff(
                    documented, rendered, f"{EXPERIMENTS}", f"{args.results}/{name}.json", lineterm=""
                )
            )
            failed = True
        else:
            print(f"    {name}: {len(rendered) - 2} rows match {args.results}/{name}.json")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
