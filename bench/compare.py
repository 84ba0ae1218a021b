"""Compare two sets of benchmark runs, or summarise one set.

    python3 bench/compare.py PARENT_DIR CHANGE_DIR
    python3 bench/compare.py --summary DIR [--write FILE]

A directory holds result records as bench/run.py writes them to
bench/out/results/ (copy that directory away between the two sides).
Untraced records are paired across the two sides by workload and seed.

Decision rule, one row per workload x end-to-end metric of
BENCHMARK.json:

* fewer than 10 pairs: "too few pairs";
* gain: the change wins at least 9 of every 10 pairs (ties count for
  neither side) and the medians differ, in the better direction, by
  more than the parent's interquartile range;
* unresolved: the run-to-run spread (interquartile range over median,
  on either side) exceeds the metric's bound, unless every change run
  reads better than every parent run;
* regression: the change's median is worse than the parent's by more
  than the bound; otherwise "no regression".

A scaled time (bench/calibrate.py) is judged four times, with each side
scaled by either reference kernel, and the row takes the worst case: a
gain (or regression) only when all four say so, "no regression" when
none says regression or unresolved, else "unresolved".  So a change
that shifts an op's work between loop-like and batch-like computation
cannot pass off the host's uneven slowdown of the two as a gain, nor
hide a regression behind it.

The summary gives per workload the median and quartiles of every
metric, the per-layer medians of the traced runs, and the measured
counterpart of each row of the ROADMAP baseline table.
"""

from __future__ import annotations

import argparse
import itertools
import json
import statistics
import sys
from pathlib import Path

from run import END_TO_END_UNITS

ROOT = Path(__file__).resolve().parent.parent
KERNELS = ("loop", "batch")  # bench/calibrate.py; importing it would allocate its buffers
MIN_PAIRS = 10
WIN_SHARE = 0.9

# ROADMAP open-items baseline (2 cores, Python 3.11.7, numpy 2.4.6):
# row -> (value, unit, how this benchmark measures the same quantity)
ROADMAP_BASELINE = {
    "load_bundled wscc9 (raw form + Kron)": (1.4, "ms", "cli-wscc9 trace: caseio.load per call"),
    "solve_postfault_sep": (0.6, "ms", "cli-wscc9 trace: case.sep per call"),
    "simulate 3.1 s @ 1 ms": (366.0, "ms", "scan-wscc9 trace: dynamics.us_per_step x 3100"),
    "compute_energy": (0.4, "ms", "scan-wscc9 trace: energy.compute_energy per call"),
    "detect_events": (16.0, "ms", "scan-wscc9 trace: events.detect per call (3 s horizon)"),
    "assess machines + system": (0.1, "ms", "scan-wscc9 trace: assess.assess_ms per probe"),
    "write_trajectory (TSV)": (98.0, "ms", "cli-wscc9 trace: dynamics.write_trajectory per call"),
    "probe_clearing_time end to end": (421.0, "ms", "scan-wscc9: wall op_p50_ms / 32"),
    "find_cct wscc9, 7 probes": (3060.0, "ms", "cct-wscc9: wall op_p50_ms (seeded bracket, 7 probes)"),
    "scan 32 clearing times, workers=1": (12600.0, "ms", "scan-wscc9: wall op_p50_ms"),
    "surface_grid 81x81 (threebus_lossless)": (860.0, "ms", "grid-threebus: grid.surface_grid_p50_ms"),
}
DIFFERS = 0.10  # relative difference above which a row is marked as differing


def load_records(directory: Path) -> list[dict]:
    return [json.loads(p.read_text()) for p in sorted(directory.rglob("*.json"))]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def decide(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Apply the decision rule to paired values of one metric."""
    n = len(parent)
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = statistics.median(change)
    worse_by = sign * (p_med - c_med) / abs(p_med)
    widest = max(spread(parent), spread(change))
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if n < MIN_PAIRS:
        verdict = "too few pairs"
    elif wins >= WIN_SHARE * n and sign * (c_med - p_med) > p_q3 - p_q1:
        verdict = "gain"
    elif widest > bound and not all_better:
        verdict = "unresolved"
    elif worse_by > bound:
        verdict = "regression"
    else:
        verdict = "no regression"
    return {
        "pairs": n,
        "wins": wins,
        "parent_median": p_med,
        "change_median": c_med,
        "worse_by": worse_by,
        "spread": widest,
        "verdict": verdict,
    }


def untraced_by_seed(records: list[dict]) -> dict[str, dict[int, dict]]:
    out: dict[str, dict[int, dict]] = {}
    for r in records:
        if r["trace"] == 0:
            out.setdefault(r["workload"], {})[r["seed"]] = r
    return out


def scalings(record: dict, name: str) -> dict[str, float]:
    """A metric's value under each reference kernel, or its one value."""
    by_kernel = record["scaled_by_kernel"]
    if all(name in values for values in by_kernel.values()):
        return {kernel: values[name] for kernel, values in by_kernel.items()}
    return {"-": record["metrics"][name]["value"]}


def judge(pairs: list[tuple[dict, dict]], metric: dict) -> tuple[dict, str]:
    """The row of one metric and the per-scaling verdicts behind it."""
    name = metric["name"]
    parent = [scalings(p, name) for p, _ in pairs]
    change = [scalings(c, name) for _, c in pairs]
    rows = {}
    for kp, kc in itertools.product(parent[0], change[0]):
        rows[kp, kc] = decide([p[kp] for p in parent], [c[kc] for c in change],
                              metric["better"], metric["bound"])
    primary = pairs[0][0]["reference_kernel"]["name"]
    row = dict(rows.get((primary, primary)) or next(iter(rows.values())))
    verdicts = {r["verdict"] for r in rows.values()}
    if len(verdicts) == 1:
        return row, ""
    row["verdict"] = "no regression" if verdicts <= {"gain", "no regression"} else "unresolved"
    note = ", ".join(f"{kp}/{kc}: {r['verdict']}" for (kp, kc), r in rows.items())
    return row, f"(parent/change scaling: {note})"


def compare(parent_dir: Path, change_dir: Path) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent = untraced_by_seed(load_records(parent_dir))
    change = untraced_by_seed(load_records(change_dir))
    print("parent/change values: times scaled by the workload's reference kernel")
    print(f"{'workload':<14} {'metric':<12} {'pairs':>5} {'wins':>4} {'parent':>12} "
          f"{'change':>12} {'worse_by':>9} {'spread':>7} {'bound':>6}  verdict")
    for workload in sorted(set(parent) | set(change)):
        seeds = sorted(set(parent.get(workload, {})) & set(change.get(workload, {})))
        pairs = [(parent[workload][s], change[workload][s]) for s in seeds]
        first = sum(1 for p, c in pairs if p["started_utc"] <= c["started_utc"])
        if pairs and abs(first - len(pairs) / 2) > 1:
            print(f"{workload}: parent ran first in {first} of {len(pairs)} pairs; "
                  "alternate the order", file=sys.stderr)
        mixes = [r["kernel_mix"] for pair in pairs for r in pair]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            row, note = judge(pairs, metric) if pairs else (
                {"pairs": 0, "wins": 0, "parent_median": float("nan"),
                 "change_median": float("nan"), "worse_by": float("nan"),
                 "spread": float("nan"), "verdict": "too few pairs"}, "")
            print(f"{workload:<14} {name:<12} {row['pairs']:>5} {row['wins']:>4} "
                  f"{row['parent_median']:>12.6g} {row['change_median']:>12.6g} "
                  f"{row['worse_by']:>+9.3%} {row['spread']:>7.2%} {metric['bound']:>6.0%}  "
                  f"{row['verdict']} {note}".rstrip())
        if mixes:
            print(f"{workload:<14} kernel mix (loop slowdown / batch slowdown) "
                  f"median {statistics.median(mixes):.3f}, range {min(mixes):.3f}-{max(mixes):.3f}")
    return 0


def value_of(entry) -> float:
    return entry["value"] if isinstance(entry, dict) else entry


def unit_of(name: str, entry) -> str:
    """A named metric carries its unit; end_to_end and wall values do not."""
    return entry["unit"] if isinstance(entry, dict) else END_TO_END_UNITS[name]


def summarise(directory: Path) -> dict:
    records = load_records(directory)
    workloads: dict[str, dict] = {}
    for r in records:
        entry = workloads.setdefault(r["workload"], {"untraced": [], "traced": []})
        entry["traced" if r["trace"] else "untraced"].append(r)
    summary: dict = {
        "commits": sorted({str(r["commit"]) for r in records}),
        "seeds": sorted({r["seed"] for r in records}),
        "seconds": sorted({r["seconds"] for r in records}),
        "machine": records[0]["machine"] if records else None,
        "environment": records[0]["environment"] if records else None,
        "workloads": {},
    }
    for workload, entry in sorted(workloads.items()):
        out: dict = {"runs": len(entry["untraced"]), "traced_runs": len(entry["traced"])}
        mixes = [r["kernel_mix"] for r in entry["untraced"]]
        out["kernel_mix"] = {"median": statistics.median(mixes), "min": min(mixes),
                             "max": max(mixes)} if mixes else None
        views = {key: (lambda r, key=key: r[key]) for key in ("end_to_end", "wall", "named")}
        for kernel in KERNELS:
            views[f"scaled_by_{kernel}"] = lambda r, kernel=kernel: r["scaled_by_kernel"][kernel]
        for key, view in views.items():
            names = view(entry["untraced"][0]) if entry["untraced"] else {}
            out[key] = {}
            for name, first in names.items():
                if name == "error_frac":  # reported as failed / attempted below
                    continue
                values = [value_of(view(r)[name]) for r in entry["untraced"]]
                q1, q2, q3 = quartiles(values)
                out[key][name] = {"median": q2, "q1": q1, "q3": q3, "spread": spread(values),
                                  "unit": unit_of(name, first)}
        if entry["traced"]:
            per_layer = {}
            for name, metric in entry["traced"][0]["metrics"].items():
                values = [r["metrics"][name]["value"] for r in entry["traced"]]
                per_layer[name] = {
                    "median": None if None in values else statistics.median(values),
                    "unit": metric["unit"],
                }
            out["per_layer"] = per_layer
            out["inclusive_ms_per_call"] = {
                layer: statistics.median(
                    r["layer_details"]["inclusive_ms_per_call"].get(layer, 0.0)
                    for r in entry["traced"]
                )
                for layer in entry["traced"][0]["layer_details"]["inclusive_ms_per_call"]
            }
        out["attempted"] = sum(r["attempted"] for r in entry["untraced"] + entry["traced"])
        out["failed"] = sum(r["failed"] for r in entry["untraced"] + entry["traced"])
        summary["workloads"][workload] = out
    summary["roadmap_baseline"] = roadmap_rows(summary["workloads"])
    return summary


def roadmap_rows(w: dict) -> dict:
    """The measured counterpart of every ROADMAP baseline row."""

    def get(*path):
        node = w
        for key in path:
            if not isinstance(node, dict) or key not in node:
                return None
            node = node[key]
        return node

    def median(*path):
        value = get(*path)
        return None if value is None else value["median"]

    us_per_step = median("scan-wscc9", "per_layer", "dynamics.us_per_step")
    assess_ms = median("scan-wscc9", "per_layer", "assess.assess_ms")
    probes = median("scan-wscc9", "per_layer", "cct.probes")
    scan_ms = median("scan-wscc9", "wall", "op_p50_ms")
    measured = {
        "load_bundled wscc9 (raw form + Kron)": get("cli-wscc9", "inclusive_ms_per_call", "caseio.load"),
        "solve_postfault_sep": get("cli-wscc9", "inclusive_ms_per_call", "case.sep"),
        "simulate 3.1 s @ 1 ms": None if us_per_step is None else us_per_step * 3100 / 1e3,
        "compute_energy": get("scan-wscc9", "inclusive_ms_per_call", "energy.compute_energy"),
        "detect_events": get("scan-wscc9", "inclusive_ms_per_call", "events.detect"),
        "assess machines + system": None if not probes else assess_ms / probes,
        "write_trajectory (TSV)": get("cli-wscc9", "inclusive_ms_per_call", "dynamics.write_trajectory"),
        "probe_clearing_time end to end": None if scan_ms is None else scan_ms / 32,
        "find_cct wscc9, 7 probes": median("cct-wscc9", "wall", "op_p50_ms"),
        "scan 32 clearing times, workers=1": scan_ms,
        "surface_grid 81x81 (threebus_lossless)": median(
            "grid-threebus", "named", "grid.surface_grid_p50_ms"
        ),
    }
    rows = {}
    for row, (value, unit, how) in ROADMAP_BASELINE.items():
        got = measured[row]
        if got is None:
            note = "not measured in this set"
        else:
            rel = got / value - 1
            note = f"differs by {rel:+.0%}" if abs(rel) > DIFFERS else f"agrees ({rel:+.0%})"
        rows[row] = {"roadmap": value, "measured": got, "unit": unit, "how": how, "note": note}
    return rows


def print_summary(summary: dict) -> None:
    for workload, out in summary["workloads"].items():
        print(f"{workload}: {out['runs']} untraced + {out['traced_runs']} traced runs, "
              f"{out['failed']} failed of {out['attempted']} ops")
        if out["kernel_mix"]:
            mix = out["kernel_mix"]
            print(f"  kernel mix median {mix['median']:.3f} [{mix['min']:.3f}, {mix['max']:.3f}]")
        for key in ("end_to_end", "wall", "named", *(f"scaled_by_{k}" for k in KERNELS)):
            for name, m in out[key].items():
                print(f"  {key + '.' + name:<42} median {m['median']:>12.6g} {m['unit']:<10} "
                      f"[q1 {m['q1']:.6g}, q3 {m['q3']:.6g}] spread {m['spread']:.2%}")
    print("ROADMAP baseline table vs this set")
    for row, r in summary["roadmap_baseline"].items():
        got = "-" if r["measured"] is None else f"{r['measured']:.4g}"
        print(f"  {row:<40} roadmap {r['roadmap']:>8g} {r['unit']:<3} measured {got:>8} {r['note']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("dirs", nargs="+", type=Path, help="PARENT_DIR CHANGE_DIR, or one DIR with --summary")
    parser.add_argument("--summary", action="store_true", help="summarise one set of runs")
    parser.add_argument("--write", type=Path, help="with --summary: also write the summary JSON here")
    args = parser.parse_args(argv)
    if args.summary:
        if len(args.dirs) != 1:
            parser.error("--summary takes one directory")
        summary = summarise(args.dirs[0])
        print_summary(summary)
        if args.write:
            args.write.write_text(json.dumps(summary, indent=1) + "\n")
        return 0
    if len(args.dirs) != 2:
        parser.error("compare takes PARENT_DIR CHANGE_DIR")
    return compare(*args.dirs)


if __name__ == "__main__":
    sys.exit(main())
