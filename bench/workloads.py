"""The four benchmark workloads: seeded inputs, one op, an oracle.

Every workload is closed loop with one client in one process: the next
op starts only when the previous one has returned.  A workload draws a
pool of op inputs from its seed in ``setup``; ``run`` is the timed
call into imeac's public API and gets only those inputs; ``check``
compares the output with an oracle independent of the timed path and
returns the list of problems found (empty when correct).  Every
``setup`` also loads its case and solves the post-fault SEP, the set-up
a session does before its first op, even where the op solves it again.

The inputs for each workload are documented in bench/DESIGN.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import statistics
import time
from pathlib import Path

import imeac
import imeac.cli
import imeac.surface
import numpy as np

BENCH = Path(__file__).resolve().parent
REFERENCE = BENCH / "reference" / "cli_wscc9.json"
POOL = 256  # op inputs drawn per run; ops cycle through the pool
HORIZON = 3.0


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """Highest nearest-rank percentile with at least ten samples beyond it.

    Returns (value, percentile), or None with fewer than 11 samples.
    """
    n = len(values)
    if n < 11:
        return None
    return sorted(values)[n - 11], 100 * (n - 10) / n


def wscc9_stable(k_ms: int) -> bool:
    """wscc9 verdict map on the 1 ms clearing grid (tests/conftest.py)."""
    return k_ms <= 118 or 139 <= k_ms <= 152


class ScanWscc9:
    name = "scan-wscc9"
    api = "scan_clearing_times"
    unit = "probes"
    reference_kernel = "loop"  # bench/calibrate.py

    def setup(self, rng: random.Random) -> None:
        self.case = imeac.load_bundled("wscc9")
        self.sep = imeac.solve_postfault_sep(self.case)
        grid = list(range(110, 173))
        self.pool = [rng.sample(grid, 32) for _ in range(POOL)]
        self.warmup_input = self.pool[0][:1]

    def run(self, k_ms: list[int]):
        return imeac.scan_clearing_times(self.case, [k / 1000 for k in k_ms], horizon=HORIZON)

    def units(self, k_ms: list[int]) -> int:
        return len(k_ms)

    def parts(self, _output) -> dict:
        return {}

    def report(self, e2e: dict, _parts: dict) -> dict:
        return {"scan.probes_per_s": (e2e["work_per_s"], "probes/s")}

    def check(self, k_ms: list[int], results) -> list[str]:
        if len(results) != len(k_ms):
            return [f"{len(results)} results for {len(k_ms)} probes"]
        return [
            f"t_clear={k / 1000:.3f}: stable={r.stable}, expected {wscc9_stable(k)}"
            for k, r in zip(k_ms, results)
            if r.stable != wscc9_stable(k) or abs(r.t_clear - k / 1000) > 1e-12
        ]


class CctWscc9:
    name = "cct-wscc9"
    api = "find_cct"
    unit = "searches"
    reference_kernel = "loop"  # bench/calibrate.py

    def setup(self, rng: random.Random) -> None:
        self.case = imeac.load_bundled("wscc9")
        self.sep = imeac.solve_postfault_sep(self.case)
        # bisection needs 2 + ceil(log2(32)) = 7 probes per op
        self.pool = [(lo, lo + 32) for lo in (rng.randint(139, 151) for _ in range(POOL))]
        # the smallest find_cct: the final 1 ms bracket, two probes
        self.warmup_input = (152, 153)

    def run(self, bracket_ms: tuple[int, int]):
        lo, hi = bracket_ms
        return imeac.find_cct(self.case, lo / 1000, hi / 1000, resolution=1e-3, horizon=HORIZON)

    def units(self, _bracket_ms: tuple[int, int]) -> int:
        return 1

    def parts(self, _output) -> dict:
        return {}

    def report(self, e2e: dict, _parts: dict) -> dict:
        return {"cct.time_to_cct_s": (e2e["op_p50_ms"] / 1e3, "s")}

    def check(self, _bracket_ms: tuple[int, int], result) -> list[str]:
        """The answer only: the probe count is the search method's (cct.probes when traced)."""
        problems = []
        if abs(result.cct - 0.152) > 1e-12 or abs(result.cct_unstable - 0.153) > 1e-12:
            problems.append(f"bracket {result.cct}/{result.cct_unstable}, expected 0.152/0.153")
        if result.mdm != 2:
            problems.append(f"MDM {result.mdm}, expected 2")
        return problems


# numeric fields of a CLI digest are compared within this tolerance;
# everything else (exit codes, verdicts, classifications, event kinds,
# row counts, headers) must match exactly
CLI_RTOL = 1e-6
CLI_ATOL = 1e-9


def _numbers_close(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return abs(a - b) <= CLI_ATOL + CLI_RTOL * abs(b)


class CliWscc9:
    name = "cli-wscc9"
    api = "main"
    unit = "cli-runs"
    reference_kernel = "loop"  # bench/calibrate.py

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir

    def setup(self, rng: random.Random) -> None:
        self.case = imeac.load_bundled("wscc9")
        self.sep = imeac.solve_postfault_sep(self.case)
        self.reference = json.loads(REFERENCE.read_text())
        self.pool = [rng.randint(80, 220) for _ in range(POOL)]
        self.warmup_input = self.pool[0]
        self.out_dir.mkdir(parents=True, exist_ok=True)

    def argv(self, k_ms: int) -> tuple[list[str], list[str]]:
        t = k_ms / 1000
        common = ["bundled:wscc9", "--t-clear", f"{t:.3f}"]
        assess = ["assess", *common, "--t-end", f"{t + 1.0:.3f}", "--out-dir", str(self.out_dir / "assess")]
        simulate = ["simulate", *common, "--t-end", f"{t + 3.0:.3f}", "--out", str(self.out_dir / "traj.tsv")]
        return assess, simulate

    def run(self, k_ms: int):
        parts = {}
        codes = {}
        for argv in self.argv(k_ms):
            stdout, stderr = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = imeac.cli.main(argv)
            parts[argv[0]] = (start, time.perf_counter())
            codes[argv[0]] = (code, stdout.getvalue(), stderr.getvalue())
        return {"parts": parts, "codes": codes}

    def units(self, _k_ms: int) -> int:
        return 2

    def parts(self, output) -> dict:
        """(start, end) of each timed part of the op."""
        return output["parts"] if output else {}

    def report(self, _e2e: dict, parts: dict) -> dict:
        named = {}
        for command in ("assess", "simulate"):
            times = parts.get(command, [])
            if times:
                named[f"cli.{command}_p50_ms"] = (statistics.median(times), "ms")
            high = tail_percentile(times)
            if high:
                value, pct = high
                named[f"cli.{command}_tail_ms"] = (value, f"ms (p{pct:.1f} of {len(times)})")
        return named

    def digest(self, output: dict) -> dict:
        """Reduce one op's outputs to the fields the oracle compares."""
        assess_code, _, _ = output["codes"]["assess"]
        sim_code, sim_out, _ = output["codes"]["simulate"]
        assess_dir = self.out_dir / "assess"
        verdict = json.loads((assess_dir / "verdict.json").read_text())
        events = [json.loads(line) for line in (assess_dir / "events.jsonl").read_text().splitlines()]
        margin_rows = (assess_dir / "margins.tsv").read_text().splitlines()[1:]
        lines = (self.out_dir / "traj.tsv").read_text().splitlines()
        written = [
            assess_dir / "manifest.json",
            self.out_dir / "traj.tsv.manifest.json",
        ]
        manifests = [path.is_file() for path in written]
        # the next op must not find these files if its CLI run writes none
        for path in written + [self.out_dir / "traj.tsv", *assess_dir.iterdir()]:
            path.unlink(missing_ok=True)
        return {
            "assess_exit": assess_code,
            "simulate_exit": sim_code,
            "stable": verdict["stable"],
            "verdict": verdict["verdict"],
            "classifications": [row.split("\t")[1] for row in margin_rows],
            "event_kinds": [[e["machine"], e["kind"], e["swing_index"]] for e in events],
            "near_critical": [bool(e.get("near_critical")) for e in events],
            "manifests": manifests,
            "simulate_stdout": sim_out.split(" to ")[0],
            "trajectory_header": lines[0],
            "trajectory_rows": len(lines) - 1,
            "numeric": {
                "eta_sys": verdict["eta_sys"],
                "event_times": [e["time_s"] for e in events],
                "event_delta_deg": [e["delta_coi_deg"] for e in events],
                "event_residual_ke": [e["residual_ke_pu"] for e in events],
                "trajectory_last_row": [float(v) for v in lines[-1].split("\t")],
            },
        }

    def check(self, k_ms: int, output: dict) -> list[str]:
        got = self.digest(output)
        want = self.reference["points"][str(k_ms)]
        problems = [
            f"t_clear={k_ms / 1000:.3f}: {key} {got[key]!r} != reference {want[key]!r}"
            for key in want
            if key != "numeric" and got[key] != want[key]
        ]
        for key, ref in want["numeric"].items():
            val = got["numeric"][key]
            if len(val) != len(ref) or not all(_numbers_close(a, b) for a, b in zip(val, ref)):
                problems.append(f"t_clear={k_ms / 1000:.3f}: {key} outside tolerance of reference")
        return problems


GRID_N = 81
GRID_CHECK_NODES = 8


class GridThreebus:
    name = "grid-threebus"
    api = "surface_grid"
    unit = "nodes"
    reference_kernel = "batch"  # bench/calibrate.py

    def __init__(self, out_dir: Path):
        self.out_path = out_dir / "surface.tsv"

    def setup(self, rng: random.Random) -> None:
        self.case = imeac.load_bundled("threebus_lossless")
        self.sep = imeac.solve_postfault_sep(self.case)
        pairs = [(0, 1), (0, 2), (1, 2)]
        self.pool = []
        for _ in range(POOL):
            nodes = [(rng.randrange(GRID_N), rng.randrange(GRID_N)) for _ in range(GRID_CHECK_NODES)]
            self.pool.append((rng.randrange(3), rng.choice(pairs), rng.uniform(1.5, 2.5), nodes))
        self.warmup_input = self.pool[0]
        self.out_path.parent.mkdir(parents=True, exist_ok=True)

    def spec(self, inputs) -> imeac.SurfaceSpec:
        focus, (a, b), half, _ = inputs
        cx, cy = self.sep.delta_s[a], self.sep.delta_s[b]
        window = ((cx - half, cx + half), (cy - half, cy + half))
        return imeac.SurfaceSpec(focus_machine=focus, axis_machines=(a, b), window=window, grid_n=GRID_N)

    def run(self, inputs):
        start = time.perf_counter()
        grid = imeac.surface_grid(self.case, self.spec(inputs))
        surface_done = time.perf_counter()
        with self.out_path.open("w") as stream:
            imeac.surface.write_surface_grid(stream, grid)
        end = time.perf_counter()
        return {"grid": grid, "parts": {"surface_grid": (start, surface_done), "write": (surface_done, end)}}

    def units(self, _inputs) -> int:
        return GRID_N * GRID_N

    def parts(self, output) -> dict:
        """(start, end) of each timed part of the op."""
        return output["parts"] if output else {}

    def report(self, e2e: dict, parts: dict) -> dict:
        named = {"grid.nodes_per_s": (e2e["work_per_s"], "nodes/s")}
        for part, times in parts.items():
            named[f"grid.{part}_p50_ms"] = (statistics.median(times), "ms")
        return named

    def check(self, inputs, output) -> list[str]:
        grid = output["grid"]
        spec = self.spec(inputs)
        problems = []
        for i, j in inputs[3]:
            node = imeac.grid_node_angles(self.case, spec, grid.x_axis[i], grid.y_axis[j])
            ref = imeac.pe_line_integral(
                self.case.net_postfault, self.case.machines, self.sep.delta_s, node
            )[spec.focus_machine]
            if not abs(grid.pe[i, j] - ref) <= 1e-9 * max(1.0, abs(ref)):
                problems.append(f"node ({i}, {j}): pe {grid.pe[i, j]!r} != line integral {ref!r}")
        with self.out_path.open() as stream:
            rows = sum(1 for line in stream if line.strip() and not line.startswith("#"))
        if rows != GRID_N * GRID_N:
            problems.append(f"surface file has {rows} rows, expected {GRID_N * GRID_N}")
        if not math.isfinite(float(np.max(np.abs(grid.pe)))):
            problems.append("non-finite PE in grid")
        return problems


def make(name: str, out_dir: Path):
    """The workload called name, writing any files under out_dir."""
    factories = {
        ScanWscc9.name: ScanWscc9,
        CctWscc9.name: CctWscc9,
        CliWscc9.name: lambda: CliWscc9(out_dir),
        GridThreebus.name: lambda: GridThreebus(out_dir),
    }
    return factories[name]()

