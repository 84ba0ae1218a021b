"""The benchmark harness end to end: one short traced run per workload.

Each run works on a copy of bench/ in a temporary directory, with src/
linked in, so no result lands in the checkout's bench/out/.  Its last
stdout line must be a strict-JSON result (no NaN or Infinity) that
reports every op correct and a number for every metric: a layer whose
wrap targets all left the package reads null.  Because the harness
prints its result last, the library calls its workloads make must write
nothing to stdout, not even at interpreter exit.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("scan-wscc9", "cct-wscc9", "cli-wscc9", "grid-threebus")


def refuse_constant(name: str):
    raise ValueError(f"non-finite JSON constant {name}")


@pytest.fixture(scope="module")
def bench_copy(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("checkout")
    (root / "bench").mkdir()
    for script in (ROOT / "bench").glob("*.py"):
        shutil.copy(script, root / "bench")
    shutil.copytree(ROOT / "bench" / "reference", root / "bench" / "reference")
    (root / "src").symlink_to(ROOT / "src")
    return root


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_ends_in_a_correct_strict_json_result(bench_copy, workload):
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.2", "--trace", "1"],
        cwd=bench_copy, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1], parse_constant=refuse_constant)
    assert result["correct"] is True and result["failed"] == 0, result
    unmeasured = [
        name for name, metric in result["metrics"].items()
        if isinstance(metric["value"], bool) or not isinstance(metric["value"], (int, float))
    ]
    assert not unmeasured, unmeasured
    if workload == "grid-threebus":
        # 81 x 81 nodes, 16 path points each
        assert result["metrics"]["surface.path_points"]["value"] == 6561 * 16


LIBRARY_CALLS = """
import sys

from imeac import (SimulationConfig, SurfaceSpec, compute_energy, find_cct, load_bundled,
                   scan_clearing_times, simulate, solve_postfault_sep, surface_from_trajectories,
                   surface_grid)
from imeac.dynamics import write_trajectory
from imeac.surface import write_surface_grid, write_surface_trajectories

out = sys.argv[1]
wscc, three = load_bundled("wscc9"), load_bundled("threebus_lossless")
scan_clearing_times(wscc, [0.2, 0.12, 0.15], horizon=1.5)
find_cct(wscc, 0.14, 0.172)
for focus, axes, window in [(1, (1, 2), ((-1.0, 1.5), (-1.0, 1.0))),
                            (2, (0, 1), ((-1.0, 1.5), (-2.0, 0.5)))]:  # the second warns
    grid = surface_grid(three, SurfaceSpec(focus, axes, window, grid_n=21))
    with open(out + "/surface.tsv", "w") as stream:
        write_surface_grid(stream, grid)
traj = simulate(wscc, SimulationConfig(t_clear=0.2, t_end=1.2))
channels = compute_energy(wscc, traj, solve_postfault_sep(wscc))
with open(out + "/trajectory.tsv", "w") as stream:
    write_trajectory(stream, traj, channels.ke, channels.pe)
family = tuple(SimulationConfig(t_clear=t, t_end=1.0) for t in (0.15, 0.05, 0.10))
table = surface_from_trajectories(wscc, SurfaceSpec(2, (1, 2), ((-1.0, 1.0), (-1.0, 1.0)),
                                                    trajectory_family=family))
with open(out + "/ribbons.tsv", "w") as stream:
    write_surface_trajectories(stream, table)
"""


def test_library_calls_write_nothing_to_stdout(tmp_path):
    done = subprocess.run(
        [sys.executable, "-c", LIBRARY_CALLS, str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert "past 20 rad" in done.stderr  # warnings reach stderr
    assert done.stdout == ""
    for name in ("surface.tsv", "trajectory.tsv", "ribbons.tsv"):
        assert (tmp_path / name).stat().st_size
