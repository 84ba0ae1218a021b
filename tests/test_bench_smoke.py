"""The benchmark harness end to end: one short traced run per workload.

Each run works on a copy of bench/ in a temporary directory, with src/
linked in, so no result lands in the checkout's bench/out/.  Its last
stdout line must be a strict-JSON result (no NaN or Infinity) that
reports every op correct.
"""

from __future__ import annotations

import json
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
    if workload == "grid-threebus":
        # 81 x 81 nodes, 16 path points each
        assert result["metrics"]["surface.path_points"]["value"] == 6561 * 16
