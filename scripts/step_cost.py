"""Time the RK4 step of two imeac source trees, interleaved in one process.

Loads each tree's ``imeac`` package under its own module name and
reports, per tree, the microseconds per step of:

* a ``RowPool`` of B = 1, 4, 12 and 32 post-fault rows on wscc9 (each
  tree's default block length, so the per-block work is included);
* the ``FaultOnPrefix``, extended over the same number of steps in one
  call.

Every figure is the minimum over the repeats; each repeat times every
configuration of both trees in turn, so a slow spell of a shared host
hits both sides alike.  OLD_ROOT is loaded twice, as two packages timed
as two trees: the ``old/old`` column, their ratio, is the noise floor
of the same session for the ``new/old`` beside it.  Standard library
and numpy only.

Usage:  python scripts/step_cost.py OLD_ROOT NEW_ROOT [--repeats N] [--steps S]
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
import time
from pathlib import Path

ROWS = (1, 4, 12, 32)
DT = 1e-3
FIRST_CLEAR = 100  # sample of the first row's clearing; row r clears 2 r samples later


def load(root: Path, name: str):
    """The imeac package under root/src, imported as ``name``."""
    init = root / "src" / "imeac" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def pool_cost(pkg, case, rows: int, steps: int) -> float:
    """Microseconds per post-fault step of a pool of ``rows`` rows."""
    dynamics = pkg.dynamics
    kernel = dynamics.SwingKernel(case)
    prefix = dynamics.FaultOnPrefix(kernel, case, DT)
    heads = [prefix.state(FIRST_CLEAR + 2 * r) for r in range(rows)]
    pool = dynamics.RowPool(kernel, DT)
    for r, head in enumerate(heads):
        pool.join([r], head, FIRST_CLEAR + 2 * r, steps)
    start = time.perf_counter()
    while pool.size:
        pool.advance()
    return (time.perf_counter() - start) * 1e6 / steps


def prefix_cost(pkg, case, steps: int) -> float:
    """Microseconds per fault-on step of one prefix extension over ``steps`` steps."""
    dynamics = pkg.dynamics
    prefix = dynamics.FaultOnPrefix(dynamics.SwingKernel(case), case, DT)
    start = time.perf_counter()
    prefix.state(steps)
    return (time.perf_counter() - start) * 1e6 / steps


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--repeats", type=int, default=15)
    parser.add_argument("--steps", type=int, default=256)
    args = parser.parse_args(argv)
    roots = {"old": args.old, "old again": args.old, "new": args.new}
    trees = {side: load(root.resolve(), f"imeac_{i}") for i, (side, root) in enumerate(roots.items())}
    cases = {side: pkg.load_case(Path(pkg.__file__).parent / "cases" / "wscc9.json")
             for side, pkg in trees.items()}
    labels = [f"post-fault step, B = {rows}" for rows in ROWS] + ["fault-on prefix step"]
    best = {(side, label): float("inf") for side in trees for label in labels}
    for _ in range(args.repeats):
        for side, pkg in trees.items():
            for rows, label in zip(ROWS, labels):
                cost = pool_cost(pkg, cases[side], rows, args.steps)
                best[side, label] = min(best[side, label], cost)
            cost = prefix_cost(pkg, cases[side], args.steps)
            best[side, labels[-1]] = min(best[side, labels[-1]], cost)
    print(f"us per step, min of {args.repeats} interleaved repeats, {args.steps} steps each")
    print(f"  {'':28s} {'old':>8s} {'new':>8s} {'new/old':>8s} {'old/old':>8s}")
    for label in labels:
        old, again, new = (best[side, label] for side in trees)
        print(f"  {label:28s} {old:8.1f} {new:8.1f} {new / old:8.3f} {again / old:8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
