"""Time the RK4 step of two imeac source trees, interleaved in one process.

Loads each tree's ``imeac`` package under its own module name and
reports, per tree, the microseconds per step of:

* a ``RowPool`` of B = 1, 4, 12 and 32 post-fault rows on wscc9 (each
  tree's default block length, so the per-block work is included), and
  of B = 32 rows on ring10, the 10-machine case of shared_cases.py,
  built with each tree's own package;
* the ``FaultOnPrefix``, extended over the same number of steps in one
  call;
* ``Workspace.steps`` alone at B = 1 and 32 wscc9 rows from post-fault
  states, block after block on one workspace: the RK4 kernel without a
  block's W pass, guard and record.

It also counts the numpy calls of one step of each tree, of each kind
in ``STEP_KINDS``: an undamped post-fault step, a damped one and a
fault-on prefix step (ufunc calls, reductions and array item
assignments), on a one-off workspace built and stepped with the
``dynamics`` and ``case`` modules' numpy and reductions wrapped in
counting callables; the timed runs never see the wrappers.
``calls_per_step`` is the counter the test suite's call ceilings use.

Each repeat times each configuration on the trees back to back, their
order reversed every other repeat, so the ratios of one repeat compare
runs milliseconds apart and a slow spell of a shared host hits every
side alike.  The ``old`` and ``new`` columns are minima over the
repeats; the ratios are taken within each repeat and reported as their
quartiles (25th, 50th and 75th percentiles).  OLD_ROOT is loaded twice,
as two packages timed as two trees: the quartiles of ``old/old``, their
ratio, are the noise floor of the same run for the ``new/old``
quartiles beside it.  Standard library and numpy only.

Usage:  python scripts/step_cost.py OLD_ROOT NEW_ROOT [--repeats N] [--steps S]
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
import time
from pathlib import Path

import numpy as np

from shared_cases import ten_machine_case, with_damping

ROWS = (1, 4, 12, 32)
KERNEL_ROWS = (1, 32)
RING_ROWS = 32
DT = 1e-3
FIRST_CLEAR = 100  # sample of the first row's clearing; row r clears 2 r samples later
STEP_KINDS = ("undamped post-fault", "damped post-fault", "fault-on prefix")  # calls_per_step's


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


def post_fault_heads(dynamics, kernel, case, rows: int) -> np.ndarray:
    """The motion of ``rows`` rows at their clearing states, as ``Workspace.y[0]`` holds it."""
    prefix = dynamics.FaultOnPrefix(kernel, case, DT)
    heads = np.array([prefix.state(FIRST_CLEAR + 2 * r)[: 2 * kernel.n] for r in range(rows)])
    return np.moveaxis(heads.reshape(rows, 2, kernel.n), 0, -1).reshape((2, kernel.n) + (
        () if rows == 1 else (rows,)))


def kernel_cost(pkg, case, rows: int, steps: int) -> float:
    """Microseconds per post-fault step of ``Workspace.steps`` alone, one block after another."""
    dynamics = pkg.dynamics
    kernel = dynamics.SwingKernel(case)
    head = post_fault_heads(dynamics, kernel, case, rows)
    space = dynamics.Workspace(kernel, dynamics.BLOCK, head.shape[2:], False, DT)
    space.y[0] = head
    blocks = max(1, steps // dynamics.BLOCK)
    start = time.perf_counter()
    for _ in range(blocks):
        space.steps(dynamics.BLOCK)
    return (time.perf_counter() - start) * 1e6 / (blocks * dynamics.BLOCK)


def calls_per_step(pkg, case, kind: str) -> int:
    """numpy calls of one step of ``Workspace.steps`` (one row) of a ``STEP_KINDS`` kind.

    A post-fault step starts from a clearing state, on ``case`` or, for
    the damped kind, on ``with_damping(case)`` (D = 0.02 on every
    machine); a fault-on prefix step starts from the initial point.  The
    numpy of the ``dynamics`` and ``case`` modules, where the stage's
    calls run, and their module-level reductions (``_sum``, where a tree
    has one) are swapped for counting wrappers while one-off workspaces
    are built and stepped; a ufunc's methods (``np.add.reduce``) count
    too.  Arrays made while counting is off are ``Counted`` views, so an
    item assignment to a workspace array (a copy) counts as a call too.
    """
    dynamics, count = pkg.dynamics, {"on": False, "calls": 0}

    class Counted(np.ndarray):
        def __setitem__(self, key, value):
            count["calls"] += count["on"]
            super().__setitem__(key, value)

    def wrap(func):
        def call(*args, **kwargs):
            count["calls"] += count["on"]
            result = func(*args, **kwargs)
            if isinstance(result, np.ndarray) and not count["on"]:
                return result.view(Counted)
            return result
        return call

    class Ufunc:  # a ufunc whose call and methods count
        def __init__(self, func):
            self.call = wrap(func)
            self.func = func

        def __call__(self, *args, **kwargs):
            return self.call(*args, **kwargs)

        def __getattr__(self, name):
            return wrap(getattr(self.func, name))

    class Numpy:  # numpy as the wrapped modules see it
        def __getattr__(self, name):
            attr = getattr(np, name)
            if isinstance(attr, np.ufunc):
                return Ufunc(attr)
            return attr if isinstance(attr, type) or not callable(attr) else wrap(attr)

    fault = kind == "fault-on prefix"
    if kind == "damped post-fault":
        case = with_damping(case)
    kernel = dynamics.SwingKernel(case)
    head = np.array([case.delta0, case.omega0]) if fault else post_fault_heads(
        dynamics, kernel, case, 1)
    saved = [(module, name, getattr(module, name)) for module in (dynamics, pkg.case)
             for name in ("np", "_sum") if hasattr(module, name)]
    for module, name, value in saved:
        setattr(module, name, Numpy() if name == "np" else wrap(value))
    try:
        calls = []
        for steps in (1, 2):
            space = dynamics.Workspace(kernel, steps, (), fault, DT)
            space.y[0] = head
            count.update(on=True, calls=0)
            space.steps(steps)
            count["on"] = False
            calls.append(count["calls"])
    finally:
        for module, name, value in saved:
            setattr(module, name, value)
    return calls[1] - calls[0]


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
    rings = {side: ten_machine_case(pkg) for side, pkg in trees.items()}
    configs = {  # label -> the cost of one tree
        **{f"post-fault step, B = {rows}":
           lambda s, rows=rows: pool_cost(trees[s], cases[s], rows, args.steps) for rows in ROWS},
        f"ring10 post-fault step, B = {RING_ROWS}":
            lambda s: pool_cost(trees[s], rings[s], RING_ROWS, args.steps),
        "fault-on prefix step": lambda s: prefix_cost(trees[s], cases[s], args.steps),
        **{f"Workspace.steps only, B = {rows}":
           lambda s, rows=rows: kernel_cost(trees[s], cases[s], rows, args.steps)
           for rows in KERNEL_ROWS},
    }
    runs = {side: np.empty((args.repeats, len(configs))) for side in trees}
    for repeat in range(args.repeats):
        for i, cost in enumerate(configs.values()):  # the trees back to back, in turns
            for side in list(trees)[:: 1 if repeat % 2 == 0 else -1]:
                runs[side][repeat, i] = cost(side)
    old, again, new = runs.values()
    ratios = {"new/old": new / old, "old/old": again / old}
    quartiles = {name: np.percentile(r, [25, 50, 75], axis=0).T for name, r in ratios.items()}
    print(f"us per step over {args.repeats} interleaved repeats, {args.steps} steps each: "
          "old and new the minima, ratios per repeat as quartiles q1 median q3")
    print(f"  {'':40s} {'old':>8s} {'new':>8s}   {'new/old':^20s}   {'old/old':^20s}")
    for i, label in enumerate(configs):
        spans = ["  ".join(f"{q:.3f}" for q in quartiles[name][i]) for name in ratios]
        print(f"  {label:40s} {old[:, i].min():8.1f} {new[:, i].min():8.1f}   "
              f"{spans[0]:20s}   {spans[1]:20s}")
    for kind in STEP_KINDS:
        calls = [calls_per_step(trees[side], cases[side], kind) for side in ("old", "new")]
        print(f"  {f'numpy calls, {kind} step':40s} {calls[0]:8d} {calls[1]:8d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
