"""Compare the imeac engine's results between two source trees, bit for bit.

Runs a fixed list of engine calls in each tree (a subprocess with
PYTHONPATH=<root>/src) and prints, per item, same/DIFF.  The items:

* 181-point clearing-time scans, 0.060-0.240 s on the 1 ms grid, of the
  three bundled cases, and of wscc9 with ``first_swing_only``;
* ``find_cct`` on the 13 wscc9 brackets [lo, lo + 32 ms], lo = 139..151 ms,
  and on the acceptance brackets (smib 0.150-0.250 s, wscc9 0.140-0.172 s);
  with ``first_swing_only``, on wscc9 [0.060, 0.240] and [0.110, 0.160]
  (stable at both ends: a BracketError);
* a wscc9 scan at unsorted, repeated clearing times, so the fault-on
  prefix is extended out of order;
* the fault-on prefix extended in pieces (to samples 37, 100 and 250):
  its samples, states and divergence time, on wscc9 and on the W
  overflow case below, whose fault-on stage diverges at sample 218;
* the ``simulate`` arrays of three configurations per bundled case, and
  of wscc9 with damping 0.02 on every machine;
* a generated 10-machine case (from 8 machines on, the order of a
  machine-axis sum shows in the last bits): a scan, a ``find_cct`` and a
  ``simulate``;
* the divergence guard: smib with its machine 100x lighter (a scan whose
  rows diverge mid-horizon at their own steps, and a ``simulate``), and
  wscc9 with a post-fault network so strong that only the PE integral W
  overflows, during the fault-on stage (a ``simulate`` and a scan) and,
  with heavy machines, after clearing at a step that varies by row (a
  scan); and a ``RowPool`` of light smib rows whose first step ends one
  row on its motion and one on its W, while a third goes on;
* ``surface_grid`` on 81x81 grids: README's (threebus_lossless, focus 1,
  axes 1,2, 2 rad around the post-fault SEP), one on wscc9 (focus 2, axes
  1,2) and an infinite-bus window of threebus_lossless (focus 2, axes 0,1,
  x -1..1.5, y -2..0.5 rad), which warns;
* ``surface_from_trajectories`` tables: README's wscc9 family (0.05-0.20 s
  by 10 ms, 3 s), a light two-machine family with one member that
  diverges during the fault-on stage and one that diverges after
  clearing, and a family on the W overflow case after clearing above
  whose middle member's W overflows;
* wscc9 with its post-fault G and B halved, whose post-fault SEP does
  not converge, so PE counts from the initial point: a scan at 0.02,
  0.05 and 0.10 s with a 3 s horizon, a ``surface_from_trajectories``
  family at the same times and ``compute_energy`` of one ``simulate``;
* the allocating force path on its own: ``solve_postfault_sep`` of the
  three bundled cases and of the 10-machine case, and ``coi_forces`` on
  the post-fault network of wscc9 and of the 10-machine case at one
  state, a (12, n) batch and a (3, 4, n) view of (n, 3, 4) memory, the
  layout of a surface-grid chunk;
* the path quadrature, at n = 10 as well: ``energy.pe_baseline`` of
  wscc9 and of the 10-machine case, and ``pe_line_to_nodes`` from the
  10-machine case's post-fault SEP to 40 COI-frame ends within 1 rad of
  it, for machines 0 and 9.

The cases other than the bundled ones come from ``shared_cases.py``.

Each result is reduced to plain values (arrays as dtype, shape and raw
bytes; floats as hex), with the warnings it raised and, when the call
raised, the error's type and message, so "same" means equal bits,
warnings and errors.  A DIFF line gives the largest absolute and
relative difference and the largest |d|/max(1, |x|) (the measure of a
stated tolerance, as cli_identity.py reports it) over the item's float
leaves and says whether any other leaf differs: a verdict, an event
kind, a count, an error text or a warning.  Exits 1 if anything differs.  Standard library and numpy
only.

Usage:  python scripts/engine_identity.py OLD_ROOT NEW_ROOT
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from shared_cases import (light_smib, ten_machine_case, two_machine_case,
                          w_overflow_after_clearing, w_overflow_case, weak_postfault, with_damping)

BUNDLED = ("smib", "threebus_lossless", "wscc9")
SCAN_TIMES = [round(0.060 + 0.001 * k, 3) for k in range(181)]
CONFIGS = ((0.08, 3.0), (0.15, 1.5), (0.25, 2.0))  # (t_clear, t_end), s


def canon(x):
    """x as nested tuples of plain values, equal exactly when x's bits are."""
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return (type(x).__name__,) + tuple(
            (f.name, canon(getattr(x, f.name))) for f in dataclasses.fields(x))
    if isinstance(x, np.ndarray):
        return ("array", x.dtype.str, x.shape, np.ascontiguousarray(x).tobytes())
    if isinstance(x, (float, np.floating)):
        return ("float", float(x).hex())
    if isinstance(x, (list, tuple)):
        return (type(x).__name__,) + tuple(canon(v) for v in x)
    if isinstance(x, dict):
        return ("dict",) + tuple((canon(k), canon(v)) for k, v in sorted(x.items()))
    return repr(x)


def differences(old, new, gaps=None):
    """Largest |old - new|, relative and scaled difference over float leaves; other leaves differ?

    Walks two canonical results in step; relative differences are taken
    where either value is nonzero, scaled ones are |old - new| / max(1,
    |old|), the measure of a stated tolerance.  A float leaf that is not
    finite on one side only, or a shape that differs, counts as another
    leaf.
    """
    gaps = {"abs": 0.0, "rel": 0.0, "scaled": 0.0, "other": False} if gaps is None else gaps
    pair = isinstance(old, tuple) and isinstance(new, tuple) and len(old) == len(new) > 0
    tag = old[0] if pair and old[0] == new[0] and isinstance(old[0], str) else None
    if tag == "float":
        a, b = (np.array([float.fromhex(x[1])]) for x in (old, new))
    elif tag == "array" and old[1:3] == new[1:3] and np.dtype(old[1]).kind == "f":
        a, b = (np.frombuffer(x[3], x[1]).reshape(x[2]) for x in (old, new))
    elif pair and tag != "array":
        for u, v in zip(old, new):
            differences(u, v, gaps)
        return gaps
    else:
        gaps["other"] |= old != new
        return gaps
    finite = np.isfinite(a) & np.isfinite(b)
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    gaps["other"] |= bool(np.any(~finite & ~same))
    if finite.any():
        gap = np.abs(a[finite] - b[finite])
        scale = np.maximum(np.abs(a[finite]), np.abs(b[finite]))
        gaps["abs"] = max(gaps["abs"], float(gap.max()))
        rel = gap[scale > 0] / scale[scale > 0]
        gaps["rel"] = max(gaps["rel"], float(rel.max()) if rel.size else 0.0)
        gaps["scaled"] = max(gaps["scaled"], float((gap / np.maximum(1.0, np.abs(a[finite]))).max()))
    return gaps


def readme_window(case, axes, half=2.0):
    """The CLI's default grid window: half rad around the post-fault SEP on each axis."""
    from imeac import solve_postfault_sep

    sep = solve_postfault_sep(case).delta_s
    return tuple((sep[a] - half, sep[a] + half) for a in axes)


def prefix_pieces(case):
    """A fault-on prefix extended to samples 37, 100 and 250: its samples, states and divergence time."""
    from imeac.dynamics import FaultOnPrefix, SwingKernel

    prefix = FaultOnPrefix(SwingKernel(case), case, 1e-3)
    states = [prefix.state(k) for k in (37, 100, 250)]
    return np.array(prefix.samples), states, prefix.pool.ended.get(0)


def guard_at_one_step(smib):
    """Light smib rows in one RowPool, two ending at its first step: every block and ``ended``.

    One row is a step before its motion leaves the guard, one has a W
    that is not finite, and one goes on to its budget.
    """
    from imeac.dynamics import FaultOnPrefix, RowPool, SwingKernel

    case, dt = light_smib(smib), 2e-3
    kernel = SwingKernel(case)
    prefix, pool = FaultOnPrefix(kernel, case, dt), RowPool(kernel, dt)
    pool.join([0], prefix.state(11), 0, 1500)
    while pool.size:  # the row diverges: its last block ends with its last good sample
        last = pool.advance().samples[-1, 0, : 3 * case.n]
    w_lost = prefix.state(21).copy()
    w_lost[2 * case.n :] = np.inf
    pool = RowPool(kernel, dt)
    pool.join([0, 1, 2], np.array([prefix.state(1), last, w_lost]), 0, 1500)
    blocks = []
    while pool.size:
        blocks.append(pool.advance())
    return [tuple(b) for b in blocks], pool.ended


def force_layouts(case):
    """(layout, angles) for coi_forces: one state, a (12, n) batch and a grid-chunk view."""
    batch = case.delta0 + np.random.default_rng(7).normal(0.0, 1.0, (12, case.n))
    chunk = np.ascontiguousarray(batch.reshape(3, 4, case.n).transpose(2, 0, 1)).transpose(1, 2, 0)
    return [("one state", batch[0]), ("batch", batch), ("grid chunk", chunk)]


def items():
    """(name, zero-argument call) for every engine result compared."""
    from imeac import (SimulationConfig, SurfaceSpec, coi_forces, compute_energy, find_cct,
                       load_bundled, pe_line_to_nodes, scan_clearing_times, simulate,
                       solve_postfault_sep, surface_from_trajectories, surface_grid)
    from imeac.energy import pe_baseline

    cases = {name: load_bundled(name) for name in BUNDLED}
    wscc = cases["wscc9"]
    damped = with_damping(wscc)
    ring = ten_machine_case()
    out = []
    for name, case in cases.items():
        out.append((f"scan {name} 0.060-0.240 s", lambda c=case: scan_clearing_times(c, SCAN_TIMES)))
    out.append(("scan wscc9 0.060-0.240 s first swing only",
                lambda: scan_clearing_times(wscc, SCAN_TIMES, first_swing_only=True)))
    out.append(("scan wscc9 unsorted 0.200, 0.061, 0.150, 0.240, 0.100, 0.061 s",
                lambda: scan_clearing_times(wscc, [0.200, 0.061, 0.150, 0.240, 0.100, 0.061])))
    for lo in range(139, 152):
        out.append((f"find_cct wscc9 [{lo}, {lo + 32}] ms",
                    lambda lo=lo: find_cct(wscc, lo / 1000, (lo + 32) / 1000, resolution=1e-3)))
    out.append(("find_cct smib [0.150, 0.250]",
                lambda: find_cct(cases["smib"], 0.150, 0.250, resolution=1e-3)))
    out.append(("find_cct wscc9 [0.140, 0.172]",
                lambda: find_cct(wscc, 0.140, 0.172, resolution=1e-3)))
    for lo, hi in ((0.060, 0.240), (0.110, 0.160)):
        out.append((f"find_cct wscc9 [{lo:.3f}, {hi:.3f}] first swing only",
                    lambda lo=lo, hi=hi: find_cct(wscc, lo, hi, first_swing_only=True)))
    for name, case in [*cases.items(), ("wscc9 damped", damped)]:
        for t_clear, t_end in CONFIGS:
            cfg = SimulationConfig(t_clear=t_clear, t_end=t_end)
            out.append((f"simulate {name} {t_clear}/{t_end}",
                        lambda c=case, cfg=cfg: simulate(c, cfg)))
    ring_times = [round(0.02 * k, 2) for k in range(1, 16)]
    out.append(("scan ring10 0.02-0.30 s",
                lambda: scan_clearing_times(ring, ring_times, dt=2e-3, horizon=1.0)))
    out.append(("find_cct ring10 [0.16, 0.20]",
                lambda: find_cct(ring, 0.16, 0.20, resolution=2e-3, dt=2e-3, horizon=1.0)))
    out.append(("simulate ring10 0.16/1.2",
                lambda: simulate(ring, SimulationConfig(t_clear=0.16, t_end=1.2, dt=2e-3))))
    light = light_smib(cases["smib"])
    light_times = [round(0.002 * k, 3) for k in range(1, 60)]
    out.append(("scan light smib 0.002-0.118 s",
                lambda: scan_clearing_times(light, light_times, dt=2e-3, horizon=3.0)))
    out.append(("simulate light smib 0.1/3.0",
                lambda: simulate(light, SimulationConfig(t_clear=0.1, t_end=3.0))))
    strong = w_overflow_case(wscc)
    out.append(("simulate wscc9 W overflow 0.3/0.6",
                lambda: simulate(strong, SimulationConfig(t_clear=0.3, t_end=0.6))))
    # every row clears after W overflows: no post-fault motion overflows first
    out.append(("scan wscc9 W overflow 0.220-0.240 s",
                lambda: scan_clearing_times(strong, SCAN_TIMES[160:])))
    for name, case in (("wscc9", wscc), ("wscc9 W overflow", strong)):
        out.append((f"prefix {name} extended to 37, 100, 250", lambda c=case: prefix_pieces(c)))
    out.append(("pool light smib: motion and W end rows at one step",
                lambda: guard_at_one_step(cases["smib"])))
    heavy = w_overflow_after_clearing(wscc)
    heavy_times = [round(0.01 * k, 2) for k in range(1, 25)]
    out.append(("scan wscc9 W overflow after clearing 0.01-0.24 s",
                lambda: scan_clearing_times(heavy, heavy_times, horizon=1.0)))
    weak = weak_postfault(wscc)
    out.append(("scan wscc9 no SEP 0.02, 0.05, 0.10 s",
                lambda: scan_clearing_times(weak, [0.02, 0.05, 0.10], horizon=3.0)))
    three = cases["threebus_lossless"]
    grids = [
        ("threebus_lossless", three, 1, (1, 2), readme_window(three, (1, 2))),
        ("wscc9", wscc, 2, (1, 2), readme_window(wscc, (1, 2))),
        ("threebus_lossless", three, 2, (0, 1), ((-1.0, 1.5), (-2.0, 0.5))),
    ]
    for name, case, focus, axes, window in grids:
        spec = SurfaceSpec(focus_machine=focus, axis_machines=axes, window=window, grid_n=81)
        out.append((f"surface_grid {name} focus {focus} axes {axes[0]},{axes[1]} 81x81",
                    lambda c=case, spec=spec: surface_grid(c, spec).pe))
    pair = two_machine_case(pm=1.0, m0=1e-4, m1=1.0)
    families = [
        ("wscc9 README family 0.05:0.20:0.01, 3 s", wscc, 2, (1, 2),
         [(round(0.05 + 0.01 * k, 2), 3.0) for k in range(16)]),
        # machine 0 10^4 times lighter: 0.3 s diverges after clearing, 2.0 s
        # during the fault-on stage
        ("pair 0.05/1.0, 0.3/1.2, 2.0/3.0 s", pair, 0, (0, 1),
         [(0.05, 1.0), (0.3, 1.2), (2.0, 3.0)]),
        ("wscc9 W overflow after clearing 0.10, 0.15, 0.07 s, 1 s", heavy, 2, (1, 2),
         [(0.10, 1.0), (0.15, 1.0), (0.07, 1.0)]),
        ("wscc9 no SEP 0.02, 0.05, 0.10 s, 3 s", weak, 2, (1, 2),
         [(0.02, 3.0), (0.05, 3.0), (0.10, 3.0)]),
    ]
    for name, case, focus, axes, members in families:
        spec = SurfaceSpec(focus_machine=focus, axis_machines=axes, window=((-1, 1), (-1, 1)),
                           trajectory_family=tuple(SimulationConfig(*m) for m in members))
        out.append((f"surface_from_trajectories {name}",
                    lambda c=case, spec=spec: surface_from_trajectories(c, spec)))
    out.append(("compute_energy wscc9 no SEP 0.05/3.0", lambda: compute_energy(
        weak, simulate(weak, SimulationConfig(0.05, 3.0)), solve_postfault_sep(weak))))
    for name, case in [*cases.items(), ("ring10", ring)]:
        out.append((f"solve_postfault_sep {name}", lambda c=case: solve_postfault_sep(c)))
    sep = solve_postfault_sep(ring).delta_s
    ends = sep + np.random.default_rng(11).uniform(-1.0, 1.0, (40, ring.n))
    ends -= (ends @ ring.m_vector())[:, None] / ring.m_vector().sum()  # into the COI frame
    for focus in (0, 9):
        out.append((f"pe_line_to_nodes ring10 40 ends focus {focus}",
                    lambda f=focus: pe_line_to_nodes(ring, sep, ends, f)))
    for name, case in (("wscc9", wscc), ("ring10", ring)):
        out.append((f"pe_baseline {name}", lambda c=case: pe_baseline(c, solve_postfault_sep(c))))
        for layout, delta in force_layouts(case):
            out.append((f"coi_forces {name} {layout}", lambda c=case, d=delta: coi_forces(
                c.net_postfault, c.machines, d)))
    return out


def child(path: str) -> None:
    """Run every item in this interpreter's imeac and pickle {name: canonical result} to path."""
    results = {}
    for name, call in items():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                value = canon(call())
            except Exception as exc:  # the error is part of the result
                value = ("raised", type(exc).__name__, str(exc))
        results[name] = (value, tuple((w.category.__name__, str(w.message)) for w in caught))
    with open(path, "wb") as f:
        pickle.dump(results, f)


def run(root: Path) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "results.pickle")
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        subprocess.run([sys.executable, __file__, "--child", out], env=env, check=True)
        with open(out, "rb") as f:
            return pickle.load(f)  # written just now by the child above


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--child":
        child(argv[1])
        return 0
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    old, new = (run(Path(a).resolve()) for a in argv)
    differs = False
    for name in [*old, *(k for k in new if k not in old)]:
        same = old.get(name) == new.get(name)
        differs |= not same
        if same:
            print(f"  same  {name}")
            continue
        if name not in old or name not in new:
            print(f"  DIFF  {name}  (only in {'new' if name in new else 'old'})")
            continue
        gaps = differences(old[name], new[name])
        others = "other leaves differ" if gaps["other"] else "no other leaf differs"
        print(f"  DIFF  {name}  (max abs {gaps['abs']:.3g}, max rel {gaps['rel']:.3g}, "
              f"max |d|/max(1, |x|) {gaps['scaled']:.3g}; {others})")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
