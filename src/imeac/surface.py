"""Individual-machine potential-energy surfaces over a two-angle plane.

Two construction modes:

* trajectory mode runs a family of simulations (``dynamics.run_family``:
  one fault-on prefix and one row pool) and emits each sample's
  (delta_a-SYS, delta_b-SYS, pe_focus) as one ribbon per trajectory:
  the surface as traced by actual system motion.  The ribbons are one
  table with the columns of their export: traj_id, t, x, y, pe;
* grid mode (3-machine cases only, where the COI plane is exactly
  two-dimensional: the third angle follows from sum M_i delta_i-SYS = 0)
  evaluates the focus machine's potential energy at every node of a
  regular grid by straight-line path quadrature from the post-fault SEP.

With transfer conductances the potential is path-dependent and the two
modes agree only approximately; for lossless cases they coincide.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import IO

import numpy as np

from .case import StabilityCase, coi_forces, coi_frame, solve_postfault_sep
from .dynamics import SimulationConfig, run_family
from .energy import PATH_SEGMENTS, path_rule, pe_baseline
from .errors import ImeacError

MAX_PATH_SWING = 20.0  # rad of angle-difference swing a path may have: rule error 5e-14
CHUNK_BYTES = 64 * 1024  # per (n, n, nodes, points) force temporary: 56 nodes at n = 3
MAX_GRID_N = 1024  # nodes per grid axis: grid_n**2 nodes take about 88 bytes each


@dataclass(frozen=True)
class SurfaceSpec:
    """What to sample: focus machine, axis machines, window, sources."""

    focus_machine: int
    axis_machines: tuple[int, int]
    window: tuple[tuple[float, float], tuple[float, float]]
    grid_n: int = 81
    trajectory_family: tuple[SimulationConfig, ...] = field(default_factory=tuple)

    def __post_init__(self):
        a, b = self.axis_machines
        if a == b:
            raise ValueError("axis machines must be distinct")
        if self.grid_n < 2:
            raise ValueError(f"grid_n must be >= 2, got {self.grid_n}")
        if self.grid_n > MAX_GRID_N:
            raise ValueError(f"grid_n must be <= {MAX_GRID_N}, got {self.grid_n}")


@dataclass(frozen=True)
class SurfaceGrid:
    """Regular grid of surface samples (pe indexed [ix, iy])."""

    x_axis: np.ndarray
    y_axis: np.ndarray
    pe: np.ndarray
    focus_machine: int
    axis_machines: tuple[int, int]

    def __post_init__(self):
        for name in ("x_axis", "y_axis", "pe"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def interpolate(self, x: float, y: float) -> float:
        """Bilinear PE value at an in-window point."""
        if not (self.x_axis[0] <= x <= self.x_axis[-1]) or not (
            self.y_axis[0] <= y <= self.y_axis[-1]
        ):
            raise ValueError(f"point ({x}, {y}) outside the sampled window")
        ix = int(np.clip(np.searchsorted(self.x_axis, x) - 1, 0, len(self.x_axis) - 2))
        iy = int(np.clip(np.searchsorted(self.y_axis, y) - 1, 0, len(self.y_axis) - 2))
        fx = (x - self.x_axis[ix]) / (self.x_axis[ix + 1] - self.x_axis[ix])
        fy = (y - self.y_axis[iy]) / (self.y_axis[iy + 1] - self.y_axis[iy])
        p = self.pe
        return float(
            p[ix, iy] * (1 - fx) * (1 - fy)
            + p[ix + 1, iy] * fx * (1 - fy)
            + p[ix, iy + 1] * (1 - fx) * fy
            + p[ix + 1, iy + 1] * fx * fy
        )


def check_surface_inputs(
    n: int,
    focus: int,
    axes: tuple[int, int],
    window: tuple[tuple[float, float], tuple[float, float]] | None = None,
) -> None:
    """Refuse a focus, axis pair or window that does not fit an n-machine case.

    Both modes and the CLI check here before anything indexes a machine
    or lays out an axis; each message starts with the input it names.
    """
    for name, i in (("focus", focus), ("axes", axes[0]), ("axes", axes[1])):
        if not 0 <= i < n:
            raise ImeacError(f"{name}: machine {i} out of range for a {n}-machine case")
    if axes[0] == axes[1]:
        raise ImeacError(f"axes: axis machines must be distinct, got {axes[0]},{axes[1]}")
    for name, (lo, hi) in zip("xy", window or ()):
        if not -math.inf < lo < hi < math.inf:
            raise ImeacError(f"window: {name} range {lo}:{hi} needs finite lo < hi")


def surface_from_trajectories(case: StabilityCase, spec: SurfaceSpec, sep=None) -> np.ndarray:
    """Sample the surface along a family of simulated trajectories.

    Returns one (K, 5) table with the columns traj_id, t, x, y, pe: every
    sample of every member that did not diverge, members in family order
    (traj_id is the member's index).  (0, 5) when every member diverged.
    The post-fault SEP is solved unless the caller passes it.
    """
    check_surface_inputs(case.n, spec.focus_machine, spec.axis_machines, spec.window)
    if not spec.trajectory_family:
        raise ImeacError("trajectory_family is empty")
    family, focus, n = spec.trajectory_family, spec.focus_machine, case.n
    m, axes = case.m_vector(), list(spec.axis_machines)
    baseline = pe_baseline(case, solve_postfault_sep(case) if sep is None else sep)
    offset = np.cumsum([0] + [cfg.n_steps + 1 for cfg in family])
    table = np.empty((offset[-1], 5))

    def ribbon_rows(j: int, first: int, rows: np.ndarray) -> None:
        out = table[offset[j] + first :][: len(rows)]
        out[:, 0], out[:, 1] = j, (first + np.arange(len(rows))) * family[j].dt
        out[:, 2:4] = coi_frame(rows[:, :n], m / m.sum())[:, axes]
        out[:, 4] = baseline[focus] + rows[:, 2 * n + focus]

    diverged = run_family(case, family, ribbon_rows)
    for j, t in sorted(diverged.items()):
        warnings.warn(f"family member {j} diverged at t={t} s; skipped", RuntimeWarning, 2)
    return table[np.repeat([j not in diverged for j in range(len(family))], np.diff(offset))]


def grid_node_angles(
    case: StabilityCase, spec: SurfaceSpec, x: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """COI angle vectors for (x, y) pairs; the third angle is implied."""
    a, b = spec.axis_machines
    (c,) = [i for i in range(case.n) if i not in (a, b)]
    m = case.m_vector()
    nodes = np.empty(np.shape(x) + (case.n,))
    nodes[..., a] = x
    nodes[..., b] = y
    nodes[..., c] = -(m[a] * np.asarray(x) + m[b] * np.asarray(y)) / m[c]
    return nodes


def pe_line_to_nodes(
    case: StabilityCase,
    start_coi: np.ndarray,
    nodes: np.ndarray,
    focus: int,
    segments: int = PATH_SEGMENTS,
) -> np.ndarray:
    """Focus-machine PE at many endpoints by straight-line quadrature.

    Integrates -f_focus^(PF) d delta_focus-SYS from start_coi to each node
    (shape (K, n)) with pe_line_integral's expression over stacks of as many
    endpoints as keep a force temporary in CHUNK_BYTES.  A stack's paths are
    built machine-major, (n, nodes, points), and reach coi_forces as a (nodes,
    points, n) view, so every force temporary is (n, n, nodes, points): trig
    and sums run over contiguous path points.  The machine sums add their
    terms in one order in any layout: every node is pe_line_integral(...)[focus].
    """
    start = np.asarray(start_coi, dtype=float)
    nodes = np.asarray(nodes, dtype=float)
    chunk = max(1, CHUNK_BYTES // ((segments + 1) * nodes.shape[-1] ** 2 * 8))
    s, weights = path_rule(segments)
    out = np.empty(nodes.shape[0])
    for base in range(0, nodes.shape[0], chunk):
        ends = nodes[base : base + chunk]
        path = (start[:, None, None] + s * (ends - start).T.copy()[:, :, None]).transpose(1, 2, 0)
        forces = coi_forces(case.net_postfault, case.machines, path)
        out[base : base + len(ends)] = (-(weights @ forces) * (ends - start))[:, focus]
    return out


def surface_grid(case: StabilityCase, spec: SurfaceSpec, sep=None) -> SurfaceGrid:
    """Evaluate the focus machine's PE on a regular (x, y) grid.

    Only defined for 3-machine cases (larger systems have no exact two-angle
    representation: use surface_from_trajectories).  The SEP node (solved unless
    the caller passes it) is exactly zero; paths past MAX_PATH_SWING warn once.
    """
    if case.n != 3:
        raise ImeacError(
            f"grid mode needs exactly 3 machines (got {case.n}); "
            "use surface_from_trajectories"
        )
    check_surface_inputs(case.n, spec.focus_machine, spec.axis_machines, spec.window)
    sep = solve_postfault_sep(case) if sep is None else sep
    if not sep.converged:
        raise ImeacError("post-fault SEP did not converge; grid PE has no baseline")
    (x_lo, x_hi), (y_lo, y_hi) = spec.window
    x_axis = np.linspace(x_lo, x_hi, spec.grid_n)
    y_axis = np.linspace(y_lo, y_hi, spec.grid_n)
    gx, gy = np.meshgrid(x_axis, y_axis, indexing="ij")
    nodes = grid_node_angles(case, spec, gx.ravel(), gy.ravel())
    if np.ptp(nodes - sep.delta_s, axis=1).max() > MAX_PATH_SWING:
        warnings.warn(f"grid paths swing an angle difference past {MAX_PATH_SWING:g} rad; "
                      "the path quadrature does not resolve their PE", RuntimeWarning, 2)
    pe = pe_line_to_nodes(case, sep.delta_s, nodes, spec.focus_machine)
    return SurfaceGrid(
        x_axis=x_axis,
        y_axis=y_axis,
        pe=pe.reshape(spec.grid_n, spec.grid_n),
        focus_machine=spec.focus_machine,
        axis_machines=spec.axis_machines,
    )


def write_surface_grid(stream: IO[str], grid: SurfaceGrid) -> None:
    """Contour-tool scanline format: x y pe rows, blank line per scanline.

    Each axis value is formatted once: every y into a row template
    "\\t<y>\\t%.10e\\n" per grid, every x once per scanline, and a scanline's
    PE values go through one % of its template.  The bytes are those of
    formatting x, y and pe on every row.
    """
    a, b = grid.axis_machines
    stream.write(f"# grid surface: focus machine {grid.focus_machine}, axes ({a}, {b})\n")
    stream.write("# x_rad\ty_rad\tpe_pu\n")
    rows = ["\t%.10e\t%%.10e\n" % y for y in grid.y_axis.tolist()]
    for x, pe in zip(grid.x_axis.tolist(), grid.pe.tolist()):
        xs = "%.10e" % x
        stream.write((xs + xs.join(rows) + "\n") % tuple(pe))


def write_surface_trajectories(stream: IO[str], table: np.ndarray) -> None:
    """Trajectory-ribbon format: traj_id t x y pe rows, from surface_from_trajectories."""
    stream.write("# traj_id\tt_s\tx_rad\ty_rad\tpe_pu\n")
    for row in table:  # row by row: the whole table as Python floats is several MB
        stream.write("traj-%d\t%.6f\t%.10e\t%.10e\t%.10e\n" % tuple(row.tolist()))
