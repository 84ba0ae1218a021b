"""Per-machine transient energy channels (IMKE / IMPE / IMTE).

Kinetic energy is a state function: V_KEi = 1/2 M_i omega_i-SYS^2.
Potential energy is the path integral of -f_i-SYS^(PF) d delta_i-SYS
along the actual trajectory; the integrator already accumulated it as
the pe_integral state, so here it only gets its baseline: the PE of the
initial point relative to the post-fault SEP, by ``pe_line_integral``:
the one straight-path quadrature (16-point Gauss-Legendre) in the COI
angle space, which also serves the surface grid's stack of nodes.  With
transfer conductances the integral is path-dependent; the straight-line
baseline is the conventional choice and shifts every machine's PE by a
constant, which cancels in all energy differences and margins.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .case import (
    EquilibriumPoint,
    MachineParams,
    ReducedNetwork,
    StabilityCase,
    coi_forces,
    coi_frame,
    freeze_arrays,
)
from .dynamics import Trajectory


@functools.cache
def path_rule(segments: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre points and weights on [0, 1], exact to degree 2 * segments + 1."""
    points = segments + 1
    x = -np.cos(np.pi * (np.arange(points) + 0.75) / (points + 0.5))
    for _ in range(8):  # Newton steps on the three-term Legendre recurrence
        p0, p1 = np.ones_like(x), x
        for j in range(2, points + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        dp = points * (x * p1 - p0) / (x * x - 1.0)
        x = x - p1 / dp
    s, weights = (x + 1.0) / 2.0, 1.0 / ((1.0 - x * x) * dp * dp)
    s.flags.writeable = weights.flags.writeable = False
    return s, weights


PATH_SEGMENTS = 15  # path points - 1
PATH_S, PATH_WEIGHTS = path_rule(PATH_SEGMENTS)
CHUNK_BYTES = 64 * 1024  # per (n, n, ends, points) force temporary: 56 ends at n = 3


@dataclass(frozen=True)
class EnergyChannels:
    """Energy channels aligned with a trajectory (machines x samples).

    baseline_from_sep is False when the SEP was unavailable; PE is then
    measured from the initial point instead (offsets only).
    """

    ke: np.ndarray
    pe: np.ndarray
    total: np.ndarray
    baseline_from_sep: bool

    def __post_init__(self):
        freeze_arrays(self, "ke", "pe", "total")


def pe_line_integral(
    net: ReducedNetwork,
    machines: Sequence[MachineParams],
    start_coi: np.ndarray,
    end_coi: np.ndarray,
    segments: int = PATH_SEGMENTS,
) -> np.ndarray:
    """Per-machine integral of -f_i d delta_i-SYS on straight COI paths to end_coi, (n,) or (K, n).

    Ends go in chunks whose force temporary fits CHUNK_BYTES, each path
    machine-major, (n, ends, points), seen as (ends, points, n): trig and
    sums run over contiguous points, and the machine sums add their terms
    in one order in any layout, so an end's bits do not depend on its chunk.
    """
    start = np.asarray(start_coi, dtype=float)
    end = np.asarray(end_coi, dtype=float)
    ends = end.reshape(-1, end.shape[-1])
    chunk = max(1, CHUNK_BYTES // ((segments + 1) * ends.shape[-1] ** 2 * 8))
    s, weights = path_rule(segments)
    out = np.empty(ends.shape)
    for base in range(0, len(ends), chunk):
        span = ends[base : base + chunk] - start
        path = (start[:, None, None] + s * span.T.copy()[:, :, None]).transpose(1, 2, 0)
        out[base : base + len(span)] = -(weights @ coi_forces(net, machines, path)) * span
    return out.reshape(end.shape)


def pe_baseline(case: StabilityCase, sep: EquilibriumPoint | None) -> np.ndarray:
    """PE of the initial point relative to the SEP; zeros without a converged SEP.

    PE then counts from the initial point: zeros + W is W bit for bit (W is never -0.0).
    """
    if sep is None or not sep.converged:
        return np.zeros(case.n)
    m = case.m_vector()
    start_coi = coi_frame(case.delta0, m / m.sum())
    return pe_line_integral(case.net_postfault, case.machines, sep.delta_s, start_coi)


def compute_energy(
    case: StabilityCase, traj: Trajectory, sep: EquilibriumPoint | None
) -> EnergyChannels:
    """Assemble the energy channels for a simulated trajectory."""
    m = case.m_vector()
    ke = 0.5 * m[:, None] * traj.omega_coi**2
    pe = pe_baseline(case, sep)[:, None] + traj.pe_integral
    from_sep = sep is not None and sep.converged
    return EnergyChannels(ke=ke, pe=pe, total=ke + pe, baseline_from_sep=from_sep)


CRITICAL_KE_SHARE = 0.1  # of the largest machine KE at clearing


def critical_machines(ke_clear: Sequence[float]) -> list[int]:
    """Machines carrying a significant share of kinetic energy at clearing.

    Flags every machine whose KE at clearing is at least
    ``CRITICAL_KE_SHARE`` times the largest machine KE, ordered by
    descending KE.  The flag only drives reporting order; assessment
    always covers all machines.
    """
    ke_clear = np.asarray(ke_clear, dtype=float)
    cutoff = CRITICAL_KE_SHARE * ke_clear.max()
    flagged = [i for i in range(ke_clear.shape[0]) if ke_clear[i] >= cutoff]
    return sorted(flagged, key=lambda i: -ke_clear[i])
