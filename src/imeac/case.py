"""Problem description: machines, staged reduced networks, operating point.

The case model is the immutable input to everything else: machine
parameters, the three reduced admittance networks (pre-fault, fault-on,
post-fault), and the initial operating point.  It also hosts the two
model-level computations that belong to the network rather than to time:
the classical-model electrical power and the post-fault stable
equilibrium point (SEP) used as the potential-energy baseline.

Conventions: angles in radians, time in seconds, power and energy in
per unit on the system base.  Machine inertia M is in p.u. s^2/rad
(M = 2H / omega_syn).  An infinite bus is modelled as an ordinary
machine with M = 1e6, so single-machine cases need no special path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import CaseValidationError

SYMMETRY_TOL = 1e-9
EQUILIBRIUM_TOL = 1e-6
SEP_TOL = 1e-8
SEP_MAX_ITER = 50


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class MachineParams:
    """One classical machine: constant EMF magnitude behind x'd.

    m:  inertia, p.u. s^2/rad (2H / omega_syn)
    pm: mechanical power, p.u.
    e:  internal EMF magnitude, p.u.
    d:  damping, p.u. s/rad (0 keeps the energy identities exact)
    """

    id: int
    m: float
    pm: float
    e: float
    d: float = 0.0

    def __post_init__(self):
        for name in ("m", "pm", "e", "d"):
            if not np.isfinite(getattr(self, name)):
                raise CaseValidationError(f"machines[{self.id}].{name}", "must be finite")
        if self.m <= 0:
            raise CaseValidationError(f"machines[{self.id}].m", "inertia must be > 0")
        if self.e <= 0:
            raise CaseValidationError(f"machines[{self.id}].e", "EMF must be > 0")
        if self.d < 0:
            raise CaseValidationError(f"machines[{self.id}].d", "damping must be >= 0")


@dataclass(frozen=True)
class ReducedNetwork:
    """Internal-node network after eliminating all non-generator buses.

    g, b: n x n conductance / susceptance matrices, p.u.  Both must be
    finite and symmetric within 1e-9 (reciprocal network).
    """

    g: np.ndarray
    b: np.ndarray
    name: str = "network"

    def __post_init__(self):
        object.__setattr__(self, "g", _readonly(self.g))
        object.__setattr__(self, "b", _readonly(self.b))
        for label, mat in (("G", self.g), ("B", self.b)):
            if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
                raise CaseValidationError(f"{self.name}.{label}", "matrix must be square")
            if not np.isfinite(mat).all():
                # NaN would pass the symmetry test below: nan - nan > tol is False
                raise CaseValidationError(f"{self.name}.{label}", "non-finite entry")
            if np.max(np.abs(mat - mat.T), initial=0.0) > SYMMETRY_TOL:
                raise CaseValidationError(
                    f"{self.name}.{label}", "matrix not symmetric within 1e-9"
                )
        if self.g.shape != self.b.shape:
            raise CaseValidationError(self.name, "G and B dimensions differ")

    @property
    def n(self) -> int:
        return self.g.shape[0]


@dataclass(frozen=True)
class StabilityCase:
    """Immutable problem description shared by all simulations."""

    machines: tuple[MachineParams, ...]
    net_prefault: ReducedNetwork
    net_faulton: ReducedNetwork
    net_postfault: ReducedNetwork
    delta0: np.ndarray
    omega0: np.ndarray
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "machines", tuple(self.machines))
        object.__setattr__(self, "delta0", _readonly(self.delta0))
        object.__setattr__(self, "omega0", _readonly(self.omega0))
        n = len(self.machines)
        for name, net in (
            ("net_prefault", self.net_prefault),
            ("net_faulton", self.net_faulton),
            ("net_postfault", self.net_postfault),
        ):
            if net.n != n:
                raise CaseValidationError(
                    name, f"dimension {net.n} does not match machine count {n}"
                )
        for name, vec in (("delta0", self.delta0), ("omega0", self.omega0)):
            if vec.shape != (n,):
                raise CaseValidationError(name, f"length {vec.shape} != machine count {n}")
            if not np.isfinite(vec).all():
                raise CaseValidationError(name, "non-finite entry")
        ids = [mach.id for mach in self.machines]
        if ids != list(range(n)):
            raise CaseValidationError("machines", "ids must be 0..n-1 in order")
        mismatch = np.abs(self.pm_vector() - electrical_power(self.net_prefault, self.machines, self.delta0))
        worst = int(np.argmax(mismatch))
        if mismatch[worst] > EQUILIBRIUM_TOL:
            raise CaseValidationError(
                f"machines[{worst}].pm",
                f"initial point is not a pre-fault equilibrium "
                f"(|Pm - Pe| = {mismatch[worst]:.3e} > {EQUILIBRIUM_TOL:g})",
            )

    @property
    def n(self) -> int:
        return len(self.machines)

    def m_vector(self) -> np.ndarray:
        return np.array([mach.m for mach in self.machines])

    def pm_vector(self) -> np.ndarray:
        return np.array([mach.pm for mach in self.machines])

    def e_vector(self) -> np.ndarray:
        return np.array([mach.e for mach in self.machines])

    def d_vector(self) -> np.ndarray:
        return np.array([mach.d for mach in self.machines])


@dataclass(frozen=True)
class EquilibriumPoint:
    """Post-fault SEP in the COI frame: the PE integration baseline."""

    delta_s: np.ndarray
    converged: bool
    residual: float

    def __post_init__(self):
        object.__setattr__(self, "delta_s", _readonly(self.delta_s))
        if self.converged and not self.residual < SEP_TOL:
            raise CaseValidationError(
                "residual", f"converged flag with residual {self.residual:.3e} >= {SEP_TOL:g}"
            )


def electrical_power(
    net: ReducedNetwork, machines: Sequence[MachineParams], delta: np.ndarray
) -> np.ndarray:
    """Classical-model electrical power of every machine.

    P_ei = E_i^2 G_ii + sum_{j != i} E_i E_j (G_ij cos d_ij + B_ij sin d_ij)

    delta may be a single angle vector (n,) or a batch (..., n); only
    angle differences enter, so any common reference shift cancels.
    """
    delta = np.asarray(delta, dtype=float)
    e = np.array([mach.e for mach in machines])
    diff = delta[..., :, None] - delta[..., None, :]
    kernel = net.g * np.cos(diff) + net.b * np.sin(diff)
    return e * np.einsum("...ij,j->...i", kernel, e)


def coi_reference(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Inertia-weighted aggregate (1/M_SYS) sum M_i x_i along the last axis."""
    return np.einsum("i,...i->...", m, x) / np.sum(m)


def coi_transform(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Map synchronous-frame quantities to the COI frame: x_i - x_SYS."""
    return x - coi_reference(m, x)[..., None]


def coi_forces(
    net: ReducedNetwork, machines: Sequence[MachineParams], delta: np.ndarray
) -> np.ndarray:
    """Accelerating force of every machine relative to Machine-SYS.

    f_i-SYS = P_mi - P_ei - (M_i / M_SYS) P_SYS with P_SYS = sum (P_mi - P_ei).
    The forces sum to zero by construction.
    """
    m = np.array([mach.m for mach in machines])
    pm = np.array([mach.pm for mach in machines])
    pe = electrical_power(net, machines, delta)
    acc = pm - pe
    p_sys = np.sum(acc, axis=-1)
    return acc - p_sys[..., None] * (m / np.sum(m))


def _power_jacobian(
    net: ReducedNetwork, e: np.ndarray, delta: np.ndarray
) -> np.ndarray:
    """d P_ei / d delta_j for the classical-model power."""
    diff = delta[:, None] - delta[None, :]
    ee = np.outer(e, e)
    off = ee * (net.g * np.sin(diff) - net.b * np.cos(diff))
    np.fill_diagonal(off, 0.0)
    jac = off.copy()
    np.fill_diagonal(jac, -off.sum(axis=1))
    return jac


def solve_postfault_sep(case: StabilityCase) -> EquilibriumPoint:
    """Newton solve for the post-fault SEP on the n-1 independent COI angles.

    The COI constraint sum M_i delta_i-SYS = 0 removes one angle; the last
    machine's angle is eliminated.  Initial guess: pre-fault angles mapped
    to the COI frame.  A simple backtracking line search guards against
    overshooting on badly scaled steps.
    """
    machines = case.machines
    net = case.net_postfault
    m = case.m_vector()
    e = case.e_vector()
    n = case.n

    def full_angles(u: np.ndarray) -> np.ndarray:
        last = -np.dot(m[:-1], u) / m[-1]
        return np.append(u, last)

    def residual(u: np.ndarray) -> np.ndarray:
        return coi_forces(net, machines, full_angles(u))

    u = coi_transform(m, case.delta0)[:-1]
    f = residual(u)
    best = float(np.max(np.abs(f)))
    for _ in range(SEP_MAX_ITER):
        if best < SEP_TOL:
            return EquilibriumPoint(full_angles(u), True, best)
        delta = full_angles(u)
        dpe = _power_jacobian(net, e, delta)
        # d f_i / d delta_j, including the COI share of d P_SYS
        jac_full = -dpe + np.outer(m / m.sum(), dpe.sum(axis=0))
        # chain rule through delta_last = -(sum M_j u_j) / M_last
        jac = jac_full[:-1, :-1] - np.outer(jac_full[:-1, -1], m[:-1] / m[-1])
        try:
            step = np.linalg.solve(jac, -f[:-1])
        except np.linalg.LinAlgError:
            break
        scale = 1.0
        for _ in range(8):
            trial = u + scale * step
            f_trial = residual(trial)
            worst = float(np.max(np.abs(f_trial)))
            if worst < best:
                u, f, best = trial, f_trial, worst
                break
            scale *= 0.5
        else:
            break
    converged = best < SEP_TOL
    return EquilibriumPoint(full_angles(u), converged, best)
