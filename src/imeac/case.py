"""Problem description: machines, staged reduced networks, operating point.

The case model is the immutable input to everything else: machine
parameters, the three reduced admittance networks (pre-fault, fault-on,
post-fault), and the initial operating point.  It also holds the one
classical-model force (``mismatch`` then ``coi_share``: ``machine_forces``)
that the equilibrium check, the post-fault stable equilibrium point
(SEP) solve, the PE baseline and the surface grid all evaluate, and
that the RK4 stage repeats call for call with ``out=``, and the one COI
projection (``coi_frame``).

Conventions: angles in radians, time in seconds, power and energy in
per unit on the system base.  Machine inertia M is in p.u. s^2/rad
(M = 2H / omega_syn).  An infinite bus is modelled as an ordinary
machine with M = 1e6, so single-machine cases need no special path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CaseValidationError

SYMMETRY_TOL = 1e-9
EQUILIBRIUM_TOL = 1e-6
SEP_TOL = 1e-8
SEP_MAX_ITER = 50

# the ufunc called directly: the ndarray method's wrapper costs an RK4 stage measurably
_sum = np.add.reduce


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
        products = network_products(self.net_prefault, self.e_vector())
        gap = np.abs(mismatch(products, self.pm_vector(), self.delta0))
        worst = int(np.argmax(gap))
        if gap[worst] > EQUILIBRIUM_TOL:
            raise CaseValidationError(
                f"machines[{worst}].pm",
                f"initial point is not a pre-fault equilibrium "
                f"(|Pm - Pe| = {gap[worst]:.3e} > {EQUILIBRIUM_TOL:g})",
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


def network_products(net: ReducedNetwork, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One network's products (E_i E_j G_ij, E_i E_j B_ij) for the EMFs e."""
    ee = np.outer(e, e)
    return ee * net.g, ee * net.b


def coi_frame(x: np.ndarray, m_share: np.ndarray) -> np.ndarray:
    """COI-frame values x_i - x_SYS along the machine axis; m_share is M_i / M_SYS."""
    return x - _sum(x * m_share, -1, keepdims=True)


def mismatch(products, pm, delta) -> np.ndarray:
    """P_m - P_e, P_ei = sum_j E_i E_j (G_ij cos d_ij + B_ij sin d_ij), at angles (..., n).

    Reduced over the machine axis only: a batch row is bit-identical to the
    angles alone.  The products overwrite the cos and sin temporaries.
    """
    eg, eb = products
    diff = delta[..., :, None] - delta[..., None, :]
    return pm - _sum(eg * np.cos(diff) + eb * np.sin(diff), -1)


def coi_share(acc: np.ndarray, m_share: np.ndarray) -> np.ndarray:
    """f_i-SYS = acc_i - (M_i / M_SYS) sum_j acc_j from acc = P_m - P_e; sums to zero."""
    return acc - _sum(acc, -1, keepdims=True) * m_share


def machine_forces(products, pm, m_share, delta) -> tuple[np.ndarray, np.ndarray]:
    """The classical-model force on one network's products: (P_m - P_e, f_i-SYS)."""
    acc = mismatch(products, pm, delta)
    return acc, coi_share(acc, m_share)


def coi_forces(
    net: ReducedNetwork, machines: Sequence[MachineParams], delta: np.ndarray
) -> np.ndarray:
    """Force f_i-SYS of every machine on net at angles (n,) or (..., n); see machine_forces."""
    m = np.array([mach.m for mach in machines])
    pm = np.array([mach.pm for mach in machines])
    products = network_products(net, np.array([mach.e for mach in machines]))
    return machine_forces(products, pm, m / m.sum(), np.asarray(delta, dtype=float))[1]


def solve_postfault_sep(case: StabilityCase) -> EquilibriumPoint:
    """Newton solve for the post-fault SEP on the n-1 independent COI angles.

    The COI constraint sum M_i delta_i-SYS = 0 removes one angle; the last
    machine's angle is eliminated.  Initial guess: pre-fault angles mapped
    to the COI frame.  A simple backtracking line search guards against
    overshooting on badly scaled steps.
    """
    eg, eb = network_products(case.net_postfault, case.e_vector())
    m = case.m_vector()
    m_share = m / m.sum()

    def full_angles(u: np.ndarray) -> np.ndarray:
        return np.append(u, -np.dot(m[:-1], u) / m[-1])

    def residual(u: np.ndarray) -> np.ndarray:
        return coi_forces(case.net_postfault, case.machines, full_angles(u))

    u = coi_frame(case.delta0, m_share)[:-1]
    f = residual(u)
    best = float(np.max(np.abs(f)))
    for _ in range(SEP_MAX_ITER):
        if best < SEP_TOL:
            return EquilibriumPoint(full_angles(u), True, best)
        delta = full_angles(u)
        diff = delta[:, None] - delta[None, :]
        # d P_ei / d delta_j on the same products as the force
        off = eg * np.sin(diff) - eb * np.cos(diff)
        np.fill_diagonal(off, 0.0)
        dpe = off - np.diag(off.sum(axis=1))
        # d f_i / d delta_j, including the COI share of d P_SYS
        jac_full = -dpe + np.outer(m_share, dpe.sum(axis=0))
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
    return EquilibriumPoint(full_angles(u), best < SEP_TOL, best)
