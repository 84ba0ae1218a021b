"""Problem description: machines, staged reduced networks, operating point.

The case model is the immutable input to everything else: machine
parameters, the three reduced admittance networks (pre-fault, fault-on,
post-fault), and the initial operating point.  It also holds the one
classical-model force formula, ``force_kernel``, which ``mismatch``
runs for the equilibrium check, the post-fault stable equilibrium point
(SEP) solve, the PE baseline and the surface grid, and the RK4 stage on
its workspace; ``coi_share`` makes it f_i-SYS, and ``coi_frame`` is the
one COI projection.  Every machine-axis sum adds its terms one after
another, ((x_0 + x_1) + x_2) + ..., whatever the memory layout, the
force sum from P_m on: numpy itself pairs the terms of an axis innermost
in memory from 8 on.

Conventions: angles in radians, time in seconds, power and energy in
per unit on the system base.  Machine inertia M is in p.u. s^2/rad
(M = 2H / omega_syn).  An infinite bus is modelled as an ordinary
machine with M = 1e6, so single-machine cases need no special path.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
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


def freeze_arrays(obj, *names: str) -> None:
    """Set a frozen dataclass's array fields to read-only float arrays: the inputs, not copies."""
    for name in names:
        arr = np.asarray(getattr(obj, name), dtype=float)
        arr.flags.writeable = False
        object.__setattr__(obj, name, arr)


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


def machine_sum(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """sum_j x_j over the machine axis, kept as length 1: term by term, whatever the memory layout."""
    head = (slice(None),) * (axis % x.ndim)
    return functools.reduce(np.add, (x[head + (slice(j, j + 1),)] for j in range(x.shape[axis])))


def coi_frame(x: np.ndarray, m_share: np.ndarray, axis: int = -1) -> np.ndarray:
    """COI-frame values x_i - x_SYS along the machine axis; m_share is M_i / M_SYS."""
    return x - machine_sum(x * m_share, axis)


def force_kernel(products, pm, angles, fill: bool = False):
    """The one force formula, its temporaries and ufuncs bound once: returns mismatch_into(s, out).

    mismatch_into writes P_m - P_e, P_ei = sum_j E_i E_j (G_ij cos d_ij +
    B_ij sin d_ij), at angles[s] (each (n, *rest)) on the k networks of
    ``products`` (k, 2, n, n) into out (k, n, *rest), (n, *rest) if k =
    1, or a new array: one reduction adds the rows P_m, -E_iE_jG_ij cos
    d_ij and -E_iE_jB_ij sin d_ij (j = 0..n-1), each (k, n_i, *rest), one
    by one from P_m; ``fill`` makes the products block-shaped.
    """
    n, rest, k = len(angles[0]), angles[0].shape[1:], len(products)
    nets, net = ((k,), (1,)) if k > 1 else ((), ())
    d_i = [a.reshape((1,) + net + (n,) + rest) for a in angles]  # each (1, [1,] n_i, *rest)
    d_j = [a.reshape((n, 1) + net + rest) for a in angles]  # each (n_j, 1, [1,] *rest)
    lead, ones = (2, n) + nets + (n,), (1,) * len(rest)  # -E_iE_jG_ij cos | -E_iE_jB_ij sin
    rows = np.empty((1 + 2 * n,) + nets + (n,) + rest)  # P_m, then the terms
    rows[0], terms = pm.reshape((n,) + ones), rows[1:].reshape(lead + rest)
    trig = cos_d, sin_d = terms if k == 1 else np.empty((2, n) + net + (n,) + rest)  # in place
    egb = -np.transpose(products, (1, 3, 0, 2)).reshape(lead + ones)
    egb = np.full(terms.shape, egb) if fill else egb
    subtract, cos, sin, multiply, reduce = np.subtract, np.cos, np.sin, np.multiply, np.add.reduce

    def mismatch_into(s: int, out):
        subtract(d_i[s], d_j[s], sin_d)  # d_i - d_j, then its sine in place
        cos(sin_d, cos_d)
        sin(sin_d, sin_d)
        multiply(egb, trig, terms)
        return reduce(rows, 0, None, out)

    return mismatch_into


def mismatch(products, pm, delta) -> np.ndarray:
    """P_m - P_e of one network's products at angles (..., n), a view of (n, ...) memory."""
    d = np.ascontiguousarray(delta.transpose(-1, *range(delta.ndim - 1)))  # machine-major
    acc = force_kernel(np.asarray(products)[None], pm, (d,))(0, None)
    return acc.transpose(*range(1, d.ndim), 0)


def coi_share(acc: np.ndarray, m_share: np.ndarray, axis: int = -1) -> np.ndarray:
    """f_i-SYS = acc_i - (M_i / M_SYS) sum_j acc_j from acc = P_m - P_e; sums to zero."""
    return acc - machine_sum(acc, axis) * m_share


def coi_forces(
    net: ReducedNetwork, machines: Sequence[MachineParams], delta: np.ndarray
) -> np.ndarray:
    """Force f_i-SYS of every machine on net at angles (n,) or (..., n): coi_share of mismatch."""
    m = np.array([mach.m for mach in machines])
    pm = np.array([mach.pm for mach in machines])
    products = network_products(net, np.array([mach.e for mach in machines]))
    f = coi_share(mismatch(products, pm, np.asarray(delta, dtype=float)), m / m.sum())
    return np.ascontiguousarray(f)  # C order: callers' matrix products keep their bits


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
