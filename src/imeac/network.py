"""Bus admittance assembly and Kron reduction to machine internal nodes.

Raw cases describe a physical network (buses, branches, loads, machine
transient reactances).  This module turns that description into the
three reduced internal-node networks of the classical model:

  * loads become constant admittances Y = (P - jQ) / |V|^2,
  * each machine adds an internal node behind 1/(j x'd),
  * every non-internal node is eliminated (Kron reduction),
  * the fault-on stage grounds the faulted bus (bolted three-phase
    fault), the post-fault stage removes the cleared branch.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .case import ReducedNetwork
from .errors import NetworkReductionError

# branch: (from_bus, to_bus, r, x, b_charging_total) with 0-based indices
Branch = tuple[int, int, float, float, float]


def build_bus_admittance(n_bus: int, branches: Sequence[Branch]) -> np.ndarray:
    """Assemble the complex bus admittance matrix from series branches.

    Line charging b is the total susceptance of the branch, split
    half-half onto its terminal buses.
    """
    y = np.zeros((n_bus, n_bus), dtype=complex)
    for f, t, r, x, b in branches:
        y_series = 1.0 / complex(r, x)
        y_shunt = 0.5j * b
        y[f, f] += y_series + y_shunt
        y[t, t] += y_series + y_shunt
        y[f, t] -= y_series
        y[t, f] -= y_series
    return y


def kron_reduce(
    full_y: np.ndarray,
    generator_nodes: Sequence[int],
    load_admittances: np.ndarray | None = None,
    name: str = "network",
) -> ReducedNetwork:
    """Eliminate all non-generator nodes: Y_red = Y_gg - Y_gl Y_ll^-1 Y_lg.

    load_admittances (complex, one entry per node of full_y) are added to
    the diagonal first.  A NetworkReductionError names the buses of the
    eliminated islands that are singular or ill-conditioned (or all).
    """
    y = np.array(full_y, dtype=complex)
    if load_admittances is not None:
        y[np.diag_indices_from(y)] += np.asarray(load_admittances, dtype=complex)
    keep = list(generator_nodes)
    elim = [i for i in range(y.shape[0]) if i not in set(keep)]
    y_ll = y[np.ix_(elim, elim)]
    y_lg = y[np.ix_(elim, keep)]
    solved = _solve(y_ll, y_lg)
    if isinstance(solved, str):  # name the islands (connected parts) of Y_ll that fail alone
        linked = (y_ll != 0) | (y_ll.T != 0) | np.eye(len(elim), dtype=bool)
        parts = map(np.flatnonzero, np.unique(np.linalg.matrix_power(linked, len(elim)), axis=0))
        failed = [p for p in parts if isinstance(_solve(y_ll[np.ix_(p, p)], y_lg[p]), str)]
        raise NetworkReductionError(sorted(elim[i] for p in failed for i in p) or elim, solved)
    reduced = y[np.ix_(keep, keep)] - y[np.ix_(keep, elim)] @ solved
    return ReducedNetwork(g=reduced.real, b=reduced.imag, name=name)


def _solve(y_ll: np.ndarray, y_lg: np.ndarray) -> np.ndarray | str:
    """Y_ll^-1 Y_lg, or why it fails: singular, or a residual past 1e-6 of max(|Y_lg|, 1)."""
    try:
        solved = np.linalg.solve(y_ll, y_lg)
    except np.linalg.LinAlgError:
        return "singular eliminated subnetwork"
    residual = np.max(np.abs(y_ll @ solved - y_lg), initial=0.0)
    ok = np.isfinite(residual) and residual <= 1e-6 * np.max(np.abs(y_lg), initial=1.0)
    return solved if ok else "ill-conditioned eliminated subnetwork"


def internal_emf(v_term: complex, p_gen: float, q_gen: float, xd_prime: float) -> complex:
    """Internal EMF phasor E = V + j x'd I with I = (P - jQ) / conj(V)."""
    current = complex(p_gen, -q_gen) / v_term.conjugate()
    return v_term + 1j * xd_prime * current


def staged_reduction(
    n_bus: int,
    branches: Sequence[Branch],
    load_admittances: np.ndarray,
    gen_buses: Sequence[int],
    xd_primes: Sequence[float],
    fault_bus: int,
    cleared_branch: tuple[int, int],
) -> tuple[ReducedNetwork, ReducedNetwork, ReducedNetwork]:
    """Build the pre-fault, fault-on and post-fault reduced networks.

    The bus system is augmented with one internal node per machine
    (index n_bus + k) tied to its terminal through 1/(j x'd); all
    original buses are then eliminated.  Stage differences: the
    fault-on stage grounds fault_bus (its row/column is removed before
    elimination, pinning the node voltage to zero); the post-fault
    stage rebuilds the matrix without the cleared branch.  A
    NetworkReductionError names buses by their index, in every stage.
    """
    n_gen = len(gen_buses)
    n_all = n_bus + n_gen
    internal = list(range(n_bus, n_all))
    loads = np.concatenate([np.asarray(load_admittances, complex), np.zeros(n_gen, complex)])

    def augmented(branch_list: Sequence[Branch]) -> np.ndarray:
        y = np.zeros((n_all, n_all), dtype=complex)
        y[:n_bus, :n_bus] = build_bus_admittance(n_bus, branch_list)
        for k, (bus, xdp) in enumerate(zip(gen_buses, xd_primes)):
            node = n_bus + k
            y_gen = 1.0 / complex(0.0, xdp)
            y[node, node] += y_gen
            y[bus, bus] += y_gen
            y[node, bus] -= y_gen
            y[bus, node] -= y_gen
        return y

    y_pre = augmented(branches)
    net_pre = kron_reduce(y_pre, internal, loads, name="net_prefault")

    # bolted fault: drop the faulted bus, then eliminate the rest
    idx = np.delete(np.arange(n_all), fault_bus)
    y_fault = y_pre[np.ix_(idx, idx)]
    internal_fault = [int(np.searchsorted(idx, node)) for node in internal]
    try:
        net_fault = kron_reduce(y_fault, internal_fault, loads[idx], name="net_faulton")
    except NetworkReductionError as exc:  # positions without the faulted bus, as bus indices
        raise NetworkReductionError(idx[list(exc.buses)].tolist(), exc.reason) from exc

    f, t = cleared_branch
    remaining = [br for br in branches if not (br[0], br[1]) == (f, t) and not (br[1], br[0]) == (f, t)]
    if len(remaining) == len(branches):
        raise NetworkReductionError(
            [f, t], "cleared_branch does not match any branch"
        )
    if len(branches) - len(remaining) > 1:
        raise NetworkReductionError([f, t], "cleared_branch matches multiple branches")
    y_post = augmented(remaining)
    net_post = kron_reduce(y_post, internal, loads, name="net_postfault")
    return net_pre, net_fault, net_post
