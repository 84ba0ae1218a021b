"""ring10 and the modified cases, defined once for the tests (through conftest.py) and the scripts.

A builder uses the classes of the case it modifies, or imports ``imeac``
when called, so a script may load this module before choosing a source
tree's package.  Standard library and numpy only.
"""

from __future__ import annotations

import dataclasses
import importlib
import math

import numpy as np


def ten_machine_case(imeac=None):
    """ring10: tests/test_properties.py's generated case for 10 machines, unit draws from seed 5.

    From 8 machines on, numpy sums a contiguous axis pairwise, so it
    shows where the order of a machine-axis sum matters.  ``imeac`` is
    the package to build it with, the importable one by default.
    """
    imeac = imeac or importlib.import_module("imeac")
    MachineParams, StabilityCase = imeac.MachineParams, imeac.StabilityCase
    staged_reduction = imeac.network.staged_reduction

    n, n_bus = 10, 11
    unit = iter(np.random.default_rng(5).random(64)).__next__
    branches = [(b, (b + 1) % n_bus, 0.02 * unit(), 0.05 + 0.25 * unit(), 0.0)
                for b in range(n_bus)]
    loads = np.array([complex(0.2 + 0.8 * unit(), -0.3 * unit()) if b >= n else 0.0
                      for b in range(n_bus)])
    pre, fault, post = staged_reduction(
        n_bus=n_bus, branches=branches, load_admittances=loads, gen_buses=list(range(n)),
        xd_primes=[0.05 + 0.25 * unit() for _ in range(n)], fault_bus=3,
        cleared_branch=branches[5][:2],
    )
    m = [0.02 + 0.2 * unit() for _ in range(n)]
    e = np.array([1.0 + 0.2 * unit() for _ in range(n)])
    delta0 = np.array([0.6 * unit() - 0.3 for _ in range(n)])
    diff = delta0[:, None] - delta0[None, :]
    pm = e * np.einsum("...ij,j->...i", pre.g * np.cos(diff) + pre.b * np.sin(diff), e)
    machines = tuple(MachineParams(id=i, m=m[i], pm=float(pm[i]), e=e[i]) for i in range(n))
    return StabilityCase(machines, pre, fault, post, delta0, np.zeros(n), label="ring10")


def light_smib(smib):
    """smib with every machine but the infinite bus 100x lighter: most probes diverge."""
    return dataclasses.replace(smib, machines=tuple(
        dataclasses.replace(m, m=m.m * 0.01) if m.m < 1e5 else m for m in smib.machines))


def w_overflow_case(wscc):
    """wscc9 with its post-fault network scaled to max |E_i E_j B_ij| = 0.2 x the largest float.

    The fault-on motion is wscc9's; only the W integrand (post-fault
    forces times omega_COI) overflows, in the fault-on stage at 0.218 s
    when the fault lasts that long.
    """
    net, e = wscc.net_postfault, wscc.e_vector()
    scale = 0.2 * np.finfo(float).max / np.max(np.abs(np.outer(e, e) * net.b))
    g, b = net.g * scale, net.b * scale
    post = type(net)((g + g.T) / 2, (b + b.T) / 2, net.name)
    return dataclasses.replace(wscc, net_postfault=post)


def w_overflow_after_clearing(wscc):
    """wscc9 with inertias x 1e306, the post-fault network x 1e307 and initial speeds of +-6 rad/s.

    The motion stays slow (|omega| far below the 1e4 rad/s guard), while
    the post-fault forces reach about 1e307: only W overflows, after
    clearing, at a step that depends on the clearing time, and some
    clearing times keep a finite W throughout.
    """
    net = wscc.net_postfault
    g, b = net.g * 1e307, net.b * 1e307
    return dataclasses.replace(
        wscc, machines=tuple(dataclasses.replace(m, m=m.m * 1e306) for m in wscc.machines),
        net_postfault=type(net)((g + g.T) / 2, (b + b.T) / 2, net.name),
        omega0=np.array([6.0, -6.0, 0.0]))


def with_damping(case):
    """case with damping D = 0.02 p.u. s/rad on every machine."""
    return dataclasses.replace(
        case, machines=tuple(dataclasses.replace(m, d=0.02) for m in case.machines))


def weak_postfault(wscc):
    """wscc9 with its post-fault G and B scaled by 0.5: the post-fault SEP does not converge."""
    net = wscc.net_postfault
    return dataclasses.replace(wscc, net_postfault=type(net)(net.g * 0.5, net.b * 0.5, net.name))


def two_machine_case(pm=0.8, b=1.5, m0=0.05, m1=0.08, fault_b=0.0, post_b=None, label="pair"):
    """Lossless two-machine case in exact pre-fault equilibrium.

    Unit EMFs, transfer susceptance b, machine 0 exporting pm; the
    fault-on and post-fault transfer susceptances are configurable, from
    a bolted fault to a no-op switch.
    """
    from imeac import MachineParams, ReducedNetwork, StabilityCase

    post_b = b if post_b is None else post_b
    m = np.array([m0, m1])
    delta0 = np.array([math.asin(pm / b), 0.0])
    delta0 = delta0 - (m @ delta0) / m.sum()

    def net(bval, name):
        return ReducedNetwork(np.zeros((2, 2)), np.array([[-bval, bval], [bval, -bval]]), name)

    machines = (MachineParams(0, m0, pm, 1.0), MachineParams(1, m1, -pm, 1.0))
    return StabilityCase(machines, net(b, "net_prefault"), net(fault_b, "net_faulton"),
                         net(post_b, "net_postfault"), delta0, np.zeros(2), label=label)
