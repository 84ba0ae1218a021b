"""Admittance assembly, Kron reduction, and staged fault networks."""

from __future__ import annotations

import numpy as np
import pytest

from imeac import NetworkReductionError
from imeac.network import build_bus_admittance, internal_emf, kron_reduce, staged_reduction


def random_branches(n_bus: int, rng: np.random.Generator) -> list[tuple]:
    """A random connected branch set: a spanning chain plus extras."""
    branches = []
    for k in range(n_bus - 1):
        branches.append((k, k + 1, rng.uniform(0.01, 0.1), rng.uniform(0.05, 0.5), rng.uniform(0.0, 0.3)))
    for _ in range(n_bus):
        i, j = rng.choice(n_bus, size=2, replace=False)
        branches.append((int(i), int(j), rng.uniform(0.01, 0.1), rng.uniform(0.05, 0.5), 0.0))
    return branches


class TestBusAdmittance:
    def test_single_branch_closed_form(self):
        r, x, b = 0.02, 0.2, 0.1
        y = 1.0 / complex(r, x)
        got = build_bus_admittance(2, [(0, 1, r, x, b)])
        expected = np.array([[y + 0.05j, -y], [-y, y + 0.05j]])
        np.testing.assert_allclose(got, expected, atol=1e-15)

    def test_parallel_branches_add(self):
        one = build_bus_admittance(2, [(0, 1, 0.0, 0.5, 0.0)])
        two = build_bus_admittance(2, [(0, 1, 0.0, 0.5, 0.0)] * 2)
        np.testing.assert_allclose(two, 2.0 * one, atol=1e-15)

    def test_row_sums_vanish_without_shunts(self):
        rng = np.random.default_rng(1)
        branches = [(f, t, r, x, 0.0) for f, t, r, x, _ in random_branches(6, rng)]
        y = build_bus_admittance(6, branches)
        np.testing.assert_allclose(y.sum(axis=1), 0.0, atol=1e-12)


class TestKronReduction:
    def test_against_dense_solve(self):
        """Reduced matrix must reproduce I_g = Y_red V_g with dead loads."""
        rng = np.random.default_rng(23)
        n_bus, gens = 8, [0, 3, 5]
        loads = np.zeros(n_bus, dtype=complex)
        loads[[1, 4, 7]] = rng.uniform(0.5, 2.0, 3) - 1j * rng.uniform(0.1, 0.5, 3)
        full = build_bus_admittance(n_bus, random_branches(n_bus, rng))
        net = kron_reduce(full, gens, loads, name="net_test")

        aug = full + np.diag(loads)
        others = [k for k in range(n_bus) if k not in gens]
        for _ in range(5):
            v_gen = rng.uniform(0.9, 1.1, 3) * np.exp(1j * rng.uniform(-0.5, 0.5, 3))
            v_load = np.linalg.solve(
                aug[np.ix_(others, others)], -aug[np.ix_(others, gens)] @ v_gen
            )
            i_gen = aug[np.ix_(gens, gens)] @ v_gen + aug[np.ix_(gens, others)] @ v_load
            y_red = net.g + 1j * net.b
            np.testing.assert_allclose(y_red @ v_gen, i_gen, rtol=0.0, atol=1e-10)

    def test_result_is_symmetric(self):
        rng = np.random.default_rng(4)
        full = build_bus_admittance(5, random_branches(5, rng))
        net = kron_reduce(full, [0, 2], np.full(5, 0.4 - 0.1j), name="net_test")
        np.testing.assert_allclose(net.g, net.g.T, atol=1e-12)
        np.testing.assert_allclose(net.b, net.b.T, atol=1e-12)

    def test_singular_interior_is_reported(self):
        # bus 2 is isolated: the load block cannot be eliminated
        full = build_bus_admittance(3, [(0, 1, 0.0, 0.5, 0.0)])
        with pytest.raises(NetworkReductionError):
            kron_reduce(full, [0], None, name="net_test")

    def test_only_the_failing_island_is_named(self):
        # buses 1-2 hang off the machine bus 0 with loads; bus 3 is an
        # island of its own with a load, healthy although no path leads to
        # a machine; buses 4-5 float: one lossless branch, no load
        full = build_bus_admittance(6, [(0, 1, 0.0, 0.5, 0.0), (1, 2, 0.0, 0.4, 0.0),
                                        (4, 5, 0.0, 0.5, 0.0)])
        loads = np.array([0.0, 0.5 - 0.1j, 0.3, 0.4 - 0.2j, 0.0, 0.0])
        with pytest.raises(NetworkReductionError, match="singular") as raised:
            kron_reduce(full, [0], loads, name="net_test")
        assert raised.value.buses == (4, 5)
        # without the floating pair the same network reduces
        kron_reduce(full[:4, :4], [0], loads[:4], name="net_test")

    def test_nothing_to_eliminate_keeps_the_matrix(self):
        rng = np.random.default_rng(6)
        full = build_bus_admittance(3, random_branches(3, rng))
        net = kron_reduce(full, [0, 1, 2], None, name="net_test")
        assert np.array_equal(net.g, full.real) and np.array_equal(net.b, full.imag)


class TestInternalEmf:
    def test_zero_reactance_is_terminal_voltage(self):
        assert internal_emf(1.02 + 0.1j, 0.8, 0.2, 0.0) == 1.02 + 0.1j

    def test_closed_form(self):
        # E = V + j x' (P - jQ)/conj(V), with V = 1 + 0j
        got = internal_emf(1.0 + 0.0j, 1.0, 0.0, 0.5)
        assert abs(got - (1.0 + 0.5j)) < 1e-15


class TestStagedReduction:
    def staged(self):
        branches = [
            (0, 1, 0.01, 0.1, 0.02),
            (1, 2, 0.02, 0.2, 0.04),
            (0, 2, 0.015, 0.15, 0.0),
        ]
        loads = np.array([0.0, 0.6 - 0.2j, 0.0])
        return staged_reduction(
            n_bus=3,
            branches=branches,
            load_admittances=loads,
            gen_buses=[0, 2],
            xd_primes=[0.1, 0.2],
            fault_bus=1,
            cleared_branch=(1, 2),
        )

    def test_postfault_equals_rebuild_without_branch(self):
        _, _, post = self.staged()
        remaining = [(0, 1, 0.01, 0.1, 0.02), (0, 2, 0.015, 0.15, 0.0)]
        full = build_bus_admittance(3, remaining)
        n_aug = 5
        aug = np.zeros((n_aug, n_aug), dtype=complex)
        aug[:3, :3] = full
        for k, (bus, xdp) in enumerate(zip([0, 2], [0.1, 0.2])):
            y = 1.0 / (1j * xdp)
            node = 3 + k
            aug[node, node] += y
            aug[bus, bus] += y
            aug[node, bus] -= y
            aug[bus, node] -= y
        aug[1, 1] += 0.6 - 0.2j
        from imeac.network import kron_reduce

        expected = kron_reduce(aug, [3, 4], None, name="net_postfault")
        np.testing.assert_allclose(post.g, expected.g, atol=1e-12)
        np.testing.assert_allclose(post.b, expected.b, atol=1e-12)

    def test_faulted_bus_weakens_transfer(self):
        # branch 0-2 still couples the units, but grounding bus 1
        # must strictly weaken the transfer susceptance
        pre, fault, _ = self.staged()
        assert 0.0 < fault.b[0, 1] < pre.b[0, 1]

    def test_faulton_error_names_buses_not_positions(self):
        # grounding bus 0 leaves buses 1 and 2 (positions 0 and 1 once it is
        # dropped) with the exactly singular block j [[-4, 1], [1, -0.25]];
        # the pre-fault block with bus 0 is regular
        with pytest.raises(NetworkReductionError, match="singular") as raised:
            staged_reduction(
                n_bus=3,
                branches=[(0, 1, 0.0, 1.0, 0.0), (1, 2, 0.0, 1.0, 0.0)],
                load_admittances=np.array([0.0, 0.0, 0.75j]),
                gen_buses=[1],
                xd_primes=[0.5],
                fault_bus=0,
                cleared_branch=(0, 1),
            )
        assert raised.value.buses == (1, 2)

    def test_unknown_cleared_branch_is_an_error(self):
        with pytest.raises(NetworkReductionError, match="cleared_branch"):
            staged_reduction(
                n_bus=3,
                branches=[(0, 1, 0.01, 0.1, 0.0), (1, 2, 0.02, 0.2, 0.0)],
                load_admittances=np.zeros(3, dtype=complex),
                gen_buses=[0, 2],
                xd_primes=[0.1, 0.2],
                fault_bus=1,
                cleared_branch=(0, 2),
            )
