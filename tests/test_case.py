"""Core model types: validation, power/force kernels, SEP solve."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from imeac import (
    CaseValidationError,
    EquilibriumPoint,
    MachineParams,
    ReducedNetwork,
    StabilityCase,
    coi_forces,
    solve_postfault_sep,
)
from imeac.case import coi_frame, mismatch, network_products
from conftest import ten_machine_case, two_machine_case


def random_network(n: int, rng: np.random.Generator) -> ReducedNetwork:
    g = rng.uniform(0.0, 0.3, (n, n))
    b = rng.uniform(-1.0, 1.0, (n, n))
    return ReducedNetwork(g=(g + g.T) / 2, b=(b + b.T) / 2, name="net_random")


class TestValidation:
    def test_machine_positive_inertia(self):
        with pytest.raises(CaseValidationError, match=r"machines\[3\].m"):
            MachineParams(id=3, m=0.0, pm=1.0, e=1.0)

    def test_machine_positive_emf(self):
        with pytest.raises(CaseValidationError, match="EMF"):
            MachineParams(id=0, m=1.0, pm=1.0, e=-0.5)

    def test_machine_nonnegative_damping(self):
        with pytest.raises(CaseValidationError, match="damping"):
            MachineParams(id=0, m=1.0, pm=1.0, e=1.0, d=-0.1)

    def test_non_finite_values_are_named(self):
        with pytest.raises(CaseValidationError, match=r"machines\[1\].pm: must be finite"):
            MachineParams(id=1, m=1.0, pm=math.nan, e=1.0)
        # a NaN pair passes the symmetry test (nan - nan > tol is False)
        b = np.array([[-1.8, math.nan], [math.nan, -1.8]])
        with pytest.raises(CaseValidationError, match="net_x.B: non-finite"):
            ReducedNetwork(g=np.zeros((2, 2)), b=b, name="net_x")

    def test_network_square(self):
        with pytest.raises(CaseValidationError, match="square"):
            ReducedNetwork(g=np.zeros((2, 3)), b=np.zeros((2, 3)), name="net_x")

    def test_network_symmetric(self):
        g = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(CaseValidationError, match="symmetric"):
            ReducedNetwork(g=g, b=np.zeros((2, 2)), name="net_x")

    def test_case_rejects_out_of_equilibrium_start(self):
        case = two_machine_case()
        bad_delta0 = case.delta0 + np.array([0.05, 0.0])
        with pytest.raises(CaseValidationError, match=r"machines\[0\].*equilibrium"):
            StabilityCase(
                machines=case.machines,
                net_prefault=case.net_prefault,
                net_faulton=case.net_faulton,
                net_postfault=case.net_postfault,
                delta0=bad_delta0,
                omega0=case.omega0,
            )

    def test_case_rejects_dimension_mismatch(self):
        case = two_machine_case()
        with pytest.raises(CaseValidationError, match="delta0"):
            StabilityCase(
                machines=case.machines,
                net_prefault=case.net_prefault,
                net_faulton=case.net_faulton,
                net_postfault=case.net_postfault,
                delta0=np.zeros(3),
                omega0=case.omega0,
            )

    def test_network_g_and_b_sizes_must_agree(self):
        with pytest.raises(CaseValidationError, match="G and B dimensions differ") as raised:
            ReducedNetwork(g=np.zeros((2, 2)), b=np.zeros((3, 3)), name="net_x")
        assert raised.value.field == "net_x"

    @pytest.mark.parametrize(
        "field, value",
        [
            ("net_faulton", ReducedNetwork(np.zeros((3, 3)), np.zeros((3, 3)), "net_faulton")),
            ("delta0", np.array([math.nan, 0.0])),
            ("omega0", np.array([0.0, math.inf])),
            ("machines", tuple(dataclasses.replace(m, id=1 - m.id) for m in two_machine_case().machines)),
        ],
        ids=["network-size", "delta0", "omega0", "machine-ids"],
    )
    def test_case_fields_are_named(self, field, value):
        with pytest.raises(CaseValidationError) as raised:
            dataclasses.replace(two_machine_case(), **{field: value})
        assert raised.value.field == field

    def test_equilibrium_point_consistency(self):
        with pytest.raises(CaseValidationError, match="residual"):
            EquilibriumPoint(delta_s=np.zeros(2), converged=True, residual=1.0)


def electrical_power(net, machines, delta):
    """P_e read off the one force formula: P_m - (P_m - P_e)."""
    pm = np.array([mach.pm for mach in machines])
    products = network_products(net, np.array([mach.e for mach in machines]))
    return pm - mismatch(products, pm, np.asarray(delta))


class TestElectricalPower:
    def test_matches_explicit_double_sum(self):
        rng = np.random.default_rng(11)
        for n in (2, 4, 7):
            net = random_network(n, rng)
            e = rng.uniform(0.8, 1.2, n)
            machines = tuple(
                MachineParams(id=i, m=1.0, pm=0.0, e=e[i]) for i in range(n)
            )
            delta = rng.uniform(-math.pi, math.pi, n)
            expected = np.zeros(n)
            for i in range(n):
                for j in range(n):
                    d = delta[i] - delta[j]
                    expected[i] += (
                        e[i] * e[j] * (net.g[i, j] * math.cos(d) + net.b[i, j] * math.sin(d))
                    )
            got = electrical_power(net, machines, delta)
            np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-13)

    def test_rotational_symmetry(self):
        rng = np.random.default_rng(5)
        net = random_network(4, rng)
        machines = tuple(MachineParams(id=i, m=1.0, pm=0.0, e=1.1) for i in range(4))
        delta = rng.uniform(-1.0, 1.0, 4)
        base = electrical_power(net, machines, delta)
        for shift in (0.3, -2.0, 11.7):
            np.testing.assert_allclose(
                electrical_power(net, machines, delta + shift), base, rtol=0.0, atol=1e-12
            )

    def test_batched_rows_match_single_calls(self):
        rng = np.random.default_rng(3)
        net = random_network(3, rng)
        machines = tuple(MachineParams(id=i, m=1.0, pm=0.0, e=1.0) for i in range(3))
        batch = rng.uniform(-2.0, 2.0, (10, 3))
        got = electrical_power(net, machines, batch)
        for row in range(10):
            # only the machine axis is reduced: a batch row is the lone call, bit for bit
            np.testing.assert_array_equal(got[row], electrical_power(net, machines, batch[row]))


class TestCoi:
    def test_transform_zeroes_weighted_mean(self):
        rng = np.random.default_rng(2)
        m = rng.uniform(0.1, 10.0, 6)
        x = rng.uniform(-5.0, 5.0, 6)
        assert abs(m @ coi_frame(x, m / m.sum())) < 1e-12 * m.sum()

    def test_forces_sum_to_zero(self):
        rng = np.random.default_rng(9)
        case = two_machine_case()
        for _ in range(20):
            delta = rng.uniform(-math.pi, math.pi, 2)
            f = coi_forces(case.net_prefault, case.machines, delta)
            assert abs(f.sum()) < 1e-12

    def test_forces_vanish_at_equilibrium(self):
        case = two_machine_case()
        f = coi_forces(case.net_prefault, case.machines, case.delta0)
        np.testing.assert_allclose(f, 0.0, atol=1e-12)


def term_by_term(x):
    """sum_j x[..., j] one term after another: ((x_0 + x_1) + x_2) + ..."""
    total = x[..., 0]
    for j in range(1, x.shape[-1]):
        total = total + x[..., j]
    return total


class TestSumOrder:
    """Every machine-axis sum runs term by term, whatever the memory layout of the angles.

    numpy sums an axis that is innermost in memory pairwise from 8 terms
    on, any other axis term by term; ring10 (n = 10) tells the two apart.
    """

    @pytest.fixture(scope="class")
    def ring(self):
        return ten_machine_case()

    def expected(self, case, delta):
        """(P_m - P_e, f_i-SYS) at angles (..., n), each sum spelled out on the same products.

        P_m - P_e adds P_m, every -E_iE_jG_ij cos d_ij, then every
        -E_iE_jB_ij sin d_ij, one term after another.
        """
        eg, eb = network_products(case.net_postfault, case.e_vector())
        diff = delta[..., :, None] - delta[..., None, :]
        pm = np.broadcast_to(case.pm_vector()[:, None], diff.shape[:-1] + (1,))
        acc = term_by_term(np.concatenate((pm, -eg * np.cos(diff), -eb * np.sin(diff)), -1))
        m = case.m_vector()
        return acc, acc - term_by_term(acc)[..., None] * (m / m.sum())

    def angles(self, case):
        rng = np.random.default_rng(21)
        return case.delta0 + rng.normal(0.0, 1.0, (6, case.n))

    def test_ring10_tells_the_orders_apart(self, ring):
        acc = self.expected(ring, self.angles(ring))[0]
        assert not np.array_equal(np.add.reduce(acc, -1), term_by_term(acc))

    @pytest.mark.parametrize("layout", ["one state", "batch", "transposed batch", "grid chunk"])
    def test_forces_sum_term_by_term(self, ring, layout):
        batch = self.angles(ring)
        nodes = batch.reshape(2, 3, ring.n)  # 2 nodes, 3 path points each
        delta = {
            "one state": batch[0],
            "batch": batch,  # contiguous (B, n): the machine axis innermost in memory
            "transposed batch": np.ascontiguousarray(batch.T).T,  # (B, n) view of (n, B) memory
            # (nodes, points, n) view of (n, nodes, points) memory, as pe_line_to_nodes passes it
            "grid chunk": np.ascontiguousarray(nodes.transpose(2, 0, 1)).transpose(1, 2, 0),
        }[layout]
        acc, f = self.expected(ring, {"one state": batch[0], "grid chunk": nodes}.get(layout, batch))
        products = network_products(ring.net_postfault, ring.e_vector())
        assert np.array_equal(mismatch(products, ring.pm_vector(), delta), acc)
        assert np.array_equal(coi_forces(ring.net_postfault, ring.machines, delta), f)


class TestSepSolve:
    def test_two_machine_closed_form(self):
        case = two_machine_case(pm=0.6, b=1.4, post_b=1.1)
        sep = solve_postfault_sep(case)
        assert sep.converged
        d01 = sep.delta_s[0] - sep.delta_s[1]
        assert abs(d01 - math.asin(0.6 / 1.1)) < 1e-10
        # the SEP is reported in the COI frame
        m = case.m_vector()
        assert abs(m @ sep.delta_s) < 1e-10 * m.sum()

    def test_residual_meets_reported_tolerance(self, wscc):
        sep = solve_postfault_sep(wscc)
        assert sep.converged
        f = coi_forces(wscc.net_postfault, wscc.machines, sep.delta_s)
        assert np.max(np.abs(f)) < 1e-8

    def test_unsolvable_comes_back_unconverged(self):
        # transfer capacity below the scheduled exchange: no SEP exists
        case = two_machine_case(pm=0.9, b=1.2, post_b=0.5)
        sep = solve_postfault_sep(case)
        assert not sep.converged
        assert sep.residual > 1e-8
