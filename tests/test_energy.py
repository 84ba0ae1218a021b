"""Energy channels: the path rule and its oracles, baselines, conservation."""

from __future__ import annotations

import math

import numpy as np
import pytest

from imeac import (
    EquilibriumPoint,
    SimulationConfig,
    SurfaceSpec,
    compute_energy,
    critical_machines,
    detect_events,
    grid_node_angles,
    pe_line_integral,
    simulate,
    solve_postfault_sep,
)
from imeac.case import coi_forces
from imeac.energy import PATH_S, PATH_SEGMENTS, PATH_WEIGHTS, path_rule
from conftest import assess_machines, two_machine_case


def simpson_reference(net, machines, start, end, segments=20000):
    """pe_line_integral's integral by composite Simpson on a fine straight path."""
    s = np.linspace(0.0, 1.0, segments + 1)
    weights = np.ones(segments + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    weights /= 3.0 * segments
    path = start + s[:, None] * (end - start)
    return -(weights @ coi_forces(net, machines, path)) * (end - start)


class TestPathRule:
    def test_weights_positive_and_normalized(self):
        assert PATH_S.shape == PATH_WEIGHTS.shape == (PATH_SEGMENTS + 1,)
        assert np.all(PATH_WEIGHTS > 0.0)
        assert PATH_WEIGHTS.sum() == pytest.approx(1.0, abs=1e-15)

    def test_exact_to_degree_31(self):
        for k in range(2 * PATH_SEGMENTS + 2):
            assert PATH_WEIGHTS @ PATH_S**k == pytest.approx(1.0 / (k + 1), abs=1e-15), k

    def test_equals_numpy_gauss_legendre(self):
        x, w = np.polynomial.legendre.leggauss(PATH_SEGMENTS + 1)
        np.testing.assert_allclose(PATH_S, (x + 1.0) / 2.0, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(PATH_WEIGHTS, w / 2.0, rtol=0.0, atol=1e-15)

    def test_rule_is_built_once_and_read_only(self):
        assert path_rule(PATH_SEGMENTS) == (PATH_S, PATH_WEIGHTS)
        assert not PATH_S.flags.writeable and not PATH_WEIGHTS.flags.writeable

    @pytest.mark.parametrize("case_name", ["star", "wscc"])
    def test_line_integral_matches_fine_simpson_at_window_edges(self, request, case_name):
        # corners and edge midpoints of the SEP +- 2 rad window on axes 1, 2
        case = request.getfixturevalue(case_name)
        sep = solve_postfault_sep(case)
        a, b = sep.delta_s[1], sep.delta_s[2]
        spec = SurfaceSpec(1, (1, 2), ((a - 2, a + 2), (b - 2, b + 2)))
        x, y = np.meshgrid([a - 2, a, a + 2], [b - 2, b, b + 2])
        for node in grid_node_angles(case, spec, x.ravel(), y.ravel()):
            got = pe_line_integral(case.net_postfault, case.machines, sep.delta_s, node)
            want = simpson_reference(case.net_postfault, case.machines, sep.delta_s, node)
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)


class TestLineIntegral:
    def test_two_machine_closed_form(self):
        """Lossless pair: PE has the classical -Pm d - Pmax cos d form.

        In the COI frame the pairwise relative angle d = d0 - d1 drives
        everything, so the summed machine PE must match
        -pm (d - d_s) - b (cos d - cos d_s) along any path.
        """
        pm, b = 0.6, 1.3
        case = two_machine_case(pm=pm, b=b)
        sep = solve_postfault_sep(case)
        d_s = sep.delta_s[0] - sep.delta_s[1]
        rng = np.random.default_rng(17)
        for _ in range(10):
            end = sep.delta_s + np.array([1.0, -1.0]) * rng.uniform(-1.2, 1.2)
            end = end - (case.m_vector() @ end) / case.m_vector().sum()
            d = end[0] - end[1]
            expected = -pm * (d - d_s) - b * (math.cos(d) - math.cos(d_s))
            got = pe_line_integral(case.net_postfault, case.machines, sep.delta_s, end)
            assert got.sum() == pytest.approx(expected, abs=1e-9)

    def test_zero_length_path(self):
        case = two_machine_case()
        sep = solve_postfault_sep(case)
        got = pe_line_integral(case.net_postfault, case.machines, sep.delta_s, sep.delta_s)
        np.testing.assert_allclose(got, 0.0, atol=1e-15)

    def test_additive_along_a_straight_path(self):
        case = two_machine_case()
        sep = solve_postfault_sep(case)
        end = sep.delta_s + np.array([0.7, -0.4375])  # COI-neutral for m0/m1
        mid = sep.delta_s + 0.5 * (end - sep.delta_s)
        whole = pe_line_integral(case.net_postfault, case.machines, sep.delta_s, end)
        split = pe_line_integral(
            case.net_postfault, case.machines, sep.delta_s, mid
        ) + pe_line_integral(case.net_postfault, case.machines, mid, end)
        np.testing.assert_allclose(whole, split, atol=1e-10)


class TestComputeEnergy:
    def test_initial_sample_values(self, wscc, wscc_sep, wscc_stable_run):
        channels = compute_energy(wscc, wscc_stable_run, wscc_sep)
        assert channels.baseline_from_sep
        np.testing.assert_allclose(channels.ke[:, 0], 0.0, atol=1e-15)
        baseline = pe_line_integral(
            wscc.net_postfault, wscc.machines, wscc_sep.delta_s,
            wscc_stable_run.delta_coi[:, 0],
        )
        np.testing.assert_allclose(channels.pe[:, 0], baseline, atol=1e-12)
        np.testing.assert_allclose(
            channels.total, channels.ke + channels.pe, atol=1e-15
        )

    def test_unconverged_sep_drops_baseline(self, wscc, wscc_stable_run):
        fake = EquilibriumPoint(
            delta_s=np.zeros(wscc.n), converged=False, residual=1.0
        )
        channels = compute_energy(wscc, wscc_stable_run, fake)
        assert not channels.baseline_from_sep
        np.testing.assert_allclose(channels.pe[:, 0], 0.0, atol=1e-15)

    def test_total_energy_constant_after_clearing(self):
        case = two_machine_case(pm=0.7, b=1.6, fault_b=0.2)
        sep = solve_postfault_sep(case)
        traj = simulate(case, SimulationConfig(t_clear=0.1, t_end=2.0))
        total = compute_energy(case, traj, sep).total[:, traj.clear_index :]
        drift = np.max(total.max(axis=1) - total.min(axis=1))
        assert drift < 1e-9

    def test_ke_positive_while_faulted(self, wscc, wscc_sep, wscc_stable_run):
        channels = compute_energy(wscc, wscc_stable_run, wscc_sep)
        k = wscc_stable_run.clear_index
        assert np.all(channels.ke[:, k] > 0.0)


class TestScalingProperty:
    def test_common_factor_scales_energy_but_not_margins(self):
        # M, Pm and the admittances scaled together leave the motion and
        # every dimensionless margin unchanged; energies pick up the factor
        base = two_machine_case(pm=0.8, b=1.5, m0=0.05, m1=0.08, fault_b=0.2)
        c = 3.7
        scaled = two_machine_case(
            pm=0.8 * c, b=1.5 * c, m0=0.05 * c, m1=0.08 * c, fault_b=0.2 * c
        )
        cfg = SimulationConfig(t_clear=0.25, t_end=2.0)
        results = []
        for case in (base, scaled):
            traj = simulate(case, cfg)
            channels = compute_energy(case, traj, solve_postfault_sep(case))
            margins = assess_machines(case, traj, channels, detect_events(case, traj))
            results.append((traj, channels, margins))
        (traj_b, ch_b, m_b), (traj_s, ch_s, m_s) = results
        np.testing.assert_allclose(traj_s.delta, traj_b.delta, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(ch_s.ke, c * ch_b.ke, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(ch_s.pe, c * ch_b.pe, rtol=1e-12, atol=1e-12)
        for got, want in zip(m_s, m_b):
            assert got.classification == want.classification
            if want.margin is None:
                assert got.margin is None
            else:
                assert got.margin == pytest.approx(want.margin, rel=1e-9)


class TestSystemEnergy:
    def test_lossless_three_machine_total_is_conserved(self, star):
        # sum of machine totals must be flat on the post-fault stage
        cfg = SimulationConfig(t_clear=0.1, t_end=3.1)
        traj = simulate(star, cfg)
        channels = compute_energy(star, traj, solve_postfault_sep(star))
        system_total = channels.total.sum(axis=0)[traj.clear_index :]
        assert system_total.max() - system_total.min() < 1e-5 * (3.1 - 0.1)


class TestCriticalMachines:
    def test_default_threshold_selects_and_orders_by_ke(self):
        assert critical_machines([1.0, 0.05, 0.3, 0.09]) == [0, 2]

    def test_wscc_flags_follow_clearing_ke(self, wscc, wscc_sep):
        # the 10% KE screen picks machines 1 and 0; machine 2 falls below
        # it yet still separates first -- the flag is reporting order only
        traj = simulate(wscc, SimulationConfig(t_clear=0.2, t_end=1.2))
        channels = compute_energy(wscc, traj, wscc_sep)
        ke = channels.ke[:, traj.clear_index]
        assert critical_machines(ke) == [1, 0]
        assert ke[2] < 0.1 * ke.max()
