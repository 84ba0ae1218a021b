"""Integrator: config validation, closed-form checks, channel laws."""

from __future__ import annotations

import io
import math

import numpy as np
import pytest

from imeac import (
    SimulationConfig,
    Trajectory,
    coi_forces,
    compute_energy,
    simulate,
)
from imeac.dynamics import FaultOnPrefix, SwingKernel, trajectory_header, write_trajectory
from conftest import coi_identity_errors, run_pool, two_machine_case


def double_sum_forces(case, net, delta):
    """f_i-SYS written out as loops: an oracle independent of the force code."""
    n = case.n
    e, m, pm = case.e_vector(), case.m_vector(), case.pm_vector()
    acc = [
        pm[i] - sum(
            e[i] * e[j] * (net.g[i, j] * math.cos(delta[i] - delta[j])
                           + net.b[i, j] * math.sin(delta[i] - delta[j]))
            for j in range(n)
        )
        for i in range(n)
    ]
    return np.array([acc[i] - m[i] / m.sum() * sum(acc) for i in range(n)])


class TestConfigValidation:
    def test_clear_before_end(self):
        with pytest.raises(ValueError, match="t_clear < t_end"):
            SimulationConfig(t_clear=1.0, t_end=0.5)

    def test_positive_clear(self):
        with pytest.raises(ValueError, match="t_clear"):
            SimulationConfig(t_clear=0.0, t_end=1.0)

    def test_grid_alignment(self):
        with pytest.raises(ValueError, match="integer multiple"):
            SimulationConfig(t_clear=0.1005, t_end=1.0, dt=1e-3)
        with pytest.raises(ValueError, match="t_end"):
            SimulationConfig(t_clear=0.1, t_end=1.0007, dt=1e-3)

    @pytest.mark.parametrize(
        "kwargs, message",
        [({"t_clear": 0.1, "t_end": 1.0, "dt": 1e-320}, r"^t_clear=0\.1 is too large for dt=1e-320$"),
         ({"t_clear": 1e307, "t_end": 1e308}, r"^t_clear=1e\+307 is too large for dt=0\.001$"),
         ({"t_clear": 0.1, "t_end": math.inf}, r"^t_end=inf is too large for dt=0\.001$")],
        ids=["dt", "t_clear", "t_end"],
    )
    def test_overflowing_step_counts_name_their_field(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            SimulationConfig(**kwargs)

    @pytest.mark.parametrize("dt", [math.inf, math.nan])
    def test_nonfinite_dt_is_refused(self, dt):
        with pytest.raises(ValueError, match=rf"^dt must be finite and > 0, got {dt}$"):
            SimulationConfig(t_clear=0.1, t_end=1.0, dt=dt)

    def test_indices(self):
        cfg = SimulationConfig(t_clear=0.25, t_end=2.0, dt=1e-3)
        assert cfg.clear_index == 250
        assert cfg.n_steps == 2000


class TestRk4Step:
    def test_linear_decay_order(self, smib):
        # fourth order through both stages: halving dt cuts the error ~16x
        def final_state(dt):
            traj = simulate(smib, SimulationConfig(t_clear=0.1, t_end=1.0, dt=dt))
            return np.concatenate([traj.delta[:, -1], traj.omega[:, -1], traj.pe_integral[:, -1]])

        coarse, mid, fine = (final_state(dt) for dt in (0.004, 0.002, 0.001))
        ratio = np.max(np.abs(coarse - mid)) / np.max(np.abs(mid - fine))
        assert 14.0 < ratio < 18.0

    def test_quadratic_in_time_is_exact(self):
        # constant acceleration under a bolted fault: exact even for a
        # step far too coarse for the swing itself
        case = two_machine_case(pm=0.8, m0=0.05, m1=0.08, fault_b=0.0)
        cfg = SimulationConfig(t_clear=0.5, t_end=1.0, dt=0.05)
        traj = simulate(case, cfg)
        k = cfg.clear_index
        t = traj.times[: k + 1]
        a = 0.8 / case.machines[0].m
        np.testing.assert_allclose(
            traj.delta[0, : k + 1], case.delta0[0] + 0.5 * a * t**2, rtol=0.0, atol=1e-13
        )

    def test_forward_backward_step_returns_state(self, wscc):
        # undamped swing dynamics one step forward then one step back
        kernel = SwingKernel(wscc)
        n = wscc.n
        y0 = np.concatenate([wscc.delta0 + 0.3, np.linspace(-1.0, 1.0, n), np.zeros(n)])
        y1 = kernel.step(y0, kernel.stage(y0, False)[0], False, 1e-3)
        y_back = kernel.step(y1, kernel.stage(y1, False)[0], False, -1e-3)
        np.testing.assert_allclose(y_back, y0, rtol=0.0, atol=1e-10)

    def test_batch_row_equals_single_state(self, wscc):
        # the stage reduces over machines only: a row of a batch is
        # advanced bit for bit like the same state alone
        kernel = SwingKernel(wscc)
        n = wscc.n
        rng = np.random.default_rng(3)
        batch = np.concatenate(
            [wscc.delta0 + rng.normal(0.0, 0.5, (5, n)), rng.normal(0.0, 2.0, (5, n)),
             rng.normal(0.0, 0.1, (5, n))],
            axis=1,
        )
        for fault_stage in (True, False):
            stepped = kernel.step(batch, kernel.stage(batch, fault_stage)[0], fault_stage, 1e-3)
            for row, y in zip(stepped, batch):
                alone = kernel.step(y, kernel.stage(y, fault_stage)[0], fault_stage, 1e-3)
                assert np.array_equal(row, alone)

    def test_stage_forces_are_coi_forces(self, wscc):
        # one force formula: the stage's f_active and f_pf are coi_forces
        # on the fault-on and post-fault networks, bit for bit
        kernel = SwingKernel(wscc)
        n = wscc.n
        rng = np.random.default_rng(8)
        batch = np.concatenate(
            [wscc.delta0 + rng.normal(0.0, 0.7, (6, n)), rng.normal(0.0, 2.0, (6, n)),
             np.zeros((6, n))],
            axis=1,
        )
        for y in (batch[0], batch):
            _, _, f_act, f_pf = kernel.stage(y, True)
            assert np.array_equal(f_act, coi_forces(wscc.net_faulton, wscc.machines, y[..., :n]))
            assert np.array_equal(f_pf, coi_forces(wscc.net_postfault, wscc.machines, y[..., :n]))
            _, _, f_act, f_pf = kernel.stage(y, False)
            assert np.array_equal(f_act, f_pf)
            assert np.array_equal(f_pf, coi_forces(wscc.net_postfault, wscc.machines, y[..., :n]))


class TestSimulate:
    def test_constant_acceleration_during_bolted_fault(self):
        # zero fault-on network: delta(t) = delta0 + a t^2 / 2 exactly
        case = two_machine_case(pm=0.8, m0=0.05, m1=0.08, fault_b=0.0)
        cfg = SimulationConfig(t_clear=0.2, t_end=0.4, dt=1e-3)
        traj = simulate(case, cfg)
        k = cfg.clear_index
        t = traj.times[: k + 1]
        for i, sign in ((0, +1.0), (1, -1.0)):
            a = sign * 0.8 / case.machines[i].m
            expected = case.delta0[i] + 0.5 * a * t**2
            np.testing.assert_allclose(traj.delta[i, : k + 1], expected, atol=1e-12)
            np.testing.assert_allclose(traj.omega[i, : k + 1], a * t, atol=1e-12)

    def test_no_disturbance_stays_at_equilibrium(self):
        case = two_machine_case(fault_b=1.5)  # fault-on net == pre-fault net
        traj = simulate(case, SimulationConfig(t_clear=0.5, t_end=1.5))
        assert np.max(np.abs(traj.delta - case.delta0[:, None])) < 1e-12
        assert np.max(np.abs(traj.omega)) < 1e-12
        assert np.max(np.abs(traj.pe_integral)) < 1e-12

    def test_deterministic(self, wscc):
        cfg = SimulationConfig(t_clear=0.1, t_end=0.5)
        a, b = simulate(wscc, cfg), simulate(wscc, cfg)
        for name in ("times", "delta", "omega", "omega_coi", "f_coi", "pe_integral"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_state_continuous_at_clearing(self, wscc_stable_run):
        traj = wscc_stable_run
        k = traj.clear_index
        # the switch lands on a sample: angles/speeds have no jump, the
        # active-network force does
        assert traj.times[k] == pytest.approx(0.100, abs=1e-12)
        step = np.max(np.abs(np.diff(traj.delta[:, k - 2 : k + 3], axis=1)))
        assert step < 0.05

    def test_coi_channels_follow_definitions(self, wscc, wscc_stable_run):
        traj = wscc_stable_run
        m = wscc.m_vector()
        ref = (m @ traj.omega) / m.sum()
        np.testing.assert_allclose(traj.omega_coi, traj.omega - ref, atol=1e-12)
        p, f = coi_identity_errors(wscc, traj)
        assert p < 1e-9 * m.sum() and f < 1e-8

    def test_force_channel_matches_network_of_each_stage(self, wscc, wscc_stable_run):
        traj = wscc_stable_run
        k = traj.clear_index
        during = double_sum_forces(wscc, wscc.net_faulton, traj.delta[:, k - 5])
        after = double_sum_forces(wscc, wscc.net_postfault, traj.delta[:, k + 5])
        np.testing.assert_allclose(traj.f_coi[:, k - 5], during, atol=1e-12)
        np.testing.assert_allclose(traj.f_coi[:, k + 5], after, atol=1e-12)
        # the post-fault channel agrees with the active one after clearing
        np.testing.assert_allclose(
            traj.f_coi[:, k:], traj.f_coi_pf[:, k:], atol=1e-12
        )

    def test_divergence_on_first_step(self):
        # a feather-light machine under a bolted fault leaves the guard
        # region on the very first step: one sample survives
        case = two_machine_case(pm=0.8, m0=1e-8, m1=1.0, fault_b=0.0)
        traj = simulate(case, SimulationConfig(t_clear=0.1, t_end=0.5))
        assert traj.diverged
        assert traj.n_samples == 1
        assert traj.divergence_time == pytest.approx(1e-3)

    def test_divergence_guard_truncates(self):
        case = two_machine_case(pm=1.0, m0=1e-4, m1=1.0, fault_b=0.0)
        cfg = SimulationConfig(t_clear=2.0, t_end=3.0)
        traj = simulate(case, cfg)
        assert traj.diverged
        assert traj.divergence_time is not None and traj.divergence_time <= 2.0
        assert traj.n_samples < cfg.n_steps + 1
        assert np.all(np.isfinite(traj.omega))


class TestTrajectoryExport:
    def test_roundtrip_through_tsv(self, wscc, wscc_stable_run):
        traj = wscc_stable_run
        ke = np.zeros_like(traj.omega_coi)
        pe = np.ones_like(traj.omega_coi)
        stream = io.StringIO()
        write_trajectory(stream, traj, ke, pe)
        text = stream.getvalue().splitlines()
        assert text[0] == trajectory_header(wscc.n).rstrip("\n")
        data = np.loadtxt(io.StringIO("\n".join(text)))
        assert data.shape == (traj.n_samples, 1 + 7 * wscc.n)
        np.testing.assert_allclose(data[:, 0], traj.times, atol=1e-12)
        np.testing.assert_allclose(data[:, 1 : 1 + wscc.n].T, traj.delta, rtol=1e-9)

    def test_bytes_equal_per_value_formatting(self, wscc, wscc_sep, wscc_stable_run):
        # the one-format-per-row writer against formatting every value alone
        traj = wscc_stable_run
        channels = compute_energy(wscc, traj, wscc_sep)
        pe = channels.pe.copy()
        pe[0, :5] = [np.nan, np.inf, -np.inf, -0.0, 5e-324]
        stream = io.StringIO()
        write_trajectory(stream, traj, channels.ke, pe)
        table = np.vstack([
            traj.times[None, :], traj.delta, traj.omega, traj.delta_coi, traj.omega_coi,
            traj.f_coi, channels.ke, pe,
        ]).T
        expected = trajectory_header(wscc.n) + "\n" + "".join(
            "\t".join(f"{v:.10e}" for v in row) + "\n" for row in table
        )
        assert stream.getvalue().encode() == expected.encode()


class TestRowPool:
    @pytest.mark.parametrize("block", [1, 2, 128])
    def test_late_joiner_equals_row_alone(self, wscc, block):
        # a row that joins a running pool at a block boundary steps bit
        # for bit as it does alone, and so does the row it joined
        kernel = SwingKernel(wscc)
        prefix = FaultOnPrefix(kernel, wscc, 1e-3)
        heads = [prefix.state(140), prefix.state(160)]
        alone = [run_pool(kernel, [h], 300, 1e-3, block)[0] for h in heads]
        for join_after in (0, 1, 3, 300 // block):
            joined = run_pool(kernel, heads, 300, 1e-3, block, join_after)
            for (got, got_lost), (want, want_lost) in zip(joined, alone):
                assert np.array_equal(got, want)
                assert got_lost == want_lost
        assert alone[0][0].shape == (301, 5 * wscc.n)

    def test_row_matches_simulate(self, wscc):
        cfg = SimulationConfig(t_clear=0.15, t_end=0.65)
        traj = simulate(wscc, cfg)
        kernel = SwingKernel(wscc)
        head = FaultOnPrefix(kernel, wscc, cfg.dt).state(cfg.clear_index)
        (samples, lost), = run_pool(kernel, [head], 500, cfg.dt, 7, first=cfg.clear_index)
        assert not lost
        assert np.array_equal(samples[:, : wscc.n].T, traj.delta[:, cfg.clear_index :])
        assert np.array_equal(samples[:, 4 * wscc.n :].T, traj.f_coi_pf[:, cfg.clear_index :])

    def test_rows_leave_at_their_own_horizon(self, wscc):
        # rows that join at different times end at different samples; no
        # row steps past its budget
        kernel = SwingKernel(wscc)
        prefix = FaultOnPrefix(kernel, wscc, 1e-3)
        records = run_pool(kernel, [prefix.state(100), prefix.state(120)], 50, 1e-3, 16, 1)
        assert [r.shape[0] for r, _ in records] == [51, 51]
