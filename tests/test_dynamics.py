"""Integrator: config validation, closed-form checks, channel laws."""

from __future__ import annotations

import dataclasses
import io
import math
import re
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

import imeac
from imeac import (
    SimulationConfig,
    Trajectory,
    coi_forces,
    compute_energy,
    load_bundled,
    probe_clearing_time,
    scan_clearing_times,
    simulate,
    solve_postfault_sep,
)
from imeac.assess import assess_system
from imeac.case import coi_frame, coi_share, mismatch, network_products
from imeac.dynamics import (
    BLOCK,
    MAX_STEPS,
    OMEGA_DIVERGENCE,
    FaultOnPrefix,
    RowPool,
    SwingKernel,
    WRITE_ROWS,
    Workspace,
    format_rows,
    trajectory_header,
    write_trajectory,
)
from imeac.errors import ImeacError
from imeac.events import detect_events
from conftest import (
    ReferenceStepper,
    as_rows,
    assert_block_equals_reference,
    assess_machines,
    coi_identity_errors,
    legacy_simulate,
    light_smib,
    rk4_weights,
    run_pool,
    two_machine_case,
    w_overflow_after_clearing,
    w_overflow_case,
    write_trajectory_rows,
)
from test_properties import ten_machine_case

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
from step_cost import STEP_KINDS, calls_per_step  # noqa: E402  (the script's counter, shared)


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

    def test_long_times_keep_their_grid(self):
        # 8324.96 is 832496 x 0.01 to within one float spacing of 8324.96,
        # not to within 1e-12 s; an offset of 1e-9 s is still refused
        assert SimulationConfig(t_clear=0.1, t_end=8324.96, dt=0.01).n_steps == 832496
        message = r"^t_end=1\.000000001 is not an integer multiple of dt=0\.001$"
        with pytest.raises(ValueError, match=message):
            SimulationConfig(t_clear=0.1, t_end=1.0 + 1e-9, dt=1e-3)

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

    @pytest.mark.parametrize("t_clear, t_end", [(1e-13, 1.0), (0.1, 0.1 + 1e-13)])
    def test_each_stage_takes_a_step(self, t_clear, t_end):
        # both times lie on the grid within its tolerance, on the same sample
        with pytest.raises(ValueError, match=r"^need a step of dt=0\.001 before t_clear and one after"):
            SimulationConfig(t_clear=t_clear, t_end=t_end)

    def test_step_count_is_capped(self):
        # the count in at most 7 significant digits: a 1e-300 s step is not 301 digits
        message = f"t_end=1e+16 takes 1e+16 steps of dt=1.0; the limit is {MAX_STEPS}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SimulationConfig(t_clear=1.0, t_end=1e16, dt=1.0)
        message = f"t_end={MAX_STEPS + 1.0} takes {MAX_STEPS + 1} steps of dt=1.0; the limit is {MAX_STEPS}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SimulationConfig(t_clear=1.0, t_end=MAX_STEPS + 1.0, dt=1.0)
        assert SimulationConfig(t_clear=1.0, t_end=float(MAX_STEPS), dt=1.0).n_steps == MAX_STEPS
        # criterion 8's reference grid fits
        assert SimulationConfig(t_clear=0.1, t_end=3.1, dt=1e-5).n_steps < MAX_STEPS

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
        # undamped swing dynamics one step forward then one step back,
        # W with them; each step is the reference stepper's bit for bit
        kernel = SwingKernel(wscc)
        n = wscc.n
        y0 = np.concatenate([wscc.delta0 + 0.3, np.linspace(-1.0, 1.0, n)])
        y1, w1 = rk4(kernel, y0, np.zeros(n), False, 1e-3)
        y_back, w_back = rk4(kernel, y1, w1, False, -1e-3)
        np.testing.assert_allclose(y_back, y0, rtol=0.0, atol=1e-10)
        np.testing.assert_allclose(w_back, 0.0, rtol=0.0, atol=1e-10)
        assert np.max(np.abs(w1)) > 1e-4

    def test_batch_row_equals_single_state(self, wscc):
        # the stage and the W pass reduce over machines only: a row of a
        # batch is advanced bit for bit like the same state alone, and
        # both as the reference stepper advances them
        kernel = SwingKernel(wscc)
        n = wscc.n
        rng = np.random.default_rng(3)
        batch = np.concatenate(
            [wscc.delta0 + rng.normal(0.0, 0.5, (5, n)), rng.normal(0.0, 2.0, (5, n))], axis=1
        )
        w = rng.normal(0.0, 0.1, (5, n))
        for fault_stage in (True, False):
            stepped, w_next = rk4(kernel, batch, w, fault_stage, 1e-3)
            for r in range(len(batch)):
                alone, w_alone = rk4(kernel, batch[r], w[r], fault_stage, 1e-3)
                assert np.array_equal(stepped[r], alone)
                assert np.array_equal(w_next[r], w_alone)

    def test_stage_forces_are_coi_forces(self, wscc):
        # one force formula: coi_share of the stage's acc is coi_forces on
        # the post-fault network (and, on fault-on stages, on the fault-on
        # one), bit for bit, in a workspace block equal to the reference
        kernel = SwingKernel(wscc)
        n = wscc.n
        rng = np.random.default_rng(8)
        batch = np.concatenate(
            [wscc.delta0 + rng.normal(0.0, 0.7, (6, n)), rng.normal(0.0, 2.0, (6, n))], axis=1
        )
        for y in (batch[0], batch):
            post = coi_forces(wscc.net_postfault, wscc.machines, y[..., :n])
            acc = assert_block_equals_reference(kernel, y, 1, True, 1e-3)[2]
            f = coi_share(acc[0], kernel.m_share)
            fault = coi_forces(wscc.net_faulton, wscc.machines, y[..., :n])
            assert np.array_equal(f[..., 0, :], fault)
            assert np.array_equal(f[..., 1, :], post)
            acc = assert_block_equals_reference(kernel, y, 1, False, 1e-3)[2]
            assert np.array_equal(coi_share(acc[0], kernel.m_share), post)


def rk4(kernel, y, w, fault_stage, dt):
    """One RK4 step of the motion y and of W in a workspace block, equal to the reference stepper's."""
    ys, _, _, w_next = assert_block_equals_reference(kernel, y, 1, fault_stage, dt, w)
    return as_rows(ys)[1], w_next[-1]


def damped_swing_rate(case, delta, omega, fault_stage):
    """The rate M d omega / dt = P_m - P_e - D omega, the damping term always written out."""
    net = case.net_faulton if fault_stage else case.net_postfault
    products = network_products(net, case.e_vector())
    acc = mismatch(products, case.pm_vector(), delta)
    return acc - case.d_vector() * omega


def with_damping(case):
    """case with damping D = 0.02 on every machine."""
    machines = tuple(dataclasses.replace(mach, d=0.02) for mach in case.machines)
    return dataclasses.replace(case, machines=machines)


class TestDamping:
    @pytest.fixture(scope="class")
    def damped(self, wscc):
        return with_damping(wscc)

    def states(self, case, omega_sign=None):
        rng = np.random.default_rng(11)
        n = case.n
        omega = rng.normal(0.0, 2.0, (5, n))
        if omega_sign is not None:
            omega = omega_sign * (np.abs(omega) + 0.1)
        return np.concatenate([case.delta0 + rng.normal(0.0, 0.5, (5, n)), omega], axis=1)

    def check_rate(self, case, batch):
        # the first stage of a workspace block, one row and a batch in the
        # block's shape as the row pool steps them, equal to the reference
        kernel = SwingKernel(case)
        n = case.n
        for fault_stage in (True, False):
            for y in (batch[0], batch):
                k = as_rows(assert_block_equals_reference(kernel, y, 1, fault_stage, 1e-3)[1])[0]
                want = damped_swing_rate(case, y[..., :n], y[..., n:], fault_stage)
                assert np.array_equal(k[..., n:], want)

    def test_damped_derivative_keeps_the_damping_term(self, damped):
        assert SwingKernel(damped).d is not None
        self.check_rate(damped, self.states(damped))

    @pytest.mark.parametrize("omega_sign", [-1.0, 1.0])
    def test_undamped_derivative_equals_the_damped_form(self, wscc, omega_sign):
        # no damping term at all when every D is 0: acc - 0 * omega is acc
        # for finite omega of either sign
        assert SwingKernel(wscc).d is None
        self.check_rate(wscc, self.states(wscc, omega_sign))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_damped_simulate_equals_scan_row(self, damped):
        times = [0.1, 0.15, 0.2]
        probes = scan_clearing_times(damped, times, horizon=1.0)
        sep = solve_postfault_sep(damped)
        for t_clear, probe in zip(times, probes):
            traj = simulate(damped, SimulationConfig(t_clear=t_clear, t_end=t_clear + 1.0))
            channels = compute_energy(damped, traj, sep)
            machines = assess_machines(damped, traj, channels, detect_events(damped, traj))
            assert probe.machine_assessments == tuple(machines)
            assert probe.total_at_clear == tuple(channels.total[:, traj.clear_index])


def augmented_reference(case, cfg):
    """simulate's record from one RK4 of the augmented state delta | omega | W.

    The integrator as written before W left the step: dW/dt = -f_pf *
    omega_coi is a third block of every stage (a step's four in one
    multiply, after its stages), each stage evaluates both networks'
    forces, and the guard checks all three blocks after each step.
    omega's block of a stage is its rate P_m - P_e - D omega, and the RK4
    constants carry 1/M (c for delta and W, c / M for omega).  Returns
    one row per sample (state | omega_coi | f_coi | f_coi_pf) and the
    divergence time, None when there is none.
    """
    n, dt = case.n, cfg.dt
    m, pm, d = case.m_vector(), case.pm_vector(), case.d_vector()
    m_share = m / m.sum()
    post = network_products(case.net_postfault, case.e_vector())
    fault = network_products(case.net_faulton, case.e_vector())

    def constants(c):
        return np.concatenate((np.full(n, c), c / m, np.full(n, c)))

    def stage(y, fault_stage):
        """The motion's block of dy/dt, then omega_coi | f_coi | f_coi_pf."""
        delta, omega = y[:n], y[n : 2 * n]
        acc = mismatch(post, pm, delta)
        f_pf = f_act = coi_share(acc, m_share)
        if fault_stage:
            acc = mismatch(fault, pm, delta)
            f_act = coi_share(acc, m_share)
        acc = acc - d * omega if d.any() else acc
        return np.concatenate((omega, acc)), np.concatenate((coi_frame(omega, m_share), f_act, f_pf))

    half, full = constants(0.5 * dt), constants(dt)
    w1, w2, w3, w4 = (constants(w) for w in rk4_weights(dt))
    y = np.concatenate((case.delta0, case.omega0, np.zeros(n)))
    rows = []
    for k in range(cfg.n_steps + 1):
        fault_stage = k < cfg.clear_index
        stages = [stage(y, fault_stage)]
        rows.append(np.concatenate((y, stages[0][1])))
        if k == cfg.n_steps:
            break
        for c in (half, half, full):  # no stage reads W
            stages.append(stage(y[: 2 * n] + c[: 2 * n] * stages[-1][0], fault_stage))
        motion, channels = (np.array(x) for x in zip(*stages))
        k1, k2, k3, k4 = np.concatenate((motion, -channels[:, 2 * n :] * channels[:, :n]), 1)
        y = y + (w1 * k1 + w2 * k2 + w3 * k3 + w4 * k4)
        if not (np.isfinite(y).all() and np.abs(y[n : 2 * n]).max() <= OMEGA_DIVERGENCE):
            return np.array(rows), (k + 1) * dt
    return np.array(rows), None


def recording_warnings(run, *args):
    """run(*args) and the messages of the warnings it raised, every one recorded."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run(*args)
    return result, [str(w.message) for w in caught]


def assert_equals_reference(traj, table):
    n = traj.n_machines
    assert traj.n_samples == len(table)
    for block, name in enumerate(
        ("delta", "omega", "pe_integral", "omega_coi", "f_coi", "f_coi_pf")
    ):
        assert np.array_equal(getattr(traj, name), table[:, block * n : (block + 1) * n].T), name


def assert_pool_equals_reference(case, dt, clears, steps):
    """Pool rows joined at the clearing samples ``clears``; each must be the reference's tail."""
    kernel = SwingKernel(case)
    prefix = FaultOnPrefix(kernel, case, dt)
    records = run_pool(kernel, [prefix.state(k) for k in clears], steps, dt, BLOCK)
    for k, (samples, lost) in zip(clears, records):
        cfg = SimulationConfig(t_clear=k * dt, t_end=(k + steps) * dt, dt=dt)
        table, divergence_time = augmented_reference(case, cfg)
        assert lost == (divergence_time is not None)
        assert np.array_equal(samples, table[k:])
    return records


class TestAugmentedReference:
    """W, integrated per block from the motion's stages, is the augmented-state integral."""

    @pytest.mark.parametrize("name", ["wscc9", "wscc9 unstable", "wscc9 damped", "ring10"])
    def test_simulate_equals_the_augmented_state(self, wscc, name):
        case, cfg = {
            "wscc9": (wscc, SimulationConfig(t_clear=0.1, t_end=1.5)),
            "wscc9 unstable": (wscc, SimulationConfig(t_clear=0.2, t_end=2.0)),
            "wscc9 damped": (with_damping(wscc), SimulationConfig(t_clear=0.15, t_end=1.5)),
            "ring10": (ten_machine_case(), SimulationConfig(t_clear=0.16, t_end=1.2, dt=2e-3)),
        }[name]
        traj = simulate(case, cfg)
        table, divergence_time = augmented_reference(case, cfg)
        assert not traj.diverged and divergence_time is None
        assert_equals_reference(traj, table)

    def test_pooled_rows_equal_the_augmented_state(self):
        # ten machines: the order of the machine-axis sums shows in the bits,
        # and every pass sums the machine axis of a whole block
        assert_pool_equals_reference(ten_machine_case(), 2e-3, (40, 60, 80, 100), 300)

    def test_w_alone_overflowing_in_the_fault_on_stage_ends_the_record(self, wscc):
        case = w_overflow_case(wscc)
        cfg = SimulationConfig(t_clear=0.3, t_end=0.6)
        # the steps past the overflow raise no floating-point warnings
        # that a per-step guard would not have raised
        (traj, raised), ((table, divergence_time), want) = (
            recording_warnings(run, case, cfg) for run in (simulate, augmented_reference)
        )
        assert raised == want != []
        assert traj.diverged and traj.divergence_time == 218 * cfg.dt
        assert traj.n_samples == 218
        for name in ("delta", "omega", "pe_integral", "omega_coi", "f_coi", "f_coi_pf"):
            assert np.isfinite(getattr(traj, name)).all(), name
        # the motion is wscc9's: only W left the guard region
        assert np.array_equal(traj.delta, simulate(wscc, cfg).delta[:, :218])
        assert divergence_time == traj.divergence_time
        assert_equals_reference(traj, table)
        message = r"^simulation diverged during the fault-on stage at t=0\.218 s$"
        with pytest.raises(ImeacError, match=message):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                scan_clearing_times(case, [0.3, 0.4])

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_w_alone_overflowing_after_clearing_ends_each_row_at_its_step(self, wscc):
        # the block's W pass cuts the pool back to the first overflowing
        # row's last sample; the others restart there
        case = w_overflow_after_clearing(wscc)
        records = assert_pool_equals_reference(case, 1e-3, [20 * k for k in range(1, 13)], 500)
        assert max(np.abs(samples[:, case.n : 2 * case.n]).max() for samples, _ in records) < 100.0
        ends = {len(samples) if lost else None for samples, lost in records}
        assert None in ends and len(ends) > 4
        cfg = SimulationConfig(t_clear=0.16, t_end=0.66)
        (traj, raised), ((table, _), want) = (
            recording_warnings(run, case, cfg) for run in (simulate, augmented_reference)
        )
        assert raised == want != [] and traj.diverged
        assert_equals_reference(traj, table)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_light_machine_scan_equals_probes_one_by_one(self, smib):
        # most rows leave the pool mid-horizon, at their own steps
        case, dt, horizon = light_smib(smib), 2e-3, 3.0
        times = [round(0.002 + 0.004 * k, 3) for k in range(30)]
        scan = scan_clearing_times(case, times, dt=dt, horizon=horizon)
        sep = solve_postfault_sep(case)
        assert scan == [probe_clearing_time(case, t, dt, horizon, sep=sep) for t in times]
        assert 0 < sum(p.diverged for p in scan) < len(times)
        kernel = SwingKernel(case)
        prefix = FaultOnPrefix(kernel, case, dt)
        clears, steps = [round(t / dt) for t in times], round(horizon / dt)
        records = run_pool(kernel, [prefix.state(k) for k in clears], steps, dt, BLOCK)
        for k, (samples, lost), probe in list(zip(clears, records, scan))[::3]:
            traj = simulate(case, SimulationConfig(t_clear=k * dt, t_end=(k + steps) * dt, dt=dt))
            assert lost == traj.diverged == probe.diverged
            assert probe.divergence_time == traj.divergence_time
            assert np.array_equal(samples[:, : case.n].T, traj.delta[:, k:])
            if lost:
                assert traj.divergence_time == (k + len(samples)) * dt < (k + steps) * dt


LEGACY_TOL = 1e-9  # |new - legacy| / max(1, |legacy|), every channel and sample


class TestLegacyArithmetic:
    """The engine against ``legacy_simulate``, the arithmetic it replaced: within LEGACY_TOL.

    P_m leading the force sum and 1/M in the RK4 constants move results
    by rounding only; verdicts do not move.
    """

    @pytest.mark.parametrize("name, t_clear", [
        ("smib", 0.15), ("threebus_lossless", 0.1), ("wscc9", 0.08), ("wscc9", 0.20),
        ("wscc9 damped", 0.15), ("ring10", 0.16),
    ])
    def test_simulate_stays_within_tolerance(self, wscc, name, t_clear):
        case = {"wscc9": wscc, "wscc9 damped": with_damping(wscc),
                "ring10": ten_machine_case()}.get(name) or load_bundled(name)
        cfg = SimulationConfig(t_clear=t_clear, t_end=round(t_clear + 3.0, 3))
        traj, (legacy,) = simulate(case, cfg), legacy_simulate(case, [cfg])
        assert not traj.diverged and not legacy.diverged
        for channel in ("delta", "omega", "delta_coi", "omega_coi", "f_coi", "f_coi_pf",
                        "pe_integral"):
            x, y = getattr(legacy, channel), getattr(traj, channel)
            assert x.shape == y.shape == (case.n, cfg.n_steps + 1)
            assert np.max(np.abs(y - x) / np.maximum(1.0, np.abs(x))) <= LEGACY_TOL, channel

    def test_scan_verdicts_equal_legacy(self, wscc, wscc_sep):
        # the 91-point 2 ms scan of 0.060-0.240 s, 3 s horizon: the stable
        # verdict and the leading LOSP's machine of every point
        times = [round(0.060 + 0.002 * k, 3) for k in range(91)]
        scan = scan_clearing_times(wscc, times)
        cfgs = [SimulationConfig(t_clear=t, t_end=round(t + 3.0, 3)) for t in times]
        legacy = []
        for traj in legacy_simulate(wscc, cfgs):
            channels = compute_energy(wscc, traj, wscc_sep)
            sa = assess_system(assess_machines(wscc, traj, channels, detect_events(wscc, traj)))
            legacy.append((sa.stable, sa.leading_losp and sa.leading_losp[0]))
        got = [(p.stable, p.assessment.leading_losp and p.assessment.leading_losp[0]) for p in scan]
        assert got == legacy
        assert {stable for stable, _ in got} == {True, False}


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


def percent_rows(table: np.ndarray) -> str:
    """Python's ``"%.10e"`` of every value, tab-separated rows: what ``format_rows`` must write."""
    return "".join("\t".join("%.10e" % v for v in row) + "\n" for row in table.tolist())


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
        # the numpy writer against formatting every value alone, special values in row 0
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

    @pytest.mark.parametrize("name, t_clear, t_end", [
        ("wscc9", 0.1, 3.1), ("smib", 0.5, 3.0), ("threebus_lossless", 0.1, 2.0),
        ("wscc9", 0.05, WRITE_ROWS * 1e-3),
    ], ids=["wscc9", "smib", "threebus_lossless", "one row past a chunk"])
    def test_bytes_equal_the_row_loop(self, name, t_clear, t_end):
        case = load_bundled(name)
        traj = simulate(case, SimulationConfig(t_clear=t_clear, t_end=t_end))
        channels = compute_energy(case, traj, solve_postfault_sep(case))
        got, want = io.StringIO(), io.StringIO()
        write_trajectory(got, traj, channels.ke, channels.pe)
        write_trajectory_rows(want, traj, channels.ke, channels.pe)
        assert got.getvalue().encode() == want.getvalue().encode()

    @pytest.mark.parametrize("channel", ["ke", "pe"])
    @pytest.mark.parametrize("samples", [-1, 1])
    def test_energy_channels_must_match_the_record(self, wscc, wscc_stable_run, channel, samples):
        # the chunks read the first n_samples of each channel: a longer one is refused too
        traj = wscc_stable_run
        shape = (wscc.n, traj.n_samples + samples)
        ke, pe = (np.zeros(shape if c == channel else traj.omega.shape) for c in ("ke", "pe"))
        with pytest.raises(ValueError, match="machines x samples"):
            write_trajectory(io.StringIO(), traj, ke, pe)

    @seed(20211021)
    @settings(max_examples=500, deadline=None, database=None)
    @given(values=st.lists(st.floats(), min_size=1, max_size=24), cols=st.integers(1, 4))
    @example(values=[math.nan, math.inf, -math.inf, 0.0, -0.0], cols=1)
    @example(values=[5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308], cols=2)
    @example(values=[1e-99, -1e-99, 1.0000000000000001e-99, 1.5e-99, 9.99999999995e-100, 1e-100],
             cols=3)
    @example(values=[9.99999999999e98, 9.999999999995e98, -9.9999999999951e98, 1e99, 1e100,
                     -1e100], cols=2)
    def test_any_float_formats_as_percent(self, values, cols):
        values = values + [1.0] * (-len(values) % cols)
        table = np.array(values).reshape(-1, cols)
        assert format_rows(table) == percent_rows(table)

    @pytest.mark.parametrize("kind", ["near ties", "round-ups to a power of ten"])
    def test_hard_roundings_format_as_percent(self, kind):
        # near ties: (k + 0.5) * 10**(e - 10) as the nearest float, nudged by
        # 0-4 ulps either way, so the significand y lands within the float
        # error of y of a tie (about 2e-5 per ulp below 1e11)
        if kind == "near ties":
            ks = [10**10, 12345678901, 31415926535, 50000000000, 99999999998,
                  *np.random.default_rng(3).integers(10**10, 10**11, 20).tolist()]
            ties = [float(f"{k}5e{e - 11}") for e in range(-20, 5) for k in ks]
        else:
            ties = [9.99999999995e3, 9.999999999951e3, 9.9999999999949e3, 99999999999.5,
                    9.99999999995e-1, 9.99999999995e-5, 9.99999999995e-99, 9.99999999995e98,
                    9.999999999999999e-6, 9.9999999999951e-10]
        bits = np.array(ties).view(np.int64)[:, None] + np.arange(-4, 5)
        table = np.concatenate([bits.view(np.float64), -bits.view(np.float64)], axis=1)
        assert format_rows(table) == percent_rows(table)

    def test_memory_stays_flat_in_the_horizon(self, wscc, wscc_sep):
        # the writer formats a chunk at a time: its numpy data is the same
        # whatever the record's length, not a copy of the whole table
        held = []
        for t_end in (3.0, 30.0):
            traj = simulate(wscc, SimulationConfig(t_clear=0.1, t_end=t_end))
            channels = compute_energy(wscc, traj, wscc_sep)
            held.append(numpy_data_held(
                lambda: write_trajectory(io.StringIO(), traj, channels.ke, channels.pe),
                opcodes=False)[1])
        assert held[1] <= held[0] + 64 * 1024, held


class TestFaultOnPrefix:
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("name", ["wscc9", "wscc9 W overflow"])
    def test_extended_in_pieces_equals_extended_once(self, wscc, name):
        # sweeps extend the prefix on demand (a sorted scan one step per
        # probe); the W overflow case's fault-on stage diverges at sample 218
        case = wscc if name == "wscc9" else w_overflow_case(wscc)
        kernel = SwingKernel(case)
        pieces, once = (FaultOnPrefix(kernel, case, 1e-3) for _ in range(2))
        got = [pieces.state(k) for k in (37, 100, 250)]
        last = once.state(250)  # one extension; the earlier states come from its samples
        want = [once.state(37), once.state(100), last]
        assert pieces.pool.ended.get(0) == once.pool.ended.get(0) == (
            None if name == "wscc9" else 218 * 1e-3)
        assert len(pieces.samples) == len(once.samples) == (250 if name == "wscc9" else 218)
        assert np.array_equal(np.array(pieces.samples), np.array(once.samples))
        for a, b in zip(got, want):
            assert (a is None and b is None) or np.array_equal(a, b)
        assert got[0] is not None and (got[2] is None) == (name != "wscc9")


class TestWorkspaceBlock:
    """Workspace.steps against the reference stepper: states, stages and channels, bit for bit."""

    @pytest.mark.parametrize("rows", [1, 5])
    @pytest.mark.parametrize("fault_stage", [True, False], ids=["fault-on", "post-fault"])
    @pytest.mark.parametrize("name", ["wscc9", "wscc9 damped", "ring10"])
    def test_block_equals_reference_stepper(self, wscc, name, fault_stage, rows):
        # ring10 has n = 10, where numpy's own sum order depends on the memory
        # layout; one row steps as a plain (2, n) state, five as a (2, n, 5) batch
        case = {"wscc9": wscc, "wscc9 damped": with_damping(wscc), "ring10": ten_machine_case()}[name]
        n = case.n
        rng = np.random.default_rng(13)
        batch = np.concatenate(
            [case.delta0 + rng.normal(0.0, 0.3, (rows, n)), rng.normal(0.0, 1.0, (rows, n))], axis=1
        )
        y0 = batch[0] if rows == 1 else batch
        w0 = rng.normal(0.0, 0.1, y0.shape[:-1] + (n,))
        assert_block_equals_reference(SwingKernel(case), y0, BLOCK, fault_stage, 1e-3, w0)


def pool_run(kernel, dt, heads, steps, advance, fault=False, pool=None):
    """Each block (samples, rows, start), ``ended`` and the warnings of a pool stepped by ``advance``.

    The rows join ``pool`` when given, else a new one.
    """
    pool = RowPool(kernel, dt, fault=fault) if pool is None else pool
    pool.join(range(len(heads)), np.array(heads), 0, steps)
    blocks = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        while pool.size:
            blocks.append(advance(pool))
    return blocks, pool.ended, [(w.category, str(w.message)) for w in caught]


class TestGuardReplay:
    """The per-block guard and its replay against the reference stepper's per-step guard."""

    def scenario(self, name, smib, wscc):
        """(case, dt, heads, steps, fault) of a batch in which a row leaves the guard."""
        if name == "subnormal inertia":
            # an equilibrium row goes on; the other's rate times c / M
            # (finite, where 1/M is not) takes |omega| past 1e4 on its first
            # step, without a floating-point error
            case = two_machine_case(pm=0.8, m0=1e-309, m1=1.0, fault_b=0.0)
            head = np.concatenate([case.delta0, case.omega0, np.zeros(2)])
            return case, 1e-3, [head, head + [0.1, 0.0, 0.0, 0.0, 0.0, 0.0]], 50, False
        if name == "fault-on W overflow":  # W overflows during the fault-on stage
            case = w_overflow_case(wscc)
            return case, 1e-3, [np.concatenate([case.delta0, case.omega0, np.zeros(3)])], 300, True
        if name == "W and motion at one step":
            # light smib rows: one a step before its motion leaves the guard
            # and one whose W is not finite both end at the first step, one goes on
            case, dt = light_smib(smib), 2e-3
            kernel = SwingKernel(case)
            prefix = FaultOnPrefix(kernel, case, dt)
            (samples, lost), = run_pool(kernel, [prefix.state(11)], 1500, dt, BLOCK)
            w_lost = prefix.state(21).copy()
            w_lost[2 * case.n :] = np.inf
            assert lost
            return case, dt, [prefix.state(1), samples[-1, : 3 * case.n], w_lost], 1500, False
        case, dt, clears, steps = {
            # motion: rows leave at |omega| > 1e4 in mid-block, at their own steps
            "light smib": (light_smib(smib), 2e-3, [1, 11, 21, 31], 1500),
            # W alone overflows, in mid-block, at a step that varies by row
            "W overflow after clearing": (w_overflow_after_clearing(wscc), 1e-3, [10, 70, 100, 150], 1000),
        }[name]
        prefix = FaultOnPrefix(SwingKernel(case), case, dt)
        return case, dt, [prefix.state(k) for k in clears], steps, False

    @pytest.mark.parametrize("name", [
        "light smib", "W overflow after clearing", "subnormal inertia", "fault-on W overflow",
        "W and motion at one step",
    ])
    def test_cut_equals_per_step_guard(self, smib, wscc, name):
        # the cut sample, RowPool.ended, every row's records and the warnings
        # (text, count and order) are the step-by-step loop's
        case, dt, heads, steps, fault = self.scenario(name, smib, wscc)
        kernel = SwingKernel(case)
        got, ended, raised = pool_run(kernel, dt, heads, steps, RowPool.advance, fault)
        want, want_ended, want_raised = pool_run(
            kernel, dt, heads, steps, ReferenceStepper(kernel).advance, fault
        )
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert np.array_equal(a.rows, b.rows) and np.array_equal(a.start, b.start)
            assert np.array_equal(a.samples, b.samples, equal_nan=True)
        assert ended == want_ended
        assert raised == want_raised
        # a row left the guard; in a batch, at a step inside a block, and another went on
        lost = {j for j, t in ended.items() if t is not None}
        assert lost and (fault or set(ended) > lost)
        assert fault or any(len(b.samples) - 1 < BLOCK and b.rows.size > 1 for b in got[:-1])
        assert (raised != []) == (name not in ("light smib", "W and motion at one step",
                                               "subnormal inertia"))
        if name == "W and motion at one step":  # the motion and W cut one block at one step
            assert len(got[0].samples) == 1 and lost == {1, 2} and ended[1] == ended[2] == dt


def numpy_data_held(run, opcodes: bool = True):
    """run() and the most numpy array data (bytes) it held at once.

    tracemalloc traces numpy's data allocations in their own domain.  With
    ``opcodes`` the data is seen before every bytecode the frames run()
    enters run, so a temporary that lives within one statement shows too;
    without, as each Python function returns, its locals still held:
    coarser, and cheap enough for a run of thousands of calls.
    """
    only_numpy = [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
    most, outer, outer_profile = 0, sys.gettrace(), sys.getprofile()

    def held():
        return sum(t.size for t in tracemalloc.take_snapshot().filter_traces(only_numpy).traces)

    def trace(frame, event, arg):
        nonlocal most
        frame.f_trace_opcodes = True
        most = max(most, held())
        return trace

    def profile(frame, event, arg):
        nonlocal most
        if event == "return":
            most = max(most, held())

    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = held()
        if opcodes:
            sys.settrace(trace)
        else:
            sys.setprofile(profile)
        try:
            result = run()
        finally:
            sys.settrace(outer)
            sys.setprofile(outer_profile)
    finally:
        if started:
            tracemalloc.stop()
    return result, most - before


STEP_CALL_CEILINGS = {"undamped post-fault": 29, "damped post-fault": 37, "fault-on prefix": 29}


class TestStepCalls:
    """numpy calls per RK4 step, by ``scripts/step_cost.py``'s counter: ceilings no change may pass."""

    def test_every_kind_has_a_ceiling(self):
        assert tuple(STEP_CALL_CEILINGS) == STEP_KINDS

    @pytest.mark.parametrize("kind", STEP_KINDS)
    def test_calls_per_step_stay_within_the_ceiling(self, wscc, kind):
        assert calls_per_step(imeac, wscc, kind) <= STEP_CALL_CEILINGS[kind]


class TestWorkspaceAllocation:
    """README's "no allocation": a block on a kept workspace makes no numpy array data."""

    def test_the_probe_sees_a_temporary(self):
        a = np.ones(9)
        assert numpy_data_held(lambda: np.add(a, a) is a)[1] >= a.nbytes
        assert numpy_data_held(lambda: np.add(a, a, a) is a) == (True, 0)

    @pytest.mark.parametrize("rows", [1, 5])
    @pytest.mark.parametrize("fault_stage", [True, False], ids=["fault-on", "post-fault"])
    @pytest.mark.parametrize("damped", [False, True], ids=["undamped", "damped"])
    def test_steps_allocate_no_array_data(self, wscc, rows, fault_stage, damped):
        case = with_damping(wscc) if damped else wscc
        kernel = SwingKernel(case)
        assert (kernel.d is None) != damped
        rng = np.random.default_rng(5)
        shape = () if rows == 1 else (rows,)
        space = Workspace(kernel, BLOCK, shape, fault_stage, 1e-3)
        space.y[0, 0] = case.delta0.reshape((case.n,) + (1,) * len(shape)) + rng.normal(
            0.0, 0.2, (case.n,) + shape)
        space.y[0, 1] = rng.normal(0.0, 1.0, (case.n,) + shape)
        space.steps(BLOCK)  # the first block; the workspace is kept for the next
        assert numpy_data_held(lambda: space.steps(BLOCK)) == (None, 0)
        assert np.isfinite(space.k).all()


class TestWorkspaceReuse:
    """One RowPool keeps its workspace across blocks of one shape, whatever the last block left in it."""

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("name", [
        "wscc9 rows", "wscc9 lone row",
        "light smib", "W overflow after clearing", "subnormal inertia", "fault-on W overflow",
        "W and motion at one step",
    ])
    def test_second_block_equals_fresh_and_reference(self, smib, wscc, name):
        # a whole block from other states first, its stage points left in
        # the workspace; the rows of the scenario then join the same pool
        if name.startswith("wscc9"):
            clears = [100, 120, 140] if name == "wscc9 rows" else [150]
            case, dt, steps, fault = wscc, 1e-3, 100, False
            prefix = FaultOnPrefix(SwingKernel(case), case, dt)
            heads = [prefix.state(k) for k in clears]
        else:
            case, dt, heads, steps, fault = TestGuardReplay().scenario(name, smib, wscc)
        kernel = SwingKernel(case)
        start = np.concatenate([case.delta0, case.omega0, np.zeros(case.n)])
        warm = [FaultOnPrefix(kernel, case, dt).state(40) if fault else start] * len(heads)
        pool = RowPool(kernel, dt, fault=fault)
        pool.join(range(len(heads)), np.array(warm), 0, steps)
        pool.advance()
        assert pool.size == len(heads) and not pool.ended  # a whole block, every row in flight
        kept = pool._space
        pool.leave(pool.rows.tolist())
        spaces = []

        def advance(p):
            block = RowPool.advance(p)
            spaces.append(p._space)
            return block

        got = pool_run(kernel, dt, heads, steps, advance, fault, pool)
        fresh = pool_run(kernel, dt, heads, steps, RowPool.advance, fault)
        want = pool_run(kernel, dt, heads, steps, ReferenceStepper(kernel).advance, fault)
        assert spaces[0] is kept
        for other in (fresh, want):
            assert len(got[0]) == len(other[0])
            for a, b in zip(got[0], other[0]):
                assert np.array_equal(a.rows, b.rows) and np.array_equal(a.start, b.start)
                assert np.array_equal(a.samples, b.samples, equal_nan=True)
            assert got[1:] == other[1:]
        # subnormal inertia and the one-step case cut the first block, without warnings
        cut_first = name in ("subnormal inertia", "W and motion at one step")
        assert (len(got[0][0].samples) - 1 < BLOCK) == cut_first
        assert (got[2] != []) == (name not in (
            "wscc9 rows", "wscc9 lone row", "light smib", "W and motion at one step",
            "subnormal inertia"))


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
        assert alone[0][0].shape == (301, 6 * wscc.n)

    def test_row_matches_simulate(self, wscc):
        cfg = SimulationConfig(t_clear=0.15, t_end=0.65)
        traj = simulate(wscc, cfg)
        kernel = SwingKernel(wscc)
        head = FaultOnPrefix(kernel, wscc, cfg.dt).state(cfg.clear_index)
        (samples, lost), = run_pool(kernel, [head], 500, cfg.dt, 7, first=cfg.clear_index)
        assert not lost
        assert np.array_equal(samples[:, : wscc.n].T, traj.delta[:, cfg.clear_index :])
        assert np.array_equal(samples[:, 5 * wscc.n :].T, traj.f_coi_pf[:, cfg.clear_index :])

    def test_rows_leave_at_their_own_horizon(self, wscc):
        # rows that join at different times end at different samples; no
        # row steps past its budget
        kernel = SwingKernel(wscc)
        prefix = FaultOnPrefix(kernel, wscc, 1e-3)
        records = run_pool(kernel, [prefix.state(100), prefix.state(120)], 50, 1e-3, 16, 1)
        assert [r.shape[0] for r, _ in records] == [51, 51]
