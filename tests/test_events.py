"""DSP/DLP detection against synthetic channels with known answers."""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest

from imeac import DLP, DSP, SimulationConfig, Trajectory, simulate
from imeac.events import detect_events


def stub_case(m: float = 0.7) -> SimpleNamespace:
    """Just enough of a case for the detector: machine count and inertias."""
    return SimpleNamespace(n=1, m_vector=lambda: np.array([m]))


def channel_trajectory(times, omega, force, clear_index: int = 0) -> Trajectory:
    omega = np.asarray(omega)[None, :]
    force = np.asarray(force)[None, :]
    delta = np.cumsum(omega, axis=1) * (times[1] - times[0])
    return Trajectory(
        times=np.asarray(times),
        delta=delta,
        omega=omega,
        delta_coi=delta,
        omega_coi=omega,
        f_coi=force,
        f_coi_pf=force,
        pe_integral=np.zeros_like(omega),
        clear_index=clear_index,
    )


class TestDspDetection:
    def test_cosine_turning_points(self):
        m = 0.7
        t = np.arange(0.0, 7.0, 1e-3)
        traj = channel_trajectory(t, np.cos(t), -m * np.sin(t))
        (events,) = detect_events(stub_case(m), traj)
        kinds = [ev.kind for ev in events]
        assert kinds == [DSP, DSP]
        for ev, expected_t, direction in zip(
            events, (math.pi / 2, 3 * math.pi / 2), ("forward", "backward")
        ):
            assert ev.time == pytest.approx(expected_t, abs=1e-6)
            assert ev.direction == direction
            assert ev.residual_ke < 1e-12
            assert not ev.near_critical
        assert [ev.swing_index for ev in events] == [1, 2]

    def test_resting_machine_emits_nothing(self):
        t = np.arange(0.0, 7.0, 1e-3)
        tiny = 1e-5
        traj = channel_trajectory(t, tiny * np.cos(t), -tiny * np.sin(t))
        (events,) = detect_events(stub_case(1.0), traj)
        assert events == []
        # the same channels count as motion under a smaller threshold
        (events,) = detect_events(stub_case(1.0), traj, omega_tol=1e-7)
        assert [ev.kind for ev in events] == [DSP, DSP]

    def test_scan_starts_at_clearing(self):
        t = np.arange(0.0, 7.0, 1e-3)
        traj = channel_trajectory(t, np.cos(t), -np.sin(t), clear_index=2000)
        (events,) = detect_events(stub_case(1.0), traj)
        # the turning point at pi/2 lies inside the fault-on window
        assert [ev.swing_index for ev in events] == [1]
        assert events[0].time == pytest.approx(3 * math.pi / 2, abs=1e-6)

    def test_near_critical_flag(self):
        t = np.arange(0.0, 2.0, 1e-3)
        omega = t - 1.0004
        force = t - 1.0006
        traj = channel_trajectory(t, omega, force)
        (events,) = detect_events(stub_case(1.0), traj)
        assert len(events) == 1
        assert events[0].kind == DSP
        assert events[0].near_critical


class TestDlpDetection:
    def test_liberation_while_moving(self):
        m = 1.0
        t_lib = 1.0005  # off the sample grid
        t = np.arange(0.0, 2.0, 1e-3)
        omega = 0.5 + 0.5 * (t - t_lib) ** 2
        force = m * (t - t_lib)
        traj = channel_trajectory(t, omega, force)
        (events,) = detect_events(stub_case(m), traj)
        assert [ev.kind for ev in events] == [DLP]
        ev = events[0]
        assert ev.time == pytest.approx(t_lib, abs=1e-9)
        assert ev.swing_index == 1
        assert ev.residual_ke == pytest.approx(0.5 * m * 0.5**2, rel=1e-6)
        assert ev.direction == "forward"

    def test_first_liberation_is_terminal(self):
        t_lib = 0.5005  # off the sample grid
        t = np.arange(0.0, 3.0, 1e-3)
        force = np.sin(2 * math.pi * (t - t_lib))
        omega = 0.5 + (1.0 - np.cos(2 * math.pi * (t - t_lib))) / (2 * math.pi)
        traj = channel_trajectory(t, omega, force)
        (events,) = detect_events(stub_case(1.0), traj)
        # the force crosses restoring-to-anti-restoring at t_lib and
        # again each period; only the first may be reported
        assert [ev.kind for ev in events] == [DLP]
        assert events[0].time == pytest.approx(t_lib, abs=1e-9)

    def test_slow_crossing_is_not_a_liberation(self):
        # the force flips sign but the machine is numerically at rest
        t = np.arange(0.0, 2.0, 1e-3)
        omega = np.full_like(t, 1e-5)
        force = t - 1.0
        traj = channel_trajectory(t, omega, force)
        (events,) = detect_events(stub_case(1.0), traj)
        assert events == []

    def test_restoring_crossing_is_ignored(self):
        # anti-restoring to restoring (decelerating factor) is not a DLP
        t = np.arange(0.0, 2.0, 1e-3)
        omega = 0.5 + 0.5 * (t - 1.0) ** 2
        force = -(t - 1.0)
        traj = channel_trajectory(t, omega, force)
        (events,) = detect_events(stub_case(1.0), traj)
        assert events == []


class TestOnRealRuns:
    def test_stable_run_is_all_dsp(self, wscc, wscc_stable_run):
        per_machine = detect_events(wscc, wscc_stable_run)
        assert len(per_machine) == wscc.n
        for events in per_machine:
            assert events, "three-machine case: every unit swings"
            assert all(ev.kind == DSP for ev in events)
            times = [ev.time for ev in events]
            assert times == sorted(times)
            assert all(t > 0.1 for t in times)
            assert [ev.swing_index for ev in events] == list(range(1, len(events) + 1))
            assert all(ev.residual_ke < 1e-8 for ev in events)

    def test_unstable_run_ends_with_dlp(self, wscc, wscc_unstable_run):
        per_machine = detect_events(wscc, wscc_unstable_run)
        dlp_machines = [
            events[-1].machine
            for events in per_machine
            if events and events[-1].kind == DLP
        ]
        assert dlp_machines, "t_clear = 0.2 s is far past the CCT"
        for events in per_machine:
            # a DLP, if any, terminates its machine's list
            assert all(ev.kind == DSP for ev in events[:-1])
            if events and events[-1].kind == DLP:
                assert events[-1].residual_ke > 0.0

    def test_short_trajectory_rejected(self, wscc, wscc_stable_run):
        truncated = Trajectory(
            times=wscc_stable_run.times[:1],
            delta=wscc_stable_run.delta[:, :1],
            omega=wscc_stable_run.omega[:, :1],
            delta_coi=wscc_stable_run.delta_coi[:, :1],
            omega_coi=wscc_stable_run.omega_coi[:, :1],
            f_coi=wscc_stable_run.f_coi[:, :1],
            f_coi_pf=wscc_stable_run.f_coi_pf[:, :1],
            pe_integral=wscc_stable_run.pe_integral[:, :1],
            clear_index=0,
        )
        with pytest.raises(ValueError, match="2 samples"):
            detect_events(wscc, truncated)
