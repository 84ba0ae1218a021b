"""Clearing-time probes, bisection search, and MDM identification."""

from __future__ import annotations

import io
import json
from unittest import mock

import numpy as np
import pytest

from imeac import (
    BracketError,
    DLP,
    DSP,
    DivergenceError,
    HorizonError,
    ImeacError,
    MachineAssessment,
    SimulationConfig,
    SwingEvent,
    compute_energy,
    find_cct,
    probe_clearing_time,
    scan_clearing_times,
    simulate,
    solve_postfault_sep,
)
from imeac.assess import assess_system
from imeac.cct import DEFAULT_HORIZON, DEPTH, _Sweep, identify_mdm, write_cct, write_margin_curve
from imeac.dynamics import RowPool
from imeac.events import detect_events
from conftest import assess_machines, two_machine_case


class TestProbe:
    def test_stable_and_unstable_sides(self, smib):
        assert probe_clearing_time(smib, 0.150).stable
        assert not probe_clearing_time(smib, 0.250).stable

    def test_off_grid_time_rejected(self, smib):
        with pytest.raises(ValueError, match="t_clear"):
            probe_clearing_time(smib, 0.1505, dt=1e-3)
        with pytest.raises(ValueError, match="horizon"):
            probe_clearing_time(smib, 0.150, horizon=1.0005)

    @pytest.mark.parametrize("kwargs", [{"dt": 0.0}, {"dt": -1e-3}, {"horizon": 0.0}])
    def test_nonpositive_grid_values_name_their_field(self, smib, kwargs):
        (field, value), = kwargs.items()
        message = rf"^{field} must be > 0, got {value}$"
        with pytest.raises(ValueError, match=message):
            probe_clearing_time(smib, 0.2, **kwargs)
        with pytest.raises(ValueError, match=message):
            scan_clearing_times(smib, [0.2, 0.15], **kwargs)

    @pytest.mark.parametrize(
        "kwargs, field",
        [({"t_clear": np.inf}, "t_clear"), ({"t_clear": np.nan}, "t_clear"),
         ({"horizon": np.inf}, "horizon")],
    )
    def test_probe_nonfinite_values_name_their_field(self, smib, kwargs, field):
        value = kwargs[field]
        with pytest.raises(ValueError, match=rf"^{field} must be finite, got {value}$"):
            probe_clearing_time(smib, **{"t_clear": 0.2, **kwargs})

    @pytest.mark.parametrize(
        "times, kwargs, field",
        [([np.nan], {}, "t_clear"), ([0.15, -np.inf], {}, "t_clear"),
         ([0.2], {"horizon": np.inf}, "horizon")],
    )
    def test_scan_nonfinite_values_name_their_field(self, smib, times, kwargs, field):
        value = kwargs.get(field, times[-1])
        with pytest.raises(ValueError, match=rf"^{field} must be finite, got {value}$"):
            scan_clearing_times(smib, times, **kwargs)

    def test_probe_overflowing_step_count_names_its_field(self, smib):
        # a finite clearing time whose step count overflows a float
        with pytest.raises(ValueError, match=r"^t_clear=1e\+308 is too large for a step of 0\.001$"):
            probe_clearing_time(smib, 1e308)

    def test_total_energy_tuple(self, smib):
        probe = probe_clearing_time(smib, 0.150)
        assert len(probe.total_at_clear) == smib.n
        assert probe.total_at_clear[0] > 0.0

    def test_divergence_during_fault_is_an_error(self):
        case = two_machine_case(pm=1.0, m0=1e-4, m1=1.0, fault_b=0.0)
        with pytest.raises(ImeacError, match="fault-on"):
            probe_clearing_time(case, 2.0, horizon=1.0)

    def test_first_swing_only_filter(self, wscc):
        # inside the multi-swing window the third swing liberates
        # machine 2; restricted to first-swing events the run reads stable
        full = probe_clearing_time(wscc, 0.122)
        first = probe_clearing_time(wscc, 0.122, first_swing_only=True)
        assert not full.stable
        assert first.stable
        assert all(
            ev.swing_index == 1
            for a in first.machine_assessments
            for ev in a.events
        )


class TestScan:
    def test_order_follows_input(self, smib):
        times = [0.250, 0.150]
        out = scan_clearing_times(smib, times)
        assert [p.t_clear for p in out] == times
        assert [p.stable for p in out] == [False, True]

    def test_batched_equals_per_probe(self, wscc):
        # unsorted, repeated, both sides of the multi-swing island
        times = [0.153, 0.121, 0.140, 0.121, 0.110]
        batched = scan_clearing_times(wscc, times)
        assert batched == [probe_clearing_time(wscc, t) for t in times]

    def test_probe_equals_trajectory_pipeline(self, wscc, wscc_sep):
        # the streamed engine reproduces simulate -> energy -> events ->
        # assess on the full record, bit for bit
        for t_clear in (0.121, 0.153):
            cfg = SimulationConfig(t_clear=t_clear, t_end=t_clear + 3.0)
            traj = simulate(wscc, cfg)
            channels = compute_energy(wscc, traj, wscc_sep)
            machines = assess_machines(wscc, traj, channels, detect_events(wscc, traj))
            probe = probe_clearing_time(wscc, t_clear, sep=wscc_sep)
            assert probe.machine_assessments == tuple(machines)
            assert probe.assessment == assess_system(machines)
            assert probe.total_at_clear == tuple(channels.total[:, traj.clear_index])
            assert probe.ke_at_clear == tuple(channels.ke[:, traj.clear_index])
            assert probe.divergence_time is traj.divergence_time is None

    def test_rows_diverging_after_clearing(self):
        # a light machine: early clearing holds, later clearing runs away
        # until the divergence guard stops the row; the others go on
        case = two_machine_case(pm=1.0, m0=1e-4, m1=1.0, fault_b=0.0)
        times = [0.05, 0.005, 0.02, 0.005, 0.002]
        with pytest.warns(RuntimeWarning, match="equal-area identity"):
            batched = scan_clearing_times(case, times, horizon=2.0)
        assert [p.diverged for p in batched] == [True, False, True, False, False]
        assert [p.stable for p in batched] == [False, True, False, True, True]
        with pytest.warns(RuntimeWarning, match="equal-area identity"):
            assert batched == [probe_clearing_time(case, t, horizon=2.0) for t in times]

    def test_divergence_on_first_postfault_step_is_a_result(self):
        # no fault-on disturbance, then a feather-light machine loses its
        # network: the first post-fault step leaves the guard region
        case = two_machine_case(pm=0.8, m0=1e-8, m1=1.0, fault_b=1.5, post_b=0.0)
        results = scan_clearing_times(case, [0.2, 0.1], horizon=1.0)
        for probe in results:
            assert probe.diverged
            assert probe.assessment is None
            assert not probe.stable
            assert all(not a.determined for a in probe.machine_assessments)
        assert results == [probe_clearing_time(case, t, horizon=1.0) for t in (0.2, 0.1)]

    def test_fault_on_divergence_raises_for_first_offender(self):
        case = two_machine_case(pm=1.0, m0=1e-4, m1=1.0, fault_b=0.0)
        with pytest.raises(DivergenceError, match="fault-on") as single:
            probe_clearing_time(case, 1.6, horizon=1.0)
        traj = simulate(case, SimulationConfig(t_clear=1.6, t_end=2.6))
        assert single.value.time == traj.divergence_time < 1.6
        # fine probes before and after, two offenders: the first one's
        # error, exactly as one-by-one probing reports it
        with pytest.raises(ImeacError, match="fault-on") as batched:
            scan_clearing_times(case, [0.005, 1.6, 0.002, 1.5], horizon=1.0)
        assert str(batched.value) == str(single.value)

    def test_errors_keep_input_order(self, smib):
        # an earlier off-grid time wins over a later fault-on failure,
        # and a later off-grid time loses to an earlier horizon failure
        with pytest.raises(ValueError, match="t_clear"):
            scan_clearing_times(smib, [0.150, 0.1505, 0.250])
        with pytest.raises(HorizonError):
            scan_clearing_times(smib, [0.150, 0.250, 0.1505], horizon=0.01)


class TestFindCct:
    def test_degenerate_bracket_two_evaluations(self, smib):
        result = find_cct(smib, 0.195, 0.196)
        assert result.evaluations == 2
        assert result.cct == pytest.approx(0.195)
        assert result.cct_unstable == pytest.approx(0.196)

    def test_bracket_ends_verified(self, smib):
        result = find_cct(smib, 0.150, 0.250)
        assert result.cct_unstable == pytest.approx(result.cct + result.resolution)
        assert probe_clearing_time(smib, result.cct).stable
        assert not probe_clearing_time(smib, result.cct_unstable).stable

    def test_margin_curve_is_monotone_enough(self, smib):
        result = find_cct(smib, 0.150, 0.250)
        times = [t for t, _ in result.margin_curve]
        assert times == sorted(times)
        margins = dict(result.margin_curve)
        assert margins[result.cct] >= 0.0
        assert margins[result.cct_unstable] < 0.0

    def test_bad_brackets(self, smib):
        with pytest.raises(BracketError, match="t_lo"):
            find_cct(smib, 0.240, 0.260)  # unstable at both ends
        with pytest.raises(BracketError, match="t_hi"):
            find_cct(smib, 0.150, 0.160)  # stable at both ends

    def test_grid_validation(self, smib):
        with pytest.raises(ValueError, match="resolution"):
            find_cct(smib, 0.150, 0.250, resolution=0.0015, dt=1e-3)
        with pytest.raises(ValueError, match="t_lo"):
            find_cct(smib, 0.1502, 0.250)
        with pytest.raises(ValueError, match="t_lo < t_hi"):
            find_cct(smib, 0.250, 0.150)

    @pytest.mark.parametrize(
        "kwargs",
        [{"dt": 0.0}, {"dt": -1e-3}, {"resolution": 0.0}, {"horizon": 0.0},
         {"horizon": -1.0}, {"t_lo": 0.0}],
    )
    def test_nonpositive_values_name_their_field(self, smib, kwargs):
        # checked before any grid division and before any probe starts
        (field, value), = kwargs.items()
        bracket = {"t_lo": 0.150, "t_hi": 0.250, **kwargs}
        with pytest.raises(ValueError, match=rf"^{field} must be > 0, got {value}$"):
            find_cct(smib, **bracket)

    @pytest.mark.parametrize(
        "kwargs, field",
        [({"t_hi": np.nan}, "t_hi"), ({"t_lo": np.inf}, "t_lo"),
         ({"horizon": np.inf}, "horizon")],
    )
    def test_nonfinite_values_name_their_field(self, smib, kwargs, field):
        bracket = {"t_lo": 0.150, "t_hi": 0.250, **kwargs}
        with pytest.raises(ValueError, match=rf"^{field} must be finite, got {kwargs[field]}$"):
            find_cct(smib, **bracket)

    @pytest.mark.parametrize(
        "kwargs, message",
        [({"dt": 1e-320}, r"^resolution=0\.001 is too large for a step of 1e-320$"),
         ({"t_hi": 1e300, "resolution": 1e-10, "dt": 1e-10},
          r"^t_hi=1e\+300 is too large for a step of 1e-10$")],
        ids=["resolution", "t_hi"],
    )
    def test_overflowing_step_counts_name_their_field(self, smib, kwargs, message):
        with pytest.raises(ValueError, match=message):
            find_cct(smib, **{"t_lo": 0.150, "t_hi": 0.250, **kwargs})

    @pytest.mark.parametrize(
        "k_lo, k_hi, field",
        [(None, None, "t_lo"), (140, 172, "t_lo"), (1, 172, "t_hi")],
        ids=["t_lo-off-resolution", "t_lo-probe-off-dt", "t_hi-probe-off-dt"],
    )
    def test_bracket_off_the_dt_grid_names_its_field(self, wscc, k_lo, k_hi, field):
        # the resolution is within GRID_TOL of dt=1e-3, but 140 or 172 of it
        # are not: refused before any step, naming the bracket, not t_clear
        resolution = 0.0010000000005
        t_lo, t_hi = (0.14, 0.172) if k_lo is None else (k_lo * resolution, k_hi * resolution)

        def no_steps(pool):
            raise AssertionError("RowPool.advance called")

        with mock.patch.object(RowPool, "advance", no_steps), \
                pytest.raises(ValueError, match=f"^{field}=") as raised:
            find_cct(wscc, t_lo, t_hi, resolution=resolution)
        assert "t_clear" not in str(raised.value) and "\n" not in str(raised.value)

    def test_long_horizon_keeps_its_grid(self, smib):
        # 8324.96 s is 832496 steps of 0.01 s to within one float spacing of
        # 8324.96, not to within 1e-12 s: both probes start; no step is taken
        class Started(Exception):
            pass

        def started(pool):
            raise Started

        with mock.patch.object(RowPool, "advance", started), pytest.raises(Started):
            find_cct(smib, 0.15, 0.25, resolution=0.01, dt=0.01, horizon=8324.96)

    def test_horizon_off_the_dt_grid_is_refused(self, smib):
        def no_steps(pool):
            raise AssertionError("RowPool.advance called")

        message = r"^horizon=1\.000000001 is not an integer multiple of 0\.001$"
        with mock.patch.object(RowPool, "advance", no_steps), pytest.raises(ValueError, match=message):
            find_cct(smib, 0.15, 0.25, horizon=1.0 + 1e-9)

    def test_search_runs_ahead_of_its_verdicts(self, wscc):
        # on the seeded wscc9 brackets the pool takes about one horizon of
        # steps (one midpoint after another took 6768-11176), with at most
        # the ends, the visited midpoints and a DEPTH-deep subtree in flight
        blocks = []
        real_advance = RowPool.advance

        def advance(pool):
            block = real_advance(pool)
            if not pool.fault:
                blocks.append((block.samples.shape[0] - 1, block.rows.size))
            return block

        with mock.patch.object(RowPool, "advance", advance):
            for lo in range(139, 152):
                blocks.clear()
                result = find_cct(wscc, lo / 1000, (lo + 32) / 1000)
                assert (result.cct, result.cct_unstable, result.evaluations) == (0.152, 0.153, 7)
                assert sum(steps for steps, _ in blocks) <= 4200, lo
                assert max(rows for _, rows in blocks) <= 2 + 2 ** (DEPTH + 1), lo

    def test_coarse_resolution_still_brackets(self, smib):
        result = find_cct(smib, 0.150, 0.250, resolution=5e-3)
        assert result.resolution == 5e-3
        assert result.cct == pytest.approx(0.195)
        assert result.cct_unstable == pytest.approx(0.200)

    def test_mdm_clearing_energy_grows_with_clearing_time(self, wscc):
        # longer faults pump more transient energy into the critical machine
        probes = scan_clearing_times(wscc, [0.149, 0.150, 0.151, 0.152, 0.153])
        energies = [p.total_at_clear[2] for p in probes]
        assert all(b > a for a, b in zip(energies, energies[1:]))

    def test_island_below_a_stable_stretch_is_not_seen(self, wscc, wscc_scan):
        # the documented limit: an edge inside the bracket, exact only on a
        # monotone one; the scan shows the 0.119-0.138 s island it skips
        result = find_cct(wscc, 0.06, 0.24)
        assert (result.cct, result.cct_unstable) == (0.152, 0.153)
        verdicts = {p.t_clear: p.stable for p in wscc_scan}
        assert verdicts[0.118] and not verdicts[0.119] and not verdicts[0.138]
        assert verdicts[0.139]


SCAN_TIMES = [round(0.110 + 0.001 * k, 3) for k in range(63)]  # conftest's wscc_scan


class TestVerdicts:
    @pytest.mark.parametrize("first_swing_only", [False, True])
    def test_final_verdict_is_the_probe_result(self, wscc, first_swing_only):
        # stepped block by block, as find_cct steps it: once final, a verdict never changes
        sweep = _Sweep(wscc, 1e-3, solve_postfault_sep(wscc), DEFAULT_HORIZON, first_swing_only)
        probes = sweep.start_all(SCAN_TIMES)
        final = {}
        while sweep.pool.size:
            sweep.advance()
            for j in probes:
                if (verdict := sweep.verdict(j)) is not None:
                    assert final.setdefault(j, verdict) == verdict
        assert [final[j] for j in probes] == [sweep.result(j).stable for j in probes]

    def test_wscc9_first_swing_scan_has_one_edge(self, wscc):
        # no island on swing 1: stable through 0.160 s, unstable from
        # 0.161 s, the bracket where the trajectory itself separates
        scan = scan_clearing_times(wscc, SCAN_TIMES, first_swing_only=True)
        assert [p.stable for p in scan] == [t <= 0.160 for t in SCAN_TIMES]


def fake_assessment(machine, margin=None, dlp_time=None):
    events = []
    if dlp_time is not None:
        events.append(
            SwingEvent(
                machine=machine,
                kind=DLP,
                swing_index=1,
                time=dlp_time,
                delta_coi=1.0,
                residual_ke=0.1,
                direction="forward",
            )
        )
        classification = "unstable-at-swing-1"
    else:
        classification = "stable"
    return MachineAssessment(
        machine, tuple(events), classification, margin, 1.0, None
    )


class TestIdentifyMdm:
    def test_first_dlp_wins(self):
        stable = [fake_assessment(0, margin=0.01), fake_assessment(1, margin=0.3)]
        unstable = [fake_assessment(0, dlp_time=0.8), fake_assessment(1, dlp_time=1.2)]
        assert identify_mdm(stable, unstable) == 0

    def test_margin_mismatch_warns(self):
        stable = [fake_assessment(0, margin=0.3), fake_assessment(1, margin=0.01)]
        unstable = [fake_assessment(0, dlp_time=0.8), fake_assessment(1, dlp_time=1.2)]
        with pytest.warns(RuntimeWarning, match="minimum stable-side"):
            assert identify_mdm(stable, unstable) == 0

    def test_no_dlp_is_an_error(self):
        with pytest.raises(ImeacError, match="no DLP"):
            identify_mdm([fake_assessment(0, margin=0.1)], [fake_assessment(0, margin=0.1)])


class TestExports:
    def test_cct_json(self, smib):
        result = find_cct(smib, 0.195, 0.196)
        stream = io.StringIO()
        write_cct(stream, result)
        doc = json.loads(stream.getvalue())
        assert doc["cct_s"] == pytest.approx(0.195)
        assert doc["mdm"] == result.mdm
        assert doc["evaluations"] == 2

    def test_margin_curve_tsv(self, smib):
        result = find_cct(smib, 0.195, 0.196)
        stream = io.StringIO()
        write_margin_curve(stream, result)
        lines = stream.getvalue().strip().splitlines()
        assert lines[0].startswith("#")
        assert len(lines) == 1 + len(result.margin_curve)
