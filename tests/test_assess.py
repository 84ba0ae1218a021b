"""Margins, classification, and the system-level verdict."""

from __future__ import annotations

import io
import json
import random

import numpy as np
import pytest

from imeac import (
    DLP,
    DSP,
    HorizonError,
    MachineAssessment,
    SwingEvent,
    compute_energy,
)
from imeac.assess import (
    UNDETERMINED,
    assess_system,
    first_dlps,
    format_verdict_table,
    margin_at_anchor,
    margin_from_areas,
    verdict_document,
    write_events,
    write_margins,
)
from imeac.energy import EnergyChannels
from imeac.events import detect_events
from conftest import assess_machines, machine_margin


def assessments_for(case, traj, sep):
    channels = compute_energy(case, traj, sep)
    return assess_machines(case, traj, channels, detect_events(case, traj))


class TestMarginArithmetic:
    def test_examples(self):
        assert margin_from_areas(2.0, 3.0) == pytest.approx(0.5)
        assert margin_from_areas(2.0, 1.0) == pytest.approx(-0.5)
        assert margin_from_areas(1.0, 1.0) == 0.0


class TestMachineMargin:
    def test_stable_run(self, wscc, wscc_sep, wscc_stable_run):
        for a in assessments_for(wscc, wscc_stable_run, wscc_sep):
            assert a.determined and not a.unstable
            assert a.classification == "stable"
            assert a.margin is not None and a.margin >= 0.0
            assert a.a_acc > 0.0
            assert first_dlps([a.events]) == []

    def test_unstable_run(self, wscc, wscc_sep, wscc_unstable_run):
        out = assessments_for(wscc, wscc_unstable_run, wscc_sep)
        separated = [a for a in out if a.unstable]
        assert separated, "t_clear = 0.2 s must liberate at least one machine"
        for a in separated:
            assert a.margin is not None and a.margin < 0.0
            swing = int(a.classification.rsplit("-", 1)[-1])
            assert a.classification == f"unstable-at-swing-{swing}"
            assert [m for m, _ in first_dlps([a.events])] == [a.machine]

    def test_no_events_is_undetermined(self, wscc, wscc_sep, wscc_stable_run):
        channels = compute_energy(wscc, wscc_stable_run, wscc_sep)
        a = machine_margin(wscc, wscc_stable_run, channels, [], 1)
        assert a.classification == UNDETERMINED
        assert not a.determined
        assert a.margin is None and a.a_acc is None and a.a_dec is None

    def test_violated_identity_warns(self, wscc, wscc_sep, wscc_stable_run):
        channels = compute_energy(wscc, wscc_stable_run, wscc_sep)
        corrupted = EnergyChannels(
            ke=channels.ke + 0.5,
            pe=channels.pe,
            total=channels.total,
            baseline_from_sep=channels.baseline_from_sep,
        )
        events = detect_events(wscc, wscc_stable_run)
        with pytest.warns(RuntimeWarning, match="equal-area"):
            machine_margin(wscc, wscc_stable_run, corrupted, events[0], 0)

    @pytest.mark.parametrize("a_dec", [6.5e-5, 6.09e-5])
    def test_dlp_with_a_dec_at_least_a_acc_warns_and_has_no_margin(self, star, a_dec):
        # the equal-area gap is under EAC_IDENTITY_TOL, so only this check speaks
        events = (fake_event(1, DLP, 0.05, residual=0.0),)
        with pytest.warns(RuntimeWarning, match="machine 1: DLP .* A_dec >= A_acc"):
            a = margin_at_anchor(star, 1, events, 6.09e-5, a_dec)
        assert a.classification == "unstable-at-swing-1"
        assert a.margin is None and a.a_acc == 6.09e-5 and a.a_dec == a_dec


def fake_event(machine, kind, time, swing=1, residual=0.0):
    return SwingEvent(
        machine=machine,
        kind=kind,
        swing_index=swing,
        time=time,
        delta_coi=1.0,
        residual_ke=residual,
        direction="forward",
    )


def fake_assessment(machine, events, margin):
    unstable = any(ev.kind == DLP for ev in events)
    classification = "unstable-at-swing-1" if unstable else "stable"
    if not events:
        classification = UNDETERMINED
        return MachineAssessment(machine, tuple(events), classification, None, None, None)
    return MachineAssessment(machine, tuple(events), classification, margin, 1.0, 1.0 + margin)


class TestSystemAssessment:
    def build(self):
        return [
            fake_assessment(0, [fake_event(0, DSP, 0.5)], 0.4),
            fake_assessment(1, [fake_event(1, DSP, 0.4), fake_event(1, DLP, 1.1, swing=2, residual=0.2)], -0.2),
            fake_assessment(2, [fake_event(2, DLP, 0.9, residual=0.5)], -0.6),
        ]

    def test_unity_principle_aggregation(self):
        sa = assess_system(self.build())
        assert not sa.stable
        assert sa.leading_losp == (2, 0.9)  # earliest DLP decides
        assert sa.severity == ((2, 0.9), (1, 1.1))  # ordered by liberation time
        assert sa.severity_final_time == 1.1
        assert sa.eta_sys == (0.4, -0.2, -0.6)
        times = [ev.time for ev in sa.timeline]
        assert times == sorted(times)

    def test_input_order_is_irrelevant(self):
        base = self.build()
        shuffled = base[:]
        random.Random(3).shuffle(shuffled)
        a, b = assess_system(base), assess_system(shuffled)
        assert a == b

    def test_stable_verdict_strings(self):
        sa = assess_system([fake_assessment(0, [fake_event(0, DSP, 0.5)], 0.0)])
        assert sa.stable and sa.verdict == "stable"
        sa = assess_system(
            [
                fake_assessment(0, [fake_event(0, DSP, 0.5)], 0.0),
                fake_assessment(1, [], None),
            ]
        )
        assert sa.stable
        assert "1 machine(s) undetermined" in sa.verdict

    def test_unstable_verdict_string(self):
        sa = assess_system(self.build())
        assert sa.verdict == "unstable (leading LOSP: machine 2 at 0.900 s)"

    def test_all_undetermined_raises(self):
        with pytest.raises(HorizonError, match="horizon too short"):
            assess_system([fake_assessment(0, [], None), fake_assessment(1, [], None)])


class TestExports:
    def test_events_jsonl(self):
        sa = assess_system(TestSystemAssessment().build())
        stream = io.StringIO()
        write_events(stream, sa.timeline)
        lines = stream.getvalue().strip().splitlines()
        assert len(lines) == 4
        records = [json.loads(line) for line in lines]
        assert [r["kind"] for r in records] == [DSP, DSP, DLP, DLP]
        assert all(
            set(r) >= {"machine", "kind", "swing_index", "time_s", "delta_coi_deg", "residual_ke_pu"}
            for r in records
        )

    def test_margins_table(self):
        stream = io.StringIO()
        write_margins(stream, TestSystemAssessment().build())
        lines = stream.getvalue().strip().splitlines()
        assert lines[0].startswith("# machine")
        assert len(lines) == 4
        assert lines[2].split("\t")[1] == "unstable-at-swing-1"

    def test_verdict_document_roundtrips_json(self):
        sa = assess_system(TestSystemAssessment().build())
        doc = json.loads(json.dumps(verdict_document(sa)))
        assert doc["stable"] is False
        assert doc["leading_losp"] == {"machine": 2, "time_s": 0.9}
        assert [s["machine"] for s in doc["severity"]] == [2, 1]

    def test_events_and_verdict_timeline_agree(self):
        # one serializer: the timeline carries near_critical like the
        # event stream does, field for field
        events = [fake_event(0, DSP, 0.5), fake_event(1, DLP, 0.9, residual=0.3)]
        events[0] = SwingEvent(**{**events[0].__dict__, "near_critical": True})
        sa = assess_system([
            fake_assessment(0, [events[0]], 0.0),
            fake_assessment(1, [events[1]], -0.4),
        ])
        stream = io.StringIO()
        write_events(stream, sa.timeline)
        streamed = [json.loads(line) for line in stream.getvalue().splitlines()]
        timeline = json.loads(json.dumps(verdict_document(sa)))["timeline"]
        assert streamed == timeline
        assert timeline[0]["near_critical"] is True
        assert "near_critical" not in timeline[1]

    def test_table_mentions_every_machine(self):
        assessments = TestSystemAssessment().build()
        text = format_verdict_table(assess_system(assessments), assessments)
        for token in ("0", "1", "2", "unstable"):
            assert token in text

    def test_table_reports_critical_machines_first(self):
        assessments = TestSystemAssessment().build()
        text = format_verdict_table(
            assess_system(assessments), assessments, critical=[2, 1]
        )
        rows = [line for line in text.splitlines() if line.lstrip()[0].isdigit()]
        assert [row.split()[0] for row in rows] == ["2*", "1*", "0"]
        assert text.splitlines()[-1].startswith("* critical machine")
