"""Per-machine margins and the machine-by-machine system verdict.

The margin of machine i compares the kinetic energy it carries at
fault clearing (A_acc = V_KEi-SYS^c) with the potential energy it
absorbed between clearing and its terminal point (A_dec), both along
the actual trajectory:

    eta_i = (A_dec - A_acc) / A_acc

The terminal point is the machine's first DLP when one exists (the
machine separates; the residual kinetic energy there is positive, so
eta_i < 0), otherwise its first DSP (the swing turns; the residual is
numerically zero, so eta_i is zero up to quadrature residue and gets
clamped to exactly 0).  This keeps the sign rule, the classification
and the terminal event kind in exact agreement for every machine:
unstable (some DLP, at any swing) iff eta_i < 0.

The system verdict applies the unity principle: one separating machine
is enough, and it is the first DLP that decides when.  Severity orders
all separating machines by their first-DLP times.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from typing import IO, Sequence

from .case import StabilityCase
from .errors import HorizonError
from .events import DLP, DSP, SwingEvent
from .exportutil import fmt

EAC_IDENTITY_TOL = 1e-5

UNDETERMINED = "undetermined"
STABLE = "stable"


@dataclass(frozen=True)
class MachineAssessment:
    """One machine's events, classification and margin."""

    machine: int
    events: tuple[SwingEvent, ...]
    classification: str
    margin: float | None
    a_acc: float | None
    a_dec: float | None

    @property
    def determined(self) -> bool:
        return self.classification != UNDETERMINED

    @property
    def unstable(self) -> bool:
        return self.classification.startswith("unstable")

    def first_dlp(self) -> SwingEvent | None:
        for event in self.events:
            if event.kind == DLP:
                return event
        return None


def margin_from_areas(a_acc: float, a_dec: float) -> float:
    """Stability margin from the accelerating/decelerating areas."""
    return (a_dec - a_acc) / a_acc


def anchor_index(events: Sequence[SwingEvent]) -> int:
    """Position of the terminal event: the first DLP, else the first event."""
    return next((k for k, ev in enumerate(events) if ev.kind == DLP), 0)


def margin_at_anchor(
    case: StabilityCase,
    machine: int,
    events: tuple[SwingEvent, ...],
    a_acc: float,
    a_dec: float,
) -> MachineAssessment:
    """Classification and margin from the areas up to the terminal event.

    With zero damping the equal-area identity |(A_acc - A_dec) - residual_ke|
    < 1e-5 is checked at the terminal event; a violation signals integration
    trouble (a divergence-truncated run, say) and warns without discarding
    the assessment.  A DLP anchor with A_dec >= A_acc contradicts the sign
    rule: it warns and gets no margin.
    """
    anchor = events[anchor_index(events)]
    if not any(mach.d for mach in case.machines):
        gap = abs((a_acc - a_dec) - anchor.residual_ke)
        if gap >= EAC_IDENTITY_TOL:
            warnings.warn(
                f"machine {machine}: equal-area identity off by {gap:.3e} "
                f"at {anchor.kind} t={anchor.time:.4f}s",
                RuntimeWarning,
                stacklevel=3,
            )
    if anchor.kind == DLP:
        classification = f"unstable-at-swing-{anchor.swing_index}"
    else:
        classification = STABLE
    contradicts = anchor.kind == DLP and a_dec >= a_acc
    if contradicts:
        message = f"machine {machine}: DLP at t={anchor.time:.4f}s with A_dec >= A_acc; no margin"
        warnings.warn(message, RuntimeWarning, stacklevel=3)
    if a_acc <= 0.0 or contradicts:
        margin = None
    else:
        margin = margin_from_areas(a_acc, a_dec)
        if anchor.kind == DSP and margin < 0.0:
            # a DSP anchor makes A_dec = A_acc up to quadrature residue;
            # clamp the residue so the sign rule stays exact
            margin = 0.0
    return MachineAssessment(machine, events, classification, margin, a_acc, a_dec)


@dataclass(frozen=True)
class SystemAssessment:
    """Machine-by-machine verdict under the unity principle."""

    stable: bool
    eta_sys: tuple[float | None, ...]
    leading_losp: tuple[int, float] | None
    severity: tuple[tuple[int, float], ...]
    severity_final_time: float | None
    timeline: tuple[SwingEvent, ...]
    undetermined: tuple[int, ...]

    @property
    def verdict(self) -> str:
        if not self.stable:
            machine, time = self.leading_losp
            return f"unstable (leading LOSP: machine {machine} at {time:.3f} s)"
        if self.undetermined:
            return (
                f"stable within horizon, {len(self.undetermined)} machine(s) undetermined"
            )
        return "stable"


def assess_system(assessments: Sequence[MachineAssessment]) -> SystemAssessment:
    """Aggregate machine assessments; order of the input list is irrelevant."""
    ordered = sorted(assessments, key=lambda a: a.machine)
    if not any(a.determined for a in ordered):
        raise HorizonError("horizon too short: no machine reached a verdict")
    dlps = []
    for a in ordered:
        first = a.first_dlp()
        if first is not None:
            dlps.append((first.time, a.machine))
    dlps.sort()
    severity = tuple((machine, time) for time, machine in dlps)
    stable = not severity
    timeline = tuple(
        sorted(
            (ev for a in ordered for ev in a.events),
            key=lambda ev: (ev.time, ev.machine),
        )
    )
    return SystemAssessment(
        stable=stable,
        eta_sys=tuple(a.margin for a in ordered),
        leading_losp=None if stable else severity[0],
        severity=severity,
        severity_final_time=None if stable else severity[-1][1],
        timeline=timeline,
        undetermined=tuple(a.machine for a in ordered if not a.determined),
    )


def event_record(ev: SwingEvent) -> dict:
    """One event as exported (angles in degrees, as named).

    near_critical appears only when set, so ordinary events keep the
    six fields.
    """
    record = {
        "machine": ev.machine,
        "kind": ev.kind,
        "swing_index": ev.swing_index,
        "time_s": round(ev.time, 12),
        "delta_coi_deg": round(math.degrees(ev.delta_coi), 9),
        "residual_ke_pu": float(f"{ev.residual_ke:.10e}"),
    }
    if ev.near_critical:
        record["near_critical"] = True
    return record


def write_events(stream: IO[str], events: Sequence[SwingEvent]) -> None:
    """Line-delimited event stream, one event_record per line."""
    for ev in events:
        stream.write(json.dumps(event_record(ev)) + "\n")


def write_margins(stream: IO[str], assessments: Sequence[MachineAssessment]) -> None:
    """Per-machine margins table (TSV; missing values print as nan)."""
    stream.write("# machine\tclassification\teta\ta_acc_pu\ta_dec_pu\n")
    for a in sorted(assessments, key=lambda a: a.machine):
        stream.write(
            f"{a.machine}\t{a.classification}\t{fmt(a.margin)}\t{fmt(a.a_acc)}\t{fmt(a.a_dec)}\n"
        )


def verdict_document(sa: SystemAssessment) -> dict:
    return {
        "stable": sa.stable,
        "verdict": sa.verdict,
        "leading_losp": None
        if sa.leading_losp is None
        else {"machine": sa.leading_losp[0], "time_s": round(sa.leading_losp[1], 12)},
        "severity": [
            {"machine": machine, "time_s": round(time, 12)} for machine, time in sa.severity
        ],
        "severity_final_time_s": None
        if sa.severity_final_time is None
        else round(sa.severity_final_time, 12),
        "eta_sys": [None if eta is None else float(f"{eta:.10e}") for eta in sa.eta_sys],
        "undetermined": list(sa.undetermined),
        "timeline": [event_record(ev) for ev in sa.timeline],
    }


def write_verdict(stream: IO[str], sa: SystemAssessment) -> None:
    """Structured verdict document (JSON)."""
    json.dump(verdict_document(sa), stream, indent=2, sort_keys=True)
    stream.write("\n")


def format_verdict_table(
    sa: SystemAssessment,
    assessments: Sequence[MachineAssessment],
    critical: Sequence[int] | None = None,
) -> str:
    """Human-readable verdict table for the CLI (angles in degrees).

    ``critical`` lists machines to report first (most disturbed on top);
    the remaining machines follow in index order.
    """
    lines = [f"verdict: {sa.verdict}"]
    if sa.leading_losp is not None:
        machine, time = sa.leading_losp
        lines.append(f"leading LOSP: machine {machine} at {time:.4f} s")
        order = ", ".join(f"{m}@{t:.4f}s" for m, t in sa.severity)
        lines.append(f"severity (by first DLP): {order}")
    header = f"{'machine':>7}  {'classification':<22}{'eta':>12}  events"
    lines.append(header)
    flagged = list(critical or [])
    rank = {m: k for k, m in enumerate(flagged)}
    ordered = sorted(
        assessments, key=lambda a: (rank.get(a.machine, len(flagged)), a.machine)
    )
    for a in ordered:
        mark = "*" if a.machine in rank else " "
        eta = "-" if a.margin is None else f"{a.margin:.5f}"
        evs = "; ".join(
            f"{ev.kind}{ev.swing_index}@{ev.time:.4f}s({math.degrees(ev.delta_coi):.1f} deg)"
            for ev in a.events
        )
        lines.append(f"{a.machine:>6}{mark}  {a.classification:<22}{eta:>12}  {evs or '-'}")
    if flagged:
        lines.append("* critical machine (significant kinetic energy at clearing)")
    return "\n".join(lines)
