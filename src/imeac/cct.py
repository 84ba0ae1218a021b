"""Critical clearing time search and clearing-time sweeps.

Each probe is one staged simulation plus the full machine-by-machine
assessment; bisection narrows a stable/unstable clearing-time bracket
down to the requested resolution on an integer grid: the result is an
edge inside the bracket, exact on a monotone bracket.  The most severely
disturbed machine (MDM) is the machine emitting the first DLP on the
unstable side of the final bracket, and the system's critical transient
energy is the MDM's total energy at clearing on the stable side.

Probes of one case run through one engine (``_Sweep``): the fault-on
prefix is integrated once and cached, every probe starts post-fault
from the prefix sample at its own clearing index as a row of one row
pool (``dynamics.RowPool``), and the rows' samples stream block by
block through the event scanner, which also records the PE at every
event.  So a sweep holds one block per probe, never a trajectory.  A
scan joins all its rows at step 0; a single probe is the one-row case;
every row is bit-identical to that probe run alone.

``find_cct`` reports bisection's probes but runs the bisection tree
``DEPTH`` levels ahead of its verdicts and drops the rows of each
pruned half from the pool.  A probe's verdict is final as unstable once
``assess.first_dlps`` finds a DLP among its events so far, as stable or
failed only when its row leaves the pool.  Results are assembled only
when reported, so a probe bisection never visits never raises or warns.
This module only searches: the scanner detects the events, and
``first_dlps`` alone decides what they mean.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from .assess import (
    UNDETERMINED,
    MachineAssessment,
    SystemAssessment,
    anchor_index,
    assess_system,
    first_dlps,
    fmt,
    margin_at_anchor,
)
from .case import EquilibriumPoint, StabilityCase, coi_frame, solve_postfault_sep
from .dynamics import FaultOnPrefix, RowPool, SimulationConfig, SwingKernel, off_grid
from .energy import pe_baseline
from .errors import BracketError, DivergenceError, HorizonError, ImeacError
from .events import EventScanner

DEFAULT_HORIZON = 3.0  # s of post-clearing observation per probe
DEPTH = 4  # bisection levels find_cct starts ahead of its verdicts


@dataclass(frozen=True)
class ProbeResult:
    """Outcome of one clearing-time probe.

    ke_at_clear and total_at_clear are each machine's kinetic and total
    energy at clearing.  divergence_time is the time of the first sample
    past the record of a probe whose post-fault run left the guard
    region, else None.  assessment is None when the simulation diverged
    before any machine reached a verdict (for example on its first
    post-fault step); such a probe counts as unstable.
    """

    t_clear: float
    assessment: SystemAssessment | None
    machine_assessments: tuple[MachineAssessment, ...]
    total_at_clear: tuple[float, ...]
    ke_at_clear: tuple[float, ...]
    divergence_time: float | None

    @property
    def diverged(self) -> bool:
        return self.divergence_time is not None

    @property
    def stable(self) -> bool:
        return self.assessment is not None and self.assessment.stable


@dataclass(frozen=True)
class CctResult:
    """Bisection outcome: bracket, MDM, critical energy, margin curve."""

    cct: float
    cct_unstable: float
    resolution: float
    mdm: int
    critical_energy: float
    margin_curve: tuple[tuple[float, float], ...]
    evaluations: int


def _positive(**values: float) -> None:
    for name, value in values.items():
        if not value > 0:
            raise ValueError(f"{name} must be > 0, got {value}")


def _grid_value(value: float, unit: float, name: str) -> int:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    if not math.isfinite(value / unit):
        raise ValueError(f"{name}={value} is too large for a step of {unit}")
    k = round(value / unit)
    if off_grid(value, k, unit):
        raise ValueError(f"{name}={value} is not an integer multiple of {unit}")
    return k


class _Sweep:
    """Probes of one case on one time grid, run on one row pool.

    Kernel, fault-on prefix and PE baseline are shared.  ``start`` joins
    a probe's post-fault row to the pool and keeps its clearing energies,
    ``advance`` steps the pool one block and scans it, and a probe's
    outcome (a ProbeResult, or the exception the probe raises when run
    alone) is assembled on the first ``result`` call after its row left.
    """

    def __init__(
        self,
        case: StabilityCase,
        dt: float,
        sep: EquilibriumPoint | None,
        horizon: float,
        first_swing_only: bool,
    ):
        _positive(dt=dt, horizon=horizon)
        self.case = case
        self.dt = dt
        self.horizon = horizon
        self.first_swing_only = first_swing_only
        self.kernel = SwingKernel(case)
        self.prefix = FaultOnPrefix(self.kernel, case, dt)
        self.baseline = pe_baseline(case, sep)
        self.pool = RowPool(self.kernel, dt)
        self.scanner = EventScanner(self.kernel.m, 0)
        # per probe = pool row = scanner row: None until assembled, then a ProbeResult or an exception
        self.outcomes: list = []
        # probe -> (clearing time, per-machine KE and PE at clearing), once joined
        self._joined: dict[int, tuple[float, np.ndarray, np.ndarray]] = {}

    def start(self, t: float) -> int:
        """Join the probe at clearing time t to the pool; returns its index."""
        j = len(self.outcomes)
        self.outcomes.append(None)
        self.scanner.add_rows(1)
        try:
            steps = _grid_value(t, self.dt, "t_clear") + _grid_value(self.horizon, self.dt, "horizon")
            cfg = SimulationConfig(t_clear=t, t_end=steps * self.dt, dt=self.dt)
        except ValueError as exc:
            self.outcomes[j] = exc
            return j
        head = self.prefix.join(self.pool, j, cfg)
        if head is None:
            time = self.pool.ended[j]
            self.outcomes[j] = DivergenceError(
                f"simulation diverged during the fault-on stage at t={time} s", time
            )
            return j
        kernel, n = self.kernel, self.kernel.n
        ke = 0.5 * kernel.m * coi_frame(head[n : 2 * n], kernel.m_share) ** 2
        self._joined[j] = (t, ke, self.baseline + head[2 * n : 3 * n])
        return j

    def start_all(self, times: Sequence[float]) -> list[int]:
        """Start probes in input order, up to the first invalid clearing time."""
        started = []
        for t in times:
            started.append(self.start(t))
            if isinstance(self.outcomes[started[-1]], ValueError):
                break  # the probes after it would never have run
        return started

    def verdict(self, j: int):
        """Probe j's final verdict: True (stable), False (unstable), its exception, or None.

        A probe is final as unstable as soon as ``first_dlps`` finds a
        DLP among its events so far, and final as stable or failed only
        when its row has left the pool; None means not final yet.  Never
        warns.
        """
        events = self._events(j)
        if first_dlps(events):
            return False
        if j not in self.pool.ended:
            return self.outcomes[j]  # None while running, or the start's error
        try:  # a row with events is stable; one without has no margin to warn about
            return any(events) or self.result(j).stable
        except ImeacError as exc:
            return exc

    def result(self, j: int) -> ProbeResult:
        """Probe j's ProbeResult once its row has left the pool; raises the probe's error."""
        if self.outcomes[j] is None:
            self.outcomes[j] = self._result(j, self.pool.ended[j])
        if isinstance(self.outcomes[j], Exception):
            raise self.outcomes[j]
        return self.outcomes[j]

    def advance(self) -> None:
        """Step the pool one block and scan it."""
        n = self.kernel.n
        block = self.pool.advance()
        samples = block.samples
        self.scanner.feed(
            block.rows,
            (block.start + np.arange(samples.shape[0])[:, None]) * self.dt,
            samples[..., 3 * n : 4 * n],
            samples[..., 5 * n :],
            coi_frame(samples[..., :n], self.kernel.m_share),
            self.baseline + samples[..., 2 * n : 3 * n],
        )

    def probe(self, times: Sequence[float]) -> list[ProbeResult]:
        """Probe every clearing time, all rows from step 0, results in input order.

        A failing probe raises its error; when several fail, the first
        in input order wins, as if the probes had run one by one.
        """
        self.start_all(times)
        while self.pool.size:
            self.advance()
        return [self.result(j) for j in range(len(self.outcomes))]

    def _result(self, j: int, divergence_time: float | None):
        """The ProbeResult of probe j, whose row left the pool, or the HorizonError it raises."""
        t, ke, pe = self._joined[j]
        total = ke + pe
        machines = []
        for i, events in enumerate(self._events(j)):
            if not events:
                machines.append(MachineAssessment(i, (), UNDETERMINED, None, None, None))
                continue
            a_dec = self.scanner.event_pe[j][i][anchor_index(events)] - float(pe[i])
            machines.append(margin_at_anchor(self.case, i, tuple(events), float(ke[i]), a_dec))
        try:
            assessment = assess_system(machines)
        except HorizonError as exc:
            if divergence_time is None:
                return exc
            assessment = None
        return ProbeResult(
            t_clear=t,
            assessment=assessment,
            machine_assessments=tuple(machines),
            total_at_clear=tuple(float(v) for v in total),
            ke_at_clear=tuple(float(v) for v in ke),
            divergence_time=divergence_time,
        )

    def _events(self, j: int) -> list[list]:
        """Probe j's events per machine; under first_swing_only the swing-1 prefix of each.

        The one place first_swing_only applies: the verdict, the margins
        and the system assessment all read these events.
        """
        events = self.scanner.events[j]
        if self.first_swing_only:
            events = [[ev for ev in e if ev.swing_index == 1] for e in events]
        return events


def probe_clearing_time(
    case: StabilityCase,
    t_clear: float,
    dt: float = 1e-3,
    horizon: float = DEFAULT_HORIZON,
    first_swing_only: bool = False,
    sep=None,
) -> ProbeResult:
    """Simulate one clearing time and assess the system, as ``imeac assess`` does.

    A divergence during the fault-on stage raises DivergenceError; one
    after clearing is the result's divergence_time.
    """
    if sep is None:
        sep = solve_postfault_sep(case)
    return _Sweep(case, dt, sep, horizon, first_swing_only).probe([t_clear])[0]


def scan_clearing_times(
    case: StabilityCase,
    times: Sequence[float],
    dt: float = 1e-3,
    horizon: float = DEFAULT_HORIZON,
    first_swing_only: bool = False,
) -> list[ProbeResult]:
    """Probe many clearing times as one batch; order of the result follows the input.

    Each result equals probe_clearing_time for the same clearing time,
    bit for bit; the batch shares the fault-on prefix and integrates the
    post-fault rows together.  Unsorted and repeated times are fine.
    """
    sweep = _Sweep(case, dt, solve_postfault_sep(case), horizon, first_swing_only)
    return sweep.probe(times)


def identify_mdm(
    stable_assessments: Sequence[MachineAssessment],
    unstable_assessments: Sequence[MachineAssessment],
) -> int:
    """The machine emitting the first DLP on the unstable side, the head of ``first_dlps``.

    Consistency check: the same machine should carry the minimum margin
    on the stable side; a mismatch is reported as a warning and the
    unstable-side identity wins.
    """
    dlps = first_dlps(a.events for a in unstable_assessments)
    if not dlps:
        raise ImeacError("unstable-side assessments contain no DLP")
    mdm = dlps[0][0]
    margins = {a.machine: a.margin for a in stable_assessments if a.margin is not None}
    if margins:
        low = min(margins.values())
        if margins.get(mdm, math.inf) > low + 1e-9:
            warnings.warn(
                f"MDM {mdm} (first DLP) does not carry the minimum stable-side "
                f"margin; keeping the unstable-side identity",
                RuntimeWarning,
                stacklevel=2,
            )
    return mdm


def find_cct(
    case: StabilityCase,
    t_lo: float,
    t_hi: float,
    resolution: float = 1e-3,
    dt: float = 1e-3,
    horizon: float = DEFAULT_HORIZON,
    first_swing_only: bool = False,
) -> CctResult:
    """Bisect the clearing time on the resolution grid.

    t_lo must be stable and t_hi unstable (both are simulated and
    validated).  Every probe lands on an integer multiple of resolution,
    which itself must be an integer multiple of dt: the returned CCT is an
    edge inside the bracket, exact on a monotone bracket (README).
    Evaluations are at most 2 + ceil(log2(bracket / resolution)).

    The probes are bisection's, but the search runs ahead of its
    verdicts on one row pool: before waiting on a midpoint it starts
    every midpoint of its subtree, DEPTH levels deep, so the ends and
    the first midpoint's subtree join at step 0.  A verdict is final as
    unstable once ``first_dlps`` finds a DLP, as stable or failed when
    the run ends; then the rows of the pruned half leave the pool, and
    at the end every unvisited row leaves.  Visited probes run their
    whole horizon, each equal to the probe run alone, so the result,
    errors included, is one-by-one bisection's.

    Visited verdicts are monotone by construction: a stable one was the
    bracket's lower end when visited, an unstable one its upper end, the
    ends only close in, and a failed end or midpoint raises first.  On a
    bracket with an island the search returns one edge inside it.
    """
    _positive(dt=dt, resolution=resolution, horizon=horizon, t_lo=t_lo)
    _grid_value(resolution, dt, "resolution")
    lo = _grid_value(t_lo, resolution, "t_lo")
    hi = _grid_value(t_hi, resolution, "t_hi")
    if not lo < hi:
        raise ValueError(f"need t_lo < t_hi, got {t_lo} >= {t_hi}")
    for name, k in (("t_lo", lo), ("t_hi", hi)):  # so every probe lands on the dt grid
        _grid_value(k * resolution, dt, name)
    sweep = _Sweep(case, dt, solve_postfault_sep(case), horizon, first_swing_only)
    ends = sweep.start_all([lo * resolution, hi * resolution])
    probes = dict(zip((lo, hi), ends))  # grid index -> probe index, visited, in probing order
    ahead: dict[int, int] = {}  # the same for midpoints started but not visited yet

    def ruled_out() -> bool:
        v_lo, v_hi = (sweep.verdict(j) for j in ends)
        return v_lo not in (None, True) or v_hi not in (None, False)

    def subtree(a: int, b: int, depth: int) -> list[int]:
        if depth == 0 or b - a < 2:
            return []
        mid = (a + b) // 2
        return [mid] + subtree(a, mid, depth - 1) + subtree(mid, b, depth - 1)

    a, b = lo, hi  # the bracket as bisection narrows it once the ends hold
    while len(ends) == 2 and b - a > 1 and not ruled_out():
        for k in subtree(a, b, DEPTH):
            if k not in ahead:
                ahead[k] = sweep.start(k * resolution)
        mid = (a + b) // 2
        j = probes[mid] = ahead.pop(mid)
        while (verdict := sweep.verdict(j)) is None and not ruled_out():
            sweep.advance()
        if not isinstance(verdict, bool):
            break  # the midpoint failed, or an end ruled the bracket out
        a, b = (mid, b) if verdict else (a, mid)
        sweep.pool.leave([ahead.pop(k) for k in list(ahead) if not a < k < b])
    sweep.pool.leave(list(ahead.values()))
    while sweep.pool.size:
        sweep.advance()
    # report as probing one midpoint after another would: the ends,
    # then the bracket check, then the midpoints in order
    lo_probe, hi_probe = (sweep.result(j) for j in ends)
    if not lo_probe.stable:
        raise BracketError(
            f"t_lo={t_lo} must be stable: got unstable at t_lo, "
            f"{'unstable' if not hi_probe.stable else 'stable'} at t_hi"
        )
    if hi_probe.stable:
        raise BracketError(f"t_hi={t_hi} must be unstable: got stable at both ends")
    results = {k: sweep.result(j) for k, j in probes.items()}
    lo, hi = a, b
    ordered = sorted(results.items())
    mdm = identify_mdm(results[lo].machine_assessments, results[hi].machine_assessments)
    curve = tuple(
        (k * resolution, p.machine_assessments[mdm].margin)
        for k, p in ordered
        if p.machine_assessments[mdm].margin is not None
    )
    return CctResult(
        cct=lo * resolution,
        cct_unstable=hi * resolution,
        resolution=resolution,
        mdm=mdm,
        critical_energy=results[lo].total_at_clear[mdm],
        margin_curve=curve,
        evaluations=len(results),
    )


def write_cct(stream: IO[str], result: CctResult) -> None:
    """Structured CCT document (JSON)."""
    doc = {
        "cct_s": round(result.cct, 12),
        "cct_unstable_s": round(result.cct_unstable, 12),
        "resolution_s": result.resolution,
        "mdm": result.mdm,
        "critical_energy_pu": float(f"{result.critical_energy:.10e}"),
        "evaluations": result.evaluations,
        "margin_curve": [
            {"t_clear_s": round(t, 12), "eta_mdm": float(f"{eta:.10e}")}
            for t, eta in result.margin_curve
        ],
    }
    json.dump(doc, stream, indent=2, sort_keys=True)
    stream.write("\n")


def write_margin_curve(stream: IO[str], result: CctResult) -> None:
    """Two-column margin-curve table for plotting."""
    stream.write("# t_clear_s\teta_mdm\n")
    for t, eta in result.margin_curve:
        stream.write(f"{t:.6f}\t{fmt(eta)}\n")
