"""Critical clearing time search and clearing-time sweeps.

Each probe is one staged simulation plus the full machine-by-machine
assessment; bisection narrows a stable/unstable clearing-time bracket
down to the requested resolution on an integer grid, so the result is
identical to an exhaustive scan of the same grid.  The most severely
disturbed machine (MDM) is the machine emitting the first DLP on the
unstable side of the final bracket, and the system's critical transient
energy is the MDM's total energy at clearing on the stable side.

Probes of one case run through one batched engine (``_Sweep``): the
fault-on prefix is integrated once and cached, every probe starts
post-fault from the prefix sample at its own clearing index, all probes
of a call advance in lockstep as rows of one state array, and their
samples stream block by block through the event scanner, which also
records the PE at every event.  So a sweep holds one block per probe,
never a trajectory.  A single probe is the one-row case of the same
engine, and every batched row is bit-identical to that probe run alone.
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
    margin_at_anchor,
)
from .case import EquilibriumPoint, StabilityCase, solve_postfault_sep
from .dynamics import FaultOnPrefix, SimulationConfig, SwingKernel, lockstep
from .energy import pe_baseline
from .errors import BracketError, HorizonError, ImeacError
from .events import EventScanner
from .exportutil import fmt

DEFAULT_HORIZON = 3.0  # s of post-clearing observation per probe


@dataclass(frozen=True)
class ProbeResult:
    """Outcome of one clearing-time probe.

    assessment is None when the simulation diverged before any machine
    reached a verdict (for example on its first post-fault step); such a
    probe counts as unstable.
    """

    t_clear: float
    assessment: SystemAssessment | None
    machine_assessments: tuple[MachineAssessment, ...]
    total_at_clear: tuple[float, ...]
    diverged: bool

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


def _grid_value(value: float, unit: float, name: str) -> int:
    k = round(value / unit)
    if abs(value - k * unit) > 1e-9:
        raise ValueError(f"{name}={value} is not an integer multiple of {unit}")
    return k


class _Sweep:
    """Probes of one case on one time grid: kernel, fault-on prefix and PE baseline are shared."""

    def __init__(self, case: StabilityCase, dt: float, sep: EquilibriumPoint | None):
        self.case = case
        self.dt = dt
        self.kernel = SwingKernel(case)
        self.prefix = FaultOnPrefix(self.kernel, case, dt)
        self.baseline = pe_baseline(case, sep)

    def probe(
        self, times: Sequence[float], horizon: float, first_swing_only: bool
    ) -> list[ProbeResult]:
        """Probe every clearing time, in input order.

        A failing probe raises its error; when several fail, the first
        in input order wins, as if the probes had run one by one.
        """
        clear: list[int] = []
        post_steps = 0  # the same for every probe: one horizon
        invalid = None
        for t in times:
            try:
                steps = _grid_value(t, self.dt, "t_clear") + _grid_value(horizon, self.dt, "horizon")
                cfg = SimulationConfig(t_clear=t, t_end=steps * self.dt, dt=self.dt)
            except ValueError as exc:
                invalid = exc  # the probes after it would never have run
                break
            clear.append(cfg.clear_index)
            post_steps = cfg.n_steps - cfg.clear_index
        outcomes = self._run(times, clear, post_steps, first_swing_only)
        for outcome in outcomes:
            if isinstance(outcome, Exception):
                raise outcome
        if invalid is not None:
            raise invalid
        return outcomes

    def _run(self, times, clear, steps, first_swing_only) -> list:
        """One ProbeResult or exception per clearing index."""
        heads = [self.prefix.state(c) for c in clear]
        outcomes: list = [
            ImeacError(
                "simulation diverged during the fault-on stage at "
                f"t={self.prefix.divergence_index * self.dt} s"
            )
            if head is None
            else None
            for head in heads
        ]
        live = [j for j, head in enumerate(heads) if head is not None]
        if not live:
            return outcomes
        scanner, at_clear, diverged = self._stream(
            [heads[j] for j in live], np.array([clear[j] for j in live]), steps
        )
        n = self.kernel.n
        ke = 0.5 * self.kernel.m * at_clear[:, 3 * n : 4 * n] ** 2
        pe = self._pe(at_clear[:, 2 * n : 3 * n])
        total = ke + pe
        for q, j in enumerate(live):
            machines = []
            for i in range(n):
                events = scanner.events[q][i]
                if first_swing_only:
                    # swing indices never decrease, so this keeps a prefix
                    # of the list and event_pe still lines up
                    events = [ev for ev in events if ev.swing_index == 1]
                if not events:
                    machines.append(MachineAssessment(i, (), UNDETERMINED, None, None, None))
                    continue
                a_dec = scanner.event_pe[q][i][anchor_index(events)] - float(pe[q, i])
                machines.append(
                    margin_at_anchor(self.case, i, tuple(events), float(ke[q, i]), a_dec)
                )
            try:
                assessment = assess_system(machines)
            except HorizonError as exc:
                if not diverged[q]:
                    outcomes[j] = exc
                    continue
                assessment = None
            outcomes[j] = ProbeResult(
                t_clear=times[j],
                assessment=assessment,
                machine_assessments=tuple(machines),
                total_at_clear=tuple(float(v) for v in total[q]),
                diverged=bool(diverged[q]),
            )
        return outcomes

    def _pe(self, w: np.ndarray) -> np.ndarray:
        """Potential energy from the integrated channel W (baseline added)."""
        return w if self.baseline is None else self.baseline + w

    def _stream(self, heads, clear, steps):
        """Run the rows post-fault in lockstep and scan them block by block.

        Returns the scanner, each row's clearing sample (state | omega_coi
        | f_coi_pf) and a per-row divergence flag.
        """
        kern = self.kernel
        n = kern.n
        y = heads[0] if len(heads) == 1 else np.stack(heads)
        scanner = EventScanner(kern.m, len(heads))
        at_clear = None
        diverged = np.zeros(len(heads), dtype=bool)
        for start, block, rows, lost in lockstep(kern, y, steps, self.dt):
            if at_clear is None:
                at_clear = block[0].copy()
            offsets = np.arange(start, start + block.shape[0])[:, None]
            scanner.feed(
                rows,
                (clear[rows] + offsets) * self.dt,
                block[..., 3 * n : 4 * n],
                block[..., 4 * n :],
                kern.coi(block[..., :n]),
                self._pe(block[..., 2 * n : 3 * n]),
            )
            diverged[lost] = True
        return scanner, at_clear, diverged


def probe_clearing_time(
    case: StabilityCase,
    t_clear: float,
    dt: float = 1e-3,
    horizon: float = DEFAULT_HORIZON,
    first_swing_only: bool = False,
    sep=None,
) -> ProbeResult:
    """Simulate one clearing time and assess the system."""
    if sep is None:
        sep = solve_postfault_sep(case)
    return _Sweep(case, dt, sep).probe([t_clear], horizon, first_swing_only)[0]


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
    post-fault rows in lockstep.  Unsorted and repeated times are fine.
    """
    sweep = _Sweep(case, dt, solve_postfault_sep(case))
    return sweep.probe(times, horizon, first_swing_only)


def identify_mdm(
    stable_assessments: Sequence[MachineAssessment],
    unstable_assessments: Sequence[MachineAssessment],
) -> int:
    """The machine emitting the first DLP on the unstable side.

    Consistency check: the same machine should carry the minimum margin
    on the stable side; a mismatch is reported as a warning and the
    unstable-side identity wins.
    """
    dlps = [
        (a.first_dlp().time, a.machine)
        for a in unstable_assessments
        if a.first_dlp() is not None
    ]
    if not dlps:
        raise ImeacError("unstable-side assessments contain no DLP")
    mdm = min(dlps)[1]
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

    t_lo must be stable and t_hi unstable (both are simulated first, as
    one two-row batch, and validated); the midpoints reuse the cached
    fault-on prefix.  Every probe lands on an integer multiple of resolution,
    which itself must be an integer multiple of dt, so the returned CCT
    is exactly what an exhaustive scan of the same grid would select.
    Evaluations are at most 2 + ceil(log2(bracket / resolution)).
    """
    _grid_value(resolution, dt, "resolution")
    lo = _grid_value(t_lo, resolution, "t_lo")
    hi = _grid_value(t_hi, resolution, "t_hi")
    if not lo < hi:
        raise ValueError(f"need t_lo < t_hi, got {t_lo} >= {t_hi}")
    sweep = _Sweep(case, dt, solve_postfault_sep(case))
    probes: dict[int, ProbeResult] = {}

    def run(*ks: int) -> list[ProbeResult]:
        results = sweep.probe([k * resolution for k in ks], horizon, first_swing_only)
        probes.update(zip(ks, results))
        return results

    lo_probe, hi_probe = run(lo, hi)
    if not lo_probe.stable:
        raise BracketError(
            f"t_lo={t_lo} must be stable: got unstable at t_lo, "
            f"{'unstable' if not hi_probe.stable else 'stable'} at t_hi"
        )
    if hi_probe.stable:
        raise BracketError(f"t_hi={t_hi} must be unstable: got stable at both ends")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if run(mid)[0].stable:
            lo = mid
        else:
            hi = mid
    ordered = sorted(probes.items())
    for (ka, pa), (kb, pb) in zip(ordered, ordered[1:]):
        if not pa.stable and pb.stable:
            raise ImeacError(
                f"non-monotone verdicts: unstable at {ka * resolution:.6g} s but "
                f"stable at {kb * resolution:.6g} s"
            )
    mdm = identify_mdm(probes[lo].machine_assessments, probes[hi].machine_assessments)
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
        critical_energy=probes[lo].total_at_clear[mdm],
        margin_curve=curve,
        evaluations=len(probes),
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
