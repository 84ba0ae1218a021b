"""Swing-by-swing detection of per-machine DSP and DLP events.

Scanning runs on the post-clearing samples of a trajectory, machine by
machine.  A DSP is a zero crossing of omega_i-SYS: the turning point of
a swing, with (numerically) exhausted kinetic energy.  A DLP is a zero
crossing of f_i-SYS^(PF) from restoring to anti-restoring while the
machine is still moving: the separation point.  The first DLP is
terminal for its machine; DSPs advance the swing count and scanning
continues, which is what makes multi-swing classification possible.

Event times come from linear interpolation of the crossing channel;
channel values at the event use cubic Hermite interpolation with the
exact derivative channels recorded by the integrator (d delta/dt =
omega, d omega/dt = f/M, d pe/dt = -f omega), so the Eq.-style energy
identities hold at events to interpolation accuracy.

There is one implementation, ``EventScanner``: it takes the samples in
blocks, for many trajectories (rows) at once, and carries per row and
machine what a scan needs across a block boundary: the largest |omega|
since the last DSP, the swing count and whether a DLP ended the scan.
Candidate crossings are found with array operations; Python loops only
over the few crossings.  ``detect_events`` feeds it one trajectory as a
single block; clearing-time sweeps stream their pooled rows through it
block by block and never hold a whole trajectory, and a bisection asks
it (``separated``) whether a probe's verdict is already final.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .case import StabilityCase
from .dynamics import Trajectory

OMEGA_TOL = 1e-3  # rad/s; below this a machine counts as not moving

DSP = "DSP"
DLP = "DLP"


@dataclass(frozen=True)
class SwingEvent:
    """One detected stationary (DSP) or liberation (DLP) point."""

    machine: int
    kind: str
    swing_index: int
    time: float
    delta_coi: float
    residual_ke: float
    direction: str
    near_critical: bool = False


def _hermite(p0: float, p1: float, d0: float, d1: float, h: float, s: float) -> float:
    """Cubic Hermite value at fraction s of an interval of width h."""
    s2 = s * s
    s3 = s2 * s
    return (
        (2.0 * s3 - 3.0 * s2 + 1.0) * p0
        + (s3 - 2.0 * s2 + s) * h * d0
        + (-2.0 * s3 + 3.0 * s2) * p1
        + (s3 - s2) * h * d1
    )


class EventScanner:
    """Streaming DSP/DLP scan of many rows, fed consecutive sample blocks.

    Each block holds L samples of R rows; a row's next block must start
    with the last sample of its previous one, so every interval between
    two samples is scanned exactly once, whatever the block size.  With
    a potential-energy channel the scanner also records the cubic
    Hermite PE value at each event (``event_pe``), the anchor of the
    machine's equal-area margin.
    """

    def __init__(self, m: np.ndarray, n_rows: int, omega_tol: float = OMEGA_TOL):
        self.m = np.asarray(m, dtype=float)
        self.omega_tol = omega_tol
        self.events: list[list[list[SwingEvent]]] = []
        self.event_pe: list[list[list[float]]] = []
        self._swings: list[list[int]] = []
        self._done: list[list[bool]] = []
        self._moved = np.zeros((0, self.m.shape[0]))  # max |omega| since the last DSP
        self.add_rows(n_rows)

    def add_rows(self, count: int) -> None:
        """Make room for ``count`` more rows, numbered after the existing ones."""
        n = self.m.shape[0]
        for _ in range(count):
            self.events.append([[] for _ in range(n)])
            self.event_pe.append([[] for _ in range(n)])
            self._swings.append([0] * n)
            self._done.append([False] * n)
        self._moved = np.concatenate((self._moved, np.zeros((count, n))))

    def separated(self, row: int, first_swing_only: bool = False) -> bool:
        """Whether some machine of the row has emitted its DLP (on swing 1 only, if asked).

        Under the unity principle that settles the row's verdict,
        unstable, however long the row still runs.
        """
        return any(
            done and (not first_swing_only or events[-1].swing_index == 1)
            for done, events in zip(self._done[row], self.events[row])
        )

    def feed(
        self,
        rows: Sequence[int],
        times: np.ndarray,
        omega: np.ndarray,
        force: np.ndarray,
        delta: np.ndarray,
        pe: np.ndarray | None = None,
    ) -> None:
        """Scan one block of samples.

        times is (L, R); omega (omega_i-SYS), force (f_i-SYS^(PF)), delta
        (delta_i-SYS) and pe are (L, R, n), for the rows listed in rows.
        """
        if times.shape[0] < 2:
            return
        w0, w1 = omega[:-1], omega[1:]
        f0, f1 = force[:-1], force[1:]
        turning = w0 * w1 < 0.0
        sign = np.where(w0 > 0.0, 1.0, -1.0)
        liberating = ~turning & (f0 * sign < 0.0) & (0.0 < f1 * sign)
        speed = np.abs(w0)
        hits = np.nonzero((turning | liberating).transpose(1, 2, 0))
        restart: dict[tuple[int, int], int] = {}  # first interval after a DSP in this block
        for r, i, k in zip(*(h.tolist() for h in hits)):
            row = rows[r]
            if self._done[row][i]:
                continue
            if turning[k, r, i]:
                seg = restart.get((r, i))
                if seg is None:
                    moved = max(self._moved[row, i], speed[: k + 1, r, i].max())
                else:
                    moved = speed[seg : k + 1, r, i].max()
                if moved > self.omega_tol:
                    self._emit(row, r, i, k, DSP, times, omega, force, delta, pe)
                    restart[(r, i)] = k + 1
            elif self._emit(row, r, i, k, DLP, times, omega, force, delta, pe):
                self._done[row][i] = True  # the first DLP ends this machine's scan
        rows = np.asarray(rows)
        self._moved[rows] = np.maximum(self._moved[rows], speed.max(axis=0))
        for (r, i), seg in restart.items():
            self._moved[rows[r], i] = speed[seg:, r, i].max(initial=0.0)

    def _emit(self, row, r, i, k, kind, times, omega, force, delta, pe) -> bool:
        """Interpolate and record one event in interval k; False if rejected."""
        m = self.m
        t0 = times[k, r]
        h = times[k + 1, r] - t0
        w0, w1 = omega[k, r, i], omega[k + 1, r, i]
        f0, f1 = force[k, r, i], force[k + 1, r, i]
        s = w0 / (w0 - w1) if kind == DSP else f0 / (f0 - f1)
        w_star = _hermite(w0, w1, f0 / m[i], f1 / m[i], h, s)
        if kind == DLP and not abs(w_star) > self.omega_tol:
            return False
        t_star = t0 + s * h
        self.events[row][i].append(
            SwingEvent(
                machine=i,
                kind=kind,
                swing_index=self._swings[row][i] + 1,
                time=float(t_star),
                delta_coi=float(_hermite(delta[k, r, i], delta[k + 1, r, i], w0, w1, h, s)),
                residual_ke=float(0.5 * m[i] * w_star**2),
                direction="forward" if w0 > 0.0 else "backward",
                near_critical=kind == DSP and bool((f0 < 0.0 < f1) or (f1 < 0.0 < f0)),
            )
        )
        if kind == DSP:
            self._swings[row][i] += 1
        if pe is not None:
            self.event_pe[row][i].append(
                float(_hermite(
                    pe[k, r, i], pe[k + 1, r, i], -f0 * w0, -f1 * w1, h, (t_star - t0) / h
                ))
            )
        return True


def detect_events(
    case: StabilityCase,
    traj: Trajectory,
    omega_tol: float = OMEGA_TOL,
) -> list[list[SwingEvent]]:
    """Scan every machine's post-clearing channels for DSP/DLP events.

    Returns one time-ordered event list per machine; an empty list means
    the machine reached no turning or separation point in the horizon
    (undetermined).  A machine must actually have moved (|omega_i-SYS| >
    omega_tol since its previous event) before a DSP is registered,
    which keeps numerically resting machines, like an infinite-bus
    surrogate, from emitting noise events.  When an omega crossing and
    an f crossing fall in the same step, the DSP wins and is flagged
    near_critical.
    """
    if traj.n_samples < 2:
        raise ValueError("trajectory must have at least 2 samples")
    start = min(traj.clear_index, traj.n_samples - 1)
    scanner = EventScanner(case.m_vector(), 1, omega_tol)
    scanner.feed(
        [0],
        traj.times[start:, None],
        traj.omega_coi[:, start:].T[:, None],
        traj.f_coi_pf[:, start:].T[:, None],
        traj.delta_coi[:, start:].T[:, None],
    )
    return scanner.events[0]
