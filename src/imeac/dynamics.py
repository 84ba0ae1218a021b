"""Swing-equation integration through fault-on and post-fault stages.

State per machine: rotor angle delta (synchronous frame, rad), speed
deviation omega (rad/s), and the running potential-energy integral
W_i = integral of -f_i-SYS^(PF) d delta_i-SYS.  W is integrated as an
augmented state inside the same fixed-step fourth-order Runge-Kutta
scheme as the motion, so the energy channels downstream inherit the
integrator's accuracy instead of a coarser trajectory quadrature
(sampled trapezoid sums drift by their Euler-Maclaurin boundary term
once a machine separates and spins fast; the augmented state does not).

The f^(PF) channel (forces evaluated on the post-fault network at the
current angles) is recorded during the fault-on stage as well: the
potential-energy integrand is post-fault by definition, whatever
network is driving the motion.

One RK4 kernel (``SwingKernel``) serves every path.  Its stage function
is written once for any leading shape, one state (3n,) or a batch of
rows (B, 3n), and reduces only over the machine axis, so a batch row is
bit-identical to the same state advanced alone.  Clearing-time sweeps
share work:

* the fault-on stage is the same for every clearing time, so
  ``FaultOnPrefix`` integrates it once, up to the largest clearing
  sample, and every probe starts post-fault from the prefix sample at
  its own clearing index;
* the post-fault system is autonomous, so rows at different local
  times can share a step: ``RowPool`` advances every probe in flight
  as one (B, 3n) state.  Rows join between blocks, each from its own
  prefix head, and leave when their horizon ends or their next state
  leaves the finite, |omega| <= OMEGA_DIVERGENCE region (truncated at
  their last good sample); the others go on.  A block is cut early
  when a row reaches its last sample, so no row steps past its horizon.
  A scan is the case where every row joins at step 0; a bisection
  joins midpoints ahead of its verdicts and drops the rows it prunes;
* each block's samples are a fresh array, consecutive blocks of a row
  overlapping by one sample, for a streaming consumer (the event
  scanner).  No row ever holds its whole trajectory, so a sweep's
  memory stays flat in the horizon and grows only by the block per
  row.  All bookkeeping happens at block boundaries; the step itself
  is the same for one row or many.

``simulate`` is the one-row case of the same path: the prefix up to its
clearing sample, then a pool of one row, every block copied into the
full record.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, NamedTuple, Sequence

import numpy as np

from .case import StabilityCase, coi_frame, machine_forces, network_products

OMEGA_DIVERGENCE = 1e4  # rad/s; far beyond any physical swing
GRID_TOL = 1e-12  # s; switching instants must land on the sample grid
BLOCK = 128  # samples per streamed block (plus the one-sample overlap)

# ufunc reductions called directly: the ndarray methods add a Python-level
# wrapper per call, a measurable share of a step on small cases
_all = np.logical_and.reduce
_any = np.logical_or.reduce
_max = np.maximum.reduce


@dataclass(frozen=True)
class SimulationConfig:
    """Fault staging and integration grid for one simulation."""

    t_clear: float
    t_end: float
    dt: float = 1e-3

    def __post_init__(self):
        if not 0 < self.dt < np.inf:
            raise ValueError(f"dt must be finite and > 0, got {self.dt}")
        if not 0 < self.t_clear < self.t_end:
            raise ValueError(
                f"need 0 < t_clear < t_end, got t_clear={self.t_clear}, t_end={self.t_end}"
            )
        for name, value in (("t_clear", self.t_clear), ("t_end", self.t_end)):
            steps = value / self.dt
            if not np.isfinite(steps):
                raise ValueError(f"{name}={value} is too large for dt={self.dt}")
            if abs(value - round(steps) * self.dt) > GRID_TOL:
                raise ValueError(
                    f"{name}={value} is not an integer multiple of dt={self.dt}"
                )

    @property
    def clear_index(self) -> int:
        return round(self.t_clear / self.dt)

    @property
    def n_steps(self) -> int:
        return round(self.t_end / self.dt)


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled states plus the COI-frame channels.

    All channel arrays are machines x samples.  f_coi is the relative
    accelerating force on the network active at each sample (fault-on
    before clear_index, post-fault from it onward); f_coi_pf is the
    same force always evaluated on the post-fault network.  pe_integral
    is the accumulated integral of -f_coi_pf d delta_coi from t = 0
    (baseline handling lives in the energy module).  A divergence guard
    truncates the record at the last finite sample.
    """

    times: np.ndarray
    delta: np.ndarray
    omega: np.ndarray
    delta_coi: np.ndarray
    omega_coi: np.ndarray
    f_coi: np.ndarray
    f_coi_pf: np.ndarray
    pe_integral: np.ndarray
    clear_index: int
    diverged: bool = False
    divergence_time: float | None = None

    def __post_init__(self):
        for name in (
            "times", "delta", "omega", "delta_coi", "omega_coi",
            "f_coi", "f_coi_pf", "pe_integral",
        ):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n_machines(self) -> int:
        return self.delta.shape[0]

    @property
    def n_samples(self) -> int:
        return self.times.shape[0]


class SwingKernel:
    """The staged swing equations of one case, with precomputed network products.

    States are (..., 3n): delta | omega | W.  Every method accepts one
    state or a batch of rows and reduces over the machine axis only.
    Forces come from ``case.machine_forces`` on ``case.network_products``,
    the one formula the SEP solve, the PE baseline and the grid use too.
    """

    def __init__(self, case: StabilityCase):
        m = case.m_vector()
        self.n = case.n
        self.m = m
        self.pm = case.pm_vector()
        self.d = case.d_vector()
        self.m_share = m / m.sum()
        self.post = network_products(case.net_postfault, case.e_vector())
        self.fault = network_products(case.net_faulton, case.e_vector())

    def stage(self, y: np.ndarray, fault_stage: bool):
        """Return (dy/dt, omega_coi, f_active, f_pf) at state y."""
        delta = y[..., : self.n]
        omega = y[..., self.n : 2 * self.n]
        acc_post, f_pf = machine_forces(self.post, self.pm, self.m_share, delta)
        if fault_stage:
            acc_act, f_act = machine_forces(self.fault, self.pm, self.m_share, delta)
        else:
            acc_act, f_act = acc_post, f_pf
        omega_coi = coi_frame(omega, self.m_share)
        dy = np.concatenate(
            (omega, (acc_act - self.d * omega) / self.m, -f_pf * omega_coi), axis=-1
        )
        return dy, omega_coi, f_act, f_pf

    def step(self, y: np.ndarray, k1: np.ndarray, fault_stage: bool, dt: float) -> np.ndarray:
        """One classical RK4 step from y, whose first stage k1 is already known."""
        k2 = self.stage(y + 0.5 * dt * k1, fault_stage)[0]
        k3 = self.stage(y + 0.5 * dt * k2, fault_stage)[0]
        k4 = self.stage(y + dt * k3, fault_stage)[0]
        return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    def healthy(self, y: np.ndarray, axis: int | None = -1):
        """Divergence guard: all finite and every |omega| within bounds.

        Per row by default; axis=None answers for the whole batch at once,
        the cheap test a step takes before it looks for the failing rows.
        """
        omega = y[..., self.n : 2 * self.n]
        return _all(np.isfinite(y), axis) & (_max(np.abs(omega), axis) <= OMEGA_DIVERGENCE)


class FaultOnPrefix:
    """The fault-on stage from the initial point, integrated once, extended on demand.

    ``samples[k]`` holds sample k evaluated on the fault-on network:
    state | omega_coi | f_coi | f_coi_pf.  The state one sample past the
    last row is known but not yet evaluated on either network.  When a
    step leaves the guard region, ``divergence_index`` is the sample it
    produced and the prefix ends at the row before it.
    """

    def __init__(self, kernel: SwingKernel, case: StabilityCase, dt: float):
        self.kernel = kernel
        self.dt = dt
        self.samples: list[np.ndarray] = []
        self.divergence_index: int | None = None
        self._head = np.concatenate([case.delta0, case.omega0, np.zeros(case.n)])

    def state(self, index: int) -> np.ndarray | None:
        """State at sample ``index``; None when the fault-on stage diverged first."""
        kern = self.kernel
        samples = self.samples
        while len(samples) < index and self.divergence_index is None:
            y = self._head
            k1, omega_coi, f_act, f_pf = kern.stage(y, True)
            samples.append(np.concatenate((y, omega_coi, f_act, f_pf)))
            self._head = kern.step(y, k1, True, self.dt)
            if not kern.healthy(self._head):
                self.divergence_index = len(samples)
        if index < len(samples):
            return samples[index][: 3 * kern.n]
        if index == len(samples) and self.divergence_index is None:
            return self._head
        return None


class Block(NamedTuple):
    """One block of pooled post-fault samples (see ``RowPool.advance``)."""

    samples: np.ndarray  # (L, R, 5n): state | omega_coi | f_coi_pf
    rows: np.ndarray  # (R,) ids of the rows in the block
    start: np.ndarray  # (R,) each row's sample number at samples[0]
    done: np.ndarray  # ids of the rows whose record ends with this block
    lost: np.ndarray  # the subset of done that failed the divergence guard


class RowPool:
    """Post-fault rows in flight, advanced together as one state array.

    The post-fault system is autonomous, so rows at different local times
    can share a step.  A row joins, between blocks, with its clearing
    state, that state's sample number and a step budget; ``advance``
    steps every row in flight at once and hands out the samples as one
    ``Block``.  A block ends after ``block`` steps, earlier when a row
    reaches its last sample (so no row steps past its horizon) or when a
    row's next state fails the divergence guard.  Either way that row's
    record ends with the block and it leaves the pool; the others go on
    and the next block starts with the last sample of this one.  The
    caller names each row with its own id when it joins, and may drop
    rows between blocks (``leave``).
    """

    def __init__(self, kernel: SwingKernel, dt: float, block: int = BLOCK):
        n = kernel.n
        self.kernel = kernel
        self.dt = dt
        self.block = block
        self.rows = np.empty(0, dtype=int)  # ids of the rows in flight
        self._start = np.empty(0, dtype=int)  # sample number of each row's last sample
        self._left = np.empty(0, dtype=int)  # steps still to take, per row
        self._last = np.empty((0, 5 * n))  # each row's last sample; the next block steps from it
        self._k1 = np.empty((0, 3 * n))

    @property
    def size(self) -> int:
        """Rows in flight."""
        return self.rows.size

    def _record(self, slot: np.ndarray, state: np.ndarray) -> np.ndarray:
        n = self.kernel.n
        k1, omega_coi, _, f_pf = self.kernel.stage(state, False)
        slot[:, : 3 * n] = state
        slot[:, 3 * n : 4 * n] = omega_coi
        slot[:, 4 * n :] = f_pf
        return k1

    def join(self, ids: Sequence[int], heads: np.ndarray, first: int, steps: int) -> None:
        """Add rows ``ids`` at their clearing states (3n,) or (k, 3n), sample number ``first``.

        Each row takes ``steps`` steps; the new rows step with the others
        from the next block on.
        """
        heads = np.atleast_2d(heads)
        k = heads.shape[0]
        last = np.empty((k, self._last.shape[1]))
        k1 = self._record(last, heads)
        self.rows = np.concatenate((self.rows, ids))
        self._start = np.concatenate((self._start, np.full(k, first)))
        self._left = np.concatenate((self._left, np.full(k, steps)))
        self._last = np.concatenate((self._last, last))
        self._k1 = np.concatenate((self._k1, k1))

    def leave(self, ids: Sequence[int]) -> None:
        """Drop rows ``ids`` from the pool between blocks; ids not in flight are ignored."""
        keep = ~_any(self.rows[:, None] == np.asarray(ids, dtype=int), axis=1)
        self.rows, self._start, self._left = self.rows[keep], self._start[keep], self._left[keep]
        self._last, self._k1 = self._last[keep], self._k1[keep]

    def advance(self) -> Block:
        """Step every row in flight through one block; rows that end leave the pool."""
        kernel, dt = self.kernel, self.dt
        y, k1 = self._last[:, : 3 * kernel.n], self._k1
        if self.rows.size == 1:
            # a lone row steps as a plain state: the same numbers, less
            # numpy overhead per call than a batch of one
            y, k1 = y[0], k1[0]
        length = min(self.block, int(self._left.min()))
        buf = np.empty((length + 1,) + self._last.shape)
        buf[0] = self._last
        healthy = None
        pos = 0
        while pos < length:
            y_next = kernel.step(y, k1, False, dt)
            if not kernel.healthy(y_next, None):
                # cut the block here; the survivors redo this step next block
                healthy = np.atleast_1d(kernel.healthy(y_next))
                break
            y = y_next
            pos += 1
            k1 = self._record(buf[pos], y)
        left = self._left - pos
        keep = left > 0 if healthy is None else healthy
        block = Block(
            samples=buf[: pos + 1],
            rows=self.rows,
            start=self._start,
            done=self.rows[~keep],
            lost=self.rows[:0] if healthy is None else self.rows[~healthy],
        )
        self.rows = self.rows[keep]
        self._start = (self._start + pos)[keep]
        self._left = left[keep]
        self._last, self._k1 = buf[pos][keep], np.atleast_2d(k1)[keep]
        return block


def simulate(case: StabilityCase, cfg: SimulationConfig) -> Trajectory:
    """Integrate the staged swing equations and record every channel.

    Stage 1 drives the motion with net_faulton on [0, t_clear], stage 2
    with net_postfault on [t_clear, t_end]; the switch lands exactly on
    a grid sample, so the state is continuous and never interpolated
    across the discontinuity.  Deterministic: identical inputs give
    bit-identical trajectories, equal to the same run inside a sweep.
    """
    n = case.n
    kernel = SwingKernel(case)
    prefix = FaultOnPrefix(kernel, case, cfg.dt)
    clear = cfg.clear_index
    head = prefix.state(clear)
    # columns: state | omega_coi | f_coi | f_coi_pf
    table = np.empty((cfg.n_steps + 1, 6 * n))
    end = min(clear, len(prefix.samples))
    table[:end] = prefix.samples[:end]
    divergence_index = prefix.divergence_index
    if head is not None:
        pool = RowPool(kernel, cfg.dt)
        pool.join([0], head, clear, cfg.n_steps - clear)
        while pool.size:
            block = pool.advance()
            samples = block.samples[:, 0]
            first = int(block.start[0])
            end = first + samples.shape[0]
            rows = table[first:end]
            rows[:, : 5 * n] = samples
            # after clearing the active network is the post-fault one
            rows[:, 5 * n :] = samples[:, 4 * n :]
            if block.lost.size:
                divergence_index = end
    table = table[:end]
    return Trajectory(
        times=np.arange(table.shape[0]) * cfg.dt,
        delta=table[:, :n].T,
        omega=table[:, n : 2 * n].T,
        delta_coi=coi_frame(table[:, :n], kernel.m_share).T,
        omega_coi=table[:, 3 * n : 4 * n].T,
        f_coi=table[:, 4 * n : 5 * n].T,
        f_coi_pf=table[:, 5 * n :].T,
        pe_integral=table[:, 2 * n : 3 * n].T,
        clear_index=clear,
        diverged=divergence_index is not None,
        divergence_time=None if divergence_index is None else divergence_index * cfg.dt,
    )


_CHANNEL_UNITS = {
    "delta": "rad",
    "omega": "radps",
    "delta_coi": "rad",
    "omega_coi": "radps",
    "f_coi": "pu",
    "ke": "pu",
    "pe": "pu",
}


def trajectory_header(n: int) -> str:
    cols = ["t_s"]
    for channel, unit in _CHANNEL_UNITS.items():
        cols.extend(f"{channel}_{i}_{unit}" for i in range(n))
    return "# " + "\t".join(cols)


def write_trajectory(stream: IO[str], traj: Trajectory, ke: np.ndarray, pe: np.ndarray) -> None:
    """Write the trajectory export: one header row, one row per sample.

    Angles stay in radians (the header names the units); ke/pe are the
    energy channels computed by the energy module.
    """
    n = traj.n_machines
    stream.write(trajectory_header(n) + "\n")
    blocks = [
        traj.times[None, :],
        traj.delta, traj.omega, traj.delta_coi, traj.omega_coi, traj.f_coi,
        ke, pe,
    ]
    table = np.vstack(blocks).T
    row_format = "\t".join(["%.10e"] * table.shape[1]) + "\n"
    for row in table:  # row by row: the whole table as Python floats is several MB
        stream.write(row_format % tuple(row.tolist()))
