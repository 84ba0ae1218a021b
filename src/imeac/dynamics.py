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
* the post-fault system is autonomous, so ``lockstep`` advances all
  probes together as one (B, 3n) state for the same number of steps.
  A row that leaves the finite, |omega| <= OMEGA_DIVERGENCE region is
  truncated at its last good sample and dropped; the others go on;
* samples leave ``lockstep`` in blocks of a reused buffer, consecutive
  blocks overlapping by one sample, for a streaming consumer (the event
  scanner).  No row ever holds its whole trajectory, so a sweep's memory
  stays flat in the horizon and grows only by the block per row.

``simulate`` is the one-row case of the same path: the prefix up to its
clearing sample, then ``lockstep`` on one state, every block copied into
the full record.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Iterator

import numpy as np

from .case import StabilityCase, coi_reference

OMEGA_DIVERGENCE = 1e4  # rad/s; far beyond any physical swing
GRID_TOL = 1e-12  # s; switching instants must land on the sample grid
BLOCK = 128  # samples per streamed block (plus the one-sample overlap)

# ufunc reductions called directly: the ndarray methods add a Python-level
# wrapper per call, a measurable share of a step on small cases
_sum = np.add.reduce
_all = np.logical_and.reduce
_max = np.maximum.reduce


@dataclass(frozen=True)
class SimulationConfig:
    """Fault staging and integration grid for one simulation."""

    t_clear: float
    t_end: float
    dt: float = 1e-3

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if not 0 < self.t_clear < self.t_end:
            raise ValueError(
                f"need 0 < t_clear < t_end, got t_clear={self.t_clear}, t_end={self.t_end}"
            )
        for name, value in (("t_clear", self.t_clear), ("t_end", self.t_end)):
            steps = round(value / self.dt)
            if abs(value - steps * self.dt) > GRID_TOL:
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
    """

    def __init__(self, case: StabilityCase):
        m = case.m_vector()
        ee = np.outer(case.e_vector(), case.e_vector())
        self.n = case.n
        self.m = m
        self.pm = case.pm_vector()
        self.d = case.d_vector()
        self.m_share = m / m.sum()
        self.post = (ee * case.net_postfault.g, ee * case.net_postfault.b)
        self.fault = (ee * case.net_faulton.g, ee * case.net_faulton.b)

    def coi(self, x: np.ndarray) -> np.ndarray:
        """COI-frame values x_i - x_SYS along the machine axis."""
        return x - _sum(x * self.m_share, -1, keepdims=True)

    def stage(self, y: np.ndarray, fault_stage: bool):
        """Return (dy/dt, omega_coi, f_active, f_pf) at state y."""
        n = self.n
        pm = self.pm
        m_share = self.m_share
        delta = y[..., :n]
        omega = y[..., n : 2 * n]
        diff = delta[..., :, None] - delta[..., None, :]
        cos_d = np.cos(diff)
        sin_d = np.sin(diff)
        eg, eb = self.post
        acc_post = pm - _sum(eg * cos_d + eb * sin_d, -1)
        f_pf = acc_post - _sum(acc_post, -1, keepdims=True) * m_share
        if fault_stage:
            eg, eb = self.fault
            acc_act = pm - _sum(eg * cos_d + eb * sin_d, -1)
            f_act = acc_act - _sum(acc_act, -1, keepdims=True) * m_share
        else:
            acc_act = acc_post
            f_act = f_pf
        # the COI speed as coi() computes it, inlined: this runs 4x a step
        omega_coi = omega - _sum(omega * m_share, -1, keepdims=True)
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


def lockstep(
    kernel: SwingKernel, y: np.ndarray, steps: int, dt: float
) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """Advance post-fault rows together and stream their samples in blocks.

    y is one state (3n,) or B rows (B, 3n), each at its own clearing
    sample; all advance ``steps`` RK4 steps on the post-fault network.
    Yields (start, samples, rows, lost): ``samples`` is (L, R, 5n) with
    state | omega_coi | f_coi_pf for samples start .. start + L - 1 of
    the R rows still running, ``rows`` their indices into y.  The next
    block starts with the last sample of this one.  ``lost`` lists rows
    whose next state failed the divergence guard: their record ends with
    this block and they are absent from every later one.  ``samples`` is
    a view of a buffer reused for the next block.
    """
    n = kernel.n
    rows = np.arange(1 if y.ndim == 1 else y.shape[0])
    buf = np.empty((BLOCK + 1, rows.size, 5 * n))
    none = rows[:0]

    def record(slot: np.ndarray, state: np.ndarray) -> np.ndarray:
        k1, omega_coi, _, f_pf = kernel.stage(state, False)
        slot[:, : 3 * n] = state
        slot[:, 3 * n : 4 * n] = omega_coi
        slot[:, 4 * n :] = f_pf
        return k1

    live = rows.size
    start = pos = 0
    k1 = record(buf[0, :live], y)
    for _ in range(steps):
        y_next = kernel.step(y, k1, False, dt)
        if not kernel.healthy(y_next, None):
            ok = np.atleast_1d(kernel.healthy(y_next))
            yield start, buf[: pos + 1, :live], rows, rows[~ok]
            if not ok.any():
                return
            buf[0, : ok.sum()] = buf[pos, :live][ok]
            rows, y_next = rows[ok], y_next[ok]
            live = rows.size
            start += pos
            pos = 0
        y = y_next
        pos += 1
        k1 = record(buf[pos, :live], y)
        if pos == BLOCK:
            yield start, buf[:, :live], rows, none
            buf[0, :live] = buf[BLOCK, :live]
            start += BLOCK
            pos = 0
    if pos:
        yield start, buf[: pos + 1, :live], rows, none


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
        for start, samples, _, lost in lockstep(kernel, head, cfg.n_steps - clear, cfg.dt):
            block = samples[:, 0]
            end = clear + start + block.shape[0]
            rows = table[clear + start : end]
            rows[:, : 5 * n] = block
            # after clearing the active network is the post-fault one
            rows[:, 5 * n :] = block[:, 4 * n :]
            if lost.size:
                divergence_index = end
    table = table[:end]
    return Trajectory(
        times=np.arange(table.shape[0]) * cfg.dt,
        delta=table[:, :n].T,
        omega=table[:, n : 2 * n].T,
        delta_coi=kernel.coi(table[:, :n]).T,
        omega_coi=table[:, 3 * n : 4 * n].T,
        f_coi=table[:, 4 * n : 5 * n].T,
        f_coi_pf=table[:, 5 * n :].T,
        pe_integral=table[:, 2 * n : 3 * n].T,
        clear_index=clear,
        diverged=divergence_index is not None,
        divergence_time=None if divergence_index is None else divergence_index * cfg.dt,
    )


def machine_sys_state(
    case: StabilityCase, traj: Trajectory, sample: int
) -> tuple[float, float, float]:
    """Machine-SYS aggregates (delta_SYS, omega_SYS, P_SYS) at one sample.

    P_SYS is recomputed from the stage network active at that sample.
    """
    from .case import electrical_power

    m = case.m_vector()
    delta = traj.delta[:, sample]
    omega = traj.omega[:, sample]
    net = case.net_faulton if sample < traj.clear_index else case.net_postfault
    pe = electrical_power(net, case.machines, delta)
    p_sys = float(np.sum(case.pm_vector() - pe))
    return (
        float(coi_reference(m, delta)),
        float(coi_reference(m, omega)),
        p_sys,
    )


TRAJECTORY_CHANNELS = ("delta", "omega", "delta_coi", "omega_coi", "f_coi", "ke", "pe")
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
    for channel in TRAJECTORY_CHANNELS:
        cols.extend(f"{channel}_{i}_{_CHANNEL_UNITS[channel]}" for i in range(n))
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
    for row in table:
        stream.write("\t".join(f"{v:.10e}" for v in row) + "\n")
