"""Swing-equation integration through fault-on and post-fault stages.

State per machine: rotor angle delta (synchronous frame, rad), speed
deviation omega (rad/s), and the running potential-energy integral
W_i = integral of -f_i-SYS^(PF) d delta_i-SYS.  The RK4 step integrates
delta | omega; W is formed per block from the stage values the steps
produced, with the RK4 weights at the same stage points, so it is the
augmented-state integral bit for bit and inherits the integrator's
accuracy (sampled trapezoid sums drift by their Euler-Maclaurin
boundary term once a machine separates and spins fast).  The f^(PF)
channel (forces on the post-fault network at the current angles) is
recorded during the fault-on stage as well: the potential-energy
integrand is post-fault by definition, whatever network drives the
motion.

One RK4 kernel (``SwingKernel``) and one block loop (``RowPool.advance``)
serve both stages and every path.  The stage function is written once
for any leading shape, one state (2n,) or a batch of rows (B, 2n), and
reduces only over the machine axis, so a batch row is bit-identical to
the same state advanced alone, also with constants in the batch's shape
(``for_rows``), which numpy runs faster; so does the W pass.  The guard
checks each step's motion and each block's W.  Blocks hold the 6n
columns of a ``Trajectory`` record.  Clearing-time sweeps share work:

* the fault-on stage is the same for every clearing time, so
  ``FaultOnPrefix``, a one-row fault-on pool, integrates it once, up to
  the largest clearing sample, and every probe starts post-fault from
  the prefix sample at its own clearing index;
* the post-fault system is autonomous, so rows at different local
  times can share a step: a post-fault pool advances every probe in
  flight as one (B, 2n) state, rows joining from their prefix heads and
  leaving between blocks (``RowPool``).  A scan is the case where every
  row joins at step 0; a bisection joins midpoints ahead of its
  verdicts and drops the rows it prunes;
* each block's samples are a fresh array, consecutive blocks of a row
  overlapping by one sample, for a streaming consumer (the event
  scanner).  No row ever holds its whole trajectory, so a sweep's
  memory stays flat in the horizon and grows only by the block per
  row.  All bookkeeping happens at block boundaries; the step itself
  is the same for one row or many.

``run_family``, the one prefix-to-pool loop, serves ``simulate`` and the
surface's trajectory families alike: ``simulate`` is the one-member
family, its sink copying every block into the full record.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import IO, NamedTuple, Sequence

import numpy as np

from .case import StabilityCase, coi_frame, coi_share, mismatch, network_products

OMEGA_DIVERGENCE = 1e4  # rad/s; far beyond any physical swing
GRID_TOL = 1e-12  # s; switching instants must land on the sample grid
BLOCK = 32  # samples per streamed block (plus the one-sample overlap)
MAX_STEPS = 1_000_000  # steps one run may take: 10 s at dt = 1e-5 s, 1000 s at the default 1 ms

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
        if not 0 < self.clear_index < self.n_steps:
            raise ValueError(
                f"need a step of dt={self.dt} before t_clear and one after it, "
                f"got t_clear={self.t_clear}, t_end={self.t_end}"
            )
        if self.n_steps > MAX_STEPS:
            raise ValueError(
                f"t_end={self.t_end} takes {self.n_steps} steps of dt={self.dt}; "
                f"the limit is {MAX_STEPS}"
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

    The step integrates the motion delta | omega (..., 2n), one state or a
    batch of rows, reducing over the machine axis only.  A stage computes
    P_m - P_e once (``case.mismatch``): a fault-on stage stacks both
    networks' products; with no machine damped, ``d`` is None and there is
    no damping term.  ``channels`` makes W per block from the stages (same
    RK4 weights and bits) and the COI channels; a non-finite W fails the guard.
    """

    def __init__(self, case: StabilityCase):
        m = case.m_vector()
        self.n = case.n
        self.m = m
        self.pm = case.pm_vector()
        self.d = case.d_vector() if any(mach.d for mach in case.machines) else None
        self.m_share = m / m.sum()
        self.post = network_products(case.net_postfault, case.e_vector())
        fault = network_products(case.net_faulton, case.e_vector())
        self.both = tuple(np.stack(pair) for pair in zip(self.post, fault))

    def for_rows(self, rows: int) -> SwingKernel:
        """This kernel for ``rows`` post-fault states: from 2 on, (rows, ...) stage constants.

        The stacked fault-on products keep their shape: a fault-on pool is one row.
        """
        if rows < 2:
            return self
        shaped = copy.copy(self)
        for name in ("m", "pm") + (() if self.d is None else ("d",)):
            setattr(shaped, name, np.repeat(getattr(self, name)[None], rows, axis=0))
        shaped.post = tuple(np.repeat(p[None], rows, axis=0) for p in self.post)
        return shaped

    def stage(self, y: np.ndarray, fault_stage: bool):
        """(dy/dt, acc) at y: acc = P_m - P_e, undamped; fault-on (..., 2, n): post | fault."""
        delta, omega = y[..., : self.n], y[..., self.n :]
        if fault_stage:
            acc = mismatch(self.both, self.pm, delta[..., None, :])
            act = acc[..., 1, :]
        else:
            acc = act = mismatch(self.post, self.pm, delta)
        act = act if self.d is None else act - self.d * omega  # act - 0 * omega is act
        return np.concatenate((omega, act / self.m), axis=-1), acc

    def step(self, y: np.ndarray, k1: np.ndarray, fault_stage: bool, dt: float):
        """One classical RK4 step from y, whose first stage's k1 is known; also its later stages."""
        s2 = self.stage(y + 0.5 * dt * k1, fault_stage)
        s3 = self.stage(y + 0.5 * dt * s2[0], fault_stage)
        s4 = self.stage(y + dt * s3[0], fault_stage)
        return y + (dt / 6.0) * (k1 + 2.0 * s2[0] + 2.0 * s3[0] + s4[0]), [s2, s3, s4]

    def channels(self, stages: list, w0: np.ndarray, dt: float, cut: int | None = None):
        """W, omega_coi and coi_share(acc) of a run of steps, from its stages' (dy/dt, acc).

        ``stages``: four per step in evaluation order, maybe then the first
        stage at the sample reached.  W_k+1 = W_k + inc_k from w0, with the
        RK4 weights: the augmented-state integral bit for bit.  Also returns
        the first step whose W is not finite, or None: the run is then redone
        up to it (``cut``), raising only that step's floating-point warnings.
        """
        ks, accs = zip(*stages)
        with np.errstate(all="ignore" if cut is None else None):
            k = np.concatenate(ks).reshape((len(ks),) + ks[0].shape)
            f = coi_share(np.concatenate(accs).reshape((len(accs),) + accs[0].shape), self.m_share)
            omega_coi = coi_frame(k[..., : self.n], self.m_share)
            g = -(f if f.ndim == k.ndim else f[..., 0, :]) * omega_coi
            end = len(ks) // 4 * 4
            inc = (dt / 6.0) * (g[0:end:4] + 2.0 * g[1:end:4] + 2.0 * g[2:end:4] + g[3:end:4])
            inc[0] += w0
            w = np.add.accumulate(inc)
        finite = np.isfinite(w)
        if cut is None and not _all(finite, None):
            cut = int(np.flatnonzero(~_all(finite.reshape(len(w), -1), 1))[0])
            return self.channels(stages[: 4 * cut + 4], w0, dt, cut)
        return w, omega_coi[::4], f[::4], cut

    def healthy(self, y: np.ndarray, axis: int | None = -1):
        """Divergence guard on the motion: all finite and every |omega| within bounds.

        Per row by default; axis=None answers for the whole batch at once,
        the cheap test a step takes before it looks for the failing rows.
        """
        omega = y[..., self.n : 2 * self.n]
        return _all(np.isfinite(y), axis) & (_max(np.abs(omega), axis) <= OMEGA_DIVERGENCE)


class FaultOnPrefix:
    """The fault-on stage from the initial point, integrated once, extended on demand.

    Each extension is one join of a one-row fault-on ``RowPool``, whose
    block rows are kept as they come: ``samples[k]`` is sample k (6n).
    The state one sample past the last row is known.  When a step leaves
    the guard region, ``divergence_index`` is the sample it produced and
    the prefix ends at the row before it.
    """

    def __init__(self, kernel: SwingKernel, case: StabilityCase, dt: float):
        self.pool = RowPool(kernel, dt, fault=True)
        self.samples: list[np.ndarray] = []
        self.divergence_index: int | None = None
        self._head = np.concatenate([case.delta0, case.omega0, np.zeros(case.n)])

    def state(self, index: int) -> np.ndarray | None:
        """State at sample ``index``; None when the fault-on stage diverged first."""
        samples, pool = self.samples, self.pool
        if len(samples) < index and self.divergence_index is None:
            pool.join([0], self._head, len(samples), index - len(samples))
            while pool.size:
                block = pool.advance()
                rows = block.samples[:, 0]
                if block.lost.size:  # every sample of a lost row is good
                    samples.extend(rows)
                    self.divergence_index = len(samples)
                else:  # the last sample starts the next block
                    samples.extend(rows[:-1])
                    self._head = rows[-1, : self._head.size]
        if index < len(samples):
            return samples[index][: self._head.size]
        if index == len(samples) and self.divergence_index is None:
            return self._head
        return None


class Block(NamedTuple):
    """One block of pooled samples (see ``RowPool.advance``)."""

    samples: np.ndarray  # (L, R, 6n): delta | omega | W | omega_coi | f_coi | f_coi_pf
    rows: np.ndarray  # (R,) ids of the rows in the block
    start: np.ndarray  # (R,) each row's sample number at samples[0]
    done: np.ndarray  # ids of the rows whose record ends with this block
    lost: np.ndarray  # the subset of done that failed the divergence guard


class RowPool:
    """Rows in flight, advanced together as one state array: the one block loop.

    The post-fault system is autonomous, so rows at different local times
    can share a step.  A row joins, between blocks, with its clearing
    state, that state's sample number and a step budget; ``advance``
    steps every row in flight at once and hands out the samples as one
    ``Block`` in ``Trajectory``'s column order (after clearing f_coi is
    f_coi_pf).  A block ends after ``block`` steps, earlier when a row
    reaches its last sample (so no row steps past its horizon) or when a
    row's next state fails the divergence guard.  Either way that row's
    record ends with the block and it leaves the pool; the others go on
    and the next block starts with the last sample of this one.  The
    caller names each row with its own id when it joins, and may drop
    rows between blocks (``leave``).  ``fault`` drives the motion with
    the fault-on network: ``FaultOnPrefix``'s pool, one row at a time.
    """

    def __init__(self, kernel: SwingKernel, dt: float, block: int = BLOCK, fault: bool = False):
        self.kernel = kernel
        self.dt = dt
        self.block = block
        self.fault = fault
        self.rows = np.empty(0, dtype=int)  # ids of the rows in flight
        self._start = np.empty(0, dtype=int)  # sample number of each row's last state
        self._left = np.empty(0, dtype=int)  # steps still to take, per row
        self._last = np.empty((0, 3 * kernel.n))  # the state each row's next block starts from

    @property
    def size(self) -> int:
        """Rows in flight."""
        return self.rows.size

    def join(self, ids: Sequence[int], heads: np.ndarray, first: int, steps: int) -> None:
        """Add rows ``ids`` at their clearing states (3n,) or (k, 3n), sample number ``first``.

        Each row takes ``steps`` steps; the new rows step with the others
        from the next block on.
        """
        heads = np.atleast_2d(heads)
        k = heads.shape[0]
        self.rows = np.concatenate((self.rows, ids))
        self._start = np.concatenate((self._start, np.full(k, first)))
        self._left = np.concatenate((self._left, np.full(k, steps)))
        self._last = np.concatenate((self._last, heads))

    def leave(self, ids: Sequence[int]) -> None:
        """Drop rows ``ids`` from the pool between blocks; ids not in flight are ignored."""
        keep = ~_any(self.rows[:, None] == np.asarray(ids, dtype=int), axis=1)
        self.rows, self._start, self._left = self.rows[keep], self._start[keep], self._left[keep]
        self._last = self._last[keep]

    def advance(self) -> Block:
        """Step every row in flight through one block; rows that end leave the pool."""
        kernel, dt, n = self.kernel.for_rows(self.rows.size), self.dt, self.kernel.n
        length = min(self.block, int(self._left.min()))
        buf = np.empty((length + 1, self.rows.size, 6 * n))
        buf[0, :, : 3 * n] = self._last
        # a lone row steps as a plain state: less numpy overhead per call
        rec = buf[:, 0] if self.rows.size == 1 else buf
        y = rec[0, ..., : 2 * n]
        stages = [kernel.stage(y, self.fault)]
        healthy, pos = None, 0
        while pos < length:
            y, later = kernel.step(y, stages[-1][0], self.fault, dt)
            stages += later
            if not kernel.healthy(y, None):
                # cut the block here; the survivors redo this step next block
                healthy = np.atleast_1d(kernel.healthy(y))
                break
            pos += 1
            rec[pos, ..., : 2 * n] = y
            stages.append(kernel.stage(y, self.fault))
        w, omega_coi, f, cut = kernel.channels(stages, rec[0, ..., 2 * n : 3 * n], dt)
        if cut is not None:
            finite = _all(np.isfinite(w[cut].reshape(-1, n)), -1)
            healthy = finite if cut < pos else finite & healthy
            pos = cut
        rec[1 : pos + 1, ..., 2 * n : 3 * n] = w[:pos]
        active, post = (f[..., 1, :], f[..., 0, :]) if self.fault else (f, f)
        rec[: pos + 1, ..., 3 * n :] = np.concatenate((omega_coi, active, post), -1)[: pos + 1]
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
        self._last = buf[pos, :, : 3 * n][keep]
        return block


def run_family(case: StabilityCase, family: Sequence[SimulationConfig], sink) -> dict[int, float]:
    """Run a family of staged simulations; returns {member: divergence time} of those that diverged.

    Members with one dt share a fault-on prefix and a row pool, each joining
    at its own clearing sample with its own step budget.  ``sink(j, first,
    rows)`` gets member j's samples (L, 6n; ``Trajectory``'s columns) from
    sample ``first`` on: the prefix up to clearing, then its rows of each
    block (the first repeats the block before's last), up to a divergence.
    """
    kernel, diverged = SwingKernel(case), {}
    for dt in dict.fromkeys(cfg.dt for cfg in family):
        prefix, pool = FaultOnPrefix(kernel, case, dt), RowPool(kernel, dt)
        for j, cfg in enumerate(family):
            if cfg.dt == dt:
                head = prefix.state(cfg.clear_index)
                sink(j, 0, np.array(prefix.samples[: cfg.clear_index]))
                if head is None:
                    diverged[j] = prefix.divergence_index * dt
                else:
                    pool.join([j], head, cfg.clear_index, cfg.n_steps - cfg.clear_index)
        while pool.size:
            block = pool.advance()
            for r, (j, first) in enumerate(zip(block.rows.tolist(), block.start.tolist())):
                sink(j, first, block.samples[:, r])
                if j in block.lost:
                    diverged[j] = (first + len(block.samples)) * dt
    return diverged


def simulate(case: StabilityCase, cfg: SimulationConfig) -> Trajectory:
    """Integrate the staged swing equations and record every channel.

    Stage 1 drives the motion with net_faulton on [0, t_clear], stage 2
    with net_postfault on [t_clear, t_end]; the switch lands exactly on
    a grid sample, so the state is continuous and never interpolated
    across the discontinuity.  Deterministic: identical inputs give
    bit-identical trajectories, equal to the same run inside a sweep.
    """
    n, end = case.n, 0
    table = np.empty((cfg.n_steps + 1, 6 * n))  # state | omega_coi | f_coi | f_coi_pf

    def copy_rows(_, first: int, rows: np.ndarray) -> None:
        nonlocal end
        end = first + len(rows)
        table[first:end] = rows

    divergence_time = run_family(case, [cfg], copy_rows).get(0)
    table, m = table[:end], case.m_vector()
    return Trajectory(
        times=np.arange(end) * cfg.dt,
        delta=table[:, :n].T,
        omega=table[:, n : 2 * n].T,
        delta_coi=coi_frame(table[:, :n], m / m.sum()).T,
        omega_coi=table[:, 3 * n : 4 * n].T,
        f_coi=table[:, 4 * n : 5 * n].T,
        f_coi_pf=table[:, 5 * n :].T,
        pe_integral=table[:, 2 * n : 3 * n].T,
        clear_index=cfg.clear_index,
        diverged=divergence_time is not None,
        divergence_time=divergence_time,
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
