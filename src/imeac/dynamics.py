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
serve both stages and every path.  A block steps in one ``Workspace``,
machine-major with rows innermost: a stage runs ``case.force_kernel`` at
its point of one stage-point array, writing P_m - P_e beside delta |
omega for the W pass and the RK4 sums (1/M rides in their constants); it
sums over machines only, so a batch row is bit-identical to the state.
One guard per block checks the motion and W together and cuts both at
one step; a block that raised floating-point errors is replayed once,
steps and W pass, up to the cut with warnings on, as a step-by-step loop
raised them.  Blocks hold the 6n columns of a ``Trajectory`` record.
Clearing-time sweeps share work: the fault-on stage is the same for
every clearing time, so ``FaultOnPrefix`` integrates it once, and the
post-fault system is autonomous, so rows at different local times share
a step in one ``RowPool``, joining at their clearing samples and leaving
between blocks.  Each block's samples are a fresh array for a streaming
consumer (the event scanner): no row ever holds its whole trajectory, so
a sweep's memory stays flat in the horizon.  ``run_family``, the one
prefix-to-pool loop, serves ``simulate`` (the one-member family, its
sink copying every block into the full record) and the surface's
trajectory families alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, NamedTuple, Sequence

import numpy as np

from .case import StabilityCase, coi_frame, coi_share, force_kernel, freeze_arrays, network_products

OMEGA_DIVERGENCE = 1e4  # rad/s; far beyond any physical swing
GRID_TOL = 1e-12  # s; switching instants land on the sample grid to this plus 4 ulps (off_grid)
BLOCK = 32  # samples per streamed block (plus the one-sample overlap)
MAX_STEPS = 1_000_000  # steps one run may take: 10 s at dt = 1e-5 s, 1000 s at the default 1 ms

# ufunc reductions called directly: the ndarray methods add a Python-level
# wrapper per call, a measurable share of a step on small cases
_all = np.logical_and.reduce
_max = np.maximum.reduce


def off_grid(value: float, k: int, unit: float) -> bool:
    """Whether value misses k * unit by more than GRID_TOL plus 4 ulps of value."""
    return abs(value - k * unit) > GRID_TOL + 4 * math.ulp(value)


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
            raise ValueError(f"need 0 < t_clear < t_end, "
                             f"got t_clear={self.t_clear}, t_end={self.t_end}")
        for name, value in (("t_clear", self.t_clear), ("t_end", self.t_end)):
            steps = value / self.dt
            if not np.isfinite(steps):
                raise ValueError(f"{name}={value} is too large for dt={self.dt}")
            if off_grid(value, round(steps), self.dt):
                raise ValueError(f"{name}={value} is not an integer multiple of dt={self.dt}")
        if not 0 < self.clear_index < self.n_steps:
            raise ValueError(
                f"need a step of dt={self.dt} before t_clear and one after it, "
                f"got t_clear={self.t_clear}, t_end={self.t_end}"
            )
        if self.n_steps > MAX_STEPS:
            raise ValueError(
                f"t_end={self.t_end} takes {self.n_steps:.7g} steps of dt={self.dt}; "
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
        freeze_arrays(self, "times", "delta", "omega", "delta_coi", "omega_coi", "f_coi",
                      "f_coi_pf", "pe_integral")

    @property
    def n_machines(self) -> int:
        return self.delta.shape[0]

    @property
    def n_samples(self) -> int:
        return self.times.shape[0]


class SwingKernel:
    """The staged swing equations of one case: its constants and network products."""

    def __init__(self, case: StabilityCase):
        m, self.n, self.pm = case.m_vector(), case.n, case.pm_vector()
        self.m, self.m_share = m, m / m.sum()
        # None when no machine is damped: the stage then has no damping term
        self.d = case.d_vector() if any(mach.d for mach in case.machines) else None
        self.post = network_products(case.net_postfault, case.e_vector())
        self.faulton = network_products(case.net_faulton, case.e_vector())


class Workspace:
    """The RK4 workspace of ``length`` steps of ``rows`` rows: () for a lone row's state, or (B,).

    Machine-major, rows innermost: one stage-point array z (4L+1, c, n,
    *rows) holds delta | omega | rate | acc at every RK4 stage point:
    stage s reads z[s, :2], k[s] is z[s, 1:3], y[s] is z[4s, :2], acc is
    P_m - P_e (post-fault, or fault-on fault | post) and the rate acc on
    the active network minus D * omega, acc itself when undamped.  The
    RK4 constants carry c / M for the rate (finite where 1/M is not).  A
    stage is ``case.force_kernel`` writing acc, then the damping: 29
    calls a step (37 damped), each one loop with a positional out.
    """

    def __init__(self, kernel: SwingKernel, length: int, rows: tuple, fault: bool, dt: float):
        n, column = kernel.n, (kernel.n,) + (1,) * len(rows)  # a machine vector along the rows
        nets = (kernel.faulton, kernel.post) if fault else (kernel.post,)
        first = 2 if kernel.d is None else 3  # acc's first channel: undamped, the rate is acc
        self.shape, self.weights = (length, rows), (dt / 6.0) * np.array([1.0, 2.0, 2.0, 1.0])
        z = np.empty((4 * length + 1, first + len(nets), n) + rows)
        self.y, self.k, self.acc = z[::4, :2], z[:, 1:3], z[:, first:]
        self.share = np.full(self.acc.shape, kernel.m_share.reshape(column))  # also as share[:, 0]
        stage = forces = force_kernel(nets, kernel.pm, z[:, 0], fill=True)
        add, subtract, multiply, reduce = np.add, np.subtract, np.multiply, np.add.reduce
        accs = list(self.acc if fault else z[:, first])
        if kernel.d is not None:
            d = np.full((n,) + rows, kernel.d.reshape(column))
            omegas, rates, acts = list(z[:, 1]), list(z[:, 2]), list(z[:, first])

            def stage(i: int, out) -> None:  # acc, then the rate acc - d * omega
                forces(i, out)
                subtract(acts[i], multiply(d, omegas[i], rates[i]), rates[i])

        c = np.array([0.5 * dt, dt, *self.weights]).reshape((6,) + (1,) * len(column))
        c = np.stack([np.broadcast_to(x, (6, n) + rows) for x in (c, c / kernel.m.reshape(column))], 1)
        half, full, final = c[0], c[1], c[2:]  # c | c / M: the stage points', the RK4 sum's
        xs, ks, tmp, tmp4 = list(z[:, :2]), list(self.k), np.empty(half.shape), np.empty(final.shape)
        quads = [z[i : i + 4, 1:3] for i in range(0, 4 * length, 4)]  # each step's four k

        def steps(count: int, last: bool = True) -> None:
            """RK4 steps from y[0], four stages each, then with ``last`` the stage at y[count]."""
            for s in range(count):
                y0, i = xs[4 * s], 4 * s
                stage(i, accs[i])
                for j, h in ((i, half), (i + 1, half), (i + 2, full)):
                    add(y0, multiply(h, ks[j], tmp), xs[j + 1])
                    stage(j + 1, accs[j + 1])
                # y + (((w1 k1 + w2 k2) + w3 k3) + w4 k4): one multiply, one reduce, one add
                add(y0, reduce(multiply(final, quads[s], tmp4), 0, None, tmp), xs[i + 4])
            if last:
                stage(4 * count, accs[4 * count])

        self.steps = steps  # a closure: its loop reads locals only

    def channels(self, used: int, w0: np.ndarray):
        """W, omega_coi and coi_share(acc) from the first ``used`` stages (4 a step, maybe 1 more).

        W_k+1 = W_k + inc_k from w0 (n, *rows), with the motion's RK4 sum:
        the augmented-state integral bit for bit.  W at step k reads the
        stages up to that step only, so ``RowPool.advance`` checks it with
        the motion, in one guard, and cuts both at one step.
        """
        k, acc, (w1, w2, w3, w4) = self.k[:used], self.acc[:used], self.weights
        f = coi_share(acc, self.share[:used], 2)
        omega_coi = coi_frame(k[:, 0], self.share[:used, 0], 1)
        g = -f[:, -1] * omega_coi
        end = used // 4 * 4
        inc = w1 * g[0:end:4] + w2 * g[1:end:4] + w3 * g[2:end:4] + w4 * g[3:end:4]
        inc[0] += w0
        return np.add.accumulate(inc), omega_coi[::4], f[::4]


class FaultOnPrefix:
    """The fault-on stage from the initial point, integrated once, extended on demand.

    Each extension is one join of a one-row fault-on ``RowPool``, whose
    block rows are kept as they come: ``samples[k]`` is sample k (6n).
    The state one sample past the last row is known.  When a step fails
    the pool's guard, the prefix ends at the row before it, and the pool
    holds its end: ``pool.ended.get(0)`` is None while the prefix is
    intact, then the time of the sample that failed.
    """

    def __init__(self, kernel: SwingKernel, case: StabilityCase, dt: float):
        self.pool = RowPool(kernel, dt, fault=True)
        self.samples: list[np.ndarray] = []
        self._head = np.concatenate([case.delta0, case.omega0, np.zeros(case.n)])

    def state(self, index: int) -> np.ndarray | None:
        """State at sample ``index``; None when the fault-on stage diverged first."""
        samples, pool = self.samples, self.pool
        if len(samples) < index and pool.ended.get(0) is None:
            pool.join([0], self._head, len(samples), index - len(samples))
            while pool.size:
                rows = pool.advance().samples[:, 0]
                if pool.ended.get(0) is None:  # the last sample starts the next block
                    samples.extend(rows[:-1])
                    self._head = rows[-1, : self._head.size]
                else:  # lost: every sample of its record is good
                    samples.extend(rows)
        if index < len(samples):
            return samples[index][: self._head.size]
        if index == len(samples) and pool.ended.get(0) is None:
            return self._head
        return None

    def join(self, pool: RowPool, j: int, cfg: SimulationConfig) -> np.ndarray | None:
        """Join run j to the post-fault ``pool`` at its clearing sample; returns that state.

        None when the fault-on stage diverged first: run j has then ended (``pool.ended``).
        """
        head = self.state(cfg.clear_index)
        if head is None:
            pool.ended[j] = self.pool.ended[0]
        else:
            pool.join([j], head, cfg.clear_index, cfg.n_steps - cfg.clear_index)
        return head


class Block(NamedTuple):
    """One block of pooled samples (see ``RowPool.advance``)."""

    samples: np.ndarray  # (L, R, 6n): delta | omega | W | omega_coi | f_coi | f_coi_pf
    rows: np.ndarray  # (R,) ids of the rows in the block
    start: np.ndarray  # (R,) each row's sample number at samples[0]


class RowPool:
    """Rows in flight, advanced together as one state array: the one block loop.

    A row joins, between blocks, with its clearing state, that state's
    sample number and a step budget; ``advance`` steps every row in flight
    at once in one ``Workspace`` and hands out the samples as one ``Block``
    in ``Trajectory``'s column order (after clearing f_coi is f_coi_pf).  A
    block ends after ``block`` steps, earlier when a row reaches its last
    sample or its next state fails the divergence guard, one check of the
    motion and W: that row's record ends with the block (``ended`` says
    how) and it leaves the pool; the next block starts with the last
    sample of this one.  A block that raised floating-point errors is
    replayed once up to that end, warning as a step-by-step loop.  The
    caller names each row with its own id when it joins, and may drop
    rows between blocks (``leave``).  ``fault`` drives the motion with
    the fault-on network: ``FaultOnPrefix``'s pool, one row at a time.
    """

    def __init__(self, kernel: SwingKernel, dt: float, block: int = BLOCK, fault: bool = False):
        self.kernel, self.dt, self.block, self.fault = kernel, dt, block, fault
        self.rows = np.empty(0, dtype=int)  # ids of the rows in flight
        self._start = np.empty(0, dtype=int)  # sample number of each row's last state
        self._left = np.empty(0, dtype=int)  # steps still to take, per row
        self._last = np.empty((0, 3 * kernel.n))  # the state each row's next block starts from
        self.ended: dict[int, float | None] = {}  # id -> None, or if lost its divergence time
        self._space: Workspace | None = None  # the last block's, reused while its shape repeats

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
        keep = ~np.isin(self.rows, np.asarray(ids, dtype=int))
        self.rows, self._start, self._left = self.rows[keep], self._start[keep], self._left[keep]
        self._last = self._last[keep]

    def advance(self) -> Block:
        """Step every row in flight through one block; rows that end leave the pool."""
        length = min(self.block, int(self._left.min()))
        rows = () if self.rows.size == 1 else (self.rows.size,)  # a lone row: a plain state
        if self._space is None or self._space.shape != (length, rows):
            self._space = None  # the old shape's arrays go before the new ones come
            self._space = Workspace(self.kernel, length, rows, self.fault, self.dt)
        space, n, y = self._space, self.kernel.n, self._space.y
        buf = np.empty((length + 1, self.rows.size, 6 * n))
        buf[0, :, : 3 * n] = self._last
        # the record machine-major, (L+1, 6, n, *rows): delta | omega | W | omega_coi | f | f_pf
        rec = buf[:, 0] if rows == () else buf
        cols = np.moveaxis(rec.reshape(rec.shape[:-1] + (6, n)), (-2, -1), (1, 2))
        y[0], w0 = cols[0, :2], cols[0, 2]
        raised = []  # floating-point errors, noted; the guard decides where the block ends
        with np.errstate(all="call", call=lambda *_: raised.append(True)):
            space.steps(length)
            w, omega_coi, f = space.channels(4 * length + 1, w0)
        # the guard, per step and row: finite motion with |omega| <= 1e4, and finite W
        good = _all(np.isfinite(y[1:]), (1, 2)) & (_max(np.abs(y[1:, 1]), 1) <= OMEGA_DIVERGENCE)
        good &= _all(np.isfinite(w), 1)
        failed = np.flatnonzero(~_all(good.reshape(length, -1), 1))[:1].tolist()
        # cut the block at the first step a row fails; the survivors redo it next block
        pos, healthy = (failed[0], np.atleast_1d(good[failed[0]])) if failed else (length, None)
        if raised:  # again up to the cut, warning as a step-by-step loop
            stepped = pos if healthy is None else pos + 1
            space.steps(stepped, last=healthy is None)
            space.channels(4 * stepped + (healthy is None), w0)
        cols[1 : pos + 1, :2], cols[1 : pos + 1, 2] = y[1 : pos + 1], w[:pos]
        cols[: pos + 1, 3] = omega_coi[: pos + 1]
        cols[: pos + 1, 4:] = f[: pos + 1]  # active | post, or post twice
        left = self._left - pos
        keep = left > 0 if healthy is None else healthy
        for j, start in zip(self.rows[~keep].tolist(), self._start[~keep].tolist()):
            self.ended[j] = None if healthy is None else (start + pos + 1) * self.dt
        block = Block(samples=buf[: pos + 1], rows=self.rows, start=self._start)
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
                prefix.join(pool, j, cfg)
                sink(j, 0, np.array(prefix.samples[: cfg.clear_index]))
        while pool.size:
            block = pool.advance()
            for r, (j, first) in enumerate(zip(block.rows.tolist(), block.start.tolist())):
                sink(j, first, block.samples[:, r])
        diverged.update((j, t) for j, t in pool.ended.items() if t is not None)
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


WRITE_ROWS = 128  # trajectory rows formatted and written at once
TIE_MARGIN = 1e-4  # a significand this close to a rounding tie is Python's to round
_POW10 = np.array([float(f"1e{k}") for k in range(-90, 111)])  # _POW10[k + 90]: 10**k, rounded once
_LEAD = np.frombuffer(b"".join(  # lead = significand // 1e8: "d.dd", 1000 the round-up to "1.00"
    b"1.00" if i == 1000 else b"%d.%02d" % divmod(i, 100) for i in range(1001)), "<u4")
_DIGITS4 = np.frombuffer(b"".join(b"%04d" % i for i in range(10**4)), "<u4")
_EXP = np.frombuffer(b"".join(b"e%+03d" % e for e in range(-99, 100)), "<u4")
# one formatted field, [-]d.dddddddddde+dd then a tab or newline: the sign byte is dropped if unused
_CELL = np.dtype({"names": ["sign", "lead", "mid", "low", "exp", "sep"],
                  "formats": ["u1", "<u4", "<u4", "<u4", "<u4", "u1"],
                  "offsets": [0, 1, 5, 9, 13, 17], "itemsize": 18})

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


def format_rows(table: np.ndarray) -> str:
    """Rows of ``"%.10e"`` fields, tab-separated, each row ending in a newline: Python's bytes.

    One numpy pass per table.  Each value |x| in (1e-99, 1e99) gets its
    exponent e (from log10, corrected once) and its significand y =
    |x| * 10**(10 - e) in [1e10, 1e11), rounded half-even by ``rint``;
    the 11 digits come from exact integer divisions of rint(y) < 2**53
    and table look-ups, and a round-up to 1e11 moves to the next power
    of ten.  y is two roundings from exact (the tabled power of ten and
    the product), so |y - exact| <= (2u + u*u) * y < 2.3e-5 with u =
    2**-53, and rint(y) is the correctly rounded significand unless the
    exact value lies within that of a tie.  Python's ``%`` formats each
    row in which some value is within ``TIE_MARGIN`` (over 4x that bound)
    of a tie, or is nan, inf or outside (1e-99, 1e99) but not 0.0: those
    need Python's rounding or a three-digit exponent.
    """
    rows, cols = table.shape
    a = np.abs(table)
    fast = (a > 1e-99) & (a < 1e99)
    x = np.where(fast, a, 1.0)  # a stand-in for 0, nan, inf and three-digit exponents
    e = np.floor(np.log10(x)).astype(np.int64)  # off by one next to a power of ten
    y = x * _POW10[100 - e]
    e += y >= 1e11
    e -= y < 1e10
    y = x * _POW10[100 - e]
    r = np.rint(y)
    slow = (np.abs(y - r) > 0.5 - TIE_MARGIN) | ~fast & (a != 0.0)
    e += r >= 1e11  # 9.99999999995e3 -> 1.0000000000e+04: lead 1000 reads "1.00"
    r *= fast  # 0.0 -> lead 0, "0.00"
    lead, tail = np.divmod(r.astype(np.int64), 10**8)
    mid, low = np.divmod(tail, 10**4)
    cells = np.empty((rows, cols), _CELL)
    cells["sign"], cells["sep"] = 45, 9  # "-", tab
    cells["sep"][:, -1] = 10  # newline
    cells["lead"], cells["mid"], cells["low"] = _LEAD[lead], _DIGITS4[mid], _DIGITS4[low]
    cells["exp"] = _EXP[e + 99]
    keep = np.ones((rows, cols, _CELL.itemsize), bool)
    keep[..., 0] = np.signbit(table)
    text = cells.view(np.uint8).reshape(keep.shape)[keep].tobytes().decode("ascii")
    fallback = np.flatnonzero(slow.any(1)).tolist()
    if not fallback:
        return text
    lines = text.splitlines(keepends=True)
    row_format = "\t".join(["%.10e"] * cols) + "\n"
    for i in fallback:
        lines[i] = row_format % tuple(table[i].tolist())
    return "".join(lines)


def write_trajectory(stream: IO[str], traj: Trajectory, ke: np.ndarray, pe: np.ndarray) -> None:
    """Write the trajectory export: one header row, one row per sample.

    Angles stay in radians (the header names the units); ke/pe are the
    energy channels computed by the energy module, machines x samples
    as the record's channels (ValueError otherwise).  Rows go out
    ``WRITE_ROWS`` at a time, each chunk copied from the channels into
    one table and formatted by ``format_rows``, so the writer's memory
    does not grow with the record.
    """
    n = traj.n_machines
    if np.shape(ke) != traj.omega.shape or np.shape(pe) != traj.omega.shape:
        raise ValueError(f"ke and pe must be machines x samples {traj.omega.shape}, "
                         f"got {np.shape(ke)} and {np.shape(pe)}")
    stream.write(trajectory_header(n) + "\n")
    channels = [traj.times[None, :], traj.delta, traj.omega, traj.delta_coi, traj.omega_coi,
                traj.f_coi, ke, pe]
    table = np.empty((min(WRITE_ROWS, traj.n_samples), 1 + 7 * n))
    for start in range(0, traj.n_samples, WRITE_ROWS):
        chunk = table[: min(WRITE_ROWS, traj.n_samples - start)]
        np.concatenate([c[:, start : start + len(chunk)] for c in channels], out=chunk.T)
        stream.write(format_rows(chunk))
