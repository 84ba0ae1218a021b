"""Shared fixtures, the acceptance-line reporter and the trajectory-side oracle.

Acceptance tests register one verdict line each via ``record``; the
lines are echoed in the terminal summary so a plain ``pytest`` run
shows the per-criterion outcome without ``-s``.

``assess_machines`` is the reference pipeline's last stage: simulate ->
compute_energy -> detect_events -> assess_machines reads every margin
off a whole trajectory record, independently of the clearing-time
engine, which streams its rows block by block.  ``family_reference``
is the surface family run member by member the same way: simulate ->
compute_energy per member, independently of the family's shared row
pool.  ``write_trajectory_rows`` is the trajectory export one Python
``%`` per row over the whole table: the oracle of ``write_trajectory``'s
chunked numpy formatting.  ``ReferenceStepper`` is the RK4 step one
allocating call per stage, with the guard after every step, and
``RowPool.advance`` on it: the oracle of the block workspace
(``Workspace.steps``) and of the per-block guard with its replay.
``legacy_simulate`` is the integrator's arithmetic before P_m led the
force sum and 1/M moved into the RK4 constants: the reference of the
tolerance the engine's results keep to it.
"""

from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np
import pytest

from imeac import (
    MachineParams,
    ReducedNetwork,
    SimulationConfig,
    StabilityCase,
    compute_energy,
    load_bundled,
    scan_clearing_times,
    simulate,
    solve_postfault_sep,
)

from imeac.assess import UNDETERMINED, MachineAssessment, anchor_index, margin_at_anchor
from imeac.case import coi_frame, coi_share, machine_sum, mismatch, network_products
from imeac.dynamics import OMEGA_DIVERGENCE, Block, Trajectory, Workspace, trajectory_header
from imeac.events import _hermite

_ACCEPTANCE_LINES: list[str] = []


def record(number: int, name: str, passed: bool, detail: str) -> None:
    """Register and print one acceptance verdict line, then assert it."""
    line = f"[{number:2d}] {'PASS' if passed else 'FAIL'}  {name}: {detail}"
    _ACCEPTANCE_LINES.append(line)
    print(line)
    assert passed, line


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for line in sorted(_ACCEPTANCE_LINES):
        terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def wscc():
    return load_bundled("wscc9")


@pytest.fixture(scope="session")
def smib():
    return load_bundled("smib")


@pytest.fixture(scope="session")
def star():
    return load_bundled("threebus_lossless")


@pytest.fixture(scope="session")
def wscc_sep(wscc):
    sep = solve_postfault_sep(wscc)
    assert sep.converged
    return sep


@pytest.fixture(scope="session")
def wscc_stable_run(wscc):
    # comfortably inside the stable range (scan: stable through 0.118 s)
    return simulate(wscc, SimulationConfig(t_clear=0.100, t_end=3.100))


@pytest.fixture(scope="session")
def wscc_unstable_run(wscc):
    # far past the 0.152 s critical clearing time, first-swing unstable
    return simulate(wscc, SimulationConfig(t_clear=0.200, t_end=3.200))


@pytest.fixture(scope="session")
def wscc_scan(wscc):
    """1 ms clearing-time scan spanning both unstable windows.

    Verdict map: stable through 0.118, unstable 0.119-0.138 (multi-swing
    island), stable again 0.139-0.152, unstable from 0.153 on.
    """
    times = [round(0.110 + 0.001 * k, 3) for k in range(63)]
    return scan_clearing_times(wscc, times)


def coi_identity_errors(case, traj):
    """Worst-case COI sum residuals over every sample of a trajectory."""
    m = case.m_vector()
    momentum = np.max(np.abs(m @ traj.omega_coi))
    force = np.max(np.abs(traj.f_coi.sum(axis=0)))
    return momentum, force


def light_smib(smib: StabilityCase) -> StabilityCase:
    """smib with every machine but the infinite bus 100x lighter: most probes diverge."""
    machines = tuple(
        dataclasses.replace(mach, m=mach.m * 0.01) if mach.m < 1e5 else mach
        for mach in smib.machines
    )
    return dataclasses.replace(smib, machines=machines)


def w_overflow_case(wscc: StabilityCase) -> StabilityCase:
    """wscc9 with its post-fault network scaled to max |E_i E_j B_ij| = 0.2 x the largest float.

    The fault-on motion is wscc9's; only the W integrand (post-fault
    forces times omega_COI) overflows, in the fault-on stage at 0.218 s
    when the fault lasts that long.
    """
    net, e = wscc.net_postfault, wscc.e_vector()
    scale = 0.2 * np.finfo(float).max / np.max(np.abs(np.outer(e, e) * net.b))
    g, b = net.g * scale, net.b * scale
    post = ReducedNetwork((g + g.T) / 2, (b + b.T) / 2, name=net.name)
    return dataclasses.replace(wscc, net_postfault=post)


def w_overflow_after_clearing(wscc: StabilityCase) -> StabilityCase:
    """wscc9 with inertias x 1e306, the post-fault network x 1e307 and initial speeds of +-6 rad/s.

    The motion stays slow (|omega| far below the 1e4 rad/s guard), while
    the post-fault forces reach about 1e307: only W overflows, after
    clearing, at a step that depends on the clearing time, and some
    clearing times keep a finite W throughout.
    """
    net = wscc.net_postfault
    g, b = net.g * 1e307, net.b * 1e307
    return dataclasses.replace(
        wscc,
        machines=tuple(dataclasses.replace(mach, m=mach.m * 1e306) for mach in wscc.machines),
        net_postfault=ReducedNetwork((g + g.T) / 2, (b + b.T) / 2, name=net.name),
        omega0=np.array([6.0, -6.0, 0.0]),
    )


def two_machine_case(
    pm: float = 0.8,
    b: float = 1.5,
    m0: float = 0.05,
    m1: float = 0.08,
    fault_b: float = 0.0,
    post_b: float | None = None,
    label: str = "pair",
) -> StabilityCase:
    """Lossless two-machine case in exact pre-fault equilibrium.

    Unit EMFs, transfer susceptance b, machine 0 exporting pm; the
    fault-on and post-fault transfer susceptances are configurable so
    tests can stage anything from a bolted fault to a no-op switch.
    """
    post_b = b if post_b is None else post_b
    d01 = math.asin(pm / b)
    m = np.array([m0, m1])
    delta0 = np.array([d01, 0.0])
    delta0 = delta0 - (m @ delta0) / m.sum()

    def net(bval: float, name: str) -> ReducedNetwork:
        mat = np.array([[-bval, bval], [bval, -bval]])
        return ReducedNetwork(g=np.zeros((2, 2)), b=mat, name=name)

    machines = (
        MachineParams(id=0, m=m0, pm=pm, e=1.0),
        MachineParams(id=1, m=m1, pm=-pm, e=1.0),
    )
    return StabilityCase(
        machines=machines,
        net_prefault=net(b, "net_prefault"),
        net_faulton=net(fault_b, "net_faulton"),
        net_postfault=net(post_b, "net_postfault"),
        delta0=delta0,
        omega0=np.zeros(2),
        label=label,
    )


def run_pool(kernel, heads, steps, dt, block, join_after=0, first=0, leave=None):
    """Run heads through one RowPool and return each row's record.

    heads[0] joins before the first block, every later head after
    ``join_after`` more blocks (or as soon as the pool runs empty); each
    joins as sample number ``first``.  ``leave`` maps a head's index to
    the number of blocks after which it leaves the pool (``RowPool.leave``),
    counted from the first block; a row that has left must not be in a
    later block.  A row whose record ends must be noted in ``pool.ended``
    after that block, a lost one with the time of the first sample past
    its record: (start + len) * dt of that block.
    Returns per head (samples (L, 6n), diverged) with the one-sample
    overlap of consecutive blocks checked and removed; the record of a
    row that left early is the part it got.
    """
    from imeac.dynamics import RowPool

    pool = RowPool(kernel, dt, block)
    waiting = list(heads)
    leave = leave or {}
    ids: list[int] = []
    record: dict[int, list[np.ndarray]] = {}
    lost: set[int] = set()
    gone: set[int] = set()
    blocks = total = 0
    while waiting or pool.size:
        if waiting and (not ids or blocks >= join_after or not pool.size):
            ids.append(len(ids))
            record[ids[-1]] = []
            pool.join(ids[-1:], waiting.pop(0), first, steps)
            blocks = 0
        leaving = [i for i in ids if leave.get(i) == total and i not in gone]
        pool.leave(leaving)
        gone.update(leaving)
        if not pool.size:
            continue
        block_out = pool.advance()
        blocks += 1
        total += 1
        assert not gone & set(block_out.rows.tolist())
        for r, row in enumerate(block_out.rows.tolist()):
            chunk = block_out.samples[:, r]
            parts = record[row]
            if parts:
                assert block_out.start[r] == first + sum(len(p) for p in parts) - 1
                assert np.array_equal(chunk[0], parts[-1][-1])
                chunk = chunk[1:]
            else:
                assert block_out.start[r] == first
            if len(chunk):  # a block cut on its first step adds nothing new
                parts.append(chunk.copy())
            if row in pool.rows.tolist():
                assert row not in pool.ended
            elif pool.ended[row] is not None:  # lost: its record ended with this block
                lost.add(row)
                assert pool.ended[row] == (block_out.start[r] + len(block_out.samples)) * dt
    width = 6 * kernel.n
    return [
        (np.concatenate(record[i]) if record[i] else np.empty((0, width)), i in lost)
        for i in ids
    ]


def pe_at_time(traj, channels, machine: int, t: float) -> float:
    """Cubic Hermite PE value at an arbitrary instant (d pe/dt = -f omega)."""
    k = int(np.searchsorted(traj.times, t, side="right") - 1)
    k = min(max(k, 0), traj.n_samples - 2)
    h = traj.times[k + 1] - traj.times[k]
    s = (t - traj.times[k]) / h
    pe = channels.pe[machine]
    dp0 = -traj.f_coi_pf[machine, k] * traj.omega_coi[machine, k]
    dp1 = -traj.f_coi_pf[machine, k + 1] * traj.omega_coi[machine, k + 1]
    return float(_hermite(pe[k], pe[k + 1], dp0, dp1, h, s))


def machine_margin(case, traj, channels, events, machine: int) -> MachineAssessment:
    """Assess one machine from its events, with the areas read off the whole record."""
    events = tuple(events)
    if not events:
        return MachineAssessment(machine, events, UNDETERMINED, None, None, None)
    anchor = events[anchor_index(events)]
    a_acc = float(channels.ke[machine, traj.clear_index])
    pe_clear = float(channels.pe[machine, traj.clear_index])
    a_dec = pe_at_time(traj, channels, machine, anchor.time) - pe_clear
    return margin_at_anchor(case, machine, events, a_acc, a_dec)


def assess_machines(case, traj, channels, events) -> list[MachineAssessment]:
    return [machine_margin(case, traj, channels, events[i], i) for i in range(case.n)]


def family_reference(case, spec, sep=None) -> np.ndarray:
    """The trajectory-family surface table, one member at a time: the oracle.

    Each member is its own simulate -> compute_energy run; a diverged one
    warns and is skipped, every other adds its traj_id, t, x, y, pe rows.
    """
    a, b = spec.axis_machines
    sep = solve_postfault_sep(case) if sep is None else sep
    ribbons = [np.empty((0, 5))]
    for tid, cfg in enumerate(spec.trajectory_family):
        traj = simulate(case, cfg)
        if traj.diverged:
            warnings.warn(
                f"family member {tid} diverged at t={traj.divergence_time} s; skipped",
                RuntimeWarning,
                stacklevel=2,
            )
            continue
        pe = compute_energy(case, traj, sep).pe[spec.focus_machine]
        ribbons.append(np.column_stack((
            np.full(traj.n_samples, tid), traj.times, traj.delta_coi[a], traj.delta_coi[b], pe,
        )))
    return np.concatenate(ribbons)


def write_trajectory_rows(stream, traj, ke, pe) -> None:
    """The trajectory export row by row, one ``"%.10e"`` a field: ``write_trajectory``'s oracle."""
    stream.write(trajectory_header(traj.n_machines) + "\n")
    table = np.vstack([
        traj.times[None, :], traj.delta, traj.omega, traj.delta_coi, traj.omega_coi, traj.f_coi,
        ke, pe,
    ]).T
    row_format = "\t".join(["%.10e"] * table.shape[1]) + "\n"
    for row in table:
        stream.write(row_format % tuple(row.tolist()))


class ReferenceStepper:
    """The RK4 step of a ``SwingKernel``, one allocating call per stage: the oracle.

    Each stage allocates its (k, acc) from the (n,) constants: k = omega |
    rate, the rate P_m - P_e - D omega on the active network, and acc =
    P_m - P_e (fault-on: acc (..., 2, n), fault | post).  The RK4
    constants carry 1/M, c for delta and c / M for the rate.  Each step
    checks the guard on the new state, and ``channels`` stacks the
    stages of a list.  ``advance`` is ``RowPool.advance`` stepping one
    step at a time and stopping at the first step whose motion fails the
    guard.
    """

    def __init__(self, kernel):
        self.kernel = kernel

    def stage(self, y, fault_stage):
        """(k, acc) at y: acc = P_m - P_e, undamped."""
        kernel, n = self.kernel, self.kernel.n
        delta, omega = y[..., :n], y[..., n:]
        if fault_stage:
            acc = np.stack([mismatch(p, kernel.pm, delta) for p in (kernel.faulton, kernel.post)], -2)
            act = acc[..., 0, :]
        else:
            acc = act = mismatch(kernel.post, kernel.pm, delta)
        act = act if kernel.d is None else act - kernel.d * omega
        return np.concatenate((omega, act), axis=-1), acc

    def constants(self, c):
        """c | c / M along delta | omega."""
        return np.concatenate((np.full(self.kernel.n, c), c / self.kernel.m))

    def step(self, y, k1, fault_stage, dt):
        """One classical RK4 step from y, whose first stage's k1 is known; also its later stages."""
        half, full = self.constants(0.5 * dt), self.constants(dt)
        w1, w2, w3, w4 = (self.constants(w) for w in rk4_weights(dt))
        s2 = self.stage(y + half * k1, fault_stage)
        s3 = self.stage(y + half * s2[0], fault_stage)
        s4 = self.stage(y + full * s3[0], fault_stage)
        return y + (w1 * k1 + w2 * s2[0] + w3 * s3[0] + w4 * s4[0]), [s2, s3, s4]

    def healthy(self, y, axis=-1):
        """The divergence guard on the motion, per row (axis=None: the whole batch)."""
        omega = y[..., self.kernel.n :]
        return np.all(np.isfinite(y), axis) & (np.max(np.abs(omega), axis) <= OMEGA_DIVERGENCE)

    def block(self, y, steps, fault_stage, dt):
        """Up to ``steps`` steps from y: (states, stages, per-row guard of the step that failed or None)."""
        states, stages = [y], [self.stage(y, fault_stage)]
        while len(states) <= steps:
            y, later = self.step(y, stages[-1][0], fault_stage, dt)
            stages += later
            if not self.healthy(y, None):
                return states, stages, np.atleast_1d(self.healthy(y))
            states.append(y)
            stages.append(self.stage(y, fault_stage))
        return states, stages, None

    def channels(self, stages, w0, dt, cut=None):
        """W, omega_coi and coi_share(acc) of a list of stages, and the first step with W not finite."""
        n, m_share = self.kernel.n, self.kernel.m_share
        ks, accs = zip(*stages)
        with np.errstate(all="ignore" if cut is None else None):
            k = np.concatenate(ks).reshape((len(ks),) + ks[0].shape)
            f = coi_share(np.concatenate(accs).reshape((len(accs),) + accs[0].shape), m_share)
            omega_coi = coi_frame(k[..., :n], m_share)
            g = -(f if f.ndim == k.ndim else f[..., 1, :]) * omega_coi
            end, (w1, w2, w3, w4) = len(ks) // 4 * 4, rk4_weights(dt)
            inc = w1 * g[0:end:4] + w2 * g[1:end:4] + w3 * g[2:end:4] + w4 * g[3:end:4]
            inc[0] += w0
            w = np.add.accumulate(inc)
        finite = np.isfinite(w)
        if cut is None and not finite.all():
            cut = int(np.flatnonzero(~finite.reshape(len(w), -1).all(1))[0])
            return self.channels(stages[: 4 * cut + 4], w0, dt, cut)
        return w, omega_coi[::4], f[::4], cut

    def advance(self, pool):
        """``pool.advance()`` as a step-by-step loop: the guard after each step stops the block."""
        n, dt = self.kernel.n, pool.dt
        length = min(pool.block, int(pool._left.min()))
        buf = np.empty((length + 1, pool.rows.size, 6 * n))
        buf[0, :, : 3 * n] = pool._last
        rec = buf[:, 0] if pool.rows.size == 1 else buf
        states, stages, healthy = self.block(rec[0, ..., : 2 * n], length, pool.fault, dt)
        pos = len(states) - 1
        for s, y in enumerate(states):
            rec[s, ..., : 2 * n] = y
        w, omega_coi, f, cut = self.channels(stages, rec[0, ..., 2 * n : 3 * n], dt)
        if cut is not None:
            finite = np.isfinite(w[cut].reshape(-1, n)).all(-1)
            healthy = finite if cut < pos else finite & healthy
            pos = cut
        rec[1 : pos + 1, ..., 2 * n : 3 * n] = w[:pos]
        active, post = (f[..., 0, :], f[..., 1, :]) if pool.fault else (f, f)
        rec[: pos + 1, ..., 3 * n :] = np.concatenate((omega_coi, active, post), -1)[: pos + 1]
        left = pool._left - pos
        keep = left > 0 if healthy is None else healthy
        for j, start in zip(pool.rows[~keep].tolist(), pool._start[~keep].tolist()):
            pool.ended[j] = None if healthy is None else (start + pos + 1) * dt
        block = Block(samples=buf[: pos + 1], rows=pool.rows, start=pool._start)
        pool.rows = pool.rows[keep]
        pool._start = (pool._start + pos)[keep]
        pool._left = left[keep]
        pool._last = buf[pos, :, : 3 * n][keep]
        return block


def rk4_weights(dt):
    """The RK4 sum's weights dt/6, dt/3, dt/3, dt/6, as the workspace forms them."""
    return (dt / 6.0) * np.array([1.0, 2.0, 2.0, 1.0])


def legacy_simulate(case, cfgs):
    """The ``Trajectory`` of each config (one dt) in the integrator's earlier arithmetic.

    The legacy oracle: one RK4 of delta | omega | W, the configs stepped
    as one batch, each row with its own guard after every step, as the
    engine computed before P_m led the force sum and 1/M moved into the
    RK4 constants: P_m - sum_j (E_iE_jG_ij cos d_ij + E_iE_jB_ij sin
    d_ij), the j-sum term by term; d omega/dt = (P_m - P_e - D omega) /
    M; y + (dt / 6) * (k1 + 2 k2 + 2 k3 + k4), W's block included.
    """
    n, dt, rows = case.n, cfgs[0].dt, len(cfgs)
    m, pm, d = case.m_vector(), case.pm_vector(), case.d_vector()
    m_share = m / m.sum()
    post = network_products(case.net_postfault, case.e_vector())
    fault = network_products(case.net_faulton, case.e_vector())
    clears = np.array([cfg.clear_index for cfg in cfgs])[:, None]

    def mismatch_of(products, delta):
        eg, eb = products
        diff = delta[..., :, None] - delta[..., None, :]
        return pm - machine_sum(eg * np.cos(diff) + eb * np.sin(diff))[..., 0]

    def stage(y, fault_rows):
        delta, omega = y[:, :n], y[:, n : 2 * n]
        acc_pf, acc_f = mismatch_of(post, delta), mismatch_of(fault, delta)
        f_pf = coi_share(acc_pf, m_share)
        f_act = np.where(fault_rows, coi_share(acc_f, m_share), f_pf)
        acc = np.where(fault_rows, acc_f, acc_pf)
        acc = acc - d * omega if d.any() else acc
        omega_coi = coi_frame(omega, m_share)
        dy = np.concatenate((omega, acc / m, -f_pf * omega_coi), 1)
        return dy, np.concatenate((omega_coi, f_act, f_pf), 1)

    y = np.tile(np.concatenate((case.delta0, case.omega0, np.zeros(n))), (rows, 1))
    table, ends = [], np.array([cfg.n_steps + 1 for cfg in cfgs])
    with np.errstate(all="ignore"):  # a lost row steps on, unrecorded
        for k in range(ends.max()):
            fault_rows = k < clears
            k1, channels = stage(y, fault_rows)
            table.append(np.concatenate((y, channels), 1))
            k2 = stage(y + 0.5 * dt * k1, fault_rows)[0]
            k3 = stage(y + 0.5 * dt * k2, fault_rows)[0]
            k4 = stage(y + dt * k3, fault_rows)[0]
            y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            lost = ~(np.isfinite(y).all(1) & (np.abs(y[:, n : 2 * n]).max(1) <= OMEGA_DIVERGENCE))
            ends = np.where(lost & (ends > k + 1), k + 1, ends)
    table = np.array(table)
    trajectories = []
    for r, cfg in enumerate(cfgs):
        rec, end = table[: ends[r], r], ends[r]
        trajectories.append(Trajectory(
            times=np.arange(end) * dt, delta=rec[:, :n].T, omega=rec[:, n : 2 * n].T,
            delta_coi=coi_frame(rec[:, :n], m_share).T, omega_coi=rec[:, 3 * n : 4 * n].T,
            f_coi=rec[:, 4 * n : 5 * n].T, f_coi_pf=rec[:, 5 * n :].T,
            pe_integral=rec[:, 2 * n : 3 * n].T, clear_index=cfg.clear_index,
            diverged=end <= cfg.n_steps, divergence_time=end * dt if end <= cfg.n_steps else None,
        ))
    return trajectories


def as_rows(a):
    """A motion or stage array (S, 2, ..., n) as rows of delta | omega (S, ..., 2n)."""
    return a.swapaxes(1, -2).reshape(a.shape[:1] + a.shape[2:-1] + (-1,))


def rows_ahead(a):
    """A workspace array (S, k, n, *rows) on k networks, fault | post, as (S, *rows, [2,] n)."""
    a = np.moveaxis(a, (1, 2), (-2, -1))
    return a if a.shape[-2] == 2 else a[..., 0, :]


def run_workspace(kernel, y0, steps, fault_stage, dt):
    """``Workspace.steps`` from y0 (2n,) or (B, 2n), laid out as ``RowPool.advance`` lays it out."""
    rows = y0.shape[:-1]
    space = Workspace(kernel, steps, rows, fault_stage, dt)
    space.y[0] = np.moveaxis(y0.reshape(rows + (2, kernel.n)), (-2, -1), (0, 1))
    space.steps(steps)
    return space


def machine_last(space):
    """A workspace's y (S, 2, ..., n), k (S, 2, ..., n) and acc (S, ..., n), fault-on (S, ..., 2, n).

    k is omega | rate, the rate P_m - P_e - D omega on the active network.
    """
    return np.moveaxis(space.y, 2, -1), np.moveaxis(space.k, 2, -1), rows_ahead(space.acc)


def workspace_block(kernel, y0, steps, fault_stage, dt):
    """The motion, the stages' k and acc of ``run_workspace``, the machine axis last (``machine_last``)."""
    return machine_last(run_workspace(kernel, y0, steps, fault_stage, dt))


def assert_block_equals_reference(kernel, y0, steps, fault_stage, dt, w0=None):
    """The workspace block from y0 against the reference stepper's, bit for bit.

    States, every stage's k and acc, and the channels from W = w0
    (zeros by default) must be equal; the run must stay within the guard.
    Returns the workspace as ``workspace_block`` does, and W.
    """
    space = run_workspace(kernel, y0, steps, fault_stage, dt)
    y, k, acc = machine_last(space)
    ref = ReferenceStepper(kernel)
    states, stages, healthy = ref.block(y0, steps, fault_stage, dt)
    assert healthy is None, "the reference left the guard region"
    assert np.array_equal(as_rows(y), np.array(states))
    assert np.array_equal(as_rows(k), np.array([s[0] for s in stages]))
    assert np.array_equal(acc, np.array([s[1] for s in stages]))
    w0 = np.zeros(y0.shape[:-1] + (kernel.n,)) if w0 is None else w0
    got = space.channels(len(space.k), np.moveaxis(w0, -1, 0))
    want = ref.channels(stages, w0, dt)
    w, omega_coi = (np.moveaxis(x, 1, -1) for x in got[:2])
    f = rows_ahead(got[2])
    for a, b in zip((w, omega_coi, f), want[:3]):
        assert np.array_equal(a, b)
    assert want[3] is None
    return y, k, acc, w
