"""Acceptance gate: ten numbered criteria, one verdict line each.

Each test exercises the toolkit end to end on the bundled cases and
registers a ``[ n] PASS/FAIL`` line through :func:`conftest.record`;
the lines are echoed in the pytest terminal summary. Tolerances are
stated inline next to each check.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from imeac import (
    DLP,
    DSP,
    SimulationConfig,
    SurfaceSpec,
    compute_energy,
    find_cct,
    grid_node_angles,
    pe_line_integral,
    simulate,
    solve_postfault_sep,
    surface_grid,
)
from imeac.assess import first_dlps
from imeac.events import detect_events
from conftest import coi_identity_errors, pe_at_time, record


@pytest.fixture(scope="session")
def wscc_island_run(wscc):
    # inside the 0.119-0.138 s multi-swing unstable window
    return simulate(wscc, SimulationConfig(t_clear=0.122, t_end=3.122))


@pytest.fixture(scope="session")
def wscc_cct(wscc):
    # bracket chosen above the multi-swing island so verdicts are
    # monotone across it; 0.140 stable, 0.172 first-swing unstable
    return find_cct(wscc, 0.140, 0.172, resolution=1e-3)


def test_criterion_01_coi_identities(
    wscc, wscc_stable_run, wscc_unstable_run, wscc_island_run
):
    m_total = float(wscc.m_vector().sum())
    worst_p = worst_f = 0.0
    for traj in (wscc_stable_run, wscc_unstable_run, wscc_island_run):
        p, f = coi_identity_errors(wscc, traj)
        worst_p, worst_f = max(worst_p, p), max(worst_f, f)
    ok = worst_p < 1e-9 * m_total and worst_f < 1e-8
    record(
        1,
        "COI identities",
        ok,
        f"max|sum M w|={worst_p:.2e} (tol {1e-9 * m_total:.2e}), "
        f"max|sum f|={worst_f:.2e} (tol 1e-08)",
    )


def test_criterion_02_energy_conservation(
    wscc, wscc_sep, wscc_stable_run, wscc_unstable_run
):
    drifts = {}
    for label, traj in (("stable", wscc_stable_run), ("unstable", wscc_unstable_run)):
        total = compute_energy(wscc, traj, wscc_sep).total[:, traj.clear_index :]
        drifts[label] = float(np.max(total.max(axis=1) - total.min(axis=1)))
    ok = all(d < 1e-4 for d in drifts.values())
    record(
        2,
        "per-machine total-energy drift over 3 s post-fault",
        ok,
        f"stable={drifts['stable']:.2e}, unstable={drifts['unstable']:.2e} (tol 1e-04)",
    )


def test_criterion_03_equal_area_identity(
    wscc, wscc_sep, wscc_stable_run, wscc_unstable_run, wscc_island_run
):
    worst = 0.0
    n_events = 0
    for traj in (wscc_stable_run, wscc_unstable_run, wscc_island_run):
        channels = compute_energy(wscc, traj, wscc_sep)
        for machine_events in detect_events(wscc, traj):
            for ev in machine_events:
                a_acc = float(channels.ke[ev.machine, traj.clear_index])
                a_dec = pe_at_time(traj, channels, ev.machine, ev.time) - float(
                    channels.pe[ev.machine, traj.clear_index]
                )
                worst = max(worst, abs((a_acc - a_dec) - ev.residual_ke))
                n_events += 1
    ok = n_events > 0 and worst < 1e-5
    record(
        3,
        "equal-area identity at every turning/liberation point",
        ok,
        f"worst |(A_acc-A_dec)-residual KE|={worst:.2e} over {n_events} events (tol 1e-05)",
    )


def test_criterion_04_margin_sign_rule(wscc_scan):
    checked = 0
    misclassified = []
    for probe in wscc_scan:
        for a in probe.machine_assessments:
            if not a.events:
                continue
            checked += 1
            has_dlp = any(ev.kind == DLP for ev in a.events)
            if has_dlp and not (a.margin is not None and a.margin < 0):
                misclassified.append((probe.t_clear, a.machine, a.margin))
            if not has_dlp and not (a.margin is not None and a.margin >= 0):
                misclassified.append((probe.t_clear, a.machine, a.margin))
    ok = checked > 0 and not misclassified
    record(
        4,
        "margin sign rule across 1 ms clearing-time scan",
        ok,
        f"{checked} machine-runs, {len(misclassified)} misclassified "
        f"(first: {misclassified[0] if misclassified else 'none'})",
    )


def test_criterion_05_smib_analytic_cct(smib):
    gen, bus = smib.machines
    p_max = gen.e * bus.e * float(smib.net_postfault.b[0, 1])
    d0 = float(smib.delta0[0] - smib.delta0[1])
    d_max = math.pi - math.asin(gen.pm / p_max)
    d_cr = math.acos(gen.pm * (d_max - d0) / p_max + math.cos(d_max))
    accel = gen.pm / gen.m - bus.pm / bus.m
    t_analytic = math.sqrt(2.0 * (d_cr - d0) / accel)
    result = find_cct(smib, 0.150, 0.250, resolution=1e-3)
    gap = abs(result.cct - t_analytic)
    record(
        5,
        "single-machine analytic critical clearing time",
        gap < 2e-3,
        f"bisection {result.cct:.3f} s vs closed form {t_analytic:.6f} s, "
        f"gap {gap:.2e} (tol 2e-03)",
    )


def test_criterion_06_bisection_vs_scan(wscc_scan, wscc_cct):
    members = [p for p in wscc_scan if 0.140 - 1e-9 <= p.t_clear <= 0.172 + 1e-9]
    oracle = max(p.t_clear for p in members if p.stable)
    budget = 2 + math.ceil(math.log2(round((0.172 - 0.140) / 1e-3)))
    ok = abs(wscc_cct.cct - oracle) < 1e-9 and wscc_cct.evaluations <= budget
    record(
        6,
        "bisection CCT equals exhaustive 1 ms scan",
        ok,
        f"bisection {wscc_cct.cct:.3f} s vs scan {oracle:.3f} s, "
        f"{wscc_cct.evaluations} evaluations (budget {budget})",
    )


def test_criterion_07_critical_stability_pattern(wscc_scan, wscc_cct):
    at_cct = next(p for p in wscc_scan if abs(p.t_clear - wscc_cct.cct) < 1e-9)
    beyond = next(
        p for p in wscc_scan if abs(p.t_clear - wscc_cct.cct_unstable) < 1e-9
    )
    mdm_stable = at_cct.machine_assessments[wscc_cct.mdm]
    mdm_unstable = beyond.machine_assessments[wscc_cct.mdm]
    residual_at_cct = max(ev.residual_ke for ev in mdm_stable.events)
    firsts = first_dlps([mdm_unstable.events])  # [(MDM, its first DLP's time)] if it separates
    dlp = next((ev for ev in mdm_unstable.events if (ev.machine, ev.time) in firsts), None)
    ok = (
        residual_at_cct < 1e-4
        and dlp is not None
        and dlp.residual_ke > 0.0
        and not any(ev.kind == DLP for ev in mdm_stable.events)
    )
    record(
        7,
        "critical-stability residual kinetic energy pattern",
        ok,
        f"MDM {wscc_cct.mdm}: residual {residual_at_cct:.2e} at CCT (tol 1e-04) vs "
        f"{0.0 if dlp is None else dlp.residual_ke:.2e} at CCT+1ms (must be > 0)",
    )


def test_criterion_08_integrator_oracle(wscc, wscc_stable_run):
    reference = simulate(wscc, SimulationConfig(t_clear=0.100, t_end=3.100, dt=1e-5))
    stride = round(1e-3 / 1e-5)
    assert np.allclose(
        wscc_stable_run.times, reference.times[::stride], rtol=0.0, atol=1e-12
    )
    err = float(np.max(np.abs(wscc_stable_run.delta - reference.delta[:, ::stride])))
    record(
        8,
        "dt=1e-3 trajectory vs dt=1e-5 reference",
        err < 1e-4,
        f"max angle gap {err:.2e} rad over 3 s (tol 1e-04)",
    )


def test_criterion_09_multi_swing_characterization(wscc, wscc_sep, wscc_scan):
    pick = None
    for probe in wscc_scan:
        for a in probe.machine_assessments:
            kinds = [ev.kind for ev in a.events]
            if kinds and kinds[0] == DSP and DLP in kinds:
                pick = (probe, a)
                break
        if pick:
            break
    assert pick is not None, "scan found no DSP-then-DLP machine"
    probe, assessment = pick
    swing = int(assessment.classification.rsplit("-", 1)[-1])
    traj = simulate(
        wscc, SimulationConfig(t_clear=probe.t_clear, t_end=round(probe.t_clear + 3.0, 10))
    )
    peak_ke = float(compute_energy(wscc, traj, wscc_sep).ke[assessment.machine].max())
    ratio = assessment.events[0].residual_ke / peak_ke
    ok = assessment.unstable and swing >= 2 and ratio < 1e-6
    record(
        9,
        "first-swing DSP then later-swing DLP classification",
        ok,
        f"t_clear={probe.t_clear:.3f} s machine {assessment.machine} "
        f"'{assessment.classification}', DSP residual/peak KE={ratio:.2e} (tol 1e-06)",
    )


def test_criterion_10_surface_consistency(star):
    sep = solve_postfault_sep(star)
    assert sep.converged
    spec = SurfaceSpec(
        focus_machine=1,
        axis_machines=(1, 2),
        window=((-0.6, 1.6), (-0.4, 1.0)),
        grid_n=81,
    )
    grid = surface_grid(star, spec)

    rng = np.random.default_rng(7)
    start = sep.delta_s
    worst_path = 0.0
    for _ in range(40):
        x = float(start[1] + rng.uniform(-2.0, 2.0))
        y = float(start[2] + rng.uniform(-2.0, 2.0))
        end = grid_node_angles(star, spec, x, y)
        corner = grid_node_angles(star, spec, x, float(start[2]))
        direct = pe_line_integral(star.net_postfault, star.machines, start, end)
        two_leg = pe_line_integral(
            star.net_postfault, star.machines, start, corner
        ) + pe_line_integral(star.net_postfault, star.machines, corner, end)
        worst_path = max(worst_path, float(np.max(np.abs(direct - two_leg))))

    worst_traj = 0.0
    for t_clear in (0.05, 0.10, 0.15):
        traj = simulate(star, SimulationConfig(t_clear=t_clear, t_end=3.0))
        channels = compute_energy(star, traj, sep)
        for k in range(0, traj.n_samples, 10):
            x = float(traj.delta_coi[1, k])
            y = float(traj.delta_coi[2, k])
            gap = abs(grid.interpolate(x, y) - float(channels.pe[1, k]))
            worst_traj = max(worst_traj, gap)

    ok = worst_path < 1e-6 and worst_traj < 1e-3
    record(
        10,
        "potential-energy surface consistency (lossless case)",
        ok,
        f"path dependence {worst_path:.2e} (tol 1e-06), "
        f"trajectory vs grid {worst_traj:.2e} (tol 1e-03)",
    )
