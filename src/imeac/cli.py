"""Command-line front end: simulate, assess, cct, surface.

Exit codes: 0 success (assess: stable), 1 usage or data error,
2 assess found the system unstable, 3 the simulation diverged (assess:
during the fault-on stage or after clearing).
Every command writes the data files it reports plus a JSON run
manifest.  ``--config FILE`` supplies a JSON object whose entries
override the corresponding command-line flags (file wins); they are
parsed as those flags, so they pass the same checks.  Case
paths may reference bundled cases as ``bundled:<name>``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .assess import format_verdict_table, write_events, write_margins, write_verdict
from .case import solve_postfault_sep
from .caseio import load_case
from .cct import find_cct, probe_clearing_time, write_cct, write_margin_curve
from .dynamics import SimulationConfig, simulate, write_trajectory
from .energy import compute_energy, critical_machines
from .errors import DivergenceError, ImeacError
from .events import detect_events  # unused here: bench/layers.py traces the events layer by this name
from .surface import (
    SurfaceSpec,
    check_surface_inputs,
    surface_from_trajectories,
    surface_grid,
    write_surface_grid,
    write_surface_trajectories,
)

MAX_SWEEP = 10_000  # trajectory-family members one --sweep may ask for


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems instead of exiting with 2."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _finite(text: str) -> float:
    """argparse type of every real-valued option: nan and inf are refused."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"invalid finite float value: {text!r}")
    return value


def _apply_config(
    parser: _Parser, argv: list[str], args: argparse.Namespace
) -> argparse.Namespace:
    """Parse again with the --config file's entries appended as flags (file wins).

    So a config value passes the same type and choice checks as the flag
    it stands for.  JSON types must match too: a string for a text
    option, a number for a numeric one, true/false for an on/off flag.
    """
    if not args.config:
        return args
    path = Path(args.config)
    if not path.is_file():
        raise _UsageError(f"config file not found: {path}")
    try:
        overrides = json.loads(path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise _UsageError(f"malformed config file {path}: {exc}") from exc
    if not isinstance(overrides, dict):
        raise _UsageError(f"config file {path} must hold a JSON object")
    flags = []
    for key, value in overrides.items():
        attr = key.replace("-", "_")
        if attr in ("config", "command", "func", "case") or not hasattr(args, attr):
            raise _UsageError(f"config file {path}: unknown option {key!r}")
        flag = "--" + attr.replace("_", "-")
        if isinstance(getattr(args, attr), bool):
            if not isinstance(value, bool):
                raise _UsageError(f"config file {path}: option {key!r} expects true or false")
            flags.append(flag if value else f"--no-{flag[2:]}")
        else:
            flags.append(f"{flag}={value if isinstance(value, str) else json.dumps(value)}")
    merged = parser.parse_args(argv + flags)
    for key, value in overrides.items():
        parsed = getattr(merged, key.replace("-", "_"))
        if isinstance(value, str) != isinstance(parsed, str):
            kind = "a string" if isinstance(parsed, str) else "a number"
            raise _UsageError(f"config file {path}: option {key!r} expects {kind}")
    return merged


def _write_manifest(
    path: Path, command: str, args: argparse.Namespace, outputs: list[Path], started: float
) -> None:
    echo = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("func", "command") and v is not None
    }
    doc = {
        "command": command,
        "case_path": args.case,
        "config": echo,
        "outputs": [str(p) for p in outputs + [path]],
        "tool_version": __version__,
        "wall_time_s": round(time.perf_counter() - started, 6),
    }
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def cmd_simulate(args) -> int:
    started = time.perf_counter()
    case = load_case(args.case)
    cfg = SimulationConfig(t_clear=args.t_clear, t_end=args.t_end, dt=args.dt)
    sep = solve_postfault_sep(case)
    traj = simulate(case, cfg)
    channels = compute_energy(case, traj, sep)
    out = Path(args.out)
    with out.open("w") as stream:
        write_trajectory(stream, traj, channels.ke, channels.pe)
    _write_manifest(out.with_name(out.name + ".manifest.json"), "simulate", args, [out], started)
    print(f"wrote {traj.n_samples} samples to {out}")
    if traj.diverged:
        print(
            f"simulation diverged at t={traj.divergence_time:.6g} s; trajectory truncated",
            file=sys.stderr,
        )
        return 3
    return 0


def cmd_assess(args) -> int:
    started = time.perf_counter()
    case = load_case(args.case)
    cfg = SimulationConfig(t_clear=args.t_clear, t_end=args.t_end, dt=args.dt)
    try:
        probe = probe_clearing_time(
            case, cfg.t_clear, cfg.dt, (cfg.n_steps - cfg.clear_index) * cfg.dt
        )
        divergence_time = probe.divergence_time
    except DivergenceError as exc:
        divergence_time = exc.time
    if divergence_time is not None:
        # a truncated record may be too short to scan: no verdict either way
        print(f"simulation diverged at t={divergence_time:.6g} s; no verdict", file=sys.stderr)
        return 3
    sa, assessments = probe.assessment, probe.machine_assessments
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    events_path = out_dir / "events.jsonl"
    margins_path = out_dir / "margins.tsv"
    verdict_path = out_dir / "verdict.json"
    with events_path.open("w") as stream:
        write_events(stream, sa.timeline)
    with margins_path.open("w") as stream:
        write_margins(stream, assessments)
    with verdict_path.open("w") as stream:
        write_verdict(stream, sa)
    _write_manifest(
        out_dir / "manifest.json", "assess", args,
        [events_path, margins_path, verdict_path], started,
    )
    print(format_verdict_table(sa, assessments, critical_machines(probe.ke_at_clear)))
    return 0 if sa.stable else 2


def cmd_cct(args) -> int:
    started = time.perf_counter()
    case = load_case(args.case)
    result = find_cct(
        case,
        t_lo=args.t_lo,
        t_hi=args.t_hi,
        resolution=args.resolution,
        dt=args.dt,
        horizon=args.horizon,
        first_swing_only=args.first_swing_only,
    )
    out = Path(args.out)
    curve_path = out.with_name(out.name + ".curve.tsv")
    with out.open("w") as stream:
        write_cct(stream, result)
    with curve_path.open("w") as stream:
        write_margin_curve(stream, result)
    _write_manifest(
        out.with_name(out.name + ".manifest.json"), "cct", args, [out, curve_path], started
    )
    places = 3  # or as many as the resolution has
    while round(result.resolution, places) != result.resolution:
        places += 1
    print(f"CCT: {result.cct:.{places}f} s (unstable at {result.cct_unstable:.{places}f} s)")
    print(f"MDM: machine {result.mdm}")
    print(f"critical energy: {result.critical_energy:.6f} p.u.")
    print(f"evaluations: {result.evaluations}")
    return 0


def _parse_axes(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise _UsageError(f"--axes expects 'a,b', got '{text}'")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise _UsageError(f"--axes expects integers, got '{text}'") from exc


def _parse_window(text: str) -> tuple[tuple[float, float], tuple[float, float]]:
    try:
        xlo, xhi, ylo, yhi = (float(p) for p in text.split(":"))
    except ValueError as exc:
        raise _UsageError(f"--window expects 'xlo:xhi:ylo:yhi', got '{text}'") from exc
    return (xlo, xhi), (ylo, yhi)


def _parse_sweep(text: str) -> list[float]:
    too_many = _UsageError(f"--sweep asks for more than {MAX_SWEEP} members, got '{text}'")
    if ":" in text:
        try:
            start, stop, step = (float(p) for p in text.split(":"))
        except ValueError as exc:
            raise _UsageError(f"--sweep expects 'start:stop:step', got '{text}'") from exc
        if step <= 0:
            raise _UsageError("--sweep step must be > 0")
        count = (stop - start) / step + 1e-9
        if not all(map(math.isfinite, (start, stop, step, count))):
            raise _UsageError(f"--sweep needs a finite start, stop, step and count, got '{text}'")
        if count >= MAX_SWEEP:  # floor(count) + 1 members
            raise too_many
        return [start + k * step for k in range(max(math.floor(count) + 1, 0))]
    try:
        sweep = [float(p) for p in text.split(",") if p.strip()]
    except ValueError as exc:
        raise _UsageError(f"--sweep expects numbers, got '{text}'") from exc
    if len(sweep) > MAX_SWEEP:
        raise too_many
    return sweep


def cmd_surface(args) -> int:
    started = time.perf_counter()
    case = load_case(args.case)
    axes = _parse_axes(args.axes)
    window = _parse_window(args.window) if args.window else None
    check_surface_inputs(case.n, args.focus, axes, window)
    # one solve per run: the SEP centres the default window and is the PE baseline
    sep = solve_postfault_sep(case)
    if window is None:
        half = args.half_width
        if half <= 0:
            raise _UsageError(f"--half-width must be > 0, got {half}")
        # grid mode refuses an unconverged SEP; trajectories mode never reads the window
        cx, cy = sep.delta_s[list(axes)]
        window = ((cx - half, cx + half), (cy - half, cy + half))
    family: tuple[SimulationConfig, ...] = ()
    if args.mode == "trajectories":
        sweep = _parse_sweep(args.sweep) if args.sweep else []
        if not sweep:
            raise _UsageError("trajectories mode needs a non-empty --sweep family")
        family = tuple(
            SimulationConfig(t_clear=t, t_end=args.t_end, dt=args.dt) for t in sweep
        )
    spec = SurfaceSpec(
        focus_machine=args.focus,
        axis_machines=axes,
        window=window,
        grid_n=args.grid_n,
        trajectory_family=family,
    )
    out = Path(args.out)
    if args.mode == "grid":
        grid = surface_grid(case, spec, sep)
        with out.open("w") as stream:
            write_surface_grid(stream, grid)
        count = grid.pe.size
        pe_lo, pe_hi = float(np.min(grid.pe)), float(np.max(grid.pe))
    else:
        table = surface_from_trajectories(case, spec, sep)
        if not table.size:
            raise ImeacError("all family members diverged; no surface samples")
        with out.open("w") as stream:
            write_surface_trajectories(stream, table)
        count = table.shape[0]
        pe_lo, pe_hi = float(np.min(table[:, 4])), float(np.max(table[:, 4]))
    _write_manifest(out.with_name(out.name + ".manifest.json"), "surface", args, [out], started)
    print(f"wrote {count} samples to {out}")
    print(f"pe range: [{pe_lo:.6f}, {pe_hi:.6f}] p.u.")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="imeac", description=__doc__)
    parser.add_argument("--version", action="version", version=f"imeac {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: _Parser) -> None:
        p.add_argument("case", help="case file path or bundled:<name>")
        p.add_argument("--config", help="JSON file overriding the flags below")
        p.add_argument("--dt", type=_finite, default=1e-3, help="integration step, s")

    p = sub.add_parser("simulate", help="integrate one staged fault scenario")
    common(p)
    p.add_argument("--t-clear", type=_finite, required=True, help="fault clearing time, s")
    p.add_argument("--t-end", type=_finite, required=True, help="simulation horizon, s")
    p.add_argument("--out", required=True, help="trajectory output path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("assess", help="simulate and produce the stability verdict")
    common(p)
    p.add_argument("--t-clear", type=_finite, required=True, help="fault clearing time, s")
    p.add_argument("--t-end", type=_finite, required=True, help="simulation horizon, s")
    p.add_argument("--out-dir", required=True, help="directory for events/margins/verdict")
    p.set_defaults(func=cmd_assess)

    p = sub.add_parser("cct", help="bisect the critical clearing time")
    common(p)
    p.add_argument("--t-lo", type=_finite, required=True, help="stable bracket end, s")
    p.add_argument("--t-hi", type=_finite, required=True, help="unstable bracket end, s")
    p.add_argument("--resolution", type=_finite, default=1e-3, help="bracket resolution, s")
    p.add_argument("--horizon", type=_finite, default=3.0, help="post-clearing window, s")
    p.add_argument(
        "--first-swing-only", action=argparse.BooleanOptionalAction, default=False,
        help="classify from first-swing events only",
    )
    p.add_argument("--out", required=True, help="CCT result output path")
    p.set_defaults(func=cmd_cct)

    p = sub.add_parser("surface", help="sample an individual-machine PE surface")
    common(p)
    p.add_argument("--focus", type=int, required=True, help="focus machine index")
    p.add_argument("--axes", required=True, help="axis machines, e.g. 1,2")
    p.add_argument("--mode", choices=("grid", "trajectories"), default="grid")
    p.add_argument("--window", help="angle window xlo:xhi:ylo:yhi, rad")
    p.add_argument(
        "--half-width", type=_finite, default=2.0,
        help="window half-width around the SEP when --window is absent, rad",
    )
    p.add_argument("--grid-n", type=int, default=81, help="grid points per axis")
    p.add_argument("--sweep", help="clearing-time family: start:stop:step or list")
    p.add_argument("--t-end", type=_finite, default=3.0, help="family horizon, s")
    p.add_argument("--out", required=True, help="surface output path")
    p.set_defaults(func=cmd_surface)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    with warnings.catch_warnings():
        # every warning is one stderr line, as it happens, without Python's source echo
        warnings.showwarning = lambda message, *_, **__: print(f"warning: {message}", file=sys.stderr)
        try:
            args = _apply_config(parser, argv, parser.parse_args(argv))
            return args.func(args)
        except (_UsageError, ImeacError, ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
