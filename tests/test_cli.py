"""Command-line interface: exit codes, outputs, config handling."""

from __future__ import annotations

import contextlib
import io
import json
import math
import tempfile
from importlib import resources
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, seed, settings
from hypothesis import strategies as st

import imeac.cli
import imeac.dynamics
import imeac.surface
from imeac import (
    SimulationConfig,
    compute_energy,
    critical_machines,
    load_case,
    simulate,
    solve_postfault_sep,
)
from imeac.assess import (
    assess_system,
    format_verdict_table,
    write_events,
    write_margins,
    write_verdict,
)
from imeac.cli import MAX_SWEEP, _parse_sweep, main
from imeac.dynamics import MAX_STEPS
from imeac.events import detect_events
from imeac.surface import MAX_GRID_N, SurfaceSpec
from conftest import assess_machines, two_machine_case

SMIB = "bundled:smib"
WSCC = "bundled:wscc9"
STAR = "bundled:threebus_lossless"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_pair_case(path, **kwargs):
    """Write a conftest two_machine_case as a case document."""
    case = two_machine_case(**kwargs)

    def reduced(net):
        return {"G": net.g.tolist(), "B": net.b.tolist()}

    doc = {
        "label": case.label,
        "machines": [
            {"id": mach.id, "M": mach.m, "Pm": mach.pm, "E": mach.e} for mach in case.machines
        ],
        "networks": {
            "delta0_deg": [float(np.degrees(d)) for d in case.delta0],
            "reduced": {
                "prefault": reduced(case.net_prefault),
                "faulton": reduced(case.net_faulton),
                "postfault": reduced(case.net_postfault),
            },
        },
    }
    path.write_text(json.dumps(doc))
    return str(path)


class TestSimulate:
    def test_writes_trajectory_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "traj.tsv"
        code, stdout, _ = run(
            capsys, "simulate", SMIB, "--t-clear", "0.1", "--t-end", "0.5",
            "--out", str(out),
        )
        assert code == 0
        assert "501 samples" in stdout
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# t_s\tdelta_0_rad")
        assert len(lines) == 1 + 501
        manifest = json.loads((tmp_path / "traj.tsv.manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["case_path"] == SMIB
        assert manifest["config"]["t_clear"] == 0.1
        assert str(out) in manifest["outputs"]

    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        for out in (a, b):
            code, _, _ = run(
                capsys, "simulate", SMIB, "--t-clear", "0.1", "--t-end", "0.5",
                "--out", str(out),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_divergent_run_exits_3_but_writes(self, tmp_path, capsys):
        case_path = tmp_path / "fragile.json"
        case = two_machine_case(pm=1.0, m0=1e-4, m1=1.0, fault_b=0.0)
        doc = {
            "label": "fragile",
            "machines": [
                {"id": 0, "M": 1e-4, "Pm": 1.0, "E": 1.0},
                {"id": 1, "M": 1.0, "Pm": -1.0, "E": 1.0},
            ],
            "networks": {
                "delta0_deg": [float(np.degrees(d)) for d in case.delta0],
                "reduced": {
                    "prefault": {
                        "G": [[0.0, 0.0], [0.0, 0.0]],
                        "B": [[-1.5, 1.5], [1.5, -1.5]],
                    },
                    "faulton": {
                        "G": [[0.0, 0.0], [0.0, 0.0]],
                        "B": [[0.0, 0.0], [0.0, 0.0]],
                    },
                    "postfault": {
                        "G": [[0.0, 0.0], [0.0, 0.0]],
                        "B": [[-1.5, 1.5], [1.5, -1.5]],
                    },
                },
            },
        }
        case_path.write_text(json.dumps(doc))
        out = tmp_path / "traj.tsv"
        code, _, stderr = run(
            capsys, "simulate", str(case_path), "--t-clear", "2.0", "--t-end", "3.0",
            "--out", str(out),
        )
        assert code == 3
        assert "diverged" in stderr
        assert out.exists() and len(out.read_text().splitlines()) > 1


class TestAssess:
    def test_stable_exit_0(self, tmp_path, capsys):
        out_dir = tmp_path / "stable"
        code, stdout, _ = run(
            capsys, "assess", WSCC, "--t-clear", "0.1", "--t-end", "1.1",
            "--out-dir", str(out_dir),
        )
        assert code == 0
        assert "stable" in stdout
        for name in ("events.jsonl", "margins.tsv", "verdict.json", "manifest.json"):
            assert (out_dir / name).exists()
        verdict = json.loads((out_dir / "verdict.json").read_text())
        assert verdict["stable"] is True
        margins = (out_dir / "margins.tsv").read_text().strip().splitlines()
        assert len(margins) == 1 + 3

    def test_horizon_too_short_exit_1(self, tmp_path, capsys):
        # 10 ms after clearing no machine has reached a turning point yet
        code, _, stderr = run(
            capsys, "assess", WSCC, "--t-clear", "0.1", "--t-end", "0.11",
            "--out-dir", str(tmp_path / "short"),
        )
        assert code == 1
        assert "horizon too short" in stderr

    def test_unstable_exit_2(self, tmp_path, capsys):
        out_dir = tmp_path / "unstable"
        code, stdout, _ = run(
            capsys, "assess", WSCC, "--t-clear", "0.2", "--t-end", "1.2",
            "--out-dir", str(out_dir),
        )
        assert code == 2
        verdict = json.loads((out_dir / "verdict.json").read_text())
        assert verdict["stable"] is False
        assert verdict["leading_losp"]["time_s"] > 0.2
        events = [
            json.loads(line)
            for line in (out_dir / "events.jsonl").read_text().splitlines()
        ]
        assert any(ev["kind"] == "DLP" for ev in events)


    def test_divergence_on_first_step_exits_3(self, tmp_path, capsys):
        # the bolted fault throws a feather-light machine out of the guard
        # region at once: a one-sample record, still "diverged", not a
        # scan error
        case_path = write_pair_case(tmp_path / "light.json", pm=0.8, m0=1e-8, fault_b=0.0)
        code, _, stderr = run(
            capsys, "assess", case_path, "--t-clear", "0.1", "--t-end", "1.0",
            "--out-dir", str(tmp_path / "out"),
        )
        assert code == 3
        assert "diverged at t=0.001 s" in stderr

    def test_divergence_on_first_postfault_step_exits_3(self, tmp_path, capsys):
        case_path = write_pair_case(
            tmp_path / "light.json", pm=0.8, m0=1e-8, fault_b=1.5, post_b=0.0
        )
        code, _, stderr = run(
            capsys, "assess", case_path, "--t-clear", "0.1", "--t-end", "1.0",
            "--out-dir", str(tmp_path / "out"),
        )
        assert code == 3
        assert "diverged at t=0.101 s" in stderr

    @pytest.mark.parametrize(
        "case_path, t_clear", [(WSCC, 0.119), (WSCC, 0.152), (WSCC, 0.2), (SMIB, 0.15)]
    )
    def test_same_bytes_as_the_reference_pipeline(self, tmp_path, capsys, case_path, t_clear):
        # the engine's verdict, written and printed, against simulate ->
        # compute_energy -> detect_events -> assess_machines -> assess_system
        # on the whole record; wscc9 at 0.119 s is unstable at swing 3
        t_end = round(t_clear + 3.0, 3)
        code, stdout, stderr = run(
            capsys, "assess", case_path, "--t-clear", str(t_clear), "--t-end", str(t_end),
            "--out-dir", str(tmp_path),
        )
        case = load_case(case_path)
        traj = simulate(case, SimulationConfig(t_clear=t_clear, t_end=t_end))
        channels = compute_energy(case, traj, solve_postfault_sep(case))
        machines = assess_machines(case, traj, channels, detect_events(case, traj))
        sa = assess_system(machines)
        for name, write, content in (
            ("events.jsonl", write_events, sa.timeline),
            ("margins.tsv", write_margins, machines),
            ("verdict.json", write_verdict, sa),
        ):
            stream = io.StringIO()
            write(stream, content)
            assert (tmp_path / name).read_bytes() == stream.getvalue().encode(), name
        critical = critical_machines(channels.ke[:, traj.clear_index])
        assert stdout == format_verdict_table(sa, machines, critical) + "\n"
        assert (code, stderr) == (0 if sa.stable else 2, "")


class TestCct:
    def test_bisection_outputs(self, tmp_path, capsys):
        out = tmp_path / "cct.json"
        code, stdout, _ = run(
            capsys, "cct", SMIB, "--t-lo", "0.15", "--t-hi", "0.25",
            "--out", str(out),
        )
        assert code == 0
        assert "CCT: 0.195 s" in stdout
        doc = json.loads(out.read_text())
        assert doc["cct_s"] == pytest.approx(0.195)
        curve = (tmp_path / "cct.json.curve.tsv").read_text().splitlines()
        assert curve[0].startswith("#")
        assert len(curve) >= 3

    @pytest.mark.parametrize(
        "flags, line",
        [((), "CCT: 0.195 s (unstable at 0.196 s)"),
         (("--resolution", "0.0005", "--dt", "0.0005"), "CCT: 0.1950 s (unstable at 0.1955 s)")],
        ids=["1ms", "0.5ms"],
    )
    def test_bracket_prints_the_resolution_s_decimals(self, tmp_path, capsys, flags, line):
        # 3 decimals at the default 1 ms, more when the resolution needs them
        out = tmp_path / "cct.json"
        code, stdout, _ = run(
            capsys, "cct", SMIB, "--t-lo", "0.15", "--t-hi", "0.25", *flags, "--out", str(out),
        )
        assert code == 0
        assert stdout.splitlines()[0] == line
        doc = json.loads(out.read_text())
        assert f"CCT: {doc['cct_s']}" in line and f"at {doc['cct_unstable_s']}" in line

    def test_bad_bracket_exit_1(self, tmp_path, capsys):
        code, _, stderr = run(
            capsys, "cct", SMIB, "--t-lo", "0.24", "--t-hi", "0.26",
            "--out", str(tmp_path / "cct.json"),
        )
        assert code == 1
        assert "t_lo" in stderr

    @pytest.mark.parametrize(
        "flag, value",
        [("dt", "0"), ("dt", "-0.001"), ("resolution", "0"), ("horizon", "0"),
         ("horizon", "-1"), ("t_lo", "0")],
    )
    def test_nonpositive_value_names_its_flag(self, tmp_path, flag, value):
        # checked before anything divides by it or builds a probe from it
        code, lines = run_quiet([
            "cct", WSCC, "--t-lo", "0.14", "--t-hi", "0.172",
            f"--{flag.replace('_', '-')}={value}", "--out", str(tmp_path / "cct.json"),
        ])
        assert_one_error_line(code, lines)
        assert lines[0] == f"error: {flag} must be > 0, got {float(value)}"

    @pytest.mark.parametrize(
        "t_lo, t_hi, field",
        [("0.14", "0.172", "t_lo"), ("0.14000000007", "0.172000000086", "t_lo"),
         ("0.0010000000005", "0.172000000086", "t_hi")],
    )
    def test_bracket_off_the_dt_grid_is_one_error_line(self, tmp_path, monkeypatch,
                                                       t_lo, t_hi, field):
        # a resolution within GRID_TOL of dt whose bracket probes are off
        # the dt grid: refused before any step, never as a t_clear error
        def no_steps(*args):
            raise AssertionError("RowPool.advance called")

        monkeypatch.setattr(imeac.dynamics.RowPool, "advance", no_steps)
        code, lines = run_quiet([
            "cct", WSCC, "--t-lo", t_lo, "--t-hi", t_hi, "--resolution", "0.0010000000005",
            "--out", str(tmp_path / "cct.json"),
        ])
        assert_one_error_line(code, lines)
        assert lines[0].startswith(f"error: {field}=") and "t_clear" not in lines[0]
        assert not (tmp_path / "cct.json").exists()


class TestSurface:
    def test_grid_mode(self, tmp_path, capsys):
        out = tmp_path / "grid.tsv"
        code, stdout, _ = run(
            capsys, "surface", STAR, "--focus", "1", "--axes", "1,2",
            "--grid-n", "11", "--out", str(out),
        )
        assert code == 0
        assert "121 samples" in stdout
        assert "pe range" in stdout
        rows = [
            line for line in out.read_text().splitlines()
            if line and not line.startswith("#")
        ]
        assert len(rows) == 121

    def test_trajectories_mode(self, tmp_path, capsys):
        out = tmp_path / "ribbon.tsv"
        code, stdout, _ = run(
            capsys, "surface", STAR, "--focus", "1", "--axes", "1,2",
            "--mode", "trajectories", "--sweep", "0.05,0.1", "--t-end", "0.5",
            "--out", str(out),
        )
        assert code == 0
        rows = [
            line for line in out.read_text().splitlines() if not line.startswith("#")
        ]
        assert len(rows) == 2 * 501
        assert rows[0].split("\t")[0] == "traj-0"

    def test_trajectories_mode_needs_sweep(self, tmp_path, capsys):
        code, _, stderr = run(
            capsys, "surface", STAR, "--focus", "1", "--axes", "1,2",
            "--mode", "trajectories", "--out", str(tmp_path / "x.tsv"),
        )
        assert code == 1
        assert "--sweep" in stderr

    @pytest.mark.parametrize(
        "mode",
        [
            ("--grid-n", "11"),
            ("--grid-n", "11", "--window=-1:1:-1:1"),
            ("--mode", "trajectories", "--sweep", "0.05,0.1", "--t-end", "0.5"),
        ],
    )
    def test_one_sep_solve_per_run(self, tmp_path, capsys, mode):
        # the default window and the PE baseline share one solve
        solve = imeac.surface.solve_postfault_sep
        with mock.patch("imeac.cli.solve_postfault_sep", wraps=solve) as in_cli, mock.patch(
            "imeac.surface.solve_postfault_sep", wraps=solve
        ) as in_surface:
            code, _, _ = run(
                capsys, "surface", STAR, "--focus", "1", "--axes", "1,2", *mode,
                "--out", str(tmp_path / "s.tsv"),
            )
        assert code == 0
        assert in_cli.call_count + in_surface.call_count == 1

    def test_warnings_are_one_line_each(self, tmp_path, capsys):
        # every member of a light-machine family diverges: one line per
        # warning, no file path or source echo, then the error
        doc = json.loads(resources.files("imeac").joinpath("cases/smib.json").read_text())
        doc["machines"][0]["H"] = 0.001
        path = tmp_path / "light.json"
        path.write_text(json.dumps(doc))
        code, _, stderr = run(
            capsys, "surface", str(path), "--mode", "trajectories", "--focus", "0",
            "--axes", "0,1", "--sweep", "0.1,0.2", "--t-end", "1",
            "--out", str(tmp_path / "s.tsv"),
        )
        assert code == 1
        assert stderr.splitlines() == [
            "warning: family member 0 diverged at t=0.054 s; skipped",
            "warning: family member 1 diverged at t=0.054 s; skipped",
            "error: all family members diverged; no surface samples",
        ]


class TestErrorPaths:
    def test_missing_case_file(self, tmp_path, capsys):
        code, _, stderr = run(
            capsys, "simulate", str(tmp_path / "ghost.json"),
            "--t-clear", "0.1", "--t-end", "0.5", "--out", str(tmp_path / "t.tsv"),
        )
        assert code == 1
        assert "ghost.json" in stderr

    def test_usage_error_is_exit_1(self, tmp_path, capsys):
        # missing required --out
        code, _, stderr = run(capsys, "simulate", SMIB, "--t-clear", "0.1", "--t-end", "0.5")
        assert code == 1
        assert "--out" in stderr

    def test_constraint_violation_names_fields(self, tmp_path, capsys):
        code, _, stderr = run(
            capsys, "simulate", SMIB, "--t-clear", "0.5", "--t-end", "0.5",
            "--out", str(tmp_path / "t.tsv"),
        )
        assert code == 1
        assert "t_clear" in stderr and "t_end" in stderr

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("simulate", SMIB, "--t-clear", "1e307", "--t-end", "1e308"),
             "error: t_clear=1e+307 is too large for dt=0.001"),
            (("simulate", SMIB, "--t-clear", "0.1", "--t-end", "1", "--dt", "1e-320"),
             "error: t_clear=0.1 is too large for dt=1e-320"),
            (("cct", SMIB, "--t-lo", "0.15", "--t-hi", "0.25", "--dt", "1e-320"),
             "error: resolution=0.001 is too large for a step of 1e-320"),
        ],
        ids=["simulate-t-end", "simulate-dt", "cct-dt"],
    )
    def test_overflowing_step_count_is_one_error_line(self, tmp_path, argv, message):
        code, lines = run_quiet([*argv, "--out", str(tmp_path / "out")])
        assert (code, lines) == (1, [message])
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["simulate", "assess", "cct", "surface"])
    def test_oversized_horizon_is_one_error_line(self, tmp_path, monkeypatch, command):
        # 10^15 steps of 1 s: refused before a step is taken or a record allocated
        def no_steps(*args):
            raise AssertionError("RowPool.advance called")

        monkeypatch.setattr(imeac.dynamics.RowPool, "advance", no_steps)
        out = str(tmp_path / "out")
        grid = ["--dt", "1", "--t-clear", "1", "--t-end", "1e15"]
        argv = {
            "simulate": ["simulate", SMIB, *grid, "--out", out],
            "assess": ["assess", SMIB, *grid, "--out-dir", out],
            "cct": ["cct", SMIB, "--dt", "1", "--resolution", "1", "--t-lo", "1", "--t-hi", "2",
                    "--horizon", "1e15", "--out", out],
            "surface": ["surface", STAR, "--focus", "1", "--axes", "1,2", "--mode", "trajectories",
                        "--sweep", "1", "--dt", "1", "--t-end", "1e15", "--out", out],
        }[command]
        code, lines = run_quiet(argv)
        assert_one_error_line(code, lines)
        assert lines[0].startswith("error: t_end=")
        assert lines[0].endswith(f"steps of dt=1.0; the limit is {MAX_STEPS}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "sweep", ["0:inf:0.1", "-inf:1:0.1", "nan:1:0.1", "0:1:nan", "0:1:inf", "0:1e300:1e-300"]
    )
    def test_sweep_range_needs_finite_parts_and_count(self, tmp_path, sweep):
        code, lines = run_quiet([
            "surface", STAR, "--focus", "1", "--axes", "1,2", "--mode", "trajectories",
            f"--sweep={sweep}", "--out", str(tmp_path / "s.tsv"),
        ])
        assert (code, lines) == (
            1, [f"error: --sweep needs a finite start, stop, step and count, got '{sweep}'"]
        )

    @pytest.mark.parametrize("sweep", ["0:1:1e-300", "0:1:1e-4"])
    def test_sweep_member_count_is_bounded_before_the_list(self, tmp_path, monkeypatch, sweep):
        # 1e300 and MAX_SWEEP + 1 members: refused before any member is made
        def guarded_range(*args):
            assert max(args) <= MAX_SWEEP, f"range{args} built for --sweep"
            return range(*args)

        monkeypatch.setattr(imeac.cli, "range", guarded_range, raising=False)
        code, lines = run_quiet([
            "surface", STAR, "--focus", "1", "--axes", "1,2", "--mode", "trajectories",
            f"--sweep={sweep}", "--out", str(tmp_path / "s.tsv"),
        ])
        assert (code, lines) == (
            1, [f"error: --sweep asks for more than {MAX_SWEEP} members, got '{sweep}'"]
        )

    def test_sweep_of_max_members_is_accepted(self):
        assert len(_parse_sweep("0:0.9999:1e-4")) == MAX_SWEEP

    @pytest.mark.parametrize("form", ["range", "list"])
    def test_sweep_is_capped_at_max_members(self, form):
        # the parser alone: no member is simulated
        def sweep(members: int) -> str:
            if form == "range":
                return f"0:{(members - 1) * 1e-4}:1e-4"
            return ",".join(f"{0.05 + k * 1e-4:.4f}" for k in range(members))

        assert len(_parse_sweep(sweep(MAX_SWEEP))) == MAX_SWEEP
        text = sweep(MAX_SWEEP + 1)
        with pytest.raises(
            imeac.cli._UsageError, match=f"^--sweep asks for more than {MAX_SWEEP} members, got"
        ) as caught:
            _parse_sweep(text)
        # the range form quotes its text, the list form its member count
        got = f"'{text}'" if form == "range" else str(MAX_SWEEP + 1)
        assert str(caught.value).endswith(f"got {got}")
        assert len(str(caught.value)) < 100

    def test_bad_member_of_a_long_sweep_list_is_quoted_alone(self, tmp_path):
        members = [f"{0.05 + k * 1e-4:.4f}" for k in range(MAX_SWEEP)]
        members[MAX_SWEEP // 2] = " 0.1x "
        code, lines = run_quiet([
            "surface", STAR, "--focus", "1", "--axes", "1,2", "--mode", "trajectories",
            "--sweep", ",".join(members), "--out", str(tmp_path / "s.tsv"),
        ])
        assert (code, lines) == (1, ["error: --sweep expects numbers, got '0.1x'"])
        assert not (tmp_path / "s.tsv").exists()

    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_grid_n_is_bounded_before_the_grid(self, tmp_path, monkeypatch, where):
        # MAX_GRID_N + 1 nodes per axis: refused before any node is made
        def no_grid(*args):
            raise AssertionError("surface_grid called")

        monkeypatch.setattr(imeac.cli, "surface_grid", no_grid)
        big = MAX_GRID_N + 1
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"grid_n": big}))
        extra = ["--grid-n", str(big)] if where == "flag" else ["--config", str(config)]
        code, lines = run_quiet([
            "surface", STAR, "--focus", "1", "--axes", "1,2", *extra,
            "--out", str(tmp_path / "s.tsv"),
        ])
        assert (code, lines) == (1, [f"error: grid_n must be <= {MAX_GRID_N}, got {big}"])
        assert not (tmp_path / "s.tsv").exists()

    def test_grid_n_of_max_is_accepted(self):
        spec = SurfaceSpec(1, (1, 2), ((0.0, 1.0), (0.0, 1.0)), grid_n=MAX_GRID_N)
        assert spec.grid_n == MAX_GRID_N

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "imeac" in capsys.readouterr().out


class TestConfigFile:
    def test_config_overrides_flags(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"t-clear": 0.2}))
        out = tmp_path / "traj.tsv"
        code, _, _ = run(
            capsys, "simulate", SMIB, "--t-clear", "0.1", "--t-end", "0.5",
            "--config", str(config), "--out", str(out),
        )
        assert code == 0
        manifest = json.loads((tmp_path / "traj.tsv.manifest.json").read_text())
        assert manifest["config"]["t_clear"] == 0.2

    def test_unknown_config_key(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"t-cleer": 0.2}))
        code, _, stderr = run(
            capsys, "simulate", SMIB, "--t-clear", "0.1", "--t-end", "0.5",
            "--config", str(config), "--out", str(tmp_path / "t.tsv"),
        )
        assert code == 1
        assert "t-cleer" in stderr

    @pytest.mark.parametrize(
        "command, config, named",
        [
            ("assess", {"t_clear": "0.1"}, "t_clear"),
            ("surface", {"grid_n": 2.5}, "--grid-n"),
            ("cct", {"first_swing_only": "yes"}, "first_swing_only"),
        ],
    )
    def test_wrong_typed_config_value(self, tmp_path, capsys, command, config, named):
        # parsed as the flag it stands for: one error line naming it, exit 1
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv = command_argv(command, str(tmp_path))
        code, _, stderr = run(capsys, *argv, "--config", str(path))
        assert code == 1
        assert stderr.startswith("error: ") and stderr.count("\n") == 1
        assert named in stderr

    def test_config_switch_overrides_flag(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"first-swing-only": False}))
        out = tmp_path / "cct.json"
        code, _, _ = run(
            capsys, "cct", SMIB, "--t-lo", "0.195", "--t-hi", "0.196", "--first-swing-only",
            "--config", str(config), "--out", str(out),
        )
        assert code == 0
        manifest = json.loads((tmp_path / "cct.json.manifest.json").read_text())
        assert manifest["config"]["first_swing_only"] is False

    def test_missing_config_file(self, tmp_path, capsys):
        code, _, stderr = run(
            capsys, "simulate", SMIB, "--t-clear", "0.1", "--t-end", "0.5",
            "--config", str(tmp_path / "none.json"), "--out", str(tmp_path / "t.tsv"),
        )
        assert code == 1
        assert "config file not found" in stderr


def run_quiet(argv):
    """main() with its output captured: (exit code, stderr lines)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return code, stderr.getvalue().splitlines()


def assert_one_error_line(code, lines):
    assert code == 1
    assert len(lines) == 1 and lines[0].startswith("error: "), lines


FUZZ_SETTINGS = settings(max_examples=150, deadline=None, database=None)

# every option of each command by the kind of value it takes
NUMBER, INTEGER, TEXT, SWITCH = "number", "integer", "text", "switch"
COMMAND_OPTIONS = {
    "simulate": {"dt": NUMBER, "t_clear": NUMBER, "t_end": NUMBER, "out": TEXT},
    "assess": {"dt": NUMBER, "t_clear": NUMBER, "t_end": NUMBER, "out_dir": TEXT},
    "cct": {
        "dt": NUMBER, "t_lo": NUMBER, "t_hi": NUMBER, "resolution": NUMBER,
        "horizon": NUMBER, "first_swing_only": SWITCH, "out": TEXT,
    },
    "surface": {
        "dt": NUMBER, "focus": INTEGER, "axes": TEXT, "mode": TEXT, "window": TEXT,
        "half_width": NUMBER, "grid_n": INTEGER, "sweep": TEXT, "t_end": NUMBER, "out": TEXT,
    },
}


def command_argv(command, out):
    return {
        "simulate": ["simulate", SMIB, "--t-clear", "0.1", "--t-end", "0.2", "--out", f"{out}/t.tsv"],
        "assess": ["assess", SMIB, "--t-clear", "0.1", "--t-end", "0.2", "--out-dir", out],
        "cct": ["cct", SMIB, "--t-lo", "0.195", "--t-hi", "0.196", "--out", f"{out}/c.json"],
        "surface": ["surface", STAR, "--focus", "0", "--axes", "1,2", "--grid-n", "3",
                    "--out", f"{out}/s.tsv"],
    }[command]


json_scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=8))
json_values = st.recursive(
    json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=4), inner, max_size=3)
    ),
    max_leaves=6,
)
# for each kind, JSON values it must refuse
WRONG_VALUES = {
    NUMBER: json_values.filter(
        lambda v: isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v)
    ),
    INTEGER: json_values.filter(lambda v: isinstance(v, bool) or not isinstance(v, int)),
    TEXT: json_values.filter(lambda v: not isinstance(v, str)),
    SWITCH: json_values.filter(lambda v: not isinstance(v, bool)),
}


@st.composite
def bad_configs(draw):
    """A command and a --config file text that it must refuse."""
    command = draw(st.sampled_from(sorted(COMMAND_OPTIONS)))
    options = COMMAND_OPTIONS[command]
    how = draw(st.sampled_from(["value", "key", "document", "text"]))
    if how == "value":
        key = draw(st.sampled_from(sorted(options)))
        value = draw(WRONG_VALUES[options[key]])
        doc = {draw(st.sampled_from([key, key.replace("_", "-")])): value}
    elif how == "key":
        key = draw(st.text(min_size=1, max_size=12).filter(
            lambda k: k.replace("-", "_") not in options
        ))
        doc = {key: draw(json_values)}
    elif how == "document":
        doc = draw(json_values.filter(lambda v: not isinstance(v, dict)))
    else:
        return command, draw(st.sampled_from(["", "{", '{"dt": }', "[1,", "\x00", "nul"]))
    return command, json.dumps(doc)


@st.composite
def bad_surface_inputs(draw):
    """Surface options for threebus_lossless with a focus, axis or window that cannot fit."""
    index = st.integers(-4, 6)
    focus, a, b = draw(index), draw(index), draw(index)
    bound = st.floats(-4, 4) | st.sampled_from([math.nan, math.inf, -math.inf])
    ranges = st.tuples(bound, bound)
    window = draw(st.none() | st.tuples(ranges, ranges))
    fits = all(0 <= i < 3 for i in (focus, a, b)) and a != b
    assume(not fits or (window is not None and any(
        not -math.inf < lo < hi < math.inf for lo, hi in window
    )))
    argv = [f"--focus={focus}", f"--axes={a},{b}", "--grid-n", "3"]
    if window is not None:
        argv.append("--window=" + ":".join(str(v) for pair in window for v in pair))
    if draw(st.booleans()):
        argv += ["--mode", "trajectories", "--sweep", "0.05", "--t-end", "0.1"]
    return argv


class TestFuzz:
    @seed(20211021)
    @FUZZ_SETTINGS
    @given(extra=bad_surface_inputs())
    @example(extra=["--focus", "0", "--axes", "1,5"])
    @example(extra=["--focus", "0", "--axes=-1,1"])
    @example(extra=["--focus", "0", "--axes", "1,2", "--window", "1:0:0:1"])
    @example(extra=["--focus", "9", "--axes", "1,2", "--mode", "trajectories", "--sweep", "0.05,0.1"])
    @example(extra=["--focus", "0", "--axes", "1,2", "--half-width", "0"])
    @example(extra=["--focus", "0", "--axes", "1,2", "--half-width", "-1"])
    def test_bad_surface_input_is_one_error_line(self, extra):
        # checked against the case before anything indexes a machine; the
        # error names the input at fault
        with tempfile.TemporaryDirectory() as out:
            code, lines = run_quiet(["surface", STAR, *extra, "--out", f"{out}/s.tsv"])
            assert_one_error_line(code, lines)
            if "--half-width" in extra:
                assert lines[0].startswith("error: --half-width must be > 0, got "), lines
            else:
                assert lines[0].split(":")[1] in (" focus", " axes", " window"), lines
            assert not Path(out, "s.tsv").exists()

    @seed(20211021)
    @FUZZ_SETTINGS
    @given(bad=bad_configs())
    def test_malformed_config_is_one_error_line(self, bad):
        command, text = bad
        with tempfile.TemporaryDirectory() as out:
            config = Path(out) / "cfg.json"
            config.write_text(text)
            argv = command_argv(command, out) + ["--config", str(config)]
            assert_one_error_line(*run_quiet(argv))

    @seed(20211021)
    @FUZZ_SETTINGS
    @given(data=st.data(), name=st.sampled_from(["smib", "wscc9"]))
    def test_malformed_case_is_one_error_line(self, data, name):
        doc = json.loads(resources.files("imeac").joinpath(f"cases/{name}.json").read_text())
        # every place in the document a case must fill with a checked value
        places = []

        def walk(node, path, in_array):
            if path:
                places.append((path, node, in_array))
            if isinstance(node, dict):
                for key, value in node.items():
                    if key != "label":
                        walk(value, path + (key,), False)
            elif isinstance(node, list):
                numbers = all(not isinstance(v, (dict, list)) for v in node)
                for k, value in enumerate(node):
                    walk(value, path + (k,), numbers or in_array)

        walk(doc, (), False)
        path, old, in_array = data.draw(st.sampled_from(places))
        optional = {"D", "omega0", "p_load", "q_load", "r", "b"}
        parent = doc
        for step in path[:-1]:
            parent = parent[step]
        if isinstance(path[-1], str) and path[-1] not in optional and data.draw(st.booleans()):
            del parent[path[-1]]
        else:
            if isinstance(old, (int, float)):
                wrong = st.one_of(
                    st.none(), st.text(max_size=4), st.lists(st.integers(), max_size=2),
                    st.sampled_from([math.nan, math.inf, -math.inf, 10**400]),
                    st.none() if in_array else st.booleans(),
                )
            else:
                wrong = json_values.filter(lambda v: type(v) is not type(old))
            parent[path[-1]] = data.draw(wrong)
        with tempfile.TemporaryDirectory() as out:
            case = Path(out) / "case.json"
            case.write_text(json.dumps(doc))
            argv = ["assess", str(case), "--t-clear", "0.1", "--t-end", "0.2", "--out-dir", out]
            assert_one_error_line(*run_quiet(argv))

    @pytest.mark.parametrize("text", ["", "{", "[1, 2]", '"case"', "\ud800"])
    def test_unreadable_case_document(self, tmp_path, text):
        case = tmp_path / "case.json"
        case.write_text(text, errors="surrogatepass")
        argv = ["assess", str(case), "--t-clear", "0.1", "--t-end", "0.2", "--out-dir", str(tmp_path)]
        assert_one_error_line(*run_quiet(argv))
