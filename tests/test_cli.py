"""Command-line interface: exit codes, outputs, config handling."""

from __future__ import annotations

import json

import numpy as np
import pytest

from imeac.cli import main
from conftest import two_machine_case

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

    def test_bad_bracket_exit_1(self, tmp_path, capsys):
        code, _, stderr = run(
            capsys, "cct", SMIB, "--t-lo", "0.24", "--t-hi", "0.26",
            "--out", str(tmp_path / "cct.json"),
        )
        assert code == 1
        assert "t_lo" in stderr


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

    def test_missing_config_file(self, tmp_path, capsys):
        code, _, stderr = run(
            capsys, "simulate", SMIB, "--t-clear", "0.1", "--t-end", "0.5",
            "--config", str(tmp_path / "none.json"), "--out", str(tmp_path / "t.tsv"),
        )
        assert code == 1
        assert "config file not found" in stderr
