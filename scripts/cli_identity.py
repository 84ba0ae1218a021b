"""Compare the imeac CLI's outputs between two source trees.

Runs a fixed list of commands in each tree (PYTHONPATH=<root>/src, each
command in its own temporary output directory) and prints, per command,
same/DIFF for the exit code, stdout (output paths normalised), stderr and
every data file; run manifests carry wall times and are skipped.  A data
file that differs also gets its count of differing lines and the largest
numeric |new - old| / max(1, |old|) over the fields of those lines, so a
stated tolerance can be checked.  Exits 1 if anything differs.  Standard
library only.

Usage:  python scripts/cli_identity.py OLD_ROOT NEW_ROOT
"""

from __future__ import annotations

import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

THREE = "bundled:threebus_lossless"
FIELD = re.compile(r'[\s,:\[\]{}"]+')  # separators of TSV and JSON fields
COMMANDS = [
    ["assess", "bundled:wscc9", "--t-clear", "0.2", "--t-end", "1.2", "--out-dir", "{out}/v"],
    ["assess", "bundled:smib", "--t-clear", "0.15", "--t-end", "1.0", "--out-dir", "{out}/v"],
    # machine 2, not critical, liberates on its third swing: exit 2
    ["assess", "bundled:wscc9", "--t-clear", "0.119", "--t-end", "3.119", "--out-dir", "{out}/v"],
    ["simulate", "bundled:wscc9", "--t-clear", "0.08", "--t-end", "3.0", "--out", "{out}/t.tsv"],
    ["simulate", "bundled:smib", "--t-clear", "0.2", "--t-end", "1.0", "--out", "{out}/t.tsv"],
    # the trajectory TSV in many row chunks
    ["simulate", "bundled:wscc9", "--t-clear", "0.1", "--t-end", "30", "--out", "{out}/t.tsv"],
    # exact zeros in row 0, magnitudes down to 7e-18
    ["simulate", "bundled:smib", "--t-clear", "0.5", "--t-end", "20", "--out", "{out}/t.tsv"],
    ["cct", "bundled:wscc9", "--t-lo", "0.1", "--t-hi", "0.2", "--out", "{out}/c.json"],
    ["cct", "bundled:smib", "--t-lo", "0.15", "--t-hi", "0.25", "--out", "{out}/c.json"],
    ["cct", "bundled:wscc9", "--t-lo", "0.06", "--t-hi", "0.24", "--first-swing-only",
     "--out", "{out}/c.json"],
    ["surface", "bundled:wscc9", "--focus", "2", "--axes", "1,2", "--mode", "trajectories",
     "--sweep", "0.05:0.20:0.05", "--t-end", "1.5", "--out", "{out}/s.tsv"],
    ["surface", "bundled:wscc9", "--focus", "2", "--axes", "1,2", "--mode", "trajectories",
     "--sweep", "0.15,0.05,0.10,0.05", "--t-end", "1.5", "--out", "{out}/s.tsv"],
    ["surface", THREE, "--focus", "1", "--axes", "1,2", "--mode", "grid", "--grid-n", "81",
     "--out", "{out}/s.tsv"],
    ["surface", "bundled:wscc9", "--focus", "2", "--axes", "1,2", "--out", "{out}/s.tsv"],
    ["surface", THREE, "--focus", "2", "--axes", "0,1", "--window=-1:1.5:-2:0.5",
     "--grid-n", "101", "--out", "{out}/s.tsv"],
    ["surface", THREE, "--focus", "1", "--axes", "0,2", "--half-width", "1.5",
     "--out", "{out}/s.tsv"],
]


def run(root: Path, argv: list[str]) -> tuple[dict[str, bytes], dict[str, bytes]]:
    """One command in one tree: (streams, data files by relative path)."""
    with tempfile.TemporaryDirectory() as out:
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        args = [a.format(out=out) for a in argv]
        done = subprocess.run([sys.executable, "-m", "imeac.cli", *args], env=env,
                              capture_output=True)
        streams = {
            "exit": str(done.returncode).encode(),
            "stdout": done.stdout.replace(out.encode(), b"<out>"),
            "stderr": done.stderr.replace(out.encode(), b"<out>"),
        }
        files = {
            str(p.relative_to(out)): p.read_bytes()
            for p in sorted(Path(out).rglob("*"))
            if p.is_file() and not p.name.endswith("manifest.json")
        }
    return streams, files


def line_diff(old: bytes, new: bytes) -> str:
    """Differing lines of two text files and the largest relative numeric change in them."""
    old_lines, new_lines = old.decode().splitlines(), new.decode().splitlines()
    changed = [(a, b) for a, b in zip(old_lines, new_lines) if a != b]
    worst = 0.0
    for a, b in changed:
        for x, y in zip(FIELD.split(a), FIELD.split(b)):
            try:
                x, y = float(x), float(y)
            except ValueError:
                continue
            if math.isfinite(x) and math.isfinite(y):
                worst = max(worst, abs(y - x) / max(1.0, abs(x)))
    count = len(changed) + abs(len(old_lines) - len(new_lines))
    return f"{count} of {len(old_lines)} lines differ, max |d|/max(1, |x|) = {worst:.3g}"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    old_root, new_root = (Path(a).resolve() for a in argv)
    differs = False
    for command in COMMANDS:
        (old_streams, old_files), (new_streams, new_files) = (
            run(old_root, command), run(new_root, command))
        print(" ".join(command).replace("{out}/", ""))
        for name in [*old_streams, *sorted(set(old_files) | set(new_files))]:
            old = old_streams.get(name, old_files.get(name))
            new = new_streams.get(name, new_files.get(name))
            differs |= old != new
            detail = ""
            if old != new and name in old_files and name in new_files:
                detail = "  (" + line_diff(old, new) + ")"
            print(f"  {'same' if old == new else 'DIFF'}  {name}{detail}")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
