"""Record the reference outputs the cli-wscc9 oracle compares against.

    python3 bench/make_reference.py

Runs the workload's op (``imeac assess`` then ``imeac simulate``) at
every 1 ms clearing time from 0.080 s to 0.220 s on the source tree of
this checkout and writes bench/reference/cli_wscc9.json.  Re-record only
when a change is meant to alter the CLI's outputs, and say so.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import OUT, ROOT, pin_environment

CLEARING_MS = range(80, 221)


def main() -> int:
    pin_environment()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    cli = workloads.CliWscc9(OUT / "reference-work")
    cli.out_dir.mkdir(parents=True, exist_ok=True)
    points = {}
    try:
        for k_ms in CLEARING_MS:
            digest = cli.digest(cli.run(k_ms))
            if digest["simulate_exit"] != 0 or digest["assess_exit"] not in (0, 2):
                print(f"t_clear={k_ms / 1000:.3f}: unexpected exit codes {digest}", file=sys.stderr)
                return 1
            points[str(k_ms)] = digest
    finally:
        shutil.rmtree(cli.out_dir, ignore_errors=True)
    doc = {
        "description": "imeac assess (t_end = t_clear + 1 s) and simulate (t_end = t_clear + 3 s) "
        "on bundled:wscc9 at every 1 ms clearing time 0.080-0.220 s",
        "tolerance": {"rtol": workloads.CLI_RTOL, "atol": workloads.CLI_ATOL},
        "points": points,
    }
    workloads.REFERENCE.parent.mkdir(parents=True, exist_ok=True)
    workloads.REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    unstable = sum(not p["stable"] for p in points.values())
    print(f"wrote {len(points)} points ({unstable} unstable) to {workloads.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
