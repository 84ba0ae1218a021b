"""Run one imeac benchmark workload for a fixed time and report its metrics.

    python3 bench/run.py --workload scan-wscc9 --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; imeac is imported from ``src/``
there, so no install is needed.  The seed alone fixes the inputs.

With ``--trace 0`` the ops run untraced and the end-to-end metrics are
reported, with times scaled to a nominal host speed (bench/calibrate.py).
With ``--trace 1`` ops run in pairs with the same inputs, one untraced
and one with every layer wrapped (bench/layers.py), in alternating
order; the per-layer metrics come from the traced ops and
``trace.overhead_frac`` from the pair.  Every op's output is checked.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record
(machine, pinned environment, seed, commit, every op time) goes to
``bench/out/results/`` and, for traced runs, the spans to
``bench/out/trace/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from datetime import datetime, timezone
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_REPEATS = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# the names workloads.py defines; it cannot be imported before pin_environment
WORKLOAD_NAMES = ("scan-wscc9", "cct-wscc9", "cli-wscc9", "grid-threebus")
END_TO_END_UNITS = {"setup_s": "s", "op_p50_ms": "ms", "work_per_s": "1/s", "peak_rss_mb": "MB"}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_environment() -> dict:
    """Single-threaded BLAS and the serial scan path, before numpy loads."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("IMEAC_WORKERS", None)
    pinned = {var: os.environ[var] for var in BLAS_THREAD_VARS}
    pinned["IMEAC_WORKERS"] = None
    return pinned


def machine_details() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as stream:
            cpu = next(line.split(":", 1)[1].strip() for line in stream if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout's .git, read directly; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Ledger:
    """Runs ops, checks their outputs and counts failures."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failures: list[str] = []

    def execute(self, inputs, tracer=None, op_id: int = 0):
        """One op: returns (start, end, output or None when it raised)."""
        self.attempted += 1
        run = self.workload.run
        start = time.perf_counter()
        try:
            if tracer is None:
                output = run(inputs)
            else:
                tracer.install()
                try:
                    output, _ = tracer.op(op_id, self.workload.api, lambda: run(inputs))
                finally:
                    tracer.uninstall()
        except Exception:
            self.failures.append(traceback.format_exc())
            return start, time.perf_counter(), None
        end = time.perf_counter()
        try:
            problems = self.workload.check(inputs, output)
        except Exception:
            problems = [traceback.format_exc()]
        self.failures.extend(problems[:1])
        return start, end, output


def measure(args, workload, ledger, tracer):
    """The timed loop: closed, one client, within --seconds.

    The next op (a traced/untraced pair when tracing) starts only if
    the median duration so far says it ends within the measuring time,
    so a run never measures for much longer than --seconds; the first
    op always runs.  Returns the untraced ops' (start, end) windows,
    the traced ops' windows, work units done and part windows.
    """
    untraced, traced, parts = [], [], {}
    units = 0
    durations = []
    begin = time.perf_counter()
    i = 0
    while not durations or time.perf_counter() - begin + statistics.median(durations) <= args.seconds:
        unit_start = time.perf_counter()
        inputs = workload.pool[i % len(workload.pool)]
        modes = [None] if tracer is None else ([None, tracer] if i % 2 == 0 else [tracer, None])
        for mode in modes:
            start, end, output = ledger.execute(inputs, mode, op_id=i)
            if mode is None:
                untraced.append((start, end))
                units += workload.units(inputs)
                for key, window in workload.parts(output).items():
                    parts.setdefault(key, []).append(window)
            else:
                traced.append((start, end))
        durations.append(time.perf_counter() - unit_start)
        i += 1
    return untraced, traced, units, parts


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    environment = pin_environment()
    src = ROOT / "src"
    if not (src / "imeac" / "__init__.py").is_file():
        print(f"error: no imeac sources under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    started_utc = datetime.now(timezone.utc).isoformat(timespec="seconds")
    start = time.perf_counter()
    import workloads  # numpy and imeac load here

    import_s = time.perf_counter() - start
    import calibrate
    import layers
    from tracer import Tracer

    out_dir = OUT / f"work-{os.getpid()}"
    workload = workloads.make(args.workload, out_dir)
    ledger = Ledger(workload)
    clock = calibrate.Sampler(workload.reference_kernel)
    tracer = Tracer(layers.LAYERS) if args.trace else None
    try:
        with clock:
            setup_windows = []
            for _ in range(SETUP_REPEATS):
                start = time.perf_counter()
                workload.setup(random.Random(args.seed))
                ledger.execute(workload.warmup_input)
                setup_windows.append((start, time.perf_counter()))
            untraced, traced, units, parts = measure(args, workload, ledger, tracer)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def wall_ms(window):
        return clock.wall_s(*window) * 1e3

    def scaled_ms(window):
        return clock.scaled_s(*window) * 1e3

    def timings(seconds_of) -> dict:
        """The gated times, with seconds_of(t0, t1) measuring each interval."""
        setup = [seconds_of(*w) for w in setup_windows]
        ops = [seconds_of(*w) for w in untraced]
        # the import ran before the first sample; scale it like the first set-up
        import_scaled = import_s * setup[0] / clock.wall_s(*setup_windows[0])
        return {
            "setup_s": import_scaled + statistics.median(setup),
            "op_p50_ms": statistics.median(ops) * 1e3,
            "work_per_s": units / sum(ops),
        }

    op_wall = [wall_ms(w) for w in untraced]
    op_scaled = [scaled_ms(w) for w in untraced]
    wall = timings(clock.wall_s)
    scaled_by_kernel = {
        kernel: timings(lambda t0, t1, kernel=kernel: clock.scaled_s(t0, t1, kernel))
        for kernel in calibrate.KERNELS
    }
    e2e = {**scaled_by_kernel[workload.reference_kernel], "peak_rss_mb": peak_rss_mb}
    part_ms = {key: [wall_ms(w) for w in windows] for key, windows in parts.items()}
    failed = len(ledger.failures)
    named = workload.report(wall, part_ms)
    named["error_frac"] = (failed / ledger.attempted, f"{failed} failed / {ledger.attempted} attempted")
    if args.trace:
        values, layer_details = layers.per_layer_metrics(
            tracer, clock.wall_s, [scaled_ms(w) for w in traced], op_scaled
        )
        units_of = layers.metric_units()
        metrics = {name: {"value": values[name], "unit": units_of[name]} for name in units_of}
    else:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in e2e.items()}
        layer_details = None

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started_utc": started_utc,
        "commit": git_commit(),
        "machine": machine_details(),
        "environment": environment,
        "load": "closed loop, 1 client, 1 process; nothing queues, so no waiting time is reported",
        "setup": {
            "import_s": import_s,
            "repeats_s": [wall_ms(w) / 1e3 for w in setup_windows],
            "repeats_scaled_s": [scaled_ms(w) / 1e3 for w in setup_windows],
        },
        "end_to_end": e2e,
        "wall": wall,
        "scaled_by_kernel": scaled_by_kernel,
        "reference_kernel": {
            "name": workload.reference_kernel, "nominal_ms": clock.nominal_ms, "ms": clock.kernel_ms,
        },
        "kernel_mix": clock.mix(),
        "named": {name: {"value": v, "unit": u} for name, (v, u) in named.items()},
        "op_ms": op_wall,
        "op_tail": workloads.tail_percentile(op_wall),
        "scaled_op_ms": op_scaled,
        "traced_op_ms": [wall_ms(w) for w in traced],
        "parts_ms": part_ms,
        "work_unit": workload.unit,
        "attempted": ledger.attempted,
        "failed": failed,
        "failures": ledger.failures[:10],
        "metrics": metrics,
        "layer_details": layer_details,
    }
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S%fZ")
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}"
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        (OUT / "trace").mkdir(parents=True, exist_ok=True)
        (OUT / "trace" / f"{stem}.json").write_text(json.dumps(tracer.to_json()) + "\n")

    print_report(record)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def print_report(record: dict) -> None:
    m = record["machine"]
    print(f"imeac benchmark  workload={record['workload']} seed={record['seed']} "
          f"seconds={record['seconds']:g} trace={record['trace']}")
    print(f"  {record['load']}")
    print(f"  machine: nproc={m['nproc']} cpu={m['cpu_model']!r} python={m['python']} "
          f"numpy={m['numpy']} blas={m['blas']}")
    print(f"  environment: {record['environment']}  commit={record['commit']}")
    print(f"  ops: {len(record['op_ms'])} untraced, {len(record['traced_op_ms'])} traced, "
          f"{record['attempted']} attempted incl. warm-ups")
    for failure in record["failures"]:
        print("  FAILED: " + failure.strip().replace("\n", "\n    "))
    kernel = record["reference_kernel"]
    for name, samples in kernel["ms"].items():
        print(f"reference kernel {name!r}: median {statistics.median(samples):.3f} ms over "
              f"{len(samples)} samples, nominal {kernel['nominal_ms'][name]} ms (bench/calibrate.py)")
    print(f"  gated times scaled by {kernel['name']!r}; kernel mix {record['kernel_mix']:.3f}")
    if record["trace"]:
        print("per layer (traced ops, wall clock; overhead from times scaled to nominal speed)")
    else:
        print(f"end to end (times scaled to nominal {kernel['name']!r} speed)")
    for name, metric in record["metrics"].items():
        value = "unmeasured" if metric["value"] is None else f"{metric['value']:.6g}"
        print(f"  {name:<34} {value:>14} {metric['unit']}")
    for name, values in record["scaled_by_kernel"].items():
        print(f"scaled by {name!r}: " + "  ".join(f"{k} {v:.6g}" for k, v in values.items()))
    print("wall clock")
    for name, value in record["wall"].items():
        print(f"  {name:<34} {value:>14.6g} {END_TO_END_UNITS[name]}")
    for name, metric in record["named"].items():
        print(f"  {name:<34} {metric['value']:>14.6g} {metric['unit']}")
    if record["op_tail"]:
        value, pct = record["op_tail"]
        print(f"  op tail: p{pct:.1f} = {value:.6g} ms over {len(record['op_ms'])} ops")


if __name__ == "__main__":
    sys.exit(main())
