"""imeac's layers as wrap targets, and the per-layer metrics of a trace.

Layers are named by module.  Each lists every name under which a
caller looks the layer's public function up, so the wrap catches the
call whichever pipeline makes it (CLI, probe, surface).  The counter
functions read work counts off the call's arguments and result.

Every per-layer figure is per traced op: self times in ms, counts as
plain numbers.  ``<layer>.share`` is the layer's self time over the
traced ops' wall time; ``other.share`` is the op's own remainder (the
API function's glue outside every wrapped layer).
"""

from __future__ import annotations

import statistics
from typing import Callable

from tracer import Target, Tracer

FLOAT_BYTES = 8


def _simulate_counts(call, traj) -> dict:
    steps = traj.n_samples - 1
    return {"steps": steps, "fault_on_steps": min(call.arguments["cfg"].clear_index, steps)}


def _rows_written(call, _result) -> dict:
    return {"rows": call.arguments["traj"].n_samples}


def _detect_counts(call, events) -> dict:
    traj = call.arguments["traj"]
    start = min(traj.clear_index, traj.n_samples - 1)
    return {
        "samples": traj.n_machines * (traj.n_samples - 1 - start),
        "found": sum(len(machine) for machine in events),
    }


def _quadrature_counts(call, _result) -> dict:
    return {"path_points": call.arguments["nodes"].shape[0] * (call.arguments["segments"] + 1)}


def _kernel_bytes(call, _result) -> dict:
    """Bytes of the batched force kernel, computed from array shapes.

    Per path point: four n x n temporaries (angle differences, cos,
    sin, G cos + B sin) plus the angle, power and force vectors.
    Cache behaviour is not modelled; the figure is labelled computed.
    """
    shape = call.arguments["delta"].shape
    n = shape[-1]
    points = 1
    for dim in shape[:-1]:
        points *= dim
    return {"bytes": FLOAT_BYTES * points * (4 * n * n + 3 * n)}


LAYERS: dict[str, list[Target]] = {
    "caseio.load": [Target("imeac.cli.load_case")],
    "network.kron": [Target("imeac.network.kron_reduce")],
    "case.sep": [
        Target("imeac.cli.solve_postfault_sep"),
        Target("imeac.cct.solve_postfault_sep"),
        Target("imeac.surface.solve_postfault_sep"),
    ],
    "case.coi_forces": [
        Target("imeac.surface.coi_forces", _kernel_bytes),
        Target("imeac.energy.coi_forces"),
        Target("imeac.case.coi_forces"),
    ],
    "dynamics.simulate": [
        Target("imeac.cct.simulate", _simulate_counts),
        Target("imeac.cli.simulate", _simulate_counts),
        Target("imeac.surface.simulate", _simulate_counts),
    ],
    "dynamics.write_trajectory": [Target("imeac.cli.write_trajectory", _rows_written)],
    "energy.compute_energy": [
        Target("imeac.cct.compute_energy"),
        Target("imeac.cli.compute_energy"),
        Target("imeac.surface.compute_energy"),
    ],
    "events.detect": [
        Target("imeac.cct.detect_events", _detect_counts),
        Target("imeac.cli.detect_events", _detect_counts),
    ],
    "assess.assess": [
        Target("imeac.cct.assess_machines"),
        Target("imeac.cct.assess_system"),
        Target("imeac.cli.assess_machines"),
        Target("imeac.cli.assess_system"),
    ],
    "assess.export": [
        Target("imeac.cli.write_events"),
        Target("imeac.cli.write_margins"),
        Target("imeac.cli.write_verdict"),
    ],
    "cct.probe": [Target("imeac.cct.probe_clearing_time")],
    "surface.quadrature": [Target("imeac.surface.pe_line_to_nodes", _quadrature_counts)],
    "surface.write": [Target("imeac.surface.write_surface_grid")],
    "cli.main": [Target("imeac.cli.main")],
}

# self-time metric name of each layer (cct.probe and cli.main keep the
# names the layer table uses)
TIME_METRIC = {
    "caseio.load": "caseio.load_ms",
    "network.kron": "network.kron_ms",
    "case.sep": "case.sep_ms",
    "case.coi_forces": "case.coi_forces_ms",
    "dynamics.simulate": "dynamics.simulate_ms",
    "dynamics.write_trajectory": "dynamics.write_trajectory_ms",
    "energy.compute_energy": "energy.compute_energy_ms",
    "events.detect": "events.detect_ms",
    "assess.assess": "assess.assess_ms",
    "assess.export": "assess.export_ms",
    "cct.probe": "cct.probe_self_ms",
    "surface.quadrature": "surface.quadrature_ms",
    "surface.write": "surface.write_ms",
    "cli.main": "cli.self_ms",
}

SHARE_METRIC = {layer: f"{layer}.share" for layer in TIME_METRIC}
SHARE_METRIC["cli.main"] = "cli.self.share"

# (metric, unit, layer whose targets must exist for it to be measured)
COUNT_METRICS = [
    ("case.sep_calls", "count", "case.sep"),
    ("case.coi_forces_calls", "count", "case.coi_forces"),
    ("dynamics.simulate_calls", "count", "dynamics.simulate"),
    ("dynamics.steps", "count", "dynamics.simulate"),
    ("dynamics.us_per_step", "us", "dynamics.simulate"),
    ("dynamics.prefix_redundant_frac", "frac", "dynamics.simulate"),
    ("dynamics.rows_written", "count", "dynamics.write_trajectory"),
    ("events.samples_scanned", "count", "events.detect"),
    ("events.ns_per_sample", "ns", "events.detect"),
    ("events.found", "count", "events.detect"),
    ("cct.probes", "count", "cct.probe"),
    ("cct.rounds", "count", "cct.probe"),
    ("surface.path_points", "count", "surface.quadrature"),
    ("surface.ns_per_path_point", "ns", "surface.quadrature"),
    ("surface.kernel_bytes_computed", "bytes", "case.coi_forces"),
]


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {name: "ms" for name in TIME_METRIC.values()}
    units.update({name: unit for name, unit, _ in COUNT_METRICS})
    units.update({name: "frac" for name in SHARE_METRIC.values()})
    units["other.share"] = "frac"
    units["trace.overhead_frac"] = "frac"
    return units


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(
    tracer: Tracer,
    length: Callable[[float, float], float],
    traced_ms: list[float],
    untraced_ms: list[float],
) -> tuple[dict[str, float | None], dict]:
    """Per-op layer figures from the traced ops, plus inclusive timings.

    length(start, end) gives a span's duration (the run's clock deducts
    its own sampling).  traced_ms and untraced_ms are op times on a
    common scale for the overhead figure.  Returns (metrics, details):
    metrics maps every per-layer metric to its value, or None where the
    layer's wrap targets are all missing; details holds per-call
    inclusive times for the baseline report.
    """
    spans = tracer.spans
    duration = tracer.durations(length)
    own = tracer.self_times(duration)
    ops = [i for i, s in enumerate(spans) if s.name == "op"]
    n_ops = len(ops)
    op_wall = sum(duration[i] for i in ops)

    self_ms = {layer: 0.0 for layer in LAYERS}
    incl_ms = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    totals: dict[str, float] = {}
    fault_on: dict[int, list[int]] = {}
    rounds = 0
    for i, s in enumerate(spans):
        if s.name == "op":
            continue
        self_ms[s.name] += own[i] * 1e3
        incl_ms[s.name] += duration[i] * 1e3
        calls[s.name] += 1
        for key, value in s.counts.items():
            if key != "fault_on_steps":
                totals[f"{s.name}.{key}"] = totals.get(f"{s.name}.{key}", 0) + value
        if "fault_on_steps" in s.counts:
            fault_on.setdefault(s.op, []).append(s.counts["fault_on_steps"])
        if (
            s.name == "cct.probe"
            and s.parent is not None
            and spans[s.parent].counts.get("api") == "find_cct"
        ):
            rounds += 1

    # all probes of one op share the fault-on trajectory up to their
    # own clearing sample: only the longest prefix is new work
    all_prefix = sum(sum(v) for v in fault_on.values())
    redundant = sum(sum(v) - max(v) for v in fault_on.values())

    def per_op(x: float) -> float:
        return _ratio(x, n_ops)

    steps = totals.get("dynamics.simulate.steps", 0)
    samples = totals.get("events.detect.samples", 0)
    points = totals.get("surface.quadrature.path_points", 0)
    values: dict[str, float | None] = {}
    for layer, name in TIME_METRIC.items():
        values[name] = per_op(self_ms[layer])
        values[SHARE_METRIC[layer]] = _ratio(self_ms[layer], op_wall * 1e3)
    values.update({
        "case.sep_calls": per_op(calls["case.sep"]),
        "case.coi_forces_calls": per_op(calls["case.coi_forces"]),
        "dynamics.simulate_calls": per_op(calls["dynamics.simulate"]),
        "dynamics.steps": per_op(steps),
        "dynamics.us_per_step": _ratio(incl_ms["dynamics.simulate"] * 1e3, steps),
        "dynamics.prefix_redundant_frac": _ratio(redundant, all_prefix),
        "dynamics.rows_written": per_op(totals.get("dynamics.write_trajectory.rows", 0)),
        "events.samples_scanned": per_op(samples),
        "events.ns_per_sample": _ratio(self_ms["events.detect"] * 1e6, samples),
        "events.found": per_op(totals.get("events.detect.found", 0)),
        "cct.probes": per_op(calls["cct.probe"]),
        "cct.rounds": per_op(rounds),
        "surface.path_points": per_op(points),
        "surface.ns_per_path_point": _ratio(incl_ms["surface.quadrature"] * 1e6, points),
        "surface.kernel_bytes_computed": per_op(totals.get("case.coi_forces.bytes", 0)),
    })
    op_self = sum(own[i] for i in ops)
    values["other.share"] = _ratio(op_self, op_wall)
    traced, untraced = statistics.median(traced_ms), statistics.median(untraced_ms)
    values["trace.overhead_frac"] = (traced - untraced) / untraced

    for layer, name in TIME_METRIC.items():
        if not tracer.layer_measured(layer):
            values[name] = values[SHARE_METRIC[layer]] = None
    for name, _unit, layer in COUNT_METRICS:
        if not tracer.layer_measured(layer):
            values[name] = None

    details = {
        "traced_ops": n_ops,
        "inclusive_ms_per_call": {
            layer: _ratio(incl_ms[layer], calls[layer]) for layer in LAYERS if calls[layer]
        },
        "calls_per_op": {layer: per_op(calls[layer]) for layer in LAYERS},
        "unmeasured_targets": tracer.unmeasured,
    }
    return values, details
