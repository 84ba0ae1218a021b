"""Case file ingestion: JSON schema, validation, bundled cases.

A case file is a single JSON document.  Machines are always listed
under "machines"; the network comes in one of two forms:

explicit form ("networks"): the three reduced G/B matrices plus the
initial rotor angles::

    {
      "label": "...",
      "base_frequency_hz": 60.0,
      "machines": [{"id": 0, "H": 5.0, "Pm": 1.0, "E": 1.0, "D": 0.0}, ...],
      "networks": {
        "delta0_deg": [...],          # initial rotor angles, degrees
        "omega0": [...],              # optional, rad/s, default zeros
        "reduced": {
          "prefault":  {"G": [[...]], "B": [[...]]},
          "faulton":   {"G": [[...]], "B": [[...]]},
          "postfault": {"G": [[...]], "B": [[...]]}
        }
      }
    }

raw form ("network_raw"): buses, branches, loads and a solved operating
point; loading performs the classical-model preprocessing (loads to
constant admittances, internal nodes behind x'd, Kron reduction) and
derives each machine's EMF, initial angle and mechanical power::

    {
      "machines": [{"id": 0, "H": 23.64, "D": 0.0}, ...],
      "network_raw": {
        "buses":    [{"id": 1, "vm": 1.04, "va_deg": 0.0,
                      "p_load": 0.0, "q_load": 0.0}, ...],
        "branches": [{"from_bus": 4, "to_bus": 5,
                      "r": 0.01, "x": 0.085, "b": 0.176}, ...],
        "generators": [{"machine": 0, "bus": 1, "xd_prime": 0.0608,
                        "p_gen": 0.716, "q_gen": 0.2705}, ...],
        "fault": {"bus": 7, "cleared_branch": {"from_bus": 5, "to_bus": 7}}
      }
    }

In the raw form "Pm"/"E" must not appear on machines (they are derived);
bus voltages must be a solved power flow, or the pre-fault equilibrium
check rejects the case.  Angles in files are degrees; everything is
radians once loaded.  Bundled cases live in the package "cases/"
directory and load via ``load_bundled(name)`` or the CLI path
``bundled:<name>``.
"""

from __future__ import annotations

import json
import math
from importlib import resources
from pathlib import Path

import numpy as np

from .case import MachineParams, ReducedNetwork, StabilityCase
from .errors import CaseFormatError, CaseValidationError, NetworkReductionError
from .network import internal_emf, staged_reduction

BUNDLED_PREFIX = "bundled:"


def _require(doc: dict, key: str, kind, where: str):
    if not isinstance(doc, dict):
        raise CaseValidationError(where, "expected an object")
    if key not in doc:
        raise CaseValidationError(f"{where}.{key}", "missing required field")
    value = doc[key]
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise CaseValidationError(f"{where}.{key}", "expected a number")
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            number = math.inf
        if not math.isfinite(number):  # json also reads NaN, Infinity and 1e999
            raise CaseValidationError(f"{where}.{key}", "expected a finite number")
        return number
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise CaseValidationError(f"{where}.{key}", "expected an integer")
        return value
    if not isinstance(value, kind):
        raise CaseValidationError(f"{where}.{key}", f"expected {kind.__name__}")
    return value


def _number(doc: dict, key: str, where: str) -> float:
    """An optional number field, 0 when absent."""
    return _require(doc, key, float, where) if key in doc else 0.0


def _positive(doc: dict, key: str, where: str) -> float:
    value = _require(doc, key, float, where)
    if not value > 0.0:
        raise CaseValidationError(f"{where}.{key}", "must be > 0")
    return value


def _machine_inertia(entry: dict, where: str, omega_syn: float | None) -> float:
    if "M" in entry:
        return _require(entry, "M", float, where)
    if "H" in entry:
        if omega_syn is None:
            raise CaseValidationError(
                "base_frequency_hz", "required when machines specify H"
            )
        return 2.0 * _require(entry, "H", float, where) / omega_syn
    raise CaseValidationError(f"{where}.M", "machine needs M or H")


def _parse_array(doc: dict, key: str, shape: tuple[int, ...], where: str) -> np.ndarray:
    """A numeric list (shape (n,)) or matrix (shape (n, n)) field."""
    raw = _require(doc, key, list, where)
    try:
        arr = np.array(raw, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise CaseValidationError(f"{where}.{key}", "not a numeric array") from exc
    if arr.shape != shape:
        raise CaseValidationError(
            f"{where}.{key}", f"shape {arr.shape} does not match machine count {shape[0]}"
        )
    # numpy would read true/false as 1/0 and "1.5" as 1.5
    if any(isinstance(v, (bool, str)) for v in np.array(raw, dtype=object).ravel()):
        raise CaseValidationError(f"{where}.{key}", "entries must be numbers")
    if not np.isfinite(arr).all():
        raise CaseValidationError(f"{where}.{key}", "non-finite entry")
    return arr


def case_from_dict(doc: dict, label: str = "") -> StabilityCase:
    """Build and validate a StabilityCase from a parsed case document."""
    if not isinstance(doc, dict):
        raise CaseFormatError("case document must be a JSON object")
    label = doc.get("label", label)
    omega_syn = None
    if "base_frequency_hz" in doc:
        omega_syn = 2.0 * math.pi * _positive(doc, "base_frequency_hz", "case")

    raw_machines = _require(doc, "machines", list, "case")
    if not raw_machines:
        raise CaseValidationError("machines", "at least one machine required")
    has_raw = "network_raw" in doc
    has_explicit = "networks" in doc
    if has_raw == has_explicit:
        raise CaseValidationError(
            "networks", "exactly one of 'networks' or 'network_raw' required"
        )

    n = len(raw_machines)
    inertia = np.empty(n)
    damping = np.empty(n)
    for k, entry in enumerate(raw_machines):
        where = f"machines[{k}]"
        if not isinstance(entry, dict):
            raise CaseValidationError(where, "expected an object")
        if _require(entry, "id", int, where) != k:
            raise CaseValidationError(f"{where}.id", "machines must be listed as id 0..n-1")
        inertia[k] = _machine_inertia(entry, where, omega_syn)
        damping[k] = _number(entry, "D", where)

    if has_explicit:
        pm = np.empty(n)
        emf = np.empty(n)
        for k, entry in enumerate(raw_machines):
            where = f"machines[{k}]"
            pm[k] = _require(entry, "Pm", float, where)
            emf[k] = _require(entry, "E", float, where)
        nets_doc = _require(doc, "networks", dict, "case")
        delta0 = np.deg2rad(_parse_array(nets_doc, "delta0_deg", (n,), "networks"))
        omega0 = (
            _parse_array(nets_doc, "omega0", (n,), "networks")
            if "omega0" in nets_doc
            else np.zeros(n)
        )
        reduced = _require(nets_doc, "reduced", dict, "networks")
        nets = {}
        for stage in ("prefault", "faulton", "postfault"):
            stage_doc = _require(reduced, stage, dict, "networks.reduced")
            where = f"networks.reduced.{stage}"
            nets[stage] = ReducedNetwork(
                g=_parse_array(stage_doc, "G", (n, n), where),
                b=_parse_array(stage_doc, "B", (n, n), where),
                name=f"net_{stage}",
            )
    else:
        for k, entry in enumerate(raw_machines):
            for banned in ("Pm", "E"):
                if banned in entry:
                    raise CaseValidationError(
                        f"machines[{k}].{banned}",
                        "not allowed with network_raw (derived from the power flow)",
                    )
        pm, emf, delta0, nets = _build_raw(doc["network_raw"], n)
        omega0 = np.zeros(n)

    machines = tuple(
        MachineParams(id=k, m=inertia[k], pm=pm[k], e=emf[k], d=damping[k])
        for k in range(n)
    )
    return StabilityCase(
        machines=machines,
        net_prefault=nets["prefault"],
        net_faulton=nets["faulton"],
        net_postfault=nets["postfault"],
        delta0=delta0,
        omega0=omega0,
        label=label,
    )


def _build_raw(raw: dict, n: int):
    if not isinstance(raw, dict):
        raise CaseValidationError("network_raw", "expected an object")
    buses = _require(raw, "buses", list, "network_raw")
    bus_index = {}
    vm = np.empty(len(buses))
    va = np.empty(len(buses))
    load_y = np.zeros(len(buses), dtype=complex)
    for k, entry in enumerate(buses):
        where = f"network_raw.buses[{k}]"
        bid = _require(entry, "id", int, where)
        if bid in bus_index:
            raise CaseValidationError(f"{where}.id", f"duplicate bus id {bid}")
        bus_index[bid] = k
        vm[k] = _positive(entry, "vm", where)
        va[k] = math.radians(_require(entry, "va_deg", float, where))
        p_load = _number(entry, "p_load", where)
        q_load = _number(entry, "q_load", where)
        if p_load or q_load:
            load_y[k] = complex(p_load, -q_load) / vm[k] ** 2

    def bus_ref(doc: dict, key: str, where: str) -> int:
        bid = _require(doc, key, int, where)
        if bid not in bus_index:
            raise CaseValidationError(f"{where}.{key}", f"unknown bus id {bid}")
        return bus_index[bid]

    branches = []
    for k, entry in enumerate(_require(raw, "branches", list, "network_raw")):
        where = f"network_raw.branches[{k}]"
        branch = (
            bus_ref(entry, "from_bus", where),
            bus_ref(entry, "to_bus", where),
            _number(entry, "r", where),
            _require(entry, "x", float, where),
            _number(entry, "b", where),
        )
        if branch[2] == branch[3] == 0.0:
            raise CaseValidationError(f"{where}.x", "zero series impedance")
        branches.append(branch)

    gens = _require(raw, "generators", list, "network_raw")
    if len(gens) != n:
        raise CaseValidationError(
            "network_raw.generators", f"{len(gens)} entries for {n} machines"
        )
    gen_bus = np.empty(n, dtype=int)
    xd_prime = np.empty(n)
    pm = np.empty(n)
    emf = np.empty(n)
    delta0 = np.empty(n)
    seen = set()
    for g, entry in enumerate(gens):
        where = f"network_raw.generators[{g}]"
        k = _require(entry, "machine", int, where)
        if k in seen or not 0 <= k < n:
            raise CaseValidationError(f"{where}.machine", f"bad machine index {k}")
        seen.add(k)
        gen_bus[k] = bus_ref(entry, "bus", where)
        xd_prime[k] = _positive(entry, "xd_prime", where)
        p_gen = _require(entry, "p_gen", float, where)
        q_gen = _require(entry, "q_gen", float, where)
        v_term = vm[gen_bus[k]] * np.exp(1j * va[gen_bus[k]])
        e_phasor = internal_emf(v_term, p_gen, q_gen, xd_prime[k])
        emf[k] = abs(e_phasor)
        delta0[k] = np.angle(e_phasor)
        pm[k] = p_gen

    fault = _require(raw, "fault", dict, "network_raw")
    fault_bus = bus_ref(fault, "bus", "network_raw.fault")
    cleared = _require(fault, "cleared_branch", dict, "network_raw.fault")
    cleared_pair = (
        bus_ref(cleared, "from_bus", "network_raw.fault.cleared_branch"),
        bus_ref(cleared, "to_bus", "network_raw.fault.cleared_branch"),
    )
    try:
        nets = dict(zip(("prefault", "faulton", "postfault"), staged_reduction(
            len(buses), branches, load_y, gen_bus, xd_prime, fault_bus, cleared_pair)))
    except NetworkReductionError as exc:  # name the file's bus ids, not matrix positions
        raise NetworkReductionError([list(bus_index)[b] for b in exc.buses], exc.reason) from exc
    return pm, emf, delta0, nets


def load_case(path: str | Path) -> StabilityCase:
    """Load and validate a case file (or a ``bundled:<name>`` reference)."""
    text_path = str(path)
    if text_path.startswith(BUNDLED_PREFIX):
        return load_bundled(text_path[len(BUNDLED_PREFIX):])
    p = Path(path)
    if not p.is_file():
        raise CaseFormatError(f"case file not found: {p}")
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise CaseFormatError(f"malformed case file {p}: {exc}") from exc
    return case_from_dict(doc, label=p.stem)


def bundled_case_names() -> list[str]:
    root = resources.files("imeac").joinpath("cases")
    return sorted(item.name[:-5] for item in root.iterdir() if item.name.endswith(".json"))


def load_bundled(name: str) -> StabilityCase:
    """Load one of the cases shipped with the package."""
    root = resources.files("imeac").joinpath("cases")
    entry = root.joinpath(f"{name}.json")
    if not entry.is_file():
        raise CaseFormatError(
            f"no bundled case '{name}' (available: {', '.join(bundled_case_names())})"
        )
    doc = json.loads(entry.read_text())
    return case_from_dict(doc, label=name)
