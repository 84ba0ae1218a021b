"""Regenerate the bundled case files under src/imeac/cases/.

The WSCC 3-machine 9-bus case uses the classical textbook parameter set
(Anderson & Fouad, "Power System Control and Stability", 2nd ed.,
Ex. 2.6/2.7; same data as Sauer & Pai Ch. 7).  Its operating point is
solved here by a Newton power flow to ~1e-14 mismatch and embedded in
the case file, so loading needs no power-flow code and the pre-fault
equilibrium invariant holds to machine precision.

The SMIB case is the textbook equal-area benchmark (fault-on power
zero), the infinite bus modelled as a machine with M = 1e6.

The lossless three-machine star case backs the surface-consistency
checks: no transfer conductances, no branch between the two light
machines, a heavy hub, and mechanical powers summing to zero, which
together make the individual-machine potential path-independent to
well below the toolkit's quadrature tolerances.

Run from the repository root:  python scripts/make_cases.py
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

CASES_DIR = Path(__file__).resolve().parent.parent / "src" / "imeac" / "cases"

# bus data: id, type (slack/pv/pq), V setpoint (slack/pv), P gen, load P, load Q
WSCC_BUSES = {
    1: {"type": "slack", "v": 1.04},
    2: {"type": "pv", "v": 1.025, "p_gen": 1.63},
    3: {"type": "pv", "v": 1.025, "p_gen": 0.85},
    4: {"type": "pq"},
    5: {"type": "pq", "p_load": 1.25, "q_load": 0.50},
    6: {"type": "pq", "p_load": 0.90, "q_load": 0.30},
    7: {"type": "pq"},
    8: {"type": "pq", "p_load": 1.00, "q_load": 0.35},
    9: {"type": "pq"},
}

# from, to, r, x, total line-charging b
WSCC_BRANCHES = [
    (1, 4, 0.0, 0.0576, 0.0),
    (2, 7, 0.0, 0.0625, 0.0),
    (3, 9, 0.0, 0.0586, 0.0),
    (4, 5, 0.010, 0.085, 0.176),
    (4, 6, 0.017, 0.092, 0.158),
    (5, 7, 0.032, 0.161, 0.306),
    (6, 9, 0.039, 0.170, 0.358),
    (7, 8, 0.0085, 0.072, 0.149),
    (8, 9, 0.0119, 0.1008, 0.209),
]

WSCC_MACHINES = [
    {"machine": 0, "bus": 1, "H": 23.64, "xd_prime": 0.0608},
    {"machine": 1, "bus": 2, "H": 6.40, "xd_prime": 0.1198},
    {"machine": 2, "bus": 3, "H": 3.01, "xd_prime": 0.1813},
]


def ybus(n: int, branches) -> np.ndarray:
    y = np.zeros((n, n), dtype=complex)
    for f, t, r, x, b in branches:
        i, j = f - 1, t - 1
        ys = 1.0 / complex(r, x)
        y[i, i] += ys + 0.5j * b
        y[j, j] += ys + 0.5j * b
        y[i, j] -= ys
        y[j, i] -= ys
    return y


def solve_power_flow(tol: float = 1e-14, max_iter: int = 60):
    """Newton power flow for the WSCC system (finite-difference Jacobian)."""
    n = 9
    y = ybus(n, WSCC_BRANCHES)
    kinds = [WSCC_BUSES[i + 1]["type"] for i in range(n)]
    p_spec = np.array(
        [
            WSCC_BUSES[i + 1].get("p_gen", 0.0) - WSCC_BUSES[i + 1].get("p_load", 0.0)
            for i in range(n)
        ]
    )
    q_spec = np.array([-WSCC_BUSES[i + 1].get("q_load", 0.0) for i in range(n)])
    v_set = np.array([WSCC_BUSES[i + 1].get("v", 1.0) for i in range(n)])

    ang_idx = [i for i in range(n) if kinds[i] != "slack"]
    mag_idx = [i for i in range(n) if kinds[i] == "pq"]

    def mismatch(x: np.ndarray) -> np.ndarray:
        theta = np.zeros(n)
        vm = v_set.copy()
        theta[ang_idx] = x[: len(ang_idx)]
        vm[mag_idx] = x[len(ang_idx):]
        v = vm * np.exp(1j * theta)
        s = v * np.conj(y @ v)
        return np.concatenate(
            [(s.real - p_spec)[ang_idx], (s.imag - q_spec)[mag_idx]]
        )

    x = np.concatenate([np.zeros(len(ang_idx)), v_set[mag_idx]])
    for _ in range(max_iter):
        f = mismatch(x)
        if np.max(np.abs(f)) < tol:
            break
        jac = np.empty((len(x), len(x)))
        h = 1e-7
        for k in range(len(x)):
            xp = x.copy()
            xp[k] += h
            jac[:, k] = (mismatch(xp) - f) / h
        x = x + np.linalg.solve(jac, -f)
    theta = np.zeros(n)
    vm = v_set.copy()
    theta[ang_idx] = x[: len(ang_idx)]
    vm[mag_idx] = x[len(ang_idx):]
    v = vm * np.exp(1j * theta)
    s = v * np.conj(y @ v)
    return vm, theta, s, np.max(np.abs(mismatch(x)))


def make_wscc9() -> dict:
    vm, theta, s, residual = solve_power_flow()
    print(f"WSCC power flow residual: {residual:.3e}")
    for i in range(9):
        print(f"  bus {i + 1}: V = {vm[i]:.6f} ang {math.degrees(theta[i]):8.4f} deg")
    buses = []
    for i in range(9):
        entry = {
            "id": i + 1,
            "vm": vm[i],
            "va_deg": math.degrees(theta[i]),
        }
        data = WSCC_BUSES[i + 1]
        if data.get("p_load"):
            entry["p_load"] = data["p_load"]
            entry["q_load"] = data["q_load"]
        buses.append(entry)
    generators = []
    for gen in WSCC_MACHINES:
        bus = gen["bus"] - 1
        generators.append(
            {
                "machine": gen["machine"],
                "bus": gen["bus"],
                "xd_prime": gen["xd_prime"],
                "p_gen": s.real[bus] + WSCC_BUSES[gen["bus"]].get("p_load", 0.0),
                "q_gen": s.imag[bus] + WSCC_BUSES[gen["bus"]].get("q_load", 0.0),
            }
        )
    return {
        "label": "WSCC 3-machine 9-bus, classical model, bus-7 fault clearing line 5-7",
        "base_frequency_hz": 60.0,
        "machines": [
            {"id": gen["machine"], "H": gen["H"], "D": 0.0} for gen in WSCC_MACHINES
        ],
        "network_raw": {
            "buses": buses,
            "branches": [
                {"from_bus": f, "to_bus": t, "r": r, "x": x, "b": b}
                for f, t, r, x, b in WSCC_BRANCHES
            ],
            "generators": generators,
            "fault": {"bus": 7, "cleared_branch": {"from_bus": 5, "to_bus": 7}},
        },
    }


def make_smib() -> dict:
    b12 = 1.8
    delta0 = math.degrees(math.asin(1.0 / b12))
    net = {"G": [[0.0, 0.0], [0.0, 0.0]], "B": [[-b12, b12], [b12, -b12]]}
    dead = {"G": [[0.0, 0.0], [0.0, 0.0]], "B": [[0.0, 0.0], [0.0, 0.0]]}
    return {
        "label": "single machine vs infinite bus, fault-on power zero",
        "base_frequency_hz": 60.0,
        "machines": [
            {"id": 0, "H": 5.0, "Pm": 1.0, "E": 1.0, "D": 0.0},
            {"id": 1, "M": 1.0e6, "Pm": -1.0, "E": 1.0, "D": 0.0},
        ],
        "networks": {
            "delta0_deg": [delta0, 0.0],
            "reduced": {"prefault": net, "faulton": dead, "postfault": net},
        },
    }


def make_threebus_lossless() -> dict:
    b01, b02 = 1.2, 1.0
    p1, p2 = 0.6, 0.3
    delta1 = math.degrees(math.asin(p1 / b01))
    delta2 = math.degrees(math.asin(p2 / b02))
    pre = {
        "G": [[0.0] * 3 for _ in range(3)],
        "B": [
            [-(b01 + b02), b01, b02],
            [b01, -b01, 0.0],
            [b02, 0.0, -b02],
        ],
    }
    b01_f, b02_f = 0.0, 0.3
    fault = {
        "G": [[0.0] * 3 for _ in range(3)],
        "B": [
            [-(b01_f + b02_f), b01_f, b02_f],
            [b01_f, -b01_f, 0.0],
            [b02_f, 0.0, -b02_f],
        ],
    }
    return {
        "label": "lossless 3-machine star, heavy hub, surface benchmark",
        "base_frequency_hz": 60.0,
        "machines": [
            {"id": 0, "M": 1.0e6, "Pm": -(p1 + p2), "E": 1.0, "D": 0.0},
            {"id": 1, "H": 5.0, "Pm": p1, "E": 1.0, "D": 0.0},
            {"id": 2, "H": 3.75, "Pm": p2, "E": 1.0, "D": 0.0},
        ],
        "networks": {
            "delta0_deg": [0.0, delta1, delta2],
            "reduced": {"prefault": pre, "faulton": fault, "postfault": pre},
        },
    }


def main() -> None:
    CASES_DIR.mkdir(parents=True, exist_ok=True)
    for name, doc in (
        ("wscc9", make_wscc9()),
        ("smib", make_smib()),
        ("threebus_lossless", make_threebus_lossless()),
    ):
        path = CASES_DIR / f"{name}.json"
        path.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"wrote {path}")

    from imeac import load_bundled, solve_postfault_sep
    from imeac.case import mismatch, network_products

    for name in ("wscc9", "smib", "threebus_lossless"):
        case = load_bundled(name)
        products = network_products(case.net_prefault, case.e_vector())
        eq = np.max(np.abs(mismatch(products, case.pm_vector(), case.delta0)))
        sep = solve_postfault_sep(case)
        print(
            f"{name}: pre-fault residual {eq:.3e}, "
            f"SEP converged={sep.converged} residual {sep.residual:.3e}"
        )


if __name__ == "__main__":
    main()
