"""Case files: schema validation, raw-network building, bundled data."""

from __future__ import annotations

import json
import math
from importlib import resources

import numpy as np
import pytest

from imeac import (
    CaseFormatError,
    CaseValidationError,
    NetworkReductionError,
    load_bundled,
    load_case,
)
from imeac.caseio import bundled_case_names, case_from_dict
from test_cli import run_quiet


def explicit_doc() -> dict:
    """A minimal valid two-machine document in the explicit form."""
    pm, b = 0.8, 1.5
    d01 = math.degrees(math.asin(pm / b))
    zero = [[0.0, 0.0], [0.0, 0.0]]

    def net(bval):
        return {"G": zero, "B": [[-bval, bval], [bval, -bval]]}

    return {
        "label": "pair",
        "machines": [
            {"id": 0, "M": 0.05, "Pm": pm, "E": 1.0},
            {"id": 1, "M": 0.08, "Pm": -pm, "E": 1.0},
        ],
        "networks": {
            "delta0_deg": [d01, 0.0],
            "reduced": {
                "prefault": net(b),
                "faulton": net(0.0),
                "postfault": net(b),
            },
        },
    }


class TestExplicitForm:
    def test_valid_document(self):
        case = case_from_dict(explicit_doc())
        assert case.n == 2
        assert case.label == "pair"
        assert case.machines[1].pm == -0.8
        assert case.delta0[0] == pytest.approx(math.asin(0.8 / 1.5))
        np.testing.assert_allclose(case.omega0, 0.0)

    def test_inertia_from_h_needs_base_frequency(self):
        doc = explicit_doc()
        doc["machines"][0] = {"id": 0, "H": 5.0, "Pm": 0.8, "E": 1.0}
        with pytest.raises(CaseValidationError, match="base_frequency_hz"):
            case_from_dict(doc)
        doc["base_frequency_hz"] = 60.0
        case = case_from_dict(doc)
        assert case.machines[0].m == pytest.approx(10.0 / (2 * math.pi * 60.0))

    def test_missing_machines_field(self):
        doc = explicit_doc()
        del doc["machines"]
        with pytest.raises(CaseValidationError, match="machines"):
            case_from_dict(doc)

    def test_machine_order_enforced(self):
        doc = explicit_doc()
        doc["machines"] = doc["machines"][::-1]
        with pytest.raises(CaseValidationError, match="0..n-1"):
            case_from_dict(doc)

    def test_wrong_matrix_shape_names_the_stage(self):
        doc = explicit_doc()
        doc["networks"]["reduced"]["faulton"]["B"] = [[0.0]]
        with pytest.raises(CaseValidationError, match="faulton"):
            case_from_dict(doc)

    def test_both_network_forms_rejected(self):
        doc = explicit_doc()
        doc["network_raw"] = {}
        with pytest.raises(CaseValidationError, match="exactly one"):
            case_from_dict(doc)

    def test_wrong_field_type_names_the_field(self):
        doc = explicit_doc()
        doc["machines"][0]["M"] = "heavy"
        with pytest.raises(CaseValidationError, match=r"machines\[0\]"):
            case_from_dict(doc)


    def test_nan_network_entry_names_the_field(self):
        doc = explicit_doc()
        b = doc["networks"]["reduced"]["postfault"]["B"]
        b[0][1] = b[1][0] = math.nan
        with pytest.raises(CaseValidationError, match=r"networks\.reduced\.postfault\.B"):
            case_from_dict(doc)

    @pytest.mark.parametrize(
        "entry, match",
        [
            ({"D": "x"}, r"machines\[0\]\.D: expected a number"),
            ({"D": math.inf}, r"machines\[0\]\.D: expected a finite number"),
            ({"M": 10**400}, r"machines\[0\]\.M: expected a finite number"),
        ],
    )
    def test_machine_numbers_name_the_field(self, entry, match):
        doc = explicit_doc()
        doc["machines"][0].update(entry)
        with pytest.raises(CaseValidationError, match=match):
            case_from_dict(doc)

    @pytest.mark.parametrize("bad", ["12.5", True, None])
    def test_array_entries_must_be_numbers(self, bad):
        # numpy alone would read "12.5" as 12.5, true as 1 and null as nan
        doc = explicit_doc()
        doc["networks"]["delta0_deg"][1] = bad
        with pytest.raises(CaseValidationError, match=r"networks\.delta0_deg"):
            case_from_dict(doc)


def wscc_raw_doc() -> dict:
    return json.loads((resources.files("imeac") / "cases" / "wscc9.json").read_text())


class TestRawForm:
    @pytest.mark.parametrize(
        "path, value, match",
        [
            (("base_frequency_hz",), 0.0, r"base_frequency_hz: must be > 0"),
            (("network_raw", "buses", 4, "p_load"), "x", r"buses\[4\]\.p_load"),
            (("network_raw", "buses", 4, "vm"), 0.0, r"buses\[4\]\.vm: must be > 0"),
            (("network_raw", "branches", 0, "b"), None, r"branches\[0\]\.b"),
            (("network_raw", "branches", 0, "x"), 0.0, r"branches\[0\]\.x: zero series"),
            (("network_raw", "generators", 0, "xd_prime"), 0.0, r"xd_prime: must be > 0"),
            (("network_raw", "buses", 2), [], r"buses\[2\]: expected an object"),
        ],
    )
    def test_bad_field_is_named(self, path, value, match):
        # each of these used to end in a bare ValueError, TypeError or
        # ZeroDivisionError without a field name
        doc = wscc_raw_doc()
        parent = doc
        for step in path[:-1]:
            parent = parent[step]
        parent[path[-1]] = value
        with pytest.raises(CaseValidationError, match=match):
            case_from_dict(doc)

    def test_pm_forbidden(self):
        doc = explicit_doc()
        del doc["networks"]
        doc["network_raw"] = {"buses": [], "branches": [], "generators": [], "fault": {}}
        doc["machines"][0] = {"id": 0, "M": 0.05, "Pm": 0.8}
        doc["machines"][1] = {"id": 1, "M": 0.08}
        with pytest.raises(CaseValidationError, match="power flow"):
            case_from_dict(doc)

    def test_wscc_raw_build_is_consistent(self, wscc):
        # the bundled raw case must load into a self-consistent
        # equilibrium (the constructor enforces |Pm - Pe| < 1e-6)
        assert wscc.n == 3
        assert all(m.pm > 0.0 for m in wscc.machines)
        assert all(m.e > 0.5 for m in wscc.machines)
        # fault-on coupling must be strictly weaker than pre-fault
        assert wscc.net_faulton.b[0, 1] < wscc.net_prefault.b[0, 1]


def without_m(doc):
    del doc["machines"][0]["M"]


def no_machines(doc):
    doc["machines"] = []


def raw_not_an_object(doc):
    doc["network_raw"] = [1, 2]


def duplicate_bus(doc):
    doc["network_raw"]["buses"][1]["id"] = 1


def unknown_bus(doc):
    doc["network_raw"]["branches"][0]["to_bus"] = 99


def two_generators(doc):
    del doc["network_raw"]["generators"][2]


def generator_index(doc):
    doc["network_raw"]["generators"][1]["machine"] = 3


def generator_bus(doc):
    doc["network_raw"]["generators"][1]["bus"] = 99


def generator_xd_prime(doc):
    doc["network_raw"]["generators"][1]["xd_prime"] = -0.1


def parallel_cleared_branch(doc):
    # a twin of the cleared branch, from bus 5 to bus 7 (positions 4 and 6)
    branches = doc["network_raw"]["branches"]
    branches.append(next(dict(br) for br in branches if (br["from_bus"], br["to_bus"]) == (5, 7)))


def unknown_cleared_branch(doc):
    # buses 1 and 2 (positions 0 and 1) share no branch
    doc["network_raw"]["fault"]["cleared_branch"] = {"from_bus": 1, "to_bus": 2}


def isolated_bus(doc):
    # a bus with no branch and no load: the eliminated subnetwork is singular
    doc["network_raw"]["buses"].append({"id": 10, "vm": 1.0, "va_deg": 0.0})


class TestInputErrorsNameTheirField:
    """Each bad case document raises an error naming its field, and the CLI prints it as one line."""

    @pytest.mark.parametrize(
        "doc, mutate, error, named",
        [
            (explicit_doc, without_m, CaseValidationError, "machines[0].M"),
            (explicit_doc, no_machines, CaseValidationError, "machines"),
            (wscc_raw_doc, raw_not_an_object, CaseValidationError, "network_raw"),
            (wscc_raw_doc, duplicate_bus, CaseValidationError, "network_raw.buses[1].id"),
            (wscc_raw_doc, unknown_bus, CaseValidationError, "network_raw.branches[0].to_bus"),
            (wscc_raw_doc, two_generators, CaseValidationError, "network_raw.generators"),
            (wscc_raw_doc, generator_index, CaseValidationError, "network_raw.generators[1].machine"),
            (wscc_raw_doc, generator_bus, CaseValidationError, "network_raw.generators[1].bus"),
            (wscc_raw_doc, generator_xd_prime, CaseValidationError,
             "network_raw.generators[1].xd_prime"),
            # network errors name the file's bus ids
            (wscc_raw_doc, parallel_cleared_branch, NetworkReductionError, (5, 7)),
            (wscc_raw_doc, unknown_cleared_branch, NetworkReductionError, (1, 2)),
            (wscc_raw_doc, isolated_bus, NetworkReductionError, (10,)),
        ],
        ids=lambda v: getattr(v, "__name__", None),
    )
    def test_field_is_named(self, tmp_path, doc, mutate, error, named):
        doc = doc()
        mutate(doc)
        with pytest.raises(error) as raised:
            case_from_dict(doc)
        if error is NetworkReductionError:
            assert raised.value.buses == named
        else:
            assert raised.value.field == named
        path = tmp_path / "case.json"
        path.write_text(json.dumps(doc))
        argv = ["assess", str(path), "--t-clear", "0.1", "--t-end", "0.2", "--out-dir", str(tmp_path)]
        assert run_quiet(argv) == (1, [f"error: {raised.value}"])


class TestLoadCase:
    def test_missing_file_names_path(self, tmp_path):
        missing = tmp_path / "nope.json"
        with pytest.raises(CaseFormatError, match="nope.json"):
            load_case(missing)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(CaseFormatError, match="malformed"):
            load_case(path)

    def test_roundtrip_file(self, tmp_path):
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(explicit_doc()))
        case = load_case(path)
        assert case.n == 2

    def test_bundled_prefix(self):
        case = load_case("bundled:smib")
        assert case.n == 2

    def test_non_object_document(self, tmp_path):
        path = tmp_path / "arr.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(CaseFormatError, match="object"):
            load_case(path)


class TestBundled:
    def test_names(self):
        names = bundled_case_names()
        assert {"wscc9", "smib", "threebus_lossless"} <= set(names)

    def test_all_load(self):
        for name in bundled_case_names():
            case = load_bundled(name)
            assert case.n >= 2
            assert case.label

    def test_unknown_name_lists_available(self):
        with pytest.raises(CaseFormatError, match="available: smib"):
            load_bundled("missing_case")
