"""Strict JSON config parsing: unknown fields fail loudly with their path."""

import json

import pytest

from subexp import (
    EXPERIMENTS,
    member_to_spec,
    model_from_spec,
    model_to_spec,
    parse_config,
)
from subexp.errors import NonLattice, SchemaError


def base_doc():
    return {
        "model": {
            "label": "E1",
            "members": [
                {"kind": "finite", "atoms": [[-1.0, 0.5], [1.0, 0.5]]},
                {"kind": "finite", "atoms": [[-1.0, 0.25], [1.0, 0.75]]},
            ],
        },
        "experiment": "slln",
    }


def test_minimal_config_fills_defaults():
    cfg = parse_config(json.dumps(base_doc()))
    assert cfg.experiment == "slln"
    assert cfg.seeds == (1, 2, 3)
    assert cfg.output_dir == "."
    assert cfg.parameters["N"] == 1_000_000
    assert cfg.parameters["tol"] == 0.01
    assert cfg.lattice_quantum is None
    assert cfg.model.label == "E1"


def test_explicit_parameters_override_defaults():
    doc = base_doc()
    doc["parameters"] = {"N": 500, "tol": 0.2}
    doc["seeds"] = [9]
    doc["output_dir"] = "results/run1"
    cfg = parse_config(json.dumps(doc))
    assert cfg.parameters["N"] == 500
    assert cfg.parameters["tol"] == 0.2
    assert cfg.seeds == (9,)
    assert cfg.output_dir == "results/run1"


def test_unknown_top_level_field_names_itself():
    doc = base_doc()
    doc["modle"] = doc.pop("model")
    with pytest.raises(SchemaError, match="modle"):
        parse_config(json.dumps(doc))


def test_unknown_parameter_names_itself():
    doc = base_doc()
    doc["parameters"] = {"warp": 9}
    with pytest.raises(SchemaError, match=r"parameters\.warp"):
        parse_config(json.dumps(doc))


def test_unknown_experiment_lists_vocabulary():
    doc = base_doc()
    doc["experiment"] = "quantum_leap"
    with pytest.raises(SchemaError, match="slln"):
        parse_config(json.dumps(doc))
    assert "slln" in EXPERIMENTS and "axioms" in EXPERIMENTS


def test_bad_weights_rejected():
    doc = base_doc()
    doc["model"]["members"][0]["atoms"] = [[0.0, 0.5], [1.0, 0.49]]
    with pytest.raises(ValueError, match="sum to 1"):
        parse_config(json.dumps(doc))


def test_seed_range_enforced():
    doc = base_doc()
    doc["seeds"] = [-1]
    with pytest.raises(ValueError, match=r"seeds\[0\]"):
        parse_config(json.dumps(doc))
    doc["seeds"] = [2 ** 64]
    with pytest.raises(ValueError, match="2\\^64"):
        parse_config(json.dumps(doc))


def test_seed_and_quantum_range_errors_are_schema_errors():
    doc = base_doc()
    doc["seeds"] = [1, 2 ** 64]
    with pytest.raises(SchemaError, match=r"seeds\[1\]"):
        parse_config(json.dumps(doc))
    doc = base_doc()
    doc["lattice_quantum"] = 0.0
    with pytest.raises(SchemaError, match="lattice_quantum"):
        parse_config(json.dumps(doc))


def test_parameter_type_errors_are_schema_errors():
    doc = base_doc()
    doc["parameters"] = {"N": "many"}
    with pytest.raises(SchemaError, match=r"parameters\.N"):
        parse_config(json.dumps(doc))


def test_invalid_json_is_schema_error():
    with pytest.raises(SchemaError, match="JSON"):
        parse_config("{nope")


def test_pareto_member_round_trip():
    doc = base_doc()
    doc["model"]["members"].append({"kind": "pareto", "alpha": 1.5, "scale": 2.0, "right_mass": 0.3})
    doc["experiment"] = "choquet_series"
    cfg = parse_config(json.dumps(doc))
    spec = model_to_spec(cfg.model)
    again = model_from_spec(spec)
    assert model_to_spec(again) == spec
    assert spec["members"][2]["alpha"] == 1.5


def test_member_spec_round_trip_finite():
    doc = base_doc()
    cfg = parse_config(json.dumps(doc))
    spec = member_to_spec(cfg.model.members[1])
    assert spec["kind"] == "finite"
    assert spec["atoms"] == [[-1.0, 0.25], [1.0, 0.75]]


def test_lattice_quantum_validated_against_atoms():
    doc = base_doc()
    doc["lattice_quantum"] = 0.5  # +-1 are clean multiples
    cfg = parse_config(json.dumps(doc))
    assert cfg.lattice_quantum == 0.5
    doc["lattice_quantum"] = 0.3
    with pytest.raises(NonLattice):
        parse_config(json.dumps(doc))


def test_atom_errors_name_the_member_with_plain_numbers():
    doc = base_doc()
    doc["model"]["members"][0]["atoms"] = [[0.1, 0.5], [1.0, 0.5]]
    doc["lattice_quantum"] = 0.25
    with pytest.raises(NonLattice) as exc:
        parse_config(json.dumps(doc))
    assert str(exc.value) == "model.members[0]: atom 0.1 is off the pitch 0.25 lattice"
    doc = base_doc()
    doc["model"]["members"][1]["atoms"] = [[-1.0, 0.5], [[1.0, 2.0], 0.5]]
    with pytest.raises(SchemaError) as exc:
        parse_config(json.dumps(doc))
    assert str(exc.value) == (
        "model.members[1]: atom values must be all numbers or all vectors of one length: "
        "atom 0 is a number, atom 1 is a vector of 2 numbers")


def test_resolved_document_is_self_contained():
    cfg = parse_config(json.dumps(base_doc()))
    resolved = cfg.resolved()
    assert sorted(resolved) == [
        "experiment", "lattice_quantum", "model", "output_dir", "parameters", "seeds",
    ]
    # resolved docs parse back to an identical resolution
    again = parse_config(json.dumps(resolved))
    assert again.resolved() == resolved
