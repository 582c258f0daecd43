"""Tests for experiment result export."""

import csv
import dataclasses
import json

import pytest

from repro.experiments.export import (
    SCALAR_FIELDS,
    aggregate_to_dict,
    sweep_to_dict,
    write_sweep_csv,
    write_sweep_json,
)
from repro.experiments.scenarios import SMOKE_SCALE
from repro.experiments.sweep import sweep


@pytest.fixture(scope="module")
def tiny_sweep():
    scale = dataclasses.replace(
        SMOKE_SCALE, num_nodes=12, sim_time=8.0, num_connections=2,
        repetitions=1, rates=(0.5,), name="tiny",
    )
    return sweep(scale, schemes=("rcast", "ieee80211"), rates=(0.5,),
                 scenarios=(False,), seed=3)


def test_aggregate_to_dict_fields(tiny_sweep):
    agg = tiny_sweep.get("rcast", 0.5, False)
    d = aggregate_to_dict(agg)
    for field in SCALAR_FIELDS:
        assert field in d
    assert len(d["node_energy"]) == 12
    assert d["scheme"] == "rcast"


def test_sweep_to_dict_structure(tiny_sweep):
    d = sweep_to_dict(tiny_sweep)
    assert d["scale"] == "tiny"
    assert d["scenarios"] == ["static"]
    assert len(d["cells"]) == 2
    assert {c["scheme"] for c in d["cells"]} == {"rcast", "ieee80211"}


def test_json_round_trip(tiny_sweep, tmp_path):
    path = write_sweep_json(tiny_sweep, tmp_path / "sweep.json")
    loaded = json.loads(path.read_text())
    assert loaded == sweep_to_dict(tiny_sweep)
    assert loaded["rates"] == [0.5]


def test_csv_export(tiny_sweep, tmp_path):
    path = write_sweep_csv(tiny_sweep, tmp_path / "sweep.csv")
    with path.open() as handle:
        rows = list(csv.reader(handle))
    assert rows[0][:3] == ["scheme", "rate", "scenario"]
    assert len(rows) == 3  # header + 2 cells
    energy_col = rows[0].index("total_energy")
    assert float(rows[1][energy_col]) > 0


def test_infinite_values_serialized_as_null(tiny_sweep):
    agg = tiny_sweep.get("rcast", 0.5, False)
    patched = dataclasses.replace(agg, energy_per_bit=float("inf"))
    d = aggregate_to_dict(patched)
    assert d["energy_per_bit"] is None


def test_none_vectors_serialized_as_null(tiny_sweep):
    # Mistyped `np.ndarray = None` defaults used to crash the exporter;
    # Optional vectors must serialize as null, not raise.
    agg = tiny_sweep.get("rcast", 0.5, False)
    patched = dataclasses.replace(agg, sorted_node_energy=None,
                                  role_numbers=None, node_energy=None)
    d = aggregate_to_dict(patched)
    assert d["sorted_node_energy"] is None
    assert d["role_numbers"] is None
    assert d["node_energy"] is None


def test_dropped_replications_exported(tiny_sweep):
    agg = tiny_sweep.get("rcast", 0.5, False)
    patched = dataclasses.replace(agg,
                                  dropped_replications={"energy_per_bit": 3})
    d = aggregate_to_dict(patched)
    assert d["dropped_replications"] == {"energy_per_bit": 3}


def test_result_to_jsonable_generic(tiny_sweep, tmp_path):
    import numpy as np

    from repro.experiments.export import result_to_jsonable, write_result_json

    encoded = result_to_jsonable(tiny_sweep)
    # Tuple cell keys become strings; AggregateMetrics use the stable schema.
    assert any("rcast" in key for key in encoded["cells"])
    cell = next(iter(encoded["cells"].values()))
    assert "total_energy" in cell
    # ndarray, numpy scalars, inf and nested containers are all JSON-safe.
    blob = {"vec": np.arange(3.0), "inf": float("inf"),
            "mixed": [np.float64(1.5), (1, 2)]}
    assert result_to_jsonable(blob) == {"vec": [0.0, 1.0, 2.0], "inf": None,
                                        "mixed": [1.5, [1, 2]]}
    path = write_result_json(tiny_sweep, tmp_path / "result.json")
    assert json.loads(path.read_text()) == encoded
