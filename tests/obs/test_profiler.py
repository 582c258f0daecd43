"""Tests for the fold of a cProfile table into self time per layer."""

import cProfile
import heapq
import json
from pathlib import Path

import pytest

import repro
from repro.network import SimulationConfig, build_network
from repro.obs.profiler import OTHER, fold, format_profile, layer_of

PACKAGE = Path(repro.__file__).parent

RUN = (str(PACKAGE / "sim" / "engine.py"), 10, "run")
ATTEMPT = (str(PACKAGE / "mac" / "dcf.py"), 20, "_attempt")
HELPER = ("/usr/lib/python3/helper.py", 5, "helper")
HEAPPUSH = ("~", 0, "<built-in method _heapq.heappush>")
LEN = ("~", 0, "<built-in function len>")
DISABLE = ("~", 0, "<method 'disable' of '_lsprof.Profiler' objects>")


def row(calls, self_s, cum_s, callers=None):
    """One pstats entry: ``(cc, nc, tt, ct, callers)``."""
    return (calls, calls, self_s, cum_s, callers or {})


def call(self_s, cum_s, calls=1):
    """One callers-table entry: ``(nc, cc, tt, ct)``."""
    return (calls, calls, self_s, cum_s)


#: ``run`` calls ``_attempt``; both push onto the heap; an outside helper,
#: called from both, spends its time in itself and in ``len``; the
#: profiler's own ``disable`` has no caller.
STATS = {
    RUN: row(1, 1.0, 4.0),
    ATTEMPT: row(5, 2.0, 3.0, {RUN: call(2.0, 3.0, 5)}),
    HEAPPUSH: row(9, 0.6, 0.6, {RUN: call(0.2, 0.2, 3),
                                ATTEMPT: call(0.4, 0.4, 6)}),
    HELPER: row(4, 0.1, 0.4, {RUN: call(0.025, 0.1),
                              ATTEMPT: call(0.075, 0.3, 3)}),
    LEN: row(7, 0.3, 0.3, {HELPER: call(0.3, 0.3, 7)}),
    DISABLE: row(1, 0.01, 0.01),
}


def layers(report):
    return {r["layer"]: r["self_s"] for r in report["layers"]}


class TestLayerOf:
    def test_first_module_component_under_the_package(self):
        assert layer_of(str(PACKAGE / "sim" / "engine.py")) == "sim"
        assert layer_of(str(PACKAGE / "routing" / "dsr" / "cache.py")) == (
            "routing")
        assert layer_of(str(PACKAGE / "network.py")) == "network"

    def test_outside_the_package(self):
        assert layer_of("~") is None
        assert layer_of(heapq.__file__) is None
        assert layer_of(HELPER[0]) is None


class TestFold:
    def test_outside_code_is_charged_to_its_callers(self):
        charged = layers(fold(STATS, top=10))
        # sim: own 1.0, heappush 0.2, helper 0.025, len 0.3 * 0.1 / 0.4;
        # mac: own 2.0, heappush 0.4, helper 0.075, len 0.3 * 0.3 / 0.4.
        assert charged == pytest.approx(
            {"sim": 1.3, "mac": 2.7, OTHER: 0.01})

    def test_layers_add_up_to_the_profiled_total(self):
        report = fold(STATS, top=10)
        assert report["profiled_s"] == pytest.approx(4.01)
        assert sum(layers(report).values()) == pytest.approx(
            report["profiled_s"], rel=1e-12)
        assert [r["layer"] for r in report["layers"]] == ["mac", "sim",
                                                          OTHER]

    def test_recursion_outside_the_package_terminates(self):
        stats = dict(STATS)
        stats[HELPER] = row(4, 0.1, 0.4, {RUN: call(0.025, 0.1),
                                          HELPER: call(0.05, 0.2, 2),
                                          LEN: call(0.0, 0.1)})
        stats[LEN] = row(7, 0.3, 0.3, {HELPER: call(0.3, 0.3, 7)})
        charged = layers(fold(stats, top=1))
        assert charged["sim"] == pytest.approx(1.0 + 0.2 + 0.1 + 0.3)
        assert sum(charged.values()) == pytest.approx(4.01, rel=1e-12)


class TestReport:
    def test_to_dict_shares_sum_to_one(self):
        report = json.loads(json.dumps(fold(STATS, top=10)))
        assert sum(r["share"] for r in report["layers"]) == pytest.approx(
            1.0, rel=1e-12)
        assert all(set(r) == {"layer", "self_s", "share"}
                   for r in report["layers"])

    def test_top_ranks_by_self_time(self):
        report = fold(STATS, top=3)
        assert report["functions"] == [
            {"name": "mac/dcf.py:20(_attempt)", "layer": "mac", "calls": 5,
             "self_s": 2.0},
            {"name": "sim/engine.py:10(run)", "layer": "sim", "calls": 1,
             "self_s": 1.0},
            # outside code shows the layer charged most of its time
            {"name": "<built-in method _heapq.heappush>", "layer": "mac",
             "calls": 9, "self_s": 0.6},
        ]

    def test_format_renders_rows(self):
        lines = format_profile(fold(STATS, top=2)).splitlines()
        assert lines[0] == "profiled time: 4.010 s (cProfile)"
        assert lines[3].split() == ["mac", "2.7000", "67.3%"]
        assert lines[-2].split() == ["mac/dcf.py:20(_attempt)", "mac", "5",
                                     "2.0000"]
        assert len(lines) == 3 + 3 + 2 + 2


class TestProfiler:
    def test_profiling_does_not_change_results(self):
        config = SimulationConfig(
            scheme="rcast", num_nodes=10, arena_w=500.0, arena_h=300.0,
            mobility="static", num_connections=2, packet_rate=0.5,
            sim_time=5.0, seed=1)
        plain = build_network(config).run()
        profile = cProfile.Profile()
        profiled = profile.runcall(build_network(config).run)
        assert plain.to_dict() == profiled.to_dict()
        profile.create_stats()
        report = fold(profile.stats, top=5)
        assert {"sim", "phy", "mac", "routing"} <= set(layers(report))
        assert sum(layers(report).values()) == pytest.approx(
            report["profiled_s"], rel=1e-9)
