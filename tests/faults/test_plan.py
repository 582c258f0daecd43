"""FaultPlan data model: construction, validation, serialization."""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.errors import ConfigurationError
from repro.faults.plan import (
    EMPTY_PLAN,
    PLAN_FORMAT_VERSION,
    BurstLoss,
    EnergyDepletion,
    FaultPlan,
    NodeCrash,
    NoiseWindow,
    PacketLoss,
    RandomCrashes,
    RandomDepletions,
)


def full_plan() -> FaultPlan:
    """One event of every kind, with optional fields exercised."""
    return FaultPlan((
        NodeCrash(node=3, at=5.0, recover_at=9.0),
        RandomCrashes(fraction=0.25, start=1.0, stop=8.0,
                      recover_after=2.0, nodes=(0, 2, 4)),
        EnergyDepletion(node=1, at=4.0),
        RandomDepletions(fraction=0.1, start=0.0, stop=10.0),
        PacketLoss(rate=0.2, start=2.0, stop=6.0, nodes=(1,),
                   links=((0, 1), (1, 2))),
        BurstLoss(mean_good=3.0, mean_bad=0.5, loss_good=0.01,
                  loss_bad=0.9),
        NoiseWindow(start=4.0, stop=7.0, range_factor=0.6),
    ))


class TestPlanBasics:
    def test_empty_plan(self) -> None:
        assert EMPTY_PLAN.is_empty
        assert not EMPTY_PLAN
        assert len(EMPTY_PLAN) == 0
        assert FaultPlan().is_empty

    def test_nonempty_plan(self) -> None:
        plan = full_plan()
        assert not plan.is_empty
        assert bool(plan)
        assert len(plan) == 7

    def test_list_events_normalized_to_tuple(self) -> None:
        plan = FaultPlan([PacketLoss(rate=0.5)])  # type: ignore[arg-type]
        assert isinstance(plan.events, tuple)
        assert plan == FaultPlan((PacketLoss(rate=0.5),))

    def test_composition_concatenates(self) -> None:
        a = FaultPlan((NodeCrash(node=0, at=1.0),))
        b = FaultPlan((PacketLoss(rate=0.1),))
        assert (a + b).events == a.events + b.events
        assert a + EMPTY_PLAN == a

    def test_add_rejects_non_plan(self) -> None:
        with pytest.raises(TypeError):
            full_plan() + [PacketLoss(rate=0.1)]  # type: ignore[operator]

    def test_entries_must_be_fault_events(self) -> None:
        with pytest.raises(ConfigurationError, match="not a fault event"):
            FaultPlan((NodeCrash(node=0, at=1.0),
                       "crash"))  # type: ignore[arg-type]

    def test_node_ids_in_plan_order(self) -> None:
        assert list(full_plan().node_ids()) == [3, 0, 2, 4, 1, 1, 0, 1, 1, 2]


class TestSerialization:
    def test_dict_round_trip(self) -> None:
        plan = full_plan()
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_json_round_trip(self) -> None:
        plan = full_plan()
        assert FaultPlan.from_json(plan.to_json()) == plan
        assert FaultPlan.from_json(plan.to_json(indent=2)) == plan

    def test_file_round_trip(self, tmp_path) -> None:
        plan = full_plan()
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json(indent=2) + "\n")
        assert FaultPlan.load(path) == plan

    def test_none_fields_omitted_from_document(self) -> None:
        doc = FaultPlan((NodeCrash(node=0, at=1.0),)).to_dict()
        assert doc["version"] == PLAN_FORMAT_VERSION
        assert doc["events"] == [{"kind": "node-crash", "node": 0, "at": 1.0}]

    def test_from_dict_coerces_node_and_link_lists(self) -> None:
        plan = FaultPlan.from_dict({
            "version": 1,
            "events": [{"kind": "packet-loss", "rate": 0.5,
                        "nodes": [2, 3], "links": [[0, 1]]}],
        })
        event = plan.events[0]
        assert isinstance(event, PacketLoss)
        assert event.nodes == (2, 3)
        assert event.links == ((0, 1),)
        # Python callers passing lists get the same frozen value.
        assert event == PacketLoss(
            rate=0.5, nodes=[2, 3], links=[[0, 1]])  # type: ignore[arg-type]


class TestDocumentErrors:
    def test_unsupported_version(self) -> None:
        with pytest.raises(ConfigurationError, match="version"):
            FaultPlan.from_dict({"version": 99, "events": []})

    def test_not_an_object(self) -> None:
        with pytest.raises(ConfigurationError, match="JSON object"):
            FaultPlan.from_dict([])  # type: ignore[arg-type]

    def test_events_not_a_list(self) -> None:
        with pytest.raises(ConfigurationError, match="list"):
            FaultPlan.from_dict({"version": 1, "events": {}})

    def test_event_not_an_object(self) -> None:
        with pytest.raises(ConfigurationError, match="object"):
            FaultPlan.from_dict({"version": 1, "events": ["crash"]})

    def test_unknown_kind(self) -> None:
        with pytest.raises(ConfigurationError, match="unknown fault event"):
            FaultPlan.from_dict(
                {"version": 1, "events": [{"kind": "meteor-strike"}]})

    def test_unknown_field(self) -> None:
        with pytest.raises(ConfigurationError, match="unknown fields"):
            FaultPlan.from_dict({
                "version": 1,
                "events": [{"kind": "node-crash", "node": 0, "at": 1.0,
                            "severity": "bad"}],
            })

    def test_missing_required_field(self) -> None:
        with pytest.raises(ConfigurationError, match="invalid fault event"):
            FaultPlan.from_dict(
                {"version": 1, "events": [{"kind": "node-crash", "node": 0}]})

    def test_invalid_json_text(self) -> None:
        with pytest.raises(ConfigurationError, match="invalid fault-plan"):
            FaultPlan.from_json("{not json")

    def test_unreadable_file(self, tmp_path) -> None:
        with pytest.raises(ConfigurationError, match="cannot read"):
            FaultPlan.load(tmp_path / "missing.json")


class TestEventValidation:
    @pytest.mark.parametrize("bad", [
        lambda: NodeCrash(node=-1, at=1.0),
        lambda: NodeCrash(node=0, at=-1.0),
        lambda: NodeCrash(node=0, at=5.0, recover_at=5.0),
        lambda: RandomCrashes(fraction=1.5, start=0.0, stop=1.0),
        lambda: RandomCrashes(fraction=0.5, start=2.0, stop=1.0),
        lambda: RandomCrashes(fraction=0.5, start=0.0, stop=1.0,
                              recover_after=0.0),
        lambda: EnergyDepletion(node=-2, at=1.0),
        lambda: EnergyDepletion(node=0, at=-0.5),
        lambda: RandomDepletions(fraction=-0.1, start=0.0, stop=1.0),
        lambda: PacketLoss(rate=1.1),
        lambda: PacketLoss(rate=0.5, start=-1.0),
        lambda: PacketLoss(rate=0.5, start=2.0, stop=1.0),
        lambda: BurstLoss(mean_good=0.0, mean_bad=1.0),
        lambda: BurstLoss(mean_good=1.0, mean_bad=1.0, loss_bad=2.0),
        lambda: NoiseWindow(start=2.0, stop=2.0, range_factor=0.5),
        lambda: NoiseWindow(start=0.0, stop=1.0, range_factor=0.0),
        lambda: NoiseWindow(start=0.0, stop=1.0, range_factor=1.5),
        # NaN failed every old ``x < 0`` check; a non-integer node crashed
        # the run mid-way; an infinite stop drew a crash at t = inf.
        lambda: NodeCrash(node=1, at=math.nan),
        lambda: NodeCrash(node=1.5, at=3.0),  # type: ignore[arg-type]
        lambda: BurstLoss(mean_good=math.nan, mean_bad=1.0),
        lambda: RandomCrashes(fraction=0.5, start=0.0, stop=math.inf),
        lambda: PacketLoss(rate=0.5, nodes=(1, -1)),
        lambda: PacketLoss(rate=0.5, nodes=3),  # type: ignore[arg-type]
        lambda: PacketLoss(rate=0.5,
                           links=((0, 1, 2),)),  # type: ignore[arg-type]
    ])
    def test_rejects(self, bad) -> None:
        with pytest.raises(ConfigurationError):
            bad()

    @pytest.mark.parametrize("scope, message", [
        ('"nodes": [NaN]', "nodes entry"),
        ('"nodes": [2.7]', "nodes entry"),
        ('"nodes": ["2"]', "nodes entry"),
        ('"links": [[1]]', "links must be a list of"),
        ('"links": [[0, 1.5]]', "links entry"),
    ], ids=["nan", "fraction", "string", "short-link", "fraction-link"])
    def test_json_node_ids_rejected(self, scope, message) -> None:
        """JSON node ids used to go through ``int()``: NaN and a short
        link raised ValueError, and 2.7 silently became node 2."""
        text = ('{"version": 1, "events": [{"kind": "packet-loss", '
                f'"rate": 0.5, {scope}}}]}}')
        with pytest.raises(ConfigurationError, match=message):
            FaultPlan.from_json(text)

    def test_boundary_values_accepted(self) -> None:
        RandomCrashes(fraction=0.0, start=0.0, stop=0.0)
        RandomCrashes(fraction=1.0, start=0.0, stop=10.0)
        PacketLoss(rate=0.0)
        PacketLoss(rate=1.0, start=0.0, stop=0.0)
        NoiseWindow(start=0.0, stop=0.1, range_factor=1.0)


#: Valid arguments for every event kind.
VALID_EVENTS = {
    NodeCrash: dict(node=1, at=2.0, recover_at=5.0),
    RandomCrashes: dict(fraction=0.5, start=1.0, stop=4.0,
                        recover_after=2.0),
    EnergyDepletion: dict(node=1, at=2.0),
    RandomDepletions: dict(fraction=0.5, start=1.0, stop=4.0),
    PacketLoss: dict(rate=0.5, start=1.0, stop=4.0),
    BurstLoss: dict(mean_good=1.0, mean_bad=0.5, loss_good=0.1,
                    loss_bad=0.9, start=1.0, stop=4.0),
    NoiseWindow: dict(start=1.0, stop=4.0, range_factor=0.5),
}

#: Fields whose range tops out at 1, so 2 is out of range too.
UNIT_FIELDS = {"fraction", "rate", "loss_good", "loss_bad", "range_factor"}

#: (event class, numeric field) read off the dataclasses, so that a new
#: field without a row in the fault table fails the walk below.
NUMERIC_FIELDS = [(cls, f.name) for cls in VALID_EVENTS
                  for f in dataclasses.fields(cls)
                  if f.type in ("int", "float", "Optional[float]")]


@pytest.mark.parametrize("cls, name", NUMERIC_FIELDS,
                         ids=[f"{cls.__name__}.{name}"
                              for cls, name in NUMERIC_FIELDS])
def test_fault_field_walk(cls, name) -> None:
    """Every numeric fault field x {nan, +-inf, -1, and 2 for [0, 1]
    fields} raises ConfigurationError naming the field, from the
    constructor and from a plan document alike."""
    kwargs = VALID_EVENTS[cls]
    cls(**kwargs)
    values = [math.nan, math.inf, -math.inf, -1]
    if name in UNIT_FIELDS:
        values.append(2)
    for value in values:
        bad = {**kwargs, name: value}
        with pytest.raises(ConfigurationError, match=f"^{name} "):
            cls(**bad)
        document = {"version": 1, "events": [{"kind": cls.kind, **bad}]}
        with pytest.raises(ConfigurationError, match=f"^{name} "):
            FaultPlan.from_dict(document)
