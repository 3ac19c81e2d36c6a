"""Network model: parsing, validation, bundled examples."""

import dataclasses
import json
import math

import numpy as np
import pytest

import airnet as an
from helpers import random_crack_network

MINIMAL = """
{
  "zones": [{"id": "z1", "temperature_k": 293.15, "ref_height_m": 1.0}],
  "external_nodes": [
    {"id": "out", "ref_height_m": 1.0, "cp": [0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5]}
  ],
  "links": [
    {"id": "c1", "from": "out", "to": "z1", "elevation_m": 1.0,
     "model": {"type": "crack", "k": 0.01, "n": 0.65}}
  ]
}
"""


def test_parse_minimal():
    net = an.parse_network(MINIMAL)
    assert len(net.zones) == 1
    assert len(net.links) == 1
    assert net.zones[0].mech_flow_kg_s == 0.0  # default applied
    assert an.validate(net) == []


def test_parse_defaults_cd_and_mech_flow():
    doc = json.loads(MINIMAL)
    doc["zones"].append({"id": "z2", "temperature_k": 295.0, "ref_height_m": 1.0})
    doc["links"].append(
        {
            "id": "door",
            "from": "z1",
            "to": "z2",
            "elevation_m": 0.0,
            "model": {"type": "large_opening", "width_m": 0.8, "height_m": 2.0},
        }
    )
    net = an.parse_network(json.dumps(doc))
    door = [l for l in net.links if l.id == "door"][0]
    assert door.model.cd == 0.6
    assert net.zones[1].mech_flow_kg_s == 0.0
    # Every field given is read as given, for each model type.
    doc["zones"][1]["mech_flow_kg_s"] = -0.008
    doc["external_nodes"][0]["cp"] = [0.6, 0.4, -0.25, -0.5, -0.6, -0.5, -0.25, 0.45]
    doc["links"][1]["model"]["cd"] = 0.65
    doc["links"].append(
        {"id": "sf", "from": "out", "to": "z2", "elevation_m": 2.0,
         "model": {"type": "fan", "flow_kg_s": 0.004}}
    )
    assert an.parse_network(json.dumps(doc)) == an.Network(
        zones=(an.Zone("z1", 293.15, 1.0), an.Zone("z2", 295.0, 1.0, -0.008)),
        external_nodes=(
            an.ExternalNode("out", 1.0, (0.6, 0.4, -0.25, -0.5, -0.6, -0.5, -0.25, 0.45)),
        ),
        links=(
            an.Link("c1", "out", "z1", 1.0, an.Crack(k=0.01, n=0.65)),
            an.Link("door", "z1", "z2", 0.0, an.LargeOpening(0.8, 2.0, cd=0.65)),
            an.Link("sf", "out", "z2", 2.0, an.Fan(0.004)),
        ),
    )


def test_parse_duplicate_id_names_offender():
    doc = json.loads(MINIMAL)
    doc["zones"].append({"id": "Z1", "temperature_k": 290.0, "ref_height_m": 0.0})
    doc["zones"].append({"id": "Z1", "temperature_k": 291.0, "ref_height_m": 0.0})
    doc["links"].append(
        {"id": "c2", "from": "out", "to": "Z1", "elevation_m": 0.0,
         "model": {"type": "crack", "k": 0.01, "n": 0.6}}
    )
    with pytest.raises(an.NetworkValidationError) as err:
        an.parse_network(json.dumps(doc))
    assert "Z1" in str(err.value)


def test_parse_syntax_error_reports_position():
    with pytest.raises(an.NetworkFormatError) as err:
        an.parse_network('{"zones": [,]}')
    assert "line" in str(err.value)


# Each change to MINIMAL, and the whole message it is refused with.
SCHEMA_ERRORS = [
    (lambda d: d["zones"][0].pop("temperature_k"), "zones[0]: missing field 'temperature_k'"),
    (lambda d: d["zones"][0].update(temperature_k="warm"), "zones[0]: field 'temperature_k' must be a number"),
    (lambda d: d["zones"][0].update(ref_height_m=True), "zones[0]: field 'ref_height_m' must be a number"),
    (lambda d: d["zones"][0].update(id=1.0), "zones[0]: field 'id' has wrong type"),
    (lambda d: d["zones"].append(3), "zones[1]: must be an object"),
    (lambda d: d.update(zones={}), "document: field 'zones' has wrong type"),
    (lambda d: d.pop("links"), "document: missing field 'links'"),
    (lambda d: d["external_nodes"][0].update(cp=[True] * 8), "external_nodes[0]: field 'cp' must hold numbers"),
    (lambda d: d["external_nodes"][0].update(cp="flat"), "external_nodes[0]: field 'cp' has wrong type"),
    (lambda d: d["external_nodes"][0].pop("ref_height_m"), "external_nodes[0]: missing field 'ref_height_m'"),
    (lambda d: d["links"][0].pop("to"), "links[0]: missing field 'to'"),
    (lambda d: d["links"][0].update(elevation_m=None), "links[0]: field 'elevation_m' must be a number"),
    (lambda d: d["links"][0].update(model=[]), "links[0]: field 'model' has wrong type"),
    (lambda d: d["links"][0]["model"].pop("type"), "links[0].model: missing field 'type'"),
    (lambda d: d["links"][0]["model"].pop("n"), "links[0].model: missing field 'n'"),
    (lambda d: d["links"][0]["model"].update(k="0.01"), "links[0].model: field 'k' must be a number"),
]


def test_parse_schema_error_names_field():
    with pytest.raises(an.NetworkFormatError, match="^top-level document must be an object$"):
        an.parse_network("[]")
    for change, message in SCHEMA_ERRORS:
        doc = json.loads(MINIMAL)
        change(doc)
        with pytest.raises(an.NetworkFormatError) as err:
            an.parse_network(json.dumps(doc))
        assert str(err.value) == message


@pytest.mark.parametrize(
    "record, context",
    [
        (lambda d: d, "document"),
        (lambda d: d["zones"][0], "zones[0]"),
        (lambda d: d["external_nodes"][0], "external_nodes[0]"),
        (lambda d: d["links"][0], "links[0]"),
        (lambda d: d["links"][0]["model"], "links[0].model"),
    ],
    ids=["document", "zone", "external-node", "link", "model"],
)
@pytest.mark.parametrize("key", ["comment", "from_node", "mech_flow", "Cd"])
def test_parse_rejects_a_key_that_names_no_field(record, context, key):
    # A misspelt optional field used to parse, and the record kept its
    # default: dwelling5's hall with "mech_flow" lost its -0.008 kg/s extract.
    doc = json.loads(MINIMAL)
    record(doc)[key] = 1.0
    with pytest.raises(an.NetworkFormatError) as err:
        an.parse_network(json.dumps(doc))
    assert str(err.value) == f"{context}: unknown field '{key}'"


@pytest.mark.parametrize(
    "old, new, key, context",
    [
        ('"zones": [', '"zones": [], "zones": [', "zones", "document"),
        ('"temperature_k": 293.15', '"temperature_k": 250.0, "temperature_k": 293.15', "temperature_k", "zones[0]"),
        ('"elevation_m": 1.0', '"elevation_m": 5.0, "elevation_m": 1.0', "elevation_m", "links[0]"),
        ('"k": 0.01', '"k": 5.0, "k": 0.01', "k", "links[0].model"),
    ],
    ids=["document", "zone", "link", "model"],
)
def test_parse_rejects_a_key_written_twice_in_one_object(old, new, key, context):
    # JSON keeps the last value of a repeated key, so the first was dropped
    # without a word, as a misspelt key once was.  The message names the
    # object that holds the key.
    text = MINIMAL.replace(old, new)
    assert text.count(f'"{key}"') == 2
    with pytest.raises(an.NetworkFormatError) as err:
        an.parse_network(text)
    assert str(err.value) == f"{context}: key '{key}' appears twice in one object"


def test_parse_unknown_model_type():
    doc = json.loads(MINIMAL)
    doc["links"][0]["model"] = {"type": "duct", "k": 1}
    with pytest.raises(an.NetworkFormatError) as err:
        an.parse_network(json.dumps(doc))
    assert str(err.value) == "links[0].model: unknown model type 'duct'"


def test_parse_fan_link():
    doc = json.loads(MINIMAL)
    doc["links"].append(
        {"id": "fan", "from": "out", "to": "z1", "elevation_m": 2.0,
         "model": {"type": "fan", "flow_kg_s": 0.05}}
    )
    net = an.parse_network(json.dumps(doc))
    fan = [l for l in net.links if l.id == "fan"][0]
    assert isinstance(fan.model, an.Fan)
    assert fan.model.flow_kg_s == 0.05


def test_validate_valid_two_zone_network():
    rng = np.random.default_rng(7)
    net = random_crack_network(rng, 2)
    assert an.validate(net) == []


def test_validate_unreachable_zone():
    net = an.Network(
        zones=(
            an.Zone("a", 293.15, 0.0),
            an.Zone("island", 293.15, 0.0),
        ),
        external_nodes=(an.ExternalNode("out", 0.0, (0.0,) * 8),),
        links=(an.Link("c", "out", "a", 0.0, an.Crack(0.01, 0.6)),),
    )
    violations = an.validate(net)
    assert len([v for v in violations if "unreachable" in v]) == 1
    assert "island" in " ".join(violations)


def test_validate_exponent_out_of_range():
    net = an.Network(
        zones=(an.Zone("a", 293.15, 0.0),),
        external_nodes=(an.ExternalNode("out", 0.0, (0.0,) * 8),),
        links=(an.Link("c", "out", "a", 0.0, an.Crack(0.01, 1.5)),),
    )
    violations = an.validate(net)
    assert len([v for v in violations if "exponent" in v]) == 1


def test_validate_collects_all_violations():
    # Every per-field rule broken once, and every rule that spans records.
    net = an.Network(
        zones=(
            an.Zone("a", 0.0, math.nan, math.inf),
            an.Zone("b", 293.15, 0.0),
            an.Zone("b", 293.15, 0.0),
            an.Zone("island", 293.15, 0.0),
        ),
        external_nodes=(
            an.ExternalNode("out", -math.inf, (0.0,) * 7),
            an.ExternalNode("west", 0.0, (0.0, 2.5, -3.0) + (0.0,) * 5),
        ),
        links=(
            an.Link("c", "out", "a", math.nan, an.Crack(0.0, 1.5)),
            an.Link("c", "a", "a", 0.0, an.LargeOpening(math.inf, 0.0, 0.0)),
            an.Link("f", "west", "ghost", 0.0, an.Fan(math.nan)),
            an.Link("d", "out", "b", 0.0, an.Crack(0.01, 0.6)),
        ),
    )
    assert an.validate(net) == [
        "duplicate node id 'b'",
        "zone 'a': temperature must be finite and > 0 K, got 0.0",
        "zone 'a': ref_height_m must be finite, got nan",
        "zone 'a': mech_flow_kg_s must be finite, got inf",
        "external node 'out': ref_height_m must be finite, got -inf",
        "external node 'out': cp table must have 8 entries, got 7",
        "external node 'west': cp value 2.5 out of range [-2, 2]",
        "link 'c': elevation_m must be finite, got nan",
        "link 'c': crack coefficient k must be finite and > 0, got 0.0",
        "link 'c': crack exponent out of range [0.5, 1], got 1.5",
        "duplicate link id 'c'",
        "link 'c': from and to are both 'a'",
        "link 'c': opening width_m must be finite and > 0, got inf",
        "link 'c': opening height_m must be finite and > 0, got 0.0",
        "link 'c': discharge coefficient out of range (0, 1], got 0.0",
        "link 'f': unknown endpoint 'ghost'",
        "link 'f': flow_kg_s must be finite, got nan",
        "unreachable zone 'island': no link path to any external node",
    ]
    assert an.validate(an.Network(zones=())) == ["network has no zones"]


# A network with one record of each class, every field valid.
ONE_OF_EACH = an.Network(
    zones=(an.Zone("z1", 293.15, 1.0),),
    external_nodes=(an.ExternalNode("out", 1.0, (0.5,) * 8),),
    links=(
        an.Link("c1", "out", "z1", 1.0, an.Crack(0.01, 0.65)),
        an.Link("door", "out", "z1", 0.0, an.LargeOpening(0.8, 2.0)),
        an.Link("sf", "out", "z1", 2.0, an.Fan(0.004)),
    ),
)


def _replaced(group: str, index: int, model: bool = False, **changes) -> an.Network:
    """ONE_OF_EACH with `changes` made to one record of `group`, or to its model."""
    records = list(getattr(ONE_OF_EACH, group))
    record = records[index]
    if model:
        changes = {"model": dataclasses.replace(record.model, **changes)}
    records[index] = dataclasses.replace(record, **changes)
    return dataclasses.replace(ONE_OF_EACH, **{group: tuple(records)})


@pytest.mark.parametrize(
    "net, message",
    [
        (_replaced("zones", 0, temperature_k=True), "zone 'z1': temperature_k must be a number, got True"),
        (_replaced("zones", 0, temperature_k="300"), "zone 'z1': temperature_k must be a number, got '300'"),
        (_replaced("zones", 0, mech_flow_kg_s=np.True_), "zone 'z1': mech_flow_kg_s must be a number, got np.True_"),
        (_replaced("links", 0, elevation_m=None), "link 'c1': elevation_m must be a number, got None"),
        (_replaced("links", 0, True, k=True), "link 'c1': k must be a number, got True"),
        (_replaced("links", 1, True, cd=True), "link 'door': cd must be a number, got True"),
        (_replaced("links", 2, True, flow_kg_s=True), "link 'sf': flow_kg_s must be a number, got True"),
        (
            _replaced("external_nodes", 0, cp=("a",) + (0.5,) * 7),
            "external node 'out': cp must be a tuple of numbers, got ('a', 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5)",
        ),
        (_replaced("external_nodes", 0, cp=None), "external node 'out': cp must be a tuple of numbers, got None"),
        (
            dataclasses.replace(
                ONE_OF_EACH, links=(an.Link("l", "out", "z1", 0.0, None), *ONE_OF_EACH.links[1:])
            ),
            "link 'l': model must be a crack, a large opening or a fan, got None",
        ),
        (_replaced("links", 0, from_node=["out"]), "link 'c1': from_node must be a string, got ['out']"),
        (_replaced("links", 2, to_node=None), "link 'sf': to_node must be a string, got None"),
        (_replaced("links", 1, id=["door"]), "link '['door']': id must be a string, got ['door']"),
        (an.Network((None,)), "zones[0]: must be a Zone, got None"),
        (an.Network(None), "zones: must be a tuple, got None"),
        (
            dataclasses.replace(ONE_OF_EACH, external_nodes=(*ONE_OF_EACH.external_nodes, None)),
            "external_nodes[1]: must be an ExternalNode, got None",
        ),
        (dataclasses.replace(ONE_OF_EACH, links=(None, *ONE_OF_EACH.links)), "links[0]: must be a Link, got None"),
        (
            dataclasses.replace(ONE_OF_EACH, external_nodes=(*ONE_OF_EACH.external_nodes, ONE_OF_EACH.zones[0])),
            f"external_nodes[1]: must be an ExternalNode, got {ONE_OF_EACH.zones[0]!r}",
        ),
    ],
    ids=[
        "bool", "str", "numpy-bool", "None", "k", "cd", "fan", "cp-entry", "cp-None",
        "model-None", "endpoint-list", "endpoint-None", "link-id-list",
        "zone-entry-None", "zones-None", "external-node-entry-None", "link-entry-None", "zone-as-external-node",
    ],
)
def test_validate_reports_a_value_of_the_wrong_type(net, message):
    # True is the number 1 to Python, so a bool passed every range check; a
    # string or None made a check raise TypeError instead of reporting, as a
    # model that is not one or an unhashable endpoint did.  A bad endpoint
    # takes no part in the endpoint and reachability rules: the other links
    # still reach z1.  An entry that is not a record raised AttributeError,
    # and zones=None a TypeError; such an entry takes no part in the other
    # rules either: a zone listed as an external node makes no duplicate id,
    # and a network whose one zone entry is None is not reported as zoneless.
    assert an.validate(net) == [message]


def test_validate_refuses_a_zone_that_only_fans_reach():
    # A fan's flow does not depend on the pressures, so it determines none:
    # this network used to validate, and every strategy then met a singular
    # Jacobian at iteration 0.
    net = an.Network(
        zones=(an.Zone("a", 293.15, 0.0),),
        external_nodes=(an.ExternalNode("out", 0.0, (0.0,) * 8),),
        links=(an.Link("f", "out", "a", 0.0, an.Fan(0.01)),),
    )
    assert an.validate(net) == ["unreachable zone 'a': no link path to any external node"]
    with pytest.raises(an.SingularJacobianError):
        an.solve(net, an.BoundaryState(3.0, 0.0, 283.0), None, "nr", an.SolverConfig())


def test_validate_refuses_a_group_of_zones_that_only_fans_reach():
    # a and b are joined by a crack and a door, but only fans join them to
    # the outside or to c, which a crack holds to the facade.
    net = an.Network(
        zones=(an.Zone("a", 293.15, 0.0), an.Zone("b", 295.0, 0.0), an.Zone("c", 293.15, 0.0)),
        external_nodes=(an.ExternalNode("out", 0.0, (0.0,) * 8),),
        links=(
            an.Link("ab", "a", "b", 0.5, an.Crack(0.01, 0.65)),
            an.Link("door", "b", "a", 0.0, an.LargeOpening(0.8, 2.0)),
            an.Link("fa", "out", "a", 1.0, an.Fan(0.01)),
            an.Link("fb", "b", "c", 1.0, an.Fan(0.02)),
            an.Link("cc", "out", "c", 0.5, an.Crack(0.01, 0.65)),
        ),
    )
    assert an.validate(net) == [
        "unreachable zone 'a': no link path to any external node",
        "unreachable zone 'b': no link path to any external node",
    ]
    # A door, as a crack, joins a zone to its neighbour's pressure.
    door = dataclasses.replace(net.links[1], from_node="c")
    assert an.validate(dataclasses.replace(net, links=net.links[:1] + (door,) + net.links[2:])) == []


def test_validate_reports_only_the_first_failed_check_of_a_field():
    # A cp table of 7 entries, one out of range: the length is reported and
    # the range check is not run.
    net = _replaced("external_nodes", 0, cp=(9.0,) * 7)
    assert an.validate(net) == ["external node 'out': cp table must have 8 entries, got 7"]


def test_validate_bad_opening_parameters():
    net = an.Network(
        zones=(an.Zone("a", 293.15, 0.0),),
        external_nodes=(an.ExternalNode("out", 0.0, (0.0,) * 8),),
        links=(an.Link("o", "out", "a", 0.0, an.LargeOpening(0.0, 2.0, 1.5)),),
    )
    violations = an.validate(net)
    assert any("width" in v for v in violations)
    assert any("discharge" in v for v in violations)


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999", "1" + "0" * 400])
def test_parse_rejects_non_finite_numbers(literal):
    text = MINIMAL.replace('"elevation_m": 1.0', f'"elevation_m": {literal}')
    with pytest.raises(an.NetworkFormatError) as err:
        an.parse_network(text)
    assert literal in str(err.value)


@pytest.mark.parametrize(
    "old, new",
    [
        ('"elevation_m": 0.0', '"elevation_m": NaN'),
        ('"ref_height_m": 0.0}', '"ref_height_m": 0.0, "mech_flow_kg_s": Infinity}'),
    ],
)
def test_parse_rejects_non_finite_two_crack_fields(old, new):
    # Each used to parse, and every strategy then raised SingularJacobianError.
    doc = an.bundled_example_path("two_crack").read_text()
    assert old in doc
    with pytest.raises(an.NetworkFormatError, match="non-finite"):
        an.parse_network(doc.replace(old, new, 1))


def _finite_base():
    return an.Network(
        zones=(an.Zone("a", 293.15, 0.0, 0.001),),
        external_nodes=(an.ExternalNode("out", 0.0, (0.0,) * 8),),
        links=(
            an.Link("c", "out", "a", 0.0, an.Crack(0.01, 0.6)),
            an.Link("o", "out", "a", 0.5, an.LargeOpening(0.8, 2.0)),
            an.Link("f", "out", "a", 1.0, an.Fan(0.002)),
        ),
    )


def _with_zone(**changes):
    net = _finite_base()
    return dataclasses.replace(net, zones=(dataclasses.replace(net.zones[0], **changes),))


def _with_link(index, **changes):
    net = _finite_base()
    links = list(net.links)
    link = links[index]
    if "elevation_m" in changes:
        links[index] = dataclasses.replace(link, **changes)
    else:
        links[index] = dataclasses.replace(link, model=dataclasses.replace(link.model, **changes))
    return dataclasses.replace(net, links=tuple(links))


@pytest.mark.parametrize(
    "net, field",
    [
        (_with_zone(ref_height_m=math.nan), "ref_height_m"),
        (_with_zone(mech_flow_kg_s=math.inf), "mech_flow_kg_s"),
        (_with_zone(temperature_k=math.inf), "temperature"),
        (
            dataclasses.replace(
                _finite_base(), external_nodes=(an.ExternalNode("out", -math.inf, (0.0,) * 8),)
            ),
            "ref_height_m",
        ),
        (_with_link(0, elevation_m=math.nan), "elevation_m"),
        (_with_link(0, k=math.inf), "k must be finite"),
        (_with_link(1, width_m=math.inf), "width_m"),
        (_with_link(1, height_m=math.inf), "height_m"),
        (_with_link(2, flow_kg_s=math.nan), "flow_kg_s"),
    ],
    ids=[
        "zone-ref_height_m",
        "zone-mech_flow_kg_s",
        "zone-temperature_k",
        "external-ref_height_m",
        "link-elevation_m",
        "crack-k",
        "opening-width_m",
        "opening-height_m",
        "fan-flow_kg_s",
    ],
)
def test_validate_rejects_non_finite_fields(net, field):
    assert an.validate(_finite_base()) == []
    violations = an.validate(net)
    assert len(violations) == 1
    assert field in violations[0]


def _with_cp(*cp):
    return dataclasses.replace(
        _finite_base(), external_nodes=(an.ExternalNode("out", 0.0, cp + (0.0,) * (8 - len(cp))),)
    )


_TINY = 5e-324  # the least positive float


@pytest.mark.parametrize(
    "net, valid",
    [
        (_with_link(0, n=0.5), True),
        (_with_link(0, n=1.0), True),
        (_with_link(0, n=math.nextafter(0.5, 0.0)), False),
        (_with_link(0, n=math.nextafter(1.0, 2.0)), False),
        (_with_link(1, cd=1.0), True),
        (_with_link(1, cd=0.0), False),
        (_with_link(1, cd=math.nextafter(1.0, 2.0)), False),
        (_with_cp(2.0, -2.0), True),
        (_with_cp(math.nextafter(2.0, 3.0)), False),
        (_with_cp(math.nextafter(-2.0, -3.0)), False),
        (_with_zone(temperature_k=_TINY), True),
        (_with_zone(temperature_k=0.0), False),
        (_with_zone(temperature_k=math.inf), False),
        (_with_link(0, k=_TINY), True),
        (_with_link(0, k=0.0), False),
        (_with_link(0, k=math.inf), False),
        (_with_link(1, width_m=_TINY), True),
        (_with_link(1, width_m=0.0), False),
        (_with_link(1, width_m=math.inf), False),
        (_with_link(1, height_m=_TINY), True),
        (_with_link(1, height_m=0.0), False),
        (_with_link(1, height_m=math.inf), False),
    ],
    ids=[
        "n-0.5", "n-1", "n-below-0.5", "n-above-1",
        "cd-1", "cd-0", "cd-above-1",
        "cp-2-and-minus-2", "cp-above-2", "cp-below-minus-2",
        "temperature_k-tiny", "temperature_k-0", "temperature_k-inf",
        "k-tiny", "k-0", "k-inf",
        "width_m-tiny", "width_m-0", "width_m-inf",
        "height_m-tiny", "height_m-0", "height_m-inf",
    ],
)
def test_validate_range_edges(net, valid):
    assert len(an.validate(net)) == (0 if valid else 1)


@pytest.mark.parametrize("name", ["two_crack", "threestorey", "iea_door", "dwelling5", "dwelling5_cracks"])
def test_bundled_examples_are_valid(name):
    net = an.load_network(an.bundled_example_path(name))
    assert an.validate(net) == []


def test_load_network_reads_utf8_with_or_without_a_byte_order_mark(tmp_path):
    text = an.bundled_example_path("dwelling5").read_text(encoding="utf-8")
    expected = an.parse_network(text)
    for name, data in (("plain", text.encode()), ("bom", b"\xef\xbb\xbf" + text.encode())):
        path = tmp_path / f"{name}.json"
        path.write_bytes(data)
        assert an.load_network(path) == expected


def test_bundled_threestorey_shape():
    net = an.load_network(an.bundled_example_path("threestorey"))
    assert len(net.zones) == 3
    assert len(net.links) >= 8


def test_bundled_example_path_unknown_name():
    with pytest.raises(FileNotFoundError):
        an.bundled_example_path("does_not_exist")
