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


def test_parse_schema_error_names_field():
    doc = json.loads(MINIMAL)
    del doc["zones"][0]["temperature_k"]
    with pytest.raises(an.NetworkFormatError) as err:
        an.parse_network(json.dumps(doc))
    assert "temperature_k" in str(err.value)


def test_parse_unknown_model_type():
    doc = json.loads(MINIMAL)
    doc["links"][0]["model"] = {"type": "duct", "k": 1}
    with pytest.raises(an.NetworkFormatError) as err:
        an.parse_network(json.dumps(doc))
    assert "duct" in str(err.value)


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
    net = an.Network(
        zones=(an.Zone("a", -5.0, 0.0), an.Zone("b", 290.0, 0.0)),
        external_nodes=(an.ExternalNode("out", 0.0, (3.0,) + (0.0,) * 7),),
        links=(
            an.Link("c", "out", "missing", 0.0, an.Crack(-1.0, 0.6)),
            an.Link("d", "b", "b", 0.0, an.Crack(0.01, 0.6)),
        ),
    )
    violations = an.validate(net)
    # temperature, cp range, unknown endpoint, bad k, self loop, unreachable a and b
    assert len(violations) >= 6


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
