"""Airflow-network data model, JSON file format, and structural validation.

A network is a static description of the pressure graph: zones (rooms whose
reference pressure is unknown), external nodes (facade points whose pressure
is imposed by wind and outdoor air), and links (cracks, large openings, fans)
connecting them.  Elevations and reference heights are absolute, measured
from a common datum at ground level (0 m).

File format (JSON, one document per network)::

    {
      "zones": [
        {"id": "living", "temperature_k": 298.15, "ref_height_m": 1.35,
         "mech_flow_kg_s": -0.008}          # optional, default as in Zone
      ],
      "external_nodes": [
        {"id": "facade_n", "ref_height_m": 1.35,
         "cp": [0.6, 0.4, -0.25, -0.5, -0.6, -0.5, -0.25, 0.4]}
      ],
      "links": [
        {"id": "c1", "from": "facade_n", "to": "living", "elevation_m": 0.3,
         "model": {"type": "crack", "k": 0.008, "n": 0.65}},
        {"id": "door", "from": "living", "to": "bed2", "elevation_m": 0.0,
         "model": {"type": "large_opening", "width_m": 1.6, "height_m": 2.0,
                   "cd": 0.6}},              # cd optional, default as in LargeOpening
        {"id": "sf", "from": "facade_w", "to": "bed3", "elevation_m": 2.0,
         "model": {"type": "fan", "flow_kg_s": 0.004}}
      ]
    }

The `cp` table holds 8 wind-pressure coefficients, one per 45-degree sector
starting at north; directions between sector centers are linearly
interpolated.  Positive link flow runs from `from` to `to`.  For large
openings `elevation_m` is the bottom edge of the opening.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Union

__all__ = [
    "Zone",
    "ExternalNode",
    "Crack",
    "LargeOpening",
    "Fan",
    "LinkModel",
    "Link",
    "Network",
    "NetworkFormatError",
    "NetworkValidationError",
    "parse_network",
    "load_network",
    "validate",
    "bundled_example_path",
    "bundled_examples",
]


class NetworkFormatError(ValueError):
    """The document is not syntactically valid or violates the schema."""


class NetworkValidationError(ValueError):
    """The parsed network violates structural invariants."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass(frozen=True)
class Zone:
    """A room with an unknown reference pressure.

    `mech_flow_kg_s` is the imposed mechanical-ventilation mass gain,
    positive into the zone.
    """

    id: str
    temperature_k: float
    ref_height_m: float
    mech_flow_kg_s: float = 0.0


@dataclass(frozen=True)
class ExternalNode:
    """A facade point whose pressure is imposed by wind and outdoor air."""

    id: str
    ref_height_m: float
    cp: tuple[float, ...]  # 8 sector coefficients, north first, 45 deg apart


@dataclass(frozen=True)
class Crack:
    """Power-law small opening, mass flow = k * dP**n (kg/s, dP in Pa)."""

    k: float
    n: float


@dataclass(frozen=True)
class LargeOpening:
    """Tall aperture that can carry simultaneous two-way flow."""

    width_m: float
    height_m: float
    cd: float = 0.6


@dataclass(frozen=True)
class Fan:
    """Fixed-flow device; flow is independent of pressures."""

    flow_kg_s: float


LinkModel = Union[Crack, LargeOpening, Fan]


@dataclass(frozen=True)
class Link:
    id: str
    from_node: str
    to_node: str
    elevation_m: float
    model: LinkModel


@dataclass(frozen=True)
class Network:
    """Immutable pressure-network description; safe to share across solves."""

    zones: tuple[Zone, ...]
    external_nodes: tuple[ExternalNode, ...] = field(default=())
    links: tuple[Link, ...] = field(default=())


# ---------------------------------------------------------------------------
# validation


def validate(net: Network) -> list[str]:
    """Return every invariant violation (empty list means the network is valid).

    Checks performed: duplicate ids, unknown or self-referencing link
    endpoints, finite heights and flows, parameter ranges for each link model,
    positive temperatures, well-formed cp tables, and reachability of every
    zone from some external node through the link graph (an unreachable zone
    has an undetermined pressure).
    """
    violations: list[str] = []

    def require_finite(owner: str, obj, *fields: str) -> None:
        for name in fields:
            value = getattr(obj, name)
            if not math.isfinite(value):
                violations.append(f"{owner}: {name} must be finite, got {value}")

    if not net.zones:
        violations.append("network has no zones")

    seen: set[str] = set()
    for node_id in [z.id for z in net.zones] + [n.id for n in net.external_nodes]:
        if node_id in seen:
            violations.append(f"duplicate node id '{node_id}'")
        seen.add(node_id)

    for zone in net.zones:
        if not 0 < zone.temperature_k < math.inf:
            violations.append(
                f"zone '{zone.id}': temperature must be finite and > 0 K, got {zone.temperature_k}"
            )
        require_finite(f"zone '{zone.id}'", zone, "ref_height_m", "mech_flow_kg_s")

    for node in net.external_nodes:
        require_finite(f"external node '{node.id}'", node, "ref_height_m")
        if len(node.cp) != 8:
            violations.append(
                f"external node '{node.id}': cp table must have 8 entries, got {len(node.cp)}"
            )
        for value in node.cp:
            if not -2.0 <= value <= 2.0:
                violations.append(
                    f"external node '{node.id}': cp value {value} out of range [-2, 2]"
                )
                break

    node_ids = seen
    seen_links: set[str] = set()
    for link in net.links:
        if link.id in seen_links:
            violations.append(f"duplicate link id '{link.id}'")
        seen_links.add(link.id)
        if link.from_node == link.to_node:
            violations.append(f"link '{link.id}': from and to are both '{link.from_node}'")
        for end in (link.from_node, link.to_node):
            if end not in node_ids:
                violations.append(f"link '{link.id}': unknown endpoint '{end}'")
        require_finite(f"link '{link.id}'", link, "elevation_m")
        model = link.model
        if isinstance(model, Crack):
            if not 0 < model.k < math.inf:
                violations.append(
                    f"link '{link.id}': crack coefficient k must be finite and > 0, got {model.k}"
                )
            if not 0.5 <= model.n <= 1.0:
                violations.append(
                    f"link '{link.id}': crack exponent out of range [0.5, 1], got {model.n}"
                )
        elif isinstance(model, LargeOpening):
            if not 0 < model.width_m < math.inf:
                violations.append(
                    f"link '{link.id}': opening width_m must be finite and > 0, got {model.width_m}"
                )
            if not 0 < model.height_m < math.inf:
                violations.append(
                    f"link '{link.id}': opening height_m must be finite and > 0, got {model.height_m}"
                )
            if not 0 < model.cd <= 1:
                violations.append(
                    f"link '{link.id}': discharge coefficient out of range (0, 1], got {model.cd}"
                )
        elif isinstance(model, Fan):
            require_finite(f"link '{link.id}'", model, "flow_kg_s")

    # Reachability: BFS over the undirected link graph from all external nodes.
    adjacency: dict[str, set[str]] = {}
    for link in net.links:
        adjacency.setdefault(link.from_node, set()).add(link.to_node)
        adjacency.setdefault(link.to_node, set()).add(link.from_node)
    reached = {n.id for n in net.external_nodes}
    frontier = list(reached)
    while frontier:
        current = frontier.pop()
        for neighbor in adjacency.get(current, ()):
            if neighbor not in reached:
                reached.add(neighbor)
                frontier.append(neighbor)
    for zone in net.zones:
        if zone.id not in reached:
            violations.append(f"unreachable zone '{zone.id}': no link path to any external node")

    return violations


# ---------------------------------------------------------------------------
# parsing


def _require(obj: dict, key: str, kind, context: str):
    if key not in obj:
        raise NetworkFormatError(f"{context}: missing field '{key}'")
    value = obj[key]
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise NetworkFormatError(f"{context}: field '{key}' must be a number")
        return float(value)
    if not isinstance(value, kind):
        raise NetworkFormatError(f"{context}: field '{key}' has wrong type")
    return value


def _optional(obj: dict, key: str, context: str) -> dict[str, float]:
    """{key: its number} when obj has key, else {}: the record keeps its default."""
    return {key: _require(obj, key, float, context)} if key in obj else {}


def _parse_model(obj: dict, context: str) -> LinkModel:
    kind = _require(obj, "type", str, context)
    if kind == "crack":
        return Crack(k=_require(obj, "k", float, context), n=_require(obj, "n", float, context))
    if kind == "large_opening":
        return LargeOpening(
            width_m=_require(obj, "width_m", float, context),
            height_m=_require(obj, "height_m", float, context),
            **_optional(obj, "cd", context),
        )
    if kind == "fan":
        return Fan(flow_kg_s=_require(obj, "flow_kg_s", float, context))
    raise NetworkFormatError(f"{context}: unknown model type '{kind}'")


def _reject_constant(name: str):
    raise NetworkFormatError(f"non-finite number {name} is not allowed")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise NetworkFormatError(f"number {text} is out of range")
    return value


def parse_network(text: str) -> Network:
    """Parse a network document; raise on syntax, schema, or invariant errors.

    The returned network always passes :func:`validate`.
    """
    try:
        doc = json.loads(
            text, parse_constant=_reject_constant, parse_float=_finite_float, parse_int=_finite_float
        )
    except json.JSONDecodeError as exc:
        raise NetworkFormatError(
            f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise NetworkFormatError("top-level document must be an object")

    zones = []
    for i, obj in enumerate(_require(doc, "zones", list, "document")):
        context = f"zones[{i}]"
        if not isinstance(obj, dict):
            raise NetworkFormatError(f"{context}: must be an object")
        zones.append(
            Zone(
                id=_require(obj, "id", str, context),
                temperature_k=_require(obj, "temperature_k", float, context),
                ref_height_m=_require(obj, "ref_height_m", float, context),
                **_optional(obj, "mech_flow_kg_s", context),
            )
        )

    externals = []
    for i, obj in enumerate(_require(doc, "external_nodes", list, "document")):
        context = f"external_nodes[{i}]"
        if not isinstance(obj, dict):
            raise NetworkFormatError(f"{context}: must be an object")
        cp = _require(obj, "cp", list, context)
        for value in cp:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise NetworkFormatError(f"{context}: field 'cp' must hold numbers")
        externals.append(
            ExternalNode(
                id=_require(obj, "id", str, context),
                ref_height_m=_require(obj, "ref_height_m", float, context),
                cp=tuple(float(v) for v in cp),
            )
        )

    links = []
    for i, obj in enumerate(_require(doc, "links", list, "document")):
        context = f"links[{i}]"
        if not isinstance(obj, dict):
            raise NetworkFormatError(f"{context}: must be an object")
        model_obj = _require(obj, "model", dict, context)
        links.append(
            Link(
                id=_require(obj, "id", str, context),
                from_node=_require(obj, "from", str, context),
                to_node=_require(obj, "to", str, context),
                elevation_m=_require(obj, "elevation_m", float, context),
                model=_parse_model(model_obj, f"{context}.model"),
            )
        )

    net = Network(zones=tuple(zones), external_nodes=tuple(externals), links=tuple(links))
    violations = validate(net)
    if violations:
        raise NetworkValidationError(violations)
    return net


def load_network(path: str | Path) -> Network:
    """Read and parse a network file, UTF-8 with or without a byte-order mark."""
    return parse_network(Path(path).read_text(encoding="utf-8-sig"))


# ---------------------------------------------------------------------------
# bundled example networks

_DATA_DIR = Path(__file__).parent / "data"


def bundled_examples() -> list[str]:
    """Names of the example networks shipped with the package."""
    return sorted(p.stem for p in _DATA_DIR.glob("*.json"))


def bundled_example_path(name: str) -> Path:
    """Path of a bundled example network (name without the .json suffix)."""
    path = _DATA_DIR / f"{name}.json"
    if not path.exists():
        raise FileNotFoundError(f"no bundled network named '{name}' (have: {bundled_examples()})")
    return path
