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

The record dataclasses below are the schema: each key of a zone, an
external node, a link or a model is the field of its name, except a link's
`from` and `to` (`from_node`, `to_node`) and a model's `type`, which picks
its class.  A field with a default may be left out.  A key that the schema
does not name, or that one object holds twice, is an error, so no value is
dropped silently.

Each field also declares the range of its value and the message that reports
a value outside it; `validate` adds only the rules that span records.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import MISSING, dataclass, field, fields
from functools import cache
from pathlib import Path
from typing import Iterator, Union

__all__ = [
    "Zone",
    "ExternalNode",
    "Crack",
    "LargeOpening",
    "Fan",
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


# Kinds of number, builtin types first: isinstance matches those at once, numbers.Real in 0.35 us.
_REAL, _INTEGRAL = (float, int, numbers.Real), (int, numbers.Integral)


def _is_number(value, kind=_REAL) -> bool:
    """Whether value is a `kind` number, and not a bool: True would pass as 1."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _checked(*checks, default=MISSING):
    """A record field with `checks`, each `(ok, message)` or `(ok, message,
    shown)`: a value that fails `ok` is reported as `message` formatted with
    the value, or with `shown(value)`, and with the field's `name`."""
    checks = tuple(check if len(check) == 3 else (*check, lambda value: value) for check in checks)
    return field(default=default, metadata={"checks": checks})


def _positive(value: float) -> bool:
    return 0 < value < math.inf


def _cp_outside(cp: tuple[float, ...]) -> float | None:
    """The first cp value outside [-2, 2], if any."""
    return next((v for v in cp if not -2.0 <= v <= 2.0), None)


_FINITE = (math.isfinite, "{name} must be finite, got {}")
_POSITIVE = (_positive, "{name} must be finite and > 0, got {}")
_NON_FINITE = (math.isfinite, "non-finite {name}: {}")  # BoundaryState's wording


@dataclass(frozen=True)
class Zone:
    """A room with an unknown reference pressure.

    `mech_flow_kg_s` is the imposed mechanical-ventilation mass gain,
    positive into the zone.
    """

    id: str
    temperature_k: float = _checked((_positive, "temperature must be finite and > 0 K, got {}"))
    ref_height_m: float = _checked(_FINITE)
    mech_flow_kg_s: float = _checked(_FINITE, default=0.0)


@dataclass(frozen=True)
class ExternalNode:
    """A facade point whose pressure is imposed by wind and outdoor air."""

    id: str
    ref_height_m: float = _checked(_FINITE)
    # 8 sector coefficients, north first, 45 deg apart
    cp: tuple[float, ...] = _checked(
        (lambda cp: len(cp) == 8, "cp table must have 8 entries, got {}", len),
        (lambda cp: _cp_outside(cp) is None, "cp value {} out of range [-2, 2]", _cp_outside),
    )


@dataclass(frozen=True)
class Crack:
    """Power-law small opening, mass flow = k * dP**n (kg/s, dP in Pa)."""

    k: float = _checked((_positive, "crack coefficient k must be finite and > 0, got {}"))
    n: float = _checked((lambda n: 0.5 <= n <= 1.0, "crack exponent out of range [0.5, 1], got {}"))


@dataclass(frozen=True)
class LargeOpening:
    """Tall aperture that can carry simultaneous two-way flow."""

    width_m: float = _checked((_positive, "opening width_m must be finite and > 0, got {}"))
    height_m: float = _checked((_positive, "opening height_m must be finite and > 0, got {}"))
    cd: float = _checked(
        (lambda cd: 0 < cd <= 1, "discharge coefficient out of range (0, 1], got {}"), default=0.6
    )


@dataclass(frozen=True)
class Fan:
    """Fixed-flow device; flow is independent of pressures."""

    flow_kg_s: float = _checked(_FINITE)


LinkModel = Union[Crack, LargeOpening, Fan]

_MODELS = {"crack": Crack, "large_opening": LargeOpening, "fan": Fan}  # by their "type"


@dataclass(frozen=True)
class Link:
    id: str
    from_node: str = field(metadata={"key": "from"})  # its key in a file
    to_node: str = field(metadata={"key": "to"})
    elevation_m: float = _checked(_FINITE)
    model: LinkModel


@dataclass(frozen=True)
class Network:
    """Immutable pressure-network description; safe to share across solves."""

    zones: tuple[Zone, ...]
    external_nodes: tuple[ExternalNode, ...] = field(default=())
    links: tuple[Link, ...] = field(default=())


# ---------------------------------------------------------------------------
# validation


def _is_str(value) -> bool:
    return isinstance(value, str)


# The check of each annotation's type, run before those its field declares.
_TYPE_RULES = {
    "str": ((_is_str, "{name} must be a string, got {}", repr),),
    "LinkModel": (
        (lambda v: isinstance(v, LinkModel),
         "{name} must be a crack, a large opening or a fan, got {}", repr),
    ),
    "float": ((_is_number, "{name} must be a number, got {}", repr),),
    "int": ((lambda v: _is_number(v, _INTEGRAL), "{name} must be an integer, got {}", repr),),
    "tuple[float, ...]": (
        (lambda v: isinstance(v, tuple) and all(map(_is_number, v)),
         "{name} must be a tuple of numbers, got {}", repr),
    ),
}


@cache
def _schema(cls) -> tuple[tuple[str, str, str, bool, tuple], ...]:
    """(name, key, kind, required, checks) of each field of the record class
    `cls`: its key in a file, its annotation, and its type rule and own checks."""
    return tuple(
        (f.name, f.metadata.get("key", f.name), f.type, f.default is MISSING,
         _TYPE_RULES.get(f.type, ()) + f.metadata.get("checks", ()))
        for f in fields(cls)
    )


def _field_violations(record) -> Iterator[str]:
    """The first check that each of `record`'s fields fails, in field order."""
    for name, _, _, _, checks in _schema(type(record)):
        value = getattr(record, name)
        for ok, message, shown in checks:
            if not ok(value):
                yield message.format(shown(value), name=name)
                break


def _entries(net: Network, name: str, cls, violations: list[str]) -> list:
    """The `cls` records in the network's field `name`; each other entry, or
    a field that is not a tuple, is added to `violations`."""
    entries = getattr(net, name)
    if not isinstance(entries, tuple):
        violations.append(f"{name}: must be a tuple, got {entries!r}")
        return []
    article = "an" if cls.__name__[0] in "AEIOU" else "a"
    records = []
    for i, entry in enumerate(entries):
        if isinstance(entry, cls):
            records.append(entry)
        else:
            violations.append(f"{name}[{i}]: must be {article} {cls.__name__}, got {entry!r}")
    return records


def validate(net: Network) -> list[str]:
    """Return every invariant violation (empty list means the network is valid).

    Each field of each record, a link's model included, reports the first
    check it fails: the type its annotation names (a string; a number, not a
    bool; for cp a tuple of numbers; a link model), then the range it
    declares.  Only the rules that span records are written here: no zones,
    duplicate ids, unknown or self-referencing link endpoints, and
    reachability of every zone from an external node through cracks and
    large openings (else its pressure is undetermined: a fan's flow does not
    depend on it).  An id or endpoint that is not a string takes no part in
    them, nor does an entry of `zones`, `external_nodes` or `links` that is
    not a record of its kind: it is one violation, named by field and index.
    """
    violations: list[str] = []
    if isinstance(net.zones, tuple) and not net.zones:
        violations.append("network has no zones")
    zones = _entries(net, "zones", Zone, violations)
    nodes = _entries(net, "external_nodes", ExternalNode, violations)
    links = _entries(net, "links", Link, violations)

    node_ids: set[str] = set()
    for node_id in filter(_is_str, [z.id for z in zones] + [n.id for n in nodes]):
        if node_id in node_ids:
            violations.append(f"duplicate node id '{node_id}'")
        node_ids.add(node_id)

    for kind, records in (("zone", zones), ("external node", nodes)):
        for record in records:
            violations += (f"{kind} '{record.id}': {v}" for v in _field_violations(record))

    seen_links: set[str] = set()
    adjacency: dict[str, set[str]] = {}  # the undirected graph of the coupling links
    for link in links:
        owner = f"link '{link.id}'"
        if _is_str(link.id):
            if link.id in seen_links:
                violations.append(f"duplicate link id '{link.id}'")
            seen_links.add(link.id)
        ends = (link.from_node, link.to_node)
        if all(map(_is_str, ends)):
            if link.from_node == link.to_node:
                violations.append(f"{owner}: from and to are both '{link.from_node}'")
            violations += (f"{owner}: unknown endpoint '{end}'" for end in ends if end not in node_ids)
            if isinstance(link.model, (Crack, LargeOpening)):
                adjacency.setdefault(link.from_node, set()).add(link.to_node)
                adjacency.setdefault(link.to_node, set()).add(link.from_node)
        records = (link, link.model) if isinstance(link.model, LinkModel) else (link,)
        violations += (f"{owner}: {v}" for r in records for v in _field_violations(r))

    # Reachability: BFS over the coupling links from all external nodes.
    reached = set(filter(_is_str, (n.id for n in nodes)))
    frontier = list(reached)
    while frontier:
        new = adjacency.get(frontier.pop(), set()) - reached
        reached |= new
        frontier += new
    for zone in zones:
        if _is_str(zone.id) and zone.id not in reached:
            violations.append(f"unreachable zone '{zone.id}': no link path to any external node")

    return violations


# ---------------------------------------------------------------------------
# parsing


def _require(obj: dict, key: str, kind, context: str):
    """obj[key], which must be there and be of `kind`: a type or an annotation."""
    if key not in obj:
        raise NetworkFormatError(f"{context}: missing field '{key}'")
    value = obj[key]
    if kind == "float":
        if not _is_number(value):
            raise NetworkFormatError(f"{context}: field '{key}' must be a number")
    elif kind == "tuple[float, ...]":
        value = tuple(_require(obj, key, list, context))  # each a float, as is every JSON number
        if not all(map(_is_number, value)):
            raise NetworkFormatError(f"{context}: field '{key}' must hold numbers")
    elif not isinstance(value, str if kind == "str" else kind):
        raise NetworkFormatError(f"{context}: field '{key}' has wrong type")
    return value


def _record(cls, obj: dict, context: str, read: tuple[str, ...] = (), **given):
    """A `cls` record from the object obj.  The caller has read the fields in
    `given`, and the keys in `read` that name no field.

    Every other field is read from its key, as its annotation names, and a
    field with a default may be left out.  Any other key, or one written
    twice, is an error.
    """
    _unique(obj, context)
    keys = set(read)
    for name, key, kind, required, _ in _schema(cls):
        keys.add(key)
        if name not in given and (key in obj or required):
            given[name] = _require(obj, key, kind, context)
    for key in obj:
        if key not in keys:
            raise NetworkFormatError(f"{context}: unknown field '{key}'")
    return cls(**given)


def _objects(doc: dict, key: str):
    """(object, context) for each entry of the document's list `key`."""
    for i, obj in enumerate(_require(doc, key, list, "document")):
        context = f"{key}[{i}]"
        if not isinstance(obj, dict):
            raise NetworkFormatError(f"{context}: must be an object")
        yield obj, context


def _link(obj: dict, context: str) -> Link:
    model = _require(obj, "model", dict, context)
    model_context = f"{context}.model"
    kind = _require(model, "type", str, model_context)
    if kind not in _MODELS:
        raise NetworkFormatError(f"{model_context}: unknown model type '{kind}'")
    model = _record(_MODELS[kind], model, model_context, ("type",))
    return _record(Link, obj, context, model=model)


def _reject_constant(name: str):
    raise NetworkFormatError(f"non-finite number {name} is not allowed")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise NetworkFormatError(f"number {text} is out of range")
    return value


class _Object(dict):
    """A JSON object, with the first key that it holds twice, if any: the
    reader that knows its context refuses it (`_unique`)."""

    repeated: str | None = None

    def __init__(self, pairs: list[tuple[str, object]]):
        super().__init__(pairs)
        if len(self) < len(pairs):
            keys = [key for key, _ in pairs]
            self.repeated = next(key for i, key in enumerate(keys) if key in keys[:i])


def _unique(obj: _Object, context: str) -> None:
    """Refuse an object that holds one key twice: JSON would keep the last value."""
    if obj.repeated is not None:
        raise NetworkFormatError(f"{context}: key '{obj.repeated}' appears twice in one object")


def parse_network(text: str) -> Network:
    """Parse a network document; raise on syntax, schema, or invariant errors.

    The returned network always passes :func:`validate`.
    """
    try:
        doc = json.loads(
            text, object_pairs_hook=_Object, parse_constant=_reject_constant,
            parse_float=_finite_float, parse_int=_finite_float,
        )
    except json.JSONDecodeError as exc:
        raise NetworkFormatError(
            f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise NetworkFormatError("top-level document must be an object")
    _unique(doc, "document")  # before its records are read

    net = _record(
        Network,
        doc,
        "document",
        zones=tuple(_record(Zone, *entry) for entry in _objects(doc, "zones")),
        external_nodes=tuple(_record(ExternalNode, *entry) for entry in _objects(doc, "external_nodes")),
        links=tuple(_link(obj, context) for obj, context in _objects(doc, "links")),
    )
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
