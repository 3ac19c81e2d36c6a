"""Seeded inputs for the solver benchmark.

Every input is built here from the workload seed and handed to the program
only as text: a network JSON document and a weather CSV.  Nothing in this
module imports the package under test, so a change to the package cannot
change what the benchmark feeds it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

WEATHER_HEADER = "timestamp,wind_speed_m_s,wind_dir_deg,temp_out_c"

# Wind-pressure coefficients for a facade facing north, one per 45-degree
# sector starting at north; the other facades are rotations of it.
CP_NORTH = (0.6, 0.4, -0.25, -0.5, -0.6, -0.5, -0.25, 0.4)
FACADES = ("n", "e", "s", "w")
STRATEGIES = ("NR", "WM", "PNR", "PWM")

STOREYS = 4
ROOMS_PER_STOREY = 4
STOREY_HEIGHT_M = 3.0
CRACK_STOREYS = 20
CRACK_ROOMS_PER_STOREY = 16
# stack_doors_cold solves several seeded buildings per run, so that one
# unusual building does not set the run's percentiles.
STACK_BUILDINGS = 48
# On crack320_warm an NR step costs about 5x a WM step and a PNR step 2x;
# they run only this many leading steps of the series.
CRACK_SLOW_STEPS = 16


@dataclass(frozen=True)
class Case:
    """One network and the weather series it is solved over."""

    network_json: str
    weather_csv: str


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: its inputs and how its series are run."""

    name: str
    cases: tuple[Case, ...]
    warm_start: bool
    # Leading steps of each case's series a strategy runs (absent: all).
    steps: dict[str, int]


def weather_csv(days: int, step_minutes: int, seed: int) -> str:
    """Synthetic weather: a sinusoidal diurnal temperature and a gusty,
    slowly veering wind.

    The recipe, including the order of the random draws, is the one the
    paper's 480-step series uses, so ``weather_csv(10, 30, 42)`` is that
    series.
    """
    start = datetime(2024, 1, 1)
    rng = np.random.default_rng(seed)
    count = days * 24 * 60 // step_minutes
    rows = [WEATHER_HEADER]
    for i in range(count):
        stamp = start + timedelta(minutes=i * step_minutes)
        hour = stamp.hour + stamp.minute / 60.0
        temp = 24.0 + 4.0 * math.sin(2.0 * math.pi * (hour - 9.0) / 24.0)
        temp += float(rng.normal(0.0, 0.4))
        wind = 4.0 + 2.0 * math.sin(2.0 * math.pi * (hour - 12.0) / 24.0)
        wind = max(0.0, wind + float(rng.normal(0.0, 1.2)))
        direction = 110.0 + 25.0 * math.sin(2.0 * math.pi * i / (2.0 * count / days))
        direction = (direction + float(rng.normal(0.0, 12.0))) % 360.0
        rows.append(
            f"{stamp.isoformat()},{round(wind, 3):.3f},{round(direction, 2):.2f},{round(temp, 3):.3f}"
        )
    return "\n".join(rows) + "\n"


def _facade_cp(facade: str) -> list[float]:
    shift = 2 * FACADES.index(facade)
    return [CP_NORTH[(i - shift) % 8] for i in range(8)]


def _crack(link_id: str, a: str, b: str, z: float, k: float, n: float) -> dict:
    return {"id": link_id, "from": a, "to": b, "elevation_m": z,
            "model": {"type": "crack", "k": k, "n": n}}


def _opening(link_id: str, a: str, b: str, z: float, width: float, height: float) -> dict:
    return {"id": link_id, "from": a, "to": b, "elevation_m": z,
            "model": {"type": "large_opening", "width_m": width, "height_m": height, "cd": 0.6}}


def stack_doors_network(seed: int) -> str:
    """A 4-storey building, 4 rooms in a row per storey, as network JSON.

    Each room has its own temperature in [291, 301] K and one facade crack.
    A 0.9 x 2.0 m door joins each pair of neighbouring rooms, and a
    1.0 x 1.0 m stair opening joins the end rooms of consecutive storeys:
    16 zones, 12 doors, 3 stair openings and 16 cracks.  Doors between rooms
    at different temperatures carry two-way flow.
    """
    rng = np.random.default_rng([seed, 1])
    zones, links = [], []
    facade_of_room = ("w", "n", "s", "e")
    for s in range(STOREYS):
        base = s * STOREY_HEIGHT_M
        for r in range(ROOMS_PER_STOREY):
            zid = f"s{s}r{r}"
            zones.append({"id": zid, "temperature_k": round(float(rng.uniform(291.0, 301.0)), 3),
                          "ref_height_m": base + 1.35, "mech_flow_kg_s": 0.0})
            links.append(_crack(
                f"crack_{zid}", f"facade_{facade_of_room[r]}", zid,
                round(base + float(rng.uniform(0.2, 2.6)), 3),
                round(float(10 ** rng.uniform(-2.6, -2.0)), 6),
                round(float(rng.uniform(0.55, 0.7)), 3),
            ))
            if r > 0:
                links.append(_opening(f"door_{zid}", f"s{s}r{r - 1}", zid, base, 0.9, 2.0))
        if s > 0:
            links.append(_opening(f"stair_{s}", f"s{s - 1}r0", f"s{s}r0", base - 1.0, 1.0, 1.0))
    externals = [{"id": f"facade_{f}", "ref_height_m": 0.0, "cp": _facade_cp(f)} for f in FACADES]
    return json.dumps({"zones": zones, "external_nodes": externals, "links": links})


def crack_network(seed: int) -> str:
    """A 20-storey crack-only building of 320 zones as network JSON.

    Each storey is a row of 16 rooms at seeded temperatures in [291, 301] K.
    Every room has a facade crack, neighbouring rooms share a crack, and a
    shaft crack joins the first rooms of consecutive storeys: 639 cracks
    with seeded coefficients and exponents.  The structure is fixed and
    only the parameters vary with the seed, so the solver's work per step
    varies little from seed to seed.
    """
    rng = np.random.default_rng([seed, 2])
    zones, links = [], []

    def crack(a: str, b: str, z: float) -> None:
        k = round(float(10 ** rng.uniform(-2.5, -1.8)), 6)
        links.append(_crack(f"L{len(links)}", a, b, round(z, 3), k,
                            round(float(rng.uniform(0.55, 0.75)), 3)))

    for s in range(CRACK_STOREYS):
        base = s * STOREY_HEIGHT_M
        for r in range(CRACK_ROOMS_PER_STOREY):
            zid = f"s{s}r{r}"
            zones.append({"id": zid, "temperature_k": round(float(rng.uniform(291.0, 301.0)), 3),
                          "ref_height_m": base + 1.35, "mech_flow_kg_s": 0.0})
            crack(f"facade_{FACADES[r % 4]}", zid, base + float(rng.uniform(0.2, 2.6)))
            if r > 0:
                crack(f"s{s}r{r - 1}", zid, base + float(rng.uniform(0.0, 2.0)))
        if s > 0:
            crack(f"s{s - 1}r0", f"s{s}r0", base - 0.2)
    externals = [{"id": f"facade_{f}", "ref_height_m": 0.0, "cp": _facade_cp(f)} for f in FACADES]
    return json.dumps({"zones": zones, "external_nodes": externals, "links": links})


def weather_rows(text: str) -> list[tuple[float, float, float]]:
    """(wind speed, wind direction, outdoor temperature in C) per CSV row."""
    rows = []
    for line in text.splitlines()[1:]:
        _, speed, direction, temp = line.split(",")
        rows.append((float(speed), float(direction), float(temp)))
    return rows


def build(name: str, seed: int, src: Path) -> Workload:
    """The named workload's inputs for one seed."""
    if name in ("dwelling5_warm", "dwelling5_cold"):
        network = (src / "airnet" / "data" / "dwelling5.json").read_text()
        return Workload(name, (Case(network, weather_csv(10, 30, seed)),), name.endswith("_warm"), {})
    if name == "stack_doors_cold":
        cases = tuple(
            Case(stack_doors_network(seed * STACK_BUILDINGS + b),
                 weather_csv(1, 720, seed * STACK_BUILDINGS + b))
            for b in range(STACK_BUILDINGS)
        )
        return Workload(name, cases, False, {})
    if name == "crack320_warm":
        case = Case(crack_network(seed), weather_csv(1, 25, seed))
        return Workload(name, (case,), True, {"NR": CRACK_SLOW_STEPS, "PNR": CRACK_SLOW_STEPS})
    raise ValueError(f"unknown workload '{name}'")


WORKLOADS = ("dwelling5_warm", "dwelling5_cold", "stack_doors_cold", "crack320_warm")
