"""Time-series driver: weather ingestion, per-timestep solves, summaries.

Weather CSV format (header is mandatory and exact)::

    timestamp,wind_speed_m_s,wind_dir_deg,temp_out_c
    2024-01-01T00:00:00,3.2,105.0,23.4
    ...

Timestamps are ISO-8601 and must be strictly increasing; a non-uniform step
only triggers a warning.  A row is valid when the `BoundaryState` it makes
is.  Zone temperatures are fixed per run; the weather drives wind pressures
and the outdoor air column.
"""

from __future__ import annotations

import csv
import io
import logging
import math
from dataclasses import dataclass, field
from datetime import datetime, timedelta

import numpy as np

from .assembly import BoundaryState
from .network import _INTEGRAL, Network, _is_number
from .solvers import SolveError, SolverConfig, solve

__all__ = [
    "WeatherRecord",
    "TimestepRecord",
    "StrategySummary",
    "WeatherFormatError",
    "parse_weather",
    "generate_weather",
    "run_simulation",
    "summarize",
]

log = logging.getLogger("airnet")

WEATHER_HEADER = ("timestamp", "wind_speed_m_s", "wind_dir_deg", "temp_out_c")
_WEATHER_START = datetime(2024, 1, 1)  # the first timestamp of a generated series


class WeatherFormatError(ValueError):
    """Raised for malformed weather files (bad header, row, or ordering)."""


@dataclass(frozen=True)
class WeatherRecord:
    """One weather row, whose `BoundaryState` is built and checked with it."""

    timestamp: str  # ISO-8601
    wind_speed: float  # m/s
    wind_dir_deg: float
    temp_out_c: float
    boundary: BoundaryState = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.timestamp, str):  # the network records' `str` rule
            raise ValueError(f"timestamp must be a string, got {self.timestamp!r}")
        bc = boundary_from_celsius(self.wind_speed, self.wind_dir_deg, self.temp_out_c)
        object.__setattr__(self, "boundary", bc)


@dataclass(frozen=True)
class TimestepRecord:
    """One solver outcome within a time series; a failed step keeps the
    last iterate, its max residual and the iteration counts its solve reached."""

    timestamp: str
    strategy: str
    picard_iters: int
    newton_iters: int
    converged_in_picard: bool
    picard_aborted: str | None
    max_residual: float
    pressures: tuple[float, ...]
    failed: str | None = None  # None | "non-convergence" | "singular-jacobian"


@dataclass(frozen=True)
class StrategySummary:
    """Aggregate iteration statistics for one strategy over a series."""

    strategy: str
    steps: int
    failures: int
    mean_newton_iters: float
    median_newton_iters: float
    max_newton_iters: int
    mean_iters_with_picard_cost: float  # Picard budget added when it ran and did not finish
    pct_converged_in_picard: float
    mean_picard_iters: float


def parse_weather(text: str) -> list[WeatherRecord]:
    """Parse and validate a weather CSV (see module docstring for format)."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise WeatherFormatError("empty weather file") from None
    if tuple(h.strip() for h in header) != WEATHER_HEADER:
        raise WeatherFormatError(
            f"bad header {header!r}, expected {','.join(WEATHER_HEADER)}"
        )

    records: list[WeatherRecord] = []
    previous: datetime | None = None
    first_step: timedelta | None = None
    warned_step = False
    for line_no, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 4:
            raise WeatherFormatError(f"line {line_no}: expected 4 fields, got {len(row)}")
        stamp_text = row[0].strip()
        try:
            stamp = datetime.fromisoformat(stamp_text)
        except ValueError:
            raise WeatherFormatError(f"line {line_no}: bad timestamp '{stamp_text}'") from None
        try:
            values = [float(v) for v in row[1:]]
        except ValueError:
            raise WeatherFormatError(f"line {line_no}: non-numeric field in {row[1:]}") from None
        try:
            record = WeatherRecord(stamp_text, *values)
        except ValueError as exc:
            raise WeatherFormatError(f"line {line_no}: {exc}") from None
        if previous is not None:
            if (stamp.utcoffset() is None) != (previous.utcoffset() is None):
                raise WeatherFormatError(
                    f"line {line_no}: timestamp '{stamp_text}' mixes timestamps with and"
                    " without a UTC offset"
                )
            if stamp <= previous:
                raise WeatherFormatError(
                    f"line {line_no}: timestamp '{stamp_text}' not after the previous row"
                )
            step = stamp - previous
            if first_step is None:
                first_step = step
            elif step != first_step and not warned_step:
                log.warning(
                    "weather file has a non-uniform timestep at line %d (%s vs %s)",
                    line_no,
                    step,
                    first_step,
                )
                warned_step = True
        previous = stamp
        records.append(record)
    if not records:
        raise WeatherFormatError("weather file has no data rows")
    return records


def csv_text(rows: list[list | tuple]) -> str:
    """rows as CSV text, each line ended by a bare newline."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def serialize_weather(records: list[WeatherRecord]) -> str:
    rows = [
        [rec.timestamp, f"{rec.wind_speed:.3f}", f"{rec.wind_dir_deg:.2f}", f"{rec.temp_out_c:.3f}"]
        for rec in records
    ]
    return csv_text([WEATHER_HEADER, *rows])


def generate_weather(
    days: int = 10,
    step_minutes: int = 30,
    seed: int = 0,
) -> list[WeatherRecord]:
    """Synthetic weather series from 2024-01-01 00:00: sinusoidal diurnal
    temperature and a gusty, slowly veering wind.  Deterministic for a given
    seed."""
    for name, value in (("days", days), ("step_minutes", step_minutes)):
        if not _is_number(value, _INTEGRAL):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    days, step_minutes = int(days), int(step_minutes)  # timedelta takes no numpy integer
    if days < 1 or not 1 <= step_minutes <= days * 24 * 60:
        raise ValueError("days must be >= 1 and step_minutes from 1 to days * 1440")
    rng = np.random.default_rng(seed)
    count = days * 24 * 60 // step_minutes
    records = []
    for i in range(count):
        stamp = _WEATHER_START + timedelta(minutes=i * step_minutes)
        hour = stamp.hour + stamp.minute / 60.0
        temp = 24.0 + 4.0 * math.sin(2.0 * math.pi * (hour - 9.0) / 24.0)
        temp += float(rng.normal(0.0, 0.4))
        wind = 4.0 + 2.0 * math.sin(2.0 * math.pi * (hour - 12.0) / 24.0)
        wind = max(0.0, wind + float(rng.normal(0.0, 1.2)))
        direction = 110.0 + 25.0 * math.sin(2.0 * math.pi * i / (2.0 * count / days))
        direction = (direction + float(rng.normal(0.0, 12.0))) % 360.0
        records.append(
            WeatherRecord(
                timestamp=stamp.isoformat(),
                wind_speed=round(wind, 3),
                wind_dir_deg=round(direction, 2),
                temp_out_c=round(temp, 3),
            )
        )
    return records


def boundary_from_celsius(wind_speed: float, wind_dir_deg: float, temp_out_c: float) -> BoundaryState:
    """The BoundaryState of weather whose outdoor temperature is given in
    degrees Celsius; one at or below absolute zero is refused in them, and
    BoundaryState refuses a non-finite one."""
    if not _is_number(temp_out_c):  # True + 273.15 is a float
        raise ValueError(f"temp_out_c must be a number, got {temp_out_c!r}")
    temp_k = temp_out_c + 273.15
    if -math.inf < temp_k <= 0:
        raise ValueError(f"outdoor temperature must be above -273.15 °C, got {temp_out_c} °C")
    return BoundaryState(wind_speed, wind_dir_deg, temp_k)


def boundary_from_record(rec: WeatherRecord) -> BoundaryState:
    return rec.boundary


def run_simulation(
    net: Network,
    weather: list[WeatherRecord],
    strategy: str,
    cfg: SolverConfig | None = None,
    warm_start: bool = True,
) -> list[TimestepRecord]:
    """Solve every timestep of a weather series with one strategy.

    With warm_start each step begins from the previous step's solution (the
    first always starts from zeros); otherwise every step starts from zeros.
    A failed step is recorded and the next one restarts from zeros; failures
    are data, not exceptions.
    """
    if not weather:
        raise ValueError("weather series is empty")
    cfg = cfg or SolverConfig()
    records: list[TimestepRecord] = []
    previous: np.ndarray | None = None  # None starts the solve from zeros
    for rec in weather:
        try:
            outcome, failed = solve(net, rec.boundary, previous, strategy, cfg), None
        except SolveError as exc:
            log.warning("%s %s: %s", strategy, rec.timestamp, exc)
            outcome, failed = exc.outcome, exc.reason
        records.append(
            TimestepRecord(
                timestamp=rec.timestamp,
                strategy=outcome.strategy,
                picard_iters=outcome.picard_iters_used,
                newton_iters=outcome.newton_iters,
                converged_in_picard=outcome.converged_in_picard,
                picard_aborted=outcome.picard_aborted,
                max_residual=outcome.max_residual,
                pressures=tuple(outcome.pressures.tolist()),
                failed=failed,
            )
        )
        previous = outcome.pressures if warm_start and failed is None else None
    return records


def _mean(total: int, count: int) -> float:
    """total / count to two decimals; NaN for no steps."""
    return round(total / count, 2) if count else math.nan


def summarize(records: list[TimestepRecord]) -> dict[str, StrategySummary]:
    """Aggregate per-strategy iteration statistics.

    Two accounting conventions are reported: `mean_newton_iters` counts only
    Newton linear solves, while `mean_iters_with_picard_cost` adds the Picard
    iterations spent whenever the initializer ran without converging on its
    own.  Failed steps are excluded from the iteration statistics and
    reported in `failures`; with no converged step the means and median are
    NaN, the max 0 and the Picard percentage 0.0.
    """
    if not records:
        raise ValueError("no records to summarize")
    by_strategy: dict[str, list[TimestepRecord]] = {}
    for rec in records:
        by_strategy.setdefault(rec.strategy, []).append(rec)

    out: dict[str, StrategySummary] = {}
    for strategy, recs in by_strategy.items():
        ok = [r for r in recs if r.failed is None]
        n = len(ok)
        newton = sorted(r.newton_iters for r in ok)
        out[strategy] = StrategySummary(
            strategy=strategy,
            steps=len(recs),
            failures=len(recs) - n,
            mean_newton_iters=_mean(sum(newton), n),
            median_newton_iters=(newton[(n - 1) // 2] + newton[n // 2]) / 2 if n else math.nan,
            max_newton_iters=newton[-1] if n else 0,
            mean_iters_with_picard_cost=_mean(
                sum(r.newton_iters + (0 if r.converged_in_picard else r.picard_iters) for r in ok), n
            ),
            pct_converged_in_picard=(
                round(100.0 * sum(r.converged_in_picard for r in ok) / n, 1) if n else 0.0
            ),
            mean_picard_iters=_mean(sum(r.picard_iters for r in ok), n),
        )
    return out


TIMESTEP_HEADER = (
    "timestamp",
    "strategy",
    "picard_iters",
    "newton_iters",
    "converged_in_picard",
    "picard_aborted",
    "max_residual_kg_s",
    "failed",
)


def timestep_row(rec: TimestepRecord) -> list:
    """The TIMESTEP_HEADER fields of one record, formatted for CSV."""
    return [
        rec.timestamp,
        rec.strategy,
        rec.picard_iters,
        rec.newton_iters,
        "true" if rec.converged_in_picard else "false",
        rec.picard_aborted or "",
        f"{rec.max_residual:.9g}",
        rec.failed or "",
    ]


def write_timestep_csv(records: list[TimestepRecord], net: Network) -> str:
    """Render records in the timestep CSV format (one pressure column per zone)."""
    header = [*TIMESTEP_HEADER, *(f"p_{zone.id}" for zone in net.zones)]
    rows = [timestep_row(rec) + [f"{p:.9g}" for p in rec.pressures] for rec in records]
    return csv_text([header, *rows])
