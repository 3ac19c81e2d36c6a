"""Spans around the package's public functions, recorded from outside it.

A traced pass replaces each public function where its caller looks it up
(``airnet.solvers.residual``, ``airnet.assembly.crack_flow``, ...) with a
wrapper that records one span per call: name, start, end, parent span and
step id.  Spans are folded into per-strategy aggregates as they end, so
memory stays bounded however long the run is.  The package itself is not
modified; every wrapper is removed when the pass ends.
"""

from __future__ import annotations

import functools
import statistics
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

ASSEMBLY_FUNCS = ("residual", "jacobian", "picard_system", "link_flows")
LINK_FUNCS = (
    "crack_flow",
    "crack_derivative",
    "crack_conductance",
    "large_opening_flow",
    "large_opening_derivative",
)
# Span names whose every duration is kept, for per-call medians.
SAMPLED = {f"assembly.{f}" for f in ASSEMBLY_FUNCS} | {
    "linalg.lu_solve",
    "scenario.summarize",
    "scenario.write_timestep_csv",
    "network.parse_network",
    "network.validate",
}


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # id of the enclosing span, -1 at top level
    step: int  # id of the solver step the span ran in, -1 outside steps
    id: int


class Tracer:
    """Records spans and aggregates them by (strategy, span name)."""

    def __init__(self, keep_spans: bool = False):
        self.keep_spans = keep_spans
        self.spans: list[Span] = []
        self.strategy = ""
        self.step = -1
        self._stack: list[int] = []
        self._child_time: dict[int, float] = defaultdict(float)
        self._next_id = 0
        # (strategy, name) -> [calls, total seconds, self seconds]
        self.totals: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.steps: dict[str, int] = defaultdict(int)
        self.opening_calls = 0
        self.opening_two_way = 0
        self.lu_calls = 0
        self.lu_singular = 0
        self.lu_n = 0

    def wrap(self, name: str, fn, inspect=None, starts_step: bool = False):
        """`fn` wrapped so each call records a span called `name`.

        `inspect(args, result)` sees every call's arguments and result;
        `starts_step` marks the function whose call is one solver step.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            if starts_step:
                self.step = sid
                self.steps[self.strategy] += 1
            parent = self._stack[-1] if self._stack else -1
            step = self.step
            self._stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                if starts_step:
                    self.step = -1
                self._record(Span(name, start, end, parent, step, sid))
            if inspect is not None:
                inspect(args, result)
            return result

        return traced

    def _record(self, span: Span) -> None:
        duration = span.end - span.start
        own = duration - self._child_time.pop(span.id, 0.0)
        if span.parent >= 0:
            self._child_time[span.parent] += duration
        entry = self.totals[(self.strategy, span.name)]
        entry[0] += 1
        entry[1] += duration
        entry[2] += own
        if span.name in SAMPLED:
            self.samples[span.name].append(duration)
        if self.keep_spans:
            self.spans.append(span)

    def _inspect_opening(self, args, result) -> None:
        self.opening_calls += 1
        if result.flow_forward > 0.0 and result.flow_reverse > 0.0:
            self.opening_two_way += 1

    def _inspect_lu(self, args, result) -> None:
        self.lu_calls += 1
        self.lu_singular += bool(result.singular)
        self.lu_n = max(self.lu_n, len(args[0]))

    @contextmanager
    def installed(self, airnet):
        """Wrap the package's functions where their callers look them up."""
        targets = [(airnet.scenario, "solve", "solvers.solve", None, True)]
        targets += [(airnet.solvers, f, f"assembly.{f}", None, False) for f in ASSEMBLY_FUNCS]
        targets.append((airnet.solvers, "lu_solve", "linalg.lu_solve", self._inspect_lu, False))
        for f in LINK_FUNCS:
            inspect = self._inspect_opening if f == "large_opening_flow" else None
            targets.append((airnet.assembly, f, f"links.{f}", inspect, False))
        targets.append((airnet.network, "validate", "network.validate", None, False))
        originals = []
        try:
            for module, attr, name, inspect, starts_step in targets:
                original = getattr(module, attr)
                originals.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, inspect, starts_step))
            yield
        finally:
            for module, attr, original in reversed(originals):
                setattr(module, attr, original)

    # ------------------------------------------------------------------
    # per-layer metrics

    def _layer(self, strategy: str, layer: str, index: int) -> float:
        return sum(v[index] for (s, name), v in self.totals.items()
                   if s == strategy and name.startswith(layer + "."))

    def _calls(self, strategy: str, name: str) -> int:
        return self.totals.get((strategy, name), (0,))[0]

    def _median_us(self, name: str) -> float:
        values = self.samples.get(name)
        return statistics.median(values) * 1e6 if values else 0.0

    def metrics(self, strategies) -> dict[str, float]:
        """Per-layer metrics for the strategies this tracer saw."""
        out: dict[str, float] = {}
        for f in ASSEMBLY_FUNCS:
            out[f"assembly.{f}.us_per_call"] = self._median_us(f"assembly.{f}")
        out["linalg.lu_solve.us_per_call"] = self._median_us("linalg.lu_solve")
        for strategy in strategies:
            s = strategy.lower()
            steps = self.steps[strategy]
            for f in ASSEMBLY_FUNCS[:3]:
                out[f"assembly.{f}.calls_per_step.{s}"] = self._calls(strategy, f"assembly.{f}") / steps
            out[f"links.calls_per_step.{s}"] = self._layer(strategy, "links", 0) / steps
            out[f"linalg.lu_solve.calls_per_step.{s}"] = self._calls(strategy, "linalg.lu_solve") / steps
            for layer in ("assembly", "links", "linalg", "solvers"):
                out[f"{layer}.self_ms_per_step.{s}"] = self._layer(strategy, layer, 2) / steps * 1e3
            run = self.totals.get((strategy, "scenario.run_simulation"), [0, 0.0, 0.0])
            out[f"scenario.self_ms_per_step.{s}"] = run[2] / steps * 1e3
        out["links.two_way_frac"] = (
            self.opening_two_way / self.opening_calls if self.opening_calls else 0.0
        )
        out["linalg.singular_frac"] = self.lu_singular / self.lu_calls if self.lu_calls else 0.0
        out["linalg.n"] = float(self.lu_n)
        # Computed, not measured: the flop count of one dense LU factorisation.
        out["linalg.flops_per_call"] = 2.0 / 3.0 * self.lu_n**3
        out["scenario.summarize_ms"] = self._median_us("scenario.summarize") / 1e3
        out["scenario.write_csv_ms"] = self._median_us("scenario.write_timestep_csv") / 1e3
        out["network.parse_ms"] = self._median_us("network.parse_network") / 1e3
        out["network.validate_ms"] = self._median_us("network.validate") / 1e3
        return out
