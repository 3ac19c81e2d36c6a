"""Solver benchmark: wall time per timestep, checked answers, per-layer split.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload dwelling5_warm --seed 42 --seconds 50 --trace 0

The workloads are built in ``workloads.py``; BENCHMARK.json says why each
was chosen.  A run builds its inputs from ``--seed``, imports the package
from ``src/`` of the same checkout, and solves each weather series through
``airnet.scenario.run_simulation`` in one process and one thread, closed
loop: a step starts when the previous one ends.  Passes over every strategy
repeat until ``--seconds`` of solving have been measured; the strategy that
goes first rotates from pass to pass.

With ``--trace 0`` the only thing added to the package is a clock at each
``scenario.solve`` entry; a step's time is the gap between two entries.
Every eighth entry also runs the calibration loop (``calibration.py``)
outside the step times, and the times are scaled to a reference host speed
by it, because the shared host's own speed drifts by up to 1.6x.

With ``--trace 1`` untraced and traced passes alternate: the traced ones
wrap the package's public functions (``tracing.py``) and give the
per-layer metrics, and their wall time over the untraced ones' gives the
tracing overhead.

Every step's answer is checked outside the timed region (``check.py``).
A step the solver reports as not converged counts as failed; one it
reports as converged with a wrong answer also makes the run incorrect.
The per-step Newton and Picard counts must repeat from pass to pass and
match the digests stored in ``counts.json`` for the workload and seed.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
for a correct run, 1 for an incorrect one (a wrong answer or changed
counts), and 2 when no run could be made.
"""

from __future__ import annotations

import os

# Pinned before numpy loads, so that a run measures one thread.  On a 2-vCPU
# Xeon a 160x160 scipy LU solve took 0.33-0.38 ms with one OpenBLAS thread
# and 0.35-0.78 ms with two.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import calibration  # noqa: E402
import check  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
COUNTS_FILE = HERE / "counts.json"
SETUP_REPEATS = 9
# Steps between calibration loops inside a timed series: one loop (about
# 1 ms) every 8 steps tracks the host's speed within a series.
CALIBRATE_EVERY = 8
PARSE_REPEATS = 5

END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "steps_per_s": "1/s", "ok_step_frac": "frac"}
for _s in ("nr", "wm", "pnr", "pwm"):
    END_TO_END_UNITS[f"{_s}.step_ms_p50"] = "ms"
    END_TO_END_UNITS[f"{_s}.step_ms_p90"] = "ms"

# What a user pays before the first solve: import the package, parse and
# validate the network, build the boundary series.  Run in a fresh process,
# which then runs the calibration loop to give its own speed.
SETUP_SCRIPT = """
import json, sys, time
inputs = json.loads(sys.stdin.read())
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import airnet
from airnet.scenario import boundary_from_record
net = airnet.parse_network(inputs["network"])
series = [boundary_from_record(r) for r in airnet.parse_weather(inputs["weather"])]
elapsed = time.perf_counter() - start
sys.path.insert(0, sys.argv[2])
import calibration
loop_ms = []
calibration.sample(loop_ms, 25)
print(elapsed, elapsed * calibration.scale(loop_ms))
"""


class BenchError(RuntimeError):
    """No run can be made (the package source is missing, say)."""


class CheckFailed(RuntimeError):
    """Iteration counts differ between passes or from the store."""


def load_airnet():
    """Import the package from this checkout's src/, never from elsewhere."""
    package = SRC / "airnet"
    if not (package / "__init__.py").is_file():
        raise BenchError(f"package source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import airnet

    if Path(airnet.__file__).resolve().parent != package.resolve():
        raise BenchError(f"imported airnet from {airnet.__file__}, not from {package}")
    return airnet


@dataclass
class Prepared:
    """One case of a workload, parsed and ready to solve."""

    net: object
    weather: list
    rows: list
    checker: check.AnswerCheck


@dataclass
class Tally:
    """What one strategy did over the measured passes."""

    times: list = field(default_factory=list)  # seconds per step at reference speed, untraced passes
    raw_times: list = field(default_factory=list)  # the same, as measured
    wall: float = 0.0  # seconds in run_simulation at reference speed, untraced passes
    attempted: int = 0
    failed: int = 0  # steps that did not converge, or converged to a wrong answer
    wrong: int = 0  # steps reported as converged whose answer failed the check
    counts: list | None = None  # per-step (newton, picard) of the first pass
    records: list = field(default_factory=list)  # the first pass's records
    verdicts: dict = field(default_factory=dict)  # (case, step) -> (pressures, ok)


class Bench:
    """Runs one workload's passes against the imported package."""

    def __init__(self, an, wl: workloads.Workload):
        self.an = an
        self.wl = wl
        self.cfg = an.SolverConfig(tolerance=check.TOLERANCE, dp_lin=check.DP_LIN)
        self.cases = [
            Prepared(an.parse_network(c.network_json), an.parse_weather(c.weather_csv),
                     workloads.weather_rows(c.weather_csv), check.AnswerCheck(json.loads(c.network_json)))
            for c in wl.cases
        ]
        self.tallies = {s: Tally() for s in workloads.STRATEGIES}
        self.passes = 0
        self.loop_ms: list[float] = []  # calibration loop times, untraced passes
        self.raw_setup_s = 0.0

    def order(self) -> tuple[str, ...]:
        k = self.passes % len(workloads.STRATEGIES)
        return workloads.STRATEGIES[k:] + workloads.STRATEGIES[:k]

    def timed_series(self, case: Prepared, strategy: str):
        """run_simulation over one series with two clock reads at each step.

        A step's time runs from one scenario.solve entry to the next; the
        return of run_simulation closes the last one.  The calibration loop
        runs before the series and between every CALIBRATE_EVERY steps,
        outside their times, and scales the series to reference speed.
        """
        scenario = self.an.scenario
        real_solve = scenario.solve
        starts: list[float] = []
        ends: list[float] = []
        loop_ms: list[float] = []

        def clocked(*args, **kwargs):
            if starts:
                ends.append(perf_counter())
                if len(starts) % CALIBRATE_EVERY == 0:
                    calibration.sample(loop_ms, 1)
            starts.append(perf_counter())
            return real_solve(*args, **kwargs)

        weather = case.weather[: self.wl.steps.get(strategy)]
        calibration.sample(loop_ms)
        scenario.solve = clocked
        try:
            start = perf_counter()
            records = scenario.run_simulation(case.net, weather, strategy, self.cfg, self.wl.warm_start)
            ends.append(perf_counter())
        finally:
            scenario.solve = real_solve
        times = np.subtract(ends, starts)
        scale = calibration.scale(loop_ms)
        self.loop_ms += loop_ms
        tally = self.tallies[strategy]
        tally.raw_times.extend(times)
        tally.times.extend(times * scale)
        tally.wall += (times.sum() + starts[0] - start) * scale
        return records

    def reporting_series(self, case: Prepared, strategy: str, funcs):
        """A series plus the summary and CSV that `simulate` and `compare` write."""
        run_simulation, summarize, write_csv = funcs
        weather = case.weather[: self.wl.steps.get(strategy)]
        records = run_simulation(case.net, weather, strategy, self.cfg, self.wl.warm_start)
        summarize(records)
        write_csv(records, case.net)
        return records

    def run_pass(self, series, order) -> float:
        """One pass over the strategies in `order`; returns its solving time.

        `series(case, strategy)` solves one series and returns its records;
        the answer check runs after it, outside the time.
        """
        wall = 0.0
        for strategy in order:
            tally = self.tallies[strategy]
            counts, records_all = [], []
            for index, case in enumerate(self.cases):
                start = perf_counter()
                records = series(case, strategy)
                wall += perf_counter() - start
                counts += self.check_series(tally, index, case, records)
                records_all += records
            if tally.counts is None:
                tally.counts, tally.records = counts, records_all
            elif counts != tally.counts:
                raise CheckFailed(f"{strategy}: iteration counts changed between passes")
        return wall

    @staticmethod
    def check_series(tally: Tally, index: int, case: Prepared, records) -> list[tuple[int, int]]:
        """Check every step's answer; returns the per-step iteration counts.

        A step the solver reports as failed (a typed error, caught by
        run_simulation) counts as failed; one it reports as converged must
        pass the answer check, or it also counts as wrong.  A step whose
        pressures repeat those of an earlier pass exactly keeps that pass's
        verdict.
        """
        counts = []
        for step, rec in enumerate(records):
            counts.append((rec.newton_iters, rec.picard_iters))
            tally.attempted += 1
            if rec.failed is not None:
                tally.failed += 1
                continue
            seen = tally.verdicts.get((index, step))
            if seen is not None and seen[0] == rec.pressures:
                ok = seen[1]
            else:
                ok = case.checker.converged_ok(rec.pressures, *case.rows[step])
                tally.verdicts[(index, step)] = (rec.pressures, ok)
            tally.failed += not ok
            tally.wrong += not ok
        return counts

    def untraced(self, seconds: float) -> dict[str, float]:
        """End-to-end metrics; the set-up time is measured separately."""
        measured = 0.0
        while self.passes == 0 or measured < seconds:
            measured += self.run_pass(self.timed_series, self.order())
            self.passes += 1
        tallies = self.tallies.values()
        attempted = sum(t.attempted for t in tallies)
        completed = attempted - sum(t.failed for t in tallies)
        metrics = {
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "steps_per_s": completed / sum(t.wall for t in tallies),
            "ok_step_frac": completed / attempted,
        }
        for strategy, tally in self.tallies.items():
            # Every pass solves the same steps: a step's time is its median
            # over the passes, so that a stall of the host in one pass does
            # not land in the percentiles over the steps.
            per_step = np.median(np.reshape(tally.times, (self.passes, -1)), axis=0) * 1e3
            metrics[f"{strategy.lower()}.step_ms_p50"] = float(np.percentile(per_step, 50))
            metrics[f"{strategy.lower()}.step_ms_p90"] = float(np.percentile(per_step, 90))
        return metrics

    def unscaled(self) -> dict:
        """Set-up and step times as measured, and the calibration loop's median."""
        return {
            "setup_s": round(self.raw_setup_s, 4),
            "calibration_loop_ms": round(statistics.median(self.loop_ms), 4),
            "step_ms_p50_p90": {s: [round(float(np.percentile(t.raw_times, q)) * 1e3, 4) for q in (50, 90)]
                                for s, t in self.tallies.items()},
        }

    def traced(self, seconds: float) -> dict[str, float]:
        """Per-layer metrics from alternating untraced and traced passes."""
        scenario = self.an.scenario
        tracer = tracing.Tracer()
        parse = tracer.wrap("network.parse_network", self.an.parse_network)
        with tracer.installed(self.an):
            for _ in range(PARSE_REPEATS):
                parse(self.wl.cases[0].network_json)
        plain = (scenario.run_simulation, scenario.summarize, scenario.write_timestep_csv)
        wrapped = (
            tracer.wrap("scenario.run_simulation", scenario.run_simulation),
            tracer.wrap("scenario.summarize", scenario.summarize),
            tracer.wrap("scenario.write_timestep_csv", scenario.write_timestep_csv),
        )

        def traced_series(case, strategy):
            tracer.strategy = strategy
            with tracer.installed(self.an):
                return self.reporting_series(case, strategy, wrapped)

        untraced_wall = traced_wall = 0.0
        while self.passes == 0 or untraced_wall + traced_wall < seconds:
            order = self.order()
            untraced_wall += self.run_pass(lambda case, s: self.reporting_series(case, s, plain), order)
            traced_wall += self.run_pass(traced_series, order)
            self.passes += 1
        metrics = tracer.metrics(workloads.STRATEGIES)
        metrics.update(self.iteration_metrics())
        metrics["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
        return metrics

    def iteration_metrics(self) -> dict[str, float]:
        """Newton and Picard accounting of the first pass."""
        out = {}
        reciprocal = singular = picard_steps = 0
        for strategy, tally in self.tallies.items():
            records, s = tally.records, strategy.lower()
            out[f"{s}.newton_iters"] = statistics.fmean(r.newton_iters for r in records)
            if strategy not in ("PNR", "PWM"):
                continue
            n = len(records)
            out[f"solvers.picard_iters_per_step.{s}"] = statistics.fmean(r.picard_iters for r in records)
            out[f"solvers.picard_converged_frac.{s}"] = sum(r.converged_in_picard for r in records) / n
            out[f"solvers.picard_wasted_iters_per_step.{s}"] = (
                sum(r.picard_iters for r in records if not r.converged_in_picard) / n
            )
            picard_steps += n
            reciprocal += sum(r.picard_aborted == "reciprocal-flow" for r in records)
            singular += sum(r.picard_aborted == "singular" for r in records)
        out["solvers.picard_abort_frac.reciprocal"] = reciprocal / picard_steps if picard_steps else 0.0
        out["solvers.picard_abort_frac.singular"] = singular / picard_steps if picard_steps else 0.0
        return out

    def digests(self) -> dict[str, str]:
        return {s: check.counts_digest(t.counts) for s, t in self.tallies.items()}


def measure_setup(wl: workloads.Workload) -> tuple[float, float]:
    """Median set-up time over fresh processes, seconds: at reference speed
    and as measured.

    Each process scales its own time by the calibration loop it runs after
    the set-up.
    """
    inputs = json.dumps({"network": wl.cases[0].network_json, "weather": wl.cases[0].weather_csv})
    times: list[float] = []
    raw: list[float] = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_SCRIPT, str(SRC), str(HERE)],
            input=inputs, capture_output=True, text=True, timeout=60, check=False,
        )
        if done.returncode != 0:
            raise BenchError(f"set-up process failed: {done.stderr.strip()[-500:]}")
        measured, scaled = map(float, done.stdout.split()[-2:])
        raw.append(measured)
        times.append(scaled)
    return statistics.median(times), statistics.median(raw)


def compare_counts(name: str, seed: int, digests: dict[str, str], store: dict) -> str:
    """Match count digests against the store; raises CheckFailed on a mismatch."""
    stored = store.get(name, {}).get(str(seed))
    if stored is None:
        return f"no stored counts for {name} seed {seed}: checked only that passes agree"
    bad = sorted(s for s in digests if stored.get(s) != digests[s])
    if bad:
        got = ", ".join(f"{s} {digests[s]}" for s in bad)
        raise CheckFailed(f"iteration counts differ from the store: {got}")
    return f"iteration counts match the store for {name} seed {seed}"


def load_store() -> dict:
    return json.loads(COUNTS_FILE.read_text()) if COUNTS_FILE.is_file() else {}


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_ms") or ".self_ms_" in name:
        return "ms"
    if name.endswith(".us_per_call"):
        return "us"
    if "_frac" in name:
        return "frac"
    if name == "linalg.flops_per_call":
        return "flop"
    return "count"


def environment() -> dict:
    import scipy

    def openblas(module) -> str:
        try:
            return module.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
        except (AttributeError, KeyError):
            return "unknown"

    return {
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": openblas(np),
        "openblas_scipy": openblas(scipy),
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """Measure one workload; returns the result object and lines to print first."""
    an = load_airnet()
    wl = workloads.build(workload, seed, SRC)
    bench = Bench(an, wl)
    notes = []
    correct = True
    metrics: dict[str, float] = {}
    try:
        if trace:
            metrics = bench.traced(seconds)
        else:
            metrics["setup_s"], bench.raw_setup_s = measure_setup(wl)
            metrics.update(bench.untraced(seconds))
        notes.append(compare_counts(workload, seed, bench.digests(), load_store()))
    except CheckFailed as exc:
        notes.append(f"FAILED: {exc}")
        correct = False
    attempted = sum(t.attempted for t in bench.tallies.values())
    failed = sum(t.failed for t in bench.tallies.values())
    wrong = sum(t.wrong for t in bench.tallies.values())
    if failed:
        notes.append(f"{failed} of {attempted} steps failed: "
                     + ", ".join(f"{s} {t.failed}" for s, t in bench.tallies.items() if t.failed))
    if wrong:
        notes.append(f"FAILED: {wrong} steps reported as converged failed the answer check")
        correct = False
    notes.append(json.dumps({
        "environment": environment(), "workload": workload, "seed": seed, "passes": bench.passes,
        "steps_per_pass": {s: len(t.counts or ()) for s, t in bench.tallies.items()},
        "newton_iters": {s: round(statistics.fmean(n for n, _ in t.counts), 4)
                         for s, t in bench.tallies.items() if t.counts},
        **({"unscaled": bench.unscaled()} if bench.loop_ms else {}),
    }))
    result = {
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    return result, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Solver benchmark for the airnet package.")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    try:
        result, notes = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for note in notes:
        print(note)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
