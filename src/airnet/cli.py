"""Command-line front end: validate, solve, simulate, compare, gen-weather.

Exit codes: 0 success, 1 domain failure (invalid network, non-convergence),
2 I/O or usage error.  Set AIRNET_LOG=debug|info|warning for verbosity.
"""

from __future__ import annotations

import argparse
import errno
import json
import logging
import math
import os
import stat
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

from .assembly import BoundaryState, link_flows
from .network import (
    Network,
    NetworkFormatError,
    NetworkValidationError,
    parse_network,
)
from .scenario import (
    TIMESTEP_HEADER,
    WeatherFormatError,
    csv_text,
    generate_weather,
    parse_weather,
    run_simulation,
    serialize_weather,
    summarize,
    timestep_row,
    write_timestep_csv,
)
from .solvers import STRATEGIES, SolveError, SolverConfig, solve

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2

log = logging.getLogger("airnet")


class _Exit(Exception):
    """Ends a command with an exit code; main prints the message, if any, to stderr."""

    def __init__(self, code: int, message: str | None = None):
        self.code = code
        self.message = message


def _reason(exc: OSError | UnicodeDecodeError):
    return exc.strerror if isinstance(exc, OSError) and exc.strerror else exc


@contextmanager
def _outputs(*paths: Path):
    """Yield write(*texts), which puts one text in each path, all or none:
    it fills a temporary file next to each path, made on entry so that a path
    that cannot be written fails before the work, then moves each over its
    path.  A file gets the mode open(path, "w") would give it (mkstemp creates
    0600).  A failure to write raises _Exit; no temporary file outlives the block."""
    temps: list[str] = []

    def write(*texts: str) -> None:
        nonlocal target
        for target, tmp, text in zip(paths, temps, texts):
            Path(tmp).write_text(text)
        for target, tmp in zip(paths, temps):
            os.replace(tmp, target)

    try:
        for target in paths:
            # stat before mkdir: under a regular file, stat says "Not a
            # directory" where mkdir would say "File exists".
            try:
                mode = target.stat().st_mode
            except FileNotFoundError:
                umask = os.umask(0)
                os.umask(umask)
                mode = 0o666 & ~umask
            if stat.S_ISDIR(mode):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
            target.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=f".{target.name}.")
            temps.append(tmp)
            with os.fdopen(fd, "w") as handle:
                os.fchmod(handle.fileno(), stat.S_IMODE(mode))
        target = None  # the block's own errors are not write failures
        yield write
    except OSError as exc:
        if target is None:
            raise
        raise _Exit(EXIT_USAGE, f"error: cannot write {target}: {_reason(exc)}") from None
    finally:
        for tmp in temps:
            if os.path.exists(tmp):
                os.unlink(tmp)


def _json_text(obj) -> str:
    """obj as indented JSON, with null for each non-finite float (JSON has no NaN)."""

    def finite(value):
        if isinstance(value, dict):
            return {key: finite(v) for key, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [finite(v) for v in value]
        return None if isinstance(value, float) and not math.isfinite(value) else value

    return json.dumps(finite(obj), indent=2, allow_nan=False)


def _read(path: str, what: str, parse):
    """parse(text) of the file at path, read as UTF-8 with or without a
    byte-order mark; a file that cannot be read or parsed raises _Exit."""
    try:
        return parse(Path(path).read_text(encoding="utf-8-sig"))
    except FileNotFoundError:
        raise _Exit(EXIT_USAGE, f"error: {what} file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise _Exit(EXIT_USAGE, f"error: cannot read {path}: {_reason(exc)}") from None
    except (NetworkFormatError, WeatherFormatError) as exc:
        raise _Exit(EXIT_USAGE, f"error: cannot parse {path}: {exc}") from None


def _network(path: str) -> Network:
    try:
        return _read(path, "network", parse_network)
    except NetworkValidationError as exc:
        raise _Exit(EXIT_DOMAIN, "\n".join(f"invalid: {v}" for v in exc.violations)) from None


# (flag, SolverConfig field, help); each flag's type and default are the field's,
# and argparse stores it under the field's name.
_CONFIG_FLAGS = (
    ("--tol", "tolerance", "mass-balance tolerance, kg/s"),
    ("--max-iter", "max_newton_iters", "Newton iteration budget"),
    ("--relax", "fixed_relax", "fixed under-relaxation for NR"),
    ("--picard-iters", "picard_iters", "Picard initializer budget"),
    ("--accel", "accel", "Picard damping factor"),
    ("--trunc-pa", "trunc_dp_max", "Picard update cap, Pa"),
)


def _from_flags(make, **fields):
    """make(**fields), where a value the constructor rejects is a usage error."""
    try:
        return make(**fields)
    except ValueError as exc:
        raise _Exit(EXIT_USAGE, f"error: {exc}") from None


def _config_from(args) -> SolverConfig:
    return _from_flags(SolverConfig, **{f: getattr(args, f) for _, f, _ in _CONFIG_FLAGS})


def _boundary_from(args) -> BoundaryState:
    return _from_flags(
        BoundaryState,
        wind_speed=args.wind_speed,
        wind_direction_deg=args.wind_dir,
        outdoor_temp_k=args.temp_out_c + 273.15,
    )


def cmd_check(args) -> None:
    try:
        net = _read(args.network, "network", parse_network)
    except NetworkValidationError as exc:
        print("\n".join(exc.violations))
        raise _Exit(EXIT_DOMAIN) from None
    print(f"OK: {len(net.zones)} zones, {len(net.external_nodes)} external nodes, {len(net.links)} links")


def cmd_solve(args) -> None:
    net = _network(args.network)
    cfg, bc = _config_from(args), _boundary_from(args)
    try:
        outcome = solve(net, bc, None, args.strategy, cfg)
    except SolveError as exc:
        diagnostics = {
            "error": type(exc).__name__,
            "message": str(exc),
            "pressures": {z.id: float(p) for z, p in zip(net.zones, exc.outcome.pressures)},
        }
        raise _Exit(EXIT_DOMAIN, _json_text(diagnostics)) from None
    result = {
        "network": args.network,
        "strategy": outcome.strategy,
        "boundary": {
            "wind_speed_m_s": bc.wind_speed,
            "wind_dir_deg": bc.wind_direction_deg,
            "outdoor_temp_k": bc.outdoor_temp_k,
        },
        "pressures_pa": {z.id: float(p) for z, p in zip(net.zones, outcome.pressures)},
        "link_flows_kg_s": {
            link_id: {
                "flow": fl.net,
                "forward": fl.flow_forward,
                "reverse": fl.flow_reverse,
                "neutral_height_m": fl.neutral_height,
            }
            for link_id, fl in link_flows(net, outcome.pressures, bc, cfg.dp_lin).items()
        },
        "newton_iters": outcome.newton_iters,
        "picard_iters_used": outcome.picard_iters_used,
        "converged_in_picard": outcome.converged_in_picard,
        "picard_aborted": outcome.picard_aborted,
        "max_residual_kg_s": outcome.max_residual,
        "config": asdict(cfg),
    }
    print(_json_text(result))


def cmd_simulate(args) -> None:
    net = _network(args.network)
    weather = _read(args.weather, "weather", parse_weather)
    cfg = _config_from(args)
    with _outputs(Path(args.out)) as write:
        records = run_simulation(net, weather, args.strategy, cfg, warm_start=not args.no_warm_start)
        write(write_timestep_csv(records, net))
    failures = sum(1 for r in records if r.failed is not None)
    print(f"wrote {len(records)} timesteps to {args.out} ({failures} failures)")


def cmd_compare(args) -> None:
    strategies = [s.upper() for s in args.strategies]
    if len(strategies) < 2:
        raise _Exit(EXIT_USAGE, "error: compare needs at least 2 strategies")
    if len(set(strategies)) != len(strategies):
        raise _Exit(EXIT_USAGE, "error: duplicate strategies requested")
    net = _network(args.network)
    weather = _read(args.weather, "weather", parse_weather)
    cfg = _config_from(args)

    prefix = Path(args.out)
    suffixes = ("_iterations.csv", "_wide.csv", "_summary.json")
    with _outputs(*(prefix.with_name(prefix.name + suffix) for suffix in suffixes)) as write:
        all_records = {}
        for strategy in strategies:
            log.info("running %s over %d timesteps", strategy, len(weather))
            all_records[strategy] = run_simulation(
                net, weather, strategy, cfg, warm_start=not args.no_warm_start
            )

        # Long format: one row per timestep per strategy.
        long_rows = [TIMESTEP_HEADER] + [
            timestep_row(rec) for strategy in strategies for rec in all_records[strategy]
        ]
        # Wide format: timestep rows, one Newton-iteration column per strategy.
        wide_rows = [["timestamp"] + [f"newton_iters_{s.lower()}" for s in strategies]]
        for i, rec in enumerate(weather):
            wide_rows.append(
                [rec.timestamp] + [all_records[strategy][i].newton_iters for strategy in strategies]
            )
        summaries = {s: asdict(summarize(records)[s]) for s, records in all_records.items()}
        report = {
            "network": args.network,
            "weather": args.weather,
            "timesteps": len(weather),
            "strategies": summaries,
            "warm_start": not args.no_warm_start,
            "config": asdict(cfg),
        }
        write(csv_text(long_rows), csv_text(wide_rows), _json_text(report) + "\n")

    print(f"{'strategy':<10}{'mean newton':>12}{'(+picard)':>12}{'%picard':>10}{'failures':>10}")
    for strategy in strategies:
        s = summaries[strategy]
        print(
            f"{strategy:<10}{s['mean_newton_iters']:>12}{s['mean_iters_with_picard_cost']:>12}"
            f"{s['pct_converged_in_picard']:>10}{s['failures']:>10}"
        )


def cmd_gen_weather(args) -> None:
    records = _from_flags(generate_weather, days=args.days, step_minutes=args.step_min, seed=args.seed)
    with _outputs(Path(args.out)) as write:
        write(serialize_weather(records))
    print(f"wrote {len(records)} rows to {args.out}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="airnet",
        description="Multizone building airflow-network solver and strategy benchmark.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    strategies = [s.lower() for s in STRATEGIES]

    # Flags shared by several commands, each declared once as a parent parser.
    network = argparse.ArgumentParser(add_help=False)
    network.add_argument("--network", required=True)
    solver = argparse.ArgumentParser(add_help=False)
    for flag, field, help_text in _CONFIG_FLAGS:
        default = getattr(SolverConfig, field)
        solver.add_argument(flag, dest=field, type=type(default), default=default, help=help_text)
    series = argparse.ArgumentParser(add_help=False)
    series.add_argument("--weather", required=True)
    series.add_argument("--no-warm-start", action="store_true")

    p_check = sub.add_parser("check", parents=[network], help="validate a network file")
    p_check.set_defaults(handler=cmd_check)

    p_solve = sub.add_parser("solve", parents=[network, solver], help="single steady-state solve")
    p_solve.add_argument("--strategy", choices=strategies, default="wm")
    p_solve.add_argument("--wind-speed", type=float, default=0.0, help="m/s")
    p_solve.add_argument("--wind-dir", type=float, default=0.0, help="degrees from north")
    p_solve.add_argument("--temp-out-c", type=float, default=20.0)
    p_solve.set_defaults(handler=cmd_solve)

    p_sim = sub.add_parser(
        "simulate", parents=[network, series, solver], help="run one strategy over a weather series"
    )
    p_sim.add_argument("--strategy", choices=strategies, default="wm")
    p_sim.add_argument("--out", required=True, help="timestep CSV output path")
    p_sim.set_defaults(handler=cmd_simulate)

    p_cmp = sub.add_parser(
        "compare", parents=[network, series, solver], help="benchmark strategies over a weather series"
    )
    p_cmp.add_argument("--strategies", nargs="+", choices=strategies, default=strategies)
    p_cmp.add_argument("--out", required=True, help="output path prefix")
    p_cmp.set_defaults(handler=cmd_compare)

    p_gen = sub.add_parser("gen-weather", help="write a synthetic weather CSV")
    p_gen.add_argument("--days", type=int, default=10)
    p_gen.add_argument("--step-min", type=int, default=30)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(handler=cmd_gen_weather)

    return parser


def main(argv: list[str] | None = None) -> int:
    # Only a level name is honoured: for any other value getLevelName gives
    # back a string, and the level stays at warning.
    level = logging.getLevelName(os.environ.get("AIRNET_LOG", "warning").upper())
    logging.basicConfig(level=level if isinstance(level, int) else logging.WARNING, format="%(message)s")
    args = build_parser().parse_args(argv)
    try:
        args.handler(args)
    except _Exit as exc:
        if exc.message is not None:
            print(exc.message, file=sys.stderr)
        return exc.code
    return EXIT_OK


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
