"""Command-line front end: validate, solve, simulate, compare, gen-weather.

Exit codes: 0 success, 1 domain failure (invalid network, non-convergence),
2 I/O or usage error.  Set AIRNET_LOG=debug|info|warning for verbosity.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import math
import os
import stat
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

from .assembly import BoundaryState, link_flows
from .network import (
    NetworkFormatError,
    NetworkValidationError,
    load_network,
)
from .scenario import (
    TIMESTEP_HEADER,
    WeatherFormatError,
    generate_weather,
    parse_weather,
    run_simulation,
    serialize_weather,
    summarize,
    timestep_row,
    write_timestep_csv,
)
from .solvers import (
    STRATEGIES,
    NonConvergenceError,
    SingularJacobianError,
    SolverConfig,
    solve,
)

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2

log = logging.getLogger("airnet")


def _atomic_write(path: Path, text: str) -> None:
    """Write text to path through a temporary file in the same directory, so
    path never holds half the text; the file gets the mode that
    open(path, "w") would give it (mkstemp creates 0600)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        mode = stat.S_IMODE(path.stat().st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w") as handle:
            os.fchmod(handle.fileno(), mode)
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_text(obj) -> str:
    """obj as indented JSON, with null for each non-finite float (JSON has no NaN)."""

    def finite(value):
        if isinstance(value, dict):
            return {key: finite(v) for key, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [finite(v) for v in value]
        return None if isinstance(value, float) and not math.isfinite(value) else value

    return json.dumps(finite(obj), indent=2, allow_nan=False)


def _csv_text(rows: list[list]) -> str:
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def _report_invalid(violation: str) -> None:
    print(f"invalid: {violation}", file=sys.stderr)


def _unreadable(path: str, exc: OSError | UnicodeDecodeError) -> int:
    reason = exc.strerror if isinstance(exc, OSError) and exc.strerror else exc
    print(f"error: cannot read {path}: {reason}", file=sys.stderr)
    return EXIT_USAGE


def _load_network_or_exit(path: str, report=_report_invalid):
    """(network, EXIT_OK), or (None, exit code) after printing why not;
    `report` prints each validation violation."""
    try:
        return load_network(path), EXIT_OK
    except FileNotFoundError:
        print(f"error: network file not found: {path}", file=sys.stderr)
        return None, EXIT_USAGE
    except (OSError, UnicodeDecodeError) as exc:
        return None, _unreadable(path, exc)
    except NetworkFormatError as exc:
        print(f"error: cannot parse {path}: {exc}", file=sys.stderr)
        return None, EXIT_USAGE
    except NetworkValidationError as exc:
        for violation in exc.violations:
            report(violation)
        return None, EXIT_DOMAIN


def _load_weather_or_exit(path: str):
    try:
        return parse_weather(Path(path).read_text(encoding="utf-8-sig")), EXIT_OK
    except FileNotFoundError:
        print(f"error: weather file not found: {path}", file=sys.stderr)
        return None, EXIT_USAGE
    except (OSError, UnicodeDecodeError) as exc:
        return None, _unreadable(path, exc)
    except WeatherFormatError as exc:
        print(f"error: cannot parse {path}: {exc}", file=sys.stderr)
        return None, EXIT_USAGE


# (flag, SolverConfig field, help); each flag's type and default are the field's,
# and argparse stores it under the flag's name ("--max-iter" as args.max_iter).
_CONFIG_FLAGS = (
    ("--tol", "tolerance", "mass-balance tolerance, kg/s"),
    ("--max-iter", "max_newton_iters", "Newton iteration budget"),
    ("--relax", "fixed_relax", "fixed under-relaxation for NR"),
    ("--picard-iters", "picard_iters", "Picard initializer budget"),
    ("--accel", "accel", "Picard damping factor"),
    ("--trunc-pa", "trunc_dp_max", "Picard update cap, Pa"),
)


def _config_from(args) -> SolverConfig:
    values = vars(args)
    return SolverConfig(**{f: values[flag[2:].replace("-", "_")] for flag, f, _ in _CONFIG_FLAGS})


def _boundary_from(args) -> BoundaryState:
    return BoundaryState(
        wind_speed=args.wind_speed,
        wind_direction_deg=args.wind_dir,
        outdoor_temp_k=args.temp_out_c + 273.15,
    )


def _usage_error(exc: ValueError) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return EXIT_USAGE


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    for flag, field, help_text in _CONFIG_FLAGS:
        default = getattr(SolverConfig, field)
        parser.add_argument(flag, type=type(default), default=default, help=help_text)


def cmd_check(args) -> int:
    net, code = _load_network_or_exit(args.network, report=print)
    if net is None:
        return code
    print(f"OK: {len(net.zones)} zones, {len(net.external_nodes)} external nodes, {len(net.links)} links")
    return EXIT_OK


def cmd_solve(args) -> int:
    net, code = _load_network_or_exit(args.network)
    if net is None:
        return code
    try:
        cfg, bc = _config_from(args), _boundary_from(args)
    except ValueError as exc:
        return _usage_error(exc)
    try:
        outcome = solve(net, bc, None, args.strategy, cfg)
    except (NonConvergenceError, SingularJacobianError) as exc:
        diagnostics = {
            "error": type(exc).__name__,
            "message": str(exc),
            "pressures": {z.id: float(p) for z, p in zip(net.zones, exc.pressures)},
        }
        print(_json_text(diagnostics), file=sys.stderr)
        return EXIT_DOMAIN
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
    return EXIT_OK


def cmd_simulate(args) -> int:
    net, code = _load_network_or_exit(args.network)
    if net is None:
        return code
    weather, code = _load_weather_or_exit(args.weather)
    if weather is None:
        return code
    try:
        cfg = _config_from(args)
    except ValueError as exc:
        return _usage_error(exc)
    records = run_simulation(net, weather, args.strategy, cfg, warm_start=not args.no_warm_start)
    _atomic_write(Path(args.out), write_timestep_csv(records, net))
    failures = sum(1 for r in records if r.failed is not None)
    print(f"wrote {len(records)} timesteps to {args.out} ({failures} failures)")
    return EXIT_OK


def cmd_compare(args) -> int:
    strategies = [s.upper() for s in args.strategies]
    if len(strategies) < 2:
        print("error: compare needs at least 2 strategies", file=sys.stderr)
        return EXIT_USAGE
    if len(set(strategies)) != len(strategies):
        print("error: duplicate strategies requested", file=sys.stderr)
        return EXIT_USAGE
    net, code = _load_network_or_exit(args.network)
    if net is None:
        return code
    weather, code = _load_weather_or_exit(args.weather)
    if weather is None:
        return code
    try:
        cfg = _config_from(args)
    except ValueError as exc:
        return _usage_error(exc)

    all_records = {}
    for strategy in strategies:
        log.info("running %s over %d timesteps", strategy, len(weather))
        all_records[strategy] = run_simulation(
            net, weather, strategy, cfg, warm_start=not args.no_warm_start
        )

    prefix = Path(args.out)

    # Long format: one row per timestep per strategy.
    long_rows = [[*TIMESTEP_HEADER, "failed"]] + [
        timestep_row(rec) + [rec.failed or ""]
        for strategy in strategies
        for rec in all_records[strategy]
    ]
    _atomic_write(prefix.with_name(prefix.name + "_iterations.csv"), _csv_text(long_rows))

    # Wide format: timestep rows, one Newton-iteration column per strategy.
    wide_rows = [["timestamp"] + [f"newton_iters_{s.lower()}" for s in strategies]]
    for i, rec in enumerate(weather):
        wide_rows.append(
            [rec.timestamp] + [all_records[strategy][i].newton_iters for strategy in strategies]
        )
    _atomic_write(prefix.with_name(prefix.name + "_wide.csv"), _csv_text(wide_rows))

    summaries = {
        strategy: asdict(summarize(records)[strategy])
        for strategy, records in all_records.items()
    }
    report = {
        "network": args.network,
        "weather": args.weather,
        "timesteps": len(weather),
        "strategies": summaries,
        "warm_start": not args.no_warm_start,
        "config": asdict(cfg),
    }
    _atomic_write(prefix.with_name(prefix.name + "_summary.json"), _json_text(report) + "\n")

    print(f"{'strategy':<10}{'mean newton':>12}{'(+picard)':>12}{'%picard':>10}{'failures':>10}")
    for strategy in strategies:
        s = summaries[strategy]
        print(
            f"{strategy:<10}{s['mean_newton_iters']:>12}{s['mean_iters_with_picard_cost']:>12}"
            f"{s['pct_converged_in_picard']:>10}{s['failures']:>10}"
        )
    return EXIT_OK


def cmd_gen_weather(args) -> int:
    if args.days < 1 or args.step_min < 1:
        print("error: --days and --step-min must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    records = generate_weather(days=args.days, step_minutes=args.step_min, seed=args.seed)
    _atomic_write(Path(args.out), serialize_weather(records))
    print(f"wrote {len(records)} rows to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="airnet",
        description="Multizone building airflow-network solver and strategy benchmark.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    strategies = [s.lower() for s in STRATEGIES]

    p_check = sub.add_parser("check", help="validate a network file")
    p_check.add_argument("--network", required=True)
    p_check.set_defaults(handler=cmd_check)

    p_solve = sub.add_parser("solve", help="single steady-state solve")
    p_solve.add_argument("--network", required=True)
    p_solve.add_argument("--strategy", choices=strategies, default="wm")
    p_solve.add_argument("--wind-speed", type=float, default=0.0, help="m/s")
    p_solve.add_argument("--wind-dir", type=float, default=0.0, help="degrees from north")
    p_solve.add_argument("--temp-out-c", type=float, default=20.0)
    _add_config_flags(p_solve)
    p_solve.set_defaults(handler=cmd_solve)

    p_sim = sub.add_parser("simulate", help="run one strategy over a weather series")
    p_sim.add_argument("--network", required=True)
    p_sim.add_argument("--weather", required=True)
    p_sim.add_argument("--strategy", choices=strategies, default="wm")
    p_sim.add_argument("--out", required=True, help="timestep CSV output path")
    p_sim.add_argument("--no-warm-start", action="store_true")
    _add_config_flags(p_sim)
    p_sim.set_defaults(handler=cmd_simulate)

    p_cmp = sub.add_parser("compare", help="benchmark strategies over a weather series")
    p_cmp.add_argument("--network", required=True)
    p_cmp.add_argument("--weather", required=True)
    p_cmp.add_argument(
        "--strategies",
        nargs="+",
        choices=strategies,
        default=strategies,
    )
    p_cmp.add_argument("--out", required=True, help="output path prefix")
    p_cmp.add_argument("--no-warm-start", action="store_true")
    _add_config_flags(p_cmp)
    p_cmp.set_defaults(handler=cmd_compare)

    p_gen = sub.add_parser("gen-weather", help="write a synthetic weather CSV")
    p_gen.add_argument("--days", type=int, default=10)
    p_gen.add_argument("--step-min", type=int, default=30)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(handler=cmd_gen_weather)

    return parser


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("AIRNET_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING), format="%(message)s")
    args = build_parser().parse_args(argv)
    return args.handler(args)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
