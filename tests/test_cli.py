"""Command-line interface: exit codes, outputs, reproducibility."""

import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

import airnet as an
from airnet.cli import main

TWO_CRACK = str(an.bundled_example_path("two_crack"))
IEA_DOOR = str(an.bundled_example_path("iea_door"))
DWELLING = str(an.bundled_example_path("dwelling5"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# check


def test_check_valid_network(capsys):
    code, out, _ = run(capsys, "check", "--network", TWO_CRACK)
    assert code == 0
    assert out.startswith("OK")


def test_check_invalid_network_lists_violations(capsys, tmp_path):
    doc = json.loads(an.bundled_example_path("two_crack").read_text())
    doc["zones"].append(dict(doc["zones"][0]))  # duplicate id
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "check", "--network", str(bad))
    assert code == 1
    assert "duplicate" in out


def test_check_missing_file_distinct_exit(capsys):
    code, _, err = run(capsys, "check", "--network", "/nonexistent/net.json")
    assert code == 2
    assert "not found" in err


def test_check_unparseable_file(capsys, tmp_path):
    bad = tmp_path / "syntax.json"
    bad.write_text("{nope")
    code, _, err = run(capsys, "check", "--network", str(bad))
    assert code == 2


def test_check_accepts_a_byte_order_mark(capsys, tmp_path):
    path = tmp_path / "bom.json"
    path.write_bytes(b"\xef\xbb\xbf" + an.bundled_example_path("two_crack").read_bytes())
    code, out, err = run(capsys, "check", "--network", str(path))
    assert (code, err) == (0, "")
    assert out.startswith("OK")


# ---------------------------------------------------------------------------
# solve


def test_solve_symmetric_fixture_reports_midpoint(capsys):
    code, out, _ = run(
        capsys,
        "solve", "--network", TWO_CRACK, "--strategy", "nr",
        "--wind-speed", "5", "--wind-dir", "0", "--temp-out-c", "9.29",
        "--tol", "1e-9", "--max-iter", "3000",
    )
    assert code == 0
    result = json.loads(out)
    assert result["pressures_pa"]["room"] == pytest.approx(5.0, abs=1e-4)
    assert result["strategy"] == "NR"
    assert result["config"]["tolerance"] == 1e-9


def test_solve_default_tolerance_stays_near_midpoint(capsys):
    code, out, _ = run(
        capsys,
        "solve", "--network", TWO_CRACK, "--strategy", "nr",
        "--wind-speed", "5", "--wind-dir", "0", "--temp-out-c", "9.29",
    )
    assert code == 0
    assert json.loads(out)["pressures_pa"]["room"] == pytest.approx(5.0, abs=0.2)


def test_solve_iea_door_reports_two_way_components(capsys):
    code, out, _ = run(
        capsys,
        "solve", "--network", IEA_DOOR, "--strategy", "wm",
        "--wind-speed", "0", "--temp-out-c", "20",
    )
    assert code == 0
    door = json.loads(out)["link_flows_kg_s"]["door"]
    assert abs(door["forward"] / 0.4 - 1.0) < 0.2
    assert abs(door["reverse"] / 0.4 - 1.0) < 0.2
    assert door["neutral_height_m"] is not None


def test_solve_pnr_reports_picard_convergence(capsys, tmp_path):
    linear = {
        "zones": [{"id": "a", "temperature_k": 282.44, "ref_height_m": 0.0}],
        "external_nodes": [
            {"id": "hi", "ref_height_m": 0.0, "cp": [0.64] * 8},
            {"id": "lo", "ref_height_m": 0.0, "cp": [0.0] * 8},
        ],
        "links": [
            {"id": "c1", "from": "hi", "to": "a", "elevation_m": 0.0,
             "model": {"type": "crack", "k": 0.05, "n": 1.0}},
            {"id": "c2", "from": "a", "to": "lo", "elevation_m": 0.0,
             "model": {"type": "crack", "k": 0.05, "n": 1.0}},
        ],
    }
    path = tmp_path / "linear.json"
    path.write_text(json.dumps(linear))
    code, out, _ = run(
        capsys,
        "solve", "--network", str(path), "--strategy", "pnr",
        "--wind-speed", "5", "--wind-dir", "0", "--temp-out-c", "9.29",
    )
    assert code == 0
    result = json.loads(out)
    assert result["converged_in_picard"] is True
    assert result["newton_iters"] == 0


def test_solve_nonconvergence_exit_code_and_diagnostics(capsys):
    code, out, err = run(
        capsys,
        "solve", "--network", DWELLING, "--strategy", "nr",
        "--wind-speed", "6", "--max-iter", "2",
    )
    assert code == 1
    assert out == ""
    diagnostics = json.loads(err)
    assert diagnostics["error"] == "NonConvergenceError"
    assert "pressures" in diagnostics


@pytest.mark.parametrize(
    "flags",
    [
        ["--wind-speed", "-1"],
        ["--wind-speed", "nan"],
        ["--temp-out-c", "-300"],
        ["--tol", "inf"],
        ["--trunc-pa", "nan"],
        ["--relax", "5"],
    ],
)
def test_solve_bad_input_is_usage_error(capsys, flags):
    # Each of these used to end in a traceback, or (--tol inf) in "converged".
    code, out, err = run(capsys, "solve", "--network", TWO_CRACK, *flags)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_solve_below_absolute_zero_names_the_given_degrees_celsius(capsys):
    code, out, err = run(capsys, "solve", "--network", TWO_CRACK, "--temp-out-c", "-300")
    assert (code, out) == (2, "")
    assert err == "error: outdoor temperature must be above -273.15 °C, got -300.0 °C\n"


# ---------------------------------------------------------------------------
# simulate


def test_simulate_writes_timestep_csv(capsys, tmp_path):
    weather = tmp_path / "w.csv"
    weather.write_text(
        "timestamp,wind_speed_m_s,wind_dir_deg,temp_out_c\n"
        + "".join(f"2024-01-01T{h:02d}:00:00,4.0,90.0,24.0\n" for h in range(4))
    )
    out_csv = tmp_path / "run.csv"
    code, out, _ = run(
        capsys,
        "simulate", "--network", DWELLING, "--weather", str(weather),
        "--strategy", "pwm", "--out", str(out_csv),
    )
    assert code == 0
    lines = out_csv.read_text().strip().split("\n")
    assert len(lines) == 5
    assert lines[0].endswith("p_living,p_bed1,p_bed2,p_bed3,p_hall")
    # constant weather: iteration counts collapse after the first step
    for line in lines[2:]:
        newton = int(line.split(",")[3])
        assert newton <= 1


@pytest.mark.parametrize("max_iter, failed", [("2", "non-convergence"), ("100", "")])
def test_simulate_marks_each_failed_row(capsys, tmp_path, max_iter, failed):
    weather = tmp_path / "w.csv"
    main(["gen-weather", "--days", "1", "--step-min", "180", "--out", str(weather)])
    out_csv = tmp_path / "run.csv"
    code, out, _ = run(
        capsys,
        "simulate", "--network", DWELLING, "--weather", str(weather),
        "--strategy", "nr", "--max-iter", max_iter, "--out", str(out_csv),
    )
    assert code == 0
    header, *rows = [line.split(",") for line in out_csv.read_text().strip().split("\n")]
    assert header[6:9] == ["max_residual_kg_s", "failed", "p_living"]
    assert len(rows) == 8
    assert all(row[7] == failed for row in rows)
    assert out.endswith(f"({len(rows) if failed else 0} failures)\n")


def test_simulate_accepts_a_weather_file_with_a_byte_order_mark(capsys, tmp_path):
    rows = "timestamp,wind_speed_m_s,wind_dir_deg,temp_out_c\n2024-01-01T00:00:00,4.0,90.0,24.0\n"
    outputs = []
    for name, data in (("plain", rows.encode()), ("bom", b"\xef\xbb\xbf" + rows.encode())):
        weather = tmp_path / f"{name}.csv"
        weather.write_bytes(data)
        out_csv = tmp_path / f"{name}_run.csv"
        code, _, err = run(
            capsys,
            "simulate", "--network", DWELLING, "--weather", str(weather),
            "--strategy", "wm", "--out", str(out_csv),
        )
        assert (code, err) == (0, "")
        outputs.append(out_csv.read_text())
    assert outputs[0] == outputs[1]


def test_simulate_empty_weather_is_usage_error(capsys, tmp_path):
    weather = tmp_path / "empty.csv"
    weather.write_text("")
    code, _, err = run(
        capsys,
        "simulate", "--network", DWELLING, "--weather", str(weather),
        "--strategy", "nr", "--out", str(tmp_path / "x.csv"),
    )
    assert code == 2
    assert "empty" in err


def test_simulate_non_finite_weather_is_usage_error(capsys, tmp_path):
    weather = tmp_path / "nan.csv"
    weather.write_text("timestamp,wind_speed_m_s,wind_dir_deg,temp_out_c\n2024-01-01T00:00:00,nan,90.0,24.0\n")
    code, _, err = run(
        capsys,
        "simulate", "--network", DWELLING, "--weather", str(weather),
        "--strategy", "wm", "--out", str(tmp_path / "x.csv"),
    )
    assert code == 2
    assert "line 2" in err


@pytest.mark.parametrize("temp", ["-273.15", "-300"])
@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_weather_at_or_below_absolute_zero_is_usage_error(capsys, tmp_path, command, temp):
    # Such a row used to pass the parser and end the first solve in a traceback.
    weather = tmp_path / "cold.csv"
    weather.write_text(
        "timestamp,wind_speed_m_s,wind_dir_deg,temp_out_c\n2024-01-01T00:00:00,4.0,90.0,24.0\n"
        f"2024-01-01T00:30:00,4.0,90.0,{temp}\n"
    )
    code, stdout, err = run(
        capsys, command, "--network", DWELLING, "--weather", str(weather), "--out", str(tmp_path / "out")
    )
    assert (code, stdout) == (2, "")
    assert err.startswith(f"error: cannot parse {weather}: line 3: ") and err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["cold.csv"]


def test_simulate_missing_weather_file(capsys, tmp_path):
    code, _, err = run(
        capsys,
        "simulate", "--network", DWELLING, "--weather", str(tmp_path / "none.csv"),
        "--strategy", "nr", "--out", str(tmp_path / "x.csv"),
    )
    assert code == 2


@pytest.mark.parametrize("flag", ["--network", "--weather"])
@pytest.mark.parametrize("unreadable", ["directory", "non-utf-8"])
def test_unreadable_input_file_is_one_line_io_error(capsys, tmp_path, flag, unreadable):
    bad = tmp_path / "bad"
    if unreadable == "directory":
        bad.mkdir()
    else:
        bad.write_bytes(b"\xff\xfetimestamp\n")
    files = {"--network": DWELLING, "--weather": str(tmp_path / "w.csv")}
    files[flag] = str(bad)
    (tmp_path / "w.csv").write_text(
        "timestamp,wind_speed_m_s,wind_dir_deg,temp_out_c\n2024-01-01T00:00:00,4.0,90.0,24.0\n"
    )
    code, _, err = run(
        capsys,
        "simulate", "--network", files["--network"], "--weather", files["--weather"],
        "--strategy", "wm", "--out", str(tmp_path / "x.csv"),
    )
    assert code == 2
    assert err.startswith(f"error: cannot read {bad}: ")
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("target", ["under a regular file", "a directory"])
@pytest.mark.parametrize("command", ["simulate", "compare", "gen-weather"])
def test_unwritable_output_is_one_line_io_error(capsys, tmp_path, monkeypatch, command, target):
    # The output is checked before anything is solved.
    def run_simulation(*args, **kwargs):
        raise AssertionError("solved before checking the output")

    monkeypatch.setattr("airnet.cli.run_simulation", run_simulation)
    weather = tmp_path / "w.csv"
    weather.write_text(
        "timestamp,wind_speed_m_s,wind_dir_deg,temp_out_c\n2024-01-01T00:00:00,4.0,90.0,24.0\n"
    )
    (tmp_path / "afile").write_text("")
    if target == "a directory":
        out = tmp_path / "out"
        # compare takes --out as a prefix and writes <out>_iterations.csv first
        (tmp_path / ("out_iterations.csv" if command == "compare" else "out")).mkdir()
    else:
        out = tmp_path / "afile" / "out"
    inputs = ["--network", DWELLING, "--weather", str(weather)]
    argv = {
        "simulate": ["simulate", *inputs],
        "compare": ["compare", *inputs, "--strategies", "nr", "wm"],
        "gen-weather": ["gen-weather", "--days", "1"],
    }[command]
    code, stdout, err = run(capsys, *argv, "--out", str(out))
    assert (code, stdout) == (2, "")
    assert err.startswith("error: cannot write ")
    assert len(err.strip().splitlines()) == 1
    assert not list(tmp_path.rglob(".out*"))


def test_compare_writes_all_outputs_or_none(capsys, tmp_path):
    weather = tmp_path / "w.csv"
    run(capsys, "gen-weather", "--days", "1", "--out", str(weather))
    (tmp_path / "c_summary.json").mkdir()
    code, stdout, err = run(
        capsys,
        "compare", "--network", DWELLING, "--weather", str(weather),
        "--strategies", "nr", "wm", "--out", str(tmp_path / "c"),
    )
    assert (code, stdout) == (2, "")
    assert err.strip() == f"error: cannot write {tmp_path / 'c_summary.json'}: Is a directory"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c_summary.json", "w.csv"]


# ---------------------------------------------------------------------------
# gen-weather + compare


def test_gen_weather_writes_480_rows(capsys, tmp_path):
    out_csv = tmp_path / "w.csv"
    code, out, _ = run(
        capsys, "gen-weather", "--days", "10", "--step-min", "30",
        "--seed", "7", "--out", str(out_csv),
    )
    assert code == 0
    records = an.parse_weather(out_csv.read_text())
    assert len(records) == 480


@pytest.mark.parametrize("flags", [["--days", "1", "--step-min", "1441"], ["--days", "0"], ["--step-min", "0"]])
def test_gen_weather_with_no_step_is_usage_error(capsys, tmp_path, flags):
    out_csv = tmp_path / "w.csv"
    code, out, err = run(capsys, "gen-weather", *flags, "--out", str(out_csv))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not list(tmp_path.iterdir())


def test_compare_requires_two_strategies(capsys, tmp_path):
    code, _, err = run(
        capsys,
        "compare", "--network", TWO_CRACK, "--weather", "whatever.csv",
        "--strategies", "nr", "--out", str(tmp_path / "cmp"),
    )
    assert code == 2
    assert "at least 2" in err


def test_compare_outputs_and_reproducibility(capsys, tmp_path):
    weather = tmp_path / "w.csv"
    main(["gen-weather", "--days", "1", "--step-min", "60", "--seed", "3", "--out", str(weather)])
    capsys.readouterr()

    def run_compare(prefix):
        code, out, _ = run(
            capsys,
            "compare", "--network", DWELLING, "--weather", str(weather),
            "--strategies", "nr", "pnr", "--out", str(tmp_path / prefix),
        )
        assert code == 0
        return {
            suffix: (tmp_path / f"{prefix}_{suffix}").read_text()
            for suffix in ("iterations.csv", "wide.csv", "summary.json")
        }

    first = run_compare("a")
    second = run_compare("b")
    assert first == second  # bit-for-bit reproducible

    summary = json.loads(first["summary.json"])
    assert set(summary["strategies"]) == {"NR", "PNR"}
    for key in ("tolerance", "picard_iters", "accel", "trunc_dp_max", "fixed_relax"):
        assert key in summary["config"]

    wide_header = first["wide.csv"].split("\n")[0]
    assert wide_header == "timestamp,newton_iters_nr,newton_iters_pnr"
    long_lines = first["iterations.csv"].strip().split("\n")
    assert len(long_lines) == 1 + 2 * 24


def test_compare_all_failed_summary_is_strict_json(capsys, tmp_path):
    # Every step fails, so the iteration means are undefined: the summary must
    # say null, not the bare NaN token that strict JSON parsers reject.
    weather = tmp_path / "w.csv"
    main(["gen-weather", "--days", "1", "--out", str(weather)])
    code, out, _ = run(
        capsys,
        "compare", "--network", DWELLING, "--weather", str(weather),
        "--strategies", "nr", "wm", "--max-iter", "2", "--out", str(tmp_path / "cmp"),
    )
    assert code == 0
    assert "nan" in out  # the printed table is unchanged

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    summary = json.loads((tmp_path / "cmp_summary.json").read_text(), parse_constant=reject)
    for strategy in ("NR", "WM"):
        s = summary["strategies"][strategy]
        assert s["failures"] == 48
        for key in ("mean_newton_iters", "median_newton_iters",
                    "mean_iters_with_picard_cost", "mean_picard_iters"):
            assert s[key] is None


def test_output_files_get_the_mode_open_would_give(capsys, tmp_path):
    # A new file gets 0666 less the umask (the temporary file it is renamed
    # from is created 0600); a file written over keeps its mode.
    old_umask = os.umask(0o022)
    try:
        fresh = tmp_path / "fresh.csv"
        main(["gen-weather", "--days", "1", "--out", str(fresh)])
        assert stat.S_IMODE(fresh.stat().st_mode) == 0o644
        os.umask(0o077)
        kept = tmp_path / "kept.csv"
        kept.write_text("")
        kept.chmod(0o640)
        main(["gen-weather", "--days", "1", "--out", str(kept)])
        assert stat.S_IMODE(kept.stat().st_mode) == 0o640
        assert an.parse_weather(kept.read_text())
    finally:
        os.umask(old_umask)
    capsys.readouterr()


# ---------------------------------------------------------------------------
# logging


@pytest.mark.parametrize("value, shown", [("info", True), ("basic_format", False), ("no_such_level", False)])
def test_airnet_log_honours_level_names_only(capsys, tmp_path, value, shown):
    # A fresh interpreter: in this one the test runner's handlers on the root
    # logger would make the CLI's logging.basicConfig do nothing.  A value that
    # is not a level name, even one that names another attribute of the
    # logging module, leaves the level at warning.
    weather = tmp_path / "w.csv"
    main(["gen-weather", "--days", "1", "--step-min", "360", "--out", str(weather)])
    capsys.readouterr()
    src = str(Path(an.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-m", "airnet.cli", "compare", "--network", TWO_CRACK,
         "--weather", str(weather), "--strategies", "nr", "wm", "--out", str(tmp_path / "cmp")],
        env={**os.environ, "AIRNET_LOG": value, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ("running NR over 4 timesteps\nrunning WM over 4 timesteps\n" if shown else "")
