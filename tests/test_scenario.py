"""Weather ingestion, simulation driver, and summaries."""

import dataclasses
import logging
import math
import pickle

import numpy as np
import pytest

import airnet as an
from airnet import scenario
from airnet.scenario import (
    TimestepRecord,
    WeatherRecord,
    boundary_from_record,
    serialize_weather,
    write_timestep_csv,
)
from airnet.solvers import picard_init

TWO_ROWS = """timestamp,wind_speed_m_s,wind_dir_deg,temp_out_c
2024-01-01T00:00:00,3.2,105.0,23.4
2024-01-01T00:30:00,2.8,110.0,23.1
"""


def constant_weather(count, wind=5.0, direction=0.0, temp=9.29):
    return [
        WeatherRecord(f"2024-01-01T{h:02d}:00:00", wind, direction, temp)
        for h in range(count)
    ]


# ---------------------------------------------------------------------------
# parsing


def test_parse_two_rows():
    records = an.parse_weather(TWO_ROWS)
    assert len(records) == 2
    assert records[0].wind_speed == 3.2
    assert records[1].temp_out_c == 23.1


def test_parse_rejects_negative_wind_with_line_number():
    bad = TWO_ROWS + "2024-01-01T01:00:00,-1.0,90.0,22.0\n"
    with pytest.raises(an.WeatherFormatError) as err:
        an.parse_weather(bad)
    assert "line 4" in str(err.value)


@pytest.mark.parametrize("fields", ["nan,90.0,22.0", "1.0,inf,22.0", "1.0,90.0,-inf"])
def test_parse_rejects_non_finite_fields_with_line_number(fields):
    # `nan < 0` is False, so a NaN wind speed used to pass the range check.
    bad = TWO_ROWS + f"2024-01-01T01:00:00,{fields}\n"
    with pytest.raises(an.WeatherFormatError) as err:
        an.parse_weather(bad)
    assert "line 4" in str(err.value)
    assert "non-finite" in str(err.value)


@pytest.mark.parametrize("temp", ["-273.15", "-300"])
def test_parse_rejects_weather_at_or_below_absolute_zero(temp):
    # A row is valid when its BoundaryState is: the parser used to accept
    # these, and the simulation then stopped on the first solve.
    bad = TWO_ROWS + f"2024-01-01T01:00:00,1.0,90.0,{temp}\n"
    with pytest.raises(an.WeatherFormatError) as err:
        an.parse_weather(bad)
    assert "line 4" in str(err.value)


def test_weather_below_absolute_zero_is_reported_in_the_files_degrees_celsius():
    # The row's own value, not the kelvin sum with its rounding noise
    # (-300 + 273.15 is -26.850000000000023).
    bad = TWO_ROWS + "2024-01-01T01:00:00,1.0,90.0,-300\n"
    with pytest.raises(an.WeatherFormatError) as err:
        an.parse_weather(bad)
    assert str(err.value) == "line 4: outdoor temperature must be above -273.15 °C, got -300.0 °C"


def test_parse_rejects_non_monotone_timestamps():
    bad = TWO_ROWS + "2024-01-01T00:30:00,1.0,90.0,22.0\n"
    with pytest.raises(an.WeatherFormatError) as err:
        an.parse_weather(bad)
    assert "not after" in str(err.value)


def test_parse_rejects_naive_and_offset_timestamps_mixed():
    # Comparing the two kinds raised TypeError from inside the parser.
    bad = TWO_ROWS.replace("00:30:00", "00:30:00+00:00")
    with pytest.raises(an.WeatherFormatError) as err:
        an.parse_weather(bad)
    assert "line 3" in str(err.value)
    with pytest.raises(an.WeatherFormatError, match="line 3"):
        an.parse_weather(TWO_ROWS.replace("00:00:00", "00:00:00+01:00"))
    # every timestamp with an offset is fine, the offsets may differ
    aware = TWO_ROWS.replace("00:00:00", "00:00:00+00:00").replace("00:30:00", "01:30:00+01:00")
    assert len(an.parse_weather(aware)) == 2


def test_parse_rejects_bad_header_and_empty_file():
    with pytest.raises(an.WeatherFormatError):
        an.parse_weather("time,speed\n1,2\n")
    with pytest.raises(an.WeatherFormatError):
        an.parse_weather("")
    with pytest.raises(an.WeatherFormatError):
        an.parse_weather("timestamp,wind_speed_m_s,wind_dir_deg,temp_out_c\n")


def test_parse_warns_on_non_uniform_step(caplog):
    text = TWO_ROWS + "2024-01-01T02:00:00,1.0,90.0,22.0\n"
    with caplog.at_level(logging.WARNING, logger="airnet"):
        records = an.parse_weather(text)
    assert len(records) == 3
    assert any("non-uniform" in message for message in caplog.messages)


def test_parse_round_trips_generated_series():
    records = an.generate_weather(days=1, step_minutes=30, seed=3)
    assert an.parse_weather(serialize_weather(records)) == records


def test_generate_weather_is_deterministic_and_sized():
    a = an.generate_weather(days=10, step_minutes=30, seed=42)
    b = an.generate_weather(days=10, step_minutes=30, seed=42)
    c = an.generate_weather(days=10, step_minutes=30, seed=43)
    assert len(a) == 480
    assert a == b
    assert a != c
    assert all(rec.wind_speed >= 0 for rec in a)


@pytest.mark.parametrize(
    "days, step_minutes", [(1, 1441), (2, 2881), (0, 30), (1, 0)], ids=["1441", "2881", "days", "step"]
)
def test_generate_weather_refuses_a_series_with_no_step(days, step_minutes):
    with pytest.raises(ValueError, match="step_minutes from 1 to days"):
        an.generate_weather(days=days, step_minutes=step_minutes)


@pytest.mark.parametrize(
    "days, step_minutes, message",
    [
        (1.5, 30, "days must be an integer, got 1.5"),
        (True, 30, "days must be an integer, got True"),
        (1, 30.0, "step_minutes must be an integer, got 30.0"),
        (1, False, "step_minutes must be an integer, got False"),
    ],
    ids=["float-days", "bool-days", "float-step", "bool-step"],
)
def test_generate_weather_refuses_a_non_integer_argument(days, step_minutes, message):
    # The rule of SolverConfig's integer fields: a float would break range(),
    # and True would pass as one day.
    with pytest.raises(ValueError, match=f"^{message}$"):
        an.generate_weather(days=days, step_minutes=step_minutes)


def test_generate_weather_takes_numpy_integers():
    ours = an.generate_weather(days=np.int64(1), step_minutes=np.int32(720), seed=3)
    assert ours == an.generate_weather(days=1, step_minutes=720, seed=3)


def test_generate_weather_takes_one_step_a_series_long():
    (only,) = an.generate_weather(days=1, step_minutes=1440)
    assert only.timestamp == "2024-01-01T00:00:00"


def test_boundary_from_record_converts_celsius():
    bc = boundary_from_record(WeatherRecord("2024-01-01T00:00:00", 2.0, 90.0, 20.0))
    assert bc.outdoor_temp_k == pytest.approx(293.15)


@pytest.mark.parametrize(
    "fields, message",
    [
        (("t", math.nan, 0.0, 20.0), "non-finite wind_speed: nan"),
        (("t", -1.0, 0.0, 20.0), "wind speed must be >= 0, got -1.0"),
        (("t", 1.0, math.inf, 20.0), "non-finite wind_direction_deg: inf"),
        (("t", 1.0, 0.0, -300.0), "outdoor temperature must be above -273.15 °C, got -300.0 °C"),
        (("t", 1.0, 0.0, True), "temp_out_c must be a number, got True"),
        (("t", 1.0, 0.0, "20"), "temp_out_c must be a number, got '20'"),
        ((None, 1.0, 0.0, 20.0), "timestamp must be a string, got None"),
        ((5, 1.0, 0.0, 20.0), "timestamp must be a string, got 5"),
    ],
    ids=[
        "nan-wind", "negative-wind", "inf-direction", "below-absolute-zero", "bool-temp", "str-temp",
        "None-timestamp", "int-timestamp",
    ],
)
def test_a_weather_record_with_a_bad_value_cannot_be_built(fields, message):
    # A record built by hand used to raise only when run_simulation reached
    # it; a bool temperature in Celsius passed as 274.15 K, and a string one
    # raised TypeError.  A timestamp that is not a string was solved and
    # written to the timestep CSV as an empty field or a 5.
    with pytest.raises(ValueError) as err:
        WeatherRecord(*fields)
    assert str(err.value) == message


def test_a_weather_record_carries_its_boundary():
    rec = WeatherRecord("t", 2.0, 405.0, 20.0)
    assert rec.boundary == scenario.boundary_from_celsius(2.0, 405.0, 20.0)
    assert rec.boundary.wind_direction_deg == 45.0
    assert boundary_from_record(rec) is rec.boundary
    assert dataclasses.replace(rec, wind_speed=3.0).boundary.wind_speed == 3.0
    assert pickle.loads(pickle.dumps(rec)).boundary == rec.boundary
    assert repr(rec) == "WeatherRecord(timestamp='t', wind_speed=2.0, wind_dir_deg=405.0, temp_out_c=20.0)"


def test_weather_records_compare_and_hash_by_their_fields_alone():
    one, two = WeatherRecord("t", 2.0, 90.0, 20.0), WeatherRecord("t", 2.0, 90.0, 20.0)
    object.__setattr__(two, "boundary", an.BoundaryState(9.0, 0.0, 250.0))
    assert one == two
    assert hash(one) == hash(two)
    assert one != WeatherRecord("t", 2.0, 90.0, 21.0)


def test_run_simulation_builds_no_boundary_state(monkeypatch):
    # Each record built its BoundaryState once; a step takes it as it is.
    net = an.load_network(an.bundled_example_path("dwelling5"))
    weather = an.generate_weather(days=1, step_minutes=240, seed=3)
    expected = an.run_simulation(net, weather, "WM")

    def refuse(*args):
        raise AssertionError("a BoundaryState was built during the run")

    monkeypatch.setattr(scenario, "boundary_from_celsius", refuse)
    monkeypatch.setattr(an.BoundaryState, "__post_init__", refuse)
    records = an.run_simulation(net, weather, "WM")
    assert records == expected
    assert all(rec.failed is None for rec in records)


# ---------------------------------------------------------------------------
# simulation driver


def test_constant_weather_warm_start_short_circuits():
    net = an.load_network(an.bundled_example_path("two_crack"))
    weather = constant_weather(5)
    records = an.run_simulation(net, weather, "PNR", an.SolverConfig(), warm_start=True)
    assert len(records) == 5
    assert records[0].newton_iters + records[0].picard_iters > 0
    for rec in records[1:]:
        assert rec.newton_iters <= 1
        assert rec.converged_in_picard
        assert rec.picard_iters == 0  # already within tolerance on entry


def test_constant_weather_cold_start_repeats_first_step():
    net = an.load_network(an.bundled_example_path("two_crack"))
    weather = constant_weather(4)
    records = an.run_simulation(net, weather, "NR", an.SolverConfig(), warm_start=False)
    first = records[0]
    for rec in records[1:]:
        assert rec.newton_iters == first.newton_iters
        assert rec.pressures == first.pressures


def test_run_simulation_is_deterministic():
    net = an.load_network(an.bundled_example_path("dwelling5"))
    weather = an.generate_weather(days=1, step_minutes=30, seed=9)
    one = an.run_simulation(net, weather, "PWM", an.SolverConfig())
    two = an.run_simulation(net, weather, "PWM", an.SolverConfig())
    assert one == two
    assert all(type(v) is float for rec in one for v in rec.pressures)


def test_warm_start_changes_counts_not_pressures():
    net = an.load_network(an.bundled_example_path("threestorey"))
    weather = an.generate_weather(days=1, step_minutes=180, seed=5)
    cfg = an.SolverConfig(tolerance=1e-9, max_newton_iters=3000)
    warm = an.run_simulation(net, weather, "WM", cfg, warm_start=True)
    cold = an.run_simulation(net, weather, "WM", cfg, warm_start=False)
    for w, c in zip(warm, cold):
        assert np.max(np.abs(np.array(w.pressures) - np.array(c.pressures))) < 1e-6


def test_failures_are_recorded_and_run_continues():
    net = an.load_network(an.bundled_example_path("dwelling5"))
    weather = an.generate_weather(days=1, step_minutes=120, seed=2)
    records = an.run_simulation(net, weather, "NR", an.SolverConfig(max_newton_iters=3))
    assert len(records) == len(weather)
    assert all(rec.failed == "non-convergence" for rec in records)
    assert all(rec.newton_iters == 3 for rec in records)


def test_singular_step_is_recorded_and_run_continues():
    net = an.Network(  # built directly: validation would reject the isolated zone
        zones=(an.Zone("a", 293.0, 0.0), an.Zone("island", 293.0, 0.0)),
        external_nodes=(an.ExternalNode("out", 0.0, (0.5,) * 8),),
        links=(an.Link("c", "out", "a", 0.0, an.Crack(0.01, 0.6)),),
    )
    weather = constant_weather(2)
    records = an.run_simulation(net, weather, "nr", an.SolverConfig())
    assert len(records) == 2
    for rec, wrec in zip(records, weather):
        assert rec.failed == "singular-jacobian"
        fresh = an.residual(net, np.array(rec.pressures), boundary_from_record(wrec))
        assert rec.max_residual == float(np.max(np.abs(fresh)))
        assert (rec.timestamp, rec.strategy) == (wrec.timestamp, "NR")
        assert (rec.picard_iters, rec.newton_iters, rec.converged_in_picard) == (0, 0, False)
        assert rec.picard_aborted is None
        assert rec.pressures == (0.0, 0.0)


def test_failed_records_keep_the_picard_accounting():
    net = an.load_network(an.bundled_example_path("dwelling5"))
    weather = an.generate_weather(days=1, step_minutes=30, seed=0)
    cfg = an.SolverConfig(max_newton_iters=3)
    zeros = np.zeros(len(net.zones))
    failed = []
    for strategy in ("PNR", "PWM"):
        records = an.run_simulation(net, weather, strategy, cfg, warm_start=False)
        failed += [(rec, wrec) for rec, wrec in zip(records, weather) if rec.failed is not None]
    for rec, wrec in failed:
        picard = picard_init(net, boundary_from_record(wrec), zeros, cfg)
        assert (rec.picard_iters, rec.picard_aborted) == (picard.iters_used, picard.aborted)
    assert any(rec.picard_iters > 0 for rec, _ in failed)


def test_empty_weather_rejected():
    net = an.load_network(an.bundled_example_path("two_crack"))
    with pytest.raises(ValueError):
        an.run_simulation(net, [], "NR", an.SolverConfig())


def test_converged_records_pass_residual_recheck():
    net = an.load_network(an.bundled_example_path("dwelling5"))
    weather = an.generate_weather(days=1, step_minutes=60, seed=4)
    records = an.run_simulation(net, weather, "PWM", an.SolverConfig())
    for rec, wrec in zip(records, weather):
        if rec.failed is None:
            bc = boundary_from_record(wrec)
            fresh = np.max(np.abs(an.residual(net, np.array(rec.pressures), bc)))
            assert fresh <= 1e-3


# ---------------------------------------------------------------------------
# summaries


def make_record(newton, picard=0, in_picard=False, failed=None, strategy="PNR"):
    return TimestepRecord(
        timestamp="2024-01-01T00:00:00",
        strategy=strategy,
        picard_iters=picard,
        newton_iters=newton,
        converged_in_picard=in_picard,
        picard_aborted=None,
        max_residual=1e-4,
        pressures=(0.0,),
        failed=failed,
    )


def test_summarize_single_record():
    summary = an.summarize([make_record(7)])["PNR"]
    assert summary.mean_newton_iters == 7
    assert summary.median_newton_iters == 7
    assert summary.max_newton_iters == 7
    assert summary.failures == 0


def test_summarize_picard_percentages_and_mean():
    records = [
        make_record(0, picard=3, in_picard=True),
        make_record(0, picard=2, in_picard=True),
        make_record(4, picard=10, in_picard=False),
    ]
    summary = an.summarize(records)["PNR"]
    assert summary.pct_converged_in_picard == pytest.approx(66.7)
    assert summary.mean_newton_iters == pytest.approx(1.33)
    # budget charged only on the step where the initializer ran and missed
    assert summary.mean_iters_with_picard_cost == pytest.approx((0 + 0 + 14) / 3, abs=0.01)


def test_summarize_counts_failures_separately():
    records = [make_record(5), make_record(500, failed="non-convergence")]
    summary = an.summarize(records)["PNR"]
    assert summary.failures == 1
    assert summary.steps == 2
    assert summary.mean_newton_iters == 5


def test_summarize_all_failed_has_nan_means():
    records = [make_record(3, picard=2, failed="non-convergence"), make_record(9, failed="singular-jacobian")]
    summary = an.summarize(records)["PNR"]
    assert (summary.steps, summary.failures) == (2, 2)
    assert summary.max_newton_iters == 0
    assert summary.pct_converged_in_picard == 0.0
    for value in (summary.mean_newton_iters, summary.median_newton_iters,
                  summary.mean_iters_with_picard_cost, summary.mean_picard_iters):
        assert np.isnan(value)


@pytest.mark.parametrize("newton", [[4, 1, 9], [4, 1, 9, 2], [7, 7], [0, 1, 2, 3, 50]])
def test_summarize_mean_median_and_max_match_numpy(newton):
    records = [make_record(n, picard=n % 3, in_picard=n == 0) for n in newton]
    with_picard = [n + (0 if n == 0 else n % 3) for n in newton]
    records.append(make_record(1000, failed="non-convergence"))
    summary = an.summarize(records)["PNR"]
    assert summary.mean_newton_iters == round(float(np.mean(newton)), 2)
    assert summary.mean_iters_with_picard_cost == round(float(np.mean(with_picard)), 2)
    assert summary.mean_picard_iters == round(float(np.mean([n % 3 for n in newton])), 2)
    assert summary.median_newton_iters == float(np.median(newton))
    assert summary.max_newton_iters == max(newton)
    assert type(summary.max_newton_iters) is int


def test_summarize_groups_strategies():
    records = [make_record(3, strategy="NR"), make_record(1, strategy="WM")]
    summaries = an.summarize(records)
    assert set(summaries) == {"NR", "WM"}


def test_summarize_rejects_empty():
    with pytest.raises(ValueError):
        an.summarize([])


def test_timestep_csv_shape():
    net = an.load_network(an.bundled_example_path("two_crack"))
    weather = constant_weather(2)
    records = an.run_simulation(net, weather, "WM", an.SolverConfig())
    text = write_timestep_csv(records, net)
    lines = text.strip().split("\n")
    assert lines[0] == (
        "timestamp,strategy,picard_iters,newton_iters,converged_in_picard,"
        "picard_aborted,max_residual_kg_s,failed,p_room"
    )
    assert len(lines) == 3
    assert lines[1].split(",")[1] == "WM"
    assert lines[1].split(",")[7] == ""
