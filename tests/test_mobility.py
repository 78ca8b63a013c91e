import io
import math

import pytest

from car2cloud.errors import ConfigError, ParseError, SimulationError, ValidationError
from car2cloud.mobility import (
    KraussParams,
    RoadSpec,
    TraceSample,
    VehicleKinematicState,
    VehicleTrace,
    emit_trace_csv,
    generate_traces,
    krauss_step,
    parse_fcd_xml,
    parse_trace_csv,
    speed_distribution,
)

PARAMS = KraussParams()


def test_krauss_free_acceleration_from_standstill():
    follower = VehicleKinematicState("f", 0.0, 0.0)
    out = krauss_step(follower, None, PARAMS, dt=1.0, rng_draw=0.0)
    assert out.speed == pytest.approx(1.5)
    assert out.position == pytest.approx(1.5)


def test_krauss_safe_speed_behind_leader():
    # center distance 20 m, length 5, min_gap 2.5 -> gap 12.5;
    # v_safe = 10 + (12.5 - 10) / (20/9 + 1)
    follower = VehicleKinematicState("f", 0.0, 10.0)
    leader = VehicleKinematicState("l", 20.0, 10.0)
    out = krauss_step(follower, leader, PARAMS, dt=1.0, rng_draw=0.0)
    expected = 10.0 + 2.5 / (20.0 / 9.0 + 1.0)
    assert out.speed == pytest.approx(expected, rel=1e-12)
    assert out.speed == pytest.approx(10.777, abs=2e-3)


def test_krauss_clamps_at_desired_speed():
    follower = VehicleKinematicState("f", 0.0, 36.11, desired_speed_factor=1.0)
    out = krauss_step(follower, None, PARAMS, dt=1.0, rng_draw=0.0)
    assert out.speed == pytest.approx(36.11)


def test_krauss_imperfection_reduces_speed():
    follower = VehicleKinematicState("f", 0.0, 10.0)
    out = krauss_step(follower, None, PARAMS, dt=1.0, rng_draw=1.0)
    # full dawdle: sigma * a_max * dt = 0.75 below the accelerated speed
    assert out.speed == pytest.approx(11.5 - 0.75)


def test_krauss_speed_never_negative():
    follower = VehicleKinematicState("f", 0.0, 0.0)
    leader = VehicleKinematicState("l", 7.5, 0.0)
    out = krauss_step(follower, leader, PARAMS, dt=1.0, rng_draw=1.0)
    assert out.speed == 0.0


def test_krauss_overlap_raises():
    follower = VehicleKinematicState("fast", 0.0, 10.0)
    leader = VehicleKinematicState("slow", 6.0, 10.0)  # gap -1.5
    with pytest.raises(SimulationError) as err:
        krauss_step(follower, leader, PARAMS)
    assert "fast" in str(err.value) and "slow" in str(err.value)


def test_single_vehicle_ring_converges_to_desired_speed():
    road = RoadSpec("ring", 1000.0, 1, 10, seed=5)
    traces = generate_traces(road, KraussParams(sigma=0.0))
    assert len(traces) == 1
    assert len(traces[0].samples) == 10
    speeds = [s.speed for s in traces[0].samples]
    assert speeds == sorted(speeds)
    long_run = generate_traces(
        RoadSpec("ring", 1000.0, 1, 60, seed=5), KraussParams(sigma=0.0)
    )
    factor = long_run[0].samples[-1].speed / 36.11
    assert 0.7 <= factor <= 1.3
    assert long_run[0].samples[-1].speed == pytest.approx(36.11 * factor)


def test_ring_positions_lie_on_circle():
    road = RoadSpec("ring", 1000.0, 3, 20, seed=2)
    radius = 1000.0 / (2 * math.pi)
    for trace in generate_traces(road):
        for s in trace.samples:
            assert math.hypot(s.x, s.y) == pytest.approx(radius, rel=1e-9)


def test_ring_overfull_rejected():
    with pytest.raises(ConfigError):
        generate_traces(RoadSpec("ring", 100.0, 20, 10, seed=1))


def test_zero_duration_yields_no_traces():
    assert generate_traces(RoadSpec("strip", 1000.0, 1000.0, 0, seed=1)) == []


def test_density_ordering_and_speed_bounds():
    free = generate_traces(RoadSpec("strip", 2000.0, 1000.0, 300, seed=11))
    jam = generate_traces(RoadSpec("strip", 2000.0, 4000.0, 300, seed=11))

    def mean_speed(traces):
        speeds = [s.speed for tr in traces for s in tr.samples]
        return sum(speeds) / len(speeds)

    assert mean_speed(free) > mean_speed(jam)
    for tr in free + jam:
        for s in tr.samples:
            assert 0.0 <= s.speed <= 36.11 * 1.3 + 1e-9


def test_no_collisions_at_both_densities():
    for inflow in (1000.0, 4000.0):
        traces = generate_traces(RoadSpec("strip", 2000.0, inflow, 300, seed=3))
        by_tick = {}
        for tr in traces:
            for s in tr.samples:
                by_tick.setdefault(s.t, []).append(s.x)
        for positions in by_tick.values():
            positions.sort()
            for rear, front in zip(positions, positions[1:]):
                assert rear + PARAMS.min_gap <= front - PARAMS.veh_length + 1e-9


def test_generate_traces_deterministic():
    road = RoadSpec("strip", 3000.0, 2000.0, 200, seed=77)
    assert generate_traces(road) == generate_traces(road)
    buf_a, buf_b = io.StringIO(), io.StringIO()
    emit_trace_csv(generate_traces(road), buf_a)
    emit_trace_csv(generate_traces(road), buf_b)
    assert buf_a.getvalue() == buf_b.getvalue()


def test_traces_are_1hz_and_strictly_increasing():
    for trace in generate_traces(RoadSpec("strip", 2000.0, 3000.0, 120, seed=8)):
        ticks = [s.t for s in trace.samples]
        assert ticks == list(range(ticks[0], ticks[0] + len(ticks)))


def test_parse_trace_csv_minimal():
    traces = parse_trace_csv(io.StringIO("vehicle_id,t,x,y,speed\na,0,0,0,10\na,1,10,0,10\n"))
    assert len(traces) == 1
    assert traces[0].vehicle_id == "a"
    assert [s.t for s in traces[0].samples] == [0, 1]


def test_parse_trace_csv_duplicate_sample():
    data = "vehicle_id,t,x,y,speed\na,0,0,0,10\na,0,0,0,10\n"
    with pytest.raises(ValidationError) as err:
        parse_trace_csv(io.StringIO(data))
    assert "line 3" in str(err.value)


def test_parse_trace_csv_header_only():
    assert parse_trace_csv(io.StringIO("vehicle_id,t,x,y,speed\n")) == []


def test_parse_trace_csv_rows_in_any_order():
    data = "vehicle_id,t,x,y,speed\nb,1,5,0,5\na,1,10,0,10\nb,0,0,0,5\na,0,0,0,10\n"
    traces = parse_trace_csv(io.StringIO(data))
    assert [tr.vehicle_id for tr in traces] == ["a", "b"]
    assert [s.t for s in traces[0].samples] == [0, 1]


def test_parse_trace_csv_malformed_row():
    with pytest.raises(ParseError) as err:
        parse_trace_csv(io.StringIO("vehicle_id,t,x,y,speed\na,zero,0,0,1\n"))
    assert "line 2" in str(err.value)


def test_parse_trace_csv_bad_header():
    with pytest.raises(ParseError):
        parse_trace_csv(io.StringIO("id,t,x,y,v\n"))


def test_parse_trace_csv_non_1hz():
    data = "vehicle_id,t,x,y,speed\nv9,0,0,0,1\nv9,2,2,0,1\n"
    with pytest.raises(ValidationError) as err:
        parse_trace_csv(io.StringIO(data))
    assert "v9" in str(err.value)


def test_trace_csv_round_trip():
    traces = generate_traces(RoadSpec("strip", 1500.0, 2000.0, 90, seed=21))
    buf = io.StringIO()
    emit_trace_csv(traces, buf)
    buf.seek(0)
    assert parse_trace_csv(buf) == traces


FCD = """<?xml version="1.0"?>
<fcd-export>
  <timestep time="0.00">
    <vehicle id="v1" x="0.0" y="0.0" speed="10.0"/>
  </timestep>
  <timestep time="1.00">
    <vehicle id="v1" x="10.0" y="0.0" speed="10.0"/>
    <extra ignored="yes"/>
  </timestep>
</fcd-export>
"""


def test_parse_fcd_xml_two_timesteps():
    traces = parse_fcd_xml(io.StringIO(FCD))
    assert len(traces) == 1
    assert len(traces[0].samples) == 2
    assert traces[0].samples[1].x == 10.0


def test_parse_fcd_xml_single_vehicle_element():
    xml = '<fcd-export><timestep time="3"><vehicle id="a" x="1" y="2" speed="3"/></timestep></fcd-export>'
    traces = parse_fcd_xml(io.StringIO(xml))
    assert traces[0].samples == (TraceSample("a", 3, 1.0, 2.0, 3.0),)


def test_parse_fcd_xml_fractional_timestep_rejected():
    xml = '<fcd-export><timestep time="0.5"><vehicle id="a" x="0" y="0" speed="0"/></timestep></fcd-export>'
    with pytest.raises(ValidationError):
        parse_fcd_xml(io.StringIO(xml))


def test_parse_fcd_xml_missing_attribute():
    xml = '<fcd-export><timestep time="0"><vehicle id="a" x="0" y="0"/></timestep></fcd-export>'
    with pytest.raises(ParseError) as err:
        parse_fcd_xml(io.StringIO(xml))
    assert "speed" in str(err.value) and "vehicle" in str(err.value)


def test_speed_distribution_hand_counted():
    trace = VehicleTrace(
        "a",
        tuple(
            TraceSample("a", t, 0.0, 0.0, v) for t, v in enumerate([0.0, 0.0, 10.0, 10.0])
        ),
    )
    assert speed_distribution([trace], 10.0) == {0.0: 0.5, 10.0: 0.5}


def test_speed_distribution_single_sample():
    trace = VehicleTrace("a", (TraceSample("a", 0, 0.0, 0.0, 7.2),))
    hist = speed_distribution([trace], 5.0)
    assert hist == {5.0: 1.0}


def test_speed_distribution_sums_to_one():
    traces = generate_traces(RoadSpec("strip", 2000.0, 2000.0, 120, seed=4))
    hist = speed_distribution(traces, 2.0)
    assert abs(sum(hist.values()) - 1.0) < 1e-12


def test_speed_distribution_empty_errors():
    with pytest.raises(ValidationError):
        speed_distribution([], 1.0)


def test_speed_distribution_jam_mass_lower():
    free = generate_traces(RoadSpec("strip", 2000.0, 1000.0, 300, seed=11))
    jam = generate_traces(RoadSpec("strip", 2000.0, 4000.0, 300, seed=11))
    hist_free = speed_distribution(free, 5.0)
    hist_jam = speed_distribution(jam, 5.0)
    threshold = 25.0
    low_free = sum(p for edge, p in hist_free.items() if edge < threshold)
    low_jam = sum(p for edge, p in hist_jam.items() if edge < threshold)
    assert low_jam > low_free


def test_road_spec_validation():
    with pytest.raises(ConfigError):
        RoadSpec(topology="figure-eight")
    with pytest.raises(ConfigError):
        RoadSpec(length=-5.0)
    with pytest.raises(ConfigError):
        KraussParams(sigma=1.5)


def test_parse_trace_csv_negative_tick():
    with pytest.raises(ValidationError):
        parse_trace_csv(io.StringIO("vehicle_id,t,x,y,speed\na,-1,0,0,1\n"))


def test_parse_trace_csv_negative_speed():
    with pytest.raises(ValidationError):
        parse_trace_csv(io.StringIO("vehicle_id,t,x,y,speed\na,0,0,0,-2\n"))


def test_strip_samples_begin_after_entry_instant():
    # entrants appear within one tick of their arrival, already moving
    traces = generate_traces(RoadSpec("strip", 5000.0, 1000.0, 30, seed=14))
    assert traces
    for tr in traces:
        first = tr.samples[0]
        assert 0.0 <= first.x <= 36.11 * 1.3


@pytest.mark.parametrize("row", ["a,1,nan,0,1", "a,1,0,inf,1", "a,1,0,0,-inf"])
def test_parse_trace_csv_rejects_non_finite(row):
    data = f"vehicle_id,t,x,y,speed\na,0,0,0,1\n{row}\n"
    with pytest.raises(ValidationError) as err:
        parse_trace_csv(io.StringIO(data))
    assert "line 3" in str(err.value)


@pytest.mark.parametrize("attr", ["x", "y", "speed"])
def test_parse_fcd_xml_rejects_non_finite(attr):
    values = {"x": "10.0", "y": "0.0", "speed": "10.0", attr: "NaN"}
    late = " ".join(f'{k}="{v}"' for k, v in values.items())
    xml = FCD.replace('x="10.0" y="0.0" speed="10.0"', late)
    with pytest.raises(ValidationError) as err:
        parse_fcd_xml(io.StringIO(xml))
    assert "timestep[time='1.00']/vehicle[id='v1']" in str(err.value)


@pytest.mark.parametrize("vid", ['"a,b"', '"a""b"', '"a\r\nb"'])
def test_parse_trace_csv_rejects_delimiters_in_id(vid):
    data = f"vehicle_id,t,x,y,speed\nok,0,0,0,1\n{vid},0,0,0,1\n"
    with pytest.raises(ValidationError) as err:
        parse_trace_csv(io.StringIO(data))
    assert "line 3" in str(err.value)


@pytest.mark.parametrize("vid", ["a,b", "a&quot;b", "a&#10;b"])
def test_parse_fcd_xml_rejects_delimiters_in_id(vid):
    xml = FCD.replace('id="v1"', f'id="{vid}"', 1)
    with pytest.raises(ValidationError) as err:
        parse_fcd_xml(io.StringIO(xml))
    assert "timestep[time='0.00']" in str(err.value)


def test_ring_inflow_must_be_a_vehicle_count():
    with pytest.raises(ConfigError):
        RoadSpec(topology="ring", inflow=10.5)
    assert RoadSpec(topology="ring", inflow=10.0).inflow == 10.0
    assert RoadSpec(topology="strip", inflow=10.5).inflow == 10.5
