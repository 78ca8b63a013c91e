import hashlib
import io
import math
import random
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from car2cloud import mobility
from car2cloud.csvio import ID_FORBIDDEN_CHARS
from car2cloud.engine import load_config
from car2cloud.errors import ConfigError, ParseError, SimulationError, ValidationError
from car2cloud.mobility import (
    KraussParams,
    RoadSpec,
    emit_trace_csv,
    generate_traces,
    krauss_step,
    parse_fcd_xml,
    parse_trace_csv,
)
from same_text import assert_same_text
from speed_histogram import speed_distribution
from strip_entry_oracle import strip_entry
from trace_rows import trace_table

PARAMS = KraussParams()


def csv_text(traces):
    buf = io.StringIO()
    emit_trace_csv(traces, buf)
    return buf.getvalue()


def step(positions, speeds, draws, factors=None, ids=None, ring_length=None):
    """One krauss_step on a small platoon given back to front."""
    n = len(positions)
    position, speed = krauss_step(
        np.array(positions, dtype=float),
        np.array(speeds, dtype=float),
        np.array(factors or [1.0] * n),
        np.array(draws, dtype=float),
        PARAMS,
        ids or [f"v{i}" for i in range(n)],
        ring_length=ring_length,
    )
    return position.tolist(), speed.tolist()


def test_krauss_free_acceleration_from_standstill():
    position, speed = step([0.0], [0.0], [0.0])
    assert speed[0] == pytest.approx(1.5)
    assert position[0] == pytest.approx(1.5)


def test_krauss_safe_speed_behind_leader():
    # center distance 20 m, length 5, min_gap 2.5 -> gap 12.5;
    # v_safe = 10 + (12.5 - 10) / (20/9 + 1)
    _, speed = step([0.0, 20.0], [10.0, 10.0], [0.0, 0.0])
    expected = 10.0 + 2.5 / (20.0 / 9.0 + 1.0)
    assert speed[0] == pytest.approx(expected, rel=1e-12)
    assert speed[0] == pytest.approx(10.777, abs=2e-3)
    assert speed[1] == pytest.approx(11.5)  # the leader drives free


def test_krauss_clamps_at_desired_speed():
    _, speed = step([0.0], [36.11], [0.0], factors=[1.0])
    assert speed[0] == pytest.approx(36.11)


def test_krauss_imperfection_reduces_speed():
    _, speed = step([0.0], [10.0], [1.0])
    # full dawdle: sigma * a_max * dt = 0.75 below the accelerated speed
    assert speed[0] == pytest.approx(11.5 - 0.75)


def test_krauss_speed_never_negative():
    _, speed = step([0.0, 7.5], [0.0, 0.0], [1.0, 0.0])
    assert speed[0] == 0.0
    assert math.copysign(1.0, speed[0]) == 1.0  # never -0.0


def test_krauss_overlap_raises():
    with pytest.raises(SimulationError) as err:
        step([0.0, 6.0], [10.0, 10.0], [0.0, 0.0], ids=["fast", "slow"])  # gap -1.5
    assert "fast" in str(err.value) and "slow" in str(err.value)
    assert "-1.500" in str(err.value)


def test_krauss_ring_wrap_around_overlap_raises():
    # On a 100 m ring the rear vehicle at 2 m leads the front one at 98 m
    # from one lap ahead: 102 - 98 - 7.5 = -3.5 m.
    with pytest.raises(SimulationError) as err:
        step([2.0, 98.0], [0.0, 0.0], [0.0, 0.0], ids=["rear", "front"], ring_length=100.0)
    assert "front and rear" in str(err.value)
    assert "-3.500" in str(err.value)


def test_krauss_ring_wraps_positions():
    # the rear vehicle at 20 m leads the front one at 95 m from a lap ahead
    position, speed = step([20.0, 95.0], [0.0, 10.0], [0.0, 0.0], ring_length=100.0)
    gap = 120.0 - 95.0 - 5.0 - 2.5
    v_safe = 0.0 + (gap - 0.0 * 1.0) / ((0.0 + 10.0) / 9.0 + 1.0)
    assert speed == [1.5, v_safe]
    assert position == [21.5, math.fmod(95.0 + v_safe, 100.0)]
    assert position[1] < 5.0


def test_krauss_single_vehicle_ring_has_no_leader():
    position, speed = step([50.0], [36.0], [0.0], ring_length=100.0)
    assert speed == [36.11]
    assert position == [math.fmod(50.0 + 36.11, 100.0)]


# SHA-256 of emit_trace_csv output, taken from the per-vehicle object
# generator that the platoon step replaced: the rewrite kept every byte.
GOLDEN_TRACE_DIGESTS = {
    "strip_free_s42": (RoadSpec("strip", 3000.0, 1000.0, 120, seed=42),
                       "f1b72938b341c834ce0ade236be6a7211dca3023d42c6c8389846b0fef3cbbae"),
    "strip_free_s7": (RoadSpec("strip", 3000.0, 1000.0, 120, seed=7),
                      "8ae0289aa3c89f13b1945ff410566eac64ee6ba8e899a54e756448c3e00a7865"),
    "strip_jam_s42": (RoadSpec("strip", 3000.0, 4000.0, 120, seed=42),
                      "555dfb91baaef8001f9d65735f07fd7c48ef0ba3ddb58b937a100c8f43a7c229"),
    "strip_jam_s7": (RoadSpec("strip", 3000.0, 4000.0, 120, seed=7),
                     "8cb0855c0581e132051a4050122996ba724ae74818de2b19a4fb22a5162af9fd"),
    "ring_s42": (RoadSpec("ring", 2000.0, 40, 120, seed=42),
                 "820372a10a04aef0c8a53ad8a3e701c20bc06a67985b3bf12e0918a306c3b169"),
    "ring_s7": (RoadSpec("ring", 2000.0, 40, 120, seed=7),
                "d814717d3230586cdb4141f21984bd078732a1d17de1bfb450a84e5be34beeea"),
    # 34 vehicles on 300 m: gaps of 1.3 m, vehicles stop and pass the seam
    "ring_dense": (RoadSpec("ring", 300.0, 34, 120, seed=3),
                   "fe0ac71e57ac27d37c020d5289295b832b503cde1e4f93e187c59043ec9142c1"),
    # Edge cases of the per-run draw array, taken before it replaced the
    # per-vehicle dawdle iterators.  A 0-tick ring draws (n, 0) dawdles and a
    # 1-tick strip admits no vehicle; the one entry of a 2-tick strip draws a
    # single value; on a 0.5 m strip every entrant is past the end at once.
    "ring_0_ticks": (RoadSpec("ring", 1000.0, 10, 0, seed=42),
                     "f6aa481276e89037bf1f265ab65d0500bcd3c5dec65d365c787b263ab83adc8a"),
    "strip_1_tick": (RoadSpec("strip", 3000.0, 4000.0, 1, seed=42),
                     "f6aa481276e89037bf1f265ab65d0500bcd3c5dec65d365c787b263ab83adc8a"),
    "strip_2_ticks": (RoadSpec("strip", 3000.0, 4000.0, 2, seed=42),
                      "375b8ae000e8ee44cb9d9484a60d7b501f1e7a6c0e6e38d48232fda7c1f0398d"),
    "strip_half_metre": (RoadSpec("strip", 0.5, 1000.0, 60, seed=42),
                         "f6aa481276e89037bf1f265ab65d0500bcd3c5dec65d365c787b263ab83adc8a"),
    # 48 of 60 vehicles leave the 400 m strip before the run ends
    "strip_vehicles_leave": (RoadSpec("strip", 400.0, 2000.0, 120, seed=42),
                             "2ac6fd4e5e847a7b2242d6dd81fb87f693d28d60697dcdaa517aeb9f0349ab0b",
                             KraussParams(sigma=1.0, speed_dev=0.3)),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_TRACE_DIGESTS))
def test_generated_traces_match_golden_digest(name):
    road, digest, *params = GOLDEN_TRACE_DIGESTS[name]
    assert hashlib.sha256(csv_text(generate_traces(road, *params)).encode()).hexdigest() == digest


def test_strip_makes_no_random_stream_for_an_arrival_that_never_enters():
    """A vehicle's stream and speed factor are drawn once, when it enters.

    On the jam config 229 of 658 arrivals are still waiting at the origin
    when the run ends; none of them draws.
    """
    config = load_config(Path(__file__).resolve().parent.parent / "configs" / "traffic_jam.cfg")
    road = config.road_spec()
    with mock.patch.object(mobility, "_vehicle_draws", wraps=mobility._vehicle_draws) as draws:
        traces = generate_traces(road, config.krauss)
    entered = len(traces.vehicle_id.names)
    assert (sum(1 for _ in mobility._arrival_times(road)), entered) == (658, 429)
    assert draws.call_count == entered
    assert sorted(call.args[1] for call in draws.call_args_list) == list(range(entered))
    assert hashlib.sha256(csv_text(traces).encode()).hexdigest() == (
        "32c0f6100d96717a8a3df6a17ed8590f7942b5df5362ffa594f6d03682a8056e"
    )


@pytest.mark.parametrize("inflow", [1000.0, 4000.0, 1e9, 1e308])
def test_strip_draws_at_most_one_arrival_time_past_its_last_entry(inflow):
    """However high the demand, arrival times are drawn only as the strip takes them."""
    config = load_config(Path(__file__).resolve().parent.parent / "configs" / "free_flow.cfg")
    road = replace(config.road_spec(), inflow=inflow, duration=60)
    arrival_times, drawn = mobility._arrival_times, []

    def counted(road):
        for t in arrival_times(road):
            drawn.append(t)
            yield t

    with mock.patch.object(mobility, "_arrival_times", counted):
        traces = generate_traces(road, config.krauss)
    entered = len(traces.vehicle_id.names)
    assert entered <= len(drawn) <= entered + 1


def test_strip_memory_grows_with_the_vehicles_that_enter_not_with_demand():
    """At 160000 veh/h on the jam strip some 26,700 vehicles arrive but only
    about 430 enter, as at 4000 veh/h; only those get a row of dawdles."""
    config = load_config(Path(__file__).resolve().parent.parent / "configs" / "traffic_jam.cfg")
    peaks, digests = [], []
    for inflow in (4000.0, 160000.0):
        road = replace(config.road_spec(), inflow=inflow)
        tracemalloc.start()
        try:
            traces = generate_traces(road, config.krauss)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        digests.append(hashlib.sha256(csv_text(traces).encode()).hexdigest())
    assert peaks[1] <= 2 * peaks[0]
    assert digests == [
        "32c0f6100d96717a8a3df6a17ed8590f7942b5df5362ffa594f6d03682a8056e",
        "71be6d5cd9045afde149ece60089126ac0d719b8491ec28ec58e29299bc39e68",
    ]


def admit(rear, arrival_offset, factor, params=PARAMS):
    """_generate_strip's entry by _entry_offset and _entry_speed, in strip_entry's terms."""
    x_r, v_r = (math.inf, 0.0) if rear is None else rear
    offset = mobility._entry_offset(x_r, v_r, arrival_offset, params)
    if offset >= 1.0:
        return None
    return offset, mobility._entry_speed(x_r - v_r + v_r * offset, v_r, factor, params)


def entry_outcome(rule, *args):
    """The rule's (offset, speed) as float.hex, None if the arrival waits, or its error."""
    try:
        result = rule(*args)
    except SimulationError as exc:
        return str(exc)
    return None if result is None else tuple(float(value).hex() for value in result)


CLEARANCE = PARAMS.veh_length + PARAMS.min_gap  # the envelope of a standing rear vehicle


@pytest.mark.parametrize(
    "rear, arrival_offset, enters",
    [
        # a standing rear vehicle just inside, at and just beyond the envelope
        ((math.nextafter(CLEARANCE, 0.0), 0.0), 0.25, False),
        ((CLEARANCE, 0.0), 0.25, True),
        ((math.nextafter(CLEARANCE, math.inf), 0.0), 0.25, True),
        ((CLEARANCE, 0.0), 0.0, True),
        # an offset of exactly 1.0 waits: an arrival at t + 1, or a rear
        # vehicle at 2 m/s that leaves its 9.5 m envelope exactly then
        (None, 1.0, False),
        ((100.0, 0.0), 1.0, False),
        ((100.0, 2.0), 1.0, False),
        ((9.5, 2.0), 0.25, False),
        ((math.nextafter(9.5, math.inf), 2.0), 0.25, True),
        ((9.5, 2.0), 1.0, False),
        # an empty road, and a moving or crawling rear vehicle that holds the entry back
        (None, 0.0, True),
        (None, 0.75, True),
        ((12.0, 4.0), 0.1, True),
        ((12.0, 4.0), 0.9, True),
        ((CLEARANCE + 1.5e-9, 1e-9), 0.1, True),
    ],
)
def test_entry_rule_matches_the_inline_rule_it_replaced(rear, arrival_offset, enters):
    expected = entry_outcome(strip_entry, rear, arrival_offset, 1.1, PARAMS)
    assert entry_outcome(admit, rear, arrival_offset, 1.1) == expected
    assert (expected is not None) == enters


@st.composite
def entries(draw):
    """An arrival's rear vehicle, arrival offset, speed factor and parameters."""
    params = KraussParams(
        b_max=draw(st.floats(0.5, 9.0)),
        tau=draw(st.floats(0.1, 3.0)),
        min_gap=draw(st.floats(0.1, 5.0)),
        veh_length=draw(st.floats(0.5, 10.0)),
    )
    arrival_offset = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    factor = draw(st.floats(mobility.SPEED_FACTOR_MIN, mobility.SPEED_FACTOR_MAX))
    if draw(st.integers(0, 9)) == 0:
        return None, arrival_offset, factor, params
    v_r = draw(st.one_of(st.just(0.0), st.floats(0.0, 1e-6), st.floats(0.0, 60.0)))
    # where the rear vehicle stood at t, from its envelope: inside, at or beyond
    # it, or inside by less than it moves in the window
    beyond = draw(st.one_of(
        st.just(0.0), st.floats(-1e-9, 1e-9), st.floats(-1.0, 1.0), st.floats(-20.0, 200.0),
        st.floats(-1.0, 0.0).map(lambda share: share * v_r),
    ))
    envelope = params.veh_length + params.min_gap + v_r * params.tau
    return (envelope + beyond + v_r, v_r), arrival_offset, factor, params


BLOCKED = "injection attempted while origin blocked"


@settings(max_examples=1000, deadline=None)
@given(entries())
def test_entry_rule_matches_the_inline_rule_it_replaced_property(entry):
    # Where the inline rule admits an entry whose gap rounds below 0, and
    # so raises, the arrival waits; admit itself raises nothing.
    expected = entry_outcome(strip_entry, *entry)
    result = admit(*entry)
    outcome = None if result is None else tuple(float(value).hex() for value in result)
    assert outcome == (None if expected == BLOCKED else expected)


@pytest.mark.parametrize("rear_speed", [0.0, 1e-300])
def test_an_entry_whose_gap_rounds_below_0_waits(rear_speed):
    # veh_length + min_gap rounds to the rear vehicle's position, 6.666798891418416,
    # while (position - veh_length) - min_gap is -4.4e-16.
    params = KraussParams(veh_length=5.55, min_gap=1.116798891418417)
    rear = (6.666798891418416, rear_speed)
    assert rear[0] - params.veh_length - params.min_gap < 0.0
    assert entry_outcome(strip_entry, rear, 0.5, 1.1, params) == BLOCKED
    assert admit(rear, 0.5, 1.1, params) is None


def random_generator_cases(count: int = 40, seed: int = 15):
    """Seeded random (road, params) pairs, strips and rings alternating, 60 ticks each."""
    rng = random.Random(seed)
    for i in range(count):
        params = KraussParams(
            a_max=rng.uniform(0.5, 4.0),
            b_max=rng.uniform(1.0, 9.0),
            v_max=rng.uniform(5.0, 50.0),
            sigma=rng.uniform(0.0, 1.0),
            tau=rng.uniform(0.2, 2.0),
            min_gap=rng.uniform(0.5, 4.0),
            veh_length=rng.uniform(2.0, 10.0),
            speed_dev=rng.uniform(0.0, 0.3),
        )
        if i % 2:
            length = rng.uniform(100.0, 2000.0)
            most = int(length // (params.veh_length + params.min_gap))
            road = RoadSpec("ring", length, rng.randint(1, most), 60, seed=rng.randrange(1000))
        else:
            road = RoadSpec(
                "strip", rng.uniform(10.0, 2000.0), rng.uniform(200.0, 8000.0), 60,
                seed=rng.randrange(1000),
            )
        yield road, params


def test_random_generator_cases_match_golden_digest():
    # One SHA-256 over every case's trace CSV text or overlap error message,
    # taken before the per-run draw array replaced the per-vehicle dawdle
    # iterators; the messages pin the vehicle names each tick's step is given.
    digest = hashlib.sha256()
    failed = set()
    for road, params in random_generator_cases():
        try:
            text = csv_text(generate_traces(road, params))
        except SimulationError as exc:
            text = str(exc)
            failed.add(road.topology)
        digest.update(f"{len(text)}:{text}".encode())
    assert failed == {"strip", "ring"}
    assert digest.hexdigest() == "df9586d55edbd36029550d54a9d6b5b3bb060dc54acaf9852852c01e3775a084"


def test_dense_ring_golden_case_stops_and_wraps():
    road, _ = GOLDEN_TRACE_DIGESTS["ring_dense"]
    traces = generate_traces(road)
    assert any(speed == 0.0 for speed in traces.speed.tolist())
    # a wrap shows as the angle jumping from just below 2*pi to just above 0
    # between two rows of one vehicle
    ids = traces.vehicle_id.ids().tolist()
    angles = [
        math.atan2(y, x) % (2 * math.pi) for x, y in zip(traces.x.tolist(), traces.y.tolist())
    ]
    assert any(
        ids[i] == ids[i + 1] and angles[i + 1] < angles[i] - math.pi
        for i in range(len(traces) - 1)
    )


def test_single_vehicle_ring_converges_to_desired_speed():
    road = RoadSpec("ring", 1000.0, 1, 10, seed=5)
    traces = generate_traces(road, KraussParams(sigma=0.0))
    assert set(traces.vehicle_id.ids().tolist()) == {"veh0000"}
    assert len(traces) == 10
    speeds = traces.speed.tolist()
    assert speeds == sorted(speeds)
    long_run = generate_traces(
        RoadSpec("ring", 1000.0, 1, 60, seed=5), KraussParams(sigma=0.0)
    )
    factor = long_run.speed[-1] / 36.11
    assert 0.7 <= factor <= 1.3
    assert long_run.speed[-1] == pytest.approx(36.11 * factor)


def test_ring_positions_lie_on_circle():
    road = RoadSpec("ring", 1000.0, 3, 20, seed=2)
    radius = 1000.0 / (2 * math.pi)
    traces = generate_traces(road)
    for x, y in zip(traces.x.tolist(), traces.y.tolist()):
        assert math.hypot(x, y) == pytest.approx(radius, rel=1e-9)


def test_ring_overfull_rejected():
    with pytest.raises(ConfigError):
        generate_traces(RoadSpec("ring", 100.0, 20, 10, seed=1))


def test_zero_duration_yields_no_traces():
    assert len(generate_traces(RoadSpec("strip", 1000.0, 1000.0, 0, seed=1))) == 0


def test_density_ordering_and_speed_bounds():
    free = generate_traces(RoadSpec("strip", 2000.0, 1000.0, 300, seed=11))
    jam = generate_traces(RoadSpec("strip", 2000.0, 4000.0, 300, seed=11))

    def mean_speed(traces):
        speeds = traces.speed.tolist()
        return sum(speeds) / len(speeds)

    assert mean_speed(free) > mean_speed(jam)
    for speed in free.speed.tolist() + jam.speed.tolist():
        assert 0.0 <= speed <= 36.11 * 1.3 + 1e-9


def test_no_collisions_at_both_densities():
    for inflow in (1000.0, 4000.0):
        traces = generate_traces(RoadSpec("strip", 2000.0, inflow, 300, seed=3))
        by_tick = {}
        for t, x in zip(traces.t.tolist(), traces.x.tolist()):
            by_tick.setdefault(t, []).append(x)
        for positions in by_tick.values():
            positions.sort()
            for rear, front in zip(positions, positions[1:]):
                assert rear + PARAMS.min_gap <= front - PARAMS.veh_length + 1e-9


def test_generate_traces_deterministic():
    road = RoadSpec("strip", 3000.0, 2000.0, 200, seed=77)
    buf_a, buf_b = io.StringIO(), io.StringIO()
    emit_trace_csv(generate_traces(road), buf_a)
    emit_trace_csv(generate_traces(road), buf_b)
    assert buf_a.getvalue() == buf_b.getvalue()


def test_traces_are_1hz_and_strictly_increasing():
    traces = generate_traces(RoadSpec("strip", 2000.0, 3000.0, 120, seed=8))
    ids, ticks = traces.vehicle_id.ids().tolist(), traces.t.tolist()
    for i in range(1, len(traces)):
        if ids[i] == ids[i - 1]:
            assert ticks[i] == ticks[i - 1] + 1
        else:  # each vehicle's rows are one block, blocks by id
            assert ids[i] > ids[i - 1]


def test_parse_trace_csv_minimal():
    traces = parse_trace_csv(io.StringIO("vehicle_id,t,x,y,speed\na,0,0,0,10\na,1,10,0,10\n"))
    assert traces.vehicle_id.ids().tolist() == ["a", "a"]
    assert traces.t.tolist() == [0, 1]


def test_parse_trace_csv_duplicate_sample():
    data = "vehicle_id,t,x,y,speed\na,0,0,0,10\na,0,0,0,10\n"
    with pytest.raises(ValidationError) as err:
        parse_trace_csv(io.StringIO(data))
    assert "line 3" in str(err.value)


def test_parse_trace_csv_header_only():
    assert len(parse_trace_csv(io.StringIO("vehicle_id,t,x,y,speed\n"))) == 0


def test_parse_trace_csv_rows_in_any_order():
    data = "vehicle_id,t,x,y,speed\nb,1,5,0,5\na,1,10,0,10\nb,0,0,0,5\na,0,0,0,10\n"
    traces = parse_trace_csv(io.StringIO(data))
    assert traces.vehicle_id.ids().tolist() == ["a", "a", "b", "b"]
    assert traces.t.tolist() == [0, 1, 0, 1]
    assert traces.x.tolist() == [0.0, 10.0, 0.0, 5.0]


@pytest.mark.parametrize(
    "code, t",
    [([], []), ([3], [-5]), ([0, 0, 1, 1], [4, 4, 0, 0]), ([0, 0, 2, 5], [1, 3, -3, 7])],
    ids=["empty", "one row", "equal ticks", "gaps"],
)
def test_canonical_order_is_none_for_canonical_rows(code, t):
    code, t = (np.array(c, dtype=np.int64) for c in (code, t))
    assert mobility.canonical_order(code, t) is None


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(-3, 3)), max_size=12))
def test_canonical_order_is_the_lexsort_of_rows_out_of_order(rows):
    code, t = (np.array([row[i] for row in rows], dtype=np.int64) for i in (0, 1))
    expected = np.lexsort((t, code))
    order = mobility.canonical_order(code, t)
    if (expected == np.arange(len(rows))).all():
        assert order is None
    else:
        assert order.tolist() == expected.tolist()


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
    text = csv_text(traces)
    assert_same_text(csv_text(parse_trace_csv(io.StringIO(text))), text)


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
    assert set(traces.vehicle_id.ids().tolist()) == {"v1"}
    assert len(traces) == 2
    assert traces.x[1] == 10.0


def test_parse_fcd_xml_single_vehicle_element():
    xml = '<fcd-export><timestep time="3"><vehicle id="a" x="1" y="2" speed="3"/></timestep></fcd-export>'
    traces = parse_fcd_xml(io.StringIO(xml))
    assert_same_text(csv_text(traces), csv_text(trace_table([("a", 3, 1.0, 2.0, 3.0)])))


def test_parse_fcd_xml_fractional_timestep_rejected():
    for time in ("0.5", "inf", "nan"):
        xml = f'<fcd-export><timestep time="{time}"><vehicle id="a" x="0" y="0" speed="0"/></timestep></fcd-export>'
        with pytest.raises(ValidationError) as err:
            parse_fcd_xml(io.StringIO(xml))
        assert f"timestep time={time}:" in str(err.value)


def test_parse_fcd_xml_missing_attribute():
    xml = '<fcd-export><timestep time="0"><vehicle id="a" x="0" y="0"/></timestep></fcd-export>'
    with pytest.raises(ParseError) as err:
        parse_fcd_xml(io.StringIO(xml))
    assert "speed" in str(err.value) and "vehicle" in str(err.value)


@pytest.mark.parametrize(
    "xml, message",
    [
        ("<fcd-export><timestep>", "bad FCD XML: no element found: line 1, column 22"),
        ("<fcd-export><timestep/></fcd-export>", "timestep: missing required attribute 'time'"),
        ('<fcd-export><timestep time="soon"/></fcd-export>', "timestep[time='soon']: not a number"),
        (
            '<fcd-export><timestep time="0">'
            '<vehicle id="a" x="0" y="north" speed="1"/></timestep></fcd-export>',
            "timestep[time='0']/vehicle: could not convert string to float: 'north'",
        ),
    ],
)
def test_parse_fcd_xml_names_what_does_not_parse(xml, message):
    with pytest.raises(ParseError) as err:
        parse_fcd_xml(io.StringIO(xml))
    assert str(err.value) == message


def fcd_xml(*timesteps: tuple[str, str]) -> str:
    """An FCD export of (time, vehicle elements) timesteps."""
    body = "".join(f'<timestep time="{t}">{vehicles}</timestep>' for t, vehicles in timesteps)
    return f"<fcd-export>{body}</fcd-export>"


@pytest.mark.parametrize(
    "vehicles, message",
    [
        ('<vehicle id="v1" x="0" y="0" speed="-2"/>', "negative speed -2.0"),
        ('<vehicle id="v1" x="0" y="0" speed="1"/><vehicle id="v1" x="5" y="0" speed="1"/>',
         "duplicate sample ('v1', t=1)"),
    ],
    ids=["negative speed", "duplicate"],
)
def test_parse_fcd_xml_names_the_element_of_a_bad_sample(vehicles, message):
    xml = fcd_xml(("0.00", '<vehicle id="v1" x="0" y="0" speed="1"/>'), ("1.00", vehicles))
    with pytest.raises(ValidationError) as err:
        parse_fcd_xml(io.StringIO(xml))
    assert str(err.value) == f"timestep[time='1.00']/vehicle[id='v1']: {message}"


@pytest.mark.parametrize(
    "speed, message",
    [
        ("-3", "timestep[time='2']/vehicle[id='v2']: negative speed -3.0"),
        ("3", "timestep[time='0.00']/vehicle[id='v1']: duplicate sample ('v1', t=0)"),
    ],
    ids=["later bad element", "repeat"],
)
def test_parse_fcd_xml_names_a_repeat_only_where_no_element_is_bad(speed, message):
    # Element 2 repeats element 1's sample under an equal time; element 5 holds the speed.
    xml = fcd_xml(
        ("0", '<vehicle id="v1" x="0" y="0" speed="1"/>'),
        ("0.00", '<vehicle id="v1" x="0" y="0" speed="1"/>'),
        ("1", '<vehicle id="v1" x="1" y="0" speed="1"/><vehicle id="v2" x="0" y="0" speed="1"/>'),
        ("2", f'<vehicle id="v2" x="1" y="0" speed="{speed}"/>'),
    )
    with pytest.raises(ValidationError) as err:
        parse_fcd_xml(io.StringIO(xml))
    assert str(err.value) == message


def test_parse_fcd_xml_checks_an_id_before_its_numbers():
    xml = fcd_xml(("0", '<vehicle id="" x="east" y="0" speed="1"/>'))
    with pytest.raises(ParseError) as err:
        parse_fcd_xml(io.StringIO(xml))
    assert str(err.value) == "timestep[time='0']/vehicle[id='']: empty vehicle id"


def test_parse_fcd_xml_rejects_a_negative_timestep_without_vehicles():
    xml = fcd_xml(("0", '<vehicle id="v1" x="0" y="0" speed="1"/>'), ("-1", ""))
    with pytest.raises(ValidationError) as err:
        parse_fcd_xml(io.StringIO(xml))
    assert str(err.value) == "timestep time=-1: negative tick"


def test_parse_fcd_xml_reports_the_first_bad_element_in_document_order():
    # A bad sample comes before a timestep whose time is not a number.
    xml = fcd_xml(("0", '<vehicle id="v1" x="0" y="0" speed="-1"/>'), ("soon", ""))
    with pytest.raises(ValidationError) as err:
        parse_fcd_xml(io.StringIO(xml))
    assert str(err.value) == "timestep[time='0']/vehicle[id='v1']: negative speed -1.0"


def test_speed_distribution_hand_counted():
    trace = trace_table(("a", t, 0.0, 0.0, v) for t, v in enumerate([0.0, 0.0, 10.0, 10.0]))
    assert speed_distribution(trace, 10.0) == {0.0: 0.5, 10.0: 0.5}


def test_speed_distribution_single_sample():
    trace = trace_table([("a", 0, 0.0, 0.0, 7.2)])
    hist = speed_distribution(trace, 5.0)
    assert hist == {5.0: 1.0}


def test_speed_distribution_sums_to_one():
    traces = generate_traces(RoadSpec("strip", 2000.0, 2000.0, 120, seed=4))
    hist = speed_distribution(traces, 2.0)
    assert abs(sum(hist.values()) - 1.0) < 1e-12


def test_speed_distribution_empty_errors():
    with pytest.raises(ValidationError):
        speed_distribution(trace_table([]), 1.0)


@pytest.mark.parametrize("bin_width", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_speed_distribution_rejects_a_bin_width_that_is_not_positive_and_finite(bin_width):
    trace = trace_table([("v", 0, 0.0, 0.0, 5.0), ("v", 1, 5.0, 0.0, 15.0)])
    with pytest.raises(ConfigError) as err:
        speed_distribution(trace, bin_width)
    assert str(err.value) == f"bin_width must be a positive finite number, got {bin_width!r}"


def test_speed_distribution_rejects_a_bin_width_too_small_for_a_speed():
    trace = trace_table([("v", 0, 0.0, 0.0, 0.0), ("v", 1, 5.0, 0.0, 5.0)])
    with pytest.raises(ConfigError) as err:
        speed_distribution(trace, 1e-320)
    assert str(err.value) == "bin_width 1e-320 is too small for speed 5.0"


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
    assert len(traces)
    ids = traces.vehicle_id.ids().tolist()
    for i, x in enumerate(traces.x.tolist()):
        if i == 0 or ids[i] != ids[i - 1]:  # a vehicle's first sample
            assert 0.0 <= x <= 36.11 * 1.3


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


def test_parse_trace_csv_counts_line_breaks_inside_quotes():
    # A quote is data, so a line break inside quotes ends the line.
    data = 'vehicle_id,t,x,y,speed\na,0,"1\n",0,1\na,1,2,0,1\na,2,oops,0,1\n'
    with pytest.raises(ParseError) as err:
        parse_trace_csv(io.StringIO(data))
    assert str(err.value) == "line 2: expected 5 fields, got 3"


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


def test_parse_fcd_xml_rejects_empty_id():
    xml = FCD.replace('id="v1"', 'id=""', 1)
    with pytest.raises(ParseError) as err:
        parse_fcd_xml(io.StringIO(xml))
    assert "timestep[time='0.00']/vehicle[id='']: empty vehicle id" in str(err.value)


def test_parse_trace_csv_checks_an_id_where_it_first_appears():
    # The bad id first appears after rows of good ids, and then again.
    rows = ["ok,0,0,0,1", "ok,1,1,0,1", 'a"b,5,0,0,1', "ok,2,2,0,1", 'a"b,6,1,0,1']
    data = "vehicle_id,t,x,y,speed\n" + "\n".join(rows) + "\n"
    with pytest.raises(ValidationError) as err:
        parse_trace_csv(io.StringIO(data))
    assert str(err.value) == """line 4: vehicle_id 'a"b' contains a comma, quote or line break"""
    # A row that does not convert is reported before the id it holds.
    rows[2] = 'a"b,5,east,0,1'
    data = "vehicle_id,t,x,y,speed\n" + "\n".join(rows) + "\n"
    with pytest.raises(ParseError) as err:
        parse_trace_csv(io.StringIO(data))
    assert str(err.value) == "line 4: could not convert string to float: 'east'"


def test_parse_trace_csv_shares_one_id_object_per_vehicle():
    data = "vehicle_id,t,x,y,speed\nab,0,0,0,1\nab,1,1,0,1\nab,2,2,0,1\n"
    trace = parse_trace_csv(io.StringIO(data))
    assert len(trace) == 3
    assert trace.vehicle_id.names == ["ab"]
    assert trace.vehicle_id.codes.tolist() == [0, 0, 0]


def test_parsers_reject_ticks_beyond_int64():
    with pytest.raises(ValidationError) as err:
        parse_trace_csv(io.StringIO(f"vehicle_id,t,x,y,speed\na,{2**63},0,0,1\n"))
    assert "line 2" in str(err.value)
    xml = FCD.replace('time="0.00"', 'time="1e300"', 1)
    with pytest.raises(ValidationError) as err:
        parse_fcd_xml(io.StringIO(xml))
    assert "exceeds 64 bits" in str(err.value)


def test_parse_trace_csv_rejects_empty_id():
    with pytest.raises(ParseError) as err:
        parse_trace_csv(io.StringIO("vehicle_id,t,x,y,speed\n,0,0,0,1\n"))
    assert "line 2: empty vehicle_id" in str(err.value)


# Ids the parsers accept: non-empty, without the CSV delimiters.
IDS = st.text(st.characters(blacklist_characters=ID_FORBIDDEN_CHARS), min_size=1)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
SPECIAL_FLOATS = st.sampled_from([-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e300, -1.7976931348623157e308])


@st.composite
def trace_sets(draw):
    ids = draw(st.lists(IDS, min_size=0, max_size=4, unique=True))
    rows = []
    for vid in sorted(ids):
        t0 = draw(st.integers(0, 10**6))
        n = draw(st.integers(1, 4))
        rows.extend(
            (
                vid,
                t0 + i,
                draw(FINITE | SPECIAL_FLOATS),
                draw(FINITE | SPECIAL_FLOATS),
                abs(draw(FINITE | SPECIAL_FLOATS)),  # the parser rejects negative speeds
            )
            for i in range(n)
        )
    return trace_table(rows)


@settings(max_examples=300, deadline=None)
@given(trace_sets())
def test_trace_csv_round_trip_property(traces):
    buf = io.StringIO()
    emit_trace_csv(traces, buf)
    buf.seek(0)
    back = parse_trace_csv(buf)
    assert back.vehicle_id.ids().tolist() == traces.vehicle_id.ids().tolist()
    assert back.t.tolist() == traces.t.tolist()
    assert back.t.dtype == np.int64 and back.speed.dtype == np.float64
    again = io.StringIO()
    emit_trace_csv(back, again)
    assert again.getvalue() == buf.getvalue()  # bit for bit, -0.0 included


def test_parse_trace_csv_1hz_error_names_smallest_gapped_id():
    # "b" comes first in the file, and "a"'s gap 0 -> 2 comes after its gap 3 -> 7.
    rows = ["b,0,0,0,1", "b,5,0,0,1", "a,7,0,0,1", "a,3,0,0,1", "a,0,0,0,1", "a,2,0,0,1"]
    data = "vehicle_id,t,x,y,speed\n" + "\n".join(rows) + "\n"
    with pytest.raises(ValidationError) as err:
        parse_trace_csv(io.StringIO(data))
    assert str(err.value) == "vehicle 'a': samples not on a 1 Hz grid (ticks 0 -> 2)"


def test_generated_traces_are_in_id_string_order():
    # 10,001 cars are named veh0000 .. veh10000, and "veh10000" sorts
    # between "veh1000" and "veh1001".
    traces = generate_traces(RoadSpec("ring", 100_000.0, 10_001, 1, seed=42))
    ids = traces.vehicle_id.ids().tolist()
    assert ids == sorted(ids)
    i = ids.index("veh10000")
    assert ids[i - 1 : i + 2] == ["veh1000", "veh10000", "veh1001"]
    # SHA-256 of emit_trace_csv output from the per-vehicle trace objects
    # that the table replaced.
    assert hashlib.sha256(csv_text(traces).encode()).hexdigest() == (
        "d713bd3a72b86afb47c6509dba646f8dc232d61fecc97b48bb7c7a872ab0a4ac"
    )
