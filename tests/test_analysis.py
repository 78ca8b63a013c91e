import io
import json
import math
import operator
import random
import struct
from functools import reduce
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from car2cloud.analysis import (
    PERCENTILES,
    RateStats,
    cdf,
    compare_scenarios,
    percentile,
    plan_rb,
    rate_stats,
    sorted_rates,
    stats_payload,
    write_cdf_csv,
    write_cell_packages_csv,
    write_stats_json,
)
from car2cloud.errors import ConfigError, InfeasibleError, ValidationError
from car2cloud.linkrate import RbRateParams, rb_rate

P = RbRateParams()


def brute_force_percentile(values, p):
    """Oracle: scan sorted values for the first with CDF >= p/100."""
    ordered = sorted(values)
    n = len(ordered)
    for i, v in enumerate(ordered):
        if (i + 1) / n >= p / 100.0:
            return v
    return ordered[-1]


def test_rate_stats_four_point_example():
    stats = rate_stats([10.0, 20.0, 30.0, 40.0], "x")
    assert stats.mean_rate == 25.0
    assert stats.percentiles[50] == 20.0
    assert stats.percentiles[25] == 10.0
    assert stats.percentiles[99] == 40.0
    assert stats.sample_count == 4


def test_rate_stats_constant_samples():
    stats = rate_stats([7.0] * 9, "const")
    assert stats.mean_rate == 7.0
    assert all(v == 7.0 for v in stats.percentiles.values())


def test_rate_stats_single_sample():
    stats = rate_stats([3.5], "one")
    assert stats.mean_rate == 3.5
    assert stats.percentiles[1] == 3.5 and stats.percentiles[99] == 3.5


def test_rate_stats_empty_errors():
    with pytest.raises(ValidationError):
        rate_stats([], "none")


def test_percentiles_match_brute_force_oracle():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 50)
        values = [rng.uniform(0, 1e6) for _ in range(n)]
        ordered = sorted(values)
        for p in PERCENTILES:
            assert percentile(ordered, p) == brute_force_percentile(values, p)


def test_percentiles_nondecreasing():
    rng = random.Random(6)
    values = sorted(rng.uniform(0, 100) for _ in range(37))
    results = [percentile(values, p) for p in PERCENTILES]
    assert results == sorted(results)


def test_cdf_hand_example():
    rates, probs = cdf([1.0, 1.0, 3.0])
    assert list(zip(rates.tolist(), probs.tolist())) == [(1.0, pytest.approx(2 / 3)), (3.0, 1.0)]
    assert rates.dtype == probs.dtype == np.float64


def test_cdf_sorted_regardless_of_input_order():
    rates, probs = cdf([5.0, 1.0, 3.0, 1.0])
    assert rates.tolist() == [1.0, 3.0, 5.0]
    assert probs[-1] == 1.0


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats() | st.sampled_from([0.0, -0.0, 1.0]), max_size=30))
def test_sorted_rates_sorts_once(values):
    """sorted_rates is a stable sort, and returns rates it gave as the same array."""
    once = sorted_rates(values)
    expected = np.sort(np.array(values, dtype=np.float64), kind="stable")
    assert once.tobytes() == expected.tobytes()  # -0.0 and 0.0 kept in input order
    if not np.isnan(once).any():  # NaN compares false, so rates holding one are sorted again
        assert sorted_rates(once) is once
    if values:
        assert repr(rate_stats(once, "s")) == repr(rate_stats(values, "s"))
        assert all(a.tobytes() == b.tobytes() for a, b in zip(cdf(once), cdf(values)))


def from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# Values that compare equal but differ in their bits (-0.0 and 0.0, NaNs of
# both signs and of other payloads), and others that sort at the ends.
UNSTABLE = [
    0.0, -0.0, math.inf, -math.inf, 1.0, -1.0, 5e-324,
    *map(from_bits, [
        0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001,
        0xFFF800000000BEEF, 0x7FF0000000000001, 0xFFF0000000000123,
    ]),
]


def stats_bytes(stats: RateStats) -> tuple:
    """stats with its floats as bytes, so that NaN payloads and -0.0 count."""
    floats = np.array([stats.mean_rate, *stats.percentiles.values()])
    return stats.scenario_label, stats.sample_count, floats.tobytes()


@settings(max_examples=500, deadline=None)
@given(
    st.lists(st.floats() | st.sampled_from(UNSTABLE), max_size=200),
    st.sampled_from(["as drawn", "sorted", "reversed"]),
)
def test_sorted_rates_gives_the_stable_sort_bytes(values, arrangement):
    values = np.array(values, dtype=np.float64)
    if arrangement != "as drawn":
        values = np.sort(values, kind="stable")[:: 1 if arrangement == "sorted" else -1]
    ordered = sorted_rates(values)
    assert ordered.tobytes() == np.sort(values, kind="stable").tobytes()
    if len(values):
        assert stats_bytes(rate_stats(ordered, "s")) == stats_bytes(rate_stats(values, "s"))
        assert all(a.tobytes() == b.tobytes() for a, b in zip(cdf(ordered), cdf(values)))


def test_sorted_rates_gives_the_stable_sort_bytes_of_many_rates():
    rng = np.random.default_rng(5)
    values = rng.normal(size=50_000)
    values[rng.integers(0, len(values), 5_000)] = 0.0
    values[rng.integers(0, len(values), 5_000)] = -0.0
    for bits in (0x7FF8000000000001, 0xFFF8000000000000, 0xFFF800000000BEEF):
        values[rng.integers(0, len(values), 500)] = from_bits(bits)
    assert sorted_rates(values).tobytes() == np.sort(values, kind="stable").tobytes()


def test_cdf_empty_errors():
    with pytest.raises(ValidationError):
        cdf([])


def test_cdf_consistent_with_percentile():
    rng = random.Random(8)
    values = [rng.uniform(0, 1000) for _ in range(400)]
    rates, probs = cdf(values)
    p5_from_cdf = next(v for v, prob in zip(rates, probs) if prob >= 0.05)
    assert p5_from_cdf == percentile(sorted(values), 5)


def row_cdf(values):
    """The empirical CDF computed point by point, as a reference."""
    values = sorted(values)
    n = len(values)
    return [
        (v, (i + 1) / n)
        for i, v in enumerate(values)
        if i + 1 == n or values[i + 1] != v
    ]


RATES = st.lists(
    st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([0.0, -0.0, 1.5, 5e-324, 0.1, 0.2, 0.30000000000000004]),
    min_size=1,
    max_size=50,
)


@settings(max_examples=300, deadline=None)
@given(RATES)
def test_array_statistics_match_sorted_list_oracle(values):
    # Equal values such as 0.0 and -0.0 keep their input order, and the mean
    # is the left-to-right sum over the sorted list, bit for bit.
    ordered = sorted(values)
    stats = rate_stats(np.array(values), "x")
    assert repr(stats.mean_rate) == repr(reduce(operator.add, ordered, 0.0) / len(ordered))
    assert [repr(stats.percentiles[p]) for p in PERCENTILES] == [
        repr(percentile(ordered, p)) for p in PERCENTILES
    ]
    rates, probs = cdf(np.array(values))
    assert repr(list(zip(rates.tolist(), probs.tolist()))) == repr(row_cdf(values))
    assert probs[-1] == 1.0


def test_plan_rb_zero_demand():
    assert plan_rb(0.0, 20.0, 0.0, P).rb_needed == 0


def test_plan_rb_one_block_enough():
    plan = plan_rb(50_000.0, 20.0, 0.0, P)
    assert plan.rb_needed == 1


def test_plan_rb_thirty_blocks():
    params = RbRateParams()
    demand = 3_000_000.0
    per_rb = rb_rate(20.0, 0.0, params)
    expected = math.ceil(demand / per_rb)
    plan = plan_rb(demand, 20.0, 0.0, params)
    assert plan.rb_needed == expected
    # 3 Mbit/s at exactly 100 kbit/s per block -> 30 blocks
    flat = RbRateParams(rb_bandwidth_hz=100_000.0, attenuation_beta=1.0)
    assert rb_rate(0.0, 0.0, flat) == pytest.approx(100_000.0, rel=1e-12)
    assert plan_rb(3_000_000.0, 0.0, 0.0, flat).rb_needed == 30


def test_plan_rb_outage_infeasible():
    with pytest.raises(InfeasibleError):
        plan_rb(1000.0, -30.0, 0.0, P)


def test_plan_rb_rejects_an_infinite_block_rate():
    params = RbRateParams(rb_bandwidth_hz=1e308)
    assert rb_rate(20.0, 0.0, params) == math.inf
    with pytest.raises(ConfigError) as err:
        plan_rb(50_000.0, 20.0, 0.0, params)
    assert str(err.value) == (
        "rate of one resource block inf bit/s at snr 20.0 dB is not a finite capacity"
    )


def test_plan_rb_negative_demand():
    with pytest.raises(ValidationError):
        plan_rb(-1.0, 10.0, 0.0, P)


@pytest.mark.parametrize(
    "rate, snr, speed",
    [
        (math.inf, 10.0, 0.0),
        (math.nan, 10.0, 0.0),
        (-math.inf, 10.0, 0.0),
        (1000.0, math.nan, 0.0),
        (1000.0, math.inf, 0.0),
        (1000.0, -math.inf, 0.0),
        (1000.0, 10.0, math.nan),
        (1000.0, 10.0, math.inf),
        (1000.0, 10.0, -5.0),
        (0.0, 10.0, -5.0),
    ],
)
def test_plan_rb_rejects_non_finite_values_and_negative_speed(rate, snr, speed):
    with pytest.raises(ValidationError) as exc:
        plan_rb(rate, snr, speed, P)
    assert not isinstance(exc.value, InfeasibleError)


def test_plan_rb_feasibility_round_trip_random():
    rng = random.Random(9)
    checked = 0
    while checked < 1000:
        snr = rng.uniform(-9.0, 40.0)
        speed = rng.uniform(0.0, 50.0)
        demand = rng.uniform(1.0, 5e7)
        per_rb = rb_rate(snr, speed, P)
        if per_rb <= 0.0:
            continue
        plan = plan_rb(demand, snr, speed, P)
        assert plan.rb_needed * per_rb >= demand
        if plan.rb_needed > 1:
            assert (plan.rb_needed - 1) * per_rb < demand
        checked += 1


def test_plan_rb_monotonicity():
    lo = plan_rb(100_000.0, 10.0, 0.0, P).rb_needed
    hi = plan_rb(900_000.0, 10.0, 0.0, P).rb_needed
    assert hi >= lo
    good_snr = plan_rb(500_000.0, 30.0, 0.0, P).rb_needed
    bad_snr = plan_rb(500_000.0, 0.0, 0.0, P).rb_needed
    assert bad_snr >= good_snr


def test_compare_identical_stats():
    stats = rate_stats([1.0, 2.0, 3.0], "a")
    cmp = compare_scenarios(stats, stats)
    assert cmp.mean_ratio == 1.0
    assert all(r == 1.0 for r in cmp.percentile_ratios.values())


def test_compare_mean_ratio():
    a = RateStats("free", 482_100.0, {p: 482_100.0 for p in PERCENTILES}, 10)
    b = RateStats("jam", 69_900.0, {p: 69_900.0 for p in PERCENTILES}, 10)
    cmp = compare_scenarios(a, b)
    assert cmp.mean_ratio == pytest.approx(6.90, abs=0.01)


def test_compare_zero_denominator_marks_infinity():
    a = rate_stats([4.0, 8.0], "a")
    b = rate_stats([0.0, 0.0], "b")
    cmp = compare_scenarios(a, b)
    assert math.isinf(cmp.mean_ratio)
    payload = stats_payload([a, b], cmp)
    assert payload["ratio"]["mean"] == "inf"
    text = json.dumps(payload)  # strict JSON stays serializable
    assert "Infinity" not in text


def test_write_stats_json_shape():
    stats = rate_stats([10.0, 20.0], "solo")
    buf = io.StringIO()
    write_stats_json([stats], None, buf)
    payload = json.loads(buf.getvalue())
    assert "ratio" not in payload
    assert payload["scenarios"]["solo"]["sample_count"] == 2


def test_write_cdf_csv():
    buf = io.StringIO()
    write_cdf_csv(cdf([1.0, 1.0, 3.0]), buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "rate_bps,cum_prob"
    assert len(lines) == 3


def test_write_cell_packages_csv():
    buf = io.StringIO()
    write_cell_packages_csv({"b": 2.5, "a": 1.0}, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "station_id,mean_packages"
    assert lines[1].startswith("a,")


def compensated_sum(values, start=0):
    """builtin sum as Python 3.12 and later add floats: with compensated rounding."""
    return start + math.fsum(values)


def test_rate_stats_mean_does_not_depend_on_builtin_sum():
    # Left to right, -1e16 + 1.0 rounds back to -1e16, so the mean is 0.0;
    # a compensated sum would make it 1/3.
    with mock.patch("builtins.sum", compensated_sum):
        assert sum([-1e16, 1.0, 1e16]) == 1.0
        assert rate_stats([1e16, -1e16, 1.0], "x").mean_rate == 0.0


@pytest.mark.parametrize("values", [[-0.0], [-0.0, -0.0], [-0.0, 0.0], [1e308, 1e308, -1e308]])
def test_rate_stats_mean_of_signed_zeros_and_overflow_is_the_left_fold(values):
    expected = reduce(operator.add, sorted(values), 0.0) / len(values)
    assert repr(rate_stats(values, "x").mean_rate) == repr(expected)
