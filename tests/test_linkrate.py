import math
import random
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from car2cloud.errors import ConfigError
from car2cloud.linkrate import RbRateParams, rb_rate, rb_rates
from car2cloud.scheduler import vehicle_rate
from scalar_models import rb_rate as oracle_rb_rate

P = RbRateParams()


def test_outage_below_cutoff():
    assert rb_rate(-20.0, 0.0, P) == 0.0
    assert rb_rate(-10.0, 0.0, P) > 0.0  # cutoff is inclusive


def test_rate_at_20db_standstill():
    expected = 0.6 * math.log2(1.0 + 100.0) * 180_000.0
    assert rb_rate(20.0, 0.0, P) == pytest.approx(expected, rel=1e-12)
    assert rb_rate(20.0, 0.0, P) == pytest.approx(719_090.0, abs=10.0)


def test_rate_at_reference_speed_takes_full_penalty():
    at_rest = rb_rate(20.0, 0.0, P)
    at_vref = rb_rate(20.0, 36.11, P)
    assert at_vref == pytest.approx(at_rest * 0.7, rel=1e-12)
    assert at_vref == pytest.approx(503_363.0, abs=10.0)


def test_penalty_saturates_beyond_vref():
    assert rb_rate(20.0, 80.0, P) == rb_rate(20.0, 36.11, P)


def test_cell_peak_rate_examples():
    # a user alone in a cell holds all n_rb blocks: n_rb * rb_rate
    model = partial(rb_rate, params=P)
    assert vehicle_rate(0, 20.0, 0.0, model) == 0.0
    assert vehicle_rate(100, 20.0, 0.0, model) == 100 * rb_rate(20.0, 0.0, P)
    assert vehicle_rate(100, 20.0, 0.0, model) == pytest.approx(71.9e6, rel=2e-3)
    # log2(1 + 10^0) = 1 exactly
    assert vehicle_rate(10, 0.0, 0.0, model) == pytest.approx(1_080_000.0, rel=1e-12)


def test_cell_peak_rate_negative_rb():
    with pytest.raises(ConfigError):
        vehicle_rate(-1, 10.0, 0.0, partial(rb_rate, params=P))


def test_monotone_in_snr_and_speed_random():
    rng = random.Random(42)
    for _ in range(10_000):
        snr_lo = rng.uniform(-30.0, 50.0)
        snr_hi = snr_lo + rng.uniform(0.0, 30.0)
        speed_lo = rng.uniform(0.0, 60.0)
        speed_hi = speed_lo + rng.uniform(0.0, 30.0)
        assert rb_rate(snr_lo, speed_lo, P) <= rb_rate(snr_hi, speed_lo, P)
        assert rb_rate(snr_lo, speed_hi, P) <= rb_rate(snr_lo, speed_lo, P)


def test_bounded_by_eta_max():
    rng = random.Random(43)
    bound = P.eta_max * P.rb_bandwidth_hz
    for _ in range(10_000):
        r = rb_rate(rng.uniform(-40.0, 80.0), rng.uniform(0.0, 80.0), P)
        assert 0.0 <= r <= bound + 1e-9


def test_saturation_constant_above_threshold():
    # beta * log2(1 + lin) hits eta_max near 27.84 dB with defaults
    sat = P.eta_max * P.rb_bandwidth_hz
    assert rb_rate(30.0, 0.0, P) == pytest.approx(sat)
    assert rb_rate(60.0, 0.0, P) == rb_rate(30.0, 0.0, P)


def test_params_validation():
    with pytest.raises(ConfigError):
        RbRateParams(attenuation_beta=0.0)
    with pytest.raises(ConfigError):
        RbRateParams(attenuation_beta=1.5)
    with pytest.raises(ConfigError):
        RbRateParams(speed_penalty_at_vmax=1.0)
    with pytest.raises(ConfigError):
        RbRateParams(eta_max=-1.0)


def test_custom_params_change_shape():
    flat = RbRateParams(speed_penalty_at_vmax=0.0)
    assert rb_rate(10.0, 30.0, flat) == rb_rate(10.0, 0.0, flat)


def test_efficiency_saturates_where_snr_lin_overflows():
    # 10 ** (snr_db / 10) exceeds the largest double above about 3082.5 dB.
    for params in (P, RbRateParams(eta_max=2000.0, v_ref=10.0)):
        for speed in (0.0, 7.5, 50.0):
            phi = 1.0 - params.speed_penalty_at_vmax * min(speed, params.v_ref) / params.v_ref
            saturated = params.eta_max * params.rb_bandwidth_hz * phi
            for snr_db in (3082.6, 3090.0, 4977.0, 1e300, math.inf):
                assert rb_rate(snr_db, speed, params) == saturated
    # Just below the overflow the old expression still holds.
    snr_db = 3082.0
    shannon = P.attenuation_beta * math.log2(1.0 + 10.0 ** (snr_db / 10.0))
    assert rb_rate(snr_db, 0.0, RbRateParams(eta_max=1e6)) == shannon * P.rb_bandwidth_hz


rate_params = st.builds(
    RbRateParams,
    rb_bandwidth_hz=st.sampled_from([180_000.0, 1.0, 3.3e5]),
    attenuation_beta=st.sampled_from([0.6, 1.0, 0.05]),
    eta_max=st.sampled_from([5.55, 0.1, 1000.0, 5000.0]),
    snr_min_db=st.sampled_from([-10.0, 0.0, 25.0]),
    speed_penalty_at_vmax=st.sampled_from([0.3, 0.0, 0.99]),
    v_ref=st.sampled_from([36.11, 1.0, 100.0]),
)
snrs = st.one_of(
    st.floats(-60.0, 80.0),
    st.floats(3000.0, 3100.0),
    st.floats(-1e308, 1e308),
    st.sampled_from([-10.0, 0.0, 27.84, 3082.547155599167, math.inf, -math.inf]),
)
speeds = st.one_of(st.floats(0.0, 120.0), st.sampled_from([36.11, 1.0, 100.0, -3.0]))


@settings(max_examples=300, deadline=None)
@given(rate_params, st.lists(st.tuples(snrs, speeds), max_size=20))
def test_rb_rates_match_rb_rate_bit_for_bit(params, pairs):
    snr_db = np.array([s for s, _ in pairs], dtype=np.float64)
    speed = np.array([v for _, v in pairs], dtype=np.float64)
    expected = np.array([oracle_rb_rate(s, v, params) for s, v in pairs], dtype=np.float64)
    assert rb_rates(snr_db, speed, params).tobytes() == expected.tobytes()
    got = np.array([rb_rate(s, v, params) for s, v in pairs], dtype=np.float64)
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("snr_db", [math.nan, -math.inf, -10.0, 3082.6])
@pytest.mark.parametrize("speed", [math.nan, math.inf, 0.0])
def test_rb_rate_is_a_python_float_with_the_oracle_bits(snr_db, speed):
    got = rb_rate(snr_db, speed, P)
    assert type(got) is float
    assert np.float64(got).tobytes() == np.float64(oracle_rb_rate(snr_db, speed, P)).tobytes()


def test_rb_rates_match_rb_rate_on_a_dense_sweep():
    # np.log2 and np.power differ from math's in the last ulp on a small
    # share of inputs, which a sweep of this size meets.
    snr_db = np.linspace(-12.0, 40.0, 100_001)
    speed = np.linspace(0.0, 50.0, 100_001)
    expected = [oracle_rb_rate(s, v, P) for s, v in zip(snr_db.tolist(), speed.tolist())]
    assert rb_rates(snr_db, speed, P).tobytes() == np.array(expected).tobytes()


def around(value: float) -> list[float]:
    """value, one ulp either side of it and 1e-7 either side of it."""
    return [
        value, math.nextafter(value, -math.inf), math.nextafter(value, math.inf),
        value - 1e-7, value + 1e-7,
    ]


def ceiling_db(params: RbRateParams) -> float | None:
    """The SNR in dB, plus 1e-6, where beta * log2(1 + snr_lin) reaches eta_max,
    or None where it cannot be computed."""
    try:
        return 10.0 * math.log10(2.0 ** (params.eta_max / params.attenuation_beta) - 1.0) + 1e-6
    except (OverflowError, ValueError):
        return None


@pytest.mark.parametrize(
    "params",
    [
        P,
        # 2 ** (eta_max / beta) overflows.
        RbRateParams(eta_max=5000.0, attenuation_beta=0.05, snr_min_db=-300.0),
        # 2 ** (eta_max / beta) rounds to 1, so the log's argument is 0.
        RbRateParams(eta_max=1e-17, attenuation_beta=1.0, snr_min_db=-300.0),
        # The argument is positive but loses its digits to the rounding of
        # 1 + snr_lin: the formula has not saturated at the ceiling.
        RbRateParams(eta_max=1e-10, snr_min_db=-300.0),
        RbRateParams(eta_max=1e-12, snr_min_db=-300.0),
    ],
    ids=["defaults", "power overflows", "argument zero", "argument tiny", "argument small"],
)
def test_rb_rates_match_the_oracle_at_the_efficiency_ceiling(params):
    ceiling = ceiling_db(params)
    points = around(ceiling_db(P) if ceiling is None else ceiling)
    points += around(params.snr_min_db) + [math.nan, math.inf, -math.inf]
    pairs = [(s, v) for s in points for v in (0.0, 20.0, 50.0)]
    snr_db = np.array([s for s, _ in pairs], dtype=np.float64)
    speed = np.array([v for _, v in pairs], dtype=np.float64)
    expected = np.array([oracle_rb_rate(s, v, params) for s, v in pairs], dtype=np.float64)
    assert rb_rates(snr_db, speed, params).tobytes() == expected.tobytes()
