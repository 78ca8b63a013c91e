import math
import random

import pytest

from car2cloud.errors import ConfigError
from car2cloud.linkrate import RbRateParams, model_from_params, rb_rate
from car2cloud.scheduler import vehicle_rate

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
    model = model_from_params(P)
    assert vehicle_rate(0, 20.0, 0.0, model) == 0.0
    assert vehicle_rate(100, 20.0, 0.0, model) == 100 * rb_rate(20.0, 0.0, P)
    assert vehicle_rate(100, 20.0, 0.0, model) == pytest.approx(71.9e6, rel=2e-3)
    # log2(1 + 10^0) = 1 exactly
    assert vehicle_rate(10, 0.0, 0.0, model) == pytest.approx(1_080_000.0, rel=1e-12)


def test_cell_peak_rate_negative_rb():
    with pytest.raises(ConfigError):
        vehicle_rate(-1, 10.0, 0.0, model_from_params(P))


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


def test_model_from_params_matches_rb_rate():
    model = model_from_params(P)
    assert model(17.0, 12.0) == rb_rate(17.0, 12.0, P)


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
