"""Per-resource-block uplink rate model: truncated Shannon with speed penalty.

Measured LTE uplink rate surfaces are not publicly available, so the default
model is an attenuated Shannon bound truncated at a 64-QAM-class spectral
efficiency ceiling, multiplied by a linear speed penalty that saturates at
the reference speed:

    rate = min(beta * log2(1 + snr_lin), eta_max) * B_rb * phi(v)
    phi(v) = 1 - penalty * min(v, v_ref) / v_ref

Below the snr_min outage cutoff the rate is zero.  Where snr_lin exceeds
the largest double (SNR above about 3082 dB) it counts as infinite, so the
efficiency is eta_max.  Any replacement model is a plain callable
(snr_db, speed) -> bit/s per RB; the scheduler and engine only rely on that
signature.

The formula is written once, in rb_rates; rb_rate evaluates it on one
pair.  The scalar formula as first written is kept in
tests/scalar_models.py as the independent oracle both are checked against
bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, check_finite

RateModel = Callable[[float, float], float]


@dataclass(frozen=True)
class RbRateParams:
    rb_bandwidth_hz: float = 180_000.0
    attenuation_beta: float = 0.6
    eta_max: float = 5.55             # bit/s/Hz ceiling
    snr_min_db: float = -10.0         # outage cutoff
    speed_penalty_at_vmax: float = 0.3
    v_ref: float = 36.11              # m/s

    def __post_init__(self) -> None:
        if not 0.0 < self.attenuation_beta <= 1.0:
            raise ConfigError("linkrate.attenuation_beta must be in (0, 1]")
        if self.eta_max <= 0:
            raise ConfigError("linkrate.eta_max must be positive")
        if not 0.0 <= self.speed_penalty_at_vmax < 1.0:
            raise ConfigError("linkrate.speed_penalty_at_vmax must be in [0, 1)")
        if self.rb_bandwidth_hz <= 0:
            raise ConfigError("linkrate.rb_bandwidth_hz must be positive")
        if self.v_ref <= 0:
            raise ConfigError("linkrate.v_ref must be positive")
        check_finite(self, "linkrate.")


def _snr_linear(snr_db_tenth: float) -> float:
    """10 ** (snr_db / 10), infinite where the power exceeds the largest double."""
    try:
        return 10.0 ** snr_db_tenth
    except OverflowError:
        return math.inf


def rb_rate(snr_db: float, speed: float, params: RbRateParams | None = None) -> float:
    """Achievable uplink rate of one resource block, in bit/s: rb_rates on one pair."""
    pair = np.array([snr_db], dtype=np.float64), np.array([speed], dtype=np.float64)
    return float(rb_rates(*pair, params)[0])


def rb_rates(
    snr_db: np.ndarray, speed: np.ndarray, params: RbRateParams | None = None
) -> np.ndarray:
    """The rate of every (snr_db, speed) pair, by the formula in the module docstring.

    numpy's + - * / and comparisons round as Python's float operations do;
    the power and log2 go through Python per element, as numpy's may differ
    from math's in the last ulp.  Python's min(a, b) is a unless b < a,
    which np.where repeats.
    """
    p = params or RbRateParams()
    with np.errstate(all="ignore"):
        snr_lin = np.fromiter(map(_snr_linear, (snr_db / 10.0).tolist()), np.float64, len(snr_db))
        shannon = p.attenuation_beta * np.fromiter(
            map(math.log2, (1.0 + snr_lin).tolist()), np.float64, len(snr_db)
        )
        efficiency = np.where(p.eta_max < shannon, p.eta_max, shannon)
        slow = np.where(p.v_ref < speed, p.v_ref, speed)
        penalty = 1.0 - p.speed_penalty_at_vmax * slow / p.v_ref
        return np.where(snr_db < p.snr_min_db, 0.0, efficiency * p.rb_bandwidth_hz * penalty)
