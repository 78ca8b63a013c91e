"""Traffic-state statistics over result tables and RB provisioning.

Percentiles use the lower-step convention: percentile p is the smallest
sample whose empirical CDF reaches p/100.  No interpolation, so results are
reproducible bit-for-bit across implementations.  "Minimum rate in 95 % of
the cases" therefore reads as the 5th percentile of the rate distribution.
Statistics pool per-vehicle per-tick samples, not per-vehicle means.
Rates come as a sequence or array, such as a TickTable's rate_bps column;
they are sorted stably and summed left to right in sorted order, so the
statistics do not depend on how the rates are held; rates that
sorted_rates returned are not sorted again.  The CDF stays two float64
columns, steps and probabilities, up to the text write_cdf_csv
makes of them with csvio.write_columns.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from .csvio import write_columns
from .errors import InfeasibleError, ValidationError
from .linkrate import RbRateParams, rb_rate

PERCENTILES = (1, 5, 25, 50, 75, 95, 99)


@dataclass(frozen=True)
class RateStats:
    scenario_label: str
    mean_rate: float
    percentiles: dict[int, float]
    sample_count: int


@dataclass(frozen=True)
class RbPlan:
    required_rate: float
    snr_db: float
    speed: float
    rb_needed: int


@dataclass(frozen=True)
class ScenarioComparison:
    """Ratios a/b; zero denominators surface as math.inf, never silently."""

    label_a: str
    label_b: str
    mean_ratio: float
    percentile_ratios: dict[int, float]


def sorted_rates(rates: Sequence[float] | np.ndarray) -> np.ndarray:
    """The rates as float64 in stable ascending order.

    Rates already in that order are returned as they are, with no sort,
    since a stable sort would not move them; so rate_stats and cdf, given
    rates from here, share one sort.
    """
    values = np.asarray(rates, dtype=np.float64)
    if (values[1:] >= values[:-1]).all():
        return values
    return np.sort(values, kind="stable")


def float_total(values: np.ndarray) -> float:
    """The float sum of values added one at a time, left to right, from 0.0.

    That is builtin sum's result up to Python 3.11; from 3.12 builtin sum
    compensates its rounding, and numpy's sum adds pairwise, so both may
    differ in the last bits.  np.cumsum adds one value at a time, and the
    0.0 turns a sum of -0.0 values into 0.0, as builtin sum does.  A sum
    that overflows is inf, or nan once it meets the opposite inf, without
    a warning, as builtin sum gives it.
    """
    if not len(values):
        return 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        return 0.0 + float(np.cumsum(values)[-1])


def percentile(sorted_values: Sequence[float], p: int) -> float:
    """Smallest value whose empirical CDF is >= p/100 (integer arithmetic)."""
    n = len(sorted_values)
    if n == 0:
        raise ValidationError("percentile of empty sample")
    idx = (p * n + 99) // 100 - 1
    return sorted_values[max(idx, 0)]


def rate_stats(rates: Sequence[float] | np.ndarray, scenario_label: str) -> RateStats:
    """Mean and step-convention percentiles of the pooled per-tick rates."""
    values = sorted_rates(rates)
    if not len(values):
        raise ValidationError("rate_stats needs at least one sample")
    return RateStats(
        scenario_label=scenario_label,
        mean_rate=float_total(values) / len(values),
        percentiles={p: float(percentile(values, p)) for p in PERCENTILES},
        sample_count=len(values),
    )


def cdf(rates: Sequence[float] | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Right-continuous empirical CDF as two float64 columns of its steps.

    The first holds each distinct rate in increasing order, the second the
    cumulative probability at it, the last one exactly 1.
    """
    values = sorted_rates(rates)
    n = len(values)
    if n == 0:
        raise ValidationError("cdf needs at least one sample")
    # The last index of each run of equal rates; the final point is exactly 1.
    last = np.append(np.flatnonzero(values[1:] != values[:-1]), n - 1)
    probs = (last + 1) / n
    probs[-1] = 1.0
    return values[last], probs


def plan_rb(
    required_rate: float,
    snr_db: float,
    speed: float,
    params: RbRateParams | None = None,
) -> RbPlan:
    """Smallest RB count whose aggregate rate meets the demand.

    Mathematically ceil(required / rb_rate); computed as the minimal count
    that actually satisfies the demand so the feasibility round-trip
    vehicle_rate(rb_needed) >= required survives floating-point rounding.
    """
    for name, value in (("required_rate", required_rate), ("snr_db", snr_db), ("speed", speed)):
        if not math.isfinite(value):
            raise ValidationError(f"{name} must be finite, got {value}")
    if required_rate < 0:
        raise ValidationError("required_rate must be non-negative")
    if speed < 0:
        raise ValidationError("speed must be non-negative")
    if required_rate == 0:
        return RbPlan(required_rate, snr_db, speed, 0)
    per_rb = rb_rate(snr_db, speed, params)
    if per_rb <= 0:
        raise InfeasibleError(
            f"radio outage at snr {snr_db} dB: no RB count can deliver "
            f"{required_rate} bit/s"
        )
    n = math.ceil(required_rate / per_rb)
    if n > 1 and (n - 1) * per_rb >= required_rate:
        n -= 1
    while n * per_rb < required_rate:
        n += 1
    return RbPlan(required_rate, snr_db, speed, n)


def _ratio(a: float, b: float) -> float:
    if b == 0:
        return math.inf
    return a / b


def compare_scenarios(stats_a: RateStats, stats_b: RateStats) -> ScenarioComparison:
    """Per-statistic ratios between two scenarios (a over b)."""
    return ScenarioComparison(
        label_a=stats_a.scenario_label,
        label_b=stats_b.scenario_label,
        mean_ratio=_ratio(stats_a.mean_rate, stats_b.mean_rate),
        percentile_ratios={
            p: _ratio(stats_a.percentiles[p], stats_b.percentiles[p])
            for p in PERCENTILES
        },
    )


def json_float(value: float) -> float | str:
    """value, or its str ('inf', '-inf' or 'nan') where JSON has no number for it."""
    return value if math.isfinite(value) else str(value)


def stats_payload(
    stats: Sequence[RateStats], comparison: ScenarioComparison | None
) -> dict:
    payload: dict = {
        "percentile_convention": "lower-step: smallest value with CDF >= p/100",
        "scenarios": {
            s.scenario_label: {
                "mean_rate_bps": json_float(s.mean_rate),
                "percentiles_bps": {str(p): s.percentiles[p] for p in PERCENTILES},
                "sample_count": s.sample_count,
            }
            for s in stats
        },
    }
    if comparison is not None:
        payload["ratio"] = {
            "a": comparison.label_a,
            "b": comparison.label_b,
            "mean": json_float(comparison.mean_ratio),
            "percentiles": {
                str(p): json_float(comparison.percentile_ratios[p])
                for p in PERCENTILES
            },
        }
    return payload


def write_stats_json(
    stats: Sequence[RateStats],
    comparison: ScenarioComparison | None,
    stream: IO[str],
) -> None:
    json.dump(stats_payload(stats, comparison), stream, indent=2, sort_keys=True, allow_nan=False)
    stream.write("\n")


def write_cdf_csv(points: tuple[np.ndarray, np.ndarray], stream: IO[str]) -> None:
    """Write cdf's two columns as CSV, one step per line."""
    write_columns(stream, "rate_bps,cum_prob", points)


def write_cell_packages_csv(per_cell: dict[str, float], stream: IO[str]) -> None:
    """Write each station's mean packages per traversal as CSV, stations in id order."""
    ids = sorted(per_cell)
    means = np.array([per_cell[sid] for sid in ids], dtype=np.float64)
    write_columns(stream, "station_id,mean_packages", (ids, means))
