"""Traffic-state statistics over result tables and RB provisioning.

Percentiles use the lower-step convention: percentile p is the smallest
sample whose empirical CDF reaches p/100.  No interpolation, so results are
reproducible bit-for-bit across implementations.  "Minimum rate in 95 % of
the cases" therefore reads as the 5th percentile of the rate distribution.
Statistics pool per-vehicle per-tick samples, not per-vehicle means.
Rates come as a sequence or array, such as a TickTable's rate_bps column;
they are sorted stably and summed left to right in sorted order, so the
statistics do not depend on how the rates are held.  write_cdf_csv formats
the CDF with mobility.write_chunks, the loop the other CSV writers share.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from .errors import InfeasibleError, ValidationError
from .linkrate import RbRateParams, rb_rate
from .mobility import write_chunks

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


def _sorted_rates(rates: Sequence[float] | np.ndarray) -> np.ndarray:
    return np.sort(np.asarray(rates, dtype=np.float64), kind="stable")


def percentile(sorted_values: Sequence[float], p: int) -> float:
    """Smallest value whose empirical CDF is >= p/100 (integer arithmetic)."""
    n = len(sorted_values)
    if n == 0:
        raise ValidationError("percentile of empty sample")
    idx = (p * n + 99) // 100 - 1
    return sorted_values[max(idx, 0)]


def rate_stats(rates: Sequence[float] | np.ndarray, scenario_label: str) -> RateStats:
    """Mean and step-convention percentiles of the pooled per-tick rates."""
    values = _sorted_rates(rates).tolist()
    if not values:
        raise ValidationError("rate_stats needs at least one sample")
    return RateStats(
        scenario_label=scenario_label,
        mean_rate=sum(values) / len(values),
        percentiles={p: percentile(values, p) for p in PERCENTILES},
        sample_count=len(values),
    )


def cdf(rates: Sequence[float] | np.ndarray) -> list[tuple[float, float]]:
    """Right-continuous empirical CDF as (rate, cumulative probability) steps."""
    values = _sorted_rates(rates)
    n = len(values)
    if n == 0:
        raise ValidationError("cdf needs at least one sample")
    # The last index of each run of equal rates; the final point is exactly 1.
    last = np.append(np.flatnonzero(values[1:] != values[:-1]), n - 1)
    probs = (last + 1) / n
    probs[-1] = 1.0
    return list(zip(values[last].tolist(), probs.tolist()))


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


def _json_safe(value: float):
    return "inf" if math.isinf(value) else value


def stats_payload(
    stats: Sequence[RateStats], comparison: ScenarioComparison | None
) -> dict:
    payload: dict = {
        "percentile_convention": "lower-step: smallest value with CDF >= p/100",
        "scenarios": {
            s.scenario_label: {
                "mean_rate_bps": s.mean_rate,
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
            "mean": _json_safe(comparison.mean_ratio),
            "percentiles": {
                str(p): _json_safe(comparison.percentile_ratios[p])
                for p in PERCENTILES
            },
        }
    return payload


def write_stats_json(
    stats: Sequence[RateStats],
    comparison: ScenarioComparison | None,
    stream: IO[str],
) -> None:
    json.dump(stats_payload(stats, comparison), stream, indent=2, sort_keys=True)
    stream.write("\n")


def write_cdf_csv(points: Sequence[tuple[float, float]], stream: IO[str]) -> None:
    stream.write("rate_bps,cum_prob\n")
    write_chunks(
        stream, len(points), lambda rows: "".join(f"{r!r},{p!r}\n" for r, p in points[rows])
    )


def write_cell_packages_csv(per_cell: dict[str, float], stream: IO[str]) -> None:
    stream.write("station_id,mean_packages\n")
    for sid in sorted(per_cell):
        stream.write(f"{sid},{per_cell[sid]!r}\n")
