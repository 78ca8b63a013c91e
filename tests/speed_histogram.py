"""Test helper: the histogram of trace speeds that the mobility-safety criterion compares."""

import math

from car2cloud.errors import ConfigError, ValidationError
from car2cloud.mobility import TraceTable


def speed_distribution(traces: TraceTable, bin_width: float) -> dict[float, float]:
    """Histogram of all sample speeds: bin lower edge -> probability."""
    if not (math.isfinite(bin_width) and bin_width > 0):
        raise ConfigError(f"bin_width must be a positive finite number, got {bin_width!r}")
    counts: dict[float, int] = {}
    for speed in traces.speed.tolist():
        if not math.isfinite(speed / bin_width):
            raise ConfigError(f"bin_width {bin_width!r} is too small for speed {speed!r}")
        edge = math.floor(speed / bin_width) * bin_width
        counts[edge] = counts.get(edge, 0) + 1
    total = len(traces)
    if total == 0:
        raise ValidationError("cannot build a speed distribution from empty traces")
    return {edge: counts[edge] / total for edge in sorted(counts)}
