"""Round-Robin resource-block allocation within each cell and tick.

Fractional mode grants every attached vehicle exactly n_rb / |attached|
blocks, which models time-sharing within the one-second tick and makes
rates exactly linear in n_rb.  Integer mode deals whole blocks: everyone
gets the floor share and the remainder goes, one block each, to vehicles
starting at the rotation offset in canonical order, so no vehicle id is
systematically favored.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ConfigError
from .linkrate import RateModel

MODES = ("fractional", "integer")


@dataclass(frozen=True)
class CellTickState:
    """Vehicles attached to one station at one tick, ascending vehicle id."""

    station_id: str
    t: int
    attached: tuple[str, ...]


@dataclass(frozen=True)
class RbAllocation:
    station_id: str
    t: int
    mode: str
    shares: dict[str, float] = field(default_factory=dict)


def rr_allocate(
    cell: CellTickState,
    n_rb: int,
    mode: str = "fractional",
    rotation_offset: int = 0,
) -> RbAllocation:
    """Equal-share Round-Robin allocation of n_rb blocks to one cell."""
    if mode not in MODES:
        raise ConfigError(f"scheduler.mode must be one of {MODES}, got {mode!r}")
    if n_rb < 0:
        raise ConfigError("cell.n_rb must be non-negative")
    k = len(cell.attached)
    if k == 0:
        return RbAllocation(cell.station_id, cell.t, mode, {})
    if mode == "fractional":
        share = n_rb / k
        shares = {vid: share for vid in cell.attached}
    else:
        base, remainder = divmod(int(n_rb), k)
        shares = {vid: float(base) for vid in cell.attached}
        start = rotation_offset % k
        for i in range(remainder):
            shares[cell.attached[(start + i) % k]] += 1.0
    return RbAllocation(cell.station_id, cell.t, mode, shares)


def vehicle_rate(share: float, snr_db: float, speed: float, model: RateModel) -> float:
    """Uplink rate of one vehicle holding `share` resource blocks.

    ``model`` is any callable (snr_db, speed) -> bit/s per block, such as
    linkrate.model_from_params, so alternative rate models plug in without
    touching the scheduler.
    """
    if share < 0:
        raise ConfigError("rb share must be non-negative")
    return share * model(snr_db, speed)
