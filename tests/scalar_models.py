"""Test oracle: the scalar link-budget, RB-rate and dealing rules as first written.

car2cloud evaluates each formula once, on arrays (radio._link_budget,
linkrate.rb_rates, scheduler.rr_shares); its scalar functions run that
array code on one element or one cell.  The functions here are the plain
per-pair and per-cell Python code the array code replaced, kept apart from
it so that the bit-for-bit checks of the public scalar functions and of
the kernels do not compare the code with itself.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Sequence

from car2cloud.errors import ConfigError
from car2cloud.linkrate import RbRateParams
from car2cloud.radio import MIN_MODEL_DISTANCE, SPEED_OF_LIGHT, BaseStation, LinkBudgetConfig


class LinkSample(NamedTuple):
    """Link-budget evaluation for one vehicle-station pair."""

    distance: float
    path_loss: float
    snr: float


def breakpoint_distance(cfg: LinkBudgetConfig, bs_height: float = 10.0) -> float:
    """B1 breakpoint distance 4 * h'_bs * h'_ue * f / c in meters."""
    h_bs = bs_height - 1.0
    h_ue = cfg.ue_height_m - 1.0
    if h_bs <= 0 or h_ue <= 0:
        raise ConfigError("antenna heights must exceed 1 m")
    return 4.0 * h_bs * h_ue * cfg.carrier_freq_ghz * 1e9 / SPEED_OF_LIGHT


def path_loss_b1(distance: float, cfg: LinkBudgetConfig, bs_height: float = 10.0) -> float:
    """WINNER-II B1 LOS path loss in dB at the given 2-D distance.

    Below the breakpoint: PL = 22.7 log10(d) + 41.0 + 20 log10(f/5GHz).
    Beyond it:  PL = 40 log10(d) + 9.45 - 17.3 log10(h'_bs)
                - 17.3 log10(h'_ue) + 2.7 log10(f/5GHz).
    Distances under 10 m are clamped to 10 m.
    """
    d = max(distance, MIN_MODEL_DISTANCE)
    d_bp = breakpoint_distance(cfg, bs_height)
    f_rel = cfg.carrier_freq_ghz / 5.0
    if d <= d_bp:
        return 22.7 * math.log10(d) + 41.0 + 20.0 * math.log10(f_rel)
    h_bs = bs_height - 1.0
    h_ue = cfg.ue_height_m - 1.0
    return (
        40.0 * math.log10(d)
        + 9.45
        - 17.3 * math.log10(h_bs)
        - 17.3 * math.log10(h_ue)
        + 2.7 * math.log10(f_rel)
    )


def snr(
    vehicle_pos: tuple[float, float], station: BaseStation, cfg: LinkBudgetConfig
) -> LinkSample:
    """Distance, total path loss and uplink SNR for one vehicle-station pair.

    The reported path loss includes the configured extra_loss_db offset, so
    the budget identity holds exactly against the reported value.
    """
    dx = vehicle_pos[0] - station.x
    dy = vehicle_pos[1] - station.y
    distance = math.hypot(dx, dy)
    loss = path_loss_b1(distance, cfg, station.height) + cfg.extra_loss_db
    value = (
        cfg.tx_power_dbm
        + cfg.ue_gain_dbi
        + station.antenna_gain
        - loss
        - (cfg.noise_power_dbm + cfg.noise_figure_db)
    )
    return LinkSample(distance, loss, value)


def best_link(
    vehicle_pos: tuple[float, float],
    stations: Iterable[BaseStation],
    cfg: LinkBudgetConfig,
) -> tuple[BaseStation, LinkSample]:
    """Best-SNR station for a position; ties go to the smallest station id.

    Iterating in canonical id order with a strict-improvement test makes the
    result independent of the input collection's ordering.
    """
    ordered = sorted(stations, key=lambda s: str(s.station_id))
    if not ordered:
        raise ConfigError("cannot associate: no base stations configured")
    best = None
    best_sample = None
    for station in ordered:
        sample = snr(vehicle_pos, station, cfg)
        if best_sample is None or sample.snr > best_sample.snr:
            best, best_sample = station, sample
    return best, best_sample


def _snr_linear(snr_db_tenth: float) -> float:
    """10 ** (snr_db / 10), infinite where the power exceeds the largest double."""
    try:
        return 10.0 ** snr_db_tenth
    except OverflowError:
        return math.inf


def rb_rate(snr_db: float, speed: float, params: RbRateParams | None = None) -> float:
    """Achievable uplink rate of one resource block, in bit/s."""
    p = params or RbRateParams()
    if snr_db < p.snr_min_db:
        return 0.0
    snr_lin = _snr_linear(snr_db / 10.0)
    efficiency = min(p.attenuation_beta * math.log2(1.0 + snr_lin), p.eta_max)
    penalty = 1.0 - p.speed_penalty_at_vmax * min(speed, p.v_ref) / p.v_ref
    return efficiency * p.rb_bandwidth_hz * penalty


def rr_allocate(
    attached: Sequence[str], n_rb: int, mode: str, rotation_offset: int
) -> dict[str, float]:
    """Round-Robin shares of n_rb blocks among one cell's vehicles, by vehicle id.

    Fractional mode gives each of the k vehicles n_rb / k.  Integer mode
    deals everyone the floor share, then one remainder block each to the
    vehicles from position rotation_offset % k on, wrapping round.
    """
    k = len(attached)
    if mode == "fractional":
        share = n_rb / k
        return {vid: share for vid in attached}
    base, remainder = divmod(int(n_rb), k)
    shares = {vid: float(base) for vid in attached}
    start = rotation_offset % k
    for i in range(remainder):
        shares[attached[(start + i) % k]] += 1.0
    return shares
