"""Radio environment: WINNER-II B1 path loss, uplink link budget, association.

The path-loss model is the two-slope urban-micro LOS formula with breakpoint
distance d_bp = 4 * h'_bs * h'_ue * f / c, where effective antenna heights
are the physical heights minus 1 m.  SNR follows the additive link budget

    snr = tx_power + ue_gain + bs_gain - path_loss - (noise_power + noise_figure)

with every term in dB/dBm.  All functions here are pure.  Each formula is
written once and works on arrays: breakpoint_distance, and the path loss
and SNR in _link_budget.  best_link and link_snrs evaluate them with
math's hypot and log10 per element.  The screen_links association screen
ranks the stations of one gain and height by squared distance alone, as
B1 loss never falls as distance grows, and evaluates the link budget with
numpy's sqrt and log10 only to rank the nearest of each such class
against each other; best_link decides the rows the screen cannot.  The
scalar formulas as
first written are kept in tests/scalar_models.py, the independent oracle
these functions are checked against bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, repeat
from typing import IO, Sequence

import numpy as np

from .csvio import LINE_BREAK, RowLines, check_id, read_columns, read_header
from .errors import ConfigError, ParseError, ValidationError, check_finite

SPEED_OF_LIGHT = 3.0e8  # m/s

# The B1 formula is not validated below roughly 10 m; shorter distances are
# clamped so SNR stays bounded as a vehicle drives past a station.
MIN_MODEL_DISTANCE = 10.0

# numpy's sqrt(dx*dx + dy*dy) and log10 may differ from math's hypot and
# log10 in the last ulp, so the vectorised screen leaves rows whose two best
# SNRs are this close to the exact best_link.  Real ulp errors are around
# 1e-14 dB.
SCREEN_TIE_DB = 1e-9

# Among stations of one antenna gain and height, the nearest has the best
# SNR: B1 loss rises 22.7 dB per decade of distance up to d_bp and 40 dB
# beyond it, and at d_bp it steps up by 17.3 log10(200/3) - 31.55, about
# 0.0036 dB, whatever the frequency and heights.  Squared distances a factor
# 1 + SCREEN_TIE_D2 apart part two such stations by at least
# 22.7 log10(1 + SCREEN_TIE_D2) / 2 dB, which is SCREEN_TIE_DB where
# SCREEN_TIE_D2 = 2 ln(10) 1e-9 / 22.7, about 2.03e-10; the rest is slack.
SCREEN_TIE_D2 = 2.5e-10
# Rounding in the budget's sums could close that gap where they grow large.
# The B1 loss of a finite squared distance stays under 2e4 dB for any
# frequency and heights, so while a station's gain and the config's other
# budget terms sum to under SCREEN_BUDGET_DB in magnitude, each sum rounds
# by under 1e-11 dB, and the gap stays open.
SCREEN_BUDGET_DB = 1e5


@dataclass(frozen=True)
class BaseStation:
    station_id: str
    x: float
    y: float
    antenna_gain: float = 15.0  # dBi
    height: float = 10.0        # m

    def __post_init__(self) -> None:
        if self.height <= 1.0:
            raise ConfigError(
                f"station {self.station_id!r}: height must exceed 1 m "
                f"(effective height h-1 must stay positive)"
            )
        check_finite(self, f"station {self.station_id!r}: ")


@dataclass(frozen=True)
class LinkBudgetConfig:
    carrier_freq_ghz: float = 1.8
    tx_power_dbm: float = 23.0
    ue_gain_dbi: float = 1.0
    ue_height_m: float = 1.5
    noise_figure_db: float = 6.0
    noise_power_dbm: float = -100.0
    # Hook for shadowing/fading studies: added to the path loss as-is.
    extra_loss_db: float = 0.0

    def __post_init__(self) -> None:
        if self.carrier_freq_ghz <= 0:
            raise ConfigError("link.carrier_freq_ghz must be positive")
        if not self.ue_height_m > 1.0:  # the effective height h-1 must stay positive
            raise ConfigError(f"link.ue_height_m must exceed 1 m, got {self.ue_height_m!r}")
        check_finite(self, "link.")


def _per_element(fn):
    """fn applied by Python to each element of float64 arrays of one length."""
    return lambda *a: np.fromiter(map(fn, *map(np.ndarray.tolist, a)), np.float64, len(a[0]))


_HYPOT, _LOG10 = _per_element(math.hypot), _per_element(math.log10)


def breakpoint_distance(cfg: LinkBudgetConfig, bs_height: float = 10.0) -> float:
    """B1 breakpoint distance 4 * h'_bs * h'_ue * f / c in meters.

    bs_height may also be an array of heights, giving an array of distances.
    """
    h_bs = bs_height - 1.0
    h_ue = cfg.ue_height_m - 1.0
    if np.any(h_bs <= 0) or h_ue <= 0:
        raise ConfigError("antenna heights must exceed 1 m")
    return 4.0 * h_bs * h_ue * cfg.carrier_freq_ghz * 1e9 / SPEED_OF_LIGHT


def best_link(
    positions: np.ndarray, stations: Sequence[BaseStation], cfg: LinkBudgetConfig
) -> np.ndarray:
    """Index into stations of the best-SNR station of each row of an (n, 2) array.

    Walking the stations in id order, a station replaces the best so far only
    if its SNR is strictly greater: ties go to the smallest id whatever the
    list's order, and a NaN SNR never replaces the best.
    """
    if not stations:
        raise ConfigError("cannot associate: no base stations configured")
    order = sorted(range(len(stations)), key=lambda i: str(stations[i].station_id))
    best = np.full(len(positions), order[0], dtype=np.int64)
    top = _serving_links(positions, best, stations, cfg)[2]
    for i in order[1:]:
        value = _serving_links(positions, np.full_like(best, i), stations, cfg)[2]
        better = value > top
        best[better], top[better] = i, value[better]
    return best


def _station_terms(stations: Sequence[BaseStation], cfg: LinkBudgetConfig) -> tuple:
    """Arrays of each station's x, y, antenna gain and _height_terms."""
    x, y, gain, height = np.array(
        [(s.x, s.y, s.antenna_gain, s.height) for s in stations], dtype=np.float64
    ).T
    return x, y, gain, *_height_terms(height, cfg)


def _height_terms(height: np.ndarray, cfg: LinkBudgetConfig) -> tuple:
    """Arrays of the breakpoint distance and 17.3 log10(h'_bs) of each station height."""
    return breakpoint_distance(cfg, height), 17.3 * _LOG10(height - 1.0)


def _link_budget(distance, gain, d_bp, log_h_bs, cfg: LinkBudgetConfig, log10):
    """The clamped distance, B1 path loss, total path loss and SNR, on arrays.

    The arrays broadcast together; gain, d_bp and log_h_bs are the stations'
    _station_terms.  numpy's + - * / and comparisons round as Python's float
    operations do, so only log10 can differ from math's, and only if
    numpy's is given.  Python's max(a, b) is a unless b > a, which np.where
    repeats.
    """
    log_f = math.log10(cfg.carrier_freq_ghz / 5.0)
    log_h_ue = 17.3 * math.log10(cfg.ue_height_m - 1.0)
    d = np.where(MIN_MODEL_DISTANCE > distance, MIN_MODEL_DISTANCE, distance)
    log_d = log10(d)
    near = 22.7 * log_d + 41.0 + 20.0 * log_f
    far = 40.0 * log_d + 9.45 - log_h_bs - log_h_ue + 2.7 * log_f
    b1 = np.where(d <= d_bp, near, far)
    loss = b1 + cfg.extra_loss_db
    budget = cfg.tx_power_dbm + cfg.ue_gain_dbi + gain - loss
    return d, b1, loss, budget - (cfg.noise_power_dbm + cfg.noise_figure_db)


def _serving_links(positions, serving, stations, cfg: LinkBudgetConfig) -> tuple:
    """Distance, total path loss and SNR of each position's link to stations[serving].

    The link budget runs with math's hypot and log10 per element.
    """
    x, y, *terms = (per_station[serving] for per_station in _station_terms(stations, cfg))
    with np.errstate(all="ignore"):
        distance = _HYPOT(positions[:, 0] - x, positions[:, 1] - y)
        _, _, loss, value = _link_budget(distance, *terms, cfg, _LOG10)
    return distance, loss, value


def screen_links(
    positions: np.ndarray,
    stations: Sequence[BaseStation],
    cfg: LinkBudgetConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised best-SNR screen over an (n, 2) array of positions.

    ``stations`` must be in canonical id order, the order best_link walks.
    Returns the screened winner's index into ``stations`` per row and a mask
    of the rows the screen cannot decide exactly.  Every other row has the
    same winner as best_link; give the masked rows to best_link in one call,
    and compute every row's SNR with link_snrs.

    A station whose x, y, gain and height repeat an earlier station's is
    left out: its SNR equals that station's everywhere, and best_link keeps
    the first of equal SNRs, so it never wins, and its tie would send every
    row to best_link.  The other stations fall into classes of one gain and
    height, within which the nearest has the best SNR (see SCREEN_TIE_D2).
    A class's candidate is its station of least squared distance dx*dx +
    dy*dy.  A row is marked where a square is not finite, or where another
    station of a class lies within a factor 1 + SCREEN_TIE_D2 of the
    larger of the candidate's square and the clamp's (10 m)**2.  With one
    class the candidate wins and no SNR is computed.  Otherwise the
    candidates are ranked by the link budget on numpy's sqrt and log10, and
    a row is also marked where more than one lies within SCREEN_TIE_DB of
    the best SNR, a candidate sits at the breakpoint distance (where an ulp
    picks the other B1 slope), or an SNR is not finite.
    """
    sites: dict[tuple, int] = {}
    for i, s in enumerate(stations):
        sites.setdefault((s.x, s.y, s.antenna_gain, s.height), i)
    fixed = (abs(cfg.tx_power_dbm) + abs(cfg.ue_gain_dbi) + abs(cfg.extra_loss_db)
             + abs(cfg.noise_power_dbm) + abs(cfg.noise_figure_db))
    classes: dict[tuple, list[int]] = {}
    for site, i in sites.items():
        # A site of too large a budget is a class of its own.
        key = site[2:] if fixed + abs(site[2]) < SCREEN_BUDGET_DB else site
        classes.setdefault(key, []).append(i)
    members = list(classes.values())
    distinct = np.fromiter(chain.from_iterable(members), np.int64, len(sites))
    x, y = np.array([(stations[i].x, stations[i].y) for i in distinct.tolist()]).T
    # Sites are rows and positions columns, so each operation runs along
    # the positions.
    d2, dy = x[:, None] - positions[:, 0], y[:, None] - positions[:, 1]
    with np.errstate(all="ignore"):
        d2 *= d2
        dy *= dy
        d2 += dy
        unsure = np.isinf(d2.max(axis=0))
        near = np.empty((len(members), len(positions)))
        pick = np.empty((len(members), len(positions)), np.int64)
        start = 0
        for c, group in enumerate(members):
            block = d2[start:start + len(group)]
            if len(group) == 1:
                near[c], pick[c] = block[0], start
            else:
                np.minimum.reduce(block, axis=0, out=near[c])
                limit = np.maximum(near[c], MIN_MODEL_DISTANCE * MIN_MODEL_DISTANCE)
                limit *= 1.0 + SCREEN_TIE_D2
                tied, pick[c] = _sole(block <= limit)
                pick[c] += start
                unsure |= tied
            start += len(group)
        if len(members) == 1:
            return distinct[pick[0]], unsure
        terms = _station_terms([stations[group[0]] for group in members], cfg)[2:]
        gain, d_bp, log_h_bs = (t[:, None] for t in terms)
        d, _, _, value = _link_budget(np.sqrt(near, out=near), gain, d_bp, log_h_bs, cfg, np.log10)
        unsure |= ~np.isfinite(value).all(axis=0)
        unsure |= (np.abs(d - d_bp) <= 1e-12 * d_bp).any(axis=0)
        tied, best = _sole(value >= value.max(axis=0) - SCREEN_TIE_DB)
        unsure |= tied
    return distinct[pick[best, np.arange(len(best))]], unsure


def _sole(close: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per column of a boolean matrix, whether more than one row is True, and
    the last row that is True, or 0.

    Both are reductions over axis 0, which numpy runs along the columns in
    step; its argmin and argmax over axis 0 are several times slower.
    """
    return np.count_nonzero(close, axis=0) > 1, (close * np.arange(len(close))[:, None]).max(axis=0)


def link_snrs(
    positions: np.ndarray,
    serving: np.ndarray,
    stations: Sequence[BaseStation],
    cfg: LinkBudgetConfig,
) -> np.ndarray:
    """The SNR of each row's link to stations[serving], as best_link computes it."""
    return _serving_links(positions, serving, stations, cfg)[2]


STATION_CSV_FIELDS = ("station_id", "x", "y", "antenna_gain", "height")


def parse_stations_csv(stream: IO[str]) -> list[BaseStation]:
    """Read base stations from CSV; gain and height columns are optional.

    The header is the first 3, 4 or 5 STATION_CSV_FIELDS, and
    csvio.read_columns reads the rest.  Each row gets, in order: check_id,
    the duplicate check, 15.0 and 10.0 for an empty gain and height, the
    finite check and BaseStation's height check.  The first bad line in
    file order is named, as in ``line 3: duplicate station_id 'bs1'``.
    """
    header = read_header(
        stream, "station", {",".join(STATION_CSV_FIELDS[:w]) for w in (3, 4, 5)}.__contains__
    )
    width = header.count(",") + 1
    stations: dict[str, BaseStation] = {}
    lines = RowLines()

    def check(columns: list) -> None:
        ids, x, y, *optional = columns
        # The id, gain and height fields come coded; the rows take them as strings.
        ids, *optional = (map(c.names.__getitem__, c.codes.tolist()) for c in (ids, *optional))
        # A gain or height column the header leaves out reads as empty fields.
        rows = zip(ids, x.tolist(), y.tolist(), *optional, *[repeat("")] * (5 - width))
        for row, (sid, sx, sy, gain, height) in enumerate(rows):
            where = f"line {lines(row)}"
            check_id(sid, where, "station_id")
            if sid in stations:
                raise ValidationError(f"{where}: duplicate station_id {sid!r}")
            # The last field keeps its line's closing line break.
            gain, height = gain.rstrip(LINE_BREAK), height.rstrip(LINE_BREAK)
            try:
                gain = float(gain) if gain else 15.0
                height = float(height) if height else 10.0
            except ValueError as exc:
                raise ParseError(f"{where}: {exc}") from None
            if not all(math.isfinite(v) for v in (sx, sy, gain, height)):
                raise ValidationError(f"{where}: non-finite station value")
            try:
                stations[sid] = BaseStation(sid, sx, sy, antenna_gain=gain, height=height)
            except ConfigError as exc:
                raise ValidationError(f"{where}: {exc}") from None

    read_columns(stream, (None, float, float, None, None)[:width], check, lines)
    if not stations:
        raise ValidationError("station CSV holds no stations")
    return list(stations.values())
