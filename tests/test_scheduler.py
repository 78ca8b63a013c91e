import random
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from car2cloud.engine import SimConfig, run
from car2cloud.errors import ConfigError
from car2cloud.linkrate import RbRateParams, rb_rate
from car2cloud.radio import BaseStation
from car2cloud.scheduler import MODES, CellTickState, rr_allocate, rr_shares, vehicle_rate
import scalar_models
from trace_rows import trace_table

MODEL = partial(rb_rate, params=RbRateParams())


def deal_rbs(k: int, n_rb: int, offset: int) -> list[int]:
    """Brute-force oracle: deal blocks one at a time starting at offset."""
    counts = [0] * k
    for i in range(n_rb):
        counts[(offset + i) % k] += 1
    return counts


def cell(k: int, t: int = 0) -> CellTickState:
    return CellTickState("cell", t, tuple(f"v{i:02d}" for i in range(k)))


def build_cells(positions, t, stations):
    """Cells engine.run forms at tick t: station id -> attached vehicle ids."""
    traces = trace_table((vid, t, x, y, 0.0) for vid, (x, y) in sorted(positions.items()))
    cells = {}
    table = run(SimConfig(), traces, stations)
    assert table.t.tolist() == [t] * len(table)
    for vid, sid in zip(table.vehicle_id.ids().tolist(), table.serving_station.ids().tolist()):
        cells.setdefault(sid, []).append(vid)
    return {sid: tuple(members) for sid, members in sorted(cells.items())}


def test_build_cells_empty():
    assert build_cells({}, 0, [BaseStation("a", 0, 0)]) == {}


def test_build_cells_all_to_nearest():
    stations = [BaseStation("a", 0.0, 0.0), BaseStation("b", 5000.0, 0.0)]
    positions = {f"v{i}": (float(i), 0.0) for i in range(3)}
    assert build_cells(positions, 4, stations) == {"a": ("v0", "v1", "v2")}


def test_build_cells_symmetric_split():
    stations = [BaseStation("a", 0.0, 0.0), BaseStation("b", 1000.0, 0.0)]
    positions = {
        "u1": (100.0, 0.0),
        "u2": (200.0, 0.0),
        "w1": (800.0, 0.0),
        "w2": (900.0, 0.0),
    }
    assert build_cells(positions, 0, stations) == {"a": ("u1", "u2"), "b": ("w1", "w2")}


def test_single_user_gets_everything():
    allocation = rr_allocate(cell(1), 100)
    assert allocation.shares == {"v00": 100.0}


def test_integer_mode_34_33_33():
    allocation = rr_allocate(cell(3), 100, "integer", 0)
    assert [allocation.shares[v] for v in cell(3).attached] == [34.0, 33.0, 33.0]
    assert sum(allocation.shares.values()) == 100


def test_fractional_equal_division():
    allocation = rr_allocate(cell(3), 100, "fractional")
    assert all(v == pytest.approx(100.0 / 3.0) for v in allocation.shares.values())
    assert sum(allocation.shares.values()) == pytest.approx(100.0, abs=1e-9)


def test_empty_cell_empty_allocation():
    allocation = rr_allocate(CellTickState("c", 0, ()), 100)
    assert allocation.shares == {}


def test_bad_mode_and_negative_rb():
    with pytest.raises(ConfigError):
        rr_allocate(cell(2), 100, "weighted")
    with pytest.raises(ConfigError):
        rr_allocate(cell(2), -1)


def test_integer_allocation_matches_dealing_oracle():
    for k in range(1, 21):
        for n_rb in (0, 1, 7, 10, 100):
            for offset in range(k):
                allocation = rr_allocate(cell(k), n_rb, "integer", offset)
                expected = deal_rbs(k, n_rb, offset)
                got = [allocation.shares[v] for v in cell(k).attached]
                assert got == [float(c) for c in expected], (k, n_rb, offset)


def test_conservation_and_fairness_all_sizes():
    for k in range(1, 21):
        frac = rr_allocate(cell(k), 100, "fractional")
        assert sum(frac.shares.values()) == pytest.approx(100.0, abs=1e-9)
        assert len(set(frac.shares.values())) == 1
        integer = rr_allocate(cell(k), 100, "integer", 3)
        assert sum(integer.shares.values()) == 100
        assert max(integer.shares.values()) - min(integer.shares.values()) <= 1


def test_rotation_fairness_over_k_ticks():
    for k in range(1, 21):
        totals = {v: 0.0 for v in cell(k).attached}
        for tick in range(k):
            allocation = rr_allocate(cell(k, tick), 100, "integer", tick)
            for v, share in allocation.shares.items():
                totals[v] += share
        assert len(set(totals.values())) == 1


def test_fractional_linear_scaling():
    for k in (1, 3, 7, 13):
        full = rr_allocate(cell(k), 100, "fractional")
        tenth = rr_allocate(cell(k), 10, "fractional")
        for v in cell(k).attached:
            assert tenth.shares[v] == pytest.approx(0.1 * full.shares[v], rel=1e-12)


def test_vehicle_rate_examples():
    assert vehicle_rate(0.0, 20.0, 0.0, MODEL) == 0.0
    assert vehicle_rate(100.0, 20.0, 0.0, MODEL) == pytest.approx(71.9e6, rel=2e-3)
    ten = vehicle_rate(10.0, 14.0, 3.0, MODEL)
    one = vehicle_rate(1.0, 14.0, 3.0, MODEL)
    assert ten == pytest.approx(10.0 * one, rel=1e-12)


def test_vehicle_rate_of_params_model():
    params = RbRateParams()
    model = partial(rb_rate, params=params)
    assert vehicle_rate(4.0, 20.0, 0.0, model) == 4.0 * rb_rate(20.0, 0.0, params)


def test_vehicle_rate_negative_share():
    with pytest.raises(ConfigError):
        vehicle_rate(-1.0, 10.0, 0.0, MODEL)


def test_pluggable_rate_model():
    def staircase(snr_db: float, speed: float) -> float:
        return 1000.0 if snr_db >= 0 else 0.0

    assert vehicle_rate(5.0, 3.0, 99.0, staircase) == 5000.0
    assert vehicle_rate(5.0, -3.0, 0.0, staircase) == 0.0


def test_random_cells_against_oracle():
    rng = random.Random(17)
    for _ in range(300):
        k = rng.randint(1, 20)
        n_rb = rng.randint(0, 200)
        offset = rng.randint(0, 1000)
        allocation = rr_allocate(cell(k), n_rb, "integer", offset)
        assert [allocation.shares[v] for v in cell(k).attached] == [
            float(c) for c in deal_rbs(k, n_rb, offset)
        ]


@st.composite
def tick_rows(draw):
    """Rows (t, vehicle, cell) in (t, vehicle) order, one per vehicle and tick."""
    rows = []
    for t in sorted(draw(st.sets(st.integers(-70, 10**6), max_size=6))):
        vehicles = sorted(draw(st.sets(st.integers(0, 30), min_size=1, max_size=25)))
        rows += [(t, v, draw(st.integers(0, 3))) for v in vehicles]
    return rows


@settings(max_examples=300, deadline=None)
@given(tick_rows(), st.sampled_from(MODES), st.integers(0, 60) | st.just(2**60 + 1))
def test_rr_shares_match_rr_allocate(rows, mode, n_rb):
    t = np.array([r[0] for r in rows], dtype=np.int64)
    cell_code = np.array([r[2] for r in rows], dtype=np.int64)
    got = rr_shares(t, cell_code, n_rb, mode)
    cells = {}
    for tick, vehicle, c in rows:
        cells.setdefault((tick, c), []).append(f"v{vehicle:02d}")
    shares = {}
    for (tick, c), attached in cells.items():
        for vid, share in scalar_models.rr_allocate(attached, n_rb, mode, tick).items():
            shares[tick, vid] = share
    expected = [shares[tick, f"v{vehicle:02d}"] for tick, vehicle, _ in rows]
    assert got.tobytes() == np.array(expected, dtype=np.float64).tobytes()


@settings(max_examples=200, deadline=None)
@given(tick_rows(), st.sampled_from(MODES), st.integers(0, 60))
def test_rr_shares_of_rows_by_vehicle_are_the_same_shares_permuted(rows, mode, n_rb):
    # engine.run passes its rows by vehicle, then tick; each cell's rows at
    # a tick stay in vehicle order.
    t, vehicle, cell_code = (np.array([r[i] for r in rows], dtype=np.int64) for i in range(3))
    by_vehicle = np.lexsort((t, vehicle))
    got = rr_shares(t[by_vehicle], cell_code[by_vehicle], n_rb, mode)
    assert got.tobytes() == rr_shares(t, cell_code, n_rb, mode)[by_vehicle].tobytes()


def test_rr_shares_validate_like_rr_allocate():
    t = np.zeros(1, dtype=np.int64)
    with pytest.raises(ConfigError):
        rr_shares(t, t, 4, "proportional")
    with pytest.raises(ConfigError):
        rr_shares(t, t, -1, "integer")
