import io
import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from car2cloud import radio
from car2cloud.csvio import READ_CHUNK_BYTES
from car2cloud.engine import SimConfig, run
from car2cloud.errors import ConfigError, ParseError, ValidationError
from car2cloud.radio import (
    BaseStation,
    LinkBudgetConfig,
    best_link,
    breakpoint_distance,
    link_snrs,
    parse_stations_csv,
    screen_links,
)
import scalar_models as oracle
from scalar_models import LinkSample
from trace_rows import trace_table

CFG = LinkBudgetConfig()


def bits(values) -> bytes:
    """The IEEE bytes of a sequence of floats, so that NaNs and signed zeros compare too."""
    return np.array(values, dtype=np.float64).tobytes()


def path_loss_b1(distance: float, cfg: LinkBudgetConfig, bs_height: float = 10.0) -> float:
    """The B1 path loss of radio._link_budget on one distance, with math's log10."""
    d_bp, log_h_bs = radio._height_terms(np.array([bs_height], dtype=np.float64), cfg)
    with np.errstate(all="ignore"):
        _, b1, _, _ = radio._link_budget(np.array([distance]), 0.0, d_bp, log_h_bs, cfg, radio._LOG10)
    return b1.item()


def snr(position, station: BaseStation, cfg: LinkBudgetConfig) -> LinkSample:
    """Distance, total path loss and SNR of one position's link to station.

    The array code link_snrs runs, on one row; its SNR is link_snrs's.
    """
    positions = np.array([position], dtype=np.float64)
    links = radio._serving_links(positions, np.zeros(1, dtype=np.int64), [station], cfg)
    sample = LinkSample(*(a.item() for a in links))
    assert bits([sample.snr]) == link_snrs(positions, np.zeros(1, dtype=np.int64), [station], cfg).tobytes()
    return sample


def test_breakpoint_distance_default():
    # 4 * 9 * 0.5 * 1.8e9 / 3e8
    assert breakpoint_distance(CFG, 10.0) == pytest.approx(108.0, abs=0.1)


def test_path_loss_below_breakpoint():
    expected = 22.7 * 2.0 + 41.0 + 20.0 * math.log10(1.8 / 5.0)
    assert path_loss_b1(100.0, CFG) == pytest.approx(expected, rel=1e-12)
    assert path_loss_b1(100.0, CFG) == pytest.approx(77.526, abs=1e-3)


def test_path_loss_at_5ghz_reference():
    cfg = LinkBudgetConfig(carrier_freq_ghz=5.0)
    assert path_loss_b1(10.0, cfg) == pytest.approx(63.7, abs=1e-9)


def test_path_loss_clamps_below_10m():
    assert path_loss_b1(5.0, CFG) == path_loss_b1(10.0, CFG)
    assert path_loss_b1(0.0, CFG) == path_loss_b1(10.0, CFG)


def test_path_loss_bad_heights():
    with pytest.raises(ConfigError):
        path_loss_b1(100.0, CFG, bs_height=1.0)
    with pytest.raises(ConfigError):
        path_loss_b1(100.0, LinkBudgetConfig(ue_height_m=0.5))


def test_path_loss_piecewise_monotone():
    d_bp = breakpoint_distance(CFG, 10.0)
    below = [10.0 + i * (d_bp - 10.0) / 50 for i in range(51)]
    above = [d_bp + i * 50.0 for i in range(60)]
    pl_below = [path_loss_b1(d, CFG) for d in below]
    pl_above = [path_loss_b1(d, CFG) for d in above]
    assert all(a < b for a, b in zip(pl_below, pl_below[1:]))
    assert all(a < b for a, b in zip(pl_above, pl_above[1:]))


def test_snr_at_100m_table_defaults():
    station = BaseStation("a", 0.0, 0.0)
    sample = snr((100.0, 0.0), station, CFG)
    assert sample.distance == pytest.approx(100.0)
    assert sample.snr == pytest.approx(55.474, abs=1e-3)


def test_snr_zero_at_133db_loss():
    # budget constant with Table defaults is 23 + 1 + 15 + 100 - 6 = 133 dB
    station = BaseStation("a", 0.0, 0.0)
    sample = snr((100.0, 0.0), station, CFG)
    assert sample.snr + sample.path_loss == pytest.approx(133.0, abs=1e-12)


def test_snr_equal_at_equal_distance():
    cfg = CFG
    a = snr((0.0, 50.0), BaseStation("a", 0.0, 0.0), cfg)
    b = snr((0.0, -50.0), BaseStation("b", 0.0, 0.0), cfg)
    assert a.snr == b.snr


def test_budget_identity_random_inputs():
    rng = random.Random(1)
    for _ in range(200):
        cfg = LinkBudgetConfig(
            carrier_freq_ghz=rng.uniform(0.7, 6.0),
            tx_power_dbm=rng.uniform(0.0, 30.0),
            ue_gain_dbi=rng.uniform(-3.0, 9.0),
            noise_figure_db=rng.uniform(2.0, 9.0),
            noise_power_dbm=rng.uniform(-110.0, -90.0),
            extra_loss_db=rng.uniform(0.0, 20.0),
        )
        station = BaseStation("s", rng.uniform(-500, 500), rng.uniform(-500, 500),
                              antenna_gain=rng.uniform(0.0, 18.0),
                              height=rng.uniform(5.0, 40.0))
        pos = (rng.uniform(-2000, 2000), rng.uniform(-2000, 2000))
        sample = snr(pos, station, cfg)
        budget = (cfg.tx_power_dbm + cfg.ue_gain_dbi + station.antenna_gain
                  - cfg.noise_power_dbm - cfg.noise_figure_db)
        assert sample.snr + sample.path_loss == pytest.approx(budget, abs=1e-9)


def test_extra_loss_reduces_snr_exactly():
    station = BaseStation("a", 0.0, 0.0)
    plain = snr((200.0, 0.0), station, CFG)
    shadowed = snr((200.0, 0.0), station, LinkBudgetConfig(extra_loss_db=7.0))
    assert shadowed.snr == pytest.approx(plain.snr - 7.0)
    assert shadowed.path_loss == pytest.approx(plain.path_loss + 7.0)


def associate(vehicle_pos, stations, cfg):
    """Id of the station best_link attaches the position to."""
    (winner,) = best_link(np.array([vehicle_pos]), stations, cfg).tolist()
    return stations[winner].station_id


def test_associate_single_station():
    assert associate((5.0, 5.0), [BaseStation("only", 0, 0)], CFG) == "only"


def test_associate_prefers_nearer_station():
    stations = [BaseStation("far", 500.0, 0.0), BaseStation("near", 100.0, 0.0)]
    assert associate((0.0, 0.0), stations, CFG) == "near"


def test_associate_tie_breaks_to_smaller_id():
    stations = [BaseStation("b", 10.0, 0.0), BaseStation("a", 10.0, 0.0)]
    assert associate((0.0, 0.0), stations, CFG) == "a"


def test_associate_empty_raises():
    with pytest.raises(ConfigError):
        associate((0.0, 0.0), [], CFG)


def test_associate_gain_offset_invariance():
    rng = random.Random(7)
    for _ in range(50):
        stations = [
            BaseStation(f"s{i}", rng.uniform(-1000, 1000), rng.uniform(-1000, 1000),
                        antenna_gain=rng.uniform(5, 20))
            for i in range(6)
        ]
        pos = (rng.uniform(-1000, 1000), rng.uniform(-1000, 1000))
        base_choice = associate(pos, stations, CFG)
        shifted = [
            BaseStation(s.station_id, s.x, s.y, antenna_gain=s.antenna_gain + 4.5,
                        height=s.height)
            for s in stations
        ]
        assert associate(pos, shifted, CFG) == base_choice


def test_associate_permutation_invariance():
    rng = random.Random(3)
    stations = [
        BaseStation(f"s{i}", rng.uniform(-500, 500), rng.uniform(-500, 500))
        for i in range(8)
    ]
    pos = (12.0, -40.0)
    expected = associate(pos, stations, CFG)
    for _ in range(10):
        rng.shuffle(stations)
        assert associate(pos, stations, CFG) == expected
    assert expected in {s.station_id for s in stations}


def test_snr_sample_fields():
    stations = [BaseStation("a", 0.0, 0.0), BaseStation("b", 1000.0, 0.0)]
    assert associate((100.0, 0.0), stations, CFG) == "a"
    sample = snr((100.0, 0.0), stations[0], CFG)
    assert sample.distance == 100.0
    assert sample.path_loss == path_loss_b1(100.0, CFG)
    assert sample.snr == pytest.approx(55.474, abs=1e-3)


def test_best_link_answers_each_row_with_an_index_into_the_list():
    stations = [BaseStation("b", 400.0, 0.0), BaseStation("a", 0.0, 0.0)]
    positions = np.array([[80.0, 0.0], [390.0, 0.0], [200.0, 0.0]])
    winners = best_link(positions, stations, CFG)
    assert winners.dtype == np.int64
    # (200, 0) is 200 m from both, so the tie goes to "a".
    assert winners.tolist() == [1, 0, 1]
    none = best_link(np.empty((0, 2)), stations, CFG)
    assert none.dtype == np.int64 and none.shape == (0,)


def test_base_station_height_validation():
    with pytest.raises(ConfigError):
        BaseStation("low", 0.0, 0.0, height=1.0)


def test_parse_stations_csv_full_and_defaults():
    data = "station_id,x,y,antenna_gain,height\nbs1,0,0,15,10\nbs2,100,50,,\n"
    stations = parse_stations_csv(io.StringIO(data))
    assert stations[1].antenna_gain == 15.0
    assert stations[1].height == 10.0


@pytest.mark.parametrize(
    "row, message",
    [
        ("bs1,0,0,high,10", "line 3: could not convert string to float: 'high'"),
        ("bs1,0,0,15,tall", "line 3: could not convert string to float: 'tall'"),
        ("bs1,0,0,,tall\r", "line 3: could not convert string to float: 'tall'"),
    ],
)
def test_parse_stations_csv_names_the_line_of_a_gain_or_height_that_does_not_parse(
    row, message
):
    data = f"station_id,x,y,antenna_gain,height\nbs0,0,0,15,10\n{row}\n"
    with pytest.raises(ParseError) as err:
        parse_stations_csv(io.StringIO(data))
    assert str(err.value) == message


def test_parse_stations_csv_short_header():
    stations = parse_stations_csv(io.StringIO("station_id,x,y\nbs1,5,6\n"))
    assert stations[0].antenna_gain == 15.0


def test_parse_stations_csv_duplicate_id():
    data = "station_id,x,y\nbs1,0,0\nbs1,1,1\n"
    with pytest.raises(ValidationError):
        parse_stations_csv(io.StringIO(data))


@pytest.mark.parametrize("data", ["station_id,x,y\n", "station_id,x,y\n\n", "station_id,x,y"])
def test_parse_stations_csv_without_stations_is_bad_data(data):
    with pytest.raises(ValidationError) as err:
        parse_stations_csv(io.StringIO(data))
    assert str(err.value) == "station CSV holds no stations"


def test_parse_stations_csv_bad_header():
    with pytest.raises(ParseError):
        parse_stations_csv(io.StringIO("x,y,station_id\n"))


@pytest.mark.parametrize("sid", ['"a,b"', '"a""b"', '"a\nb"'])
def test_parse_stations_csv_rejects_delimiters_in_id(sid):
    data = f"station_id,x,y\nbs1,0,0\n{sid},1,1\n"
    with pytest.raises(ValidationError) as err:
        parse_stations_csv(io.StringIO(data))
    assert "line 3" in str(err.value)


def test_parse_stations_csv_rejects_empty_id():
    with pytest.raises(ParseError) as err:
        parse_stations_csv(io.StringIO("station_id,x,y\nbs1,0,0\n,1,1\n"))
    assert "line 3: empty station_id" in str(err.value)


def test_parse_stations_csv_names_the_line_a_record_starts_on():
    # A record never spans lines: a quote is data, so line 2 ends inside the quoted field.
    with pytest.raises(ParseError) as err:
        parse_stations_csv(io.StringIO('station_id,x,y\nbs0,"1\n",2\nbs1,1,oops\n'))
    assert str(err.value) == "line 2: expected 3 fields, got 2"



def _station_lines(count):
    return [f"bs{i:05d},{1000 + i},25\n" for i in range(count)]


@pytest.mark.parametrize(
    "duplicate, bad, message",
    [
        (10, 19000, "line 10: duplicate station_id 'bs00000'"),
        (19000, 10, "line 10: could not convert string to float: 'oops'"),
        (18000, 19000, "line 18000: duplicate station_id 'bs00000'"),
    ],
    ids=["duplicate in chunk 1", "bad line in chunk 1", "both in a later chunk"],
)
def test_parse_stations_csv_names_the_first_bad_line_across_chunks(duplicate, bad, message):
    lines = ["station_id,x,y\n", *_station_lines(20000)]
    lines[duplicate - 1] = "bs00000,5,25\n"
    lines[bad - 1] = "bs99999,oops,25\n"
    # Lines past 1000 lie beyond the first chunk.
    beyond = [len("".join(lines[:n])) > READ_CHUNK_BYTES for n in (duplicate, bad)]
    assert beyond == [duplicate > 1000, bad > 1000]
    with pytest.raises(ValidationError) as err:
        parse_stations_csv(io.StringIO("".join(lines)))
    assert str(err.value) == message


def test_parse_stations_csv_reads_every_chunk():
    lines = _station_lines(20000)
    stations = parse_stations_csv(io.StringIO("station_id,x,y\n" + "".join(lines)))
    assert [(s.station_id, s.x) for s in stations] == [(f"bs{i:05d}", 1000.0 + i) for i in range(20000)]


@pytest.mark.parametrize(
    "row, error, message",
    [
        ('"bs2",1,1', ValidationError,
         """line 3: station_id '"bs2"' contains a comma, quote or line break"""),
        ('bs2,"1",1', ParseError, """line 3: could not convert string to float: '"1"'"""),
        ('bs2,1,1,"15"', ParseError, "line 3: expected 3 fields, got 4"),
    ],
    ids=["quoted id", "quoted number", "quoted extra field"],
)
def test_parse_stations_csv_reads_a_quote_as_data(row, error, message):
    with pytest.raises(error) as err:
        parse_stations_csv(io.StringIO(f"station_id,x,y\nbs1,0,0\n{row}\n"))
    assert type(err.value) is error and str(err.value) == message


@pytest.mark.parametrize(
    "header", ["station_id, x, y", '"station_id",x,y', " station_id,x,y", "station_id,x,y,"]
)
def test_parse_stations_csv_rejects_a_padded_or_quoted_header(header):
    with pytest.raises(ParseError) as err:
        parse_stations_csv(io.StringIO(f"{header}\r\nbs1,0,0\r\n"))
    assert str(err.value) == f"bad station CSV header: {header!r}"


@pytest.mark.parametrize("final_break", ["\r\n", ""])
@pytest.mark.parametrize(
    "header", ["station_id,x,y,antenna_gain,height", "station_id,x,y,antenna_gain"]
)
def test_crlf_station_file_with_empty_last_fields_takes_the_defaults(header, final_break):
    width = header.count(",") + 1
    rows = [",".join(["bs1", "0", "0", "", ""][:width]), ",".join(["bs2", "5", "0", "12", ""][:width])]
    data = "\r\n".join([header, *rows]) + final_break
    stations = parse_stations_csv(io.StringIO(data))
    assert [(s.station_id, s.antenna_gain, s.height) for s in stations] == [
        ("bs1", 15.0, 10.0), ("bs2", 12.0, 10.0)
    ]

def test_parse_stations_csv_rejects_non_finite():
    with pytest.raises(ValidationError) as err:
        parse_stations_csv(io.StringIO("station_id,x,y\nbs1,nan,0\n"))
    assert "line 2" in str(err.value)


def test_parse_stations_csv_rejects_low_height_with_its_line():
    data = "station_id,x,y,antenna_gain,height\nbs1,0,0,15,10\nbs2,5,0,15,1\n"
    with pytest.raises(ValidationError) as err:
        parse_stations_csv(io.StringIO(data))
    assert str(err.value) == (
        "line 3: station 'bs2': height must exceed 1 m (effective height h-1 must stay positive)"
    )


def test_screen_flags_exact_ties_and_breakpoint():
    # In one class the row at the breakpoint is decided by distance, whichever
    # B1 slope it takes; test_screen_flags_the_breakpoint_across_classes
    # keeps it unsure.
    twins = [BaseStation("a", -300.0, 30.0), BaseStation("b", 300.0, 30.0)]
    d_bp = breakpoint_distance(CFG, 10.0)
    positions = np.array([[0.0, 0.0], [-290.0, 0.0], [300.0 + d_bp, 30.0]])
    winners, unsure = screen_links(positions, twins, CFG)
    assert unsure.tolist() == [True, False, False]
    assert winners[1] == 0
    assert twins[winners[2]] == oracle.best_link(positions[2].tolist(), twins, CFG)[0]


def test_screen_flags_the_breakpoint_across_classes():
    stations = [BaseStation("a", -300.0, 30.0), BaseStation("b", 300.0, 30.0, height=25.0)]
    positions = np.array([
        [-300.0 - breakpoint_distance(CFG, 10.0), 30.0],
        [300.0 + breakpoint_distance(CFG, 25.0), 30.0],
        [-290.0, 0.0],
    ])
    winners, unsure = screen_links(positions, stations, CFG)
    assert unsure.tolist() == [True, True, False]
    assert winners[2] == 0


def screened(positions, stations, cfg):
    """Each row's station id as engine.run picks it: screen_links, then best_link on
    the unsure rows; and the unsure mask."""
    canonical = sorted(stations, key=lambda s: s.station_id)
    winners, unsure = screen_links(positions, canonical, cfg)
    if unsure.any():
        winners[unsure] = best_link(positions[unsure], canonical, cfg)
    return [canonical[i].station_id for i in winners.tolist()], unsure.tolist()


def test_screen_and_best_link_match_the_oracle_at_exact_ties():
    # Mirrored sites: a and b tie on the y axis, d and e on x = 5000.
    stations = [
        BaseStation("b", 300.0, 0.0), BaseStation("a", -300.0, 0.0),
        BaseStation("c", 0.0, 5000.0), BaseStation("e", 5000.0, 200.0),
        BaseStation("d", 5000.0, -200.0),
    ]
    positions = np.array([[0.0, 0.0], [0.0, 100.0], [0.0, -250.0], [5000.0, 0.0], [10.0, 0.0]])
    ids, unsure = screened(positions, stations, CFG)
    assert ids == [oracle.best_link(p, stations, CFG)[0].station_id for p in positions.tolist()]
    assert ids == ["a", "a", "a", "d", "b"]
    assert unsure == [True, True, True, True, False]


@pytest.mark.parametrize("offset", [1e-9, 1e-8, 1.5e-8])
def test_screen_and_best_link_match_the_oracle_within_the_tie_margin(offset):
    # b lies offset m farther than a: the SNRs differ by less than SCREEN_TIE_DB.
    stations = [BaseStation("b", -300.0, 30.0), BaseStation("a", 300.0 + offset, 30.0)]
    position = (0.0, 0.0)
    links = [oracle.snr(position, s, CFG).snr for s in stations]
    assert 0.0 < links[0] - links[1] <= radio.SCREEN_TIE_DB
    ids, unsure = screened(np.array([position]), stations, CFG)
    assert ids == [oracle.best_link(position, stations, CFG)[0].station_id] == ["b"]
    assert unsure == [True]


def test_screen_and_best_link_match_the_oracle_where_squares_overflow():
    # dx * dx overflows beyond 1.3e154 m; math.hypot does not.
    stations = [
        BaseStation("a", 0.0, 30.0), BaseStation("b", 1e160, 1e160 + 100.0),
        BaseStation("c", -1e160, 0.0),
    ]
    positions = np.array([[1e160, 1e160], [0.0, 0.0], [-1e160, 1e159], [1e155, -1e155]])
    ids, unsure = screened(positions, stations, CFG)
    assert ids == [oracle.best_link(p, stations, CFG)[0].station_id for p in positions.tolist()]
    assert ids[:2] == ["b", "a"]
    assert unsure == [True, True, True, True]


def test_screen_sends_rows_within_the_clamp_of_two_sites_of_a_class_to_best_link():
    # Both distances clamp to 10 m, so the SNRs tie and the smaller id wins,
    # though b is nearer.
    stations = [BaseStation("b", 0.0, 0.0), BaseStation("a", 12.0, 0.0)]
    positions = np.array([[4.0, 0.0], [5.0, 3.0], [-1.0, 0.0], [0.0, -20.0]])
    ids, unsure = screened(positions, stations, CFG)
    assert ids == [oracle.best_link(p, stations, CFG)[0].station_id for p in positions.tolist()]
    assert ids == ["a", "a", "b", "b"]
    assert unsure == [True, True, False, False]


@pytest.mark.parametrize("distance", [50.0, 600.0], ids=["near", "far"])
@pytest.mark.parametrize("gap, tied", [(0.9e-9, True), (1e-8, False), (1e-6, False)])
def test_screen_margin_in_one_class(distance, gap, tied):
    # b is nearer by an SNR gap of about gap dB; the far slope is 40 dB per
    # decade, the near one 22.7.
    assert (distance < breakpoint_distance(CFG, 10.0)) == (distance == 50.0)
    slope = 22.7 if distance == 50.0 else 40.0
    stations = [BaseStation("a", -distance * 10.0 ** (gap / slope), 0.0),
                BaseStation("b", distance, 0.0)]
    a, b = (oracle.snr((0.0, 0.0), s, CFG).snr for s in stations)
    assert 0.9 * gap < b - a < 1.1 * gap
    winners, unsure = screen_links(np.zeros((1, 2)), stations, CFG)
    assert unsure.tolist() == [tied]
    ids, _ = screened(np.zeros((1, 2)), stations, CFG)
    assert ids == [oracle.best_link((0.0, 0.0), stations, CFG)[0].station_id] == ["b"]
    if not tied:
        assert winners.tolist() == [1]


def test_screen_ranks_by_snr_where_the_budget_rounds_distances_away():
    # A 1e20 dB loss leaves every SNR equal, so the smallest id wins
    # everywhere, not the nearest station.
    stations = [BaseStation("b", 0.0, 0.0), BaseStation("a", 3000.0, 0.0)]
    cfg = LinkBudgetConfig(extra_loss_db=1e20)
    positions = np.array([[100.0, 0.0], [2900.0, 0.0]])
    ids, unsure = screened(positions, stations, cfg)
    assert ids == [oracle.best_link(p, stations, cfg)[0].station_id for p in positions.tolist()]
    assert ids == ["a", "a"]
    assert unsure == [True, True]


def test_a_single_class_screen_computes_no_link_budget():
    stations = [BaseStation(f"s{i}", 500.0 * i, 25.0) for i in range(6)]
    positions = np.column_stack((np.linspace(-100.0, 3000.0, 50), np.full(50, 3.0)))
    with mock.patch.object(radio, "_link_budget", wraps=radio._link_budget) as budget:
        screen_links(positions, stations, CFG)
        assert budget.call_count == 0
        screen_links(positions, [*stations, BaseStation("t", 0.0, 0.0, height=25.0)], CFG)
        assert budget.call_count == 1


@pytest.mark.parametrize("freq", [0.45, 1.8, 2.6, 5.0, 28.0, 60.0])
@pytest.mark.parametrize("ue_height", [1.2, 1.5, 2.0, 3.0])
def test_b1_loss_never_falls_with_distance(freq, ue_height):
    """The screen's premise: across the 10 m clamp, the breakpoint and both slopes."""
    cfg = LinkBudgetConfig(carrier_freq_ghz=freq, ue_height_m=ue_height)
    for height in (1.5, 5.0, 10.0, 25.0, 60.0):
        d_bp = breakpoint_distance(cfg, height)
        marks = [radio.MIN_MODEL_DISTANCE, d_bp]
        near = [np.nextafter(m, direction) for m in marks for direction in (0.0, np.inf)]
        distances = np.sort(np.concatenate((np.geomspace(0.5, 20_000.0, 400), marks, near)))
        loss = [path_loss_b1(d, cfg, height) for d in distances.tolist()]
        assert np.all(np.diff(loss) >= 0.0)
        if d_bp > radio.MIN_MODEL_DISTANCE:
            step = path_loss_b1(np.nextafter(d_bp, np.inf), cfg, height) - path_loss_b1(d_bp, cfg, height)
            assert step > 0.003


def test_screen_leaves_out_a_co_sited_twin():
    twins = [BaseStation("a", 0.0, 30.0), BaseStation("b", 0.0, 30.0)]
    winners, unsure = screen_links(np.array([[0.0, 0.0], [500.0, 0.0]]), twins, CFG)
    assert winners.tolist() == [0, 0]
    assert unsure.tolist() == [False, False]


def test_screen_defers_ulp_near_ties():
    # Two stations at one distance from the vehicle in exact arithmetic;
    # numpy's screen ranks them the other way round from math.
    pos = (-1179.7889344024943, 525.4836368613569)
    stations = [
        BaseStation("a", 2294.8740049911466, 2077.1845105698767),
        BaseStation("b", -4601.03138107375, -1140.6971051226328),
    ]
    _, unsure = screen_links(np.array([pos]), stations, CFG)
    assert unsure.tolist() == [True]
    station, link = oracle.best_link(pos, stations, CFG)
    table = run(SimConfig(), trace_table([("v", 0, *pos, 1.0)]), stations)
    assert table.serving_station.names == [station.station_id]
    assert table.snr_db[0] == link.snr


def test_screen_sends_bad_ue_height_to_scalar_path():
    # No such height reaches the screen: the config that holds it is not built.
    for height in (1.0, 0.5, -3.0, math.nan):
        with pytest.raises(ConfigError, match="link.ue_height_m must exceed 1 m"):
            LinkBudgetConfig(ue_height_m=height)


coords = st.integers(-1500, 1500).map(lambda v: 2.0 * v)
station_specs = st.lists(
    st.tuples(coords, coords, st.sampled_from([0.0, 5.0, 15.0, 20.0]),
              st.sampled_from([1.5, 10.0, 25.0])),
    min_size=1,
    max_size=6,
)


@st.composite
def layouts(draw, one_class=False):
    """Stations with mixed gains and heights (one of each if one_class), plus
    positions that include free points, exact station sites and exact
    midpoints of station pairs.

    Twin stations are copies of a station rotated about a position: equal
    distance in exact arithmetic, so their SNRs tie to within an ulp or two
    and numpy and math may rank them differently.
    """
    specs = draw(station_specs)
    if one_class:
        gain, height = draw(station_specs)[0][2:]
        specs = [(x, y, gain, height) for x, y, _, _ in specs]
    stations = [
        BaseStation(f"s{i}", x, y, antenna_gain=g, height=h)
        for i, (x, y, g, h) in enumerate(specs)
    ]
    free = st.tuples(st.floats(-4000, 4000), st.floats(-4000, 4000))
    pair = st.tuples(st.sampled_from(stations), st.sampled_from(stations))
    midpoint = pair.map(lambda ab: ((ab[0].x + ab[1].x) / 2, (ab[0].y + ab[1].y) / 2))
    positions = draw(st.lists(st.one_of(free, midpoint), min_size=1, max_size=12))
    for angle in draw(st.lists(st.floats(0.1, 6.2), max_size=4)):
        px, py = draw(st.sampled_from(positions))
        src = draw(st.sampled_from(stations))
        dx, dy = src.x - px, src.y - py
        stations.append(BaseStation(
            f"t{len(stations)}",
            px + dx * math.cos(angle) - dy * math.sin(angle),
            py + dx * math.sin(angle) + dy * math.cos(angle),
            antenna_gain=src.antenna_gain,
            height=src.height,
        ))
    extra = draw(st.sampled_from([0.0, 3.5, -2.25, 17.0]))
    order = draw(st.permutations(stations))
    return order, positions, LinkBudgetConfig(extra_loss_db=extra)


@settings(max_examples=300, deadline=None)
@given(layouts())
def test_columnar_association_matches_best_link(layout):
    stations, positions, cfg = layout
    canonical = sorted(stations, key=lambda s: s.station_id)
    winners, unsure = screen_links(np.array(positions), canonical, cfg)
    traces = trace_table((f"v{i:02d}", 0, x, y, 10.0) for i, (x, y) in enumerate(positions))
    table = run(SimConfig(link=cfg), traces, stations)
    serving = table.serving_station.ids().tolist()
    rows = zip(positions, winners, unsure, serving, table.snr_db.tolist())
    for pos, winner, tie, serving, snr_db in rows:
        station, link = oracle.best_link(pos, stations, cfg)
        assert (serving, snr_db) == (station.station_id, link.snr)
        if not tie:
            assert canonical[winner] == station
            assert oracle.snr(pos, station, cfg).snr == link.snr


@settings(max_examples=300, deadline=None)
@given(layouts(one_class=True))
def test_one_class_association_matches_the_oracle(layout):
    stations, positions, cfg = layout
    canonical = sorted(stations, key=lambda s: s.station_id)
    winners, unsure = screen_links(np.array(positions), canonical, cfg)
    ids, _ = screened(np.array(positions), stations, cfg)
    for pos, winner, tie, got in zip(positions, winners.tolist(), unsure.tolist(), ids):
        station = oracle.best_link(pos, stations, cfg)[0]
        assert got == station.station_id
        if not tie:
            assert canonical[winner] == station


@settings(max_examples=200, deadline=None)
@given(layouts(), st.data())
def test_link_snrs_match_snr_bit_for_bit(layout, data):
    """Every position against every station, plus positions at a station's
    breakpoint distance and inside the 10 m clamp."""
    stations, positions, cfg = layout
    for station in data.draw(st.lists(st.sampled_from(stations), max_size=3)):
        d_bp = breakpoint_distance(cfg, station.height)
        offset = data.draw(st.sampled_from([d_bp, 0.0, 3.0, 10.0, 9.999999999999998]))
        positions = [*positions, (station.x + offset, station.y)]
    pairs = [(pos, i) for pos in positions for i in range(len(stations))]
    got = link_snrs(
        np.array([pos for pos, _ in pairs]), np.array([i for _, i in pairs]), stations, cfg
    )
    expected = [oracle.snr(pos, stations[i], cfg).snr for pos, i in pairs]
    assert got.tobytes() == np.array(expected).tobytes()


def test_link_snrs_raise_the_ue_height_error():
    with pytest.raises(ConfigError) as err:
        LinkBudgetConfig(ue_height_m=1.0)
    assert str(err.value) == "link.ue_height_m must exceed 1 m, got 1.0"
    cfg = LinkBudgetConfig(ue_height_m=1.0000001)
    station = BaseStation("a", 5.0, 5.0)
    got = link_snrs(np.zeros((1, 2)), np.zeros(1, dtype=np.int64), [station], cfg)
    assert got.tolist() == [oracle.snr((0.0, 0.0), station, cfg).snr]


def test_link_snrs_match_snr_on_a_dense_sweep():
    # np.hypot and np.log10 differ from math's in the last ulp on a small
    # share of inputs, which a sweep of this size meets.
    stations = [BaseStation("a", 0.0, 30.0), BaseStation("b", 700.0, -40.0, 18.0, 25.0)]
    cfg = LinkBudgetConfig(extra_loss_db=3.5)
    x = np.linspace(-3000.0, 3000.0, 25_001)
    positions = np.column_stack((np.repeat(x, 2), np.full(len(x) * 2, 7.25)))
    serving = np.tile([0, 1], len(x))
    pairs = zip(positions.tolist(), serving.tolist())
    expected = [oracle.snr(pos, stations[i], cfg).snr for pos, i in pairs]
    assert link_snrs(positions, serving, stations, cfg).tobytes() == np.array(expected).tobytes()


@settings(max_examples=200, deadline=None)
@given(layouts(), st.data())
def test_scalar_functions_match_the_oracle_bit_for_bit(layout, data):
    """The array link budget on one element (link_snrs's SNR, _link_budget's
    B1 path loss) and breakpoint_distance, and best_link on all positions
    at once, for the list in either order; the oracle is the scalar formula."""
    stations, positions, cfg = layout
    for station in stations:
        d_bp = breakpoint_distance(cfg, station.height)
        assert bits([d_bp]) == bits([oracle.breakpoint_distance(cfg, station.height)])
        extra = [d_bp, 0.0, -5.0, -50.0, 9.999999999999998, 10.0, math.inf, math.nan]
        for distance in [*data.draw(st.lists(st.floats(-100.0, 9000.0), max_size=3)), *extra]:
            got = path_loss_b1(distance, cfg, station.height)
            assert bits([got]) == bits([oracle.path_loss_b1(distance, cfg, station.height)])
        for pos in positions:
            assert bits(snr(pos, station, cfg)) == bits(oracle.snr(pos, station, cfg))
    for listed in (stations, stations[::-1]):
        winners = best_link(np.array(positions), listed, cfg).tolist()
        for pos, winner in zip(positions, winners):
            expected_station, expected_link = oracle.best_link(pos, stations, cfg)
            assert listed[winner] is expected_station
            assert bits(snr(pos, listed[winner], cfg)) == bits(expected_link)


# Finite values near the largest double overflow in the link budget.  A
# station this far off has an infinite path loss, so an SNR of -inf; under
# HOT's transmit power, with this antenna gain, its budget is infinite too,
# so its SNR is NaN, and a near station with that gain has an SNR of +inf.
HUGE = 1.5e308
HOT = LinkBudgetConfig(tx_power_dbm=HUGE)
NAN_STATION = BaseStation("b", HUGE, HUGE, antenna_gain=HUGE)


@pytest.mark.parametrize(
    "stations, cfg, winner",
    [
        ([BaseStation("b", 10.0, 0.0), BaseStation("a", -10.0, 0.0)], CFG, "a"),
        ([BaseStation("a", 900.0, 0.0), NAN_STATION], HOT, "a"),
        ([BaseStation("a", 900.0, 0.0), NAN_STATION,
          BaseStation("c", 5.0, 0.0, antenna_gain=HUGE)], HOT, "c"),
        ([NAN_STATION, BaseStation("c", 5.0, 0.0)], HOT, "b"),
        ([BaseStation("b", HUGE, HUGE), BaseStation("a", -HUGE, HUGE)], CFG, "a"),
    ],
    ids=["exact-tie", "later-nan", "later-nan-then-better", "first-nan", "all-minus-inf"],
)
def test_best_link_edge_cases_match_the_oracle(stations, cfg, winner):
    expected_station, expected_link = oracle.best_link((0.0, 0.0), stations, cfg)
    assert expected_station.station_id == winner
    for listed in (stations, stations[::-1]):
        (index,) = best_link(np.zeros((1, 2)), listed, cfg).tolist()
        assert listed[index] is expected_station
        link = snr((0.0, 0.0), listed[index], cfg)
        assert bits(link) == bits(expected_link)
        assert [type(value) for value in link] == [float, float, float]


def test_edge_stations_give_nan_and_minus_inf_snrs():
    assert math.isnan(snr((0.0, 0.0), NAN_STATION, HOT).snr)
    assert snr((0.0, 0.0), BaseStation("a", HUGE, HUGE), CFG).snr == -math.inf
    assert snr((0.0, 0.0), BaseStation("c", 5.0, 0.0, antenna_gain=HUGE), HOT).snr == math.inf
