import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from car2cloud.cvim import (
    BASE_CHANNELS,
    ChannelRecord,
    MeasurementChannel,
    PackageMeta,
    PackagingConfig,
    TransmitQueue,
    count_packages_per_cell,
    drain_queues,
    package,
    pseudonymize,
    tick_records,
    try_transmit,
)
from car2cloud.engine import TickTable
from car2cloud.errors import ConfigError, ValidationError
from car2cloud.mobility import id_codes
from scalar_engine import drain_sizes


def table(rows):
    """TickTable of (t, vehicle_id, serving_station, packages_generated) rows."""
    t, vid, sid, generated = zip(*rows) if rows else [()] * 4
    zeros = np.zeros(len(rows))
    return TickTable(
        t=np.array(t, dtype=np.int64),
        vehicle_id=id_codes(vid),
        serving_station=id_codes(sid),
        snr_db=zeros,
        rb_share=zeros,
        rate_bps=zeros,
        packages_generated=np.array(generated, dtype=np.int64),
        bits_sent=zeros.astype(np.int64),
        queue_bytes=zeros.astype(np.int64),
    )


def records(n, t=0.0):
    return [ChannelRecord(i + 1, t, float(i)) for i in range(n)]


def test_channel_validation():
    with pytest.raises(ConfigError):
        MeasurementChannel(70000, "too-big", "u")


def test_package_sizes_ten_records():
    pkg = package("veh1", 5, records(10, t=5.2))
    assert pkg.payload_bytes == 64 + 16 * 10
    assert pkg.duration == 1
    assert pkg.package_id == "veh1@5"


def test_empty_package_is_header_only():
    pkg = package("veh1", 0, [])
    assert pkg.payload_bytes == 64
    assert pkg.records == ()


def test_package_rejects_out_of_interval_record():
    bad = ChannelRecord(1, 6.0, 1.0)  # half-open interval [5, 6)
    with pytest.raises(ValidationError) as err:
        package("veh1", 5, [bad])
    assert "channel 1" in str(err.value)
    package("veh1", 5, [ChannelRecord(1, 5.999, 1.0)])  # inside is fine


def test_tick_package_default_channels():
    pkg = package("veh1", 7, tick_records(7, 12.0, 0.0, 13.5))
    assert pkg.payload_bytes == 112  # 64 + 3 * 16
    assert [r.channel_id for r in pkg.records] == [c.channel_id for c in BASE_CHANNELS]
    assert pkg.records[2].value == 13.5


def test_tick_package_extra_channels():
    config = PackagingConfig(n_extra_channels=7)
    pkg = package("veh1", 7, tick_records(7, 0.0, 0.0, 0.0, config), config)
    assert len(pkg.records) == 10 == config.records_per_tick
    assert pkg.payload_bytes == 224 == config.payload_bytes(config.records_per_tick)


def test_consecutive_ticks_consecutive_intervals():
    a = package("v", 3, tick_records(3, 0.0, 0.0, 1.0))
    b = package("v", 4, tick_records(4, 1.0, 0.0, 1.0))
    assert b.interval_start - a.interval_start == 1


def test_try_transmit_zero_capacity():
    queue = TransmitQueue("v")
    queue.push(package("v", 0, records(3)))
    sent, remaining = try_transmit(queue, 0)
    assert sent == [] and remaining == 0
    assert len(queue) == 1


def test_try_transmit_partial_fit():
    queue = TransmitQueue("v")
    queue.push(package("v", 0, records(10)))  # 224 B = 1792 bits
    queue.push(package("v", 1, records(10, t=1.0)))
    sent, remaining = try_transmit(queue, 2000)
    assert sent == ["v@0"]
    assert remaining == 208
    assert len(queue) == 1
    assert queue.queued_bytes == 224


def test_try_transmit_drains_fully_in_order():
    queue = TransmitQueue("v")
    for t in range(4):
        queue.push(package("v", t, records(2, t=float(t))))
    sent, remaining = try_transmit(queue, 10_000)
    assert sent == ["v@0", "v@1", "v@2", "v@3"]
    assert len(queue) == 0
    assert remaining == 10_000 - 4 * 96 * 8


def test_try_transmit_head_of_line_blocking():
    queue = TransmitQueue("v")
    queue.push(package("v", 0, records(10)))          # 224 B
    queue.push(package("v", 1, records(0, t=1.0)))    # 64 B would fit
    sent, _ = try_transmit(queue, 1000)
    assert sent == []  # head does not fit; nothing is reordered past it
    assert len(queue) == 2


def test_queue_conservation_of_bytes():
    queue = TransmitQueue("v")
    total = 0
    for t in range(5):
        pkg = package("v", t, records(t, t=float(t)))
        total += pkg.payload_bytes
        queue.push(pkg)
    assert queue.queued_bytes == total
    sent, _ = try_transmit(queue, 1200)  # 64 B + 80 B = 1152 bits fit
    assert sent == ["v@0", "v@1"]
    assert queue.queued_bytes == total - 64 - 80


def test_size_entries_share_the_drain_rule():
    queue = TransmitQueue("v")
    queue.push(package("v", 0, records(2)))  # 96 B
    queue.push_size(224)
    queue.push_size(64)
    assert queue.queued_bytes == 384 and len(queue) == 3
    sent, remaining = try_transmit(queue, 2000)  # 768 bits, then 1792 > 1232
    assert sent == ["v@0"] and remaining == 1232
    assert queue.queued_bytes == 288
    sent, remaining = try_transmit(queue, 2304)
    assert sent == [None, None] and remaining == 0
    assert queue.queued_bytes == 0 and len(queue) == 0
    with pytest.raises(ConfigError):
        try_transmit(queue, -1)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(
    st.just(0) | st.integers(1, 3000) | st.just(2**70),
    st.integers(0, 30_000) | st.sampled_from([8 * 2**70, 10**30]),
), max_size=60))
def test_drain_sizes_match_try_transmit(rows):
    queue = TransmitQueue("v")
    expected_sent, expected_queued = [], []
    for size, capacity in rows:
        if size:
            queue.push_size(size)
        _, remaining = try_transmit(queue, capacity)
        expected_sent.append(capacity - remaining)
        expected_queued.append(queue.queued_bytes)
    pushed, capacity = zip(*rows) if rows else ((), ())
    assert drain_sizes(pushed, capacity) == (expected_sent, expected_queued)


PACKAGE_SIZES = st.just(0) | st.integers(1, 50) | st.integers(2**60 - 8, 2**60 - 1)


@st.composite
def ample_rows(draw):
    """Rows of (pushed bytes, capacity bits) whose packages each fit their row."""
    pushed = draw(st.lists(PACKAGE_SIZES, min_size=1, max_size=40))
    capacity = [
        8 * size + draw(st.just(0) | st.integers(0, 1000) | st.sampled_from([2**63, 10**30]))
        for size in pushed
    ]
    return pushed, capacity


@st.composite
def vehicle_queues(draw):
    """Rows of (pushed bytes, capacity bits) of 0 to 5 vehicles, and each vehicle's code.

    Packages are small or near 2**60 bytes, whose bits need Python ints;
    capacities are 0, random, the bits of one of the vehicle's packages,
    or at least 2**63.  A vehicle may repeat its rows 5 to 15 times, so
    that vehicles of a few hundred rows drain beside short ones.  Some
    vehicles never queue, as every package fits its row, and some have
    such rows before their first late row, whose package does not fit.
    """
    vehicles = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["random", "ample prefix", "never queues"]))
        repeats = draw(st.just(1) | st.integers(5, 15))
        if kind == "never queues":
            pushed, capacity = draw(ample_rows())
            vehicles.append((pushed * repeats, capacity * repeats))
            continue
        pushed = draw(st.lists(PACKAGE_SIZES, min_size=1, max_size=40))
        bits = [8 * size for size in pushed if size] or [0]
        capacity = [
            draw(st.just(0) | st.integers(0, 1000) | st.sampled_from(bits)
                 | st.sampled_from([2**63, 8 * 2**70, 10**30]))
            for _ in pushed
        ]
        pushed, capacity = pushed * repeats, capacity * repeats
        if kind == "ample prefix":
            prefix_pushed, prefix_capacity = draw(ample_rows())
            late = draw(PACKAGE_SIZES.filter(bool))
            pushed = prefix_pushed + [late] + pushed
            capacity = prefix_capacity + [draw(st.integers(0, 8 * late - 1))] + capacity
        vehicles.append((pushed, capacity))
    n = len(vehicles)
    codes = draw(st.lists(st.integers(0, 10**6), min_size=n, max_size=n, unique=True))
    return vehicles, codes


@settings(max_examples=500, deadline=None)
@given(vehicle_queues())
def test_drain_queues_matches_drain_sizes_vehicle_by_vehicle(case):
    vehicles, codes = case
    expected_sent, expected_queued = [], []
    for pushed, capacity in vehicles:
        sent, queued = drain_sizes(pushed, capacity)
        expected_sent += sent
        expected_queued += queued
    pushed = [size for sizes, _ in vehicles for size in sizes]
    capacity = [cap for _, caps in vehicles for cap in caps]
    vehicle = np.repeat(np.array(codes, dtype=np.int64), [len(sizes) for sizes, _ in vehicles])
    sent, queued = drain_queues(
        np.array(pushed, dtype=object), np.array(capacity, dtype=object), vehicle
    )
    assert sent.dtype == queued.dtype == object
    assert (sent.tolist(), queued.tolist()) == (expected_sent, expected_queued)
    if 8 * sum(pushed) < 2**62:
        # In int64, a capacity of 2**62 bits holds every package there is.
        sent, queued = drain_queues(
            np.array(pushed, dtype=np.int64), np.minimum(capacity, 2**62).astype(np.int64), vehicle
        )
        assert sent.dtype == queued.dtype == np.int64
        assert (sent.tolist(), queued.tolist()) == (expected_sent, expected_queued)


def test_drain_queues_moves_a_backlog_one_package_per_row():
    # Every other row sends one 2-byte package of the two pushed meanwhile,
    # so the queue grows by one package per two rows and each package
    # leaves two rows after the one before it.
    pushed = [2] * 12
    capacity = [0, 24] * 6
    sent, queued = drain_queues(np.array(pushed), np.array(capacity), np.zeros(12, dtype=np.int64))
    assert (sent.tolist(), queued.tolist()) == drain_sizes(pushed, capacity)
    assert sent.tolist() == [0, 16] * 6 and queued.tolist()[-1] == 12


@pytest.mark.parametrize("dtype", [np.int64, object])
def test_drain_queues_of_no_rows(dtype):
    empty = np.array([], dtype=dtype)
    sent, queued = drain_queues(empty, empty, np.array([], dtype=np.int64))
    assert sent.dtype == queued.dtype == dtype
    assert sent.tolist() == queued.tolist() == []


def searchsorted_calls(pushed, capacity, vehicle):
    """drain_queues' outputs, and how many np.searchsorted calls it made."""
    calls = []
    searchsorted = np.searchsorted

    def counted(*args, **kwargs):
        calls.append(None)
        return searchsorted(*args, **kwargs)

    with mock.patch.object(np, "searchsorted", counted):
        sent, queued = drain_queues(pushed, capacity, vehicle)
    return sent, queued, len(calls)


def test_drain_queues_work_does_not_grow_with_the_backlog():
    # 4 vehicles of 3600 rows each push 2 bytes per row and send 24 bits
    # every other row: each queue grows to 1800 packages and every package
    # waits for the one before it.  The drain makes at most one search per
    # row of the longest vehicle, and none for the same rows with room for
    # everything, where no package waits.
    rows = 3600
    pushed = np.full(4 * rows, 2, dtype=np.int64)
    capacity = np.tile(np.array([0, 24], dtype=np.int64), 2 * rows)
    vehicle = np.repeat(np.arange(4, dtype=np.int64), rows)
    sent, queued, backlog_calls = searchsorted_calls(pushed, capacity, vehicle)
    ample_sent, ample_queued, ample_calls = searchsorted_calls(
        pushed, np.full_like(capacity, 1000), vehicle
    )
    assert backlog_calls <= rows + 2
    assert ample_calls == 0
    assert ample_sent.tolist() == [16] * (4 * rows) and ample_queued.tolist() == [0] * (4 * rows)
    expected_sent, expected_queued = drain_sizes([2] * rows, [0, 24] * (rows // 2))
    assert sent.tolist() == expected_sent * 4 and queued.tolist() == expected_queued * 4
    assert max(expected_queued) == 1800 * 2


def test_a_day_long_vehicle_with_room_for_every_package_takes_no_drain_step():
    # One vehicle of 86,400 one-second rows whose packages all fit: no
    # package waits, so the drain makes no search at all.
    rows = 86_400
    pushed = np.tile(np.array([112, 0, 224], dtype=np.int64), rows // 3)
    capacity = np.full(rows, 8 * 224, dtype=np.int64)
    sent, queued, calls = searchsorted_calls(pushed, capacity, np.zeros(rows, dtype=np.int64))
    assert calls == 0
    assert sent.tolist() == (8 * pushed).tolist() and not queued.any()


QUEUE_OPS = st.lists(
    st.tuples(st.sampled_from(["push_size", "push", "send"]), st.integers(0, 4000)),
    max_size=60,
)


@settings(max_examples=300, deadline=None)
@given(QUEUE_OPS)
def test_queue_conservation_under_random_capacities(ops):
    queue = TransmitQueue("v")
    model = []  # (size, package id or None), head first
    pushed = sent_bytes = 0
    for i, (op, value) in enumerate(ops):
        if op == "push_size":
            entry = (value + 1, None)
            queue.push_size(entry[0])
        elif op == "push":
            pkg = package("v", i, records(value % 40, t=float(i)))
            entry = (pkg.payload_bytes, pkg.package_id)
            queue.push(pkg)
        else:
            capacity = value * 8
            sent, remaining = try_transmit(queue, capacity)
            # Whole packages leave from the head until the first that does not fit.
            expected = []
            budget = capacity
            while model and model[0][0] * 8 <= budget:
                budget -= model[0][0] * 8
                expected.append(model.pop(0))
            assert sent == [pid for _, pid in expected]
            assert remaining == budget
            assert not model or model[0][0] * 8 > remaining
            sent_bytes += sum(size for size, _ in expected)
            assert len(queue) == len(model)
            assert pushed == sent_bytes + queue.queued_bytes
            continue
        model.append(entry)
        pushed += entry[0]
    assert queue.queued_bytes == sum(size for size, _ in model)
    assert pushed == sent_bytes + queue.queued_bytes


def test_pseudonym_is_keyed():
    assert pseudonymize("veh1", "key-a") != pseudonymize("veh1", "key-b")
    assert pseudonymize("veh1", "key-a") == pseudonymize("veh1", "key-a")
    assert pseudonymize("veh1", "key-a") < 2**64


def test_aggregated_package_duration():
    config = PackagingConfig(aggregate_ticks=10)
    recs = [ChannelRecord(1, float(t), float(t)) for t in range(10)]
    pkg = package("v", 0, recs, config, duration=10)
    assert pkg.duration == 10
    assert pkg.payload_bytes == 64 + 16 * 10


# The CVIM wire layout that the default sizes model, little-endian: a header
# of package id digest, pseudonym, interval start (u32 s), duration (u8 s),
# record count (u16), privacy level (u8), owner, checksum and 8 reserved
# bytes; then per record the channel id (u16), its offset into the interval
# (u16 ms), its value (f64) and 4 reserved bytes.
WIRE_HEADER = "<16sQIBHB16sQ8x"
WIRE_RECORD = "<HHd4x"


@pytest.mark.parametrize("n_extra_channels", [0, 2])
@pytest.mark.parametrize("ticks", [1, 65])
def test_size_model_matches_the_wire_at_default_sizes(n_extra_channels, ticks):
    # engine.run sizes a package that buffers `ticks` ticks as
    # payload_bytes(records_per_tick * ticks): at the default sizes, the
    # wire's header and one wire record per channel record.
    config = PackagingConfig(n_extra_channels=n_extra_channels, aggregate_ticks=ticks)
    start = 130
    recs = [
        rec
        for t in range(start, start + ticks)
        for rec in tick_records(t, 12.5 * t, -3.0, 20.0, config)
    ]
    pkg = package("v", start, recs, config, duration=ticks)
    n_records = config.records_per_tick * ticks
    assert len(recs) == n_records
    assert pkg.payload_bytes == config.payload_bytes(n_records)
    wire_bytes = struct.calcsize(WIRE_HEADER) + n_records * struct.calcsize(WIRE_RECORD)
    assert pkg.payload_bytes == wire_bytes


def test_packaging_config_validation():
    with pytest.raises(ConfigError):
        PackagingConfig(aggregate_ticks=0)
    with pytest.raises(ConfigError):
        PackagingConfig(aggregate_ticks=100)
    with pytest.raises(ConfigError):
        PackagingConfig(header_bytes=0)
    with pytest.raises(ConfigError):
        PackagingConfig(pseudonym_key="k" * 65)


@pytest.mark.parametrize(
    "sizes",
    [
        {"header_bytes": 2**60 - 48},
        {"record_bytes": 2**60},
        {"n_extra_channels": 2**60, "aggregate_ticks": 2},
    ],
)
def test_packaging_config_rejects_package_bits_beyond_int64(sizes):
    with pytest.raises(ConfigError) as err:
        PackagingConfig(**sizes)
    for key, value in sizes.items():
        assert f"cvim.{key}={value}" in str(err.value)
    assert str(err.value).endswith("bits, beyond 64 bits")
    # One byte less fits: 8 * (header + 16 * 3) is 2**63 - 8.
    assert PackagingConfig(header_bytes=2**60 - 49).payload_bytes(3) * 8 == 2**63 - 8


def test_owner_too_long():
    # PackageMeta keeps its own check; the config is checked when built.
    with pytest.raises(ValidationError):
        PackageMeta(owner="x" * 17)
    with pytest.raises(ConfigError, match="cvim.owner must be at most 16 bytes"):
        PackagingConfig(owner="x" * 17)
    assert PackagingConfig(owner="x" * 16).owner == "x" * 16


def test_count_packages_constant_residence():
    rows = [(t, "v1", "cellA", 1) for t in range(242)]
    assert count_packages_per_cell(table(rows)) == {"cellA": 242.0}


def test_count_packages_absent_cell_excluded():
    rows = [(t, "v1", "cellA", 1) for t in range(5)]
    result = count_packages_per_cell(table(rows))
    assert "cellB" not in result


def test_count_packages_crossing_speed():
    # 1500 m attachment region at a constant 25 m/s -> 60 ticks
    rows = [(t, "v1", "mid", 1) for t in range(100, 160)]
    assert count_packages_per_cell(table(rows)) == {"mid": 60.0}


def test_count_packages_mean_over_traversals():
    rows = [(t, "v1", "a", 1) for t in range(10)]
    rows += [(t, "v2", "a", 1) for t in range(5, 25)]
    assert count_packages_per_cell(table(rows)) == {"a": 15.0}


def test_count_packages_splits_on_station_change_and_gap():
    rows = [(t, "v1", "a", 1) for t in range(3)]
    rows += [(t, "v1", "b", 1) for t in range(3, 7)]
    rows += [(t, "v1", "a", 1) for t in range(9, 12)]  # gap at 7-8
    assert count_packages_per_cell(table(rows)) == {"a": 3.0, "b": 4.0}


def test_count_packages_sums_aggregated_rows():
    # aggregate_ticks = 4: a package closes every fourth tick and at departure
    rows = [(t, "v1", "a", int(t % 4 == 3)) for t in range(10)]   # 2 packages
    rows += [(t, "v1", "b", int(t % 4 == 3)) for t in range(10, 14)]  # 1
    rows += [(t, "v2", "a", int(t % 4 == 3 or t == 5)) for t in range(6)]  # 2
    assert count_packages_per_cell(table(rows)) == {"a": 2.0, "b": 1.0}


def traversal_oracle(rows):
    """count_packages_per_cell computed row by row, as a reference."""
    by_vehicle = {}
    for row in rows:
        by_vehicle.setdefault(row[1], []).append(row)
    traversals = {}
    for vid in sorted(by_vehicle):
        run_station, run_packages, prev_t = None, 0, None
        for t, _, sid, generated in sorted(by_vehicle[vid], key=lambda r: r[0]):
            if sid == run_station and prev_t is not None and t == prev_t + 1:
                run_packages += generated
            else:
                if run_station is not None:
                    traversals.setdefault(run_station, []).append(run_packages)
                run_station, run_packages = sid, generated
            prev_t = t
        traversals.setdefault(run_station, []).append(run_packages)
    return {sid: sum(p) / len(p) for sid, p in sorted(traversals.items())}


@settings(max_examples=300, deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, 12), st.sampled_from(["v1", "v2", "v3"]),
              st.sampled_from(["a", "b", ""]), st.integers(0, 3)),
    min_size=1, max_size=40,
))
def test_count_packages_matches_row_oracle(rows):
    # rows in any order, with repeated ticks and gaps
    assert count_packages_per_cell(table(rows)) == traversal_oracle(rows)


def test_count_packages_empty_errors():
    with pytest.raises(ValidationError):
        count_packages_per_cell(table([]))
