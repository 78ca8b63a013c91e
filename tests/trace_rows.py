"""Test helper: build a TraceTable from sample rows."""

import numpy as np

from car2cloud.mobility import TraceTable, id_codes


def trace_table(rows) -> TraceTable:
    """TraceTable of (vehicle_id, t, x, y, speed) rows, kept in the order given."""
    rows = list(rows)
    vid, t, x, y, speed = zip(*rows) if rows else [()] * 5
    return TraceTable(
        vehicle_id=id_codes(vid),
        t=np.array(t, dtype=np.int64),
        x=np.array(x, dtype=np.float64),
        y=np.array(y, dtype=np.float64),
        speed=np.array(speed, dtype=np.float64),
    )
