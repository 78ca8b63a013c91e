"""Output checks and deterministic workload counters, read from the files.

Every check is a (name, ok, detail) triple; failed checks count into the
benchmark's error rate.  The counters depend only on the program's outputs,
so equal inputs must give equal counters on every run and every machine.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from workloads import Plan

Check = tuple[str, bool, str]


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def digests(plan: Plan) -> dict[str, str]:
    """SHA-256 of every trace CSV, results.csv, summary.json and stats.json,
    keyed by path relative to the pass's work directory."""
    base = plan.stats_dir.parent
    files = [f for s in plan.scenarios for f in (s.traces, s.results, s.summary)]
    files.append(plan.stats)
    return {str(f.relative_to(base)): sha256(f) if f.exists() else "missing" for f in files}


@dataclass
class ResultScan:
    rows: int = 0
    handovers: int = 0
    outage_ticks: int = 0
    max_cell_load: int = 0
    queue_hwm_bytes: int = 0
    packages: int = 0
    bits_sent: int = 0
    final_queue_bytes: int = 0


def scan_results(path: Path, snr_min_db: float) -> ResultScan:
    """One pass over results.csv (rows ordered by tick, then vehicle id)."""
    scan = ResultScan()
    serving: dict[str, str] = {}
    last_queue: dict[str, int] = {}
    cell_load: Counter = Counter()
    with open(path, encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            t, vid, station, snr_db, _, _, packages, bits, queue = line.rstrip("\n").split(",")
            scan.rows += 1
            if serving.get(vid, station) != station:
                scan.handovers += 1
            serving[vid] = station
            if float(snr_db) < snr_min_db:
                scan.outage_ticks += 1
            cell_load[t, station] += 1
            scan.packages += int(packages)
            scan.bits_sent += int(bits)
            last_queue[vid] = int(queue)
            scan.queue_hwm_bytes = max(scan.queue_hwm_bytes, int(queue))
    scan.max_cell_load = max(cell_load.values(), default=0)
    scan.final_queue_bytes = sum(last_queue.values())
    return scan


def count_lines(path: Path) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for _ in fh) - 1


def check_outputs(plan: Plan, reference: dict[str, str] | None) -> tuple[list[Check], dict]:
    """Invariant checks on one pass's outputs, plus the workload counters.

    Bytes conservation: each row adds its channel records to some package
    and each package carries one header, so
    header * packages + record * channels * rows = bits_sent / 8 + final queue.
    """
    checks: list[Check] = []
    totals = ResultScan()
    vehicle_seconds = 0
    generated_bytes = 0
    try:
        stats = json.loads(plan.stats.read_text(encoding="utf-8"))["scenarios"]
    except (OSError, ValueError, KeyError) as exc:
        stats = {}
        checks.append(("stats.json readable", False, str(exc)))
    for s in plan.scenarios:
        try:
            summary = json.loads(s.summary.read_text(encoding="utf-8"))
            config = summary["config"]
            scan = scan_results(s.results, float(config["linkrate.snr_min_db"]))
            samples = count_lines(s.traces)
        except (OSError, ValueError, KeyError) as exc:
            checks.append((f"{s.label} outputs readable", False, str(exc)))
            continue
        channels = 3 + int(config["cvim.n_extra_channels"])
        generated = (int(config["cvim.header_bytes"]) * scan.packages
                     + int(config["cvim.record_bytes"]) * channels * scan.rows)
        accounted = scan.bits_sent // 8 + scan.final_queue_bytes
        sample_count = stats.get(s.label, {}).get("sample_count")
        checks += [
            (f"{s.label} summary n_rows", summary.get("n_rows") == scan.rows,
             f"{summary.get('n_rows')} vs {scan.rows} rows"),
            (f"{s.label} stats sample_count", sample_count == scan.rows,
             f"{sample_count} vs {scan.rows} rows"),
            (f"{s.label} one row per trace sample", samples == scan.rows,
             f"{samples} samples vs {scan.rows} rows"),
            (f"{s.label} bytes conservation",
             scan.bits_sent % 8 == 0 and generated == accounted,
             f"generated {generated} B, sent + queued {accounted} B"),
        ]
        vehicle_seconds += samples
        generated_bytes += generated
        totals.rows += scan.rows
        totals.handovers += scan.handovers
        totals.outage_ticks += scan.outage_ticks
        totals.bits_sent += scan.bits_sent
        totals.max_cell_load = max(totals.max_cell_load, scan.max_cell_load)
        totals.queue_hwm_bytes = max(totals.queue_hwm_bytes, scan.queue_hwm_bytes)
    if reference is not None:
        actual = digests(plan)
        for name in sorted(reference):
            checks.append((f"digest {name}", actual.get(name) == reference[name],
                           actual.get(name, "not written")))
    counters = {
        "engine.rows": totals.rows,
        "mobility.vehicle_seconds": vehicle_seconds,
        "radio.handovers": totals.handovers,
        "linkrate.outage_ticks": totals.outage_ticks,
        "scheduler.max_cell_load": totals.max_cell_load,
        "cvim.queue_hwm_bytes": totals.queue_hwm_bytes,
        "cvim.delivered_ratio": totals.bits_sent / (8 * generated_bytes) if generated_bytes else 0.0,
    }
    return checks, counters
