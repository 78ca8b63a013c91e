"""Command-line pipeline: gen-traces -> simulate -> analyze, plus plan.

Stages exchange plain files (trace CSV, station CSV, results CSV) so every
intermediate artifact is inspectable and reruns are reproducible.  Exit
codes: 0 success, 2 configuration error, 3 input-data error, 4 internal
error.  Diagnostics go to stderr; `plan` prints machine-readable JSON on
stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from . import analysis, cvim, engine, mobility, radio
from .errors import ConfigError, ValidationError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_INTERNAL = 4


def _common_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="flat section.key = value config file")
    sub.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="SECTION.KEY=VALUE",
        help="override a config value (repeatable, applied after the file)",
    )
    sub.add_argument("--seed", type=int, help="override sim.seed")


def _load_config(args: argparse.Namespace) -> engine.SimConfig:
    overrides = list(args.overrides)
    if args.seed is not None:
        overrides.append(f"sim.seed={args.seed}")
    if args.config:
        return engine.load_config(args.config, overrides)
    return engine.parse_config_text("", overrides)


def _read(path: str | Path, reader):
    """reader applied to the UTF-8 text file at path; text that is not UTF-8 is bad input.

    Lines end at LF only, as they do in a StringIO, so a lone CR is data.
    """
    try:
        with open(path, encoding="utf-8", newline="\n") as fh:
            return reader(fh)
    except UnicodeDecodeError as exc:
        # exc.start counts from the decoder's current block, not the file's start.
        raise ValidationError(
            f"{path} is not UTF-8 text: byte {exc.object[exc.start]:#04x} ({exc.reason})"
        ) from None


def _cmd_gen_traces(args: argparse.Namespace) -> int:
    config = _load_config(args)
    traces = mobility.generate_traces(config.road_spec(), config.krauss)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        mobility.emit_trace_csv(traces, fh)
    print(f"wrote {len(traces.vehicle_id.names)} traces to {args.out}", file=sys.stderr)
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _load_config(args)
    traces = _read(args.traces, mobility.parse_trace_csv)
    stations = _read(args.stations, radio.parse_stations_csv)
    table = engine.run(config, traces, stations)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "results.csv", "w", encoding="utf-8", newline="") as fh:
        engine.write_results_csv(table, fh)
    with open(out_dir / "summary.json", "w", encoding="utf-8") as fh:
        engine.write_summary_json(engine.summarize(config, table), fh)
    print(f"wrote {len(table)} tick results to {out_dir}", file=sys.stderr)
    return EXIT_OK


def _scenario_label(path: Path, explicit: str | None) -> str:
    if explicit:
        return explicit
    if path.name == "results.csv":
        return path.parent.name or path.stem
    return path.stem


def _cmd_analyze(args: argparse.Namespace) -> int:
    labels = list(args.labels or [])
    if labels and len(labels) != len(args.results):
        raise ConfigError("--label must be given once per results file")
    paths = [Path(p) for p in args.results]
    labels = [_scenario_label(p, labels[i] if labels else None) for i, p in enumerate(paths)]
    for label in labels:
        if "/" in label:
            raise ConfigError(f"scenario label {label!r} contains '/', so it cannot name a file")
        if labels.count(label) > 1:
            raise ConfigError(f"scenario label {label!r} names more than one results file")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # The longest file name a label makes must fit in the out-dir.
    name_max = os.pathconf(out_dir, "PC_NAME_MAX")
    for label in labels:
        if len(f"cell_packages_{label}.csv".encode()) > name_max:
            raise ConfigError(
                f"scenario label {label!r} makes file names longer than {name_max} bytes"
            )
    all_stats: list[analysis.RateStats] = []
    for i, (path, label) in enumerate(zip(paths, labels)):
        table = _read(path, engine.read_results_csv)
        if not len(table):
            raise ValidationError(f"results file {path} holds no tick rows")
        bad = np.flatnonzero(~np.isfinite(table.rate_bps))
        if bad.size:
            row = bad[0]
            names, codes = table.vehicle_id
            raise ValidationError(
                f"results file {path}: vehicle {names[codes[row]]!r} at t={table.t[row]}: "
                f"rate {float(table.rate_bps[row])!r} bit/s is not finite"
            )
        rates = analysis.sorted_rates(table.rate_bps)
        all_stats.append(analysis.rate_stats(rates, label))
        suffix = "" if i == 0 else f"_{label}"
        with open(out_dir / f"cdf{suffix}.csv", "w", encoding="utf-8", newline="") as fh:
            analysis.write_cdf_csv(analysis.cdf(rates), fh)
        per_cell = cvim.count_packages_per_cell(table)
        with open(
            out_dir / f"cell_packages{suffix}.csv", "w", encoding="utf-8", newline=""
        ) as fh:
            analysis.write_cell_packages_csv(per_cell, fh)
    comparison = (
        analysis.compare_scenarios(all_stats[0], all_stats[1])
        if len(all_stats) >= 2
        else None
    )
    with open(out_dir / "stats.json", "w", encoding="utf-8") as fh:
        analysis.write_stats_json(all_stats, comparison, fh)
    print(f"analyzed {len(all_stats)} scenario(s) into {out_dir}", file=sys.stderr)
    return EXIT_OK


def _cmd_plan(args: argparse.Namespace) -> int:
    config = _load_config(args)
    plan = analysis.plan_rb(args.rate, args.snr, args.speed, config.rate)
    json.dump(
        {
            "required_rate_bps": plan.required_rate,
            "snr_db": plan.snr_db,
            "speed_mps": plan.speed,
            "rb_needed": plan.rb_needed,
        },
        sys.stdout,
    )
    print()
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="car2cloud",
        description="Deterministic car-to-cloud LTE uplink traffic simulator",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    gen = subparsers.add_parser("gen-traces", help="generate synthetic 1 Hz traces")
    _common_args(gen)
    gen.add_argument("--out", required=True, help="output trace CSV path")
    gen.set_defaults(func=_cmd_gen_traces)

    sim = subparsers.add_parser("simulate", help="run the uplink tick loop")
    _common_args(sim)
    sim.add_argument("--traces", required=True, help="trace CSV input")
    sim.add_argument("--stations", required=True, help="base-station CSV input")
    sim.add_argument("--out-dir", required=True, help="directory for results.csv + summary.json")
    sim.set_defaults(func=_cmd_simulate)

    ana = subparsers.add_parser("analyze", help="derive statistics from results")
    ana.add_argument("results", nargs="+", help="results.csv file(s), one per scenario")
    ana.add_argument("--out-dir", required=True)
    ana.add_argument(
        "--label",
        dest="labels",
        action="append",
        help="scenario label per results file (default: parent directory name)",
    )
    ana.set_defaults(func=_cmd_analyze)

    plan = subparsers.add_parser("plan", help="resource blocks needed for a demand")
    _common_args(plan)
    plan.add_argument("--rate", type=float, required=True, help="required rate, bit/s")
    plan.add_argument("--snr", type=float, required=True, help="expected SNR, dB")
    plan.add_argument("--speed", type=float, required=True, help="vehicle speed, m/s")
    plan.set_defaults(func=_cmd_plan)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValidationError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError, FileExistsError) as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # exit-code contract: anything else is internal
        print(f"internal error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
