"""Command-line workflow: ingest a CSV of returns (or price levels), score a
grid of discount factors, and emit the report, per-step volatility and
correlation series, Bayes-factor series, and a run manifest.

Exit codes: 0 success, 1 configuration error, 2 data error, 3 numerical
failure.  All files are written only after the whole computation succeeds,
so a failed run leaves no partial outputs.
"""

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import NUMBA_ENABLED, __version__
from .diagnostics import grid_search
from .errors import (DataError, DomainError, MissingValue, MsvolError,
                     NonPositiveLevel, NotPositiveDefinite, ParseError,
                     SingularityError)
from .simulator import SimConfig, simulate_path

DEFAULT_DELTAS = (0.7, 0.75, 0.8, 0.85, 0.9, 0.95)
ROW_BLOCK = 256   # rows formatted per write; bounds the text held in memory


@dataclass
class ReturnsFrame:
    """Ingested log-returns: column labels, row labels, and the value matrix."""

    labels: list
    times: list
    values: np.ndarray


@dataclass
class RunSpec:
    """Everything one analysis run needs."""

    input_path: str
    mode: str = "returns"                    # "levels" or "returns"
    deltas: tuple = DEFAULT_DELTAS
    baseline_delta: float = 0.95
    prior_window: int = 30
    flat_day: str = "floor"
    out_dir: str = "."
    seed: int = 0
    scale: float = 1.0


def _parse_cell(text, row, col):
    text = text.strip()
    if text == "" or text.lower() in ("nan", "na"):
        raise MissingValue(f"missing value at row {row}, column {col}")
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"cannot parse {text!r} at row {row}, column {col}") from None
    if math.isnan(value):
        raise MissingValue(f"missing value at row {row}, column {col}")
    if math.isinf(value):
        raise ParseError(f"non-finite value {text!r} at row {row}, column {col}")
    return value


def load_csv(path, mode):
    """Read a comma-separated file with a header row into a ReturnsFrame.

    If the first column's body is non-numeric it is carried through as an
    opaque time label.  In "levels" mode columns are converted to log
    differences (one fewer row); "returns" mode is a passthrough.
    """
    if mode not in ("levels", "returns"):
        raise DomainError(f"mode must be 'levels' or 'returns', got {mode}")
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n").rstrip("\r") for ln in fh]
    lines = [ln for ln in lines if ln.strip() != ""]
    if len(lines) < 2:
        raise ParseError(f"{path}: need a header row and at least one data row")
    header = [c.strip() for c in lines[0].split(",")]
    body = [ln.split(",") for ln in lines[1:]]
    width = len(header)
    for i, row in enumerate(body):
        if len(row) != width:
            raise ParseError(f"row {i + 2} has {len(row)} fields, expected {width}")
    # first column is a time label when the first data row's cell is
    # non-numeric; later non-numeric cells are parse errors, not a signal
    # to reinterpret the column
    first_is_time = False
    cell = body[0][0].strip()
    try:
        float(cell)
    except ValueError:
        if cell.lower() not in ("nan", "na", ""):
            first_is_time = True
    if first_is_time:
        times = [row[0].strip() for row in body]
        labels = header[1:]
        data_cols = range(1, width)
    else:
        times = list(range(1, len(body) + 1))
        labels = header
        data_cols = range(width)
    if not labels:
        raise ParseError(f"{path}: no data columns")
    values = np.empty((len(body), len(labels)))
    for i, row in enumerate(body):
        for j, c in enumerate(data_cols):
            values[i, j] = _parse_cell(row[c], i + 2, header[c] if c < len(header) else c)
    if mode == "levels":
        if np.any(values <= 0.0):
            i, j = np.argwhere(values <= 0.0)[0]
            raise NonPositiveLevel(
                f"level <= 0 at row {i + 2}, column {labels[j]} in levels mode"
            )
        values = np.diff(np.log(values), axis=0)
        times = times[1:]
    return ReturnsFrame(labels=labels, times=times, values=values)


def _write_table(path, header, times, values):
    """Write a CSV: `header`, then one `time,v1,...,vm` row per entry of `times`.

    `values(lo, hi)` returns the (hi - lo, m) values of rows lo..hi-1, each
    written with 10 significant digits.  Rows are built and formatted a block
    of ROW_BLOCK at a time, so neither the values nor the text of a whole
    file is held in memory at once.
    """
    fmt = "%s" + ",%.10g" * (len(header) - 1) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, len(times), ROW_BLOCK):
            hi = min(lo + ROW_BLOCK, len(times))
            rows = zip(times[lo:hi], values(lo, hi).tolist())
            fh.write("".join(fmt % (t, *row) for t, row in rows))


def emit_series(out_dir, frame, runs):
    """One CSV per FilterRun in `runs` (delta -> run): volatilities, correlations.

    Columns: time, sigma_<label> for each series (square root of the
    posterior-mean diagonal), rho_<li>_<lj> for each pair (from the
    posterior mean).  One row per observation.
    """
    labels = frame.labels
    p = len(labels)
    iu, ju = np.triu_indices(p, 1)
    rows = np.concatenate([np.arange(p), iu])
    cols = np.concatenate([np.arange(p), ju])
    head = ["time"] + [f"sigma_{la}" for la in labels]
    head += [f"rho_{labels[i]}_{labels[j]}" for i, j in zip(iu, ju)]
    paths = []
    for d in sorted(runs):
        run = runs[d]

        def vol_corr(lo, hi):
            m = run.cfg.posterior_mean_coef * run.scales[lo:hi, rows, cols]
            sd = np.sqrt(m[:, :p])
            m[:, :p] = sd
            m[:, p:] /= sd[:, iu] * sd[:, ju]
            return m

        path = os.path.join(out_dir, f"series_delta_{d:g}.csv")
        _write_table(path, head, frame.times, vol_corr)
        paths.append(path)
    return paths


def run(spec):
    """Execute one analysis run; returns a process exit status."""
    timings = {}
    t_total = time.perf_counter()
    try:
        deltas = sorted(set(float(d) for d in spec.deltas))
        if not deltas:
            raise DomainError("empty discount-factor grid")
        for d in deltas:
            if not 2.0 / 3.0 < d < 1.0:
                raise DomainError(f"discount factor {d} outside (2/3, 1)")
        if float(spec.baseline_delta) not in deltas:
            raise DomainError(f"baseline {spec.baseline_delta} not in grid")
        if spec.scale <= 0.0 or not math.isfinite(spec.scale):
            raise DomainError(f"scale must be positive and finite, got {spec.scale}")
    except MsvolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        t0 = time.perf_counter()
        frame = load_csv(spec.input_path, spec.mode)
        timings["load_seconds"] = time.perf_counter() - t0
        with np.errstate(over="ignore"):
            values = frame.values * spec.scale
        bad = np.argwhere(~np.isfinite(values))
        if bad.size:
            # CSV row as load_csv counts it; in levels mode, the later price
            i, j = bad[0]
            row = i + (3 if spec.mode == "levels" else 2)
            raise DataError(f"--scale {spec.scale:g} makes the value at row "
                            f"{row}, column {frame.labels[j]} non-finite")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"error: {spec.input_path}: {exc}", file=sys.stderr)
        return 2

    try:
        t0 = time.perf_counter()
        report = grid_search(values, deltas, spec.baseline_delta,
                             prior_window=spec.prior_window,
                             flat_day=spec.flat_day)
        timings["grid_seconds"] = time.perf_counter() - t0
    except (DomainError,) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NotPositiveDefinite, SingularityError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3

    ok_rows = [r for r in report.rows if r.ok]
    if not ok_rows or not any(r.delta == float(spec.baseline_delta) for r in ok_rows):
        print("numerical failure: baseline row failed", file=sys.stderr)
        for r in report.rows:
            if not r.ok:
                print(f"  delta={r.delta:g}: {r.error}", file=sys.stderr)
        return 3

    t0 = time.perf_counter()
    os.makedirs(spec.out_dir, exist_ok=True)
    with open(os.path.join(spec.out_dir, "grid_report.tsv"), "w",
              encoding="utf-8") as fh:
        fh.write(report.to_tsv())
    with open(os.path.join(spec.out_dir, "grid_report.json"), "w",
              encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    series_paths = emit_series(spec.out_dir, frame, report.runs)
    cols = [d for d in deltas if d in report.h_series]
    _write_table(os.path.join(spec.out_dir, "bayes_factors.csv"),
                 ["time"] + [f"H_{d:g}" for d in cols], frame.times,
                 lambda lo, hi: np.column_stack([report.h_series[d][lo:hi]
                                                 for d in cols]))
    timings["write_seconds"] = time.perf_counter() - t0
    timings["total_seconds"] = time.perf_counter() - t_total

    manifest = {
        "version": __version__,
        "numba_enabled": NUMBA_ENABLED,
        "input": spec.input_path,
        "mode": spec.mode,
        "scale_applied": spec.scale,
        "n_observations": int(values.shape[0]),
        "n_series": int(values.shape[1]),
        "labels": frame.labels,
        "deltas": deltas,
        "baseline_delta": float(spec.baseline_delta),
        "prior_window": spec.prior_window,
        "flat_day": spec.flat_day,
        "seed": spec.seed,
        "best_delta": report.best_delta(),
        "flat_day_counts": {("%g" % r.delta): r.flat_count for r in ok_rows},
        "failed_rows": {("%g" % r.delta): r.error
                        for r in report.rows if not r.ok},
        "timings": {k: round(v, 6) for k, v in timings.items()},
        "outputs": sorted(
            ["grid_report.tsv", "grid_report.json", "bayes_factors.csv"]
            + [os.path.basename(s) for s in series_paths]
        ),
    }
    with open(os.path.join(spec.out_dir, "manifest.json"), "w",
              encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(report.to_tsv(), end="")
    print(f"wrote {spec.out_dir} "
          f"(grid {timings['grid_seconds']:.2f}s, total {timings['total_seconds']:.2f}s)")
    return 0


def run_simulate(sim_arg, out_dir, seed):
    """Simulator mode: write a returns CSV the analysis mode can ingest."""
    try:
        parts = sim_arg.split(",")
        if len(parts) != 3:
            raise ValueError
        p, n, delta = int(parts[0]), int(parts[1]), float(parts[2])
    except ValueError:
        print(f"error: --simulate expects p,N,delta, got {sim_arg!r}",
              file=sys.stderr)
        return 1
    try:
        cfg = SimConfig(p=p, delta=delta, N=n, prior_scale=np.eye(p), seed=seed)
        path = simulate_path(cfg)
    except MsvolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    os.makedirs(out_dir, exist_ok=True)
    out = os.path.join(out_dir, "simulated_returns.csv")
    path.to_csv(out)
    print(f"wrote {out} ({n} rows, {p} columns, delta={delta:g}, seed={seed})")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser():
    parser = _Parser(
        prog="msvol",
        description="Sequential multivariate stochastic volatility estimation "
                    "with discount-factor model selection.",
    )
    parser.add_argument("--input", metavar="PATH", help="CSV of returns or levels")
    parser.add_argument("--mode", choices=("levels", "returns"), default="returns")
    parser.add_argument("--deltas", default=",".join("%g" % d for d in DEFAULT_DELTAS),
                        help="comma-separated discount factors in (2/3, 1)")
    parser.add_argument("--baseline", type=float, default=0.95,
                        help="baseline discount factor for Bayes factors")
    parser.add_argument("--prior-window", type=int, default=30,
                        help="burn-in length for the default prior scale")
    parser.add_argument("--flat-day", choices=("skip", "floor"), default="floor",
                        help="likelihood policy for zero-return days")
    parser.add_argument("--out", metavar="DIR", default=".",
                        help="output directory")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplier applied to the returns before analysis")
    parser.add_argument("--simulate", metavar="p,N,delta",
                        help="generate a synthetic returns CSV instead of analyzing")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.simulate is not None:
        return run_simulate(args.simulate, args.out, args.seed)
    if args.input is None:
        print("error: --input is required unless --simulate is given",
              file=sys.stderr)
        return 1
    try:
        deltas = tuple(float(x) for x in args.deltas.split(",") if x.strip() != "")
    except ValueError:
        print(f"error: cannot parse --deltas {args.deltas!r}", file=sys.stderr)
        return 1
    spec = RunSpec(input_path=args.input, mode=args.mode, deltas=deltas,
                   baseline_delta=args.baseline, prior_window=args.prior_window,
                   flat_day=args.flat_day, out_dir=args.out, seed=args.seed,
                   scale=args.scale)
    return run(spec)


if __name__ == "__main__":
    sys.exit(main())
