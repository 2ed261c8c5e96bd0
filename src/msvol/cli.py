"""Command-line workflow: ingest a CSV of returns (or price levels), score a
grid of discount factors, and emit the report, per-step volatility and
correlation series, Bayes-factor series, and a run manifest.

Exit codes, decided in `main` alone from the error `run` or `run_simulate`
raises: 0 success; 2 data or file error (DataError, printed as "error:
<input>: <message>", or OSError); 3 numerical failure (NotPositiveDefinite,
"numerical failure: <message>"); 1 configuration error (any other
MsvolError).  All files are written only after the whole computation
succeeds, so a failed run leaves no partial outputs.
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
from .diagnostics import FLAT_DAY_POLICIES, check_default_prior, check_grid, grid_search
from .errors import (DataError, DomainError, MissingValue, MsvolError,
                     NonPositiveLevel, NotPositiveDefinite, ParseError)
from .simulator import SimConfig, simulate_path

DEFAULT_DELTAS = (0.7, 0.75, 0.8, 0.85, 0.9, 0.95)
ROW_BLOCK = 256   # rows formatted per write; bounds the text held in memory


@dataclass
class ReturnsFrame:
    """Ingested log-returns: column labels, row labels, and the value matrix."""

    labels: list
    times: list
    values: np.ndarray
    lines: np.ndarray = None   # the file line (1-based) of each row of values


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

    One pass: blank lines are skipped, each data row is checked and parsed as
    it is read, and the first error in file order is raised.  A non-numeric
    first cell in the first data row makes its column an opaque time label.
    "levels" mode then takes log differences (one fewer row, each on the
    later price's line).  Messages name a cell by its file line and leave
    the path to the caller.
    """
    from array import array   # here: a --simulate run reads no CSV
    if mode not in ("levels", "returns"):
        raise DomainError(f"mode must be 'levels' or 'returns', got {mode}")
    header, times = None, []
    values, lines = array("d"), array("q")   # lines: the file line of each row
    try:
        # utf-8-sig drops the byte-order mark of an Excel "CSV UTF-8" export
        with open(path, "r", encoding="utf-8-sig") as fh:
            for n, ln in enumerate(fh, 1):
                if ln.strip() == "":
                    continue
                row = ln.split(",")
                if header is None:
                    header = [c.strip() for c in row]
                    continue
                if len(row) != len(header):
                    raise ParseError(f"row {n} has {len(row)} fields, "
                                     f"expected {len(header)}")
                if not lines:
                    # first = 1 when the first data row makes column 0 a time label
                    first = 0
                    try:
                        float(row[0])
                    except ValueError:
                        first = int(row[0].strip().lower() not in ("nan", "na", ""))
                    if first == len(header):
                        raise ParseError("no data columns")
                values.extend([_parse_cell(row[c], n, header[c])
                               for c in range(first, len(header))])
                times.append(row[0].strip() if first else len(lines) + 1)
                lines.append(n)
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text ({exc.reason})") from None
    if not lines:
        raise ParseError("need a header row and at least one data row")
    labels = header[first:]
    values, lines = np.array(values).reshape(len(lines), -1), np.array(lines)
    if mode == "levels":
        if np.any(values <= 0.0):
            i, j = np.argwhere(values <= 0.0)[0]
            raise NonPositiveLevel(f"level <= 0 at row {lines[i]}, column "
                                   f"{labels[j]} in levels mode")
        values = np.diff(np.log(values), axis=0)
        times, lines = times[1:], lines[1:]
    return ReturnsFrame(labels=labels, times=times, values=values, lines=lines)


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


def _delta_text(d):
    """A delta as names and keys spell it: unlike %g, no two deltas share it,
    and up to 6 significant digits it is the same text."""
    return repr(float(d))


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
            post = run.factor_rows(lo + 1, hi + 1)   # R_lo..R_{hi-1}
            m = run.cfg.posterior_mean_coef * (post.transpose(0, 2, 1) @ post)[:, rows, cols]
            sd = np.sqrt(m[:, :p])
            m[:, :p] = sd
            m[:, p:] /= sd[:, iu] * sd[:, ju]
            return m

        path = os.path.join(out_dir, f"series_delta_{_delta_text(d)}.csv")
        _write_table(path, head, frame.times, vol_corr)
        paths.append(path)
    return paths


def _return_bound(deltas, p, window):
    """Largest |return| below which the grid's scale matrices stay finite.

    Each term of `growth` bounds, in units of M^2 for returns below M, a sum
    the grid computes:
    - the diagonal of S_t = S_0 k^-t + sum_j k^-j y y', a weighted mean of
      S_0 and (n+p-1) M^2 with n = 1/(1-delta), as the weights k^-j sum to
      k/(k-1) = n+p-1;
    - the default prior S_0 = (n-2) v I, where v is the mean of p sample
      variances of w burn-in rows, each at most w/(w-1) M^2;
    - the w squares in a column's variance and the p variances in v.
    The largest delta has the largest n.
    """
    n = 1.0 / (1.0 - max(deltas))
    w = max(window, 2)
    growth = max(n + p - 1.0, w, w / (w - 1.0) * max(n - 2.0, p))
    return math.sqrt(sys.float_info.max / growth)


def run(args):
    """Execute one analysis run from the parsed options of `build_parser`.

    Raises on every failure; returns 0.
    """
    timings = {}
    t_total = time.perf_counter()
    try:
        deltas = [float(d) for d in args.deltas.split(",") if d.strip() != ""]
    except ValueError:
        raise DomainError(f"cannot parse --deltas {args.deltas!r}") from None
    deltas = check_grid(deltas, args.baseline)
    if args.scale <= 0.0 or not math.isfinite(args.scale):
        raise DomainError(f"scale must be positive and finite, got {args.scale}")
    check_default_prior(args.prior_window)

    t0 = time.perf_counter()
    frame = load_csv(args.input, args.mode)
    timings["load_seconds"] = time.perf_counter() - t0
    with np.errstate(over="ignore"):
        values = frame.values * args.scale
    bound = _return_bound(deltas, values.shape[1],
                          min(args.prior_window, values.shape[0]))
    bad = np.argwhere(np.abs(values) >= bound)
    if bad.size:
        i, j = bad[0]
        scaled = f" after --scale {args.scale:g}" if args.scale != 1.0 else ""
        raise DataError(f"the return at row {frame.lines[i]}, column "
                        f"{frame.labels[j]} is {values[i, j]:g}{scaled}; the "
                        f"scale matrix overflows unless every |return| < {bound:.4g}")
    if values.shape[0] < 2:
        raise DataError(f"need at least 2 returns for the default prior, "
                        f"got {values.shape[0]}")

    t0 = time.perf_counter()
    report = grid_search(values, deltas, args.baseline,
                         prior_window=args.prior_window,
                         flat_day=args.flat_day)
    timings["grid_seconds"] = time.perf_counter() - t0
    if args.baseline not in report.runs:
        raise NotPositiveDefinite("baseline row failed" + "".join(
            f"\n  delta={_delta_text(r.delta)}: {r.error}"
            for r in report.rows if not r.ok))

    t0 = time.perf_counter()
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "grid_report.tsv"), "w",
              encoding="utf-8") as fh:
        fh.write(report.to_tsv())
    with open(os.path.join(args.out, "grid_report.json"), "w",
              encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    series_paths = emit_series(args.out, frame, report.runs)
    cols = sorted(report.h_series)
    _write_table(os.path.join(args.out, "bayes_factors.csv"),
                 ["time"] + [f"H_{_delta_text(d)}" for d in cols], frame.times,
                 lambda lo, hi: np.column_stack([report.h_series[d][lo:hi]
                                                 for d in cols]))
    timings["write_seconds"] = time.perf_counter() - t0
    timings["total_seconds"] = time.perf_counter() - t_total

    manifest = {
        "version": __version__,
        "numba_enabled": NUMBA_ENABLED,
        "input": args.input,
        "mode": args.mode,
        "scale_applied": args.scale,
        "n_observations": int(values.shape[0]),
        "n_series": int(values.shape[1]),
        "labels": frame.labels,
        "deltas": deltas,
        "baseline_delta": args.baseline,
        "prior_window": args.prior_window,
        "flat_day": args.flat_day,
        "seed": args.seed,
        "best_delta": report.best_delta(),
        "flat_day_counts": {_delta_text(r.delta): r.flat_count
                            for r in report.rows if r.ok},
        "failed_rows": {_delta_text(r.delta): r.error
                        for r in report.rows if not r.ok},
        "timings": {k: round(v, 6) for k, v in timings.items()},
        "outputs": sorted(
            ["grid_report.tsv", "grid_report.json", "bayes_factors.csv"]
            + [os.path.basename(s) for s in series_paths]
        ),
    }
    with open(os.path.join(args.out, "manifest.json"), "w",
              encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(report.to_tsv(), end="")
    print(f"wrote {args.out} "
          f"(grid {timings['grid_seconds']:.2f}s, total {timings['total_seconds']:.2f}s)")
    return 0


def run_simulate(sim_arg, out_dir, seed):
    """Simulator mode: write a returns CSV the analysis mode can ingest; returns 0."""
    try:
        parts = sim_arg.split(",")
        if len(parts) != 3:
            raise ValueError
        p, n, delta = int(parts[0]), int(parts[1]), float(parts[2])
    except ValueError:
        raise DomainError(f"--simulate expects p,N,delta, got {sim_arg!r}") from None
    # np.eye(0) for p < 1, so new_config rejects the dimension
    cfg = SimConfig(p=p, delta=delta, N=n, prior_scale=np.eye(max(p, 0)), seed=seed)
    path = simulate_path(cfg)
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
    parser.add_argument("--deltas", default=",".join(map(_delta_text, DEFAULT_DELTAS)),
                        help="comma-separated discount factors in (2/3, 1)")
    parser.add_argument("--baseline", type=float, default=0.95,
                        help="baseline discount factor for Bayes factors")
    parser.add_argument("--prior-window", type=int, default=30,
                        help="burn-in length for the default prior scale")
    parser.add_argument("--flat-day", choices=FLAT_DAY_POLICIES, default="floor",
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
    """Run the command line; return the exit status the module docstring maps."""
    args = build_parser().parse_args(argv)
    try:
        if args.simulate is not None:
            return run_simulate(args.simulate, args.out, args.seed)
        if args.input is None:
            raise DomainError("--input is required unless --simulate is given")
        return run(args)
    except DataError as exc:
        print(f"error: {args.input}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NotPositiveDefinite as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except MsvolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
