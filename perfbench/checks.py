"""Output checks that do not trust the program under test.

Each check returns a list of failure messages; an operation with any
failure counts as failed.  References come from the benchmark's own code
(`oracle`, the weighted-sum expansion, the generator's flat-day count) and
from values recorded from the program at the commit that defined the
benchmark (`reference.json`, for the seeds it holds).
"""

import json
import os

import numpy as np

import oracle
from workloads import BASELINE, GRID

PREFIX_STEPS = 200        # steps with cond(S) below ~1e8 on every workload
PREFIX_RTOL = 1e-8        # output carries 10 significant digits
EXPANSION_RTOL = 1e-10    # acceptance criterion 2's tolerance
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


def count_rows(path):
    """Data rows of a CSV with one header row."""
    with open(path, "rb") as fh:
        return sum(1 for _ in fh) - 1


def grid_reference(w, seed, returns):
    """What a grid operation must report: oracle values and recorded ones."""
    rows, sigmas = oracle.grid_reference(returns, GRID, keep=PREFIX_STEPS)
    refs = [("oracle", rows)]
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        recorded = json.load(fh).get(w.name, {}).get(str(seed))
    if recorded is not None:
        refs.append(("recorded", {float(d): dict(rows[float(d)], **r)
                                  for d, r in recorded.items()}))
    return {"refs": refs, "sigmas": sigmas}


def _best_candidates(rows):
    """The best delta, and the runner-up when the two tie within tolerance."""
    first, second = sorted(rows, key=lambda d: rows[d]["loglik"], reverse=True)[:2]
    o = rows[first]
    gap = o["loglik"] - rows[second]["loglik"]
    return (first, second) if gap <= oracle.tolerances(o["cond"])[0] * o["abs_terms"] \
        else (first,)


def _close_log_ratio(a, b, bound):
    return a > 0 and b > 0 and abs(np.log(a / b)) <= bound


def check_grid(w, out_dir, status, ref, flat_injected=None):
    """Files, row counts, and the report's numbers against the references."""
    series = [f"series_delta_{d:g}.csv" for d in GRID]
    expected = ["grid_report.tsv", "grid_report.json", "bayes_factors.csv",
                "manifest.json"] + series
    fails = [] if status == 0 else [f"exit status {status}"]
    missing = [f for f in expected if not os.path.isfile(os.path.join(out_dir, f))]
    if missing:
        return fails + [f"missing outputs {missing}"]
    for f in series + ["bayes_factors.csv"]:
        n = count_rows(os.path.join(out_dir, f))
        if n != w.n:
            fails.append(f"{f} has {n} rows, expected {w.n}")
    if count_rows(os.path.join(out_dir, "grid_report.tsv")) != len(GRID):
        fails.append("grid_report.tsv row count")
    with open(os.path.join(out_dir, "grid_report.json"), encoding="utf-8") as fh:
        rows = {r["delta"]: r for r in json.load(fh)["rows"]}
    with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
        best = json.load(fh)["best_delta"]
    if sorted(rows) != list(GRID) or any(r["error"] for r in rows.values()):
        return fails + ["grid rows missing or failed"]
    if rows[BASELINE]["mean_h"] != 0.0:
        fails.append(f"baseline mean H is {rows[BASELINE]['mean_h']!r}, not 0")
    for name, ref_rows in ref["refs"]:
        for d in GRID:
            r, o = rows[d], ref_rows[d]
            tol_l, tol_m = oracle.tolerances(o["cond"])
            if not abs(r["loglik"] - o["loglik"]) <= tol_l * o["abs_terms"]:
                fails.append(f"delta {d}: LogL {r['loglik']} vs {name} {o['loglik']}")
            if not _close_log_ratio(r["mmsse"], o["mmsse"], tol_m):
                fails.append(f"delta {d}: MMSSE {r['mmsse']} vs {name} {o['mmsse']}")
        if best not in _best_candidates(ref_rows):
            fails.append(f"best delta {best} is not the {name} best")
    if flat_injected is not None:
        for d in GRID:
            if rows[d]["flat_count"] != flat_injected:
                fails.append(f"delta {d}: flat_count {rows[d]['flat_count']} "
                             f"!= {flat_injected} injected")
    for i, f in enumerate(series):
        got = np.loadtxt(os.path.join(out_dir, f), delimiter=",", skiprows=1,
                         max_rows=PREFIX_STEPS, usecols=range(1, 1 + w.p), ndmin=2)
        want = ref["sigmas"][:, i]
        if not np.allclose(got, want, rtol=PREFIX_RTOL, atol=0.0):
            fails.append(f"{f}: volatilities of the first {PREFIX_STEPS} steps "
                         "differ from the oracle")
    return fails


def check_simulate(w, out_dir, status, expected_returns):
    """The written CSV, read back by `load_csv`, equals `simulate_path`."""
    from msvol.cli import load_csv
    fails = [] if status == 0 else [f"exit status {status}"]
    path = os.path.join(out_dir, "simulated_returns.csv")
    if not os.path.isfile(path):
        return fails + ["missing simulated_returns.csv"]
    values = load_csv(path, "returns").values
    if values.shape != (w.n, w.p):
        fails.append(f"CSV has shape {values.shape}, expected {(w.n, w.p)}")
    elif not np.array_equal(values, expected_returns):
        fails.append("CSV read back differs from simulate_path")
    return fails


def expansion_scale(returns, delta, steps):
    """S_steps from the exact weighted-sum expansion, identity prior."""
    p = returns.shape[1]
    k = oracle.decay_constant(delta, p)
    y = returns[:steps]
    weights = k ** (np.arange(steps) - (steps - 1.0))
    return k ** (-float(steps)) * np.eye(p) + (y.T * weights) @ y


def check_library(w, op, expected_scale, first):
    """One filter_p8_long operation's summary from the worker."""
    if "error" in op:
        return [op["error"]]
    fails = []
    if op["rows"] != [w.n] * 3:
        fails.append(f"output rows {op['rows']}, expected {w.n}")
    got = np.array(op["scale_check"])
    err = np.linalg.norm(got - expected_scale) / np.linalg.norm(expected_scale)
    if not err <= EXPANSION_RTOL:
        fails.append(f"scale at t={PREFIX_STEPS} off the expansion by {err:.3g}")
    if not np.isfinite(op["loglik"]) or not np.all(np.isfinite(op["msse"])):
        fails.append("non-finite LogL or MSSE")
    if op["density_finite"] != w.n:
        fails.append(f"{w.n - op['density_finite']} non-finite predictive log-densities")
    if op["loglik"] != first["loglik"] or op["msse"] != first["msse"]:
        fails.append("result differs from the run's first operation")
    return fails
