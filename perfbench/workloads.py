"""The four benchmark workloads: why each exists and how its input is made.

Every workload is a closed loop: one caller in one process, and the next
operation starts only when the previous one has ended, which is how a batch
tool is used.  Inputs are generated from the workload seed by msvol's own
exact simulator (so the `simulator` layer shows up in set-up time) plus, for
`grid_p2_levels`, the benchmark's own numpy generator for the flat days.

grid_p8
    `msvol --input` on a simulated p=8, N=4774 returns CSV (delta=0.9,
    identity prior) with the default 6-delta grid: the reference workload of
    the roadmap and of acceptance criterion 7.  It crosses every analysis
    layer: the filter is about 60% of the time, `emit_series` about 25% and
    the import about 10%.  The simulator's volatility drifts over orders of
    magnitude, so the returns reach about 1e60; the CSV holds them at full
    precision.
grid_p2_levels
    `msvol --input --mode levels` on a p=2, N=20000 price CSV with a date
    label column.  Prices are 100 * exp(cumsum(0.01 * r)) for simulated
    returns r at delta=0.99; the small scale and the slow volatility drift of
    delta=0.99 keep the prices finite.  About 1% of rows repeat the previous
    prices exactly (flat days), so the flat-day policy runs on real data.
    The same layers as `grid_p8` are used differently: the kernel is bound by
    per-step overhead (pure numpy on a 2-core x86-64 host: about 30 us/step
    against 100 us at p=8), the writers
    by per-row cost (3 columns per row against 36), and ingestion takes the
    label-column and log-difference path.  An optimisation tuned to p=8 that
    costs small p shows up here.
filter_p8_long
    An in-process library pass after a warm-up: `run_filter`, `loglik_total`,
    the MSSE from `u_star`, and `FilterRun.predictive_logdensity`, for one
    delta=0.95 on a simulated p=8, N=20000 path.  No CLI, import, grid or
    writing: the kernel is about 90% of the time.  delta=0.95 makes cond(R)
    reach about 2e16 with finite inputs, the regime the factor form exists
    for.  Grid-batching and writer changes skip this workload, so their
    prediction here is no change.  It is the only workload that calls
    `predictive_logdensity`.
simulate_p8
    `msvol --simulate 8,4774,0.9`: the generating side (`simulate_path`,
    `SimPath.to_csv` and the import), next to the analysing side above.
    Without it the `simulator` layer would appear only in set-up.

Known defect, left in the open: at p=8, delta=0.9, N=20000, `simulate_path`
silently produces inf volatilities and returns (only numpy RuntimeWarnings
are emitted).  That is why the long p=8 path uses delta=0.95 and the p=8 grid
keeps N=4774.
"""

import datetime
import os
from dataclasses import dataclass

import numpy as np

GRID = (0.7, 0.75, 0.8, 0.85, 0.9, 0.95)
BASELINE = 0.95
FLAT_SHARE = 0.01


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str          # "grid", "library" or "simulate"
    p: int
    n: int             # analysed observations (or simulated steps)
    delta: float       # of the simulated input (and of the filter_p8_long pass)
    grid: tuple = ()   # discount factors the operation scores
    mode: str = "returns"

    @property
    def steps(self):
        """Filter or simulator steps one operation completes."""
        return self.n * max(1, len(self.grid))


WORKLOADS = {
    w.name: w for w in (
        Workload("grid_p8", "grid", p=8, n=4774, delta=0.9, grid=GRID),
        Workload("grid_p2_levels", "grid", p=2, n=20000, delta=0.99, grid=GRID,
                 mode="levels"),
        Workload("filter_p8_long", "library", p=8, n=20000, delta=0.95),
        Workload("simulate_p8", "simulate", p=8, n=4774, delta=0.9),
    )
}


def simulate_returns(w, seed):
    from msvol import SimConfig, simulate_path
    return simulate_path(SimConfig(p=w.p, delta=w.delta, N=w.n,
                                   prior_scale=np.eye(w.p), seed=seed))


def price_levels(returns, seed):
    """Prices from 0.01 * returns, with about 1% of days repeating exactly.

    Returns the (n+1, p) price matrix and the number of injected flat days.
    A flat day zeroes a whole return row, so cumsum adds exactly 0.0 and the
    written price strings repeat, which makes the ingested log difference
    exactly zero.
    """
    rng = np.random.default_rng([seed, 1])
    r = 0.01 * returns
    flat = rng.random(r.shape[0]) < FLAT_SHARE
    r[flat] = 0.0
    prices = 100.0 * np.exp(np.vstack([np.zeros((1, r.shape[1])),
                                       np.cumsum(r, axis=0)]))
    if not np.all(np.isfinite(prices)):
        raise RuntimeError("generated prices are not finite")
    return prices, int(np.sum(flat))


def write_levels_csv(path, prices):
    start = datetime.date(1960, 1, 1)
    labels = [f"P{i + 1}" for i in range(prices.shape[1])]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(["date"] + labels) + "\n")
        for t, row in enumerate(prices):
            day = (start + datetime.timedelta(days=t)).isoformat()
            fh.write(",".join([day] + ["%.17g" % x for x in row]) + "\n")


def make_inputs(w, seed, work_dir):
    """Generate one workload's inputs under `work_dir`.

    Returns the facts the output checks need: the analysed returns, and per
    workload the injected flat-day count or the expected simulated path.
    """
    os.makedirs(work_dir, exist_ok=True)
    path = simulate_returns(w, seed)
    facts = {"returns": path.returns}
    if w.name == "grid_p8":
        path.to_csv(os.path.join(work_dir, "input.csv"))
    elif w.name == "grid_p2_levels":
        prices, facts["flat_injected"] = price_levels(path.returns, seed)
        write_levels_csv(os.path.join(work_dir, "input.csv"), prices)
        facts["returns"] = np.diff(np.log(prices), axis=0)
        repeats = int(np.sum(np.all(prices[1:] == prices[:-1], axis=1)))
        if repeats != facts["flat_injected"]:
            raise RuntimeError("flat-day injection did not repeat the prices")
    elif w.name == "filter_p8_long":
        np.save(os.path.join(work_dir, "input.npy"), path.returns)
    return facts


def operation_argv(w, seed, work_dir, out_dir):
    """Command line of one CLI operation (after the interpreter)."""
    if w.kind == "simulate":
        return ["-m", "msvol.cli", "--simulate", f"{w.p},{w.n},{w.delta:g}",
                "--seed", str(seed), "--out", out_dir]
    argv = ["-m", "msvol.cli", "--input", os.path.join(work_dir, "input.csv"),
            "--out", out_dir]
    if w.mode != "returns":
        argv += ["--mode", w.mode]
    return argv
