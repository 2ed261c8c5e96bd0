"""Repeatability self-check: two sets of runs of the same code must agree.

Usage (from the repository root):

    python3 perfbench/selfcheck.py [--seed 0] [--rounds 2] [--seconds 15]

Runs every workload traced (`run.py --trace 1`, whose untraced operations
also give the end-to-end metrics) for two sets, A and B, interleaved: each
round visits every workload and runs A then B, or B then A on odd rounds.
Host contention drifts over minutes (on a shared 2-core x86-64 host, 5-run
medians of grid_p8 have moved from 5.0 to 6.0 s, CPU time tracking wall
time), so interleaving makes a drift land on both sets instead of reading as
a regression of one.

Passes when every run is correct, the exact counts are identical across all
runs of a workload, and for every end-to-end metric the median of one set is
not worse than the other's by more than the metric's bound in BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
EXACT = ("filtering.steps", "filtering.nan_steps", "diagnostics.flat_steps",
         "cli.bytes_written", "matstat.calls")


def run_once(workload, seed, seconds):
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, check=True)
    correct = json.loads(proc.stdout.strip().splitlines()[-1])["correct"]
    tag = f"{workload}-seed{seed}-trace1.json"
    with open(os.path.join(ROOT, ".perfbench", "results", tag), encoding="utf-8") as fh:
        results = json.load(fh)
    return dict(results, correct=correct)


def worse_by(a, b, better):
    """How much worse b is than a, as a share of a."""
    return (b - a) / a if better == "lower" else (a - b) / a


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=2)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    runs = {(name, s): [] for name in names for s in "AB"}
    for r in range(args.rounds):
        for name in names[r % len(names):] + names[:r % len(names)]:
            for s in ("AB" if r % 2 == 0 else "BA"):
                runs[name, s].append(run_once(name, args.seed, seconds))
                print(f"round {r} {name} set {s} done", file=sys.stderr, flush=True)
    ok = True
    for name in names:
        every = runs[name, "A"] + runs[name, "B"]
        if not all(res["correct"] for res in every):
            print(f"{name}: an output check failed")
            ok = False
        for key in EXACT:
            values = {res["per_layer"][key] for res in every}
            if len(values) != 1:
                print(f"{name}: {key} differs between runs: {sorted(values)}")
                ok = False
        for m in spec["end_to_end"]:
            a = statistics.median(res["end_to_end"][m["name"]] for res in runs[name, "A"])
            b = statistics.median(res["end_to_end"][m["name"]] for res in runs[name, "B"])
            worst = max(worse_by(a, b, m["better"]), worse_by(b, a, m["better"]))
            verdict = "ok" if worst <= m["bound"] else "DRIFT"
            ok &= verdict == "ok"
            print(f"{name:<16} {m['name']:<12} A {a:12.6g}  B {b:12.6g} {m['unit']:<6} "
                  f"worse by {worst:7.2%} (bound {m['bound']:.0%})  {verdict}")
    print("self-check", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
