"""Record the program's grid results as reference values for the checks.

Usage (from the repository root): python3 perfbench/record_reference.py [SEEDS]

SEEDS is a count (default 10): seeds 0..SEEDS-1 of both grid workloads are
scored in-process with `msvol.grid_search`, exactly as the CLI scores them,
and LogL and MMSSE per delta are written to perfbench/reference.json.  Run
it only at the commit that defines the benchmark; later commits are checked
against what it recorded.
"""

import json
import os
import sys
import tempfile

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from msvol import grid_search  # noqa: E402


def main(argv):
    seeds = range(int(argv[0]) if argv else 10)
    table = {}
    scratch = os.path.join(os.path.dirname(BENCH), ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as work:
        for w in workloads.WORKLOADS.values():
            if w.kind != "grid":
                continue
            for seed in seeds:
                returns = workloads.make_inputs(w, seed, work)["returns"]
                report = grid_search(returns, workloads.GRID, workloads.BASELINE)
                table.setdefault(w.name, {})[str(seed)] = {
                    repr(r.delta): {"loglik": r.loglik, "mmsse": r.mmsse}
                    for r in report.rows}
                print(w.name, seed, report.best_delta(), flush=True)
    with open(checks.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
