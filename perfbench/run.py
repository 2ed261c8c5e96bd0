"""Layered benchmark of msvol: one workload, one seed, one run.

Usage (from the repository root):

    python3 perfbench/run.py --workload grid_p8 --seed 1 --seconds 20 --trace 0

Generates the workload's inputs from the seed (timed as set-up, three times),
then runs operations back to back, closed loop, for --seconds (at least
four operations, so that the median of a grid workload, about 6 s an
operation, is not that of three), checks every operation's outputs, and
prints the end-to-end metrics.
With --trace 1, untraced and traced operations alternate and the per-layer
metrics are printed instead.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  The full results,
the spans and the run record are written under .perfbench/results/.

Exits 2 without a result when the msvol sources are not in ./src.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

# One BLAS thread, here (set-up runs the simulator in this process) and in
# every child.  The library default on a 2-core host is two OpenBLAS threads
# that spin-wait between the small p=8 calls: `msvol --simulate 8,4774,0.9`
# then burns about 1.5 CPU seconds per wall second and takes 2.4 s instead of
# 1.7 s, and its time follows whatever else runs on the second core.
BLAS_THREADS = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                 "MKL_NUM_THREADS")}
os.environ.update(BLAS_THREADS)

import checks  # noqa: E402  (numpy reads the BLAS setting when it is imported)
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 3
MIN_OPS = 4             # untraced run
MIN_TRACED_OPS = 6      # traced run, half of them traced

IMPORT_PROBE = ("import time; t = time.perf_counter(); import msvol.cli; "
                "print(time.perf_counter() - t)")


class Spawner:
    """Runs children through `spawner.py`, so each reports its own peak RSS."""

    def __init__(self):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [SRC] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.proc = subprocess.Popen([sys.executable, os.path.join(BENCH, "spawner.py")],
                                     cwd=ROOT, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def run(self, argv, stdout=None, stderr=None):
        """Run `python argv` to completion: (status, wall s, cpu s, peak RSS MB)."""
        self.proc.stdin.write(json.dumps({
            "argv": [sys.executable] + argv, "cwd": ROOT, "env": self.env,
            "stdout": stdout, "stderr": stderr}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the spawner process ended")
        r = json.loads(line)
        return r["status"], r["wall"], r["cpu"], r["rss_mb"]

    def close(self):
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self.proc.terminate()
                self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if exc[0] is not None and self.proc.poll() is None:
            self.proc.terminate()       # stops the running child too
        self.close()


def setup(w, seed, work, tracer, spawner):
    """Generate inputs and warm up, SETUP_REPEATS times.

    The warm-up is a fresh interpreter importing msvol.cli, which also
    compiles the byte code; it reports its own import time, and its wall time
    minus that is the interpreter's start and exit.
    """
    times, imports, start_exit = [], [], []
    for rep in range(SETUP_REPEATS):
        tracer.op = f"setup{rep}"
        t = time.perf_counter()
        facts = workloads.make_inputs(w, seed, work)
        probe = os.path.join(work, "import_probe.txt")
        status, wall, _, _ = spawner.run(["-c", IMPORT_PROBE], stdout=probe)
        times.append(time.perf_counter() - t)
        if status != 0:
            raise RuntimeError("cannot import msvol.cli")
        with open(probe, encoding="utf-8") as fh:
            imports.append(float(fh.read()))
        start_exit.append(wall - imports[-1])
    return facts, times, imports, start_exit


def cli_operations(w, seed, work, seconds, trace, check, spawner):
    """Closed loop of msvol CLI subprocesses; returns the operation records."""
    ops = []
    out_dir = os.path.join(work, "out")
    spans_path = os.path.join(work, "spans.json")
    argv = workloads.operation_argv(w, seed, work, out_dir)
    start = time.perf_counter()
    min_ops = MIN_TRACED_OPS if trace else MIN_OPS
    while len(ops) < min_ops or time.perf_counter() - start < seconds:
        traced = bool(trace and len(ops) % 2 == 1)
        shutil.rmtree(out_dir, ignore_errors=True)
        cmd = ([os.path.join(BENCH, "traced_cli.py"), spans_path, "--"] + argv[2:]
               if traced else argv)
        status, wall, cpu, rss = spawner.run(cmd, stderr=os.path.join(work, "stderr.txt"))
        try:
            failures = check(out_dir, status)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            failures = [f"unreadable outputs: {type(exc).__name__}: {exc}"]
        op = {"traced": traced, "seconds": wall, "cpu_s": cpu, "rss_mb": rss,
              "status": status, "failures": failures}
        # manifest.json carries timings, so its length varies from run to run
        op["bytes_written"] = sum(os.path.getsize(os.path.join(out_dir, f))
                                  for f in os.listdir(out_dir) if f != "manifest.json") \
            if os.path.isdir(out_dir) else 0
        if op["failures"]:
            with open(os.path.join(work, "stderr.txt"), encoding="utf-8") as fh:
                op["stderr"] = fh.read()[-2000:]
        if traced and os.path.isfile(spans_path):
            with open(spans_path, encoding="utf-8") as fh:
                op["spans"] = [dict(s, op=len(ops)) for s in json.load(fh)["spans"]]
            os.remove(spans_path)
        elif traced:
            op["spans"] = []
        ops.append(op)
    return ops


def library_operations(w, work, seconds, trace, expected_scale, spawner):
    """Closed loop of the in-process library pass, in a worker process."""
    result = os.path.join(work, "worker.json")
    status, _, _, _ = spawner.run([os.path.join(BENCH, "lib_worker.py"),
                                   os.path.join(work, "input.npy"), str(seconds),
                                   str(trace), result, repr(w.delta),
                                   str(checks.PREFIX_STEPS)],
                                  stderr=os.path.join(work, "stderr.txt"))
    if status != 0:
        with open(os.path.join(work, "stderr.txt"), encoding="utf-8") as fh:
            raise RuntimeError(f"library worker failed:\n{fh.read()[-2000:]}")
    with open(result, encoding="utf-8") as fh:
        out = json.load(fh)
    first = next((op for op in out["ops"] if "error" not in op), None)
    ops = [dict(op, failures=checks.check_library(w, op, expected_scale, first))
           for op in out["ops"]]
    for i, spans in tracing.split_ops(out["spans"]).items():
        ops[i]["spans"] = spans
    return ops


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(w, ops, setup_times):
    plain = [op for op in ops if not op["traced"]]
    seconds = sorted(op["seconds"] for op in plain)
    run_s = median(seconds)
    failed = sum(bool(op["failures"]) for op in ops)
    metrics = {
        "run_s": (run_s, "s"),
        "steps_per_s": (w.steps / run_s, "1/s"),
        "setup_s": (median(setup_times), "s"),
        "peak_rss_mb": (median([op["rss_mb"] for op in plain]), "MB"),
        "ok_frac": ((len(ops) - failed) / len(ops), "ratio"),
    }
    # the highest percentile that still has ten samples beyond it
    if len(seconds) > 10:
        pct = int(100 * (1 - 10 / len(seconds)))
        idx = min(len(seconds) - 1, int(len(seconds) * pct / 100))
        metrics[f"run_s_p{pct}"] = (seconds[idx], "s")
    return metrics


def per_layer(w, ops, setup_spans, imports, start_exit, run_s):
    """Per-layer metrics: medians over the traced operations.

    Simulator metrics come from set-up, except on simulate_p8 where the
    simulator is the operation.  The spans reconcile with the untraced run_s
    when run_s minus the top-level spans (plus the import, for the CLI) is
    within the tracing overhead, plus the interpreter's start and exit, which
    no span can see, plus the spread (interquartile range) of the untraced
    operations, which separates the samples being compared.
    """
    traced = [op for op in ops if op["traced"]]
    per_op = [tracing.layer_metrics(op["spans"]) for op in traced]
    per_setup = [tracing.layer_metrics(s) for s in setup_spans]
    metrics = {}
    for key in per_op[0]:
        source = per_setup if key.startswith("simulator.") and w.kind != "simulate" \
            else per_op
        metrics[key] = median([m[key] for m in source])
    if w.kind == "library":
        metrics["import.msvol_s"] = median(imports)
        start_exit = [0.0]
    else:
        metrics["import.msvol_s"] = median([s["end"] - s["start"] for op in traced
                                            for s in op["spans"] if s["layer"] == "import"])
    metrics["cli.bytes_written"] = median([op.get("bytes_written", 0) for op in traced])
    untraced = [op["seconds"] for op in ops if not op["traced"]]
    quartiles = statistics.quantiles(untraced, n=4)
    metrics["trace.overhead_s"] = median([op["seconds"] for op in traced]) - run_s
    metrics["trace.residual_s"] = run_s - median([tracing.root_time(op["spans"])
                                                  for op in traced])
    metrics["trace.start_exit_s"] = median(start_exit)
    metrics["trace.run_iqr_s"] = quartiles[2] - quartiles[0]
    reconciled = abs(metrics["trace.residual_s"]) <= (
        abs(metrics["trace.overhead_s"]) + metrics["trace.start_exit_s"]
        + metrics["trace.run_iqr_s"])
    return metrics, reconciled


def run_record(w, seed, trace, seconds):
    import msvol
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for dirpath, dirnames, files in sorted(os.walk(os.path.join(SRC, "msvol"))):
        dirnames.sort()
        for f in sorted(files):
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), "rb") as fh:
                    digest.update(f.encode() + b"\0" + fh.read())
    return {
        "workload": w.name, "seed": seed, "trace": trace, "seconds": seconds,
        "kernel_backend": "numba" if msvol.NUMBA_ENABLED else "numpy",
        "numba_enabled": msvol.NUMBA_ENABLED,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREADS},
        "blas_threads_note": "pinned to 1 by the benchmark, in its own process and "
                             "every child (see BLAS_THREADS in run.py)",
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "git_commit": commit, "src_sha256": digest.hexdigest(),
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn a termination request into SystemExit, so the running child is stopped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(SRC, "msvol", "__init__.py")):
        print(f"error: no msvol sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    tag = f"{w.name}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(WORK, "work", tag)
    shutil.rmtree(work, ignore_errors=True)

    with Spawner() as spawner:
        tracer = tracing.Tracer()
        if args.trace:
            tracer.install(tracing.LIBRARY_TARGETS + tracing.INNER_TARGETS)
        try:
            facts, setup_times, imports, start_exit = setup(w, args.seed, work, tracer,
                                                            spawner)
        finally:
            tracer.uninstall()
        if w.kind == "grid":
            ref = checks.grid_reference(w, args.seed, facts["returns"])
            flat = facts.get("flat_injected")
            ops = cli_operations(w, args.seed, work, args.seconds, args.trace,
                                 lambda out, st: checks.check_grid(w, out, st, ref, flat),
                                 spawner)
        elif w.kind == "simulate":
            ops = cli_operations(w, args.seed, work, args.seconds, args.trace,
                                 lambda out, st: checks.check_simulate(w, out, st,
                                                                       facts["returns"]),
                                 spawner)
        else:
            expected = checks.expansion_scale(facts["returns"], w.delta,
                                              checks.PREFIX_STEPS)
            ops = library_operations(w, work, args.seconds, args.trace, expected, spawner)
    setup_spans = [s for op, s in tracing.split_ops(tracer.spans).items()
                   if str(op).startswith("setup")]

    e2e = end_to_end(w, ops, setup_times)
    layers, reconciled = ({}, None)
    if args.trace:
        layers, reconciled = per_layer(w, ops, setup_spans, imports, start_exit,
                                       e2e["run_s"][0])
    failed = sum(bool(op["failures"]) for op in ops)

    results_dir = os.path.join(WORK, "results")
    os.makedirs(results_dir, exist_ok=True)
    spans = [s for op in ops for s in op.pop("spans", [])]
    with open(os.path.join(results_dir, tag + ".spans.json"), "w", encoding="utf-8") as fh:
        json.dump({"setup": setup_spans, "operations": spans}, fh)
    with open(os.path.join(results_dir, tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump({"record": run_record(w, args.seed, args.trace, args.seconds),
                   "end_to_end": {k: v for k, (v, _) in e2e.items()},
                   "per_layer": layers, "reconciled": reconciled,
                   "setup_times": setup_times, "operations": ops}, fh, indent=1)
    shutil.rmtree(work, ignore_errors=True)

    plain = sum(not op["traced"] for op in ops)
    print(f"{w.name} seed={args.seed}: {len(ops)} operations ({plain} untraced), "
          f"{failed} failed")
    for name, (value, unit) in e2e.items():
        print(f"  {name:<34} {value:14.6g} {unit}")
    print(f"  {'fail_frac':<34} {failed / len(ops):14.6g} ratio")
    for name, value in layers.items():
        print(f"  {name:<34} {value:14.6g}")
    if args.trace:
        print(f"  spans reconcile with run_s: {'yes' if reconciled else 'NO'}")
    for i, op in enumerate(ops):
        for f in op["failures"][:5]:
            print(f"  operation {i} failed: {f}")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    values = dict(layers, **{k: v for k, (v, _) in e2e.items()})
    chosen = spec["per_layer"] if args.trace else spec["end_to_end"]
    print(json.dumps({
        "correct": failed == 0, "attempted": len(ops), "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": units[m["name"]]}
                    for m in chosen},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
