"""The in-process library operation of `filter_p8_long`, in its own process.

Usage: python lib_worker.py INPUT_NPY SECONDS TRACE RESULT_JSON DELTA CHECK_STEP

Imports msvol, loads the returns, warms up on the first CHECK_STEP rows, then
runs operations back to back until SECONDS have passed (at least three).  One
operation is `run_filter`, `loglik_total`, the MSSE from `u_star` and
`FilterRun.predictive_logdensity` for DELTA and an identity prior; the scale
after CHECK_STEP steps is returned for the output check.  With TRACE=1
untraced and traced operations alternate, so both are measured under the
same conditions.  The process holds only the library, the input and the
operation's own arrays, so its peak resident memory after an operation is
that operation's peak.
"""

import json
import resource
import sys
import time

import tracing

MIN_OPS = 3


def operation(msvol, cfg, returns):
    run = msvol.run_filter(cfg, returns)
    loglik = msvol.loglik_total(run).total
    msse = (run.u_star ** 2).mean(axis=0)
    density = run.predictive_logdensity
    return run, loglik, msse, density


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv):
    input_path, seconds, trace, result_path = argv[0], float(argv[1]), argv[2] == "1", argv[3]
    delta, check_step = float(argv[4]), int(argv[5])
    import msvol
    import numpy as np
    returns = np.load(input_path)
    cfg = msvol.new_config(returns.shape[1], delta, np.eye(returns.shape[1]))
    operation(msvol, cfg, returns[:check_step])
    tracer = tracing.Tracer()
    ops = []
    start = time.perf_counter()
    while len(ops) < MIN_OPS * (1 + trace) or time.perf_counter() - start < seconds:
        traced = trace and len(ops) % 2 == 1
        if traced:
            tracer.op = len(ops)
            tracer.install(tracing.LIBRARY_TARGETS + tracing.INNER_TARGETS)
        t = time.perf_counter()
        try:
            run, loglik, msse, density = operation(msvol, cfg, returns)
            elapsed = time.perf_counter() - t
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted
            ops.append({"traced": traced, "seconds": time.perf_counter() - t,
                        "rss_mb": peak_rss_mb(), "error": f"{type(exc).__name__}: {exc}"})
            continue
        finally:
            tracer.uninstall()
        ops.append({
            "traced": traced,
            "seconds": elapsed,
            "rss_mb": peak_rss_mb(),
            "rows": [run.scales.shape[0], run.u_star.shape[0], density.shape[0]],
            "scale_check": run.scales[check_step - 1].tolist(),
            "loglik": loglik,
            "msse": msse.tolist(),
            "density_finite": int(np.isfinite(density).sum()),
        })
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"ops": ops, "spans": tracer.spans}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
