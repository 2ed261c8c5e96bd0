"""Spans around the calls into msvol's public functions, kept in memory.

Each wrapper replaces a function at the name its caller looks up (for
example `msvol.cli.grid_search`, the name `cli.run` calls, or
`msvol.matstat.student_t_logpdf_from_sq`, looked up through the module by
every caller), so nothing under `src/` changes.  A span records its name,
the layer (the msvol module that defines the function; the `filtering` span
of `run_filter` includes the `_kernels` loop it calls), start, end, the index of its parent span and the operation id,
plus counts taken from the return value at the same boundary.

Per-layer metrics are derived from the spans of one operation by `layer_metrics`.
"""

import importlib
import time

def _count_run_filter(run):
    n, p = run.q.shape[0], run.cfg.p
    return {"steps": n, "nan_steps": int((run.q != run.q).sum()),
            "bytes_out": n * p * p * 8}


def _count_grid(report):
    return {"rows": len(report.rows), "rows_ok": sum(r.ok for r in report.rows)}


def _count_loglik(acc):
    return {"flat_steps": acc.flat_count}


def _count_simulate(path):
    return {"steps": path.returns.shape[0]}


# (object path, attribute, counter): every call site the workloads reach.
# A target the program no longer has is skipped, and its metrics read 0.
CLI_TARGETS = (
    ("msvol.cli", "run", None),
    ("msvol.cli", "run_simulate", None),
    ("msvol.cli", "load_csv", None),
    ("msvol.cli", "grid_search", _count_grid),
    ("msvol.cli", "emit_series", None),
    ("msvol.cli", "simulate_path", _count_simulate),
)
LIBRARY_TARGETS = (
    ("msvol", "run_filter", _count_run_filter),
    ("msvol", "loglik_total", _count_loglik),
    ("msvol", "simulate_path", _count_simulate),
)
INNER_TARGETS = (
    ("msvol.diagnostics", "run_filter", _count_run_filter),
    ("msvol.diagnostics", "loglik_total", _count_loglik),
    ("msvol.diagnostics", "bayes_factor_series", None),
    ("msvol.filtering.FilterRun", "predictive_logdensity", None),
    ("msvol.filtering.FilterRun", "u_star", None),
    ("msvol.simulator.SimPath", "to_csv", None),
    ("msvol.matstat", "*", None),    # every public function of the module
)


def _resolve(path):
    parts = path.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for attr in parts[i:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(path)


def _layer(fn):
    return fn.__module__.rsplit(".", 1)[-1]


def _expand(targets):
    for owner_path, attr, counter in targets:
        owner = _resolve(owner_path)
        if attr == "*":
            for name, value in list(vars(owner).items()):
                if callable(value) and not name.startswith("_") \
                        and getattr(value, "__module__", None) == owner.__name__:
                    yield owner, owner_path, name, counter
        elif attr in vars(owner):
            yield owner, owner_path, attr, counter


class Tracer:
    """Records spans for the wrapped functions while installed."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._saved = []

    def span(self, name, layer, fn, counter, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        rec = {"name": name, "layer": layer, "start": time.perf_counter(),
               "end": None, "parent": parent, "op": self.op}
        self.spans.append(rec)
        self._stack.append(index)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()
        if counter is not None:
            rec["counts"] = counter(out)
        return out

    def _wrapper(self, name, fn, counter):
        layer = _layer(fn)

        def traced(*args, **kwargs):
            return self.span(name, layer, fn, counter, *args, **kwargs)
        traced.__wrapped__ = fn
        return traced

    def install(self, targets):
        for owner, owner_path, attr, counter in _expand(targets):
            original = vars(owner)[attr]
            name = f"{owner_path}.{attr}"
            if isinstance(original, property):
                wrapped = property(self._wrapper(name, original.fget, counter))
            else:
                wrapped = self._wrapper(name, original, counter)
            setattr(owner, attr, wrapped)
            self._saved.append((owner, attr, original))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _duration(s):
    return s["end"] - s["start"]


def layer_metrics(spans):
    """Per-layer metrics of one operation's spans (a list of span dicts).

    Indices in `parent` refer to positions in `spans`.  Metrics of a layer
    the operation does not call read 0.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child_time[s["parent"]] += _duration(s)

    def total(suffix, self_only=False):
        return sum(_duration(s) - (child_time[i] if self_only else 0.0)
                   for i, s in enumerate(spans) if s["name"].endswith(suffix))

    def count(suffix, key):
        return sum(s.get("counts", {}).get(key, 0)
                   for s in spans if s["name"].endswith(suffix))

    run_filter_s = total(".run_filter")
    steps = count(".run_filter", "steps")
    sim_s = total(".simulate_path")
    sim_steps = count(".simulate_path", "steps")
    rows = count(".grid_search", "rows")
    matstat = [s for s in spans if s["layer"] == "matstat"]
    outer_matstat = [s for s in matstat
                     if s["parent"] < 0 or spans[s["parent"]]["layer"] != "matstat"]
    return {
        "filtering.run_filter_s": run_filter_s,
        "filtering.us_per_step": 1e6 * run_filter_s / steps if steps else 0.0,
        "filtering.run_filter_calls": sum(s["name"].endswith(".run_filter") for s in spans),
        "filtering.steps": steps,
        "filtering.bytes_out_computed": count(".run_filter", "bytes_out"),
        "filtering.nan_steps": count(".run_filter", "nan_steps"),
        "filtering.predictive_logdensity_s": total(".predictive_logdensity"),
        "matstat.calls": len(matstat),
        "matstat.s": sum(_duration(s) for s in outer_matstat),
        "diagnostics.grid_search_s": total(".grid_search"),
        "diagnostics.grid_search_self_s": total(".grid_search", self_only=True),
        "diagnostics.loglik_total_s": total(".loglik_total"),
        "diagnostics.bayes_factor_series_s": total(".bayes_factor_series"),
        "diagnostics.rows_ok_frac": count(".grid_search", "rows_ok") / rows if rows else 0.0,
        "diagnostics.flat_steps": count(".loglik_total", "flat_steps"),
        "cli.emit_series_s": total(".emit_series"),
        "cli.run_self_s": total("msvol.cli.run", self_only=True),
        "cli.load_csv_s": total(".load_csv"),
        "simulator.simulate_path_s": sim_s,
        "simulator.us_per_step": 1e6 * sim_s / sim_steps if sim_steps else 0.0,
        "simulator.to_csv_s": total(".to_csv"),
    }


def root_time(spans):
    """Summed duration of the spans that have no parent."""
    return sum(_duration(s) for s in spans if s["parent"] < 0)


def split_ops(spans):
    """Group a tracer's spans by operation id, re-indexing the parents."""
    groups, where = {}, {}
    for i, s in enumerate(spans):
        group = groups.setdefault(s["op"], [])
        where[i] = len(group)
        group.append(dict(s, parent=where[s["parent"]] if s["parent"] >= 0 else -1))
    return groups
