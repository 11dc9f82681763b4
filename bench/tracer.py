"""Per-layer tracing for the benchmark, installed from outside the package.

The tracer wraps named ``dendrimag`` functions and methods with spans and
call counters, only in a traced pass.  A wrapped module-level function is
rebound wherever a ``dendrimag.*`` module holds the same function object,
including values of module-level dicts (``suites`` dispatches through one),
because ``cli`` and ``suites`` import ``verify_magnus``, ``integrate`` and
others by name.

Spans (name, start, end, parent) are kept in flat arrays while the pass runs
and dumped once at the end.  Self time is a span's duration minus the time
its child spans cover; total time sums only the outermost span of each name,
so recursion is not counted twice.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array

# (metric prefix, module, attribute path, reported suffixes).  Every entry
# opens a span; "calls", "self_s" and "total_s" are read from the spans.
SPANS = [
    ("matrices.matmul", "matrices", "RatMatrix.__matmul__", ("calls", "self_s")),
    ("matrices.add", "matrices", "RatMatrix.__add__", ("calls", "self_s")),
    ("matrices.scale", "matrices", "RatMatrix.scale", ("calls", "self_s")),
    ("grids.mul", "grids", "GridSeq.__mul__", ("calls", "self_s")),
    ("grids.add", "grids", "GridSeq.__add__", ("calls", "self_s")),
    ("polys.mul", "polys", "Poly.__mul__", ("calls", "self_s")),
    ("polys.add", "polys", "Poly.__add__", ("calls", "self_s")),
    ("lincomb.add", "lincomb", "LinComb.__add__", ("calls", "self_s")),
    ("pbt.prec", "pbt", "FreeDendriform.prec", ("calls", "self_s")),
    ("pbt.succ", "pbt", "FreeDendriform.succ", ("calls", "self_s")),
    ("rooted.graft", "rooted", "graft", ("calls", "self_s")),
    ("prelie_expr.rhd", "prelie_expr", "FormalPreLieOps.rhd", ("calls", "self_s")),
    ("prelie_expr.eval_planar", "prelie_expr", "eval_planar", ("total_s",)),
    ("prelie_expr.eval_rooted", "prelie_expr", "eval_rooted", ("total_s",)),
    ("prelie_expr.rewrite_reduce", "prelie_expr", "rewrite_reduce", ("total_s",)),
    ("series.mul", "series", "TruncatedSeries.__mul__", ("calls", "self_s")),
    ("series.exp", "series", "series_exp", ("calls", "self_s")),
    ("series.log", "series", "series_log", ("calls", "self_s")),
    ("series.bch", "series", "bch", ("calls", "self_s")),
    ("dendriform.series_half_prec", "dendriform", "series_half_prec", ("calls", "self_s")),
    ("dendriform.series_half_succ", "dendriform", "series_half_succ", ("calls", "self_s")),
    ("dendriform.solve_left", "dendriform", "solve_left", ("calls", "self_s")),
    ("dendriform.solve_right", "dendriform", "solve_right", ("calls", "self_s")),
    ("dendriform.check_tridendriform_axioms", "dendriform", "check_tridendriform_axioms", ("self_s",)),
    ("dendriform.check_dendriform_axioms", "dendriform", "check_dendriform_axioms", ("self_s",)),
    ("dendriform.check_prelie_identities", "dendriform", "check_prelie_identities", ("self_s",)),
    ("rota_baxter.check_rb_relation", "rota_baxter", "check_rb_relation", ("calls", "self_s")),
    ("rota_baxter.bch_recursion", "rota_baxter", "bch_recursion", ("calls", "self_s")),
    ("rota_baxter.spitzer_noncommutative_check", "rota_baxter", "spitzer_noncommutative_check", ("total_s",)),
    ("rota_baxter.atkinson_check", "rota_baxter", "atkinson_check", ("total_s",)),
    ("magnus_fer.magnus_from_series", "magnus_fer", "magnus_from_series", ("calls", "self_s")),
    ("magnus_fer.fer", "magnus_fer", "fer", ("calls", "self_s")),
    ("magnus_fer.fer_step_series", "magnus_fer", "fer_step_series", ("calls", "self_s")),
    ("magnus_fer.verify_magnus", "magnus_fer", "verify_magnus", ("total_s",)),
    ("magnus_fer.verify_fer", "magnus_fer", "verify_fer", ("total_s",)),
    ("ode.matrix_exp", "ode", "matrix_exp", ("calls", "self_s")),
    ("ode.magnus_step", "ode", "magnus_step", ("calls", "self_s")),
    ("ode.fer_step", "ode", "fer_step", ("calls", "self_s")),
    ("ode.poly_mul", "ode", "FloatMatrixPoly.__mul__", ("calls", "self_s")),
    ("ode.reference_solution", "ode", "reference_solution", ("total_s",)),
    ("ode.convergence_rows", "ode", "convergence_rows", ("total_s",)),
    ("ode.integrate", "ode", "integrate", ("total_s",)),
    *(
        (f"suites.{s}", "suites", f"suite_{s}", ("total_s",))
        for s in ("tridendriform", "rb", "spitzer", "atkinson", "chi", "reduction")
    ),
    ("cli.main", "cli", "main", ("total_s",)),
]

# Wrapped with a bare counter: too frequent and too small for a span.
COUNTERS = [("matrices.init", "matrices", "RatMatrix.__init__")]

# lru_cache'd basis products whose hit ratio is read after each pass.
CACHES = [
    ("pbt.prec_basis", "pbt", "_prec_basis"),
    ("pbt.succ_basis", "pbt", "_succ_basis"),
    ("pbt.star_basis", "pbt", "_star_basis"),
    ("rooted.graft_basis", "rooted", "_graft_basis"),
    ("prelie_expr.local_rewrites", "prelie_expr", "_local_rewrites"),
]

# Intern tables of the three tree types.
INTERNED = [("pbt", "pbt", "PBT"), ("rooted", "rooted", "RootedTree"), ("prelie_expr", "prelie_expr", "PreLieExpr")]

# (span prefix, exception class name) -> metric counting those raises.
RAISES = {("prelie_expr.rewrite_reduce", "BudgetExhausted"): "prelie_expr.rewrite_reduce.exhausted"}


def metric_names() -> list[str]:
    """Every per-layer metric that ``Tracer.metrics`` and ``state_metrics`` make."""
    names = [f"{prefix}.{suffix}" for prefix, _, _, suffixes in SPANS for suffix in suffixes]
    names += [f"{prefix}.calls" for prefix, _, _ in COUNTERS]
    names += list(RAISES.values())
    names += [f"{prefix}.hit_ratio" for prefix, _, _ in CACHES]
    names += [f"{prefix}.interned" for prefix, _, _ in INTERNED]
    return names


def _module(short: str):
    return importlib.import_module(f"dendrimag.{short}")


def _lookup(short: str, path: str):
    """(owner, attribute name) for "Class.attr" or "func" in a module, or None
    when a later version of the package no longer has it."""
    try:
        owner = _module(short)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
    except (ImportError, AttributeError):
        return None
    return (owner, attr) if attr in vars(owner) else None


def _rebind_everywhere(original, replacement) -> None:
    for name, mod in list(sys.modules.items()):
        if name != "dendrimag" and not name.startswith("dendrimag."):
            continue
        for key, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, key, replacement)
            elif type(val) is dict:
                for k, v in list(val.items()):
                    if v is original:
                        val[k] = replacement


class Tracer:
    """Spans and counters over the functions in SPANS and COUNTERS."""

    def __init__(self):
        self.names = [prefix for prefix, *_ in SPANS]
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_outer = array("b")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts = {prefix: 0 for prefix, *_ in COUNTERS}
        self.raised: dict[tuple[str, str], int] = {}
        self.missing: list[str] = []  # targets not found; their metrics read 0
        self._stack = [-1]
        self._depth = [0] * len(self.names)

    def _span_wrapper(self, nid: int, fn):
        names, parents, outer = self.span_name, self.span_parent, self.span_outer
        starts, ends, stack, depth = self.span_start, self.span_end, self._stack, self._depth
        clock = time.perf_counter
        prefix = self.names[nid]
        raised = self.raised

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            outer.append(depth[nid] == 0)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            depth[nid] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                key = (prefix, type(exc).__name__)
                raised[key] = raised.get(key, 0) + 1
                raise
            finally:
                t1 = clock()
                depth[nid] -= 1
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1

        return traced

    def _count_wrapper(self, prefix: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[prefix] += 1
            return fn(*args, **kwargs)

        return counted

    def _install_one(self, short: str, path: str, make) -> None:
        found = _lookup(short, path)
        if found is None:
            self.missing.append(f"{short}.{path}")
            return
        owner, attr = found
        original = vars(owner)[attr]
        replacement = make(original)
        setattr(owner, attr, replacement)
        if not isinstance(owner, type):
            _rebind_everywhere(original, replacement)

    def install(self) -> None:
        for nid, (_, short, path, _) in enumerate(SPANS):
            self._install_one(short, path, lambda fn, nid=nid: self._span_wrapper(nid, fn))
        for prefix, short, path in COUNTERS:
            self._install_one(short, path, lambda fn, prefix=prefix: self._count_wrapper(prefix, fn))

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics from the recorded spans and counters."""
        import numpy as np

        name = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        outer = np.frombuffer(self.span_outer, dtype=np.int8).astype(bool)
        dur = np.frombuffer(self.span_end, dtype=float) - np.frombuffer(self.span_start, dtype=float)
        k = len(self.names)
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        calls = np.bincount(name, minlength=k)
        self_s = np.bincount(name, weights=dur - child_time, minlength=k)
        total_s = np.bincount(name[outer], weights=dur[outer], minlength=k)
        out: dict[str, float] = {}
        for nid, (prefix, _, _, suffixes) in enumerate(SPANS):
            values = {"calls": int(calls[nid]), "self_s": float(self_s[nid]), "total_s": float(total_s[nid])}
            for suffix in suffixes:
                out[f"{prefix}.{suffix}"] = values[suffix]
        for prefix, count in self.counts.items():
            out[f"{prefix}.calls"] = count
        for key, metric in RAISES.items():
            out[metric] = self.raised.get(key, 0)
        return out

    def dump(self, path: str) -> None:
        """Write every span to a compressed ``.npz`` file."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=float),
            end=np.frombuffer(self.span_end, dtype=float),
        )


def program_state() -> dict[str, dict]:
    """cache_info() of the basis-product caches and the intern table sizes;
    None for a cache or table the package no longer has."""
    caches = {}
    for prefix, short, attr in CACHES:
        found = _lookup(short, attr)
        info = getattr(vars(found[0])[attr], "cache_info", None) if found else None
        caches[prefix] = info()._asdict() if info else None
    interned = {}
    for prefix, short, cls in INTERNED:
        found = _lookup(short, cls)
        table = getattr(vars(found[0])[cls], "_cache", None) if found else None
        interned[prefix] = len(table) if table is not None else None
    return {"caches": caches, "interned": interned}


def state_metrics(state: dict[str, dict]) -> dict[str, float]:
    out: dict[str, float] = {}
    for prefix, info in state["caches"].items():
        lookups = info["hits"] + info["misses"] if info else 0
        out[f"{prefix}.hit_ratio"] = info["hits"] / lookups if lookups else 0.0
    for prefix, size in state["interned"].items():
        out[f"{prefix}.interned"] = size or 0
    return out
