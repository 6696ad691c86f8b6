"""Per-layer tracing for the benchmark's traced run.

Each listed simtree function is replaced, at every name that binds it, by a
wrapper that records a span (name, start, end, parent span, job id) in flat
arrays kept in memory until the run ends. Modules import functions by name
(``from .exactlinalg import rank``), so patching only the defining module
would miss most calls. ``LaurentPoly`` and ``SimplicialComplex`` methods are
patched on the class, aliases such as ``__rmul__`` included.

A span's self time is its duration minus the durations of its child spans;
spans nest strictly because the benchmark runs one job at a time.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import defaultdict
from time import perf_counter

# (module, attribute, metric name, metrics reported) in simtree.
LAYERS = (
    ("complexes", "SimplicialComplex.boundary_matrix", "boundary_matrix",
     ("calls", "self_s", "repeat_ratio")),
    ("complexes", "SimplicialComplex.skeleton", "skeleton", ("calls", "self_s")),
    ("complexes", "complex_from_json_dict", "complex_from_json_dict", ("self_s",)),
    ("exactlinalg", "bareiss_det", "bareiss_det", ("calls", "self_s", "cells")),
    ("exactlinalg", "rank", "rank", ("calls", "self_s", "repeat_ratio")),
    ("exactlinalg", "smith_normal_form", "smith_normal_form", ("calls", "self_s", "repeat_ratio")),
    ("exactlinalg", "char_poly", "char_poly", ("calls", "self_s")),
    ("exactlinalg", "homology", "homology", ("calls", "self_s")),
    ("exactlinalg", "fraction_det", "fraction_det", ("calls", "self_s")),
    ("trees", "up_down_laplacian", "up_down_laplacian", ("calls", "self_s", "steps")),
    ("trees", "is_sst", "is_sst", ("calls", "self_s")),
    ("trees", "find_sst", "find_sst", ("calls", "self_s")),
    ("trees", "enumerate_ssts", "enumerate_ssts", ("calls", "self_s", "trees")),
    ("laurent", "LaurentPoly.__mul__", "mul", ("calls", "self_s", "term_pairs")),
    ("laurent", "LaurentPoly.__add__", "add", ("calls", "self_s")),
    ("laurent", "LaurentPoly.div_exact", "div_exact", ("calls", "self_s")),
    ("laurent", "canonical_string", "canonical_string", ("self_s",)),
    ("laurent", "LaurentPoly.substitute", "substitute", ("calls", "self_s")),
    ("weighted", "symbolic_det", "symbolic_det", ("calls", "self_s", "max_n", "result_terms")),
    ("weighted", "weighted_up_down_laplacian", "weighted_up_down_laplacian", ("self_s",)),
    ("weighted", "weighted_oracle", "weighted_oracle", ("calls", "self_s")),
    ("shifted", "shifted_spectrum", "shifted_spectrum", ("calls", "self_s")),
    ("shifted", "algebraic_fine_laplacian_entries", "algebraic_fine_laplacian_entries",
     ("calls", "self_s")),
    ("shifted", "hear_shape", "hear_shape", ("self_s",)),
    ("shifted", "shifted_tau_fine", "shifted_tau_fine", ("calls", "self_s")),
    ("verification", "spectrum_theorem_holds", "spectrum_theorem_holds", ("self_s",)),
    ("corpus", "enumerate_shifted_complexes", "enumerate_shifted_complexes", ("self_s",)),
    ("corpus", "random_apc_2_complexes", "random_apc_2_complexes", ("self_s",)),
)

UNITS = {"self_s": "s", "repeat_ratio": "ratio"}

# Whole-run figures: traced wall time over untraced wall time of the same
# jobs, and the share of traced job time that is self time of listed functions.
TRACE_METRICS = (("trace.overhead_ratio", "ratio"), ("trace.self_share", "ratio"))


def _matrix_key(M, *_):
    return hash(tuple(map(tuple, M)))


# Argument identity for repeat_ratio: a call repeats if its key was seen
# earlier in the same job.
REPEAT_KEYS = {
    "complexes.boundary_matrix": lambda cx, k: (cx, k),
    "exactlinalg.rank": _matrix_key,
    "exactlinalg.smith_normal_form": _matrix_key,
}


def _bareiss_cells(stats, args, result):
    n = len(args[0])
    stats["cells"] += (n - 1) * n * (2 * n - 1) // 6  # sum of (n-k-1)^2 over pivots k


def _laplacian_steps(stats, args, result):
    cx, k = args
    stats["steps"] += cx.f(k - 1) ** 2 * cx.f(k)


def _trees(stats, args, result):
    stats["trees"] += len(result.per_tree or ())


def _term_pairs(stats, args, result):
    a, b = args
    stats["term_pairs"] += len(a.terms) * len(getattr(b, "terms", (0,)))


def _symbolic_det(stats, args, result):
    stats["max_n"] = max(stats["max_n"], args[0].n_rows)
    stats["result_terms"] += len(result.terms)


# Work counted from argument and result sizes, so it repeats exactly.
COUNTERS = {
    "exactlinalg.bareiss_det": _bareiss_cells,
    "trees.up_down_laplacian": _laplacian_steps,
    "trees.enumerate_ssts": _trees,
    "laurent.mul": _term_pairs,
    "weighted.symbolic_det": _symbolic_det,
}


def metric_specs():
    """(name, unit) of every per-layer metric, in report order."""
    specs = [(f"{module}.{short}.{m}", UNITS.get(m, "count"))
             for module, _, short, metrics in LAYERS for m in metrics]
    return specs + list(TRACE_METRICS)


class Tracer:
    JOB = 0  # name id of the span that wraps one benchmark job

    def __init__(self):
        self.names = ["job"]
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.job_of = array("q")
        self.stack = [-1]
        self.job = -1
        self.stats = defaultdict(lambda: defaultdict(int))
        self.seen = defaultdict(set)
        self.patched = []

    # -- spans ---------------------------------------------------------------

    def _open(self, nid):
        i = len(self.start)
        self.start.append(0.0)
        self.end.append(0.0)
        self.parent.append(self.stack[-1])
        self.name.append(nid)
        self.job_of.append(self.job)
        self.stack.append(i)
        self.start[i] = perf_counter()
        return i

    def _close(self, i):
        self.end[i] = perf_counter()
        self.stack.pop()

    def begin_job(self, job_id):
        """Open the span of one job; job_id -1 marks input generation."""
        self.job = job_id
        self.seen.clear()
        self._job_span = self._open(self.JOB)

    def end_job(self):
        self._close(self._job_span)

    # -- patching ------------------------------------------------------------

    def _wrap(self, name, fn):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        stats = self.stats[name]
        key = REPEAT_KEYS.get(name)
        count = COUNTERS.get(name)
        seen = self.seen
        opener, closer = self._open, self._close
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            in_job = tracer.job >= 0  # counters skip input generation
            if key is not None and in_job:
                k = key(*args)
                if k in seen[nid]:
                    stats["repeats"] += 1
                else:
                    seen[nid].add(k)
            i = opener(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                closer(i)
            if count is not None and in_job:
                count(stats, args, result)
            return result

        return traced

    def install(self):
        """Wrap every LAYERS function at every simtree name bound to it."""
        modules = [m for n, m in sys.modules.items() if n == "simtree" or n.startswith("simtree.")]
        for module, attr, short, _ in LAYERS:
            owner = sys.modules[f"simtree.{module}"]
            if "." in attr:
                cls_name, fn_name = attr.split(".")
                cls = getattr(owner, cls_name)
                original = vars(cls)[fn_name]
                targets = [(cls, k) for k, v in vars(cls).items() if v is original]
            else:
                original = getattr(owner, attr)
                targets = [(m, k) for m in modules for k, v in vars(m).items() if v is original]
            wrapper = self._wrap(f"{module}.{short}", original)
            for obj, k in targets:
                setattr(obj, k, wrapper)
                self.patched.append((obj, k, original))

    def uninstall(self):
        for obj, k, original in reversed(self.patched):
            setattr(obj, k, original)
        self.patched.clear()

    # -- summary -------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer values over every recorded span, keyed as metric_specs()."""
        n = len(self.start)
        start, end, parent, name, job_of = self.start, self.end, self.parent, self.name, self.job_of
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        self_s = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        job_time = listed_self = 0.0
        # Input generation (job -1) counts only toward the corpus functions.
        counted = [nm.startswith("corpus.") for nm in self.names]
        for i in range(n):
            nid = name[i]
            own = end[i] - start[i] - child[i]
            if job_of[i] >= 0:
                if nid == self.JOB:
                    job_time += end[i] - start[i]
                    continue
                listed_self += own
            elif not counted[nid]:
                continue
            self_s[nid] += own
            calls[nid] += 1
        out = {}
        for module, _, short, metrics in LAYERS:
            full = f"{module}.{short}"
            nid = self.names.index(full)
            stats = self.stats[full]
            for m in metrics:
                if m == "calls":
                    value = calls[nid]
                elif m == "self_s":
                    value = self_s[nid]
                elif m == "repeat_ratio":
                    value = stats["repeats"] / calls[nid] if calls[nid] else 0.0
                else:
                    value = stats[m]
                out[f"{full}.{m}"] = value
        out["trace.self_share"] = listed_self / job_time if job_time else 0.0
        out["trace.spans"] = n
        return out
