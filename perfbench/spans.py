"""Span tracing of remlab's layers from outside the package.

A ``Tracer`` rebinds module functions and class attributes of remlab to
wrappers that record one span per call (name, start, end, parent) and a few
work counts. Nothing under ``src/`` changes: the wrappers are installed from
this file and removed again by ``restore``. Each patch sits where the caller
looks the name up (``cli.count_replicas``, not ``pipeline.count_replicas``),
because ``from x import y`` copies the binding into the importing module.
"""

from __future__ import annotations

import functools
import json
import math
import threading
import time
from collections import Counter, defaultdict


def _sample_cloud_counts(args, kwargs, result, counts):
    counts["core.cloud_size.total"] += len(result)


def _sample_block_counts(args, kwargs, result, counts):
    sampler, z = args[0], args[1]
    k = sampler.low.shape[0]
    counts["models.sample_block.flop"] += 2 * k * k * z.shape[1]


def _sample_explicit_counts(args, kwargs, result, counts):
    spec, cloud = args[0], args[1]
    if spec.is_rem:
        return
    k, n = len(cloud), cloud.n
    if spec.mixture[0][0] == 1:
        counts["models.sample_explicit.flop"] += 2 * k * n
    else:  # "ki,ij,kj->k": one n x n matvec and one dot per member
        counts["models.sample_explicit.flop"] += 2 * k * n * n + 2 * k * n


def _third_moment_counts(args, kwargs, result, counts):
    n = args[1]
    counts["theory.triple_terms"] += math.comb(n + 3, 3)


def _pair_moment_counts(args, kwargs, result, counts):
    n = args[1]
    ell = args[4] if len(args) > 4 else kwargs["ell"]
    if ell == 2:
        counts["theory.pair_terms"] += n


def _census_counts(args, kwargs, result, counts):
    counts["theory.pair_terms"] += len(result)


def patch_table() -> list:
    """(owner, attribute, span name, count hook) for every traced boundary."""
    from remlab import cli, combinatorics, core, gibbs, models, pipeline, pointproc, theory

    return [
        (cli, "build_config", "cli.build_config", None),
        (cli, "run", "cli.run", None),
        (cli, "count_replicas", "pipeline.count_replicas", None),
        (cli, "pd_compare", "gibbs.pd_compare", None),
        (cli, "factorial_moment", "pointproc.diagnostics", None),
        (cli, "moment_ratio", "pointproc.diagnostics", None),
        (cli, "poisson_gof", "pointproc.diagnostics", None),
        (cli, "spacing_test", "pointproc.diagnostics", None),
        (gibbs, "gibbs_power_sums", "pipeline.gibbs_power_sums", None),
        (pipeline, "derive_rng", "pipeline.derive_rng", None),
        (pipeline, "sample_cloud", "core.sample_cloud", _sample_cloud_counts),
        (pipeline, "sample_explicit", "models.sample_explicit", _sample_explicit_counts),
        (core.Cloud, "sign_matrix", "core.sign_matrix", None),
        (core.Cloud, "overlap_matrix", "core.overlap_matrix", None),
        (models.CholeskySampler, "__init__", "models.cholesky_factor", None),
        (models.CholeskySampler, "sample_block", "models.sample_block", _sample_block_counts),
        (models.CouplingDist, "draw", "models.coupling_draw", None),
        (pointproc.BorelWindow, "mask", "pointproc.window_mask", None),
        (combinatorics, "cloud_pair_census", "combinatorics.cloud_pair_census",
         _census_counts),
        (combinatorics, "brute_force_pair_census", "combinatorics.brute_force_pair_census",
         None),
        (combinatorics, "brute_force_triple_census",
         "combinatorics.brute_force_triple_census", None),
        (theory, "semianalytic_third_moment", "theory.semianalytic_third_moment",
         _third_moment_counts),
        (theory, "semianalytic_moment", "theory.semianalytic_moment", _pair_moment_counts),
        (theory, "conditional_pair_moments", "theory.conditional_pair_moments", None),
    ]


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


class Tracer:
    """Records spans in memory; ``layer_metrics`` reduces them to per-layer numbers."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list = []
        self._saved: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            main = threading.current_thread() is threading.main_thread()
            stack = self._main_stack if main else []
            self._local.stack = stack
        return stack

    def wrap(self, name: str, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            # A replica worker thread starts with an empty stack; its spans
            # belong to the call the main thread is blocked in.
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else -1)
            span = [name, 0.0, 0.0, parent]
            with self._lock:
                index = len(self.spans)
                self.spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                with self._lock:
                    hook(args, kwargs, result, self.counts)
            return result

        return traced

    def install(self, table) -> None:
        for owner, attr, name, hook in table:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            if isinstance(original, functools.cached_property):
                replacement = functools.cached_property(self.wrap(name, original.func, hook))
                replacement.__set_name__(owner, attr)
            else:
                replacement = self.wrap(name, original, hook)
            setattr(owner, attr, replacement)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def self_times(self) -> dict:
        """Sum over spans of each name of (duration - time covered by child spans)."""
        children = defaultdict(list)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                children[parent].append((start, end))
        totals: dict = defaultdict(float)
        for index, (name, start, end, _) in enumerate(self.spans):
            covered, reach = 0.0, start
            for lo, hi in sorted(children.get(index, ())):
                lo, hi = max(lo, reach), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            totals[name] += (end - start) - covered
        return totals

    def call_counts(self) -> Counter:
        return Counter(name for name, *_ in self.spans)

    def layer_metrics(self) -> dict:
        """Per-layer metrics as named in BENCHMARK.json, but for trace.overhead_frac."""
        t = self.self_times()
        calls = self.call_counts()
        c = self.counts
        gflop_block = c["models.sample_block.flop"] / 1e9
        return {
            "core.sample_cloud.calls": calls["core.sample_cloud"],
            "core.sample_cloud.self_s": t["core.sample_cloud"],
            "core.sign_matrix.self_s": t["core.sign_matrix"],
            "core.overlap_matrix.self_s": t["core.overlap_matrix"],
            "core.cloud_size.mean": _ratio(c["core.cloud_size.total"], calls["core.sample_cloud"]),
            "combinatorics.cloud_pair_census.self_s": t["combinatorics.cloud_pair_census"],
            "combinatorics.brute_force_pair_census.self_s":
                t["combinatorics.brute_force_pair_census"],
            "combinatorics.brute_force_triple_census.self_s":
                t["combinatorics.brute_force_triple_census"],
            "models.cholesky_factor.calls": calls["models.cholesky_factor"],
            "models.cholesky_factor.self_s": t["models.cholesky_factor"],
            "models.sample_block.self_s": t["models.sample_block"],
            "models.sample_block.gflop_computed": gflop_block,
            "models.sample_block.gflops": _ratio(gflop_block, t["models.sample_block"]),
            "models.sample_explicit.calls": calls["models.sample_explicit"],
            "models.sample_explicit.self_s": t["models.sample_explicit"],
            "models.sample_explicit.gflop_computed": c["models.sample_explicit.flop"] / 1e9,
            "models.coupling_draw.self_s": t["models.coupling_draw"],
            "pipeline.derive_rng.calls": calls["pipeline.derive_rng"],
            "pipeline.derive_rng.self_s": t["pipeline.derive_rng"],
            "pipeline.count_replicas.self_s": t["pipeline.count_replicas"],
            "pipeline.gibbs_power_sums.self_s": t["pipeline.gibbs_power_sums"],
            "gibbs.pd_compare.self_s": t["gibbs.pd_compare"],
            "pointproc.window_mask.calls": calls["pointproc.window_mask"],
            "pointproc.window_mask.self_s": t["pointproc.window_mask"],
            "pointproc.diagnostics.self_s": t["pointproc.diagnostics"],
            "theory.semianalytic_third_moment.self_s": t["theory.semianalytic_third_moment"],
            "theory.triple_terms": c["theory.triple_terms"],
            "theory.triple_terms_per_s":
                _ratio(c["theory.triple_terms"], t["theory.semianalytic_third_moment"]),
            "theory.semianalytic_moment.self_s": t["theory.semianalytic_moment"],
            "theory.pair_terms": c["theory.pair_terms"],
            "theory.conditional_pair_moments.self_s": t["theory.conditional_pair_moments"],
            "cli.build_config.self_s": t["cli.build_config"],
            "cli.run.self_s": t["cli.run"],
        }

    def write(self, path) -> None:
        """Write the raw spans as JSON: one [name, start, end, parent] per span."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans,
                       "counts": dict(self.counts)}, fh)
