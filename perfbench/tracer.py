"""Span tracer for the per-layer run.

Spans are recorded from the benchmark's side: ``install`` swaps public
functions of the package (and the LAPACK entry points it calls) for
wrappers, and ``uninstall`` puts the originals back.  Each wrapper opens a
span whose parent is the span that was open when it was called.  A run
makes hundreds of thousands of geometry calls, so spans are aggregated in
memory per (name, parent) instead of kept one object per call.

A span's self time is its duration minus the durations of its child
spans; calls run on one thread, so children never overlap.
"""

from __future__ import annotations

import time

from metrics import GEOMETRY_OPS, NUMPY_LAPACK_OPS, PROBLEM_FNS


def geometry_key(name):
    """Metric key of a manifold name: ``spd(5)`` -> ``spd5``,
    ``hyperbolic(2,1)`` -> ``hyperbolic2`` (curvature 1 only)."""
    kind, _, args = name.partition("(")
    dims = args.rstrip(")").split(",")
    if len(dims) == 2 and dims[1] == "1":
        dims = dims[:1]
    return kind + "_".join(dims)


class Tracer:
    """Aggregates spans as ``spans[(name, parent)] = [calls, self_s,
    total_s]``; ``parent`` is None for a span opened at top level."""

    def __init__(self, clock=time.perf_counter):
        self.spans = {}
        self._stack = []            # open spans as [name, child_s]
        self._clock = clock
        self._patched = []          # (owner, attr, original, owned)

    def call(self, name, fn, *args, **kwargs):
        stack = self._stack
        parent = stack[-1][0] if stack else None
        frame = [name, 0.0]
        stack.append(frame)
        t0 = self._clock()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = self._clock() - t0
            stack.pop()
            if stack:
                stack[-1][1] += dur
            rec = self.spans.get((name, parent))
            if rec is None:
                rec = self.spans[(name, parent)] = [0, 0.0, 0.0]
            rec[0] += 1
            rec[1] += dur - frame[1]
            rec[2] += dur

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    # ------------------------------------------------------------------
    # totals
    # ------------------------------------------------------------------

    def calls(self, name):
        return sum(rec[0] for (n, _), rec in self.spans.items() if n == name)

    def self_s(self, name):
        return sum(rec[1] for (n, _), rec in self.spans.items() if n == name)

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        owned = attr in vars(owner)
        self._patched.append((owner, attr, getattr(owner, attr), owned))
        setattr(owner, attr, replacement)

    def _wrap_method(self, cls, op):
        fn = getattr(cls, op)
        names = {}

        def traced(manifold, *args, **kwargs):
            name = names.get(manifold.name)
            if name is None:
                name = names[manifold.name] = \
                    f"geometry.{geometry_key(manifold.name)}.{op}"
            return self.call(name, fn, manifold, *args, **kwargs)
        return traced

    def install(self):
        """Wrap the package's public layers.  Undo with ``uninstall``."""
        import numpy.linalg

        from hadamard_dc import analysis, bench, dc, geometry
        from hadamard_dc.geometry import spd

        for cls in (geometry.Hyperboloid, geometry.SPDManifold,
                    geometry.DikinOrthant):
            for op in GEOMETRY_OPS:
                self._patch(cls, op, self._wrap_method(cls, op))
        for op in NUMPY_LAPACK_OPS:
            self._patch(numpy.linalg, op,
                        self.wrap(f"lapack.{op}", getattr(numpy.linalg, op)))
        self._patch(spd, "dgejsv", self.wrap("lapack.dgejsv", spd.dgejsv))

        make_problem = bench.make_problem

        def traced_make_problem(*args, **kwargs):
            problem = make_problem(*args, **kwargs)
            for fn in PROBLEM_FNS:
                setattr(problem, fn,
                        self.wrap(f"problems.{fn}", getattr(problem, fn)))
            return problem

        self._patch(bench, "make_problem", traced_make_problem)
        self._patch(bench, "run_benchmark",
                    self.wrap("bench.run_benchmark", bench.run_benchmark))
        self._patch(bench, "run_dca", self.wrap("dc.run_dca", bench.run_dca))
        for fn in ("make_cr_subproblem", "make_b_subproblem"):
            self._patch(dc, fn,
                        self.wrap("dc.subproblem_build", getattr(dc, fn)))
        self._patch(dc, "inner_solve",
                    self.wrap("dc.inner_solve", dc.inner_solve))
        self._patch(analysis, "busemann_numeric",
                    self.wrap("analysis.busemann_numeric",
                              analysis.busemann_numeric))

    def uninstall(self):
        while self._patched:
            owner, attr, original, owned = self._patched.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
