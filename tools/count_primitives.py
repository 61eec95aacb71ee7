"""Print the calls of the expensive primitives that the quick benchmark
invocations make, per algorithm.

For each invocation of ``GOLDEN`` in ``tools/cli_rows.py`` and each
algorithm, this runs ``hadamard_dc.cli.main`` in-process and prints one
line: the algorithm, k and inn summed over the invocation's runs, and the
calls of ``numpy.linalg.eigh``, ``eigvalsh``, ``cholesky``, ``solve`` and
``inv``, of every geometry's ``check_point``, of ``step`` of every ray
class (one line-search trial, which validates its point without
``check_point`` on the hyperboloid and SPD), of ``SPDManifold._definite``
(the Cholesky test of an SPD trial and of ``check_point``), of ``factor``
(the factor L and L^-1 of one SPD point, L^-1 by one ``inv``) and of
``Hyperboloid._dist`` and ``_log``, and of ``_norm`` (|v|_q, under
``norm``) of every geometry, problem construction included.  The
counts are a deterministic function of the flags, so running this file
against two source trees

    PYTHONPATH=<parent checkout>/src python tools/count_primitives.py > parent.txt
    PYTHONPATH=src python tools/count_primitives.py > change.txt

and a ``diff`` of the two files shows a saving as counts, the way
``tools/cli_rows.py`` shows the rows.  ``PrimitiveCounter`` is the
counter the Tier-1 counting tests use.  Standard library and numpy only.
"""

import contextlib
import csv
import importlib.util
import io
import sys
from pathlib import Path

import numpy as np

from hadamard_dc import geometry
from hadamard_dc.cli import main

ALGORITHMS = ("cr", "b")
LAPACK = ("eigh", "eigvalsh", "cholesky", "solve", "inv")
GEOMETRIES = (geometry.Euclidean, geometry.DikinOrthant, geometry.Hyperboloid,
              geometry.SPDManifold)
HYPERBOLOID = ("_dist", "_log")
RAYS = (geometry.base.Ray, geometry.hyperboloid.HyperboloidRay,
        geometry.spd.SPDRay)                        # every step
NORMS = tuple(cls for cls in (geometry.Manifold, *GEOMETRIES)
              if "_norm" in vars(cls))              # the classes with a _norm
NAMES = LAPACK + ("check_point", "step", "_definite", "factor") + tuple(
    f"hyperboloid.{op}" for op in HYPERBOLOID) + ("norm",)


class PrimitiveCounter:
    """Counts, in ``counts``, the calls made while it is entered: the
    numpy LAPACK routines of ``LAPACK``, ``check_point`` of each geometry
    of ``GEOMETRIES`` (all under one name), ``step`` of each ray class of
    ``RAYS`` (all under one name), ``SPDManifold._definite``, the factor
    of an SPD point (``spd._with_inverse``, under ``factor``), the
    hyperboloid kernels of ``HYPERBOLOID`` and ``_norm`` of each class
    of ``NORMS``, ``Manifold`` and the geometries that define their own
    (all under ``norm``), found from the classes of the source tree
    imported, so that one copy of this file counts every ``_norm`` of
    two trees that define it in different classes.  Leaving it restores
    the originals."""

    def __init__(self):
        self.counts = dict.fromkeys(NAMES, 0)
        self._patched = []

    def _patch(self, owner, attr, name):
        original = vars(owner)[attr]
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        self._patched.append((owner, attr, original))
        setattr(owner, attr, counted)

    def __enter__(self):
        for op in LAPACK:
            self._patch(np.linalg, op, op)
        for cls in GEOMETRIES:
            self._patch(cls, "check_point", "check_point")
        for cls in RAYS:
            self._patch(cls, "step", "step")
        self._patch(geometry.SPDManifold, "_definite", "_definite")
        self._patch(geometry.spd, "_with_inverse", "factor")
        for op in HYPERBOLOID:
            self._patch(geometry.Hyperboloid, op, f"hyperboloid.{op}")
        for cls in NORMS:
            self._patch(cls, "_norm", "norm")
        return self

    def __exit__(self, *exc):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
        return False


def _golden():
    spec = importlib.util.spec_from_file_location(
        "cli_rows", Path(__file__).resolve().parent / "cli_rows.py")
    cli_rows = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cli_rows)
    return cli_rows.GOLDEN


def count(argv, algorithm):
    """(k, inn, counts) of one invocation with one algorithm."""
    out = io.StringIO()
    with PrimitiveCounter() as counter, contextlib.redirect_stdout(out):
        main(argv + ["--algorithm", algorithm])
    rows = list(csv.DictReader(io.StringIO(out.getvalue())))
    return (sum(int(r["k"]) for r in rows), sum(int(r["inn"]) for r in rows),
            counter.counts)


def render(argv):
    """The printed lines of one invocation."""
    lines = ["# hadamard-dc " + " ".join(argv)]
    for algorithm in ALGORITHMS:
        k, inn, counts = count(argv, algorithm)
        lines.append(f"{algorithm} k={k} inn={inn} " + " ".join(
            f"{name}={counts[name]}" for name in NAMES))
    return lines


if __name__ == "__main__":
    if sys.argv[1:]:
        sys.exit("usage: python tools/count_primitives.py")
    for argv in _golden():
        print("\n".join(render(argv)))
        sys.stdout.flush()
