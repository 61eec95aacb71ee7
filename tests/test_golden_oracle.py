"""Every field of the limit oracle's result on seeded rays, against the
lines committed in ``tests/data/golden_oracle.txt``.

The file starts with a ``# build`` line naming the numpy and BLAS/LAPACK
build that wrote it (as in ``golden_rows.txt``), then one block per case:
a ``# <case>`` line and the ``repr`` of value, t_values, raw_values,
estimates, refined and converged, or the error a probe of the base
schedule raised.  The cases cover Hyperboloid(2) in both modes,
SPD(5), SPD(20) and DikinOrthant(3), the SPD(5) ray of seed 284 whose
sixth doubling underflows a singular value, and a fully degenerate SPD
direction (V = Y).  A change that moves these lines on purpose rewrites
the file with

    PYTHONPATH=src python tests/test_golden_oracle.py > tests/data/golden_oracle.txt

and says which cases moved and why.
"""

from pathlib import Path

from hadamard_dc import (BusemannRay, DikinOrthant, Hyperboloid,
                         OracleSchedule, SPDManifold, busemann_numeric,
                         make_rng)
from helpers import assert_golden, load_tool

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "golden_oracle.txt"
FIELDS = ("value", "t_values", "raw_values", "estimates", "refined",
          "converged")


def _seeded(m, seed):
    """Ray and point in the order of ``helpers.random_ray``, then p."""
    rng = make_rng(seed)
    q = m.random_point(rng)
    v = m.random_tangent(q, rng)
    return BusemannRay(q, v), m.random_point(rng)


def cases():
    """(label, manifold, ray, p, schedule) of every pinned oracle call."""
    for mode in ("difference", "quotient"):
        m = Hyperboloid(2)
        for seed in range(3):
            yield (f"{m.name} seed {seed} {mode}", m, *_seeded(m, seed),
                   OracleSchedule(mode=mode))
    for m, seeds in ((SPDManifold(5), range(4)), (SPDManifold(20), range(2)),
                     (DikinOrthant(3), range(3))):
        for seed in seeds:
            yield (f"{m.name} seed {seed}", m, *_seeded(m, seed), None)
    m = SPDManifold(5)
    rng = make_rng(284)
    q = m.random_point(rng)
    p = m.random_point(rng)
    ray = BusemannRay(q, m.random_tangent(q, rng))
    yield f"{m.name} seed 284 underflow", m, ray, p, None
    yield (f"{m.name} seed 284 underflow in the base schedule", m, ray, p,
           OracleSchedule(t_values=(5.0, 1920.0)))
    rng = make_rng(7)
    y = m.random_point(rng)
    yield (f"{m.name} seed 7 degenerate V = Y", m, BusemannRay(y, y),
           m.random_point(rng), None)


def render():
    """The data lines of every case."""
    lines = []
    for label, m, ray, p, schedule in cases():
        lines.append(f"# {label}")
        try:
            res = busemann_numeric(m, ray, p, schedule)
        except Exception as exc:
            lines.append(f"raises {type(exc).__name__}: {exc}")
            continue
        lines += [f"{name} {getattr(res, name)!r}" for name in FIELDS]
    return lines


def test_golden_oracle_unchanged():
    assert_golden(GOLDEN, render(), "golden oracle lines",
                  "the oracle's results")


if __name__ == "__main__":
    print(f"# build {load_tool('cli_rows').build()}")
    print("\n".join(render()))
