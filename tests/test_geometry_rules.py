"""One place per geometry rule: |v|_q has one kernel per geometry,
``_norm``, which the public ``norm`` wraps and whose value the
horofunction keeps as the scale of ``_support_term``; the rules the flat
geometries share live in ``FlatManifold``; the limit oracle stops on its
probe alone, with no per-geometry guard."""

import inspect
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hadamard_dc import NumericalDomainError, make_rng
from hadamard_dc.geometry import (DikinOrthant, Euclidean, Hyperboloid,
                                  Manifold, SPDManifold)
from hadamard_dc.geometry.base import FlatManifold, RayProbe
from helpers import all_geometries, examples

GEOMETRIES = all_geometries()


@settings(max_examples=examples(60), deadline=None)
@given(which=st.integers(0, len(GEOMETRIES) - 1),
       seed=st.integers(0, 2**32 - 1), log2_scale=st.integers(-60, 60))
def test_support_scale_is_the_norm_kernel_and_the_public_norm(which, seed,
                                                              log2_scale):
    """``_support_term(q, s)[1]``, ``_norm(q, s)`` and ``norm(q, s)``
    agree bit for bit on every geometry: the support scale is the |s|_q
    the horofunction computed, by the one kernel the public norm calls."""
    m = GEOMETRIES[which]
    rng = make_rng(seed)
    q = m.point(m.random_point(rng))
    s = math.ldexp(1.0, log2_scale) * m.random_tangent(q, rng)
    scale = m._support_term(q, s)[1]
    assert scale == m._norm(q, s) == m.norm(q.x, s)
    assert scale > 0.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_spd_norm_where_only_its_squares_overflow():
    """At Y = diag(1e-200, 1), V = diag(1e100, 1) the congruence is
    diag(1e300, 1), whose squares overflow: the three forms of |V|_Y
    return 1e300 (``_norm`` warned and returned inf).  At V = diag(1e200,
    1), where |V|_Y = 1e400 overflows itself, all three raise."""
    m = SPDManifold(2)
    y = np.diag([1e-200, 1.0])
    point = m.point(y)
    v = np.diag([1e100, 1.0])
    assert m._support_term(point, v)[1] == m._norm(point, v) \
        == m.norm(y, v) == 1e300
    v = np.diag([1e200, 1.0])
    for norm in (lambda: m._support_term(point, v), lambda: m._norm(point, v),
                 lambda: m.norm(y, v)):
        with pytest.raises(NumericalDomainError, match="overflows"):
            norm()


MOVED = ("__init__", "check_tangent", "project", "_horofunction",
         "coordinate_directions")


def test_each_rule_is_defined_in_one_place():
    """SPD has no ``norm`` or ``_support_term`` of its own, and the flat
    geometries take the five rules they share from ``FlatManifold``; the
    public ``norm`` is the base wrapper of ``_norm`` on every geometry."""
    assert "norm" not in vars(SPDManifold)
    assert "_support_term" not in vars(SPDManifold)
    for cls in (Euclidean, DikinOrthant):
        assert cls.__bases__ == (FlatManifold,)
        assert not set(MOVED) & set(vars(cls))
    for m in GEOMETRIES:
        assert type(m).norm is Manifold.norm
        assert type(m)._support_term is Manifold._support_term


def test_the_oracle_stop_and_the_norm_are_defined_once():
    """The hyperboloid takes |v| from the base ``_norm`` through its
    ``_inner``; the hyperboloid and the Dikin orthant take the generic
    probe, whose exponential raises at their overflow limits, and no
    probe carries a guard of its own."""
    assert "_norm" not in vars(Hyperboloid)
    for cls in (Hyperboloid, DikinOrthant):
        assert "_ray_probe" not in vars(cls)
    assert list(inspect.signature(RayProbe).parameters) == \
        ["manifold", "q", "unit_dir", "p"]
    for m in GEOMETRIES:
        rng = make_rng(0)
        q = m.point(m.random_point(rng))
        u = m.random_tangent(q, rng)
        probe = m._ray_probe(q, u / m.norm(q, u), q)
        assert not hasattr(probe, "t_guard")


@pytest.mark.parametrize("cls, kind", [(Euclidean, "euclidean"),
                                       (DikinOrthant, "dikin")])
def test_flat_geometries_keep_their_names_and_messages(cls, kind):
    m = cls(3)
    assert (m.n, m.dim, m.name) == (3, 3, f"{kind}(3)")
    with pytest.raises(ValueError,
                       match=re.escape(f"{kind}: dimension must be")):
        cls(0)
    with pytest.raises(ValueError, match=re.escape(
            f"{kind}(3): tangent has shape (2,), expected (3,)")):
        m.check_tangent(np.ones(3), np.ones(2))
    assert [e.tolist() for e in m.coordinate_directions()] \
        == np.eye(3).tolist()
