"""``Manifold.point`` is the one gate for points: every public method that
takes a point rejects a non-finite, wrong-shape or off-manifold one with
ValidationError, and a point of another manifold is checked again."""

import math
import re

import numpy as np
import pytest

from hadamard_dc import (BusemannRay, Hyperboloid, ValidationError,
                         busemann_numeric, make_b_subproblem,
                         make_cr_subproblem, make_rng)
from hadamard_dc.geometry import (DikinOrthant, Euclidean, SPDManifold,
                                  fd_riemannian_grad)
from hadamard_dc.problems import rosenbrock_problem
from helpers import all_geometries

# a RuntimeWarning on the way to the ValidationError fails the test
pytestmark = pytest.mark.filterwarnings("error")


def gid(m):
    """A test id of a geometry, without the commas of its name."""
    return re.sub(r"\W+", "_", m.name).strip("_")


class Good:
    """Valid arguments on one geometry: points p, q and a tangent v at p."""

    def __init__(self, m):
        rng = make_rng(5)
        self.p = m.random_point(rng)
        self.q = m.random_point(rng)
        self.v = m.random_tangent(self.p, rng)


# each call puts the bad point ``x`` into one point argument
CALLS = {
    "point": lambda m, x, g: m.point(x),
    "check_point": lambda m, x, g: m.check_point(x),
    "check_tangent": lambda m, x, g: m.check_tangent(x, g.v),
    "inner": lambda m, x, g: m.inner(x, g.v, g.v),
    "norm": lambda m, x, g: m.norm(x, g.v),
    "exp": lambda m, x, g: m.exp(x, g.v),
    "log/p": lambda m, x, g: m.log(x, g.q),
    "log/q": lambda m, x, g: m.log(g.p, x),
    "dist/p": lambda m, x, g: m.dist(x, g.q),
    "dist/q": lambda m, x, g: m.dist(g.p, x),
    "geodesic/p": lambda m, x, g: m.geodesic(x, g.q, 0.5),
    "geodesic/q": lambda m, x, g: m.geodesic(g.p, x, 0.5),
    "project": lambda m, x, g: m.project(x, g.v),
    "zero_tangent": lambda m, x, g: m.zero_tangent(x),
    "rep_scale": lambda m, x, g: m.rep_scale(x),
    "tangent_basis": lambda m, x, g: m.tangent_basis(x),
    "egrad_to_rgrad": lambda m, x, g: m.egrad_to_rgrad(x, g.v),
    "random_tangent": lambda m, x, g: m.random_tangent(x, make_rng(0)),
    "random_point_near": lambda m, x, g:
        m.random_point_near(x, 1.0, make_rng(0)),
    "busemann/base": lambda m, x, g: m.busemann(BusemannRay(x, g.v), g.q),
    "busemann/p": lambda m, x, g: m.busemann(BusemannRay(g.p, g.v), x),
    "busemann_grad/base": lambda m, x, g:
        m.busemann_grad(BusemannRay(x, g.v), g.q),
    "busemann_grad/p": lambda m, x, g:
        m.busemann_grad(BusemannRay(g.p, g.v), x),
    "linear_model_grad/q": lambda m, x, g:
        m.linear_model_grad(x, g.v, g.q),
    "linear_model_grad/p": lambda m, x, g:
        m.linear_model_grad(g.p, g.v, x),
    "busemann_numeric/base": lambda m, x, g:
        busemann_numeric(m, BusemannRay(x, g.v), g.q),
    "busemann_numeric/p": lambda m, x, g:
        busemann_numeric(m, BusemannRay(g.p, g.v), x),
    "fd_riemannian_grad": lambda m, x, g:
        fd_riemannian_grad(m, lambda y: 0.0, x),
}
SPD_CALLS = {
    "spectral_split": lambda m, x, g: m.spectral_split(x, g.v),
}


def bad_points(m, p):
    """(kind, array) of the points of the shape of ``p`` that ``m`` must
    reject: non-finite, wrong shape, and off the manifold."""
    nan = p.copy()
    nan.flat[0] = math.nan
    bad = [("nan", nan), ("inf", np.full_like(p, math.inf)),
           ("shape", np.append(p.ravel(), 1.0))]
    if isinstance(m, Hyperboloid):
        bad += [("lower-sheet", -p), ("off-quadric", 2.0 * p)]
    elif isinstance(m, SPDManifold):
        indefinite = np.eye(m.n)
        indefinite[0, 0] = -1.0
        bad += [("indefinite", indefinite)]
    elif isinstance(m, DikinOrthant):
        zero, negative = p.copy(), p.copy()
        zero[0], negative[-1] = 0.0, -p[-1]
        bad += [("zero-coordinate", zero), ("negative-coordinate", negative)]
    return bad


def cases():
    for m in all_geometries():
        calls = dict(CALLS, **(SPD_CALLS if isinstance(m, SPDManifold)
                               else {}))
        p = m.random_point(make_rng(5))
        for kind, x in bad_points(m, p):
            for name, call in calls.items():
                yield pytest.param(m, x, call,
                                   id=f"{gid(m)}-{name}-{kind}")


@pytest.mark.parametrize("m, x, call", cases())
def test_every_point_argument_rejects_a_bad_point(m, x, call):
    with pytest.raises(ValidationError):
        call(m, x, Good(m))


@pytest.mark.parametrize("m", all_geometries(), ids=gid)
def test_project_rejects_a_non_finite_ambient_array(m):
    g = Good(m)
    x = np.full_like(g.v, math.inf)
    with pytest.raises(ValidationError, match="non-finite"):
        m.project(g.p, x)


@pytest.mark.parametrize("m", all_geometries(), ids=gid)
def test_another_manifolds_point_is_checked_again(m):
    """A valid point of another instance of the same geometry becomes a
    point of this one; a point this geometry rejects raises."""
    twin = type(m)(m.n)
    p = twin.point(Good(m).p)
    again = m.point(p)
    assert again.manifold is m and again is not p
    assert np.array_equal(again.x, p.x)
    off = Euclidean(2).point(np.array([-1.0, 0.0]))
    with pytest.raises(ValidationError):
        m.point(off)


@pytest.mark.parametrize("make", [make_cr_subproblem, make_b_subproblem])
def test_subproblem_checks_another_manifolds_point(make):
    """The apex of Hyperboloid(2, 4.0) is off the sheet of curvature -1:
    a subproblem on the latter rejects it, as ``phi`` does."""
    prob = rosenbrock_problem()
    m = prob.manifold
    p_k = m.point(m.random_point(make_rng(3)))
    obj = make(prob, p_k, p_k.derived(prob.h_subgrad))
    other = Hyperboloid(2, 4.0)
    apex = other.point(other.apex())
    for evaluate in (prob.phi, obj.value, obj.grad):
        with pytest.raises(ValidationError):
            evaluate(apex)


@pytest.mark.parametrize("x, y", [
    ([math.inf, 0.0, math.inf], [1.0, 0.0, 1.0]),
    ([1.0, 0.0, 1.0], [math.nan, 0.0, 1.0]),
    ([1.0, 0.0], [1.0, 0.0, 1.0]),
], ids=["inf", "nan", "shape"])
def test_lorentz_rejects_a_non_finite_or_wrong_shape_vector(x, y):
    with pytest.raises(ValidationError):
        Hyperboloid(2).lorentz(x, y)
