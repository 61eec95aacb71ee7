"""SPD kernels against 50-digit mpmath references (ROADMAP item 4(a)).

Each draw is on SPD(4): a center with eigenvalues 10^(+-c/2), c =
``log10_cond``, and points X, Y that are geodesic perturbations of it
(spread e^+-1), as the iterates of one contrastive run are of theirs;
V and S are Y^1/2 W Y^1/2 with W symmetric and Gaussian.  The
references diagonalize every congruence with ``mp.eigsy`` and never
call the package.  Errors are in units of eps 10^c:

* ``dist`` relative to d(X, Y);
* ``busemann`` over d(X, Y), which bounds |B_{Y,V}(X)| (B is
  1-Lipschitz and 0 at Y), so that a value near 0 does not inflate it;
* the linear-model value <S, log_Y X>_Y over its Cauchy-Schwarz bound
  |S|_Y d(Y, X);
* ``inner`` <S, V>_Y over |S|_Y |V|_Y, and ``norm`` |V|_Y relative;
* ``log`` log_Y X by the norm of its error in the metric at Y, over
  d(X, Y);
* ``exp`` exp_Y V by the norm of its error in the metric at the
  reference exp_Y V, over 1 + |V|_Y.

Each stays below 16 eps 10^c.  Over 100 draws per c the worst of the
first three were 5.3, 5.1 and 3.6 eps (c = 0), and below 0.4 eps 10^c
at c = 4 and 8; the former X^+-1/2 kernels reached 12, 9.6 and 13.6 eps
at c = 0 (``notes/decisions.md``, "The Cholesky factor is the SPD
point's factor").  Over 40 draws per c, ``inner``, ``norm``, ``log``
and ``exp`` reached 1.6, 1.4, 12.8 and 4.8 eps at c = 0 (``exp`` 14.7
before the division by 1 + |V|_Y), and at most 0.6, 0.23, 0.37 and
0.35 eps 10^c at c = 4 and 8 (``notes/decisions.md``, "One factor per
SPD point").
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from hadamard_dc import BusemannRay, SPDManifold
from helpers import direction, examples, near_center_sampler

BOUND = 16                  # in units of eps 10^c


def mp_spectral(a, fn):
    """fn of a symmetric mpmath matrix, through ``mp.eigsy``."""
    w, u = mp.eigsy(a)
    return u * mp.diag([fn(t) for t in w]) * u.T


def mp_sym(a):
    return (a + a.T) / 2


def mp_references(x, y, v, s):
    """(d(X, Y), B_{Y,V}(X), <S, log_Y X>_Y, |S|_Y d(Y, X)) at the working
    precision, with C = Y^-1/2:

        d(X, Y)         = |Log(C X C)|_F
        B_{Y,V}(X)      = -2 |lam|^-1 sum_j lam_j ln l_jj
        <S, log_Y X>_Y  = tr(C S C Log(C X C))

    where C V C = U diag(lam) U^T with lam ascending and l l^T =
    U^T C X C U (Cholesky)."""
    n = x.shape[0]
    c = mp_spectral(mp.matrix(y.tolist()), lambda t: 1 / mp.sqrt(t))
    cxc = mp_sym(c * mp.matrix(x.tolist()) * c)
    dist = mp.sqrt(sum(mp.log(t) ** 2 for t in mp.eigsy(cxc)[0]))
    lam, u = mp.eigsy(mp_sym(c * mp.matrix(v.tolist()) * c))
    order = sorted(range(n), key=lambda i: lam[i])
    lam = [lam[i] for i in order]
    u = mp.matrix([[u[r, i] for i in order] for r in range(n)])
    ell = mp.cholesky(mp_sym(u.T * cxc * u))
    busemann = -2 / mp.sqrt(sum(t ** 2 for t in lam)) \
        * sum(lam[j] * mp.log(ell[j, j]) for j in range(n))
    csc = c * mp.matrix(s.tolist()) * c
    log = mp_spectral(cxc, mp.log)
    linear = sum((csc * log)[i, i] for i in range(n))
    return dist, busemann, linear, mp.norm(csc) * mp.norm(log)


def mp_metric_references(y, u, v, x):
    """(<U, V>_Y, |V|_Y, |U|_Y, C, log_Y X, exp_Y V, E^-1/2 with E =
    exp_Y V) at the working precision, with C = Y^-1/2:

        <U, V>_Y = tr(C U C C V C)
        log_Y X  = Y^1/2 Log(C X C) Y^1/2
        exp_Y V  = Y^1/2 Exp(C V C) Y^1/2."""
    ym = mp.matrix(y.tolist())
    c = mp_spectral(ym, lambda t: 1 / mp.sqrt(t))
    root = mp_spectral(ym, mp.sqrt)
    cuc = mp_sym(c * mp.matrix(u.tolist()) * c)
    cvc = mp_sym(c * mp.matrix(v.tolist()) * c)
    inner = sum((cuc * cvc)[i, i] for i in range(y.shape[0]))
    log = root * mp_spectral(mp_sym(c * mp.matrix(x.tolist()) * c),
                             mp.log) * root
    exp = root * mp_spectral(cvc, mp.exp) * root
    return (inner, mp.norm(cvc), mp.norm(cuc), c, log, exp,
            mp_spectral(exp, lambda t: 1 / mp.sqrt(t)))


@pytest.mark.parametrize("log10_cond", [0, 4, 8])
@settings(max_examples=examples(4), deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_spd_kernels_against_mpmath(log10_cond, seed):
    n = 4
    rng = np.random.default_rng(seed)
    near_center = near_center_sampler(n, rng, log10_cond)
    x, y = near_center(), near_center()
    v, s = direction(y, rng, "generic"), direction(y, rng, "generic")
    m = SPDManifold(n)
    got_dist = m.dist(x, y)
    got_busemann = m.busemann(BusemannRay(y, v), x)
    got_linear = m._linear_model(m.point(y), s).value(m.point(x))
    got_log, got_exp = m.log(y, x), m.exp(y, v)
    unit = float(np.finfo(float).eps) * 10.0 ** log10_cond
    with mp.workdps(50):
        dist, busemann, linear, bound = mp_references(x, y, v, s)
        inner, norm_v, norm_s, c, log, exp, e_isqrt = \
            mp_metric_references(y, s, v, x)
        log_err = c * (mp.matrix(got_log.tolist()) - log) * c
        exp_err = e_isqrt * (mp.matrix(got_exp.tolist()) - exp) * e_isqrt
        errors = {
            "dist": abs(mp.mpf(got_dist) - dist) / dist,
            "busemann": abs(mp.mpf(got_busemann) - busemann) / dist,
            "linear model": abs(mp.mpf(got_linear) - linear) / bound,
            "inner": abs(mp.mpf(m.inner(y, s, v)) - inner)
            / (norm_s * norm_v),
            "norm": abs(mp.mpf(m.norm(y, v)) - norm_v) / norm_v,
            "log": mp.norm(log_err) / dist,
            "exp": mp.norm(exp_err) / (1 + norm_v),
        }
    for kernel, err in errors.items():
        assert float(err) <= BOUND * unit, kernel
