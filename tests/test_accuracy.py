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
  |S|_Y d(Y, X).

Each stays below 16 eps 10^c.  Over 100 draws per c the worst were 5.3,
5.1 and 3.6 eps (c = 0), and below 0.4 eps 10^c at c = 4 and 8; the
former X^+-1/2 kernels reached 12, 9.6 and 13.6 eps at c = 0
(``notes/decisions.md``, "The Cholesky factor of the check is the
point's factor").
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
    unit = float(np.finfo(float).eps) * 10.0 ** log10_cond
    with mp.workdps(50):
        dist, busemann, linear, bound = mp_references(x, y, v, s)
        errors = {
            "dist": abs(mp.mpf(got_dist) - dist) / dist,
            "busemann": abs(mp.mpf(got_busemann) - busemann) / dist,
            "linear model": abs(mp.mpf(got_linear) - linear) / bound,
        }
    for kernel, err in errors.items():
        assert float(err) <= BOUND * unit, kernel
