"""Symmetric positive definite matrices with the affine-invariant metric.

All matrix functions run through the symmetric eigendecomposition; the
non-symmetric congruence Log(Y^-1 X) is never formed.  Products and
congruences are re-symmetrized to suppress rounding drift, once each:
``sym_eig`` and ``chol`` symmetrize their argument, so their callers pass
the raw product, and ``sym`` of an exactly symmetric matrix returns it
bit for bit (float addition commutes), so results stay the same.

Metric and maps at a base point Y:

    <U, V>_Y   = tr(Y^-1 U Y^-1 V)
    d(X, Y)    = |Log(Y^-1/2 X Y^-1/2)|_F
    exp_Y(V)   = Y^1/2 Exp(Y^-1/2 V Y^-1/2) Y^1/2 = G diag(e^lam) G^T
    log_X(Y)   = X^1/2 Log(X^-1/2 Y X^-1/2) X^1/2
    grad f(X)  = X f'(X) X

with Y^-1/2 V Y^-1/2 = U diag(lam) U^T and G = Y^1/2 U.  A line search
along exp_Y(t V) keeps lam and G (:class:`SPDRay`), so that each trial
costs one product and no eigendecomposition.

Busemann function of a ray (Y, V), V != 0: split Y^-1/2 V Y^-1/2 into
eigenvalue groups (ascending representatives lam_i, multiplicities n_i,
orthogonal factor U), Cholesky-factor U^T Y^-1/2 X Y^-1/2 U = L L^T, and

    B_{Y,V}(X)      = -2 (sum n_i lam_i^2)^-1/2  sum_j lam_(j) ln L_jj
    grad B_{Y,V}(X) = -(sum n_i lam_i^2)^-1/2  Y^1/2 U L D L^T U^T Y^1/2

with lam_(j) the group representative at index j and D = diag(lam_(j)).
The value is insensitive to how near-equal eigenvalues are grouped.

Weighted sums of squared distances to fixed references R_i, and their
gradients, come from the spectrum of M_i = R_i^-1/2 X R_i^-1/2 =
V_i diag(mu_i) V_i^T alone, because the log is equivariant under the
congruence by R_i^1/2:

    d^2(X, R_i)  = sum_j (ln mu_ij)^2
    log_X(R_i)   = -R_i^1/2 V_i diag(mu_i ln mu_i) V_i^T R_i^1/2

A kernel's base point is an :class:`SPDPoint`, whose X^1/2 and X^-1/2
are computed once, on first use, and shared by every kernel at X.
Everything in these formulas that depends on the ray alone (the
split, U and their products with the roots) is computed once per ray by
:class:`SPDHorofunction`, the fixed part of the classic linear model
once per (X_k, S) by :class:`SPDLinearModel`, the roots R_i^+-1/2 once
per stack of references by :class:`SPDDistanceSum`, and the congruence
reduction of the limit oracle once per ray and point by
:class:`SPDRayProbe`.  At a point the horofunction keeps its Cholesky
factor, the linear model the spectrum of X_k^-1/2 X X_k^-1/2 and the
distance sum the stacked spectrum of the M_i, which its value and
gradient share.  ``sym``, ``sym_eig``, ``spd_fun`` and ``spd_roots`` act
on a matrix or on each matrix of a stack of shape (k, n, n), so that
the k references of a sum cost one stacked eigendecomposition.

The limit probes take singular values from LAPACK's Jacobi SVD, which
numpy does not wrap.  ``dgejsv`` imports it from ``scipy.linalg`` on its
first call, so importing this module, and every kernel other than the
probe, loads numpy alone: ``scipy.linalg`` would take longer to import
than numpy itself.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ..errors import (DefinitenessError, NumericalDomainError,
                      ValidationError, ZeroDirectionError)
from .base import Manifold, Point, RayProbe, check_count


def sym(a):
    """Symmetric part (A + A^T)/2 of a matrix or of each matrix of a stack."""
    return 0.5 * (a + a.swapaxes(-1, -2))


def sym_eig(a):
    """Eigenvalues (ascending) and orthogonal factor of a symmetric matrix."""
    return np.linalg.eigh(sym(np.asarray(a, dtype=float)))


def chol(a):
    """Lower Cholesky factor; raises DefinitenessError when not SPD."""
    try:
        return np.linalg.cholesky(sym(np.asarray(a, dtype=float)))
    except np.linalg.LinAlgError as exc:
        raise DefinitenessError(f"matrix is not positive definite: {exc}") from exc


_SPD_FUNCS = {
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "invsqrt": lambda w: 1.0 / np.sqrt(w),
}

_PD_REQUIRED = {"log", "sqrt", "invsqrt"}


def spd_fun(a, kind):
    """Apply exp/log/sqrt/invsqrt to a symmetric matrix, or to each matrix
    of a stack, spectrally."""
    if kind not in _SPD_FUNCS:
        raise ValueError(f"unknown matrix function {kind!r}")
    w, u = sym_eig(a)
    if kind in _PD_REQUIRED:
        _require_positive(w, f"matrix function {kind!r}")
    return sym((u * _SPD_FUNCS[kind](w)[..., None, :]) @ u.swapaxes(-1, -2))


def spd_roots(a):
    """(A^1/2, A^-1/2) of a matrix, or of each matrix of a stack, from one
    eigendecomposition; each equals what ``spd_fun`` returns for "sqrt"
    and "invsqrt"."""
    w, u = sym_eig(a)
    _require_positive(w, "matrix square root")
    r = np.sqrt(w)[..., None, :]
    ut = u.swapaxes(-1, -2)
    return sym((u * r) @ ut), sym((u * (1.0 / r)) @ ut)


def _require_positive(w, what):
    # np.any, not w.min(), so that an empty stack passes
    if np.any(w <= 0.0):
        raise DefinitenessError(
            f"{what} needs a positive definite argument "
            f"(min eigenvalue {w.min():.3g})")


def _trace_product(a, b):
    """tr(A B) of two square matrices."""
    return float(np.einsum("ij,ji->", a, b))


def logdet(x):
    """ln det X through the Cholesky factor."""
    return 2.0 * float(np.sum(np.log(np.diag(chol(x)))))


def frechet_log(a, e):
    """Directional derivative of the matrix logarithm, D Log(A)[E].

    Divided differences of ln in the eigenbasis of A: the (i, j) weight is
    (ln w_i - ln w_j)/(w_i - w_j), with the limit 1/w_i on the diagonal.
    """
    return _frechet_log_spectral(*sym_eig(a), e)


def _frechet_log_spectral(w, u, e):
    """``frechet_log`` of the matrix with spectrum ``w`` and factor ``u``."""
    if w.min() <= 0.0:
        raise DefinitenessError(
            "frechet_log needs a positive definite base point "
            f"(min eigenvalue {w.min():.3g})")
    et = sym(u.T @ sym(np.asarray(e, dtype=float)) @ u)
    wi = w[:, None]
    wj = w[None, :]
    delta = wi - wj
    near = np.abs(delta) <= 1e-12 * wj
    # below w_i/w_j ~ 1e-16 the ratio delta/w_j rounds to -1 and log1p
    # gives -inf, so far-apart pairs take the difference of the logs
    apart = wi < 1e-8 * wj
    lw = np.log(w)
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.log1p(delta / wj) / np.where(near, 1.0, delta)
        k = np.where(apart, (lw[:, None] - lw[None, :]) / delta, k)
    k = np.where(near, 2.0 / (wi + wj), k)
    return sym(u @ (k * et) @ u.T)


@dataclass(frozen=True)
class SpectralSplit:
    """Grouped spectrum of Y^-1/2 V Y^-1/2.

    eigenvalues:     distinct group representatives, strictly ascending
    multiplicities:  group sizes, summing to n
    basis:           orthogonal factor with columns in ascending order
    boundaries:      cumulative indices alpha_0 = 0, ..., alpha_k = n
    norm_const:      (sum n_i lam_i^2)^1/2
    per_index:       representative eigenvalue at each of the n positions
    """

    eigenvalues: np.ndarray
    multiplicities: np.ndarray
    basis: np.ndarray
    boundaries: np.ndarray
    norm_const: float
    per_index: np.ndarray


_jacobi_svd = None          # scipy.linalg.lapack.dgejsv, once imported


def dgejsv(a, **options):
    """``scipy.linalg.lapack.dgejsv(a, **options)``, imported on the first
    call and kept in ``_jacobi_svd``, so that later calls cost one Python
    call more than the LAPACK wrapper."""
    global _jacobi_svd
    if _jacobi_svd is None:
        from scipy.linalg.lapack import dgejsv as _jacobi_svd
    return _jacobi_svd(a, **options)


def _log_singular_values(a):
    """Logs of the singular values of a row-scaled triangular factor.

    The Jacobi SVD keeps high relative accuracy for matrices of the form
    D * C with an ill-conditioned diagonal D, which plain QR-based SVD
    loses; that accuracy is what makes the large-t limit probes usable.
    Only a failed Jacobi SVD (``info != 0``) warns and falls back to the
    standard SVD.  A zero singular value, which a converged one reports
    when the row scaling underflows, raises NumericalDomainError.

    The SVD is called through the module global ``dgejsv``, which loads
    ``scipy.linalg`` on the first probe; nothing rebinds that global, so
    a wrapper put in its place sees every call.
    """
    sva, _, _, work, _, info = dgejsv(np.asarray(a, dtype=float, order="F"),
                                      joba=2, jobu=3, jobv=3, jobr=0)
    if info != 0:
        warnings.warn("dgejsv did not converge, falling back to standard SVD",
                      RuntimeWarning)
        # the standard SVD returns unscaled values: a unit scale factor
        sva, work = np.linalg.svd(a, compute_uv=False), (1.0, 1.0)
    if np.any(sva <= 0.0):
        raise NumericalDomainError("singular value underflow in limit probe")
    return np.log(sva) + (math.log(work[0]) - math.log(work[1]))


class SPDManifold(Manifold):
    """P(n) with the affine-invariant geometry."""

    def __init__(self, n):
        self.n = check_count(n, "spd: dimension")
        self.dim = self.n * (self.n + 1) // 2
        self.name = f"spd({n})"

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------

    def check_point(self, x):
        x = self._as_array(x, "point", (self.n, self.n))
        scale = 1.0 + float(np.linalg.norm(x))
        if np.linalg.norm(x - x.T) > 1e-10 * scale:
            raise ValidationError(f"{self.name}: point is not symmetric")
        self._definite(sym(x))
        return x

    def _definite(self, x):
        """``x``, a finite and exactly symmetric matrix, after the Cholesky
        test of ``check_point``."""
        try:
            np.linalg.cholesky(x)
        except np.linalg.LinAlgError as exc:
            raise DefinitenessError(
                f"{self.name}: point is not positive definite") from exc
        return x

    def check_tangent(self, x, v):
        v = self._as_array(v, "tangent", (self.n, self.n))
        scale = 1.0 + float(np.linalg.norm(v))
        if np.linalg.norm(v - v.T) > 1e-10 * scale:
            raise ValidationError(f"{self.name}: tangent is not symmetric")
        return v

    # ------------------------------------------------------------------
    # metric, exponential, logarithm
    # ------------------------------------------------------------------

    def _inner(self, y, u, v):
        y = y.x
        return _trace_product(np.linalg.solve(y, u), np.linalg.solve(y, v))

    def _norm(self, y, v):
        # the generic form's _inner(y, v, v) solves Y^-1 V twice
        z = np.linalg.solve(y.x, v)
        return math.sqrt(max(_trace_product(z, z), 0.0))

    def _point(self, x):
        return SPDPoint(self, x)

    def _exp(self, y, v):
        return SPDRay(self, y, v).exp(1.0)

    def _ray(self, y, d):
        return SPDRay(self, y, d)

    def _log(self, x, y):
        """log_X(Y) from the point X."""
        xh, xih = x.roots
        return sym(xh @ spd_fun(xih @ y @ xih, "log") @ xh)

    def _dist(self, x, y):
        return self._dist_invsqrt(x, spd_fun(y, "invsqrt"))

    def _dist_to(self, x, y):
        return self._dist_invsqrt(x, y.roots[1])

    def _dist_invsqrt(self, x, yih):
        """d(X, Y) from Y^-1/2, through the eigvalsh of Y^-1/2 X Y^-1/2."""
        w = np.linalg.eigvalsh(sym(yih @ x @ yih))
        if np.any(w <= 0.0):
            raise DefinitenessError(
                f"{self.name}: congruence lost definiteness in dist")
        return float(np.linalg.norm(np.log(w)))

    def project(self, x, a):
        return sym(np.asarray(a, dtype=float))

    # ------------------------------------------------------------------
    # gradients and linear models
    # ------------------------------------------------------------------

    def egrad_to_rgrad(self, x, egrad):
        x = self._array(x)
        g = sym(self._as_array(egrad, "euclidean gradient", (self.n, self.n)))
        return sym(x @ g @ x)

    def _linear_model(self, xk, s):
        return SPDLinearModel(self, xk, s)

    # ------------------------------------------------------------------
    # Busemann function
    # ------------------------------------------------------------------

    def spectral_split(self, y, v):
        """Group the spectrum of Y^-1/2 V Y^-1/2 by near-equality."""
        y = self.point(y)
        return self._spectral_split(y.roots[1], self.check_tangent(y.x, v))

    def _spectral_split(self, yih, v):
        """``spectral_split`` from Y^-1/2 and a validated direction V."""
        lam, u = sym_eig(yih @ v @ yih)
        lmax = float(np.max(np.abs(lam))) if lam.size else 0.0
        if lmax == 0.0:
            raise ZeroDirectionError(
                f"{self.name}: spectral split needs a nonzero direction")
        gap_tol = 1e-10 * max(1.0, lmax)    # relative gap between groups
        cuts = np.flatnonzero(np.diff(lam) > gap_tol) + 1
        bounds = np.concatenate(([0], cuts, [self.n]))
        mults = np.diff(bounds)
        # a singleton group is its eigenvalue; only larger groups average
        reps = lam[bounds[:-1]]
        for i in np.flatnonzero(mults > 1):
            reps[i] = np.mean(lam[bounds[i]:bounds[i + 1]])
        per_index = np.repeat(reps, mults)
        norm_const = float(np.linalg.norm(per_index))
        return SpectralSplit(reps, mults, u, bounds, norm_const, per_index)

    def _horofunction(self, y, v):
        return SPDHorofunction(self, y, v)

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------

    def random_point(self, rng):
        """Q diag(e^u) Q^T with Q orthogonal and u uniform in [-1.5, 1.5]."""
        q, _ = np.linalg.qr(rng.standard_normal((self.n, self.n)))
        u = rng.uniform(-1.5, 1.5, self.n)
        return sym((q * np.exp(u)) @ q.T)

    def random_tangent(self, x, rng):
        xh = self.point(x).roots[0]
        g = sym(rng.standard_normal((self.n, self.n)))
        return sym(xh @ g @ xh)

    def coordinate_directions(self):
        n = self.n
        isq = 1.0 / math.sqrt(2.0)
        for i in range(n):
            e = np.zeros((n, n))
            e[i, i] = 1.0
            yield e
        for i in range(n):
            for j in range(i + 1, n):
                e = np.zeros((n, n))
                e[i, j] = isq
                e[j, i] = isq
                yield e

    def tangent_basis(self, x):
        """Metric-orthonormal basis X^1/2 S_k X^1/2 over the symmetric units.

        Equivalent to Gram-Schmidt on the projected coordinate directions
        but exact, since the units are orthonormal under the metric at I.
        """
        xh = self.point(x).roots[0]
        return [sym(xh @ e @ xh) for e in self.coordinate_directions()]

    # ------------------------------------------------------------------
    # oracle support
    # ------------------------------------------------------------------

    def _ray_probe(self, y, unit_dir, x):
        return SPDRayProbe(self, y, unit_dir, x)


class SPDRayProbe(RayProbe):
    """d(X, exp_Y(t V)) through an exactly congruence-reduced form.

    With lam, U the spectrum of Y^-1/2 V Y^-1/2 and L the Cholesky factor
    of U^T Y^-1/2 X Y^-1/2 U, affine invariance gives d = |Log(S L L^T S)|_F
    with S = Exp(-t lam / 2); the eigenvalues of S L L^T S are the squared
    singular values of S L, computed to high relative accuracy by the
    Jacobi SVD even when the row scaling spans hundreds of orders of
    magnitude.  lam, U, L and the guard 1200 / max |lam| depend on the ray
    and X alone and are computed here, once, with Y^-1/2 taken from the
    point Y; a probe costs the row scaling and the SVD.
    """

    def __init__(self, manifold, y, unit_dir, x):
        yih = y.roots[1]
        c = yih @ unit_dir @ yih
        self.lam, u = sym_eig(c)
        self.ell = chol(u.T @ yih @ x @ yih @ u)
        lmax = float(np.max(np.abs(self.lam)))
        self.t_guard = 1e12 if lmax == 0.0 else 1200.0 / lmax

    def distance(self, t):
        a = np.exp(-0.5 * t * self.lam)[:, None] * self.ell
        return float(np.linalg.norm(2.0 * _log_singular_values(a)))


class SPDRay:
    """t -> exp_X(t D) with W = X^-1/2 D X^-1/2 = U diag(lam) U^T
    diagonalized once: exp_X(t D) = G diag(e^{t lam}) G^T with G = X^1/2 U,
    a factor of X (G G^T = X) that reduces the congruence of D to
    diag(lam).  ``speed`` = |D|_X = |lam|_2.  ``exp(t)`` is the array, with
    the overflow guard t max|lam| <= 700; ``step(t)`` is its checked
    point, tested for finite entries and by ``_definite``: the array is
    exactly symmetric and of the right shape by construction, so the
    other tests of ``check_point`` could not fail.
    """

    __slots__ = ("manifold", "lam", "g", "top", "speed")

    def __init__(self, manifold, x, d):
        xh, xih = x.roots
        self.manifold = manifold
        try:
            self.lam, u = sym_eig(xih @ d @ xih)
        except np.linalg.LinAlgError:
            # eigh fails only where X^-1/2 D X^-1/2 is not finite: the ray
            # then has speed NaN, as |D|_X had, so no line search runs
            # along it
            self.lam, u = np.full(manifold.n, math.nan), np.asarray(d)
        self.g = xh @ u
        self.top = float(np.max(np.abs(self.lam)))
        self.speed = float(np.linalg.norm(self.lam))

    def exp(self, t):
        arg = t * self.top
        if arg > 700.0:
            raise OverflowError(
                f"{self.manifold.name}: exponential map argument "
                f"{arg:.3g} exceeds the overflow guard")
        g = self.g
        return sym((g * np.exp(t * self.lam)) @ g.T)

    def step(self, t):
        m = self.manifold
        x = self.exp(t)
        if not np.isfinite(x).all():
            raise ValidationError(f"{m.name}: point has non-finite entries")
        return m._point(m._definite(x))


def _point_roots(x):
    return spd_roots(x.x)


class SPDPoint(Point):
    """A point X of P(n) with ``roots`` = (X^1/2, X^-1/2), from one
    eigendecomposition on first use."""

    __slots__ = ()

    @property
    def roots(self):
        return self.derived(_point_roots)


class SPDHorofunction:
    """B_{Y,V}, V != 0, with the ray's fixed data computed once: Y^+-1/2
    (from the point Y), the spectral split of Y^-1/2 V Y^-1/2 (one
    eigendecomposition) and the products of U with the roots.  An
    evaluation then costs one Cholesky factorization, which the point
    keeps for the gradient there, and a few products.
    """

    def __init__(self, manifold, y, v):
        self.yh, self.yih = y.roots
        self.split = manifold._spectral_split(self.yih, v)
        self.u = self.split.basis
        self.ut_yih = self.u.T @ self.yih
        self.yh_u = self.yh @ self.u
        self.d = np.diag(self.split.per_index)

    def _cholesky(self, x):
        # the leading products of u.T @ yih @ x @ yih @ u, evaluated left
        # to right, are the cached ut_yih
        return chol(self.ut_yih @ x.x @ self.yih @ self.u)

    def value(self, x):
        ell = x.derived(self._cholesky)
        return float(-2.0 / self.split.norm_const *
                     np.sum(self.split.per_index * np.log(np.diag(ell))))

    def grad(self, x):
        ell = x.derived(self._cholesky)
        grad = self.yh_u @ (ell @ self.d @ ell.T) @ self.u.T @ self.yh
        return sym(-grad / self.split.norm_const)


class SPDLinearModel:
    """p -> <S, log_{X_k} p> with the fixed data of (X_k, S) computed once:
    C = X_k^-1/2 (from the point X_k) and C S C.  Value and gradient at X
    both start from the eigendecomposition C X C = U diag(w) U^T, which
    the point keeps; the value is

        tr(C S C Log(C X C)) = sum_j ln w_j u_j^T (C S C) u_j.

    Holds arrays only, since each point it evaluates keeps it alive.
    """

    def __init__(self, manifold, xk, s):
        self.c = xk.roots[1]
        self.csc = sym(self.c @ s @ self.c)

    def _reduced(self, x):
        # spectrum of C X C, the argument of Log in log_{X_k} X
        return sym_eig(self.c @ x.x @ self.c)

    def value(self, x):
        w, u = x.derived(self._reduced)
        _require_positive(w, "matrix function 'log'")
        return float(np.sum(u * (self.csc @ u), axis=0) @ np.log(w))

    def grad(self, x):
        egrad = sym(self.c @ _frechet_log_spectral(*x.derived(self._reduced),
                                                   self.csc) @ self.c)
        return sym(x.x @ egrad @ x.x)


class SPDDistanceSum:
    """X -> sum_i w_i d^2(X, R_i) over fixed references R_i, and its
    gradient -2 sum_i w_i log_X(R_i), from one spectrum per point.

    With M_i = R_i^-1/2 X R_i^-1/2 = V_i diag(mu_i) V_i^T,

        d^2(X, R_i)  = sum_j (ln mu_ij)^2
        log_X(R_i)   = -R_i^1/2 V_i diag(mu_i ln mu_i) V_i^T R_i^1/2

    (the log is equivariant under the congruence by R_i^1/2, and
    log_M(I) = -M^1/2 Log(M) M^1/2).  R_i^+-1/2 come from one stacked
    eigendecomposition, here; at a point X the stacked eigendecomposition
    of the M_i, which the point keeps, serves the value and the gradient,
    so neither needs X^+-1/2.  A nonpositive mu raises DefinitenessError,
    which the line search takes as a trial outside the domain.  An empty
    stack of references gives 0 and the zero gradient.  Holds arrays only.
    """

    def __init__(self, refs, weights):
        self.weights = np.asarray(weights, dtype=float)
        self.rh, self.rih = spd_roots(refs)

    def _spectrum(self, x):
        # (ln mu, mu, V) of the stack of M_i
        mu, v = sym_eig(self.rih @ x.x @ self.rih)
        if np.any(mu <= 0.0):
            raise DefinitenessError(
                "spd: congruence lost definiteness in a distance sum")
        return np.log(mu), mu, v

    def value(self, x):
        log_mu = x.derived(self._spectrum)[0]
        return float(self.weights @ np.sum(log_mu * log_mu, axis=-1))

    def grad(self, x):
        log_mu, mu, v = x.derived(self._spectrum)
        a = self.rh @ v
        c = self.weights[:, None] * (mu * log_mu)
        return sym(2.0 * np.sum((a * c[:, None, :]) @ a.swapaxes(-1, -2),
                                axis=0))
