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
    exp_Y(V)   = Y^1/2 Exp(Y^-1/2 V Y^-1/2) Y^1/2
    log_X(Y)   = X^1/2 Log(X^-1/2 Y X^-1/2) X^1/2
    grad f(X)  = X f'(X) X

Busemann function of a ray (Y, V), V != 0: split Y^-1/2 V Y^-1/2 into
eigenvalue groups (ascending representatives lam_i, multiplicities n_i,
orthogonal factor U), Cholesky-factor U^T Y^-1/2 X Y^-1/2 U = L L^T, and

    B_{Y,V}(X)      = -2 (sum n_i lam_i^2)^-1/2  sum_j lam_(j) ln L_jj
    grad B_{Y,V}(X) = -(sum n_i lam_i^2)^-1/2  Y^1/2 U L D L^T U^T Y^1/2

with lam_(j) the group representative at index j and D = diag(lam_(j)).
The value is insensitive to how near-equal eigenvalues are grouped.

X^1/2 and X^-1/2 of a point are computed once, by :class:`SPDPoint`,
and shared by the exponential map, the logarithm and the models built
at X.  Everything in these formulas that depends on the ray alone (the
split, U and their products with the roots) is computed once per ray by
:class:`SPDHorofunction`, the fixed part of the classic linear model
once per (X_k, S) by :class:`SPDLinearModel`, and the congruence
reduction of the limit oracle once per ray and point by
:class:`SPDRayProbe`.  ``sym``, ``spd_fun``, ``_log`` and ``_dists``
also act on stacks of matrices of shape (k, n, n), so that k references
cost one stacked eigendecomposition.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgejsv

from ..errors import (DefinitenessError, NumericalDomainError,
                      ValidationError, ZeroDirectionError)
from .base import Manifold, Point, RayProbe


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
    return _spectral_fun(*sym_eig(a), kind)


def _spectral_fun(w, u, kind):
    """``spd_fun`` of the matrix with spectrum ``w`` and factor ``u``."""
    if kind in _PD_REQUIRED:
        _require_positive(w, f"matrix function {kind!r}")
    return sym((u * _SPD_FUNCS[kind](w)[..., None, :]) @ u.swapaxes(-1, -2))


def spd_roots(a):
    """(A^1/2, A^-1/2) from one eigendecomposition; each equals what
    ``spd_fun`` returns for "sqrt" and "invsqrt"."""
    w, u = sym_eig(a)
    _require_positive(w, "matrix square root")
    r = np.sqrt(w)
    return sym((u * r) @ u.T), sym((u * (1.0 / r)) @ u.T)


def _require_positive(w, what):
    # np.any, not w.min(), so that an empty stack passes
    if np.any(w <= 0.0):
        raise DefinitenessError(
            f"{what} needs a positive definite argument "
            f"(min eigenvalue {w.min():.3g})")


def _log_at(xh, xih, y):
    """log_X(Y) from X^1/2 and X^-1/2; Y may be a stack of points."""
    return sym(xh @ spd_fun(xih @ y @ xih, "log") @ xh)


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


def _log_singular_values(a):
    """Logs of the singular values of a row-scaled triangular factor.

    The Jacobi SVD keeps high relative accuracy for matrices of the form
    D * C with an ill-conditioned diagonal D, which plain QR-based SVD
    loses; that accuracy is what makes the large-t limit probes usable.
    Only a failed Jacobi SVD (``info != 0``) warns and falls back to the
    standard SVD.  A zero singular value, which a converged one reports
    when the row scaling underflows, raises NumericalDomainError.
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
        if n < 1:
            raise ValidationError("spd: dimension must be >= 1")
        self.n = int(n)
        self.dim = self.n * (self.n + 1) // 2
        self.name = f"spd({n})"

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------

    def check_point(self, x):
        x = self._as_array(x, "point")
        if x.shape != (self.n, self.n):
            raise ValidationError(
                f"{self.name}: point has shape {x.shape}, "
                f"expected ({self.n}, {self.n})")
        scale = 1.0 + float(np.linalg.norm(x))
        if np.linalg.norm(x - x.T) > 1e-10 * scale:
            raise ValidationError(f"{self.name}: point is not symmetric")
        try:
            np.linalg.cholesky(sym(x))
        except np.linalg.LinAlgError as exc:
            raise DefinitenessError(
                f"{self.name}: point is not positive definite") from exc
        return x

    def check_tangent(self, x, v):
        v = self._as_array(v, "tangent")
        if v.shape != (self.n, self.n):
            raise ValidationError(
                f"{self.name}: tangent has shape {v.shape}, "
                f"expected ({self.n}, {self.n})")
        scale = 1.0 + float(np.linalg.norm(v))
        if np.linalg.norm(v - v.T) > 1e-10 * scale:
            raise ValidationError(f"{self.name}: tangent is not symmetric")
        return v

    # ------------------------------------------------------------------
    # metric, exponential, logarithm
    # ------------------------------------------------------------------

    def _inner(self, y, u, v):
        return _trace_product(np.linalg.solve(y, u), np.linalg.solve(y, v))

    def _point(self, x):
        return SPDPoint(self, x)

    def _exp(self, y, v):
        return self._exponential(self._point(y))(v)

    def _exponential(self, y):
        """exp_Y with Y^+-1/2 taken from the point, for every step of one
        line search."""
        yh, yih = y.roots

        def exp_y(v):
            w, u = sym_eig(yih @ v @ yih)
            if np.max(np.abs(w)) > 700.0:
                raise OverflowError(
                    f"{self.name}: exponential map argument "
                    f"{np.max(np.abs(w)):.3g} exceeds the overflow guard")
            inner_exp = sym((u * np.exp(w)) @ u.T)
            return sym(yh @ inner_exp @ yh)

        return exp_y

    def _log(self, x, y):
        """log_X(Y) from the point X; for a stack of points Y, the stack of
        their logs, through one stacked eigendecomposition."""
        return _log_at(*x.roots, y)

    def _dist(self, x, y):
        return self._dists(x, spd_fun(y, "invsqrt")[None])[0]

    def _dists(self, x, yih):
        """List of d(X, Y_i) from the stack of Y_i^-1/2, through one stacked
        eigvalsh; an empty stack gives an empty list."""
        w = np.linalg.eigvalsh(sym(yih @ x @ yih))
        if np.any(w <= 0.0):
            raise DefinitenessError(
                f"{self.name}: congruence lost definiteness in dist")
        return [float(np.linalg.norm(np.log(row))) for row in w]

    def project(self, x, a):
        return sym(np.asarray(a, dtype=float))

    # ------------------------------------------------------------------
    # gradients and linear models
    # ------------------------------------------------------------------

    def egrad_to_rgrad(self, x, egrad):
        x = self.check_point(x)
        g = sym(self._as_array(egrad, "euclidean gradient"))
        return sym(x @ g @ x)

    def _linear_model(self, xk, s):
        return SPDLinearModel(self, xk, s)

    # ------------------------------------------------------------------
    # Busemann function
    # ------------------------------------------------------------------

    def spectral_split(self, y, v):
        """Group the spectrum of Y^-1/2 V Y^-1/2 by near-equality."""
        y = self.check_point(y)
        return self._spectral_split(spd_fun(y, "invsqrt"),
                                    self.check_tangent(y, v))

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
        x = self.check_point(x)
        g = sym(rng.standard_normal((self.n, self.n)))
        xh = spd_fun(x, "sqrt")
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
        x = self.check_point(x)
        xh = spd_fun(x, "sqrt")
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
    magnitude.  Y^-1/2, lam, U, L and the guard 1200 / max |lam| depend on
    the ray and X alone and are computed here, once; a probe costs the row
    scaling and the SVD.
    """

    def __init__(self, manifold, y, unit_dir, x):
        yih = spd_fun(y, "invsqrt")
        c = yih @ unit_dir @ yih
        self.lam, u = sym_eig(c)
        self.ell = chol(u.T @ yih @ x @ yih @ u)
        lmax = float(np.max(np.abs(self.lam)))
        self.t_guard = 1e12 if lmax == 0.0 else 1200.0 / lmax

    def distance(self, t):
        a = np.exp(-0.5 * t * self.lam)[:, None] * self.ell
        return float(np.linalg.norm(2.0 * _log_singular_values(a)))


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
    X_k^+-1/2 (from the point X_k), X_k^-1 S for the value and C S C,
    C = X_k^-1/2, for the gradient.  Value and gradient at X both start
    from the eigendecomposition of C X C, which the point keeps.  Holds
    arrays only, since each point it evaluates keeps it alive.
    """

    def __init__(self, manifold, xk, s):
        self.xk = xk.x
        self.xkh, self.c = xk.roots
        self.xk_inv_s = np.linalg.solve(self.xk, s)
        self.csc = sym(self.c @ s @ self.c)

    def _reduced(self, x):
        # spectrum of C X C, the argument of Log in log_{X_k} X
        return sym_eig(self.c @ x.x @ self.c)

    def value(self, x):
        log = sym(self.xkh @ _spectral_fun(*x.derived(self._reduced), "log")
                  @ self.xkh)
        return _trace_product(self.xk_inv_s, np.linalg.solve(self.xk, log))

    def grad(self, x):
        egrad = sym(self.c @ _frechet_log_spectral(*x.derived(self._reduced),
                                                   self.csc) @ self.c)
        return sym(x.x @ egrad @ x.x)
