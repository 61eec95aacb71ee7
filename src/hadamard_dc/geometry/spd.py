"""Symmetric positive definite matrices with the affine-invariant metric.

All matrix functions run through the symmetric eigendecomposition; the
non-symmetric congruence Log(Y^-1 X) is never formed.  Products and
congruences are re-symmetrized to suppress rounding drift.

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
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgejsv

from ..errors import (DefinitenessError, NumericalDomainError,
                      ValidationError, ZeroDirectionError)
from .base import Manifold


def sym(a):
    """Symmetric part (A + A^T)/2."""
    return 0.5 * (a + a.T)


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
    """Apply exp/log/sqrt/invsqrt to a symmetric matrix spectrally."""
    if kind not in _SPD_FUNCS:
        raise ValueError(f"unknown matrix function {kind!r}")
    w, u = sym_eig(a)
    if kind in _PD_REQUIRED and w.min() <= 0.0:
        raise DefinitenessError(
            f"matrix function {kind!r} needs a positive definite argument "
            f"(min eigenvalue {w.min():.3g})")
    return sym((u * _SPD_FUNCS[kind](w)) @ u.T)


def logdet(x):
    """ln det X through the Cholesky factor."""
    return 2.0 * float(np.sum(np.log(np.diag(chol(x)))))


def frechet_log(a, e):
    """Directional derivative of the matrix logarithm, D Log(A)[E].

    Divided differences of ln in the eigenbasis of A: the (i, j) weight is
    (ln w_i - ln w_j)/(w_i - w_j), with the limit 1/w_i on the diagonal.
    """
    w, u = sym_eig(a)
    if w.min() <= 0.0:
        raise DefinitenessError(
            "frechet_log needs a positive definite base point "
            f"(min eigenvalue {w.min():.3g})")
    et = sym(u.T @ sym(np.asarray(e, dtype=float)) @ u)
    wi = w[:, None]
    wj = w[None, :]
    delta = wi - wj
    near = np.abs(delta) <= 1e-12 * wj
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.log1p(delta / wj) / np.where(near, 1.0, delta)
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
    """
    sva, _, _, work, _, info = dgejsv(np.asarray(a, dtype=float, order="F"),
                                      joba=2, jobu=3, jobv=3, jobr=0)
    if info != 0 or np.any(sva <= 0.0):
        warnings.warn("dgejsv did not converge, falling back to standard SVD",
                      RuntimeWarning)
        s = np.linalg.svd(a, compute_uv=False)
        if np.any(s <= 0.0):
            raise NumericalDomainError("singular value underflow in limit probe")
        return np.log(s)
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
        a = np.linalg.solve(y, u)
        b = np.linalg.solve(y, v)
        return float(np.einsum("ij,ji->", a, b))

    def _exp(self, y, v):
        yh = spd_fun(y, "sqrt")
        yih = spd_fun(y, "invsqrt")
        w, u = sym_eig(yih @ v @ yih)
        if np.max(np.abs(w)) > 700.0:
            raise OverflowError(
                f"{self.name}: exponential map argument "
                f"{np.max(np.abs(w)):.3g} exceeds the overflow guard")
        inner_exp = sym((u * np.exp(w)) @ u.T)
        return sym(yh @ inner_exp @ yh)

    def _log(self, x, y):
        xh = spd_fun(x, "sqrt")
        xih = spd_fun(x, "invsqrt")
        inner_log = spd_fun(sym(xih @ y @ xih), "log")
        return sym(xh @ inner_log @ xh)

    def _dist(self, x, y):
        yih = spd_fun(y, "invsqrt")
        w = np.linalg.eigvalsh(sym(yih @ x @ yih))
        if w.min() <= 0.0:
            raise DefinitenessError(
                f"{self.name}: congruence lost definiteness in dist")
        return float(np.linalg.norm(np.log(w)))

    def project(self, x, a):
        return sym(np.asarray(a, dtype=float))

    # ------------------------------------------------------------------
    # gradients and linear models
    # ------------------------------------------------------------------

    def egrad_to_rgrad(self, x, egrad):
        x = self.check_point(x)
        g = sym(self._as_array(egrad, "euclidean gradient"))
        return sym(x @ g @ x)

    def squared_dist_grad(self, x, z):
        """Gradient at X of d^2(X, Z), equal to -2 log_X(Z)."""
        return -2.0 * self.log(x, z)

    def _linear_model_grad(self, xk, s, x):
        c = spd_fun(xk, "invsqrt")
        a = sym(c @ x @ c)
        m = sym(c @ s @ c)
        egrad = sym(c @ frechet_log(a, m) @ c)
        return sym(x @ egrad @ x)

    # ------------------------------------------------------------------
    # Busemann function
    # ------------------------------------------------------------------

    def spectral_split(self, y, v, grouping_tol=None):
        """Group the spectrum of Y^-1/2 V Y^-1/2 by near-equality."""
        y = self.check_point(y)
        return self._spectral_split(y, self.check_tangent(y, v),
                                    grouping_tol)

    def _spectral_split(self, y, v, grouping_tol=None):
        yih = spd_fun(y, "invsqrt")
        lam, u = sym_eig(yih @ v @ yih)
        lmax = float(np.max(np.abs(lam))) if lam.size else 0.0
        if lmax == 0.0:
            raise ZeroDirectionError(
                f"{self.name}: spectral split needs a nonzero direction")
        tol = grouping_tol if grouping_tol is not None else 1e-10
        gap_tol = tol * max(1.0, lmax)
        reps, mults, bounds = [], [], [0]
        start = 0
        for i in range(1, self.n + 1):
            if i == self.n or lam[i] - lam[i - 1] > gap_tol:
                reps.append(float(np.mean(lam[start:i])))
                mults.append(i - start)
                bounds.append(i)
                start = i
        reps = np.asarray(reps)
        mults = np.asarray(mults, dtype=int)
        per_index = np.repeat(reps, mults)
        norm_const = float(np.linalg.norm(per_index))
        return SpectralSplit(reps, mults, u, np.asarray(bounds, dtype=int),
                             norm_const, per_index)

    def _busemann(self, y, v, x):
        if np.linalg.norm(v) == 0.0:
            return self._dist(x, y)
        split = self._spectral_split(y, v)
        yih = spd_fun(y, "invsqrt")
        u = split.basis
        m = sym(u.T @ yih @ x @ yih @ u)
        ell = chol(m)
        return float(-2.0 / split.norm_const *
                     np.sum(split.per_index * np.log(np.diag(ell))))

    def _busemann_grad(self, y, v, x):
        if np.linalg.norm(v) == 0.0:
            return self._distance_gradient(y, x)
        split = self._spectral_split(y, v)
        yh = spd_fun(y, "sqrt")
        yih = spd_fun(y, "invsqrt")
        u = split.basis
        m = sym(u.T @ yih @ x @ yih @ u)
        ell = chol(m)
        core = ell @ np.diag(split.per_index) @ ell.T
        grad = yh @ u @ core @ u.T @ yh
        return sym(-grad / split.norm_const)

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

    def ray_point_distance(self, y, unit_dir, t, x):
        """d(X, exp_Y(t V)) through an exactly congruence-reduced form.

        With lam, U the spectrum of Y^-1/2 V Y^-1/2 and L the Cholesky
        factor of U^T Y^-1/2 X Y^-1/2 U, affine invariance gives
        d = |Log(S L L^T S)|_F with S = Exp(-t lam / 2); the eigenvalues
        of S L L^T S are the squared singular values of S L, computed to
        high relative accuracy by the Jacobi SVD even when the row
        scaling spans hundreds of orders of magnitude.
        """
        yih = spd_fun(y, "invsqrt")
        lam, u = sym_eig(yih @ unit_dir @ yih)
        m = sym(u.T @ yih @ x @ yih @ u)
        ell = chol(m)
        a = np.exp(-0.5 * t * lam)[:, None] * ell
        logs = 2.0 * _log_singular_values(a)
        return float(np.linalg.norm(logs))

    def oracle_t_guard(self, y, unit_dir):
        yih = spd_fun(y, "invsqrt")
        lam = np.linalg.eigvalsh(sym(yih @ unit_dir @ yih))
        lmax = float(np.max(np.abs(lam)))
        if lmax == 0.0:
            return 1e12
        return 1200.0 / lmax
