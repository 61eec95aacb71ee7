"""Symmetric positive definite matrices with the affine-invariant metric.

All matrix functions run through the symmetric eigendecomposition; the
non-symmetric congruence Log(Y^-1 X) is never formed.  Products and
congruences are re-symmetrized to suppress rounding drift, once each:
``sym_eig`` and ``chol`` symmetrize their argument, so their callers pass
the raw product, and ``sym`` of an exactly symmetric matrix returns it
bit for bit (float addition commutes), so results stay the same.

The congruence Z -> A Z A^T by an invertible A is an isometry of the
metric, so every formula below holds for any factor A of the base point,
A A^T = Y, not only for Y^1/2: with Q = Y^-1/2 A orthogonal, A^-1 Z A^-T
is Y^-1/2 Z Y^-1/2 turned by Q, and a matrix function commutes with the
turn.  Metric and maps at a base point Y = A A^T:

    <U, V>_Y   = tr(Y^-1 U Y^-1 V) = tr(W_U W_V),  W_V = A^-1 V A^-T
    d(X, Y)    = |Log(A^-1 X A^-T)|_F
    exp_Y(V)   = A Exp(A^-1 V A^-T) A^T = G diag(e^lam) G^T
    log_Y(X)   = A Log(A^-1 X A^-T) A^T
    grad f(X)  = X f'(X) X

with A^-1 V A^-T = U diag(lam) U^T and G = A U.  The factor a point
keeps is its lower Cholesky factor L (:class:`SPDPoint`), which the
Cholesky test of a line-search trial computes anyway; the metric, the
maps and the samplers all run on it.  A line search along exp_Y(t V)
keeps lam and G (:class:`SPDRay`), so that each trial costs one product
and no eigendecomposition.

Busemann function of a ray (Y, V), V != 0: split A^-1 V A^-T into
eigenvalue groups (ascending representatives lam_i, multiplicities n_i,
orthogonal factor U), Cholesky-factor U^T A^-1 X A^-T U = l l^T, and

    B_{Y,V}(X)      = -2 (sum n_i lam_i^2)^-1/2  sum_j lam_(j) ln l_jj
    grad B_{Y,V}(X) = -(sum n_i lam_i^2)^-1/2  (A U l) D (A U l)^T

with lam_(j) the group representative at index j and D = diag(lam_(j)).
The value is insensitive to how near-equal eigenvalues are grouped.

Weighted sums of squared distances to fixed references R_i = A_i A_i^T,
and their gradients, come from the spectrum of M_i = A_i^-1 X A_i^-T =
V_i diag(mu_i) V_i^T alone, because the log is equivariant under the
congruence by A_i:

    d^2(X, R_i)  = sum_j (ln mu_ij)^2
    log_X(R_i)   = -A_i V_i diag(mu_i ln mu_i) V_i^T A_i^T

A kernel's base point is an :class:`SPDPoint`, whose factor (L, L^-1)
is computed once, on first use, and shared by every kernel at X.
Everything in these formulas that depends on the ray alone (the
split, U and their products with the factor) is computed once per ray
by :class:`SPDHorofunction`, the fixed part of the classic linear model
once per (X_k, S) by :class:`SPDLinearModel`, the factors L_i and
L_i^-1 once per stack of references by :class:`SPDDistanceSum`, and the
congruence reduction of the limit oracle once per ray and point by
:class:`SPDRayProbe`.  At a point the horofunction keeps its Cholesky
factor, the linear model the spectrum of L_k^-1 X L_k^-T and the
distance sum the stacked spectrum of the M_i, which its value and
gradient share.  ``sym``, ``sym_eig``, ``chol`` and ``spd_fun`` act
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


_CONGRUENCE_ROOM = 2.0 ** 500


def _congruence_shift(c, v):
    """An e >= 0 for which neither C (2^-e V) C^T nor the norm of its
    spectrum can overflow: the entries of the congruence are at most
    n^2 max|C|^2 2^-e max|V|, which e keeps below 2^500, so the squares
    of its eigenvalues sum below n^2 2^1000 (the bound is a product of
    Python floats, which saturates to inf without a warning).  e = 0
    wherever the bound holds unscaled, so such a direction is split as
    it is."""
    big = float(np.abs(c).max())
    room = _CONGRUENCE_ROOM / (c.shape[0] ** 2 * (big * big))
    top = float(np.abs(v).max())
    if top <= room:
        return 0
    return math.frexp(top)[1] - math.frexp(room)[1] + 1


def _unshifted(norm, shift, name):
    """2^shift ``norm``, the norm of a direction whose congruence was
    formed after a scaling by 2^-shift; NumericalDomainError where it
    overflows."""
    try:
        return math.ldexp(norm, shift)
    except OverflowError:
        raise NumericalDomainError(
            f"{name}: the norm of the direction overflows") from None


def _frobenius(w):
    """|W|_F of a real array as ``np.linalg.norm(w)`` computes it, without
    its Python-level dispatch: the dot of the entries in memory order
    (``ravel(order="K")``) and a correctly rounded square root, so the
    result has the same bits."""
    w = w.ravel(order="K")
    return math.sqrt(w.dot(w))


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


def _require_positive(w, what):
    # any(), not w.min(), so that an empty stack passes
    if (w <= 0.0).any():
        raise DefinitenessError(
            f"{what} needs a positive definite argument "
            f"(min eigenvalue {w.min():.3g})")


def _asymmetric(a):
    """Whether |A - A^T|_F > 1e-10 (1 + |A|_F): the symmetry test of a
    finite n x n point or tangent.  An exactly symmetric A passes at any
    scale, by a comparison that cannot overflow.  Where the squares in
    the norms could overflow (n max|A| > 2^498), and an infinite right
    side would pass any matrix, both sides are first scaled by the power
    of two that brings max|A| into [0.5, 1), which is exact, so the
    decision is the unscaled one wherever the unscaled norms are
    finite."""
    if (a == a.T).all():
        return False
    top = float(np.abs(a).max())
    one = 1.0
    if top * a.shape[0] > 2.0 ** 498:
        one = math.ldexp(1.0, -math.frexp(top)[1])
        a = a * one
    return np.linalg.norm(a - a.T) > 1e-10 * (one + float(np.linalg.norm(a)))


def logdet(x):
    """ln det X through the Cholesky factor."""
    return cholesky_logdet(chol(x))


def cholesky_logdet(lower):
    """ln det X = 2 sum_j ln L_jj from the lower Cholesky factor L of X."""
    return 2.0 * float(np.log(lower.diagonal()).sum())


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
    """Grouped spectrum of A^-1 V A^-T, A the factor of Y.

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
    if (sva <= 0.0).any():
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
        if _asymmetric(x):
            raise ValidationError(f"{self.name}: point is not symmetric")
        self._definite(sym(x))
        return x

    def _definite(self, x):
        """The lower Cholesky factor of ``x``, a finite and exactly
        symmetric matrix: the definiteness test of ``check_point`` and of
        a line-search trial."""
        try:
            return np.linalg.cholesky(x)
        except np.linalg.LinAlgError as exc:
            raise DefinitenessError(
                f"{self.name}: point is not positive definite") from exc

    def check_tangent(self, x, v):
        self.point(x)
        v = self._as_array(v, "tangent", (self.n, self.n))
        if _asymmetric(v):
            raise ValidationError(f"{self.name}: tangent is not symmetric")
        return v

    # ------------------------------------------------------------------
    # metric, exponential, logarithm
    # ------------------------------------------------------------------

    def _inner(self, y, u, v):
        """tr(W_U W_V), W = L^-1 V L^-T with L the factor of the point Y;
        NumericalDomainError where a congruence or the product is not
        finite."""
        c = y.factor[1]
        with np.errstate(over="ignore", invalid="ignore"):
            value = float((sym(c @ u @ c.T) * sym(c @ v @ c.T)).sum())
        if not math.isfinite(value):
            raise NumericalDomainError(
                f"{self.name}: the inner product overflows")
        return value

    def _norm(self, y, v):
        """|V|_Y = |W|_F, W = L^-1 V L^-T, taken as 2^e |2^-e V|_Y where
        the congruence could overflow (e from ``_congruence_shift``, 0
        elsewhere, where it is ``SPDRay.speed``); NumericalDomainError
        where |V|_Y itself overflows."""
        c = y.factor[1]
        shift = _congruence_shift(c, v)
        if shift:
            v = np.ldexp(v, -shift)
        return _unshifted(_frobenius(sym(c @ v @ c.T)), shift, self.name)

    def _point(self, x):
        return SPDPoint(self, x)

    def _exp(self, y, v):
        """exp_Y(V) along ``SPDRay``; NumericalDomainError where the
        congruence of V is not finite."""
        with np.errstate(over="ignore", invalid="ignore"):
            ray = SPDRay(self, y, v)
        if math.isnan(ray.speed):
            raise NumericalDomainError(
                f"{self.name}: the congruence of the direction overflows")
        return ray.exp(1.0)

    def _ray(self, y, d):
        return SPDRay(self, y, d)

    def _log(self, x, y):
        """log_X(Y) = L Log(L^-1 Y L^-T) L^T from the factor of the point X."""
        lower, c = x.factor
        return sym(lower @ spd_fun(c @ y.x @ c.T, "log") @ lower.T)

    def _dist(self, x, y):
        """d(X, Y) of the points X and Y through the eigvalsh of
        L^-1 X L^-T, L the factor of Y."""
        c = y.factor[1]
        w = np.linalg.eigvalsh(sym(c @ x.x @ c.T))
        if (w <= 0.0).any():
            raise DefinitenessError(
                f"{self.name}: congruence lost definiteness in dist")
        return _frobenius(np.log(w))

    def project(self, x, a):
        self.point(x)
        return sym(self._as_array(a, "ambient array", (self.n, self.n)))

    # ------------------------------------------------------------------
    # gradients and linear models
    # ------------------------------------------------------------------

    def egrad_to_rgrad(self, x, egrad):
        x = self.point(x).x
        g = sym(self._as_array(egrad, "euclidean gradient", (self.n, self.n)))
        return sym(x @ g @ x)

    def _linear_model(self, xk, s):
        return SPDLinearModel(self, xk, s)

    # ------------------------------------------------------------------
    # Busemann function
    # ------------------------------------------------------------------

    def spectral_split(self, y, v):
        """Group the spectrum of L^-1 V L^-T, L the factor of Y, by
        near-equality; NumericalDomainError where that congruence, or
        the norm of its grouped spectrum, overflows.  The congruence is
        tested as formed, not by the bound of ``_congruence_shift``,
        which fires on directions whose split is finite."""
        y = self.point(y)
        v = self.check_tangent(y, v)
        c = y.factor[1]
        with np.errstate(over="ignore", invalid="ignore"):
            w = sym(c @ v @ c.T)
            split = self._spectral_split(w) if np.isfinite(w).all() else None
        if split is None or not math.isfinite(split.norm_const):
            raise NumericalDomainError(
                f"{self.name}: the congruence of the direction overflows")
        return split

    def _spectral_split(self, w):
        """``spectral_split`` of W = sym(C V C^T), C = L^-1, a finite
        congruence.  The groups are found on the eigenvalues as Python
        floats, whose differences and comparisons are those of the
        float64 array; a group of more than one eigenvalue is represented
        by its ``np.mean``."""
        lam, u = np.linalg.eigh(w)
        lmax = float(abs(lam).max())
        if lmax == 0.0:
            raise ZeroDirectionError(
                f"{self.name}: spectral split needs a nonzero direction")
        gap_tol = 1e-10 * max(1.0, lmax)    # relative gap between groups
        vals = lam.tolist()
        bounds = [0, *(i for i in range(1, self.n)
                       if vals[i] - vals[i - 1] > gap_tol), self.n]
        reps, mults, per_index = [], [], []
        for lo, hi in zip(bounds, bounds[1:]):
            # a singleton group is its eigenvalue; only larger groups
            # average
            rep = vals[lo] if hi - lo == 1 else float(np.mean(lam[lo:hi]))
            reps.append(rep)
            mults.append(hi - lo)
            per_index += [rep] * (hi - lo)
        per_index = np.array(per_index)
        return SpectralSplit(np.array(reps), np.array(mults), u,
                             np.array(bounds), _frobenius(per_index),
                             per_index)

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
        """L G L^T with G a symmetric Gaussian: the law of X^1/2 G X^1/2,
        since G's law is orthogonally invariant and X^-1/2 L orthogonal."""
        lower = self.point(x).lower
        g = sym(rng.standard_normal((self.n, self.n)))
        return sym(lower @ g @ lower.T)

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
        """Metric-orthonormal basis L E_k L^T over the symmetric units E_k.

        Exact, since <L E L^T, L F L^T>_X = tr(E F) and the units are
        orthonormal under the metric at I.
        """
        lower = self.point(x).lower
        return [sym(lower @ e @ lower.T) for e in self.coordinate_directions()]

    # ------------------------------------------------------------------
    # oracle support
    # ------------------------------------------------------------------

    def _ray_probe(self, y, unit_dir, x):
        return SPDRayProbe(self, y, unit_dir, x)


class SPDRayProbe(RayProbe):
    """d(X, exp_Y(t V)) through an exactly congruence-reduced form.

    With lam, U the spectrum of C V C^T, C = L^-1 from the factor of the
    point Y, and l the Cholesky factor of U^T C X C^T U, affine invariance
    gives d = |Log(S l l^T S)|_F with S = Exp(-t lam / 2); the eigenvalues
    of S l l^T S are the squared singular values of S l, computed to high
    relative accuracy by the Jacobi SVD even when the row scaling spans
    hundreds of orders of magnitude.  lam, U, l and the largest ray
    parameter 1200 / max |lam| depend on the ray and X alone and are
    computed here, once; a probe costs the row scaling and the SVD, and
    one beyond that parameter (t max |lam| > 1200) raises
    NumericalDomainError.
    """

    def __init__(self, manifold, y, unit_dir, x):
        c = y.factor[1]
        self.lam, u = sym_eig(c @ unit_dir @ c.T)
        uc = u.T @ c
        self.ell = chol(uc @ x.x @ uc.T)
        self.t_max = 1200.0 / float(abs(self.lam).max())

    def distance(self, t):
        if t > self.t_max:
            raise NumericalDomainError(
                f"limit probe beyond the ray parameter {self.t_max:.6g}")
        a = np.exp(-0.5 * t * self.lam)[:, None] * self.ell
        return _frobenius(2.0 * _log_singular_values(a))


class SPDRay:
    """t -> exp_X(t D) with W = L^-1 D L^-T = U diag(lam) U^T, L the factor
    of the point X: exp_X(t D) = G diag(e^{t lam}) G^T with G = L U, a
    factor of X (G G^T = X) that reduces the congruence of D to diag(lam).
    ``speed`` = |D|_X = |W|_F, taken when the ray is built; W is
    diagonalized on the first ``exp`` or ``step``, so a ray whose speed
    alone is read (the last one of an inner solve) costs no
    eigendecomposition.  ``exp(t)`` is the array, with the overflow guard
    t max|lam| <= 700 (``top`` = max|lam|); ``step(t)`` is its checked
    point, tested for finite entries and by ``_definite``, whose Cholesky
    factor the point keeps: the array is exactly symmetric and of the
    right shape by construction, so the other tests of ``check_point``
    could not fail.
    """

    __slots__ = ("manifold", "lower", "w", "speed", "lam", "g", "_top")

    def __init__(self, manifold, x, d):
        self.lower, c = x.factor
        self.manifold = manifold
        self.w = sym(c @ d @ c.T)
        # a direction whose congruence is not finite has speed NaN, so no
        # line search runs along it; a finite one whose norm overflows
        # has speed inf
        self.speed = _frobenius(self.w) \
            if np.isfinite(self.w).all() else math.nan
        self.lam = None

    def _diagonalize(self):
        try:
            self.lam, u = np.linalg.eigh(self.w)
        except np.linalg.LinAlgError:
            # eigh fails only where W is not finite; the trials are then
            # not finite either
            self.lam, u = np.full(self.manifold.n, math.nan), self.w
        self.g = self.lower @ u
        self._top = float(abs(self.lam).max())

    @property
    def top(self):
        if self.lam is None:
            self._diagonalize()
        return self._top

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
        return SPDPoint(m, x, m._definite(x))


def _point_lower(x):
    return chol(x.x)


def _point_factor(x):
    return _with_inverse(x.lower)


def _with_inverse(lower):
    # (L, L^-1) of a point; a function of its own, and not the key under
    # which the point keeps it, so that a counter can wrap it
    return lower, np.linalg.inv(lower)


class SPDPoint(Point):
    """A point X of P(n) with ``lower`` = L, the lower Cholesky factor of X,
    and ``factor`` = (L, L^-1), which every kernel at X shares.  A ray's
    ``step`` hands the constructor the L that its trial's Cholesky test
    computed; a point made without it, as ``Manifold.point`` makes one
    after ``check_point``, factors X on first use.  L^-1 is computed on
    first use.  (L, L^-1) is the only factorization a point holds: the
    metric, the maps and the samplers all run on it.
    """

    __slots__ = ()

    def __init__(self, manifold, x, lower=None):
        super().__init__(manifold, x)
        if lower is not None:
            self._derived[_point_lower] = lower

    @property
    def lower(self):
        return self.derived(_point_lower)

    @property
    def factor(self):
        return self.derived(_point_factor)


class SPDHorofunction:
    """B_{Y,V}, V != 0, with the ray's fixed data computed once: the factor
    (L, C = L^-1) of the point Y, the congruence W = C V C^T (``w``), its
    spectral split (one eigendecomposition) and the products U^T C and
    L U.  An evaluation then costs one Cholesky factorization, l l^T =
    (U^T C) X (U^T C)^T, which the point keeps for the gradient there,
    and a few products.  ``norm`` = |V|_Y is taken from W when read.
    """

    def __init__(self, manifold, y, v):
        self.name = manifold.name
        lower, c = y.factor
        # B_{Y,V} = B_{Y,tV} for t > 0: a direction whose congruence
        # C V C^T could overflow is split after a scaling by 2^-shift,
        # and |W|_F = 2^-shift |V|_Y
        self.shift = _congruence_shift(c, v)
        self.w = sym(c @ (np.ldexp(v, -self.shift) if self.shift else v)
                     @ c.T)
        self.split = manifold._spectral_split(self.w)
        u = self.split.basis
        self.ut_c = u.T @ c
        self.lu = lower @ u

    @property
    def norm(self):
        """|V|_Y = 2^shift |W|_F, the bits of ``_norm(Y, V)``;
        NumericalDomainError where it overflows.  Computed when read, so
        that a horofunction whose |V|_Y overflows still evaluates."""
        return _unshifted(_frobenius(self.w), self.shift, self.name)

    def _cholesky(self, x):
        return chol(self.ut_c @ x.x @ self.ut_c.T)

    def value(self, x):
        ell = x.derived(self._cholesky)
        return float(-2.0 / self.split.norm_const *
                     (self.split.per_index * np.log(ell.diagonal())).sum())

    def grad(self, x):
        a = self.lu @ x.derived(self._cholesky)
        grad = (a * self.split.per_index) @ a.T
        return sym(-grad / self.split.norm_const)


class SPDLinearModel:
    """p -> <S, log_{X_k} p> with the fixed data of (X_k, S) computed once:
    C = L_k^-1 (from the factor of the point X_k) and C S C^T.  Value and
    gradient at X both start from the eigendecomposition C X C^T =
    U diag(w) U^T, which the point keeps; the value is

        tr(C S C^T Log(C X C^T)) = sum_j ln w_j u_j^T (C S C^T) u_j,

    and the Euclidean gradient C^T D Log(C X C^T)[C S C^T] C.  Holds
    arrays only, since each point it evaluates keeps it alive.
    """

    def __init__(self, manifold, xk, s):
        self.c = xk.factor[1]
        self.csc = sym(self.c @ s @ self.c.T)

    def _reduced(self, x):
        # spectrum of C X C^T, the argument of Log in log_{X_k} X
        return sym_eig(self.c @ x.x @ self.c.T)

    def value(self, x):
        w, u = x.derived(self._reduced)
        _require_positive(w, "matrix function 'log'")
        return float((u * (self.csc @ u)).sum(axis=0) @ np.log(w))

    def grad(self, x):
        egrad = sym(self.c.T @ _frechet_log_spectral(
            *x.derived(self._reduced), self.csc) @ self.c)
        return sym(x.x @ egrad @ x.x)


class SPDDistanceSum:
    """X -> sum_i w_i d^2(X, R_i) over fixed references R_i, and its
    gradient -2 sum_i w_i log_X(R_i), from one spectrum per point.

    With R_i = L_i L_i^T (Cholesky) and M_i = L_i^-1 X L_i^-T =
    V_i diag(mu_i) V_i^T,

        d^2(X, R_i)  = sum_j (ln mu_ij)^2
        log_X(R_i)   = -L_i V_i diag(mu_i ln mu_i) V_i^T L_i^T

    (the log is equivariant under the congruence by L_i, and
    log_M(I) = -M^1/2 Log(M) M^1/2).  The sum is built from the stacked
    factors L_i, of shape (k, n, n), and takes the L_i^-1 from one
    stacked inverse, here; at a point X the stacked eigendecomposition of
    the M_i, which the point keeps, serves the value and the gradient, so
    neither needs the factor of X.  A nonpositive mu raises
    DefinitenessError, which the line search takes as a trial outside the
    domain.  An empty stack of references gives 0 and the zero gradient.
    Holds arrays only.
    """

    def __init__(self, lower, weights):
        self.weights = np.asarray(weights, dtype=float)
        self.lower = np.asarray(lower, dtype=float)
        self.c = np.linalg.inv(self.lower)

    def _spectrum(self, x):
        # (ln mu, mu, V) of the stack of M_i
        mu, v = sym_eig(self.c @ x.x @ self.c.swapaxes(-1, -2))
        if (mu <= 0.0).any():
            raise DefinitenessError(
                "spd: congruence lost definiteness in a distance sum")
        return np.log(mu), mu, v

    def value(self, x):
        log_mu = x.derived(self._spectrum)[0]
        return float(self.weights @ (log_mu * log_mu).sum(axis=-1))

    def grad(self, x):
        log_mu, mu, v = x.derived(self._spectrum)
        a = self.lower @ v
        c = self.weights[:, None] * (mu * log_mu)
        return sym(2.0 * ((a * c[:, None, :]) @ a.swapaxes(-1, -2))
                   .sum(axis=0))
