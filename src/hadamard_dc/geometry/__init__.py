"""Hadamard geometries: flat, Dikin orthant, hyperboloid, SPD."""

from .base import BusemannRay, Manifold, fd_riemannian_grad
from .dikin import DikinOrthant
from .euclidean import Euclidean
from .hyperboloid import Hyperboloid, arcosh
from .spd import (SpectralSplit, SPDDistanceSum, SPDManifold, chol,
                  frechet_log, logdet, spd_fun, sym, sym_eig)

__all__ = [
    "BusemannRay",
    "Manifold",
    "fd_riemannian_grad",
    "Euclidean",
    "DikinOrthant",
    "Hyperboloid",
    "arcosh",
    "SPDManifold",
    "SPDDistanceSum",
    "SpectralSplit",
    "sym",
    "sym_eig",
    "chol",
    "spd_fun",
    "logdet",
    "frechet_log",
]
