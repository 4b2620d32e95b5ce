"""Midpoint discretization of a bounded interval and the norms built on it.

All field vectors in the package are plain numpy arrays of point values on a
``Grid``.  The inner product is the midpoint-rule quadrature

    <psi|phi> = w * sum_i conj(psi_i) * phi_i,   w = (b - a) / M,

conjugate-linear in the first argument.  Every other module goes through
``inner`` / ``l2_norm`` / ``sup_norm`` so the weight bookkeeping lives here
and nowhere else.
"""

import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyVector, LengthMismatch, NonpositiveLength, TooFewPoints


@dataclass(frozen=True)
class Grid:
    """Uniform midpoint grid on the interval [a, b] with M points.  Grids compare
    and hash by (a, b, m, w); the points are a function of (a, b, m)."""

    a: float
    b: float
    m: int
    points: np.ndarray = field(repr=False, compare=False)
    w: float

    @property
    def length(self) -> float:
        return self.b - self.a


def make_grid(a: float, b: float, m: int) -> Grid:
    """Build the midpoint grid x_i = a + (i + 1/2) h, h = (b - a) / M."""
    if not -np.inf < a < b < np.inf:
        raise NonpositiveLength(f"need finite a < b, got a={a}, b={b}")
    if not (isinstance(m, numbers.Integral) and m >= 2):
        raise TooFewPoints(f"need an integer number of grid points >= 2, got {m!r}")
    h = (b - a) / m
    points = a + (np.arange(m) + 0.5) * h
    points.setflags(write=False)
    return Grid(a=float(a), b=float(b), m=int(m), points=points, w=h)


def _check(phi: np.ndarray, grid: Grid) -> np.ndarray:
    phi = np.asarray(phi)
    if phi.shape != (grid.m,):
        raise LengthMismatch(f"vector of shape {phi.shape} on grid with M={grid.m}")
    return phi


def inner(psi, phi, grid: Grid):
    """Quadrature inner product, conjugate-linear in the first argument."""
    psi = _check(psi, grid)
    phi = _check(phi, grid)
    return grid.w * np.vdot(psi, phi)


# Below this a weighted sum of squares has lost relative accuracy to underflow.
_UNDERFLOW = np.finfo(float).tiny / np.finfo(float).eps


def l2_norm(phi, grid: Grid) -> float:
    """Weighted L2 norm, sqrt(<phi|phi>).  Weighting the real part alone keeps
    an overflowing sum at inf, with no NaN from the zero imaginary part.  A
    nonzero phi whose sum underflows is scaled by max_i |phi_i| first."""
    phi = _check(phi, grid)
    sq = grid.w * np.vdot(phi, phi).real
    if sq < _UNDERFLOW:
        scale = sup_norm(phi)
        if scale > 0.0:
            unit = phi / scale
            return float(scale * np.sqrt(grid.w * np.vdot(unit, unit).real))
    return float(np.sqrt(sq))


def sup_norm(phi) -> float:
    """max_i |phi_i| (modulus for complex entries)."""
    phi = np.asarray(phi)
    if phi.size == 0:
        raise EmptyVector("sup_norm of an empty vector")
    return float(np.max(np.abs(phi)))
