"""Midpoint discretization of a bounded interval and the norms built on it.

All field vectors in the package are plain numpy arrays of point values on a
``Grid``.  The inner product is the midpoint-rule quadrature

    <psi|phi> = w * sum_i conj(psi_i) * phi_i,   w = (b - a) / M,

conjugate-linear in the first argument.  Every other module takes its inner
products and norms from ``inner`` / ``l2_norm`` / ``sup_norm``, or their row forms
on (n, M) blocks; `covariance` owns the weight in op = w * K and the factor's scaling.
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
    """Build the midpoint grid x_i = a + (i + 1/2) h, h = (b - a) / M.  Raises
    NonpositiveLength unless a < b are finite, h is a positive finite double and
    the points strictly increase."""
    if not -np.inf < a < b < np.inf:
        raise NonpositiveLength(f"need finite a < b, got a={a}, b={b}")
    if not (isinstance(m, numbers.Integral) and m >= 2):
        raise TooFewPoints(f"need an integer number of grid points >= 2, got {m!r}")
    h = (b - a) / m
    points = a + (np.arange(m) + 0.5) * h
    if not (0 < h < np.inf and np.all(np.diff(points) > 0)):
        raise NonpositiveLength(f"step h = (b - a)/M = {h} on [{a}, {b}] with M = {m} is not a "
                                f"positive finite double with strictly increasing points")
    points.setflags(write=False)
    return Grid(a=float(a), b=float(b), m=int(m), points=points, w=h)


def _check(phi: np.ndarray, grid: Grid, rows: bool = False) -> np.ndarray:
    phi = np.asarray(phi)  # a vector, or an (n, M) block where `rows` is set
    if phi.ndim != 1 + rows or phi.shape[-1] != grid.m:
        raise LengthMismatch(f"array of shape {phi.shape} on grid with M={grid.m}")
    return phi


def inner(psi, phi, grid: Grid):
    """Quadrature inner product, conjugate-linear in the first argument.  Where the plain
    sum is not finite, it is formed again from w psi scaled below 1 by a power of two, as
    `CovOperator.apply` does: no term overflows, so a product that does not fit reads inf."""
    psi = _check(psi, grid)
    phi = _check(phi, grid)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite value is for the caller
        val = grid.w * np.vdot(psi, phi)
        if not np.isfinite(val):
            x = grid.w * psi
            scale = np.ldexp(1.0, -max(int(np.frexp(np.abs(x).max())[1]), 0))
            val = np.vdot(x * scale, phi) / scale
        return val


def inners(psi, block, grid: Grid) -> np.ndarray:
    """`inner(psi, row)` for each row of an (n, M) block, summed row by row, so
    that a row's value does not depend on the block."""
    psi = _check(psi, grid)
    return grid.w * (psi.conj() * _check(block, grid, rows=True)).sum(axis=-1)


# Below this a weighted sum of squares has lost relative accuracy to underflow.
_UNDERFLOW = np.finfo(float).tiny / np.finfo(float).eps


def _sum_squares(x: np.ndarray) -> np.ndarray:
    # of the real and imaginary parts, so an overflowing sum is inf (callers check), not NaN
    parts = (x.real, x.imag) if np.iscomplexobj(x) else (x,)
    with np.errstate(over="ignore"):
        return sum(np.square(part).sum(axis=-1) for part in parts)


def l2_norms(block, grid: Grid) -> np.ndarray:
    """Weighted L2 norm of each row of an (n, M) block, summed row by row.  A
    nonzero row whose weighted sum of squares underflows or overflows is scaled
    by its max_i |phi_i| first."""
    block = _check(block, grid, rows=True)
    sq = grid.w * _sum_squares(block)
    nrm = np.sqrt(sq)
    for i in np.flatnonzero((sq < _UNDERFLOW) | (sq == np.inf)):
        scale = sup_norm(block[i])
        if scale > 0.0:
            nrm[i] = scale * np.sqrt(grid.w * _sum_squares(block[i] / scale))
    return nrm


def l2_norm(phi, grid: Grid) -> float:
    """Weighted L2 norm, sqrt(<phi|phi>): the one-row call of `l2_norms`."""
    return float(l2_norms(_check(phi, grid)[None], grid)[0])


def sup_norm(phi) -> float:
    """max_i |phi_i| (modulus for complex entries)."""
    phi = np.asarray(phi)
    if phi.size == 0:
        raise EmptyVector("sup_norm of an empty vector")
    return float(np.max(np.abs(phi)))
