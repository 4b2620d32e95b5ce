"""Covariance kernels, the discretized covariance operator and its square root.

Coordinate convention (the single source of truth for weight bookkeeping):
field vectors hold point values, the operator matrix is ``op = w * K`` with
K[i, j] = C(x_i, x_j).  Acting on a value vector, ``op @ phi`` is the midpoint
approximation of the integral operator.  With this convention the pointwise
variance of generated samples equals the kernel diagonal C(x, x), while
orthonormality of eigenmodes is with respect to the weighted inner product:
a plain-orthonormal eigenvector v corresponds to the weighted-orthonormal
mode v / sqrt(w).
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidKernelParams, NotPositive
from .grid import Grid, _check

DEFAULT_CLIP_TOL = 1e-12


@dataclass(frozen=True)
class _Stationary:
    """C(x, y) = variance * decay(x - y); subclasses name and define decay."""

    variance: float
    ell: float

    def __post_init__(self):
        if not (0 < self.variance < np.inf and 0 < self.ell < np.inf):
            raise InvalidKernelParams(
                f"{self.name} needs finite variance > 0 and ell > 0, "
                f"got {self.variance}, {self.ell}"
            )

    def pair(self, x, y):
        return self.variance * self.decay(np.subtract.outer(np.asarray(x), np.asarray(y)))

    def matrix(self, grid: Grid) -> np.ndarray:
        return self.pair(grid.points, grid.points)


@dataclass(frozen=True)
class SquaredExponential(_Stationary):
    """C(x, y) = variance * exp(-(x - y)^2 / (2 ell^2))."""

    name = "squared-exponential"
    smooth = True

    def decay(self, d):
        return np.exp(-(d ** 2) / (2.0 * self.ell ** 2))


@dataclass(frozen=True)
class Exponential(_Stationary):
    """C(x, y) = variance * exp(-|x - y| / ell).  Not differentiable at x = y."""

    name = "exponential"
    smooth = False

    def decay(self, d):
        return np.exp(-np.abs(d) / self.ell)


@dataclass(frozen=True)
class RankK:
    """Finite-rank kernel built from cosine modes on the grid's interval.

    C(x, y) = sum_k lam_k e_k(x) e_k(y) with e_0 = 1/sqrt(b - a) and
    e_k(x) = sqrt(2/(b - a)) cos(k pi (x - a)/(b - a)) for k >= 1.  The modes
    are exactly orthonormal under the midpoint quadrature, so the assembled
    operator has eigenvalues exactly {lam_k} (plus zeros).
    """

    modes: tuple  # ((lam, k), ...)
    smooth = True

    def __post_init__(self):
        ks = [k for _, k in self.modes]
        if not self.modes or len(set(ks)) != len(ks):
            raise InvalidKernelParams(f"mode indices must be distinct and nonempty: {self.modes}")
        for lam, k in self.modes:
            if not 0 < lam < np.inf or k < 0 or k != int(k):
                raise InvalidKernelParams(f"need 0 < lam < inf, integer k >= 0: ({lam}, {k})")

    def matrix(self, grid: Grid) -> np.ndarray:
        a, b, x = grid.a, grid.b, grid.points
        out = 0.0
        for lam, k in self.modes:
            if k >= grid.m:
                raise InvalidKernelParams(f"mode index {k} needs a grid with M > {k}")
            if k == 0:
                e = np.full_like(x, 1.0 / np.sqrt(b - a))
            else:
                e = np.sqrt(2.0 / (b - a)) * np.cos(k * np.pi * (x - a) / (b - a))
            out = out + lam * np.multiply.outer(e, e)
        return out


@dataclass(frozen=True)
class CovOperator:
    """Discretized covariance operator on a grid; K[i, j] = C(x_i, x_j) is op / w."""

    grid: Grid
    kernel: object
    op: np.ndarray = field(repr=False)  # w * K, the operator on value vectors

    def apply(self, phi) -> np.ndarray:
        return self.op @ _check(phi, self.grid)


def assemble(kernel, grid: Grid) -> CovOperator:
    """Evaluate the kernel on the grid and form op = w * K from the symmetrized K."""
    kmat = np.asarray(kernel.matrix(grid), dtype=float)
    kmat = 0.5 * (kmat + kmat.T)
    op = grid.w * kmat
    op.setflags(write=False)
    return CovOperator(grid=grid, kernel=kernel, op=op)


def point_variance_max(cov: CovOperator) -> float:
    """Largest pointwise variance max_i C(x_i, x_i); the constant A^2.  Exact
    where w is a power of two, within 1 ulp elsewhere."""
    return float(np.max(np.diag(cov.op)) / cov.grid.w)


@dataclass(frozen=True)
class SqrtFactor:
    """Symmetric square root of the covariance operator op = w * K, from eigh."""

    grid: Grid
    s: np.ndarray = field(repr=False)  # symmetric, s @ s == op
    eigenvalues: np.ndarray = field(repr=False)  # of op, descending, post-clip
    clip_tol: float
    n_clipped: int

    def apply(self, phi) -> np.ndarray:
        """s @ phi for a vector; for an (n, M) block, s applied to every row in one
        real GEMM, block @ s, with a complex block's real rows on its imaginary rows."""
        if np.ndim(phi) == 1:
            return self.s @ _check(phi, self.grid)
        phi = _check(phi, self.grid, rows=True)
        if not np.iscomplexobj(phi):
            return phi @ self.s
        re, im = np.split(np.concatenate((phi.real, phi.imag)) @ self.s, 2)
        return re + 1j * im


def sqrt_factor(cov: CovOperator) -> SqrtFactor:
    """Spectral square root of op, clipping roundoff-negative eigenvalues.

    Eigenvalues in the fixed window [-DEFAULT_CLIP_TOL * lam_max, 0] are set to
    zero; anything below it means the kernel was not positive semidefinite and
    raises.  The window is recorded as `SqrtFactor.clip_tol`.
    """
    lam, vec = np.linalg.eigh(cov.op)
    lam_max = float(lam[-1])
    floor = -DEFAULT_CLIP_TOL * max(lam_max, 0.0)
    if lam[0] < floor:
        raise NotPositive(
            f"eigenvalue {lam[0]:.3e} below the clip window {floor:.3e}; "
            "covariance is not positive semidefinite"
        )
    clipped = lam < 0.0
    lam = np.where(clipped, 0.0, lam)
    s = (vec * np.sqrt(lam)) @ vec.T
    s = 0.5 * (s + s.T)
    # eigh returns ascending eigenvalues, and clipping keeps that order
    lam_desc = lam[::-1]
    for arr in (s, lam_desc):
        arr.setflags(write=False)
    return SqrtFactor(
        grid=cov.grid,
        s=s,
        eigenvalues=lam_desc,
        clip_tol=DEFAULT_CLIP_TOL,
        n_clipped=int(np.count_nonzero(clipped)),
    )


def kernel_from_spec(text: str):
    """Parse CLI kernel strings: sqexp:<var>:<ell>, exp:<var>:<ell>,
    rankk:<lam0@k0,lam1@k1,...>."""
    from .errors import ConfigError

    parts = text.split(":")
    try:
        if parts[0] == "sqexp" and len(parts) == 3:
            return SquaredExponential(float(parts[1]), float(parts[2]))
        if parts[0] == "exp" and len(parts) == 3:
            return Exponential(float(parts[1]), float(parts[2]))
        if parts[0] == "rankk" and len(parts) == 2:
            modes = []
            for item in parts[1].split(","):
                lam, k = item.split("@")
                modes.append((float(lam), int(k)))
            return RankK(tuple(modes))
    except (ValueError, InvalidKernelParams) as exc:
        raise ConfigError(f"bad kernel spec {text!r}: {exc}") from exc
    raise ConfigError(f"unknown kernel spec {text!r}")
