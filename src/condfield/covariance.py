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

from .errors import InvalidKernelParams, LengthMismatch, NotPositive
from .grid import Grid

DEFAULT_CLIP_TOL = 1e-12


@dataclass(frozen=True)
class SquaredExponential:
    """C(x, y) = variance * exp(-(x - y)^2 / (2 ell^2))."""

    variance: float
    ell: float

    def __post_init__(self):
        if not (0 < self.variance < np.inf and 0 < self.ell < np.inf):
            raise InvalidKernelParams(
                f"squared-exponential needs finite variance > 0 and ell > 0, "
                f"got {self.variance}, {self.ell}"
            )

    def pair(self, x, y):
        d = np.subtract.outer(np.asarray(x), np.asarray(y))
        return self.variance * np.exp(-(d ** 2) / (2.0 * self.ell ** 2))

    def matrix(self, grid: Grid) -> np.ndarray:
        return self.pair(grid.points, grid.points)

    @property
    def smooth(self) -> bool:
        return True


@dataclass(frozen=True)
class Exponential:
    """C(x, y) = variance * exp(-|x - y| / ell).  Not differentiable at x = y."""

    variance: float
    ell: float

    def __post_init__(self):
        if not (0 < self.variance < np.inf and 0 < self.ell < np.inf):
            raise InvalidKernelParams(
                f"exponential needs finite variance > 0 and ell > 0, "
                f"got {self.variance}, {self.ell}"
            )

    def pair(self, x, y):
        d = np.subtract.outer(np.asarray(x), np.asarray(y))
        return self.variance * np.exp(-np.abs(d) / self.ell)

    def matrix(self, grid: Grid) -> np.ndarray:
        return self.pair(grid.points, grid.points)

    @property
    def smooth(self) -> bool:
        return False


@dataclass(frozen=True)
class RankK:
    """Finite-rank kernel built from cosine modes on the grid's interval.

    C(x, y) = sum_k lam_k e_k(x) e_k(y) with e_0 = 1/sqrt(b - a) and
    e_k(x) = sqrt(2/(b - a)) cos(k pi (x - a)/(b - a)) for k >= 1.  The modes
    are exactly orthonormal under the midpoint quadrature, so the assembled
    operator has eigenvalues exactly {lam_k} (plus zeros).
    """

    modes: tuple  # ((lam, k), ...)

    def __post_init__(self):
        ks = [k for _, k in self.modes]
        if not self.modes or len(set(ks)) != len(ks):
            raise InvalidKernelParams(f"mode indices must be distinct and nonempty: {self.modes}")
        for lam, k in self.modes:
            if not 0 < lam < np.inf or k < 0 or k != int(k):
                raise InvalidKernelParams(f"need 0 < lam < inf, integer k >= 0: ({lam}, {k})")

    def mode_shape(self, x, k: int, a: float, b: float) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if k == 0:
            return np.full_like(x, 1.0 / np.sqrt(b - a))
        return np.sqrt(2.0 / (b - a)) * np.cos(k * np.pi * (x - a) / (b - a))

    def pair(self, x, y, a: float, b: float):
        out = 0.0
        for lam, k in self.modes:
            ex = self.mode_shape(x, k, a, b)
            ey = self.mode_shape(y, k, a, b)
            out = out + lam * np.multiply.outer(ex, ey)
        return out

    def matrix(self, grid: Grid) -> np.ndarray:
        for _, k in self.modes:
            if k >= grid.m:
                raise InvalidKernelParams(f"mode index {k} needs a grid with M > {k}")
        return self.pair(grid.points, grid.points, grid.a, grid.b)

    @property
    def smooth(self) -> bool:
        return True


@dataclass(frozen=True)
class CovOperator:
    """Discretized covariance operator on a grid."""

    grid: Grid
    kernel: object
    kmat: np.ndarray = field(repr=False)  # K[i, j] = C(x_i, x_j)
    op: np.ndarray = field(repr=False)  # w * K, the operator on value vectors
    trace: float

    def apply(self, phi) -> np.ndarray:
        phi = np.asarray(phi)
        if phi.shape != (self.grid.m,):
            raise LengthMismatch(f"vector of shape {phi.shape}, grid M={self.grid.m}")
        return self.op @ phi


def assemble(kernel, grid: Grid) -> CovOperator:
    """Evaluate the kernel on the grid and form op = w * K."""
    kmat = np.asarray(kernel.matrix(grid), dtype=float)
    kmat = 0.5 * (kmat + kmat.T)
    kmat.setflags(write=False)
    op = grid.w * kmat
    op.setflags(write=False)
    trace = float(grid.w * np.trace(kmat))
    return CovOperator(grid=grid, kernel=kernel, kmat=kmat, op=op, trace=trace)


def point_variance_max(cov: CovOperator) -> float:
    """Largest pointwise variance max_i C(x_i, x_i); the constant A^2."""
    return float(np.max(np.diag(cov.kmat)))


@dataclass(frozen=True)
class SqrtFactor:
    """Symmetric square root of the covariance operator, from eigh."""

    grid: Grid
    s: np.ndarray = field(repr=False)  # symmetric, s @ s == op
    eigenvalues: np.ndarray = field(repr=False)  # descending, post-clip
    eigenvectors: np.ndarray = field(repr=False)  # columns, plain-orthonormal
    clip_tol: float
    n_clipped: int

    def apply(self, phi) -> np.ndarray:
        phi = np.asarray(phi)
        if phi.shape != (self.grid.m,):
            raise LengthMismatch(f"vector of shape {phi.shape}, grid M={self.grid.m}")
        return self.s @ phi


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
    order = np.argsort(lam)[::-1]
    lam_desc = lam[order].copy()
    vec_desc = vec[:, order].copy()
    for arr in (s, lam_desc, vec_desc):
        arr.setflags(write=False)
    return SqrtFactor(
        grid=cov.grid,
        s=s,
        eigenvalues=lam_desc,
        eigenvectors=vec_desc,
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
