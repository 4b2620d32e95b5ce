"""Covariance kernels, the discretized covariance operator and its factor.

Coordinate convention (`grid` owns inner products and norms, this module the weight in op
and the factor's scaling): field vectors hold point values, the operator matrix is
``op = w * K`` with K[i, j] = C(x_i, x_j), for a stationary C formed as C((i - j) h) from
the index lag, so that op is exactly Toeplitz on every grid.  Acting on a value vector,
``op @ phi`` is the midpoint approximation of the integral operator.  With this convention
the pointwise variance of generated samples equals the kernel diagonal C(x, x), while
orthonormality of eigenmodes is with respect to the weighted inner product: a
plain-orthonormal eigenvector v corresponds to the weighted-orthonormal mode v / sqrt(w).
The operator serves its rows and diagonal on demand: a stationary kernel's from one cached
lag row, evaluated once, any other kernel's from the kernel; the M x M op is formed only
where something reads it, which the theory constants and the RankK, pivoted and embedding
factors never do.  A field is a factor L of K = L L^T applied to i.i.d. standard
coefficients, one per column of L, by a route picked from the kernel's structure
(`sqrt_factor`).  A RankK kernel's columns are its modes sqrt(lam_k) e_k.  A smooth
stationary kernel's are its modes whose eigenvalue is above eps * lam_max (eps the double
machine epsilon), the operator's numerical rank, from one SVD of its pivoted Cholesky rows,
certified by a randomized bound on ||op - w L L^T||_2 (10 fixed probes, applied by FFT).
Any other stationary kernel's L is exact with N ~ 2M columns, from the circulant that
embeds its Toeplitz op, and is applied by one FFT.  Every other kernel, and a stationary
one whose embedding is not positive, takes its modes from a dense eigh.  Every route's
factor is a `Factor`, whose `apply` gives a row of a block bitwise as alone.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InvalidKernelParams, LengthMismatch, NotPositive
from .grid import Grid, _check

DEFAULT_CLIP_TOL = 1e-12
EPS = np.finfo(float).eps
_BLOCK_ROWS = 64  # height of the row blocks that apply reads
_CHUNK_ROWS = 16  # Factor.apply's chunk height, which a SqrtFactor pads to (sampling sums by it)
_PROBES = 10  # Gaussian probes of the certificate, which then fails with probability 10^-10


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

    def pair(self, x, y):  # decay writes over its argument
        d = np.asarray(np.subtract.outer(np.asarray(x, dtype=float), np.asarray(y, dtype=float)))
        return np.multiply(self.decay(d), self.variance, out=d)

    def rows(self, grid: Grid, idx) -> np.ndarray:
        """K[idx] for an index or slice of the grid points: C at the lag (i - j) h, an exact
        float integer times h, so K is exactly symmetric and Toeplitz ((-k) h is -(k h)).
        `CovOperator` reads op from its lag row instead; this is the reference it matches."""
        lag = np.arange(grid.m, dtype=float)
        return self.at_lags(np.subtract.outer(lag[idx], lag), grid)

    def at_lags(self, d: np.ndarray, grid: Grid) -> np.ndarray:
        """C(d h) for float-integer lags d, written over d: forming op holds one M x M array."""
        d *= grid.w
        return np.multiply(self.decay(d), self.variance, out=d)


@dataclass(frozen=True)
class SquaredExponential(_Stationary):
    """C(x, y) = variance * exp(-(x - y)^2 / (2 ell^2))."""

    name = "squared-exponential"
    smooth = True

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 < 2.0 * self.ell * self.ell < np.inf:  # decay divides by it
            raise InvalidKernelParams(f"{self.name} needs 2 ell^2 to be a positive finite "
                                      f"double, got ell = {self.ell}")

    def decay(self, d):  # exp(-d^2 / (2 ell^2)), written over d; (-a)/b is a/(-b) bitwise
        with np.errstate(over="ignore"):  # an overflow to -inf decays to exp(-inf) = 0
            return np.exp(np.divide(np.square(d, out=d), -2.0 * self.ell ** 2, out=d), out=d)


@dataclass(frozen=True)
class Exponential(_Stationary):
    """C(x, y) = variance * exp(-|x - y| / ell).  Not differentiable at x = y."""

    name = "exponential"
    smooth = False

    def decay(self, d):  # exp(-|d| / ell), written over d; (-a)/b is a/(-b) bitwise
        with np.errstate(over="ignore"):  # an overflow to -inf decays to exp(-inf) = 0
            return np.exp(np.divide(np.abs(d, out=d), -self.ell, out=d), out=d)


@dataclass(frozen=True)
class RankK:
    """Finite-rank kernel built from cosine modes on the grid's interval.

    C(x, y) = sum_k lam_k e_k(x) e_k(y) with e_0 = 1/sqrt(b - a) and
    e_k(x) = sqrt(2/(b - a)) cos(k pi (x - a)/(b - a)) for k >= 1.  The modes
    are exactly orthonormal under the midpoint quadrature, so the assembled operator
    has eigenvalues exactly {lam_k} (plus zeros) and eigenvectors sqrt(w) e_k.
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

    def _terms(self, grid: Grid):
        """(lam_k, e_k on the grid) for each mode; raises where k >= M."""
        a, b, x = grid.a, grid.b, grid.points
        for lam, k in self.modes:
            if k >= grid.m:
                raise InvalidKernelParams(f"mode index {k} needs a grid with M > {k}")
            yield lam, (np.full_like(x, 1.0 / np.sqrt(b - a)) if k == 0 else
                        np.sqrt(2.0 / (b - a)) * np.cos(k * np.pi * (x - a) / (b - a)))

    def _eigenpairs(self, grid: Grid):
        """op's (lam, V): lam descending (ties in the spec's order), V's columns sqrt(w) e_k."""
        lam, e = zip(*self._terms(grid))
        order = np.argsort(np.negative(lam), kind="stable")
        return np.array(lam)[order], np.sqrt(grid.w) * np.column_stack(e)[:, order]

    def rows(self, grid: Grid, idx) -> np.ndarray:
        """K[idx] for an index or slice of the grid points."""
        with np.errstate(over="ignore"):  # an overflow to inf is rejected by CovOperator
            return sum(lam * np.multiply.outer(e[idx], e) for lam, e in self._terms(grid))

    def diagonal(self, grid: Grid) -> np.ndarray:
        with np.errstate(over="ignore"):  # as in rows
            return sum(lam * (e * e) for lam, e in self._terms(grid))


@dataclass(frozen=True)
class CovOperator:
    """Discretized covariance operator op = w * K on a grid, K[i, j] = C(x_i, x_j), read by
    rows: op[i], op[lo:hi] and diagonal(), which raise InvalidKernelParams where op is not
    finite.  A stationary kernel's op is exactly Toeplitz, op[i, j] its lag row (`_lags`)
    at the lag |i - j|: evaluated once, and served as copies of its windows.  Any other
    kernel's rows are w times the kernel's rows, whose K is exactly symmetric.  The M x M
    `op` is formed on first read."""

    grid: Grid
    kernel: object
    shape = property(lambda self: (self.grid.m, self.grid.m))

    def __getitem__(self, idx) -> np.ndarray:
        lags, m = self._lags, self.grid.m
        if lags is None:
            return self._scaled(self.kernel.rows(self.grid, idx))
        i = range(m)[idx]  # an index, or a range for a slice
        lo, hi = (i, i + 1) if isinstance(i, int) else (i.start, i.stop)
        if isinstance(i, range) and (i.step != 1 or not i):
            raise IndexError("a stationary op serves rows by index or nonempty unit-step slice")
        # row r is the lag row at the lags |j - r|, so rows lo .. hi - 1 are windows one entry
        # apart, backwards, of the lags hi - 1 .. 1 then 0 .. M - 1 - lo: a view with a negative
        # row stride, copied, as a product with the view is not bitwise one with op's rows
        ext = np.concatenate((lags[hi - 1:0:-1], lags[:m - lo]))
        s = ext.itemsize
        rows = np.ndarray((hi - lo, m), float, ext, (hi - 1 - lo) * s, (-s, s)).copy()
        return rows[0] if isinstance(i, int) else rows

    def diagonal(self) -> np.ndarray:
        if self._lags is None:
            return self._scaled(self.kernel.diagonal(self.grid))
        return np.full(self.grid.m, self._lags[0])

    def _scaled(self, k: np.ndarray) -> np.ndarray:  # w * k, written over k
        with np.errstate(over="ignore"):  # an overflow to inf is rejected below
            np.multiply(k, self.grid.w, out=k)
        if not np.isfinite(k).all():
            raise InvalidKernelParams(f"{self.kernel!r} gives a covariance matrix that is not "
                                      f"finite in double precision on this grid")
        return k

    @functools.cached_property
    def _size(self) -> int:  # N, the size of the circulant that embeds a stationary op
        return _fast_size(max(2 * (self.grid.m - 1), 1))

    @functools.cached_property
    def _lags(self) -> np.ndarray | None:
        """A stationary kernel's lag row: op at the lags 0 .. N // 2, N the smallest
        2^a 3^b 5^c >= max(2 (M - 1), 1).  They hold op[0] (M - 1 <= N // 2) and the first
        row c of the circulant that embeds op, c[j] at the lag min(j, N - j) (`_embedding`),
        in half its size.  None for any other kernel."""
        if not isinstance(self.kernel, _Stationary):
            return None
        lags = self._scaled(self.kernel.at_lags(np.arange(self._size // 2 + 1.0), self.grid))
        lags.setflags(write=False)
        return lags

    @functools.cached_property
    def op(self) -> np.ndarray:
        op = self[:]  # w * K, the operator on value vectors
        op.setflags(write=False)
        return op

    def apply(self, phi) -> np.ndarray:
        """op @ phi from the rows in phi's support (op is symmetric), _BLOCK_ROWS at a
        time: one row for a point functional, its stencil rows for a derivative.  Where
        the sum is not finite, it is formed again from phi scaled below 1 by a power of
        two, so a product whose terms overflow but that fits is finite, and any other is
        bitwise the plain sum."""
        phi = _check(phi, self.grid)
        support = np.flatnonzero(phi)
        first, last = (support[0], support[-1]) if support.size else (0, -1)

        def product(x):
            out = np.zeros(self.grid.m, np.result_type(x, float))
            for lo in range(first, last + 1, _BLOCK_ROWS):
                blk = slice(lo, min(lo + _BLOCK_ROWS, last + 1))
                out += x[blk] @ self[blk]
            return out

        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite sum is formed again
            out = product(phi)
            if not np.isfinite(out).all():
                scale = np.ldexp(1.0, -max(int(np.frexp(np.abs(phi).max())[1]), 0))
                out = product(phi * scale) / scale
        return out


def assemble(kernel, grid: Grid) -> CovOperator:
    """The covariance operator of `kernel` on `grid`, read by rows: nothing M x M is formed.
    Raises InvalidKernelParams where op is not finite, which its diagonal shows (|K_ij| <=
    max_i K_ii for a PSD kernel; a stationary kernel's whole lag row is checked), or where
    a RankK mode index is not below M."""
    cov = CovOperator(grid=grid, kernel=kernel)
    cov.diagonal()
    return cov


def point_variance_max(cov: CovOperator) -> float:
    """Largest pointwise variance max_i C(x_i, x_i); the constant A^2.  Exact
    where w is a power of two, within 1 ulp elsewhere."""
    return float(np.max(cov.diagonal()) / cov.grid.w)


@dataclass(frozen=True)
class Factor:
    """A factor L of K = op / w = L L^T with `rank` columns; `cov` is the operator it
    factors, which owns the grid and the profile C T.  Outside this module L is read
    only by `apply`, `adjoint` and `rank`.  A subclass supplies `_real(x, out)`: out = x @ L^T
    for a real chunk x of at most _CHUNK_ROWS rows, unwritten, whose row must not depend on it."""

    cov: CovOperator
    grid = property(lambda self: self.cov.grid)

    def apply(self, g) -> np.ndarray:
        """L g for `rank` coefficients g, or for each row of an (n, rank) block, into one output
        array: `_real` gets a real block, or a complex one's real and imaginary parts, in chunks
        of _CHUNK_ROWS rows, so a row is bitwise the same at any position and height of a block."""
        g = np.asarray(g)
        if g.ndim not in (1, 2) or g.shape[-1] != self.rank:
            raise LengthMismatch(f"noise of shape {g.shape} for a factor of rank {self.rank}")
        split = np.iscomplexobj(g)
        out = np.empty(g.shape[:-1] + (self.grid.m,), complex if split else float)
        x, y = np.atleast_2d(g), np.atleast_2d(out)
        for part, dst in ((x.real, y.real), (x.imag, y.imag)) if split else ((x, y),):
            for lo in range(0, len(part), _CHUNK_ROWS):
                self._real(part[lo:lo + _CHUNK_ROWS], dst[lo:lo + _CHUNK_ROWS])
        return out


@dataclass(frozen=True)
class SqrtFactor(Factor):
    """Spectral factor L = V_P sqrt(Lambda_P / w) of K = op / w = L L^T over P = M - n_clipped
    eigenpairs of op: a RankK kernel's K, or those above eps * lam_max from a dense eigh or
    one SVD of pivoted Cholesky rows (||op - w L L^T||_2 <= DEFAULT_CLIP_TOL * lam_max then,
    bar a 1e-10 chance).  Column n is the Karhunen-Loeve term sqrt(lam_n) e_n."""

    modes: np.ndarray = field(repr=False)  # L, M x P, columns by descending eigenvalue
    eigenvalues: np.ndarray = field(repr=False)  # of op, the P kept, descending
    rank = property(lambda self: self.modes.shape[1])
    n_clipped = property(lambda self: self.grid.m - self.rank)  # eigenvalues cut, modes dropped

    @functools.cached_property
    def s(self) -> np.ndarray:
        """Symmetric root of op, V_P sqrt(Lambda_P) V_P^T, formed on first read."""
        b = self.modes * np.sqrt(self.grid.w / np.sqrt(self.eigenvalues))
        s = b @ b.T  # b = V_P Lambda_P^{1/4}
        s.setflags(write=False)
        return s

    def _real(self, x, out):
        """out = x @ L^T by one GEMM of the chunk x zero-padded to _CHUNK_ROWS rows: a GEMM
        row is bitwise the same at every position of a product of one height, not across
        heights (one row would be a GEMV).  The padding rows are computed and dropped."""
        pad = np.concatenate((x, np.zeros((_CHUNK_ROWS - len(x), self.rank))))
        out[:] = (pad @ self.modes.T)[:len(x)]

    def adjoint(self, phi) -> np.ndarray:
        """w L^T phi, the adjoint of L: <phi|L g> = <w L^T phi|g> for real phi."""
        return self.grid.w * (self.modes.T @ phi)


@dataclass(frozen=True)
class CirculantFactor(Factor):
    """Factor L = H[:M] diag(s) of K = op / w = L L^T for a stationary kernel, from the
    circulant of size N that embeds its Toeplitz op (Wood & Chan 1994, J. Comput. Graph.
    Stat. 3:409; Dietrich & Newsam 1997, SIAM J. Sci. Comput. 18:1088).  With the
    embedding's eigenvalues lam (`_embedding`, lam_j = lam_{N-j} bitwise), H = Re F - Im F
    the Hartley matrix of the size-N DFT F (H = H^T, H^2 = N I) and s = sqrt(lam / (N w)),
    H diag(s^2) H is the embedding over w and its leading M x M block is K.  So L has
    `rank` N columns and is applied by one rfft per row, with no M x M or M x N array;
    eigenvalues in [-DEFAULT_CLIP_TOL * lam_max, 0) are clipped to 0 and counted in
    `n_clipped`."""

    scale: np.ndarray = field(repr=False)  # s, N entries
    n_clipped: int
    rank = property(lambda self: self.scale.size)

    def _real(self, x, out):
        """out = x @ L^T: Re - Im of rfft(s * row)[:M], one rfft per row of the chunk x."""
        r = np.fft.rfft(x * self.scale)[:, :self.grid.m]
        np.subtract(r.real, r.imag, out=out)

    def adjoint(self, phi) -> np.ndarray:
        """w L^T phi = w s * H (phi zero-padded to N), the adjoint of L: <phi|L g> =
        <w L^T phi|g> for real phi."""
        n = self.rank
        r = np.fft.rfft(phi, n)
        h = np.concatenate((r.real - r.imag, (r.real + r.imag)[(n - 1) // 2:0:-1]))
        return self.grid.w * self.scale * h


def _fast_size(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n >= 1: a size at which an FFT is fast."""
    best, p5 = 1 << (n - 1).bit_length(), 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _embedding(cov: CovOperator) -> np.ndarray:
    """Eigenvalues lam of the size-N circulant that embeds a stationary kernel's op:
    rfft(c).real of its first row c, the operator's lag row (`CovOperator._lags`) mirrored
    to N entries, itself mirrored so that lam_j = lam_{N-j} bitwise.  c[:M] is op[0], so
    the circulant's leading M x M block is op."""
    n, lags = cov._size, cov._lags
    lam = np.fft.rfft(np.concatenate((lags, lags[(n - 1) // 2:0:-1]))).real
    return np.concatenate((lam, lam[(n - 1) // 2:0:-1]))


def _circulant_factor(cov: CovOperator) -> CirculantFactor | None:
    """The embedding's factor of a stationary kernel's op, or None where an eigenvalue of
    the embedding is below -DEFAULT_CLIP_TOL * lam_max or not finite."""
    lam = _embedding(cov)
    lam_max = float(lam.max())
    if not (lam.min() >= -DEFAULT_CLIP_TOL * lam_max and lam_max < np.inf):  # NaN fails
        return None
    scale = np.sqrt(np.maximum(lam, 0.0) / (lam.size * cov.grid.w))
    scale.setflags(write=False)
    return CirculantFactor(cov=cov, scale=scale, n_clipped=int(np.count_nonzero(lam < 0.0)))


def _matvec(op, x):
    """op @ x for an (M, r) block x: an ndarray's product, or a stationary kernel's by one
    rfft/irfft pair of the circulant that embeds its Toeplitz op (`_embedding`)."""
    if isinstance(op, np.ndarray):
        return op @ x
    lam = _embedding(op)
    n = lam.size
    return np.fft.irfft(np.fft.rfft(x, n, axis=0) * lam[:n // 2 + 1, None], n, axis=0)[:op.grid.m]


def _pivoted_pairs(op):
    """The kept (lam, V) of op, lam > eps * lam_max in descending order, from one SVD of
    its pivoted Cholesky rows, or None.  op is a stationary kernel's `CovOperator` or an
    ndarray, read only by op[i], op.diagonal(), op.shape and `_matvec`.

    Pivots on the largest residual diagonal (Harbrecht, Peters & Schneider 2012) until,
    after j pivots, it is at most (j + 1) eps * max diag(op): the roundoff bound of the
    computed residual diagonal (Higham, Accuracy and Stability of Numerical Algorithms,
    Thm 10.3), below which it stalls.  The j x M pivot rows R have R^T R = V S^2 V^T, so
    lam = S^2.  None where more than M/2 pivots are needed, none is taken, or the
    certificate fails.  By flops (j pivots take M j^2 of row updates and about 6 M j^2 of
    thin SVD, eigh with vectors 14/3 M^3) the crossover is j ~ 0.8 M, measured 0.59 M to
    0.78 M for 128 <= M <= 2048 with one BLAS thread.  For M <= 64 the cap is above it:
    there a pivot costs ~10 us besides its flops (its row, copied from the lag row, ~5 us)
    and the SVD and certificate ~0.2 ms, so sqexp:1:0.2 at M = 64 (21 pivots) takes about
    twice as long as forming op and running eigh (0.42-0.9 ms against 0.22-0.47 ms); the
    cap is kept so that it never forms op.

    Certificate: ||E||_2 <= 10 sqrt(2/pi) max_i ||E w_i||_2 for any E but with probability
    10^-r over r = _PROBES Gaussian w_i (Halko, Martinsson & Tropp 2011, SIAM Rev. 53:217,
    Lemma 4.1), drawn from a fixed Philox key so the verdict is deterministic.  Accepted
    where it is at most DEFAULT_CLIP_TOL for E / lam_max, E = op - V Lambda V^T, with op's
    products from `_matvec` (the w_i scaled down, never up, by lam_max's power of two, so
    no product overflows at either end of the range): op's spectrum is then in the clip window.
    """
    m, cap = op.shape[0], op.shape[0] // 2
    d = op.diagonal().copy()
    d_max = max(float(d.max()), 0.0)  # so every pivot taken is positive
    rows = np.empty((0, m))  # R, grown with the pivot count up to the cap
    for j in range(cap + 1):
        i = int(np.argmax(d))
        if not d[i] > (j + 1) * EPS * d_max:  # also NaN
            break
        if j == cap:
            return None
        if j == len(rows):
            rows = np.concatenate((rows, np.empty((min(j + 8, cap - j), m))))
        rows[j] = (op[i] - rows[:j, i] @ rows[:j]) / np.sqrt(d[i])
        d -= rows[j] ** 2
    if j == 0:
        return None
    s, vt = np.linalg.svd(rows[:j], full_matrices=False)[1:]
    del rows
    lam = s ** 2  # descending
    p = int(np.count_nonzero(lam > EPS * lam[0]))
    e = max(int(np.frexp(lam[0])[1]), 0)  # lam_max < 2^e: probes scaled down by 2^-e exactly
    omega = np.ldexp(np.random.Generator(np.random.Philox(key=0)).standard_normal((m, _PROBES)), -e)
    y = _matvec(op, omega)
    y -= vt[:p].T @ (lam[:p, None] * (vt[:p] @ omega))
    bound = 10 * np.sqrt(2 / np.pi) * np.linalg.norm(y / np.ldexp(lam[0], -e), axis=0).max()
    return (lam[:p], vt[:p].T) if bound <= DEFAULT_CLIP_TOL else None  # NaN fails


def sqrt_factor(cov: CovOperator) -> Factor:
    """Factor L of K = op / w = L L^T, by the route the kernel's structure picks.

    1. A `RankK` kernel's eigenpairs are its K modes (`RankK._eigenpairs`).
    2. A stationary kernel's come from `_pivoted_pairs` where it is smooth and they are
       certified; else it takes the circulant embedding (`CirculantFactor`, rank N)
       unless an eigenvalue of the embedding is below -DEFAULT_CLIP_TOL * lam_max.
    3. Any other operator goes through a dense eigh of the formed `cov.op`.

    The pivoted and dense routes keep op's numerical rank: eigenvalues at or below
    eps * lam_max (eps the double machine epsilon) are roundoff, and both drop them and
    their modes.  An eigenvalue of op below -DEFAULT_CLIP_TOL * lam_max means the kernel
    was not positive semidefinite and raises NotPositive, or InvalidKernelParams where
    op's spectrum is below the smallest normal double; only the dense eigh can see one.
    """
    kernel, pairs = cov.kernel, None
    if isinstance(kernel, RankK):
        pairs = kernel._eigenpairs(cov.grid)
    elif isinstance(kernel, _Stationary):
        pairs = _pivoted_pairs(cov) if kernel.smooth else None
        if pairs is None and (factor := _circulant_factor(cov)) is not None:
            return factor
    if pairs is None:
        lam, vec = np.linalg.eigh(cov.op)
        floor = -DEFAULT_CLIP_TOL * max(float(lam[-1]), 0.0)
        if lam[0] < floor:
            if max(-lam[0], lam[-1]) < np.finfo(float).tiny:  # the window lost its bits too
                raise InvalidKernelParams(f"{kernel!r}: op is below the normal doubles, where "
                                          "its entries keep too few bits for a positivity test")
            raise NotPositive(f"eigenvalue {lam[0]:.3e} below the clip window {floor:.3e}; "
                              "covariance is not positive semidefinite")
        # eigh returns ascending eigenvalues, so the cut ones (<= eps * lam_max) lead
        n_cut = int(np.count_nonzero(lam <= EPS * max(float(lam[-1]), 0.0)))
        pairs = lam[n_cut:][::-1], vec[:, n_cut:][:, ::-1]
    lam, vec = pairs
    if lam.size and not float(lam[0]) / float(cov.grid.w) < np.inf:  # K's largest eigenvalue
        raise InvalidKernelParams(f"{cov.kernel!r}: an eigenvalue of K = op / w is not finite")
    modes = vec * np.sqrt(lam / cov.grid.w)
    for arr in (modes, lam):
        arr.setflags(write=False)
    return SqrtFactor(cov=cov, modes=modes, eigenvalues=lam)


def kernel_from_spec(text: str):
    """Parse CLI kernel strings: sqexp:<var>:<ell>, exp:<var>:<ell>,
    rankk:<lam0@k0,lam1@k1,...>."""
    parts = text.split(":")
    try:
        if parts[0] == "sqexp" and len(parts) == 3:
            return SquaredExponential(float(parts[1]), float(parts[2]))
        if parts[0] == "exp" and len(parts) == 3:
            return Exponential(float(parts[1]), float(parts[2]))
        if parts[0] == "rankk" and len(parts) == 2:
            pairs = (item.split("@") for item in parts[1].split(","))
            return RankK(tuple((float(lam), int(k)) for lam, k in pairs))
    except (ValueError, InvalidKernelParams) as exc:
        raise ConfigError(f"bad kernel spec {text!r}: {exc}") from exc
    raise ConfigError(f"unknown kernel spec {text!r}")
