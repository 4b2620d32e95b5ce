"""Linear functionals as coefficient vectors, and the theory constants.

A functional is stored as a real coefficient vector T with
<T|phi> = inner(T, phi) = w * sum_i T_i phi_i.  Point evaluation puts 1/w at
the grid index nearest x0 (exact at grid level); derivative evaluation uses a
central finite-difference stencil scaled by 1/(w h^n).
"""

import math
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import covariance as cv
from .errors import (
    ConfigError,
    DegenerateFunctional,
    GridMismatch,
    InvalidKernelParams,
    OutOfDomain,
    StencilOutOfRange,
    UnsupportedOrder,
)
from .grid import Grid, inner, l2_norm

SUPPORTED_ORDERS = (2, 4, 6)
_LOG_MAX = math.log(sys.float_info.max)  # n! is a finite double where lgamma(n + 1) is below


@dataclass(frozen=True)
class LinearFunctional:
    grid: Grid
    coeff: np.ndarray = field(repr=False)
    kind: str = "custom"
    x0: float | None = None  # snapped evaluation point, when applicable
    n: int = 0
    order: int | None = None
    snap_distance: float = 0.0

    def __call__(self, phi):
        """<T|phi> under the grid inner product."""
        return inner(self.coeff, phi, self.grid)


def _functional(grid: Grid, coeff, kind: str, **fields) -> LinearFunctional:
    """The one constructor path: copy, validate and freeze a coefficient vector."""
    coeff = np.array(coeff, dtype=float)
    if coeff.shape != (grid.m,):
        raise GridMismatch(f"coefficients of shape {coeff.shape} on grid M={grid.m}")
    if not np.all(np.isfinite(coeff)):
        raise ConfigError(f"{kind} functional has non-finite coefficients")
    if not np.any(coeff):
        raise DegenerateFunctional(f"{kind} functional is identically zero")
    coeff.setflags(write=False)
    return LinearFunctional(grid=grid, coeff=coeff, kind=kind, **fields)


def _snapped(grid: Grid, x0: float, offsets, weights, kind: str, **fields):
    """Place stencil `weights` at `offsets` around the grid index nearest x0."""
    if not grid.a <= x0 <= grid.b:  # NaN fails too
        raise OutOfDomain(f"x0={x0} outside [{grid.a}, {grid.b}]")
    # argmin returns the first minimizer, so exact midpoints snap downward
    i0 = int(np.argmin(np.abs(grid.points - x0)))
    if i0 + offsets[0] < 0 or i0 + offsets[-1] >= grid.m:
        raise StencilOutOfRange(
            f"stencil {offsets[0]}..{offsets[-1]} around index {i0} "
            f"does not fit in a grid of {grid.m} points"
        )
    coeff = np.zeros(grid.m)
    coeff[i0 + offsets] = weights
    return _functional(grid, coeff, kind, x0=float(grid.points[i0]),
                       snap_distance=float(abs(grid.points[i0] - x0)), **fields)


def make_point_functional(grid: Grid, x0: float) -> LinearFunctional:
    """Dirac mass at the grid point nearest x0: <T|phi> = phi_{i0} exactly."""
    return _snapped(grid, x0, np.array([0]), 1.0 / grid.w, "point")


def stencil_coefficients(n: int, order: int):
    """Central finite-difference coefficients for the n-th derivative.

    Returns (offsets, coeffs) with sum_j coeffs[j] f(x + offsets[j] h)
    = h^n f^(n)(x) + O(h^(n+order)).
    """
    if order not in SUPPORTED_ORDERS:
        raise UnsupportedOrder(f"order must be one of {SUPPORTED_ORDERS}, got {order}")
    if n < 0:
        raise UnsupportedOrder(f"derivative order n must be >= 0, got {n}")
    if math.lgamma(n + 1) > _LOG_MAX:  # before anything n-sized is formed
        raise UnsupportedOrder(f"derivative order n = {n}: n! is not a finite double")
    if n == 0:
        return np.array([0]), np.array([1.0])
    p = (n + 1) // 2 - 1 + order // 2
    offsets = np.arange(-p, p + 1)
    with np.errstate(over="ignore"):  # offsets^k past the doubles: non-finite coefficients raise
        vander = np.vander(offsets.astype(float), increasing=True).T  # row k: offsets^k
    rhs = np.zeros(2 * p + 1)
    rhs[n] = math.factorial(n)
    coeffs = np.linalg.solve(vander, rhs)
    return offsets, coeffs


def make_derivative_functional(
    grid: Grid, x0: float, n: int, order: int = 2
) -> LinearFunctional:
    """Stencil approximation of phi -> phi^(n)(x0), accuracy O(h^order)."""
    offsets, coeffs = stencil_coefficients(n, order)
    try:
        w_n = grid.w ** n
    except OverflowError:  # float ** raises where * and / return inf
        w_n = math.inf
    with np.errstate(over="ignore", divide="ignore"):  # non-finite or zero coefficients raise
        weights = coeffs / (grid.w * w_n)
    return _snapped(grid, x0, offsets, weights, "derivative", n=int(n), order=int(order))


_NAMED_WEIGHTS = {
    "uniform": lambda x, a, b: np.full_like(x, 1.0 / (b - a)),
    "cosine": lambda x, a, b: np.cos(np.pi * (x - a) / (b - a)),
}


def make_integral_functional(grid: Grid, weight: str) -> LinearFunctional:
    """<T|phi> = w * sum_i weight(x_i) phi_i, a quadrature of integral(weight * phi),
    for a named weight profile ("uniform", "cosine")."""
    if weight not in _NAMED_WEIGHTS:
        raise ConfigError(f"unknown integral weight {weight!r}")
    return _functional(grid, _NAMED_WEIGHTS[weight](grid.points, grid.a, grid.b), "integral")


def make_custom_functional(grid: Grid, coeff) -> LinearFunctional:
    return _functional(grid, coeff, "custom")


def profile(t: LinearFunctional, cov: cv.CovOperator) -> np.ndarray:
    """The limit profile direction C|T> (phase factor applied downstream), from
    the operator rows in T's support (`CovOperator.apply`): one row for a point
    functional, the stencil rows for a derivative, blocks of rows otherwise."""
    if t.grid != cov.grid:
        raise GridMismatch("functional and operator built on different grids")
    return cov.apply(t.coeff)


@dataclass(frozen=True)
class TheoryConstants:
    """The limit profile p = C T on its grid and the scalars of the bound chain
    derived from it, fixed by (T, C); <T|C^2|T> is profile_norm ** 2."""

    grid: Grid  # T's, on which p lives and a sample is scored
    profile: np.ndarray = field(repr=False, compare=False)  # p = C T, read-only
    profile_norm: float  # ||p||_2
    tct: float  # <T|C|T> = <T|p>
    a_const: float  # sqrt of max pointwise variance
    b_const: float  # sqrt(<T|C|T> / <T|C^2|T>) = sqrt(<T|C|T>) / ||p||_2
    d_const: float  # a_const * b_const * sqrt(b - a)


def constants(t: LinearFunctional, cov: cv.CovOperator) -> TheoryConstants:
    """Form p = C T (the one application of C, from the rows in T's support) and
    A^2 (from the operator's diagonal) once, and derive <T|C|T> = <T|p>, ||p||_2
    and A, B, D from them; neither reads the M x M operator.

    Since |C(x, y)| <= A^2, the roundoff in <T|C|T> is at most
    eps A^2 (w sum_i |T_i|)^2; a value not above 100 times that bound (1%
    roundoff) is rejected, and so is a non-finite entry of p, <T|C|T>, ||p||_2, A, B or D."""
    p = profile(t, cov)
    p.setflags(write=False)
    a2 = cv.point_variance_max(cov)
    tct_val = float(inner(t.coeff, p, t.grid).real)
    if not math.isfinite(tct_val) and not np.all(np.isfinite(p)):  # whose infs may cancel
        raise DegenerateFunctional("the profile C T has entries that are not finite doubles")
    w_t1 = t.grid.w * float(np.abs(t.coeff).sum())
    bound = sys.float_info.epsilon * a2 * (w_t1 * w_t1)  # Python floats: inf, no warning
    if math.isfinite(tct_val) and tct_val <= 100.0 * bound:  # the bound may overflow
        raise DegenerateFunctional(f"<T|C|T> = {tct_val:.6g} is numerically zero: not above "
                                   f"100x its roundoff bound {bound:.3g}")
    p_norm = l2_norm(p, t.grid)
    if p_norm == 0.0:
        raise DegenerateFunctional("||C T||_2 is zero")
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite results raise below
        a_const = float(np.sqrt(a2))
        b_const = float(np.sqrt(tct_val) / p_norm)
        d_const = a_const * b_const * float(np.sqrt(t.grid.length))
    if not np.all(np.isfinite([tct_val, p_norm, a_const, b_const, d_const])):
        raise DegenerateFunctional(
            f"non-finite theory constants: <T|C|T> = {tct_val:.6g}, ||C T||_2 = {p_norm:.6g}, "
            f"A = {a_const:.6g}, B = {b_const:.6g}, D = {d_const:.6g}")
    return TheoryConstants(grid=t.grid, profile=p, profile_norm=p_norm, tct=tct_val,
                           a_const=a_const, b_const=b_const, d_const=d_const)


def analytic_derivative_curve(kernel, x, x0: float, n: int):
    """Closed-form d^n C(x, x0) / d x0^n where available, else None.

    For the squared-exponential kernel the n-th derivative is
    variance * ell^(-n) * He_n(s) * exp(-s^2/2) with s = (x - x0)/ell
    (probabilists' Hermite polynomial).  Raises InvalidKernelParams where an
    entry of that curve is not a finite double.
    """
    x = np.asarray(x, dtype=float)
    if isinstance(kernel, cv.SquaredExponential):
        try:
            scale = kernel.ell ** (-n)
        except OverflowError:  # float ** raises where * and / return inf
            raise InvalidKernelParams(
                f"ell^-{n} overflows a double at ell = {kernel.ell}") from None
        s = (x - x0) / kernel.ell
        # where s^2 overflows, exp(-inf) = 0 is the right factor; non-finite entries raise below
        with np.errstate(over="ignore", invalid="ignore"):
            he = np.polynomial.hermite_e.HermiteE.basis(n)(s)
            curve = kernel.variance * scale * he * np.exp(-(s ** 2) / 2.0)
        if not np.all(np.isfinite(curve)):
            raise InvalidKernelParams(f"analytic curve is not finite for d^{n} C(x, x0)/d x0^{n} "
                                      f"at variance = {kernel.variance}, ell = {kernel.ell}")
        return curve
    if n == 0 and isinstance(kernel, cv.Exponential):
        return np.asarray(kernel.pair(x, x0))
    return None


def functional_from_spec(text: str, grid: Grid) -> LinearFunctional:
    """Parse CLI functional strings: point:<x0>, dpoint:<x0>:<n>[:<order>],
    integral:<weight-name>, custom:@<csv-file>."""
    parts = text.split(":")
    try:
        if parts[0] == "point" and len(parts) == 2:
            return make_point_functional(grid, float(parts[1]))
        if parts[0] == "dpoint" and len(parts) in (3, 4):
            order = int(parts[3]) if len(parts) == 4 else 2
            return make_derivative_functional(grid, float(parts[1]), int(parts[2]), order)
        if parts[0] == "integral" and len(parts) == 2:
            return make_integral_functional(grid, parts[1])
        if parts[0] == "custom" and len(parts) == 2 and parts[1].startswith("@"):
            with warnings.catch_warnings():  # loadtxt warns on a file with no data
                warnings.simplefilter("error", UserWarning)
                values = np.loadtxt(parts[1][1:], delimiter=",", ndmin=1)
            return make_custom_functional(grid, values)
    except (ValueError, OSError, UserWarning, OutOfDomain, StencilOutOfRange, UnsupportedOrder,
            GridMismatch, DegenerateFunctional) as exc:
        raise ConfigError(f"bad functional spec {text!r}: {exc}") from exc
    raise ConfigError(f"unknown functional spec {text!r}")
