"""Exact sampling of fields conditioned on <T|phi>.

An unconditional draw is the spectral expansion phi = C^{1/2} xi with xi
white with respect to the weighted inner product.  A conditional draw adds a
rank-one update (Matheron's rule): phi_u = C^{1/2} xi + (t_u - t_1) C^{1/2} v,
with v = C^{1/2} T / sqrt(<T|C|T>), t_1 = <v|xi> and |t_u|^2 = rho + u^2/<T|C|T>.
This equals the adapted-basis split C^{1/2}(t_u v + xi_perp), so it has the
same law, and |<T|phi_u>| >= u exactly.  Only xi changes between samples:
`condition_pathwise` forms v and C^{1/2} v once per call.

Reproducibility: streams are counter-based (Philox) and splittable.  A
conditioned sample is one stream read in one order: xi, then (t_u, rho,
theta) for each threshold.  Sweeps and conditional draws give sample i its
own substream(seed, path..., i), so they are order-independent and safe to
generate in parallel.  `verify prop1` draws its unconditional noise from one
stream, substream(seed, 0), read in fixed-size blocks whose size does not
change the draws.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .covariance import SqrtFactor
from .errors import DegenerateFunctional, GridMismatch, NegativeU, ThresholdOverflow
from .functionals import LinearFunctional
from .grid import inner

REAL = "real"
COMPLEX = "complex"

FIXED_RHO = "fixed-rho"
RANDOM = "random"


def substream(seed: int, *path: int) -> np.random.Generator:
    """Independent, order-free stream for a (seed, path) pair."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class ConditionSpec:
    """Threshold, scalar field, and how the conditional coefficient is drawn."""

    u: float
    scalar: str = COMPLEX
    mode: str = FIXED_RHO
    rho: float = 1.0
    theta: float = 0.0

    def __post_init__(self):
        if not 0 <= self.u < math.inf:
            raise NegativeU(f"threshold u must be finite and >= 0, got {self.u}")
        if self.scalar not in (REAL, COMPLEX):
            raise ValueError(f"scalar must be {REAL!r} or {COMPLEX!r}")
        if self.mode not in (FIXED_RHO, RANDOM):
            raise ValueError(f"mode must be {FIXED_RHO!r} or {RANDOM!r}")
        if self.mode == FIXED_RHO and not (0 <= self.rho < math.inf and math.isfinite(self.theta)):
            raise ValueError(f"need finite rho >= 0 and theta, got {self.rho}, {self.theta}")
        if self.scalar == REAL and self.mode == FIXED_RHO and self.theta != 0.0:
            raise ValueError("real scalar field requires theta = 0")


@dataclass(frozen=True)
class FieldSample:
    """One realization plus its conditioning record."""

    values: np.ndarray = field(repr=False)
    scalar: str
    t_u: complex | float
    r2: float  # residual noise energy sum_{n>=2} |t_n|^2
    u: float
    rho: float
    theta: float


def white_noise(m: int, w: float, scalar: str, rng: np.random.Generator,
                n: int | None = None) -> np.ndarray:
    """Noise vector whose coefficients in any weighted-orthonormal basis are
    i.i.d. standard (complex: independent re/im parts of variance 1/2).

    With a count `n`, an (n, m) block whose row k is bitwise the k-th of n
    successive single draws from the same `rng`."""
    lead = () if n is None else (n,)
    if scalar == COMPLEX:
        g = rng.standard_normal(lead + (2 * m,))
        t = (g[..., :m] + 1j * g[..., m:]) / np.sqrt(2.0)
    else:
        t = rng.standard_normal(lead + (m,))
    return t / np.sqrt(w)


def truncated_normal_lower(alpha: float, rng: np.random.Generator) -> float:
    """Standard normal conditioned on z >= alpha.

    Plain rejection for alpha <= 0 (acceptance >= 1/2); for alpha > 0 a
    shifted-exponential proposal with the optimal rate
    lam = (alpha + sqrt(alpha^2 + 4)) / 2, stable for thresholds >> 1.  Where
    alpha^2 overflows, lam is alpha and every proposal rounds to alpha.
    """
    if alpha <= 0.0:
        while True:
            z = rng.standard_normal()
            if z >= alpha:
                return float(z)
    a2 = alpha * alpha
    if not a2 < math.inf:
        return float(alpha)
    lam = (alpha + math.sqrt(a2 + 4.0)) / 2.0
    while True:
        z = alpha + rng.exponential(1.0 / lam)
        if rng.random() <= math.exp(-((z - lam) ** 2) / 2.0):
            return float(z)


def sample_t_u(spec: ConditionSpec, tct: float, rng: np.random.Generator):
    """Draw (t_u, rho, theta) for the conditional first coefficient, with
    |t_u|^2 = rho + u^2/<T|C|T>; raises ThresholdOverflow where that overflows."""
    if tct <= 0.0:
        raise DegenerateFunctional(f"<T|C|T> = {tct} must be positive")
    try:
        base = spec.u ** 2 / tct
    except OverflowError:  # float ** raises where * and / return inf
        base = spec.u * (spec.u / tct)
    if spec.mode == RANDOM and spec.scalar == REAL:
        t_u = truncated_normal_lower(spec.u / math.sqrt(tct), rng)
        rho, theta = float(t_u * t_u - base), 0.0
    else:
        if spec.mode == FIXED_RHO:
            rho, theta = spec.rho, spec.theta
        else:
            rho = float(rng.exponential(1.0))
            theta = float(rng.uniform(0.0, 2.0 * math.pi))
        mag = math.sqrt(rho + base)
        t_u = mag * complex(math.cos(theta), math.sin(theta)) if spec.scalar == COMPLEX else mag
    if not rho + base < math.inf:  # NaN too, from inf - inf
        raise ThresholdOverflow(f"|t_u|^2 is not representable in doubles at u = {spec.u}")
    return t_u, rho, theta


def sqrt_tct(factor: SqrtFactor, t: LinearFunctional):
    """C^{1/2} T and <T|C|T> = ||C^{1/2} T||^2, both from the factor."""
    if t.grid != factor.grid:
        raise GridMismatch("functional and factor built on different grids")
    s_t = factor.apply(t.coeff)
    tct = float(inner(s_t, s_t, t.grid).real)
    if not tct > 0.0:  # guards the division by sqrt(tct); `constants` gates roundoff
        raise DegenerateFunctional("C^{1/2} T is zero")
    return s_t, tct


def condition_pathwise(factor: SqrtFactor, t: LinearFunctional, specs, rngs):
    """Condition one sample per stream in `rngs` (consumed lazily) on every
    spec in the list `specs`; yields one list of FieldSample per stream.  Each
    stream is read as xi (`white_noise`, of the specs' one scalar type), then
    (t_u, rho, theta) for each spec in order (`sample_t_u`).  Each sample is
    phi_u = C^{1/2} xi + (t_u - t_1) C^{1/2} v with r^2 = ||xi - t_1 v||^2;
    C^{1/2} T, <T|C|T>, v and C^{1/2} v are formed once per call, v from the
    factor, which keeps <T|phi_u> = sqrt(<T|C|T>) t_u exact to roundoff under
    clipping.  Raises ValueError unless the specs share one scalar type."""
    scalars = {spec.scalar for spec in specs}
    if len(scalars) != 1:
        raise ValueError(f"need specs of exactly one scalar type, got {sorted(scalars)}")
    (scalar,) = scalars
    g = factor.grid
    s_t, tct = sqrt_tct(factor, t)
    v = s_t / math.sqrt(tct)
    s_v = factor.apply(v)
    for rng in rngs:
        xi = white_noise(g.m, g.w, scalar, rng)
        phi = factor.apply(xi)
        t1 = inner(v, xi, g)
        rest = xi - t1 * v
        r2 = float(inner(rest, rest, g).real)
        samples = []
        for spec in specs:
            t_u, rho, theta = sample_t_u(spec, tct, rng)
            values = phi + (t_u - t1) * s_v
            values = values.real if scalar == REAL else values
            values.setflags(write=False)
            samples.append(FieldSample(values=values, scalar=scalar, t_u=t_u, r2=r2,
                                       u=spec.u, rho=rho, theta=theta))
        yield samples


def sample_conditional(
    factor: SqrtFactor,
    t: LinearFunctional,
    spec: ConditionSpec,
    rng: np.random.Generator,
) -> FieldSample:
    """Draw phi_u = C^{1/2} xi + (t_u - t_1) C^{1/2} v, which has the law of
    the adapted-basis split C^{1/2}(t_u v + xi_perp): the one-spec, one-stream
    call of `condition_pathwise`, so `rng` gives xi and then (t_u, rho, theta).
    """
    return next(condition_pathwise(factor, t, [spec], [rng]))[0]
