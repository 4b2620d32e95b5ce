"""Concentration measurements: distances to the limit profile, per-sample
verification of the bound chain, threshold sweeps, and the two proposition
checks.

Sweeps use a paired design (common random numbers): sample i reads its noise
xi and then each threshold's draw, in ascending u, from substream(seed, 0, i),
so the u -> infinity limit is observed along fixed noise realizations.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import covariance as cv
from . import functionals as fn
from . import sampling as sp
from .errors import ConfigError, EmptyUList, ThresholdOverflow, ZeroVector
from .grid import Grid, l2_norm, make_grid, sup_norm

BOUND_SLACK = 1e-9
# Rows of noise `verify_prop1` holds at once (1 MB of complex noise at M = 512).
# Rows come in sequence from one stream, so this caps memory only.
NOISE_BLOCK = 128


def _phase(sample: sp.FieldSample):
    if sample.scalar == sp.COMPLEX:
        return complex(math.cos(sample.theta), math.sin(sample.theta))
    return 1.0


def _normalized_diff(sample: sp.FieldSample, nrm: float, profile: np.ndarray,
                     nrm_p: float) -> np.ndarray:
    if nrm == 0.0 or nrm_p == 0.0:
        raise ZeroVector("cannot normalize a zero vector")
    if not nrm < math.inf:  # also NaN, which an overflowing complex vdot gives
        raise ThresholdOverflow(f"||phi_u||^2 is not representable at u = {sample.u}")
    return sample.values / nrm - _phase(sample) * np.asarray(profile) / nrm_p


def normalized_sup_distance(sample: sp.FieldSample, profile: np.ndarray, grid: Grid) -> float:
    """|| phi_u/||phi_u||_2 - e^{i theta} p/||p||_2 ||_inf."""
    return sup_norm(_normalized_diff(sample, l2_norm(sample.values, grid), profile,
                                     l2_norm(profile, grid)))


@dataclass(frozen=True)
class DistanceRecord:
    u: float
    sample_index: int
    rho: float
    theta: float
    sup_dist: float
    l2_dist: float
    bound_rhs: float
    ratio: complex
    r: float
    applicable: bool
    est0_ok: bool
    est12_ok: bool


def distance_record(
    sample: sp.FieldSample,
    k: fn.TheoryConstants,
    grid: Grid,
    sample_index: int = 0,
) -> DistanceRecord:
    """Distances of one sample to the profile, and its check of the bound chain.

    With N = ||phi_u||_2, p = k.profile with ||p||_2 = k.profile_norm, A, B, D
    the other theory constants and r^2 the residual noise energy:
    - estimate 0 (the envelope, every sample): the sup distance
      ||phi_u/N - e^{i theta} p/||p||_2||_inf is at most
      bound_rhs = A (|t_u/N - e^{i theta} B|^2 + r^2/N^2)^{1/2};
    - estimates 1-2, where |t_u| > D r (`applicable`): the ratio bound
      B/(1 + D r/|t_u|) <= |t_u|/N <= B/(1 - D r/|t_u|), the residual bound
      r/N <= B r/(|t_u| - D r), and the consequence
      |t_u/N - e^{i theta} B| <= B D r/(|t_u| - D r).
    Each comparison allows BOUND_SLACK; est12_ok is True where the chain does
    not apply.
    """
    nrm = l2_norm(sample.values, grid)
    diff = _normalized_diff(sample, nrm, k.profile, k.profile_norm)
    sup_d = sup_norm(diff)
    b = k.b_const
    ratio = sample.t_u / nrm
    a1 = abs(ratio - _phase(sample) * b)
    resid = sample.r2 / nrm ** 2
    rhs = k.a_const * math.sqrt(a1 ** 2 + resid)
    tu_abs = abs(sample.t_u)
    r = math.sqrt(sample.r2)
    dr = k.d_const * r
    applicable = tu_abs > dr
    est12 = True
    if applicable:
        tol = BOUND_SLACK * (1.0 + b)
        lower = b / (1.0 + dr / tu_abs)
        upper = b / (1.0 - dr / tu_abs)
        resid_env = b * r / (tu_abs - dr)
        est12 = ((lower - tol) <= tu_abs / nrm <= (upper + tol)
                 and resid <= resid_env ** 2 + tol
                 and a1 <= b * dr / (tu_abs - dr) + tol
                 and math.sqrt(resid) <= resid_env + tol)
    return DistanceRecord(
        u=float(sample.u),
        sample_index=int(sample_index),
        rho=float(sample.rho),
        theta=float(sample.theta),
        sup_dist=sup_d,
        l2_dist=l2_norm(diff, grid),
        bound_rhs=rhs,
        ratio=complex(ratio),
        r=r,
        applicable=applicable,
        est0_ok=sup_d <= rhs + BOUND_SLACK * (1.0 + rhs),
        est12_ok=est12,
    )


@dataclass(frozen=True)
class SweepReport:
    u_list: tuple
    per_u: tuple  # dicts {u, q10, q50, q90, l2_q50}
    slope: float | None
    violations_est0: int
    violations_est12: int
    records: tuple = field(repr=False)


def sweep(
    factor: cv.SqrtFactor,
    t: fn.LinearFunctional,
    cov: cv.CovOperator,
    u_list,
    n_mc: int,
    scalar: str = sp.COMPLEX,
    mode: str = sp.FIXED_RHO,
    rho: float = 1.0,
    theta: float = 0.0,
    seed: int = 0,
) -> SweepReport:
    """Paired-seed sweep over thresholds; see module docstring."""
    u_list = [float(u) for u in u_list]
    if not u_list:
        raise EmptyUList("u_list must contain at least one threshold")
    specs = [sp.ConditionSpec(u=u, scalar=scalar, mode=mode, rho=rho, theta=theta)
             for u in u_list]
    if any(b <= a for a, b in zip(u_list, u_list[1:])):
        raise EmptyUList(f"u_list must be strictly ascending, got {u_list}")
    if n_mc < 1:
        raise ValueError(f"n_mc must be >= 1, got {n_mc}")

    grid = cov.grid
    consts = fn.constants(t, cov)
    rngs = (sp.substream(seed, 0, i) for i in range(n_mc))
    records = [distance_record(sample, consts, grid, sample_index=i)
               for i, samples in enumerate(sp.condition_pathwise(factor, t, specs, rngs))
               for sample in samples]

    # records run over (i, u), so column j of each array holds threshold u_list[j]
    sup_d = np.array([r.sup_dist for r in records]).reshape(n_mc, len(u_list))
    l2_d = np.array([r.l2_dist for r in records]).reshape(n_mc, len(u_list))
    q10, q50, q90 = np.quantile(sup_d, [0.1, 0.5, 0.9], axis=0)
    l2_q50 = np.quantile(l2_d, 0.5, axis=0)
    per_u = [{"u": u, "q10": float(a), "q50": float(b), "q90": float(c), "l2_q50": float(d)}
             for u, a, b, c, d in zip(u_list, q10, q50, q90, l2_q50)]
    # the rate fit needs log u, so a leading u = 0 (the only possible one) is left out
    skip = int(u_list[0] == 0.0)
    slope = (float(np.polyfit(np.log(u_list[skip:]), np.log(q50[skip:]), 1)[0])
             if len(u_list) - skip >= 2 else None)
    return SweepReport(
        u_list=tuple(u_list),
        per_u=tuple(per_u),
        slope=slope,
        violations_est0=sum(not r.est0_ok for r in records),
        violations_est12=sum(r.applicable and not r.est12_ok for r in records),
        records=tuple(records),
    )


def verify_prop1(
    t: fn.LinearFunctional,
    cov: cv.CovOperator,
    n_mc: int,
    seed: int = 0,
    scalar: str = sp.COMPLEX,
) -> dict:
    """Finite-sample surrogate of the a.s. finiteness of <T|phi>: every sampled
    value finite, and the empirical variance close to <T|C|T>.

    The n_mc noise vectors are successive draws from the one stream
    substream(seed, 0), read NOISE_BLOCK rows at a time."""
    if n_mc < 1000:
        raise ValueError(f"need n_mc >= 1000, got {n_mc}")
    tct_val = fn.tct(t, cov)
    grid = cov.grid
    # <T|C^{1/2} xi> = <C^{1/2} T|xi>: one matvec per block of draws, none per draw
    s_t, _ = sp.sqrt_tct(cv.sqrt_factor(cov), t)
    rng = sp.substream(seed, 0)
    vals = np.concatenate([
        grid.w * (sp.white_noise(grid.m, grid.w, scalar, rng, n=min(NOISE_BLOCK, n_mc - k))
                  @ s_t.conj())
        for k in range(0, n_mc, NOISE_BLOCK)])
    finite = bool(np.all(np.isfinite(vals)))
    var_hat = float(np.mean(np.abs(vals) ** 2))
    tol = 5.0 / math.sqrt(n_mc) + 0.02
    rel_err = abs(var_hat / tct_val - 1.0)
    return {
        "n_mc": n_mc,
        "all_finite": finite,
        "var_hat": var_hat,
        "tct": tct_val,
        "rel_err": rel_err,
        "tolerance": tol,
        "passed": finite and rel_err <= tol,
    }


def verify_prop3(
    kernel,
    x0: float,
    n: int,
    order: int,
    u_big: float,
    a: float = 0.0,
    b: float = 1.0,
    m: int = 256,
    scalar: str = sp.COMPLEX,
    mode: str = sp.FIXED_RHO,
    rho: float = 1.0,
    theta: float = 0.0,
    seed: int = 0,
) -> dict:
    """Condition on a large n-th derivative at x0 and compare the normalized
    profile and sample against the normalized analytic curve d^n C(x, x0)/d x0^n.
    A nonsmooth kernel (n >= 1) has no curve: it raises `smoothness_warning`,
    and `passed` is the sample's envelope bound (estimate 0).  Any other
    kernel without a closed-form curve raises ConfigError."""
    grid = make_grid(a, b, m)
    t = fn.make_derivative_functional(grid, x0, n, order)
    smoothness_warning = n >= 1 and not kernel.smooth
    curve = fn.analytic_derivative_curve(kernel, grid.points, t.x0, n)
    if curve is None and not smoothness_warning:
        raise ConfigError(f"no closed-form d^{n} C(x, x0)/d x0^{n} for "
                          f"{type(kernel).__name__}: nothing to compare against")
    cov = cv.assemble(kernel, grid)
    factor = cv.sqrt_factor(cov)
    consts = fn.constants(t, cov)

    spec = sp.ConditionSpec(u=u_big, scalar=scalar, mode=mode, rho=rho, theta=theta)
    sample = sp.sample_conditional(factor, t, spec, sp.substream(seed, 2, 0))
    rec = distance_record(sample, consts, grid)
    profile_sup_dist = sample_sup_dist = None
    if curve is not None:
        diff = consts.profile / consts.profile_norm - curve / l2_norm(curve, grid)
        profile_sup_dist = sup_norm(diff)
        sample_sup_dist = normalized_sup_distance(sample, curve, grid)
    profile_tol, sample_tol = 1e-3, 1e-2
    if smoothness_warning:
        passed = rec.est0_ok
    else:
        passed = profile_sup_dist <= profile_tol and sample_sup_dist <= sample_tol
    return {
        "n": n,
        "order": order,
        "x0": t.x0,
        "u_big": u_big,
        "profile_sup_dist": profile_sup_dist,
        "sample_sup_dist": sample_sup_dist,
        "sample_sup_dist_discrete": rec.sup_dist,
        "bound_rhs": rec.bound_rhs,
        "smoothness_warning": smoothness_warning,
        "profile_tolerance": profile_tol,
        "sample_tolerance": sample_tol,
        "passed": passed,
        "passed_with_warning": passed and smoothness_warning,
    }
