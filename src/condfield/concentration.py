"""Concentration measurements: distances to the limit profile, per-sample
verification of the bound chain, threshold sweeps, and the two proposition
checks.

Sweeps use a paired design (common random numbers): sample index i reuses the
same noise substream across every threshold u, so the u -> infinity limit is
observed along fixed noise realizations.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import covariance as cv
from . import functionals as fn
from . import sampling as sp
from .errors import EmptyUList, ZeroVector
from .grid import Grid, inner, l2_norm, make_grid, sup_norm

BOUND_SLACK = 1e-9


def _phase(sample: sp.FieldSample):
    if sample.scalar == sp.COMPLEX:
        return complex(math.cos(sample.theta), math.sin(sample.theta))
    return 1.0


def _normalized_diff(sample: sp.FieldSample, nrm: float, profile: np.ndarray,
                     grid: Grid) -> np.ndarray:
    nrm_p = l2_norm(profile, grid)
    if nrm == 0.0 or nrm_p == 0.0:
        raise ZeroVector("cannot normalize a zero vector")
    return sample.values / nrm - _phase(sample) * np.asarray(profile) / nrm_p


def normalized_sup_distance(sample: sp.FieldSample, profile: np.ndarray, grid: Grid) -> float:
    """|| phi_u/||phi_u||_2 - e^{i theta} p/||p||_2 ||_inf."""
    return sup_norm(_normalized_diff(sample, l2_norm(sample.values, grid), profile, grid))


def normalized_l2_distance(sample: sp.FieldSample, profile: np.ndarray, grid: Grid) -> float:
    """Same difference measured in the weighted L2 norm (diagnostic)."""
    return l2_norm(_normalized_diff(sample, l2_norm(sample.values, grid), profile, grid), grid)


def _estimate0_rhs(sample: sp.FieldSample, nrm: float, k: fn.TheoryConstants) -> float:
    if nrm == 0.0:
        raise ZeroVector("zero sample norm")
    a1 = sample.t_u / nrm - _phase(sample) * k.b_const
    return k.a_const * math.sqrt(abs(a1) ** 2 + sample.r2 / nrm ** 2)


def estimate0_rhs(sample: sp.FieldSample, k: fn.TheoryConstants, grid: Grid) -> float:
    """The envelope A * (|t_u/||phi||_2 - e^{i theta} B|^2 + r^2/||phi||_2^2)^{1/2},
    which dominates the normalized sup distance for every sample."""
    return _estimate0_rhs(sample, l2_norm(sample.values, grid), k)


def _ratio_bounds_check(sample: sp.FieldSample, nrm: float, k: fn.TheoryConstants) -> dict:
    tu_abs = abs(sample.t_u)
    r = math.sqrt(sample.r2)
    dr = k.d_const * r
    applicable = tu_abs > dr
    out = {"applicable": applicable, "ratio": sample.t_u / nrm, "r": r,
           "est1_ok": True, "est2_ok": True, "limit1_ok": True, "limit2_ok": True}
    if not applicable:
        return out
    ratio_abs = tu_abs / nrm
    lower = k.b_const / (1.0 + dr / tu_abs)
    upper = k.b_const / (1.0 - dr / tu_abs)
    tol = BOUND_SLACK * (1.0 + k.b_const)
    out["est1_ok"] = (lower - tol) <= ratio_abs <= (upper + tol)
    resid = sample.r2 / nrm ** 2
    resid_env = k.b_const * r / (tu_abs - dr)
    out["est2_ok"] = resid <= resid_env ** 2 + tol
    # algebraic consequences of the two estimates, asserted directly
    env = k.b_const * dr / (tu_abs - dr)
    out["limit1_ok"] = abs(out["ratio"] - _phase(sample) * k.b_const) <= env + tol
    out["limit2_ok"] = math.sqrt(resid) <= resid_env + tol
    return out


def ratio_bounds_check(sample: sp.FieldSample, k: fn.TheoryConstants, grid: Grid) -> dict:
    """Check the two-sided ratio bound and the residual bound, gated on
    |t_u| > D r (the 'large first coefficient' regime where they apply)."""
    return _ratio_bounds_check(sample, l2_norm(sample.values, grid), k)


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
    profile: np.ndarray,
    k: fn.TheoryConstants,
    grid: Grid,
    sample_index: int = 0,
) -> DistanceRecord:
    nrm = l2_norm(sample.values, grid)
    diff = _normalized_diff(sample, nrm, profile, grid)
    sup_d = sup_norm(diff)
    l2_d = l2_norm(diff, grid)
    rhs = _estimate0_rhs(sample, nrm, k)
    chk = _ratio_bounds_check(sample, nrm, k)
    est12 = chk["est1_ok"] and chk["est2_ok"] and chk["limit1_ok"] and chk["limit2_ok"]
    return DistanceRecord(
        u=float(sample.u),
        sample_index=int(sample_index),
        rho=float(sample.rho),
        theta=float(sample.theta),
        sup_dist=sup_d,
        l2_dist=l2_d,
        bound_rhs=rhs,
        ratio=complex(chk["ratio"]),
        r=chk["r"],
        applicable=chk["applicable"],
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
    prof = fn.profile(t, cov)
    consts = fn.constants(t, cov)
    _, tct = sp.sqrt_tct(factor, t)
    noises = (sp.white_noise(grid.m, grid.w, scalar, sp.substream(seed, 0, i))
              for i in range(n_mc))
    draws = ([(spec, *sp.sample_t_u(spec, tct, sp.substream(seed, 1, j, i)))
              for j, spec in enumerate(specs)] for i in range(n_mc))
    records = [distance_record(sample, prof, consts, grid, sample_index=i)
               for i, samples in enumerate(sp.condition_pathwise(factor, t, noises, draws))
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
    value finite, and the empirical variance close to <T|C|T>."""
    if n_mc < 1000:
        raise ValueError(f"need n_mc >= 1000, got {n_mc}")
    tct_val = fn.tct(t, cov)
    grid = cov.grid
    # <T|C^{1/2} xi> = <C^{1/2} T|xi>: one matvec in all, not one per draw
    s_t, _ = sp.sqrt_tct(cv.sqrt_factor(cov), t)
    vals = np.empty(n_mc, dtype=complex if scalar == sp.COMPLEX else float)
    for i in range(n_mc):
        xi = sp.white_noise(grid.m, grid.w, scalar, sp.substream(seed, 0, i))
        vals[i] = inner(s_t, xi, grid)
    finite = bool(np.all(np.isfinite(vals)))
    var_hat = float(np.mean(np.abs(vals) ** 2)) if scalar == sp.COMPLEX else float(np.mean(vals ** 2))
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
    sample against the normalized analytic curve d^n C(x, x0)/d x0^n."""
    grid = make_grid(a, b, m)
    t = fn.make_derivative_functional(grid, x0, n, order)
    cov = cv.assemble(kernel, grid)
    factor = cv.sqrt_factor(cov)
    consts = fn.constants(t, cov)
    prof = fn.profile(t, cov)

    smoothness_warning = n >= 1 and not getattr(kernel, "smooth", False)
    curve = fn.analytic_derivative_curve(kernel, grid.points, t.x0, n)
    profile_sup_dist = None
    sample_sup_dist = None
    if curve is not None:
        diff = prof / l2_norm(prof, grid) - curve / l2_norm(curve, grid)
        profile_sup_dist = sup_norm(diff)

    spec = sp.ConditionSpec(u=u_big, scalar=scalar, mode=mode, rho=rho, theta=theta)
    sample = sp.sample_conditional(factor, t, spec, sp.substream(seed, 2, 0))
    rec = distance_record(sample, prof, consts, grid)
    if curve is not None:
        sample_sup_dist = normalized_sup_distance(sample, curve, grid)
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
    }
