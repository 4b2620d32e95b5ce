"""Concentration measurements: distances to the limit profile, per-sample
verification of the bound chain, threshold sweeps, and the two proposition
checks.

Records are scored from a sample alone, its columns and `k` (`record_columns`),
not from the field phi_u = phi + ((t_u - t_1)/B) q.  With q = p/||p||_2 and
e^{i theta} the phase (1 for a real field): per sample, c = <q|phi>, psi = phi - c q
and ||psi|| by rows, so a row does not depend on its block; per sample and u,
forms that neither cancel nor overflow:
- z = e^{-i theta}<q|phi_u> = |t_u|/B + e^{-i theta}(c - t_1/B), where |t_u|
  for e^{-i theta} t_u keeps roundoff of size eps u out of Im z;
- N = ||phi_u||_2 = hypot(|z|, ||psi||), which squares nothing u-sized;
- z - |z| = -(Im z)^2/(Re z + |z|) + i Im z where Re z > 0 (else directly),
  which subtracts no two u-sized numbers;
- gamma = e^{i theta}[(z - |z|) - ||psi||^2/(N + |z|)], as
  phi_u/N - e^{i theta} q = (psi + gamma q)/N: sup_dist = max_x |psi + gamma q|/N
  (the one M-sized pass) and l2_dist = hypot(||psi||, |gamma|)/N subtract no
  two unit vectors, whose roundoff (about eps) tops the distance past u = 1e15.

Sweeps use a paired design (common random numbers): sample i reads its noise
xi and then each threshold's draw, in ascending u, from substream(seed, 0, i)
(keyed all at once and read through one re-keyed generator), so the
u -> infinity limit is observed along fixed noise realizations.  The
samples are drawn and scored NOISE_BLOCK at a time (`sp.condition_blocks`,
`record_columns`), and the records are kept as columns.  The `slope` is the
least-squares slope of log q50 on log u, in closed form from centred sums.
"""

import dataclasses
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import covariance as cv
from . import functionals as fn
from . import sampling as sp
from .errors import (ConfigError, DegenerateFunctional, EmptyUList, GridMismatch,
                     ThresholdOverflow, ZeroVector)
from .grid import inners, l2_norm, l2_norms, make_grid, sup_norm
from .sampling import NOISE_BLOCK

BOUND_SLACK = 1e-9


def normalized_sup_distance(sample: sp.FieldSample, profile: np.ndarray) -> float:
    """|| phi_u/||phi_u||_2 - e^{i theta} p/||p||_2 ||_inf from the sample's values, for
    p on its grid other than the profile it was conditioned along (prop3's analytic curve)."""
    phase = np.exp(1j * sample.theta) if sample.scalar == sp.COMPLEX else 1.0
    nrm, nrm_p = l2_norm(sample.values, sample.k.grid), l2_norm(profile, sample.k.grid)
    if not (nrm and nrm_p):
        raise ZeroVector("cannot normalize a zero vector")
    if not nrm < math.inf:  # also NaN
        raise ThresholdOverflow(f"||phi_u|| is not representable at u = {sample.u}")
    return sup_norm(sample.values / nrm - phase * np.asarray(profile) / nrm_p)


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


def record_columns(sample: sp.FieldSample) -> dict:
    """Distances to the profile, and the check of the bound chain, of a
    FieldSample or of a block of them (`sp.condition_blocks`), scored from its
    columns and its constants k = sample.k on their grid k.grid (module
    docstring): every DistanceRecord field but sample_index, as an (n, |U|) array.

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
    phi = np.atleast_2d(sample.phi)
    n = len(phi)
    t_u, rho, theta = (np.reshape(x, (n, -1)) for x in (sample.t_u, sample.rho, sample.theta))
    t1 = np.reshape(sample.t1, (n, 1))
    r = np.sqrt(np.reshape(sample.r2, (n, 1)))
    k = sample.k
    b = k.b_const
    q = k.profile / k.profile_norm
    c = inners(q, phi, k.grid)[:, None]
    psi = phi - c * q
    psi_n = l2_norms(psi, k.grid)[:, None]
    tu_abs = np.abs(t_u)
    phase = np.cos(theta) + 1j * np.sin(theta) if sample.scalar == sp.COMPLEX else 1.0
    # a sum past the doubles is inf: an inf N raises below, and a quotient by N + |z| is 0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        z = tu_abs / b + np.conj(phase) * (c - t1 / b)
        z_abs = np.abs(z)
        nrm = np.hypot(z_abs, psi_n)
        z_less = z - z_abs  # exact for a real z
        if np.iscomplexobj(z):  # divide and invalid only in the branch np.where drops
            z_less = np.where(z.real > 0.0, -z.imag * (z.imag / (z.real + z_abs)) + 1j * z.imag,
                              z_less)
        gamma = phase * (z_less - psi_n * (psi_n / (nrm + z_abs)))
    if not np.all(nrm):
        raise ZeroVector("cannot normalize a zero vector")
    if not np.all(nrm < math.inf):  # also NaN
        raise ThresholdOverflow(f"||phi_u|| is not representable at u = {sample.u}")
    # the one M-sized pass, a threshold at a time, in one n x M scratch s (|s| in mag)
    s = np.empty_like(psi)
    mag = s if s.dtype == float else np.empty(s.shape)
    sup_d = np.stack([np.abs(np.add(psi, np.multiply(col[:, None], q, out=s), out=s), out=mag)
                      .max(axis=1) for col in gamma.T], 1) / nrm
    ratio = t_u / nrm
    a1 = np.abs(ratio - phase * b)
    r_n = r / nrm
    rhs = k.a_const * np.hypot(a1, r_n)
    dr = k.d_const * r
    applicable = tu_abs > dr
    tol = BOUND_SLACK * (1.0 + b)
    with np.errstate(all="ignore"):  # held is not read where the chain does not apply
        resid_env = b * r / (tu_abs - dr)
        held = ((b / (1.0 + dr / tu_abs) - tol <= tu_abs / nrm)
                & (tu_abs / nrm <= b / (1.0 - dr / tu_abs) + tol)
                & (r_n ** 2 <= resid_env ** 2 + tol)
                & (a1 <= b * dr / (tu_abs - dr) + tol)
                & (r_n <= resid_env + tol))
    return {"u": np.broadcast_to(np.asarray(sample.u, float), t_u.shape), "rho": rho,
            "theta": theta, "sup_dist": sup_d, "l2_dist": np.hypot(psi_n, np.abs(gamma)) / nrm,
            "bound_rhs": rhs, "ratio": ratio.astype(complex), "r": np.broadcast_to(r, t_u.shape),
            "applicable": applicable, "est0_ok": sup_d <= rhs + BOUND_SLACK * (1.0 + rhs),
            "est12_ok": ~applicable | held}


def distance_record(sample: sp.FieldSample) -> DistanceRecord:
    """Distances of one sample to its profile, and its check of the bound chain:
    the one-row call of `record_columns`, with sample_index 0."""
    return DistanceRecord(sample_index=0, **{
        name: col.item() for name, col in record_columns(sample).items()})


def quantiles(x: np.ndarray, qs) -> np.ndarray:
    """np.quantile(x, qs, axis=0), bitwise, for floats q in [0, 1], by numpy's rule:
    vi = (n - 1) q, rows lo = floor(vi) and hi = lo + 1 (both -1 where vi >= n - 1)
    of x partitioned as np.quantile does (which orders ties of -0.0 and 0.0),
    t = vi - lo, d = x[hi] - x[lo], and x[hi] - d (1 - t) where t >= 0.5, else
    x[lo] + d t; NaN in a column that holds one.  np.quantile picks its rows with
    np.unique, which imports numpy.ma (15 ms)."""
    n = len(x)
    vi = (n - 1) * np.asarray(qs, float)
    lo = np.where(vi < n - 1, np.floor(vi), -1).astype(int)
    hi = np.where(lo >= 0, lo + 1, -1)
    x = np.partition(x, sorted({0, -1, *lo.tolist(), *hi.tolist()}), axis=0)
    t = (vi - lo).reshape(-1, *[1] * (x.ndim - 1))
    d = x[hi] - x[lo]
    v = np.where(t >= 0.5, x[hi] - d * (1 - t), x[lo] + d * t)
    return np.where(np.isnan(x[-1]), np.nan, v)


@dataclass(frozen=True)
class SweepReport:
    per_u: tuple  # dicts {u, q10, q50, q90, l2_q50}
    slope: float | None
    violations_est0: int
    violations_est12: int
    # one array per DistanceRecord field, in record order: sample i, then u
    columns: dict = field(repr=False, compare=False)

    @functools.cached_property
    def records(self) -> tuple:
        """The records as DistanceRecord objects, built on first use."""
        rows = zip(*(self.columns[f.name].tolist() for f in dataclasses.fields(DistanceRecord)))
        return tuple(DistanceRecord(*row) for row in rows)


def sweep(factor: cv.Factor, t: fn.LinearFunctional, cov: cv.CovOperator, u_list,
          n_mc: int, scalar: str = sp.COMPLEX, mode: str = sp.FIXED_RHO, rho: float = 1.0,
          theta: float = 0.0, seed: int = 0) -> SweepReport:
    """Paired-seed sweep over thresholds (module docstring); `factor` must factor `cov`."""
    u_list = [float(u) for u in u_list]
    if not u_list:
        raise EmptyUList("u_list must contain at least one threshold")
    specs = [sp.ConditionSpec(u=u, scalar=scalar, mode=mode, rho=rho, theta=theta)
             for u in u_list]
    if any(b <= a for a, b in zip(u_list, u_list[1:])):
        raise EmptyUList(f"u_list must be strictly ascending, got {u_list}")
    if n_mc < 1:
        raise ValueError(f"n_mc must be >= 1, got {n_mc}")

    if cov != factor.cov:
        raise GridMismatch("factor and operator built from different kernels or grids")
    rngs = sp.keyed_streams(sp.stream_keys(seed, 0, n=n_mc))  # substream(seed, 0, i), i < n_mc
    # u_list[j] is column j of each (n_mc, len(u_list)) array; scored through map,
    # so that no name holds a drawn block while the next one is drawn
    blocks = list(map(record_columns, sp.condition_blocks(factor, t, specs, rngs)))
    cols = {name: np.concatenate([block[name] for block in blocks]) for name in blocks[0]}
    cols["sample_index"] = np.repeat(np.arange(n_mc)[:, None], len(specs), axis=1)
    q10, q50, q90 = quantiles(cols["sup_dist"], (0.1, 0.5, 0.9))
    (l2_q50,) = quantiles(cols["l2_dist"], (0.5,))
    per_u = [{"u": u, "q10": float(a), "q50": float(b), "q90": float(c), "l2_q50": float(d)}
             for u, a, b, c, d in zip(u_list, q10, q50, q90, l2_q50)]
    skip = int(u_list[0] == 0.0)  # log 0 is left out of the fit
    return SweepReport(
        per_u=tuple(per_u), slope=_slope(np.array(u_list[skip:]), q50[skip:]),
        violations_est0=int(np.count_nonzero(~cols["est0_ok"])),
        violations_est12=int(np.count_nonzero(~cols["est12_ok"])),  # True where not applicable
        columns={f.name: cols[f.name].ravel() for f in dataclasses.fields(DistanceRecord)},
    )


def _slope(u: np.ndarray, q50: np.ndarray) -> float | None:
    """The least-squares slope of log q50 on log u, sum(dx dy) / sum(dx^2) over the
    centred logs dx and dy; None unless every q50 > 0 and two log u differ."""
    x = np.log(u)
    if not (np.all(q50 > 0.0) and len(x) >= 2 and x[-1] > x[0]):
        return None
    dx, dy = (v - v.mean() for v in (x, np.log(q50)))
    return float((dx * dy).sum() / (dx * dx).sum())


def verify_prop1(t: fn.LinearFunctional, cov: cv.CovOperator, n_mc: int, seed: int = 0,
                 scalar: str = sp.COMPLEX) -> dict:
    """Finite-sample surrogate of the a.s. finiteness of <T|phi>: every sampled
    value finite, and the empirical variance close to <T|C|T>.

    The n_mc coefficient vectors (one coefficient per column of the factor:
    its `rank`) are successive draws from the one stream substream(seed, 0),
    read NOISE_BLOCK rows at a time."""
    if n_mc < 1000:
        raise ValueError(f"need n_mc >= 1000, got {n_mc}")
    tct_val = fn.constants(t, cov).tct
    factor = cv.sqrt_factor(cov)
    # <T|L g> = <w L^T T|g>: one matvec per block of draws, none per draw
    l_t = factor.adjoint(t.coeff)
    rng = sp.substream(seed, 0)
    vals = np.concatenate([
        sp.white_noise(factor.rank, scalar, rng, n=min(NOISE_BLOCK, n_mc - k)) @ l_t.conj()
        for k in range(0, n_mc, NOISE_BLOCK)])
    finite = bool(np.all(np.isfinite(vals)))
    with np.errstate(over="ignore"):  # a sum past the double range is formed again
        var_hat = float(np.mean(np.abs(vals) ** 2))
        if not np.isfinite(var_hat):  # with each |<T|phi>| divided by sqrt(n_mc) first
            var_hat = float(np.sum((np.abs(vals) / math.sqrt(n_mc)) ** 2))
    tol = 5.0 / math.sqrt(n_mc) + 0.02
    rel_err = abs(var_hat / tct_val - 1.0)
    if not (math.isfinite(var_hat) and math.isfinite(rel_err)):
        raise DegenerateFunctional(f"the empirical variance of <T|phi> is not a finite "
                                   f"double: var_hat = {var_hat}, rel_err = {rel_err}")
    return {"n_mc": n_mc, "all_finite": finite, "var_hat": var_hat, "tct": tct_val,
            "rel_err": rel_err, "tolerance": tol, "passed": finite and rel_err <= tol}


def verify_prop3(kernel, x0: float, n: int, order: int, u_big: float, a: float = 0.0,
                 b: float = 1.0, m: int = 256, scalar: str = sp.COMPLEX,
                 mode: str = sp.FIXED_RHO, rho: float = 1.0, theta: float = 0.0,
                 seed: int = 0) -> dict:
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
    spec = sp.ConditionSpec(u=u_big, scalar=scalar, mode=mode, rho=rho, theta=theta)
    sample = sp.sample_conditional(cv.sqrt_factor(cov), t, spec, sp.substream(seed, 2, 0))
    rec = distance_record(sample)
    profile_sup_dist = sample_sup_dist = None
    if curve is not None:
        diff = sample.k.profile / sample.k.profile_norm - curve / l2_norm(curve, grid)
        profile_sup_dist = sup_norm(diff)
        sample_sup_dist = normalized_sup_distance(sample, curve)
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
