"""An independent oracle for the conditional law: the engine's draws against
rejection sampling.

At a moderate threshold the conditional law can be drawn without the rank-one
update: draw unconditional fields L g and keep those in the event, <T|phi> >= u
on a real field and |<T|phi>| >= u on a complex one.  That uses only the
factor's `apply` and the event.  For each route, scalar type and functional,
N_DRAWS draws of `condition_blocks` in random mode are compared with N_DRAWS
kept draws by two-sample Kolmogorov-Smirnov tests: on Re phi (and Im phi on a
complex field) at four points, on sup|phi| and on |<T|phi>|.  A test fails
where its p-value, from the asymptotic Kolmogorov law, is below ALPHA / N_TESTS:
Bonferroni over every comparison of the module, so that a correct sampler fails
one with probability at most ALPHA.  Seeds are fixed.

Matheron's rule adds a second check: phi_u - (t_u/B) q = L (g - t_1 v) is
independent of t_u, with covariance C - p p^T/<T|C|T>, p = C T.  Its covariance,
and its correlation with t_u, are checked entry by entry within 5 standard errors.
"""

import numpy as np
import pytest

from condfield import (
    COMPLEX,
    RANDOM,
    REAL,
    ConditionSpec,
    CovOperator,
    Exponential,
    SquaredExponential,
    assemble,
    constants,
    functional_from_spec,
    kernel_from_spec,
    make_grid,
    sqrt_factor,
)
from condfield.covariance import CirculantFactor
from condfield.grid import inners
from condfield.sampling import condition_blocks, keyed_streams, stream_keys, substream, white_noise
from test_covariance import MatrixKernel

M = 64
N_DRAWS = 4000
U_OVER_SIGMA = 1.3  # u = 1.3 sqrt(<T|C|T>): 10% of real draws and 18% of complex ones are kept
POINTS = (5, 19, 32, 50)  # grid indices at which phi is compared
ALPHA = 1e-3  # family-wise


def _nonstationary(grid):
    """op = w K for K(x, y) = exp(-(x - y)^2 / (2 0.2^2)) (1 + x y), positive
    semidefinite as the Schur product of two such kernels; no kernel of the
    package gives it, so it is factored by the dense eigh."""
    x = grid.points
    k = np.exp(-np.subtract.outer(x, x) ** 2 / (2 * 0.2 ** 2)) * (1.0 + np.multiply.outer(x, x))
    return CovOperator(grid=grid, kernel=MatrixKernel(grid.w * k))


ROUTES = {
    "pivoted-sqexp": lambda g: assemble(SquaredExponential(1, 0.2), g),
    "embedding-exp": lambda g: assemble(Exponential(1, 0.1), g),
    "rankk": lambda g: assemble(kernel_from_spec("rankk:4@1,1@3,0.5@0"), g),
    "dense": _nonstationary,
}
FUNCTIONALS = ("point:0.3", "integral:cosine", "dpoint:0.3:1:4")
SCALARS = (REAL, COMPLEX)
CASES = [(r, f, s) for r in ROUTES for f in FUNCTIONALS for s in SCALARS]


def _statistics(phi, t, scalar):
    """The compared statistics of an (n, M) block of fields, by name."""
    stats = {f"re phi[{i}]": phi[:, i].real for i in POINTS}
    if scalar == COMPLEX:
        stats |= {f"im phi[{i}]": phi[:, i].imag for i in POINTS}
    return stats | {"sup|phi|": np.abs(phi).max(axis=1),
                    "|<T|phi>|": np.abs(inners(t.coeff, phi, t.grid))}


N_TESTS = sum(len(POINTS) * (2 if s == COMPLEX else 1) + 2 for _, _, s in CASES)


def ks_pvalue(x, y):
    """Two-sample Kolmogorov-Smirnov p-value from the asymptotic Kolmogorov law,
    P(K > lam) = 2 sum_k (-1)^(k-1) exp(-2 k^2 lam^2), lam = D sqrt(n m / (n + m))."""
    x, y = np.sort(x), np.sort(y)
    both = np.concatenate((x, y))
    d = np.abs(np.searchsorted(x, both, side="right") / x.size
               - np.searchsorted(y, both, side="right") / y.size).max()
    lam = d * np.sqrt(x.size * y.size / (x.size + y.size))
    k = np.arange(1, 101)
    return float(np.clip(2 * np.sum((-1.0) ** (k - 1) * np.exp(-2 * k ** 2 * lam ** 2)), 0, 1))


def test_ks_pvalue_is_calibrated():
    # two samples of one law: the p-values are close to uniform; two laws apart: ~0
    rng = np.random.default_rng(5)
    p = np.array([ks_pvalue(rng.standard_normal(500), rng.standard_normal(500))
                  for _ in range(400)])
    assert abs(np.mean(p < 0.1) - 0.1) < 0.05 and abs(np.mean(p < 0.5) - 0.5) < 0.1
    assert ks_pvalue(rng.standard_normal(500), 0.5 + rng.standard_normal(500)) < 1e-6


def _rejection_draws(factor, t, u, scalar, n):
    """n unconditional draws L g in the event, in the order drawn."""
    rng, kept, count = substream(12, 2), [], 0
    while count < n:
        phi = factor.apply(white_noise(factor.rank, scalar, rng, n=8192))
        s = inners(t.coeff, phi, t.grid)
        phi = phi[(s.real >= u) if scalar == REAL else (np.abs(s) >= u)]
        kept.append(phi)
        count += len(phi)
    return np.concatenate(kept)[:n]


@pytest.fixture(scope="module")
def grid():
    return make_grid(0, 1, M)


@pytest.mark.parametrize("route, functional, scalar", CASES, ids=["-".join(c) for c in CASES])
def test_conditional_law_matches_rejection_sampling(grid, route, functional, scalar):
    cov = ROUTES[route](grid)
    factor = sqrt_factor(cov)
    assert isinstance(factor, CirculantFactor) == route.startswith("embedding")
    t = functional_from_spec(functional, grid)
    k = constants(t, cov)
    u = U_OVER_SIGMA * np.sqrt(k.tct)
    spec = ConditionSpec(u=u, scalar=scalar, mode=RANDOM)
    blocks = list(condition_blocks(factor, t, [spec],
                                   keyed_streams(stream_keys(11, 1, n=N_DRAWS))))
    phi_u = np.concatenate([b.values[:, 0] for b in blocks])
    t_u = np.concatenate([b.t_u[:, 0] for b in blocks])
    oracle = _rejection_draws(factor, t, u, scalar, N_DRAWS)

    ours, theirs = _statistics(phi_u, t, scalar), _statistics(oracle, t, scalar)
    p = {name: ks_pvalue(ours[name], theirs[name]) for name in ours}
    worst = min(p, key=p.get)
    assert p[worst] >= ALPHA / N_TESTS, f"{worst}: p = {p[worst]:.3g}, of {p}"

    # Matheron: the residual's covariance, within 5 standard errors of each entry, plus a
    # roundoff floor where the target is 0 (at a point functional's point)
    resid = phi_u - (t_u[:, None] / k.b_const) * (k.profile / k.profile_norm)
    emp = (resid.conj().T @ resid).real / N_DRAWS
    kk = cov.op / grid.w
    target = kk - np.outer(k.profile, k.profile) / k.tct
    d = np.abs(np.diag(target))
    se = np.sqrt((np.outer(d, d) + target ** 2) / N_DRAWS)
    excess = np.abs(emp - target) - 5 * se - 1e-12 * np.abs(kk).max()
    assert excess.max() <= 0, f"residual covariance off by {excess.max():.3g} past 5 SE"
    # and uncorrelated with t_u
    dt = t_u - t_u.mean()
    cross = np.abs(dt.conj() @ resid) / N_DRAWS
    se = np.sqrt(d * np.mean(np.abs(dt) ** 2) / N_DRAWS)
    excess = cross - 5 * se - 1e-12 * np.abs(kk).max()
    assert excess.max() <= 0, f"residual correlated with t_u by {excess.max():.3g} past 5 SE"
