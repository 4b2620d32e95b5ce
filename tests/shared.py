"""What the tests share that is not a fixture: operators no kernel of the package
gives, reference factors and draws, `ROUTES`, the one table of factor routes, and
the loader of the repository's scripts as modules.

`sqrt_factor` forms L with L L^T = K by one of four routes: a RankK kernel's own
modes, certified pivots, the circulant embedding, or a dense `np.linalg.eigh`.
`ROUTES` has a row per route, the dense one twice (served a formed matrix, and
reached by fallback); each holds, by use, the operators the tests of that use build,
and test_covariance pins every one of them to its row's route.
"""

import dataclasses
import importlib.util
from pathlib import Path
from typing import NamedTuple

import numpy as np

from condfield import covariance as cv
from condfield.grid import inner, make_grid
from condfield.sampling import REAL


class MatrixKernel:
    """K = op / w for a given op, which no kernel of the package gives; exact
    where w is a power of two.  Its operator is factored by the dense eigh."""

    def __init__(self, op):
        self.op = op

    def rows(self, grid, idx):
        return self.op[idx] / grid.w

    def diagonal(self, grid):
        return np.diag(self.op) / grid.w


def as_matrix(cov):
    """cov's operator served as a formed matrix, which the dense eigh factors."""
    return cv.CovOperator(grid=cov.grid, kernel=MatrixKernel(cov.op))


def nonstationary(grid):
    """op = w K for K(x, y) = exp(-(x - y)^2 / (2 0.2^2)) (1 + x y), positive
    semidefinite as the Schur product of two such kernels; no kernel of the
    package gives it, so it is factored by the dense eigh."""
    x = grid.points
    k = np.exp(-np.subtract.outer(x, x) ** 2 / (2 * 0.2 ** 2)) * (1.0 + np.multiply.outer(x, x))
    return cv.CovOperator(grid=grid, kernel=MatrixKernel(grid.w * k))


@dataclasses.dataclass(frozen=True)
class WideGaussian(cv._Stationary):
    """A squared exponential that does not claim to be smooth, so that it skips the
    pivoted route; with ell = 0.5 on (0, 1) its embedding is far from positive."""

    name = "wide-gaussian"
    smooth = False
    decay = cv.SquaredExponential.decay


def eigh_factor(cov):
    """Reference dense-route factor: L = V_P sqrt(Lambda_P / w) over the
    eigenpairs of a dense eigh of op above eps * lam_max."""
    lam, vec = np.linalg.eigh(cov.op)
    n_cut = int(np.count_nonzero(lam <= np.finfo(float).eps * lam[-1]))
    kept = lam[n_cut:][::-1]
    modes = vec[:, n_cut:][:, ::-1] * np.sqrt(kept / cov.grid.w)
    return cv.SqrtFactor(cov=cov, modes=modes, eigenvalues=kept)


def adapted_split(factor, t, g, t_u, scalar):
    """Reference conditional draw in the adapted basis, on the grid: embed the
    P coefficients g as the white noise xi = V_P g / sqrt(w), replace its
    v-coefficient by t_u, phi_u = C^{1/2}(t_u v + xi_perp) with the symmetric
    root C^{1/2} and v = C^{1/2} T / sqrt(<T|C|T>), and return (values, r2)
    with r2 = ||xi_perp||^2."""
    grid = factor.grid
    # factor.modes = V_P sqrt(Lambda_P / w)
    xi = (factor.modes / np.sqrt(factor.eigenvalues)) @ g
    s_t = factor.s @ t.coeff
    v = s_t / np.sqrt(inner(s_t, s_t, grid).real)
    xi_perp = xi - inner(v, xi, grid) * v
    values = factor.s @ (t_u * v + xi_perp)
    return (values.real if scalar == REAL else values), float(inner(xi_perp, xi_perp, grid).real)


class ZeroStream:
    """Stand-in stream whose normals are all zero, so `white_noise` reads
    g = 0; a fixed-rho `sample_t_u` reads nothing else from it."""

    def standard_normal(self, shape):
        return np.zeros(shape)


def factor_route(cov):
    """sqrt_factor(cov) and the route it took: "embedding" for a CirculantFactor,
    "dense" where np.linalg.eigh ran, else "rankk" for a RankK kernel's own modes
    and "pivoted"."""
    eigh, ran = np.linalg.eigh, []
    np.linalg.eigh = lambda a: ran.append(1) or eigh(a)
    try:
        fac = cv.sqrt_factor(cov)
    finally:
        np.linalg.eigh = eigh
    if isinstance(fac, cv.CirculantFactor):
        return fac, "embedding"
    return fac, "dense" if ran else "rankk" if isinstance(cov.kernel, cv.RankK) else "pivoted"


class Route(NamedTuple):
    """A row of ROUTES: the route its factors take and, by use, the operators as
    (spec, M, rank) on M points of (0, 1).  A spec is a kernel spec, "matrix:" and one
    (its operator served as a formed matrix) or "nonstationary"; rank is None where the
    dense eigh's cut at eps * lam_max falls within roundoff of an eigenvalue."""

    route: str
    ops: dict


RANKK = "rankk:4@1,1@3,0.5@0"

# keyed by the route and, where its rows hold one kernel, that kernel.  At M = 16
# sqexp:1:0.2 needs more than M/2 = 8 pivots and its embedding is not positive, so it
# falls back to the dense eigh; at M = 32 sqexp:1:0.5 takes 12 pivots
ROUTES = {
    "pivoted-sqexp": Route("pivoted", {
        "unconditional": ("sqexp:1:0.5", 32, 12), "oracle": ("sqexp:1:0.2", 64, 21),
        "model": ("sqexp:1:0.2", 128, 21), "event": ("sqexp:2.5:0.25", 128, 18),
        "slope": ("sqexp:2:0.3", 128, 16), "prop1": ("sqexp:1:0.2", 512, 21)}),
    "embedding-exp": Route("embedding", {
        "unconditional": ("exp:1:0.1", 16, 30), "oracle": ("exp:1:0.1", 64, 128),
        "model": ("exp:1:0.1", 128, 256), "event": ("exp:1:0.1", 128, 256),
        "prop1": ("exp:1:0.1", 512, 1024)}),
    "rankk": Route("rankk", {
        "unconditional": (RANKK, 16, 3), "oracle": (RANKK, 64, 3), "model": (RANKK, 128, 3),
        "event": (RANKK, 128, 3)}),
    "dense": Route("dense", {
        "unconditional": ("nonstationary", 16, 16), "oracle": ("nonstationary", 64, None),
        "model": ("matrix:exp:1:0.1", 128, 128), "event": ("matrix:exp:1:0.1", 128, 128)}),
    "dense-fallback": Route("dense", {
        "unconditional": ("sqexp:1:0.2", 16, 16), "event": ("sqexp:1:0.2", 16, 16)}),
}


def routes_for(use):
    """The names of the ROUTES rows that hold an operator for `use`."""
    return [name for name, row in ROUTES.items() if use in row.ops]


def route_operator(route, use):
    """The operator of row `route` for `use`."""
    spec, m, _ = ROUTES[route].ops[use]
    grid = make_grid(0, 1, m)
    if spec == "nonstationary":
        return nonstationary(grid)
    if spec.startswith("matrix:"):
        return as_matrix(cv.assemble(cv.kernel_from_spec(spec.removeprefix("matrix:")), grid))
    return cv.assemble(cv.kernel_from_spec(spec), grid)


def load(path):
    """The file at `path` from the repository root as a module, run afresh: tools/byteid.py
    for its tables and runners, perfbench/spans.py for its tables without installing it."""
    path = Path(__file__).resolve().parent.parent / path
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
