import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condfield import covariance, errors
from condfield.covariance import (
    DEFAULT_CLIP_TOL,
    CirculantFactor,
    CovOperator,
    Exponential,
    RankK,
    SqrtFactor,
    SquaredExponential,
    assemble,
    kernel_from_spec,
    point_variance_max,
    sqrt_factor,
)
from condfield.concentration import distance_record, sweep, verify_prop1
from condfield.functionals import (
    constants,
    functional_from_spec,
    make_integral_functional,
    make_point_functional,
    profile,
)
from condfield.grid import Grid, inner, make_grid
from condfield.sampling import NOISE_BLOCK, REAL, ConditionSpec, sample_conditional, substream


@pytest.fixture
def grid64():
    return make_grid(0, 1, 64)


class MatrixKernel:
    """K = op / w for a given op, which no kernel of the package gives; exact
    where w is a power of two.  Its operator is factored by the dense eigh."""

    def __init__(self, op):
        self.op = op

    def rows(self, grid, idx):
        return self.op[idx] / grid.w

    def diagonal(self, grid):
        return np.diag(self.op) / grid.w


def _dense(cov):
    """cov's operator served as a formed matrix, which the dense eigh factors."""
    return CovOperator(grid=cov.grid, kernel=MatrixKernel(cov.op))


def test_sqexp_assemble_diagonal(grid64):
    cov = assemble(SquaredExponential(1, 0.2), grid64)
    assert np.allclose(np.diag(cov.op) / grid64.w, 1.0)
    assert np.allclose(np.diag(cov.op), 1.0 / 64)
    assert np.trace(cov.op) == pytest.approx(1.0)


def test_exponential_assemble(grid64):
    cov = assemble(Exponential(2, 0.5), grid64)
    x = grid64.points
    expected = 2 * np.exp(-np.abs(np.subtract.outer(x, x)) / 0.5)
    assert np.allclose(cov.op / grid64.w, expected)
    assert np.allclose(cov.op, cov.op.T)


def test_invalid_kernel_params():
    with pytest.raises(errors.InvalidKernelParams):
        SquaredExponential(-1, 0.2)
    with pytest.raises(errors.InvalidKernelParams):
        Exponential(1, 0.0)
    with pytest.raises(errors.InvalidKernelParams):
        RankK(((4.0, 1), (1.0, 1)))  # duplicate mode index


def test_rankk_single_mode_spectrum(grid64):
    # oracle: direct summation shows the cosine mode is exactly
    # quadrature-orthonormal, so the operator has one eigenvalue = 4
    cov = assemble(RankK(((4.0, 1),)), grid64)
    e1 = np.sqrt(2.0) * np.cos(np.pi * grid64.points)
    direct = grid64.w * sum(v * v for v in e1)
    assert direct == pytest.approx(1.0, abs=1e-13)
    lam = np.linalg.eigvalsh(cov.op)
    assert abs(lam[-1] - 4.0) < 1e-10
    assert np.all(np.abs(lam[:-1]) < 1e-10)


def test_rankk_ground_truth_eigenvalues():
    g = make_grid(0, 1, 128)
    cov = assemble(RankK(((4.0, 1), (1.0, 3))), g)
    lam = np.sort(np.linalg.eigvalsh(cov.op))[::-1]
    assert abs(lam[0] - 4.0) < 1e-8
    assert abs(lam[1] - 1.0) < 1e-8
    assert np.all(np.abs(lam[2:]) < 1e-10)


def test_sqrt_factor_spectral_mapping(grid64):
    cov = assemble(RankK(((4.0, 1),)), grid64)
    fac = sqrt_factor(cov)
    assert abs(fac.eigenvalues[0] - 4.0) < 1e-10
    lam_s = np.linalg.eigvalsh(fac.s)
    assert abs(lam_s[-1] - 2.0) < 1e-8


def test_sqrt_factor_residual():
    g = make_grid(0, 1, 128)
    cov = assemble(SquaredExponential(1, 0.2), g)
    fac = sqrt_factor(cov)
    resid = np.linalg.norm(fac.s @ fac.s - cov.op) / np.linalg.norm(cov.op)
    assert resid <= 1e-10
    assert np.allclose(fac.s, fac.s.T, rtol=1e-12, atol=1e-15)
    assert np.all(fac.eigenvalues >= 0)
    assert np.all(np.diff(fac.eigenvalues) <= 0)


def test_sqrt_factor_rejects_negative_eigenvalue(grid64):
    cov = assemble(SquaredExponential(1, 0.2), grid64)
    bad = cov.op - 0.1 * np.eye(grid64.m)
    bad_cov = CovOperator(grid=grid64, kernel=MatrixKernel(bad))
    with pytest.raises(errors.NotPositive):
        sqrt_factor(bad_cov)


def test_point_variance_max(grid64):
    assert point_variance_max(assemble(SquaredExponential(1, 0.2), grid64)) == 1.0
    assert point_variance_max(assemble(Exponential(3, 0.5), grid64)) == 3.0
    cov = assemble(RankK(((1.0, 0), (1.0, 1))), grid64)
    # oracle: direct evaluation of 1 + 2 cos^2(pi x) over the grid
    expected = max(1.0 + 2.0 * np.cos(np.pi * x) ** 2 for x in grid64.points)
    assert point_variance_max(cov) == pytest.approx(expected, rel=1e-12)


def test_apply_eigenvector(grid64):
    cov = assemble(RankK(((4.0, 1),)), grid64)
    e1 = np.sqrt(2.0) * np.cos(np.pi * grid64.points)
    assert np.allclose(cov.apply(e1), 4.0 * e1, atol=1e-10)
    assert np.allclose(cov.apply(np.zeros(64)), 0.0)


def test_apply_linearity(grid64):
    cov = assemble(SquaredExponential(1, 0.2), grid64)
    rng = np.random.default_rng(11)
    phi, psi = rng.normal(size=64), rng.normal(size=64)
    lhs = cov.apply(2.5 * phi + psi)
    rhs = 2.5 * cov.apply(phi) + cov.apply(psi)
    assert np.allclose(lhs, rhs, rtol=1e-12)


def test_self_adjoint_and_psd(grid64):
    cov = assemble(SquaredExponential(1, 0.2), grid64)
    rng = np.random.default_rng(12)
    for _ in range(10):
        phi = rng.normal(size=64) + 1j * rng.normal(size=64)
        psi = rng.normal(size=64) + 1j * rng.normal(size=64)
        a = inner(psi, cov.apply(phi), grid64)
        b = inner(phi, cov.apply(psi), grid64)
        assert a == pytest.approx(np.conj(b), rel=1e-10)
        quad = inner(phi, cov.apply(phi), grid64)
        assert quad.real >= -1e-10 * np.vdot(phi, phi).real


def test_sqrt_applied_twice_matches_operator(grid64):
    cov = assemble(SquaredExponential(1, 0.2), grid64)
    fac = sqrt_factor(cov)
    rng = np.random.default_rng(13)
    for _ in range(5):
        phi = rng.normal(size=64)
        twice = fac.s @ (fac.s @ phi)
        direct = cov.apply(phi)
        assert np.linalg.norm(twice - direct) <= 1e-9 * np.linalg.norm(direct)


def test_kernel_from_spec():
    assert kernel_from_spec("sqexp:1:0.2") == SquaredExponential(1.0, 0.2)
    assert kernel_from_spec("exp:2:0.5") == Exponential(2.0, 0.5)
    assert kernel_from_spec("rankk:4@1,1@3") == RankK(((4.0, 1), (1.0, 3)))
    with pytest.raises(errors.ConfigError):
        kernel_from_spec("matern:1:0.2")
    with pytest.raises(errors.ConfigError):
        kernel_from_spec("sqexp:oops:0.2")


def test_no_matrix_is_held_until_op_is_read():
    # no field of the operator or of its factor is M x M, and the pivoted
    # factor does not form op; op is formed once, on its first read
    g = make_grid(0, 1, 128)
    cov = assemble(SquaredExponential(1, 0.2), g)
    fac = sqrt_factor(cov)
    square = [f.name for obj in (cov, fac) for f in dataclasses.fields(obj)
              if isinstance(getattr(obj, f.name), np.ndarray)
              and getattr(obj, f.name).shape == (128, 128)]
    assert square == [] and "op" not in vars(cov) and fac.cov is cov
    assert cov.op is cov.op and cov.op.shape == (128, 128)


@pytest.mark.parametrize("kernel", [SquaredExponential(3, 0.2), Exponential(2.5, 0.3),
                                    RankK(((1.0, 0), (2.5, 1)))], ids=repr)
@pytest.mark.parametrize("m", [64, 100, 200, 333])
def test_point_variance_max_within_one_ulp(kernel, m):
    grid = make_grid(0, 1, m)
    exact = float(np.max(np.diag(kernel.rows(grid, slice(None)))))
    got = point_variance_max(assemble(kernel, grid))
    assert abs(got - exact) <= np.spacing(exact)
    if m == 64:  # w = 1/64, a power of two, so op / w undoes w * K exactly
        assert got == exact


@pytest.mark.parametrize("kernel, rank", [
    (SquaredExponential(1, 0.2), 21),
    (Exponential(1, 0.1), 128),
    (RankK(((4.0, 1), (1.0, 3), (0.5, 0))), None),
], ids=repr)
def test_factor_keeps_the_modes_the_clip_leaves(kernel, rank):
    # P = M - n_clipped modes above eps * lam_max, and L L^T w is the operator:
    # the same matrix as the symmetric root squared, within criterion 1's 1e-10;
    # exp's op, served as a matrix, takes the dense route
    g = make_grid(0, 1, 128)
    cov = assemble(kernel, g) if kernel.smooth else _dense(assemble(kernel, g))
    fac = sqrt_factor(cov)
    assert fac.rank == g.m - fac.n_clipped == (rank or fac.rank)
    assert fac.rank >= len(getattr(kernel, "modes", ()))
    assert fac.modes.shape == (g.m, fac.rank)
    assert fac.eigenvalues.shape == (fac.rank,) and np.all(fac.eigenvalues > 0)
    llt = fac.modes @ fac.modes.T * g.w
    scale = np.linalg.norm(cov.op)
    assert np.linalg.norm(llt - cov.op) <= 1e-10 * scale
    assert np.linalg.norm(llt - fac.s @ fac.s) <= 1e-10 * scale


def test_factor_stores_one_m_by_p_array():
    g = make_grid(0, 1, 128)
    fac = sqrt_factor(assemble(SquaredExponential(1, 0.2), g))
    shapes = {f.name: np.shape(getattr(fac, f.name)) for f in dataclasses.fields(fac)
              if isinstance(getattr(fac, f.name), np.ndarray)}
    assert shapes == {"modes": (128, 21), "eigenvalues": (21,)}
    assert "s" not in vars(fac)  # the symmetric root is formed only when read


@pytest.mark.parametrize("kernel, m, rank, ritz", [
    (SquaredExponential(1, 0.2), 128, 21, True),
    (SquaredExponential(1, 0.05), 512, None, True),
    (Exponential(1, 0.1), 128, 128, False),  # full rank: no eigenvalue is at roundoff level
    (RankK(((4.0, 1), (1.0, 3), (0.5, 0))), 100, 3, True),  # exact: the kernel's own rank
], ids=repr)
def test_factor_cuts_at_eps_times_the_largest_eigenvalue(kernel, m, rank, ritz):
    # every dropped eigenvalue of op is <= eps * lam_max, every kept one above
    # it; on the pivoted route both hold to within ||E||_2 <= M max|E|, with
    # E = op - w L L^T, whose own eigenvalues are the kept ones and zeros (Weyl);
    # exp's op, served as a matrix, takes the dense route
    g = make_grid(0, 1, m)
    cov = assemble(kernel, g) if ritz else _dense(assemble(kernel, g))
    fac = sqrt_factor(cov)
    lam = np.linalg.eigh(cov.op)[0][::-1]
    cut = np.finfo(float).eps * lam[0]
    assert fac.rank == (rank or fac.rank)
    assert (covariance._pivoted_pairs(cov.op) is not None) == ritz
    if ritz:
        weyl = m * np.max(np.abs(cov.op - g.w * fac.modes @ fac.modes.T))
        assert np.all(np.abs(fac.eigenvalues[:fac.rank] - lam[:fac.rank]) <= weyl)
    else:
        weyl = 0.0
        assert np.array_equal(fac.eigenvalues[:fac.rank], lam[:fac.rank])
    assert np.all(fac.eigenvalues[:fac.rank] > np.finfo(float).eps * fac.eigenvalues[0])
    assert np.all(lam[:fac.rank] > cut - weyl) and np.all(lam[fac.rank:] <= cut + weyl)
    assert fac.eigenvalues.shape == (fac.rank,)  # only the kept ones


RITZ_SPECS = ("sqexp:1:0.2", "sqexp:3:0.5", "sqexp:1e-300:0.2", "rankk:4@1,1@3,0.5@0", "rankk:1@0")


@pytest.mark.parametrize("spec, m", [(spec, m) for spec in RITZ_SPECS for m in (100, 128, 512, 2048)]
                         + [("sqexp:1:0.05", 512), ("sqexp:1:0.05", 2048),
                            ("sqexp:1:0.01", 2048)])  # P = 267
def test_ritz_factor_meets_its_certificate(spec, m):
    # these factors are within DEFAULT_CLIP_TOL * lam_max / M of op entrywise,
    # so ||op - w L L^T||_2 is in the NotPositive window, as the randomized
    # certificate claims, and they come from at most M/2 pivots
    cov = assemble(kernel_from_spec(spec), make_grid(0, 1, m))
    assert covariance._pivoted_pairs(cov.op) is not None
    fac = sqrt_factor(cov)
    resid = cov.op - cov.grid.w * fac.modes @ fac.modes.T
    assert m * np.max(np.abs(resid)) <= DEFAULT_CLIP_TOL * fac.eigenvalues[0]
    assert fac.rank <= m // 2


@pytest.mark.parametrize("kernel", [Exponential(1, 0.1), SquaredExponential(1, 0.002)], ids=repr)
def test_dense_route_factor_is_the_eigh_factor(kernel, eigh_factor):
    # an operator served as a matrix is factored by a dense eigh, whatever kernel it
    # came from: bitwise the reference factor
    cov = _dense(assemble(kernel, make_grid(0, 1, 128)))
    fac, ref = sqrt_factor(cov), eigh_factor(cov)
    assert fac.rank == 128
    assert fac.modes.tobytes() == ref.modes.tobytes()
    assert fac.eigenvalues.tobytes() == ref.eigenvalues.tobytes()


def test_shifted_smooth_kernel_is_not_positive():
    # a smooth kernel's op shifted by -1e-9 lam_max, or given +1e-9 lam_max at
    # (10, 100) and (100, 10) with its diagonal unchanged (smallest eigenvalue
    # -8.9e-10 lam_max, which a certificate that reads only the residual
    # diagonal would miss), fails the pivoted certificate, and the dense eigh, which
    # a MatrixKernel's operator always takes, rejects it
    g = make_grid(0, 1, 128)
    cov = assemble(SquaredExponential(1, 0.2), g)
    lam_max = np.linalg.eigvalsh(cov.op)[-1]
    bump = np.zeros((g.m, g.m))
    bump[10, 100] = bump[100, 10] = 1e-9 * lam_max
    for op in (cov.op - 1e-9 * lam_max * np.eye(g.m), cov.op + bump):
        assert np.linalg.eigvalsh(op)[0] < -DEFAULT_CLIP_TOL * lam_max
        assert covariance._pivoted_pairs(op) is None
        with pytest.raises(errors.NotPositive):
            sqrt_factor(CovOperator(grid=g, kernel=MatrixKernel(op)))


@pytest.mark.filterwarnings("error")
def test_pivoted_certificate_does_not_depend_on_the_scale():
    # the verdict on s op is the verdict on op, for the smooth op and the two that are
    # not positive, at scales where the residual products would square past the double
    # range; at M = 2048 a kernel scaled to 1e300 takes the pivoted route with the rank
    # it has at scale 1, warning-free
    g = make_grid(0, 1, 128)
    op = assemble(SquaredExponential(1, 0.2), g).op
    lam_max = np.linalg.eigvalsh(op)[-1]
    bump = np.zeros((g.m, g.m))
    bump[10, 100] = bump[100, 10] = 1e-9 * lam_max
    for op in (op, op - 1e-9 * lam_max * np.eye(g.m), op + bump):
        verdict = covariance._pivoted_pairs(op) is not None
        for s in (1e-307, 1e-300, 1e-160, 1e150, 1e300, 1e307):
            assert (covariance._pivoted_pairs(s * op) is not None) == verdict, s
    g = make_grid(0, 1, 2048)

    def certify(cov):  # a stationary operator as served, a RankK one formed
        return covariance._pivoted_pairs(
            cov if isinstance(cov.kernel, covariance._Stationary) else cov.op)

    for spec, rank in (("sqexp:1e300:0.2", 21), ("rankk:1e300@1", 1)):
        cov = assemble(kernel_from_spec(spec), g)
        lam, _ = certify(cov)
        assert len(lam) == rank and sqrt_factor(cov).rank == rank, spec
    # at 1e307 the FFT and matrix products of op pass the double range unless the
    # probes are scaled; the factor of K = op / w does, and is rejected
    for spec, rank in (("sqexp:1e307:0.2", 21), ("rankk:1e307@1", 1)):
        cov = assemble(kernel_from_spec(spec), g)
        lam, _ = certify(cov)
        assert len(lam) == rank, spec
        with pytest.raises(errors.InvalidKernelParams, match="not finite"):
            sqrt_factor(cov)
    # at 1e-307 the probes are not scaled up, so no product passes the double range
    # there either: the certificate runs warning-free at M = 2048, and at M = 256 (where
    # the dense eigh that sqexp falls back to is cheap) the factor is finite; op's
    # entries are subnormal far from the diagonal, so sqexp's rank is not that at scale 1
    for spec in ("sqexp:1e-307:0.2", "rankk:1e-307@1"):
        certify(assemble(kernel_from_spec(spec), g))
        cov = assemble(kernel_from_spec(spec), make_grid(0, 1, 256))
        assert np.all(np.isfinite(sqrt_factor(cov).modes)), spec


def test_pivoted_factor_peak_memory_is_an_eighth_of_one_operator():
    # the pivoted route reads op only by its diagonal and single rows, and holds
    # O(M (P + r)) beyond it: no M x M or M/2 x M temporary
    g = make_grid(0, 1, 2048)
    cov = assemble(SquaredExponential(1, 0.2), g)
    tracemalloc.start()
    try:
        fac = sqrt_factor(cov)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fac.rank == 21
    assert peak <= g.m * g.m * 8 / 8


def test_zero_operator_has_rank_zero():
    # the largest diagonal is 0: no pivot is taken, and the dense eigh cuts every mode
    g = make_grid(0, 1, 64)
    fac = sqrt_factor(CovOperator(grid=g, kernel=MatrixKernel(np.zeros((64, 64)))))
    assert fac.rank == 0 and fac.modes.shape == (64, 0) and fac.eigenvalues.shape == (0,)


def test_assemble_rejects_an_operator_that_is_not_finite():
    # finite kernel values whose product with w = h = 2.5e9 overflows: a named error,
    # and no overflow warning (an error under the suite's RuntimeWarning filter)
    with pytest.raises(errors.InvalidKernelParams, match="not finite"):
        assemble(Exponential(1e308, 0.2), make_grid(0, 1e10, 4))


@pytest.mark.parametrize("m", [128, 512, 2048])
def test_cut_keeps_the_profile_direction(m):
    # the unit vectors of L (w L^T T) and of p = C T agree to 16 eps: dropping
    # the modes at or below eps * lam_max does not move the profile direction
    g = make_grid(0, 1, m)
    cov = assemble(SquaredExponential(1, 0.2), g)
    fac = sqrt_factor(cov)
    for t in (make_point_functional(g, 0.5), make_integral_functional(g, "cosine")):
        q = fac.apply(g.w * (fac.modes.T @ t.coeff))
        p = profile(t, cov)
        err = np.max(np.abs(q / np.linalg.norm(q) - p / np.linalg.norm(p)))
        assert err <= 16 * np.finfo(float).eps


def test_factor_apply_reads_p_coefficients():
    g = make_grid(0, 1, 128)
    fac = sqrt_factor(assemble(SquaredExponential(1, 0.2), g))
    p = fac.rank
    for bad in (np.ones(g.m), np.ones((4, g.m)), np.ones((2, 2, p)), np.ones(())):
        with pytest.raises(errors.LengthMismatch):
            fac.apply(bad)
    rng = np.random.default_rng(14)
    block = rng.normal(size=(5, p)) + 1j * rng.normal(size=(5, p))
    psi = rng.normal(size=g.m)
    for rows in (block.real, block):
        got = fac.apply(rows)
        for row, want in zip(got, rows):
            assert np.allclose(row, fac.modes @ want, rtol=0, atol=1e-13)
            assert np.allclose(fac.apply(want), fac.modes @ want, rtol=0, atol=1e-13)
            # w L^T is the adjoint of L under the weighted inner product
            assert np.vdot(g.w * fac.modes.T @ psi, want) == pytest.approx(inner(psi, row, g),
                                                                          rel=1e-12)


@pytest.mark.parametrize("spec", ["sqexp:1:0.2", "exp:1:0.1", "rankk:4@1,1@3,0.5@0"])
def test_adjoint_is_the_transpose_of_apply(spec):
    # <phi|L g> = <w L^T phi|g> for real phi, within the roundoff of two sums
    # of M P products, each at most w |phi|^T |L| |g|; exp's op, served as a
    # matrix, takes the dense route
    g = make_grid(0, 1, 128)
    cov = assemble(kernel_from_spec(spec), g)
    fac = sqrt_factor(cov if cov.kernel.smooth else _dense(cov))
    rng = np.random.default_rng(18)
    phi = rng.normal(size=g.m)
    for coeff in (rng.normal(size=fac.rank), [1, 1j] @ rng.normal(size=(2, fac.rank))):
        scale = g.w * np.abs(phi) @ np.abs(fac.modes) @ np.abs(coeff)
        err = abs(inner(phi, fac.apply(coeff), g) - np.vdot(fac.adjoint(phi), coeff))
        assert err <= 4 * (g.m + fac.rank) * np.finfo(float).eps * scale


ROW_KERNELS = ["sqexp:1:0.2", "sqexp:2.5:0.03", "exp:1:0.1", "rankk:4@1,1@3,0.5@0"]


@pytest.mark.parametrize("spec", ROW_KERNELS)
@pytest.mark.parametrize("a, b, m", [(0, 1, 128), (-0.3, 2.7, 97), (0, 1, 512), (-0.3, 2.7, 68)])
def test_served_rows_are_bitwise_the_rows_of_op(spec, a, b, m):
    # every kernel's K is exactly symmetric, so w K row by row from the kernel
    # is op row by row, and the pivoted route reads the same numbers
    # from a stationary operator as from its formed matrix.  A stationary operator
    # serves them from its lag row (N = 135 at M = 68, odd), so a wide and a stencil
    # functional's products match the kernel's rows in apply's row blocks bitwise
    g = make_grid(a, b, m)
    kernel = kernel_from_spec(spec)
    kmat = kernel.rows(g, slice(None))
    cov, served = assemble(kernel, g), assemble(kernel, g)
    assert kmat.tobytes() == kmat.T.tobytes()
    assert cov.op.tobytes() == (g.w * kmat).tobytes()
    assert served.shape == cov.op.shape
    assert served.diagonal().tobytes() == np.diag(cov.op).tobytes()
    for i in (0, 1, m // 2, m - 1):
        assert served[i].tobytes() == cov.op[i].tobytes()
    for lo, hi in ((0, 64), (max(m - 70, 0), m - 6), (m - 7, m), (10, 11)):
        assert served[lo:hi].tobytes() == cov.op[lo:hi].tobytes()
    if isinstance(kernel, covariance._Stationary):
        got, ref = covariance._pivoted_pairs(served), covariance._pivoted_pairs(cov.op)
        assert (got is None) == (ref is None)
        for x, y in zip(got or (), ref or ()):
            assert x.tobytes() == y.tobytes()
    for text in ("integral:cosine", "dpoint:0.5:2:4"):
        t = functional_from_spec(text, g)
        support = np.flatnonzero(t.coeff)
        want = np.zeros(m)
        for lo in range(support[0], support[-1] + 1, covariance._BLOCK_ROWS):
            blk = slice(lo, min(lo + covariance._BLOCK_ROWS, support[-1] + 1))
            k = kernel.rows(g, blk)
            want += t.coeff[blk] @ (g.w * (0.5 * (k + k)))
        assert served.apply(t.coeff).tobytes() == want.tobytes(), text
    assert "op" not in vars(served)


@pytest.mark.parametrize("spec, a, m, route", [("sqexp:1:0.2", 0.0, 512, SqrtFactor),
                                               ("exp:1:0.1", 0.0, 128, CirculantFactor),
                                               ("sqexp:1:0.2", 1e6, 500, SqrtFactor)])
def test_one_operator_evaluates_its_kernel_once(monkeypatch, spec, a, m, route):
    # a stationary operator's rows, diagonal and embedding all read one lag row, so
    # assembling, factoring (pivot rows, certificate or embedding) and the constants of
    # a point and a wide functional call decay once
    kernel = kernel_from_spec(spec)
    decay, calls = type(kernel).decay, []
    monkeypatch.setattr(type(kernel), "decay", lambda self, d: calls.append(1) or decay(self, d))
    g = make_grid(a, a + 1, m)
    cov = assemble(kernel, g)
    assert isinstance(sqrt_factor(cov), route)
    for t in (make_point_functional(g, a + 0.5), make_integral_functional(g, "cosine")):
        constants(t, cov)
    assert len(calls) == 1


@pytest.mark.parametrize("spec", ["sqexp:1:0.2", "rankk:4@1,1@3,0.5@0"])
def test_smooth_paths_never_form_op(monkeypatch, spec):
    # the factor, the constants, the profile, prop1 and a sweep read a smooth
    # kernel's operator only by rows and its diagonal, at M = 64 too, where
    # sqexp:1:0.2 needs 21 of the at most 32 pivots, and on (a, a + 1) far from 0
    def refuse(cov):
        raise AssertionError("the M x M operator was formed")

    monkeypatch.setattr(CovOperator, "op", property(refuse))
    for a, m in ((0, 64), (0, 128), (1e3, 500), (1e4, 2000)):
        g = make_grid(a, a + 1, m)
        t = make_point_functional(g, a + 0.5)
        cov = assemble(kernel_from_spec(spec), g)
        fac = sqrt_factor(cov)
        assert constants(t, cov).tct > 0 and profile(t, cov).shape == (m,)
        assert verify_prop1(t, cov, 1000)["all_finite"]
        assert len(sweep(fac, t, cov, [10.0, 100.0], 20).records) == 40


@pytest.mark.parametrize("domain", [(0.0, 1.0), (-0.3, 2.7), (1e3, 1e3 + 1), (1e6, 1e6 + 1)])
@pytest.mark.parametrize("kind", ["sqexp", "rankk"])
@settings(max_examples=10, deadline=None, derandomize=True)
@given(scale=st.floats(1e-3, 1e3), ell=st.floats(0.03, 1.0),
       modes=st.lists(st.tuples(st.floats(1e-3, 1e3), st.integers(0, 40)), min_size=1,
                      max_size=5, unique_by=lambda md: md[1]),  # k < M
       m=st.sampled_from([64, 100, 128, 250, 256, 512, 777, 1024]))
def test_pivoted_certificate_is_sound_and_deterministic(kind, domain, scale, ell, modes, m):
    # wherever the randomized certificate accepts, served by a stationary kernel
    # (FFT) or by the formed matrix, ||op - w L L^T||_2 is inside the window;
    # the probes are fixed, so a second call gives the same bits.  The
    # 2-norm is bounded by that of E's symmetric part plus the Frobenius norm
    # of its skew part (roundoff of the product)
    g = make_grid(*domain, m)
    kernel = SquaredExponential(scale, ell * g.length) if kind == "sqexp" else RankK(tuple(modes))
    cov = assemble(kernel, g)
    lam_max = np.linalg.eigvalsh(cov.op)[-1]
    for op in (cov, cov.op) if kind == "sqexp" else (cov.op,):
        got, again = covariance._pivoted_pairs(op), covariance._pivoted_pairs(op)
        assert (got is None) == (again is None)
        for x, y in zip(got or (), again or ()):
            assert x.tobytes() == y.tobytes()
        if got is not None:
            lam, vec = got
            e = cov.op - (vec * lam) @ vec.T
            norm = np.abs(np.linalg.eigvalsh(e + e.T)).max() / 2 + np.linalg.norm(e - e.T) / 2
            assert norm <= DEFAULT_CLIP_TOL * lam_max


@pytest.mark.parametrize("spec", ["rankk:4@1,1@3,0.5@0", "rankk:1@2,0.3@7,2.5@30,0.01@60"])
@pytest.mark.parametrize("a, b, m", [(0, 1, 68), (-0.3, 2.7, 97), (0, 1, 128), (0, 1, 2048)])
def test_rankk_factor_is_the_pivoted_factor_up_to_sign(spec, a, b, m):
    # RankK's own pairs (lam_k, sqrt(w) e_k), read off its factor, against the certified
    # pivoted pairs of its formed op.  With S = V Lambda V^T and E = S - V' Lambda' V'^T,
    # ||E||_2 <= ||op - S||_F + DEFAULT_CLIP_TOL * lam_max (the certificate), so each
    # eigenvalue moves by at most ||E||_2 (Weyl) and each unit eigenvector, sign-aligned,
    # by at most 2^(3/2) ||E||_2 / gap_k (Davis-Kahan; Yu, Wang & Samworth 2015,
    # Biometrika 102:315, Cor. 1), gap_k the distance from lam_k to the rest of S's
    # spectrum, zero included.  V is orthonormal to roundoff, far inside that bound.
    g = make_grid(a, b, m)
    cov = assemble(kernel_from_spec(spec), g)
    fac = sqrt_factor(cov)
    lam, vec = fac.eigenvalues, fac.modes / np.sqrt(fac.eigenvalues / g.w)
    ref_lam, ref_vec = covariance._pivoted_pairs(cov.op)
    assert fac.rank == ref_lam.size == len(cov.kernel.modes)
    assert np.abs(vec.T @ vec - np.eye(fac.rank)).max() <= m * np.finfo(float).eps
    e_norm = np.linalg.norm(cov.op - (vec * lam) @ vec.T) + DEFAULT_CLIP_TOL * lam[0]
    assert np.all(np.abs(lam - ref_lam) <= e_norm)
    spectrum = np.append(lam, 0.0)
    gap = [np.abs(np.delete(spectrum, k) - lam[k]).min() for k in range(fac.rank)]
    sign = np.sign(np.sum(vec * ref_vec, axis=0))
    assert np.all(np.linalg.norm(vec - sign * ref_vec, axis=0) <= 2 ** 1.5 * e_norm / gap)


def test_rankk_factor_is_its_modes_with_the_kernel_rank(monkeypatch):
    # the columns are sqrt(lam_k) e_k, lam descending and ties in the spec's order, with
    # no pivots, no eigh and no formed op; 40 equal modes keep rank 40 (the dense eigh
    # kept 44 at M = 64, four at roundoff level)
    def refuse(*args):
        raise AssertionError("a RankK factor was computed numerically")

    monkeypatch.setattr(covariance, "_pivoted_pairs", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(CovOperator, "op", property(refuse))
    g = make_grid(0, 1, 64)
    fac = sqrt_factor(assemble(RankK(((1.0, 5), (2.0, 1), (1.0, 3))), g))
    e = [np.sqrt(2) * np.cos(k * np.pi * g.points) for k in (1, 5, 3)]
    want = np.column_stack(e) * np.sqrt([2.0, 1.0, 1.0])
    assert np.array_equal(fac.eigenvalues, [2.0, 1.0, 1.0])
    assert np.abs(fac.modes - want).max() <= 8 * np.finfo(float).eps
    for m in (64, 68):
        spec = "rankk:" + ",".join(f"1@{k}" for k in range(40))
        fac = sqrt_factor(assemble(kernel_from_spec(spec), make_grid(0, 1, m)))
        assert fac.rank == 40 and np.array_equal(fac.eigenvalues, np.ones(40))


def test_apply_whose_terms_overflow_is_formed_from_phi_scaled_down():
    # C T of dpoint:0.5:2:4 on sqexp:1e306:0.2 is about 2.5e307: its stencil's terms
    # overflow, and phi scaled by a power of two gives 1e306 times the scale-1 sum,
    # within the roundoff of the kernel values and of the sum, with no warning
    g = make_grid(0, 1, 256)
    t = functional_from_spec("dpoint:0.5:2:4", g)
    got = assemble(SquaredExponential(1e306, 0.2), g).apply(t.coeff)
    unit = assemble(SquaredExponential(1, 0.2), g)
    scale = np.abs(t.coeff) @ np.abs(unit.op)
    assert np.all(np.isfinite(got)) and np.abs(got).max() > 1e307
    assert np.all(np.abs(got / 1e306 - unit.apply(t.coeff)) <= 8 * np.finfo(float).eps * scale)


@pytest.mark.parametrize("spec, a, b, m", [
    ("sqexp:1:0.2", 0, 1, 512), ("sqexp:1:0.2", 0, 1, 500), ("sqexp:1:0.2", -0.3, 2.7, 97),
    ("sqexp:1:0.2", 10, 11, 500), ("sqexp:1:0.2", 1e3, 1e3 + 1, 500),
    ("sqexp:2.5:0.03", 1e6, 1e6 + 1, 500), ("sqexp:1:0.002", 0, 1, 1000),
    ("sqexp:1:0.002", -0.3, 2.7, 700), ("sqexp:1e-300:0.2", 0, 1, 100),
    ("exp:1:0.1", -0.3, 2.7, 97), ("exp:1:0.1", 1e6, 1e6 + 1, 500),
])
def test_stationary_op_is_toeplitz(spec, a, b, m):
    # K_ij = C((i - j) h) from the index lag, so on every grid, near 0 or not, each
    # row is row 0 read at |i - j| bitwise, and the certificate's FFT applies op itself
    cov = assemble(kernel_from_spec(spec), make_grid(a, b, m))
    for i in (1, m // 3, m // 2, m - 1):
        assert cov[i].tobytes() == cov[0][np.abs(i - np.arange(m))].tobytes()
    assert cov.op.tobytes() == cov.op.T.tobytes()
    x = np.random.default_rng(24).standard_normal((m, 3))
    err = np.abs(covariance._matvec(cov, x) - cov.op @ x).max()
    assert err <= m * np.finfo(float).eps * (np.abs(cov.op) @ np.abs(x)).max()


@pytest.mark.parametrize("spec", ["sqexp:1:0.2", "exp:1:0.1"])
@pytest.mark.parametrize("m", [64, 128, 512, 2048])
def test_lag_rows_are_unchanged_on_dyadic_grids(spec, m):
    # on (0, 1) with M a power of two the points and their differences are exact, so
    # C((i - j) h) is C(x_i - x_j) bitwise: the operator of every such grid is unchanged
    g = make_grid(0, 1, m)
    kernel = kernel_from_spec(spec)
    for idx in (0, m // 2, m - 1, slice(None)):
        assert kernel.rows(g, idx).tobytes() == kernel.pair(g.points[idx], g.points).tobytes()


@pytest.mark.parametrize("spec, m", [("sqexp:1:0.004", 2048), ("sqexp:1:0.004", 1700),
                                     ("sqexp:1:0.005", 1200)])
def test_short_correlation_kernel_takes_the_pivoted_route(spec, m):
    # ell of a few h on (0, 1), hundreds of pivots, lam_max ~ variance ell sqrt(2 pi): the
    # certificate accepts, and the factor it accepts is inside the window
    cov = assemble(kernel_from_spec(spec), make_grid(0, 1, m))
    pairs = covariance._pivoted_pairs(cov)
    assert pairs is not None
    lam, vec = pairs
    e = cov.op - (vec * lam) @ vec.T
    norm = np.abs(np.linalg.eigvalsh(e + e.T)).max() / 2 + np.linalg.norm(e - e.T) / 2
    assert norm <= DEFAULT_CLIP_TOL * lam[0]


def _smooth_build_peak(m):
    """tracemalloc peak of assemble, the factor and point constants of sqexp:1:0.2 on
    M points of (0, 1), and the factor's rank."""
    g = make_grid(0, 1, m)
    tracemalloc.start()
    try:
        cov = assemble(SquaredExponential(1, 0.2), g)
        fac = sqrt_factor(cov)
        constants(make_point_functional(g, 0.5), cov)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, fac.rank


def test_smooth_model_build_memory_is_linear_in_m():
    # the build's peak is at the certificate's FFT.  It holds V^T (P rows of M
    # doubles), the r probes, two of the FFT's 2M x r buffers (4r rows), and
    # kernel row 0, its spectrum and the residual diagonal (5 rows): P + 5r + 5
    # rows of 8 M bytes, at most 3 (P + r) rows where P >= r + 3 (P = 21 and
    # r = 10 here), against 8 M^2 = 134 MB for op at M = 4096
    peak, rank = _smooth_build_peak(4096)
    assert rank == 21
    assert peak <= 3 * 8 * 4096 * (rank + covariance._PROBES)


def test_smooth_model_build_at_m_65536_is_linear_in_m():
    # the same bound at M = 65,536, where op would be 34 GB: the certificate
    # reads no kernel row beyond row 0 and the pivot rows
    peak, rank = _smooth_build_peak(65536)
    assert rank == 21
    assert peak <= 3 * 8 * 65536 * (rank + covariance._PROBES)


def _is_5_smooth(n):
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
    return n == 1


@pytest.mark.parametrize("a, b", [(0, 1), (-0.3, 2.7)])
@pytest.mark.parametrize("m", [1, 2, 3, 97, 128, 500])
def test_circulant_factor_reproduces_the_operator(a, b, m):
    # exp takes the embedding of size N, the smallest 2^a 3^b 5^c >= 2 (M - 1), and L,
    # formed by applying the factor to the identity, has L L^T = K.  Each entry of
    # L L^T sums N products with sum_k |L_ik L_jk| <= 2 sum_k s_k^2 = 2 K_00 (|cas| <=
    # sqrt 2, sum_k s_k^2 = c_0 / w), so the sum's roundoff is at most 2 N eps max K,
    # and L's own, from the FFTs and the square root (O(eps log N) relative), less
    # make_grid refuses M = 1, the embedding's N = 1 corner: the one-point midpoint grid
    g = make_grid(a, b, m) if m > 1 else Grid(a, b, 1, np.array([(a + b) / 2]), b - a)
    cov = assemble(Exponential(1, 0.1), g)
    fac = sqrt_factor(cov)
    n = fac.rank
    assert isinstance(fac, CirculantFactor) and fac.n_clipped == 0
    assert n == min(k for k in range(max(2 * (m - 1), 1), 4 * m) if _is_5_smooth(k))
    lmat = fac.apply(np.eye(n)).T
    assert lmat.shape == (m, n)
    k = cov[:] / g.w
    assert np.abs(lmat @ lmat.T - k).max() <= 4 * n * np.finfo(float).eps * k.max()


@pytest.mark.parametrize("spec", ["exp:1:0.1", "exp:3:2", "sqexp:1:0.002"])
@pytest.mark.parametrize("a, b, m", [(0, 1, 128), (-0.3, 2.7, 97), (0, 1, 500)])
def test_circulant_adjoint_is_the_transpose_of_apply(spec, a, b, m):
    # <phi|L g> = <w L^T phi|g> for real phi.  Both sides are at most
    # w ||phi|| ||L||_F ||g||, where ||L||_F^2 = trace K as L L^T = K, and each
    # carries the roundoff of an FFT and of a sum of M or N products
    g = make_grid(a, b, m)
    cov = assemble(kernel_from_spec(spec), g)
    fac = sqrt_factor(cov)
    assert isinstance(fac, CirculantFactor)
    rng = np.random.default_rng(18)
    phi = rng.normal(size=g.m)
    norm_l = np.sqrt(cov.diagonal().sum() / g.w)
    for coeff in (rng.normal(size=fac.rank), [1, 1j] @ rng.normal(size=(2, fac.rank))):
        scale = g.w * np.linalg.norm(phi) * norm_l * np.linalg.norm(coeff)
        err = abs(inner(phi, fac.apply(coeff), g) - np.vdot(fac.adjoint(phi), coeff))
        assert err <= 4 * (g.m + fac.rank) * np.finfo(float).eps * scale


def test_circulant_rows_do_not_depend_on_the_block():
    # on every route (pivoted, rank-k, embedding, dense) apply's rows are bitwise the
    # same at every position and height of a block, real or complex, and as a 1-D row:
    # apply hands _real chunks of _CHUNK_ROWS rows, a SqrtFactor takes GEMMs of one
    # _CHUNK_ROWS height (a one-row product would be a GEMV), the embedding one rfft per
    # row; widths straddle that chunk height and NOISE_BLOCK.  apply leaves its input as
    # it was.  So a conditioned draw is the sweep's row
    g = make_grid(0, 1, 128)
    t = make_point_functional(g, 0.5)
    spec = ConditionSpec(u=100.0, scalar=REAL, mode="random")
    seed = 23
    chunk = covariance._CHUNK_ROWS
    assert 2 * chunk + 1 <= NOISE_BLOCK
    for route in ("sqexp:1:0.2", "rankk:4@1,1@3,0.5@0", "exp:1:0.1", "dense"):
        cov = assemble(kernel_from_spec("exp:1:0.1" if route == "dense" else route), g)
        fac = sqrt_factor(_dense(cov) if route == "dense" else cov)
        assert isinstance(fac, CirculantFactor if route == "exp:1:0.1" else SqrtFactor), route
        rng = np.random.default_rng(20)
        block = rng.normal(size=(NOISE_BLOCK + 6, fac.rank))
        for rows in (block, block + 1j * rng.normal(size=block.shape)):
            before = rows.tobytes()
            full = fac.apply(rows)
            assert fac.apply(rows[7]).tobytes() == full[7].tobytes(), route
            for width in (1, 3, chunk - 1, chunk, chunk + 1, 2 * chunk + 1, 64, NOISE_BLOCK + 1):
                for lo in (0, 5, len(rows) - width):
                    got = fac.apply(rows[lo:lo + width])
                    assert got.tobytes() == full[lo:lo + width].tobytes(), (route, width, lo)
            assert rows.tobytes() == before, route
        rep = sweep(fac, t, fac.cov, [spec.u], NOISE_BLOCK + 2, scalar=REAL, mode="random",
                    seed=seed)
        for i in (0, 5, NOISE_BLOCK + 1):
            s = sample_conditional(fac, t, spec, substream(seed, 0, i))
            want = dataclasses.replace(distance_record(s), sample_index=i)
            for f in dataclasses.fields(want):
                assert getattr(rep.records[i], f.name) == getattr(want, f.name), (route, f.name)


@dataclasses.dataclass(frozen=True)
class _WideGaussian(covariance._Stationary):
    """A squared exponential that does not claim to be smooth, so that it skips the
    pivoted route; with ell = 0.5 on (0, 1) its embedding is far from positive."""

    name = "wide-gaussian"
    smooth = False
    decay = SquaredExponential.decay


@dataclasses.dataclass(frozen=True)
class _Box(covariance._Stationary):
    """variance * [|x - y| < ell]: stationary, and not positive semidefinite."""

    name = "box"
    smooth = False

    def decay(self, d):
        return np.less(np.abs(d, out=d), self.ell, out=d, casting="unsafe")


def test_stationary_kernel_whose_embedding_is_not_positive_takes_the_dense_route(eigh_factor):
    # an embedding eigenvalue below -DEFAULT_CLIP_TOL * lam_max sends the kernel to the
    # dense eigh: bitwise its factor where op is positive, NotPositive where it is not
    g = make_grid(0, 1, 128)
    cov = assemble(_WideGaussian(1, 0.5), g)
    lam = covariance._embedding(cov)
    assert lam.min() < -DEFAULT_CLIP_TOL * lam.max()
    fac, ref = sqrt_factor(cov), eigh_factor(cov)
    assert fac.modes.tobytes() == ref.modes.tobytes()
    assert fac.eigenvalues.tobytes() == ref.eigenvalues.tobytes()
    box = assemble(_Box(1, 0.3), g)
    lam = covariance._embedding(box)
    assert lam.min() < -DEFAULT_CLIP_TOL * lam.max()
    with pytest.raises(errors.NotPositive):
        sqrt_factor(box)


def test_exp_factor_at_m_65536_never_forms_op(monkeypatch):
    # the embedding reads the kernel at N = 131,072 lags; op would be 34 GB.  The
    # build, one block of draws and the constants hold a few N-sized arrays
    def refuse(cov):
        raise AssertionError("the M x M operator was formed")

    monkeypatch.setattr(CovOperator, "op", property(refuse))
    g = make_grid(0, 1, 65536)
    t = make_point_functional(g, 0.5)
    tracemalloc.start()
    try:
        cov = assemble(Exponential(1, 0.1), g)
        fac = sqrt_factor(cov)
        fields = fac.apply(np.random.default_rng(21).standard_normal((4, fac.rank)))
        k = constants(t, cov)
        l_t = fac.adjoint(t.coeff)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(fac, CirculantFactor) and fac.rank == 131072 and fac.n_clipped == 0
    assert np.all(np.isfinite(fields)) and fields.shape == (4, g.m)
    # ||w L^T T||^2 = <T|C|T>, the variance of <T|phi>, within the FFT's roundoff
    assert np.vdot(l_t, l_t) == pytest.approx(k.tct, rel=1e-10)
    assert peak <= 16 * 8 * fac.rank
