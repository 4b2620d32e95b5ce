import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from condfield import errors
from condfield.covariance import Exponential, RankK, SquaredExponential, assemble
from condfield.functionals import (
    LinearFunctional,
    analytic_derivative_curve,
    constants,
    functional_from_spec,
    make_custom_functional,
    make_derivative_functional,
    make_integral_functional,
    make_point_functional,
    profile,
    stencil_coefficients,
)
from condfield.grid import inner, l2_norm, make_grid, sup_norm


@pytest.fixture
def grid64():
    return make_grid(0, 1, 64)


def sqexp_cross_derivative(ell, n):
    """Oracle: d^{2n} C / dx^n dy^n at x = y for C = exp(-(x-y)^2 / 2 ell^2),
    by symbolic differentiation."""
    x, y = sympy.symbols("x y")
    c = sympy.exp(-((x - y) ** 2) / (2 * ell ** 2))
    d = sympy.diff(c, x, n, y, n)
    return float(d.subs({x: 0, y: 0}))


def test_point_functional_coefficients():
    g = make_grid(0, 1, 4)
    t = make_point_functional(g, 0.375)
    assert t.coeff[1] == 4.0
    assert np.count_nonzero(t.coeff) == 1
    assert t(np.full(4, 7.5)) == pytest.approx(7.5)


def test_point_functional_out_of_domain(grid64):
    with pytest.raises(errors.OutOfDomain):
        make_point_functional(grid64, 1.5)


def test_point_functional_evaluates_exactly(grid64):
    t = make_point_functional(grid64, 0.5)
    phi = np.sin(grid64.points)
    i0 = int(np.argmin(np.abs(grid64.points - 0.5)))
    assert t(phi) == phi[i0]


def test_stencil_exact_on_monomials():
    import math

    for n, order in [(1, 2), (1, 4), (2, 2), (2, 4), (3, 4), (1, 6)]:
        offsets, coeffs = stencil_coefficients(n, order)
        # d^n/dx^n x^p at x = 0 is n! for p = n, else 0 (for p <= n+order-1)
        for p in range(n + order):
            deriv = sum(c * (float(j) ** p) for j, c in zip(offsets, coeffs))
            exact = math.factorial(n) if p == n else 0.0
            assert deriv == pytest.approx(exact, abs=1e-8)


def test_derivative_functional_on_polynomials(grid64):
    t1 = make_derivative_functional(grid64, 0.5, 1, 2)
    assert t1(grid64.points) == pytest.approx(1.0, abs=1e-12)
    t2 = make_derivative_functional(grid64, 0.5, 2, 2)
    assert t2(grid64.points ** 2) == pytest.approx(2.0, abs=1e-10)


def test_derivative_functional_accuracy(grid64):
    t = make_derivative_functional(grid64, 0.5, 1, 4)
    phi = np.exp(grid64.points)
    assert t(phi) == pytest.approx(np.exp(t.x0), rel=1e-8)


def test_derivative_functional_errors(grid64):
    with pytest.raises(errors.StencilOutOfRange):
        make_derivative_functional(grid64, 0.0, 1, 2)
    with pytest.raises(errors.UnsupportedOrder):
        make_derivative_functional(grid64, 0.5, 1, 3)


def test_integral_and_custom_functionals(grid64):
    t = make_integral_functional(grid64, "uniform")
    assert t(np.full(64, 3.0)) == pytest.approx(3.0)
    t2 = make_custom_functional(grid64, np.ones(64))
    assert t2(grid64.points) == pytest.approx(0.5, rel=1e-12)
    with pytest.raises(errors.DegenerateFunctional):
        make_custom_functional(grid64, np.zeros(64))


def test_tct_point_eval_is_kernel_diagonal(grid64):
    cov = assemble(SquaredExponential(1, 0.2), grid64)
    t = make_point_functional(grid64, 0.5)
    assert constants(t, cov).tct == pytest.approx(1.0, rel=1e-12)


def test_tct_derivative_matches_symbolic_oracle():
    g = make_grid(0, 1, 256)
    ell = 0.25
    cov = assemble(SquaredExponential(1, ell), g)
    t = make_derivative_functional(g, 0.5, 1, 4)
    expected = sqexp_cross_derivative(ell, 1)  # = 1/ell^2
    assert expected == pytest.approx(1.0 / ell ** 2)
    assert constants(t, cov).tct == pytest.approx(expected, rel=1e-5)


def test_tct_scales_with_kernel(grid64):
    t = make_point_functional(grid64, 0.5)
    base = constants(t, assemble(SquaredExponential(1, 0.2), grid64)).tct
    scaled = constants(t, assemble(SquaredExponential(3, 0.2), grid64)).tct
    assert scaled == pytest.approx(3 * base, rel=1e-12)


def test_profile_point_eval_is_kernel_column(grid64):
    cov = assemble(SquaredExponential(1, 0.2), grid64)
    t = make_point_functional(grid64, 0.5)
    i0 = int(np.argmin(np.abs(grid64.points - 0.5)))
    assert np.allclose(profile(t, cov), cov.kernel.rows(grid64, slice(None))[:, i0], rtol=1e-12)


def test_profile_derivative_matches_symbolic_curve():
    g = make_grid(0, 1, 256)
    ell = 0.2
    cov = assemble(SquaredExponential(1, ell), g)
    t = make_derivative_functional(g, 0.5, 1, 4)
    # oracle: symbolic d C(x, x0) / d x0
    x, y = sympy.symbols("x y")
    c = sympy.exp(-((x - y) ** 2) / (2 * ell ** 2))
    dfun = sympy.lambdify(x, sympy.diff(c, y).subs(y, t.x0), "numpy")
    expected = dfun(g.points)
    assert sup_norm(profile(t, cov) - expected) < 1e-5
    hermite = analytic_derivative_curve(SquaredExponential(1, ell), g.points, t.x0, 1)
    assert np.allclose(hermite, expected, rtol=1e-12, atol=1e-14)


def test_profile_linearity(grid64):
    cov = assemble(SquaredExponential(1, 0.2), grid64)
    t = make_point_functional(grid64, 0.5)
    t3 = make_custom_functional(grid64, 3.0 * t.coeff)
    assert np.allclose(profile(t3, cov), 3.0 * profile(t, cov), rtol=1e-12)


def test_constants_rank_one(grid64):
    # closed form for a rank-1 operator: B = 1/sqrt(lam)
    cov = assemble(RankK(((4.0, 1),)), grid64)
    t = make_point_functional(grid64, 0.3)
    k = constants(t, cov)
    assert k.b_const == pytest.approx(0.5, abs=1e-8)


def test_constants_scaling(grid64):
    t = make_point_functional(grid64, 0.5)
    k1 = constants(t, assemble(SquaredExponential(1, 0.2), grid64))
    k4 = constants(t, assemble(SquaredExponential(4, 0.2), grid64))
    assert k4.tct == pytest.approx(4 * k1.tct, rel=1e-12)
    assert k4.b_const == pytest.approx(k1.b_const / 2, rel=1e-12)
    assert k1.a_const == 1.0


def test_tc2t_identity(grid64):
    cov = assemble(SquaredExponential(1, 0.2), grid64)
    t = make_point_functional(grid64, 0.5)
    via_norm = l2_norm(cov.apply(t.coeff), grid64) ** 2
    via_inner = float(inner(t.coeff, cov.apply(cov.apply(t.coeff)), grid64).real)
    assert constants(t, cov).profile_norm ** 2 == pytest.approx(via_norm, rel=1e-12)
    assert via_inner == pytest.approx(via_norm, rel=1e-10)


def test_tct_equals_inner_with_profile(grid64):
    cov = assemble(SquaredExponential(1, 0.2), grid64)
    t = make_point_functional(grid64, 0.5)
    assert constants(t, cov).tct == pytest.approx(
        float(inner(t.coeff, profile(t, cov), grid64).real), rel=1e-12
    )


def test_profile_direction_invariant_under_scaling(grid64):
    t = make_point_functional(grid64, 0.5)
    p1 = profile(t, assemble(SquaredExponential(1, 0.2), grid64))
    p2 = profile(t, assemble(SquaredExponential(3.7, 0.2), grid64))
    n1 = p1 / l2_norm(p1, grid64)
    n2 = p2 / l2_norm(p2, grid64)
    assert np.allclose(n1, n2, rtol=1e-12)


def test_stencil_profiles_converge_with_refinement():
    ell = 0.2
    diffs = []
    for m in (64, 128, 256):
        g = make_grid(0, 1, m)
        cov = assemble(SquaredExponential(1, ell), g)
        p2 = profile(make_derivative_functional(g, 0.5, 1, 2), cov)
        p4 = profile(make_derivative_functional(g, 0.5, 1, 4), cov)
        diffs.append(sup_norm(p2 - p4))
    assert diffs[1] < diffs[0] / 3
    assert diffs[2] < diffs[1] / 3


def test_functional_from_spec(grid64, tmp_path):
    t = functional_from_spec("point:0.5", grid64)
    assert t.kind == "point"
    t = functional_from_spec("dpoint:0.5:1:4", grid64)
    assert t.kind == "derivative" and t.n == 1 and t.order == 4
    t = functional_from_spec("integral:uniform", grid64)
    assert t.kind == "integral"
    path = tmp_path / "coeff.csv"
    np.savetxt(path, np.ones(64), delimiter=",")
    t = functional_from_spec(f"custom:@{path}", grid64)
    assert t.kind == "custom"
    with pytest.raises(errors.ConfigError):
        functional_from_spec("spline:0.5", grid64)
    with pytest.raises(errors.ConfigError):
        functional_from_spec("point:2.5", grid64)


@pytest.mark.parametrize("spec, m, exact", [
    ("dpoint:0.5:2", 2048, 1875.0),  # 3 / ell^4
    ("dpoint:0.5:3:6", 512, 234375.0),  # 15 / ell^6
])
def test_tct_gate_accepts_values_above_roundoff(spec, m, exact):
    g = make_grid(0, 1, m)
    k = constants(functional_from_spec(spec, g), assemble(SquaredExponential(1, 0.2), g))
    assert k.tct == pytest.approx(exact, rel=1e-4)


@pytest.mark.parametrize("spec, m", [("dpoint:0.5:3:6", 2048), ("dpoint:0.5:4:6", 1024)])
def test_tct_gate_rejects_values_lost_in_roundoff(spec, m):
    # at M = 2048 the 3rd-derivative value is off by a third from cancellation
    g = make_grid(0, 1, m)
    with pytest.raises(errors.DegenerateFunctional, match="roundoff bound"):
        constants(functional_from_spec(spec, g), assemble(SquaredExponential(1, 0.2), g)).tct


def test_tct_gate_rejects_zero_functional(grid64):
    zero = LinearFunctional(grid=grid64, coeff=np.zeros(64))
    with pytest.raises(errors.DegenerateFunctional, match="numerically zero"):
        constants(zero, assemble(SquaredExponential(1, 0.2), grid64)).tct


def test_constants_reject_non_finite_variance():
    # <T|C|T> and ||C T||_2 overflow to inf, which is above any roundoff bound
    g = make_grid(0, 1, 32)
    with pytest.raises(errors.DegenerateFunctional, match="non-finite"):
        constants(make_derivative_functional(g, 0.5, 4), assemble(Exponential(1e300, 0.2), g))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("make", [make_custom_functional])
def test_constructors_reject_non_finite_coefficients(grid64, make, bad):
    values = np.ones(64)
    values[5] = bad
    with pytest.raises(errors.ConfigError, match="non-finite"):
        make(grid64, values)


def test_nan_evaluation_point_is_out_of_domain(grid64):
    with pytest.raises(errors.OutOfDomain):
        make_point_functional(grid64, np.nan)
    with pytest.raises(errors.OutOfDomain):
        make_derivative_functional(grid64, np.nan, 1)


def test_analytic_curve_at_n0_by_kernel(grid64):
    x = grid64.points
    exp = Exponential(2, 0.3)
    assert np.array_equal(analytic_derivative_curve(exp, x, 0.5, 0), exp.pair(x, 0.5))
    assert analytic_derivative_curve(RankK(((1.0, 0), (2.0, 1))), x, 0.5, 0) is None
    sq = SquaredExponential(2, 0.3)
    assert np.allclose(analytic_derivative_curve(sq, x, 0.5, 0), sq.pair(x, 0.5),
                       rtol=1e-15, atol=0)


@pytest.mark.parametrize("other", [(0, 1, 65), (0, 2, 64)])
@pytest.mark.parametrize("fn", [profile, constants])
def test_mismatched_operator_grid_raises(grid64, other, fn):
    cov = assemble(SquaredExponential(1, 0.2), make_grid(*other))
    with pytest.raises(errors.GridMismatch):
        fn(make_point_functional(grid64, 0.5), cov)


@pytest.mark.parametrize("order", [2, 4, 6])
def test_derivative_at_n0_is_the_point_functional(grid64, order):
    # n = 0 goes through the stencil path too, so its order is validated
    t = make_derivative_functional(grid64, 0.5, 0, order)
    assert t.coeff.tobytes() == make_point_functional(grid64, 0.5).coeff.tobytes()
    assert (t.n, t.order) == (0, order)
    with pytest.raises(errors.UnsupportedOrder):
        make_derivative_functional(grid64, 0.5, 0, order + 1)


_SCALE = st.floats(0.1, 10.0)
_KERNELS = st.one_of(
    st.builds(SquaredExponential, _SCALE, st.floats(0.01, 2.0)),
    st.builds(Exponential, _SCALE, st.floats(0.01, 2.0)),
    st.builds(RankK, st.lists(st.tuples(_SCALE, st.integers(0, 7)), min_size=1, max_size=4,
                              unique_by=lambda mode: mode[1]).map(tuple)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(kernel=_KERNELS, a=st.floats(-10.0, 10.0), length=st.floats(0.1, 10.0),
       m=st.integers(8, 300), kind=st.sampled_from(["point", "dpoint", "integral"]),
       frac=st.floats(0.0, 1.0), n=st.integers(0, 4), order=st.sampled_from([2, 4, 6]))
def test_support_row_profile_matches_the_dense_product(kernel, a, length, m, kind, frac, n,
                                                       order):
    # p = C T from the rows in T's support S against op @ T: bitwise for a
    # point (one product per entry either way), else within the roundoff of
    # the two sums, 2 |S| eps sum_j |op_ij T_j|; <T|C|T>, ||p||_2, A, B and D
    # follow within that bound carried through their formulas
    g = make_grid(a, a + length, m)
    x0 = min(g.a + frac * g.length, g.b)
    if kind == "point":
        t = make_point_functional(g, x0)
    elif kind == "dpoint":
        try:
            t = make_derivative_functional(g, x0, n, order)
        except errors.StencilOutOfRange:
            assume(False)
    else:
        t = make_integral_functional(g, "cosine")
    cov = assemble(kernel, g)
    ref, got = cov.op @ t.coeff, profile(t, cov)
    eps, w, abs_t = np.finfo(float).eps, g.w, np.abs(t.coeff)
    bound = 2 * np.count_nonzero(t.coeff) * eps * (np.abs(cov.op) @ abs_t)
    if kind == "point":
        assert got.tobytes() == ref.tobytes()
    assert np.all(np.abs(got - ref) <= bound)

    tct_ref, norm_ref = float(inner(t.coeff, ref, g).real), l2_norm(ref, g)
    tct_bound = 2 * w * float(abs_t @ bound)  # the change in p, and the inner's own roundoff
    a2 = float(np.max(np.diag(cov.op)) / w)
    try:
        k = constants(t, cov)
    except errors.DegenerateFunctional:  # the <T|C|T> roundoff gate
        assert tct_ref <= 100 * eps * a2 * (w * abs_t.sum()) ** 2 + tct_bound
        return
    norm_bound = np.sqrt(w * np.sum(bound ** 2)) + (m + 2) * eps * norm_ref
    assert abs(k.tct - tct_ref) <= tct_bound
    assert abs(k.profile_norm - norm_ref) <= norm_bound
    assert k.a_const == float(np.sqrt(a2))
    b_ref = np.sqrt(tct_ref) / norm_ref
    b_rel = tct_bound / (2 * tct_ref) + norm_bound / norm_ref + 4 * eps
    assert abs(k.b_const - b_ref) <= b_rel * b_ref
    d_ref = k.a_const * b_ref * np.sqrt(g.length)
    assert abs(k.d_const - d_ref) <= (b_rel + 4 * eps) * d_ref
