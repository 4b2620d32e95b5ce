import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from condfield import errors
from condfield.grid import inner, l2_norm, l2_norms, make_grid, sup_norm


def test_make_grid_midpoints():
    g = make_grid(0, 1, 4)
    assert np.allclose(g.points, [0.125, 0.375, 0.625, 0.875])
    assert g.w == 0.25


def test_make_grid_rejects_bad_inputs():
    with pytest.raises(errors.TooFewPoints):
        make_grid(0, 1, 1)
    with pytest.raises(errors.NonpositiveLength):
        make_grid(2, 1, 8)


@pytest.mark.parametrize("a, b, m", [(-1e308, 1e308, 4), (0, 5e-324, 2), (1.0, 1.0 + 4.5e-16, 4)])
def test_make_grid_rejects_a_step_that_leaves_the_doubles(a, b, m):
    # b - a overflows to h = inf, h underflows to 0, or h is below the spacing
    # of the doubles near a, so the points do not strictly increase
    with pytest.raises(errors.NonpositiveLength, match="step h"):
        make_grid(a, b, m)


def test_grid_invariants():
    g = make_grid(-1.5, 2.5, 37)
    assert np.all(np.diff(g.points) > 0)
    assert g.points[0] > g.a and g.points[-1] < g.b
    assert abs(g.w * g.m - (g.b - g.a)) < 1e-15 * abs(g.b - g.a)


def test_inner_constant_one():
    g = make_grid(0, 1, 64)
    ones = np.ones(g.m)
    assert inner(ones, ones, g) == pytest.approx(1.0, abs=1e-15)


def test_inner_conjugate_symmetry():
    g = make_grid(0, 1, 16)
    rng = np.random.default_rng(3)
    psi = rng.normal(size=16) + 1j * rng.normal(size=16)
    phi = rng.normal(size=16) + 1j * rng.normal(size=16)
    assert inner(psi, phi, g) == pytest.approx(np.conj(inner(phi, psi, g)))


def test_inner_cosine_orthogonality():
    # midpoint rule integrates cos(pi x) cos(2 pi x) to zero exactly;
    # oracle: direct summation without the quadrature helper
    g = make_grid(0, 1, 64)
    psi = np.cos(np.pi * g.points)
    phi = np.cos(2 * np.pi * g.points)
    direct = sum(a * b for a, b in zip(psi, phi)) * (1.0 / 64)
    assert abs(direct) < 1e-12
    assert abs(inner(psi, phi, g)) < 1e-12


def test_inner_is_weight_times_vdot():
    # bit-level contract relied on across modules
    g = make_grid(0, 2, 9)
    rng = np.random.default_rng(8)
    psi = rng.normal(size=9) + 1j * rng.normal(size=9)
    phi = rng.normal(size=9) + 1j * rng.normal(size=9)
    assert inner(psi, phi, g) == g.w * np.vdot(psi, phi)


def test_inner_whose_terms_overflow_is_formed_with_the_weight_first():
    # a point functional's T_i = 1/w against p_i = 1e306: T_i p_i overflows, w T_i p_i
    # does not; a finite plain value keeps its bits (above), and a value past the
    # double range is still inf, with no warning (an error under the suite's filter)
    g = make_grid(0, 1, 256)
    t, p = np.zeros(256), np.zeros(256)
    t[128], p[128] = 1 / g.w, 1e306
    assert inner(t, p, g) == 1e306 and inner(1j * t, p, g) == -1e306j
    t[100], p[100], p[128] = 1 / g.w, 1e308, 1e308
    assert inner(t, p, g) == np.inf
    # a stencil's w T_i p_i overflow to +inf and -inf, which would cancel into NaN: w T
    # scaled below 1 keeps every term finite, so a sum that fits is finite, and one that
    # does not, about 4e308 here, reads inf
    t[:], p[:] = 0.0, 0.0
    t[100:102], p[100:102] = (4 / g.w, -4 / g.w), (1e308, 0.9e308)
    assert inner(t, p, g) == pytest.approx(4e307, rel=1e-15)
    t[100:102], p[100:102] = (8 / g.w, -4 / g.w), (1e308, 1e308)
    assert inner(t, p, g) == np.inf


def test_inner_length_mismatch():
    g = make_grid(0, 1, 8)
    with pytest.raises(errors.LengthMismatch):
        inner(np.ones(7), np.ones(8), g)


def test_l2_norm_values():
    g1 = make_grid(0, 1, 32)
    g2 = make_grid(0, 2, 32)
    assert l2_norm(np.zeros(32), g1) == 0.0
    assert l2_norm(np.ones(32), g1) == pytest.approx(1.0)
    assert l2_norm(np.ones(32), g2) == pytest.approx(np.sqrt(2.0))


def test_sup_norm_values():
    assert sup_norm(np.array([1.0, -3.0, 2.0])) == 3.0
    assert sup_norm(np.array([3 + 4j, 0])) == 5.0
    with pytest.raises(errors.EmptyVector):
        sup_norm(np.array([]))


@settings(max_examples=50, deadline=None)
@given(
    phi=arrays(np.float64, 24, elements=st.floats(-1e6, 1e6)),
    psi=arrays(np.float64, 24, elements=st.floats(-1e6, 1e6)),
)
def test_cauchy_schwarz(phi, psi):
    g = make_grid(0, 1, 24)
    lhs = abs(inner(psi, phi, g))
    rhs = l2_norm(psi, g) * l2_norm(phi, g)
    assert lhs <= rhs * (1 + 1e-12) + 1e-12


@settings(max_examples=50, deadline=None)
@given(phi=arrays(np.float64, 24, elements=st.floats(-1e6, 1e6)))
def test_norm_comparison(phi):
    g = make_grid(-2, 3, 24)
    if not np.any(phi):
        return
    assert l2_norm(phi, g) <= np.sqrt(g.b - g.a) * sup_norm(phi) * (1 + 1e-12)


@settings(max_examples=200, deadline=None)
@given(
    x=arrays(np.float64, 24, elements=st.one_of(st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))),
    c=st.floats(1e-290, 1.0),
)
def test_l2_norm_is_homogeneous_down_to_underflow(x, c):
    g = make_grid(-2, 3, 24)
    ref = c * l2_norm(x, g)
    assert abs(l2_norm(c * x, g) - ref) <= 8 * np.finfo(float).eps * ref


def test_make_grid_rejects_non_integer_m():
    # a float M would give M points of spacing (b - a)/M for the truncated M
    for m in (2.5, 8.0, "8"):
        with pytest.raises(errors.TooFewPoints):
            make_grid(0, 1, m)
    assert make_grid(0, 1, np.int64(8)).m == 8


def test_grids_compare_and_hash_by_value():
    g1, g2 = make_grid(0, 1, 64), make_grid(0, 1, 64)
    assert g1 is not g2
    assert g1 == g2 and hash(g1) == hash(g2)
    assert g1 != make_grid(0, 1, 65) and g1 != make_grid(0, 2, 64)


@pytest.mark.parametrize("dtype", [float, complex])
def test_l2_norms_rescale_an_underflowing_row_in_a_block(dtype):
    # a block mixing an ordinary row, rows whose sum of squares underflows and
    # a zero row: each row's norm is its one-row norm, and the tiny rows are
    # rescaled as l2_norm rescales a vector
    g = make_grid(-2, 3, 24)
    rng = np.random.default_rng(4)
    x = rng.uniform(0.5, 2.0, 24).astype(dtype)
    if dtype is complex:
        x = x + 1j * rng.uniform(0.5, 2.0, 24)
    c = [1.0, 1e-160, 1e-300, 0.0]
    block = np.array([ci * x for ci in c])
    norms = l2_norms(block, g)
    ref = np.sqrt(g.w * np.sum(np.abs(x) ** 2))
    for row, ci, nrm in zip(block, c, norms):
        assert nrm == l2_norm(row, g)
        assert abs(nrm - ci * ref) <= 8 * np.finfo(float).eps * ci * ref
    assert norms[-1] == 0.0


@pytest.mark.parametrize("dtype", [float, complex])
def test_l2_norms_rescale_an_overflowing_row_in_a_block(dtype):
    # a row of about 1e200 has a sum of squares of inf but a finite norm,
    # found as for an underflowing row; the ordinary row is left as it was
    g = make_grid(-2, 3, 24)
    rng = np.random.default_rng(5)
    x = rng.uniform(0.5, 2.0, 24).astype(dtype)
    if dtype is complex:
        x = x + 1j * rng.uniform(0.5, 2.0, 24)
    block = np.array([x, 1e200 * x])
    norms = l2_norms(block, g)
    ref = np.sqrt(g.w * np.sum(np.abs(x) ** 2))
    assert norms[0] == l2_norm(x, g)
    assert np.isfinite(norms[1]) and norms[1] == l2_norm(block[1], g)
    assert abs(norms[1] - 1e200 * ref) <= 8 * np.finfo(float).eps * 1e200 * ref


def test_l2_norms_rejects_a_vector():
    with pytest.raises(errors.LengthMismatch):
        l2_norms(np.ones(9), make_grid(0, 2, 9))
