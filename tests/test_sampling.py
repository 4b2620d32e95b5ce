import numpy as np
import pytest

from condfield import errors
from condfield.covariance import Exponential, SquaredExponential, assemble, sqrt_factor
from condfield.functionals import make_point_functional
from condfield.grid import inner, make_grid
from condfield.sampling import (
    COMPLEX,
    FIXED_RHO,
    RANDOM,
    REAL,
    ConditionSpec,
    FieldSample,
    condition_pathwise,
    sample_conditional,
    sample_t_u,
    sqrt_tct,
    substream,
    truncated_normal_lower,
    white_noise,
)


@pytest.fixture(scope="module")
def setup64():
    g = make_grid(0, 1, 64)
    cov = assemble(SquaredExponential(1, 0.2), g)
    return g, cov, sqrt_factor(cov), make_point_functional(g, 0.5)


def test_condition_spec_validation():
    with pytest.raises(errors.NegativeU):
        ConditionSpec(u=-3.0)
    with pytest.raises(ValueError):
        ConditionSpec(u=1.0, scalar=REAL, theta=1.57)
    ConditionSpec(u=0.0, scalar=REAL)  # fine


def test_field_sample_needs_its_conditioning_record():
    with pytest.raises(TypeError):
        FieldSample(values=np.ones(4), scalar=REAL, theta=0.0)


def test_forced_zero_noise_gives_zero_field(setup64, zero_stream):
    g, cov, fac, t = setup64
    (s,), = condition_pathwise(fac, t, [ConditionSpec(u=0.0, rho=0.0)], [zero_stream])
    assert s.t_u == 0.0
    assert np.all(s.values == 0)


def test_unconditional_pointwise_variance(setup64):
    # Monte-Carlo oracle: empirical Var(phi(x_i)) should be C(x_i, x_i) = 1
    g, cov, fac, t = setup64
    n = 20000
    acc = np.zeros(g.m)
    for i in range(n):
        values = fac.apply(white_noise(g.m, g.w, COMPLEX, substream(7, 0, i)))
        acc += np.abs(values) ** 2
    var = acc / n
    assert np.all(np.abs(var - 1.0) < 0.05)


def test_complex_coefficient_null_second_moment(setup64):
    # <t_n^2> = 0 for the complex field: CLT bound on the sampled moment
    g, cov, fac, t = setup64
    n = 20000
    rng_vals = np.empty(n, dtype=complex)
    for i in range(n):
        xi = white_noise(1, 1.0, COMPLEX, substream(9, 0, i))
        rng_vals[i] = xi[0] ** 2
    assert abs(rng_vals.mean()) < 4 / np.sqrt(n)


def test_unconditional_covariance_matches_kernel():
    g = make_grid(0, 1, 16)
    cov = assemble(SquaredExponential(1, 0.2), g)
    fac = sqrt_factor(cov)
    n = 20000
    samples = np.empty((n, g.m), dtype=complex)
    for i in range(n):
        samples[i] = fac.apply(white_noise(g.m, g.w, COMPLEX, substream(21, 0, i)))
    emp = (samples.conj().T @ samples).real / n
    diag = np.diag(cov.op) / g.w
    se = np.sqrt((np.outer(diag, diag) + (cov.op / g.w) ** 2) / n)
    assert np.all(np.abs(emp - cov.op / g.w) < 5 * se)


def test_sample_t_u_fixed_rho():
    t_u, rho, theta = sample_t_u(ConditionSpec(u=3.0, mode=FIXED_RHO, rho=0.0),
                                 1.0, substream(0, 0))
    assert t_u == pytest.approx(3.0)
    t_u, rho, theta = sample_t_u(
        ConditionSpec(u=0.0, mode=FIXED_RHO, rho=7.0, theta=np.pi / 2),
        1.0, substream(0, 0),
    )
    assert t_u == pytest.approx(1j * np.sqrt(7.0), abs=1e-12)


def test_sample_t_u_random_complex_event():
    spec = ConditionSpec(u=5.0, mode=RANDOM, scalar=COMPLEX)
    for i in range(200):
        t_u, rho, theta = sample_t_u(spec, 2.0, substream(3, i))
        assert abs(t_u) ** 2 == pytest.approx(rho + 25.0 / 2.0, rel=1e-12)
        assert abs(t_u) >= 5.0 / np.sqrt(2.0)
        assert 0 <= theta < 2 * np.pi


@pytest.mark.parametrize("scalar", [REAL, COMPLEX])
def test_white_noise_block_rows_are_successive_draws(scalar):
    block = white_noise(16, 0.25, scalar, substream(11, 0), n=7)
    rng = substream(11, 0)
    singles = np.array([white_noise(16, 0.25, scalar, rng) for _ in range(7)])
    assert block.shape == (7, 16)
    assert block.dtype == singles.dtype
    assert block.tobytes() == singles.tobytes()


def test_truncated_normal_half_normal_mean():
    # analytic oracle: mean of |N(0,1)| is sqrt(2/pi)
    rng = substream(17, 0)
    n = 100000
    vals = np.array([truncated_normal_lower(0.0, rng) for _ in range(n)])
    assert vals.mean() == pytest.approx(np.sqrt(2 / np.pi), abs=0.01)


def test_truncated_normal_respects_large_threshold():
    rng = substream(18, 0)
    vals = [truncated_normal_lower(40.0, rng) for _ in range(1000)]
    assert min(vals) >= 40.0
    # conditional tail mass concentrates just above the threshold
    assert max(vals) < 41.0


def test_conditional_event_real_field(setup64):
    g, cov, fac, t = setup64
    spec = ConditionSpec(u=5.0, scalar=REAL, mode=RANDOM)
    for i in range(1000):
        s = sample_conditional(fac, t, spec, substream(4, i))
        val = t(s.values)
        assert val >= 5.0 - 1e-9 * 5.0


def test_conditional_event_complex_field(setup64):
    g, cov, fac, t = setup64
    for u in (0.0, 1.0, 5.0, 50.0):
        spec = ConditionSpec(u=u, scalar=COMPLEX, mode=RANDOM)
        for i in range(200):
            s = sample_conditional(fac, t, spec, substream(5, i))
            assert abs(t(s.values)) >= u - 1e-9 * max(u, 1.0)
            assert abs(s.t_u) ** 2 == pytest.approx(s.rho + u ** 2 / 1.0, rel=1e-10)


def test_zero_noise_hook_gives_collinear_profile(setup64, zero_stream):
    g, cov, fac, t = setup64
    spec = ConditionSpec(u=3.0, mode=FIXED_RHO, rho=0.0)
    (s,), = condition_pathwise(fac, t, [spec], [zero_stream])
    assert s.t_u == pytest.approx(3.0, rel=1e-12)  # u / sqrt(tct), tct = 1
    expected = (3.0 / 1.0) * cov.apply(t.coeff)  # tct = 1 here
    assert np.allclose(s.values, expected, atol=1e-10)
    assert s.r2 == 0.0


def test_t1_roundtrip(setup64):
    g, cov, fac, t = setup64
    spec = ConditionSpec(u=2.0, scalar=COMPLEX, mode=RANDOM)
    for i in range(50):
        s = sample_conditional(fac, t, spec, substream(6, i))
        assert inner(t.coeff, s.values, g) == pytest.approx(s.t_u, rel=1e-10)  # sqrt(tct) = 1
    prof = cov.apply(t.coeff)
    assert inner(t.coeff, prof, g) == pytest.approx(1.0, rel=1e-12)  # tct / sqrt(tct), tct = 1


def test_adapted_basis_hygiene(setup64):
    g, cov, fac, t = setup64
    s_t = fac.apply(t.coeff)
    tct = float(inner(s_t, s_t, g).real)
    v = s_t / np.sqrt(tct)
    assert inner(v, v, g).real == pytest.approx(1.0, abs=1e-12)
    for i in range(20):
        xi = white_noise(g.m, g.w, COMPLEX, substream(8, i))
        c = inner(v, xi, g)
        xi_perp = xi - c * v
        assert abs(inner(v, xi_perp, g)) < 1e-12 * np.sqrt(inner(xi, xi, g).real)
        # Pythagoras in the adapted basis
        t_u = 3.7 + 0.4j
        total = inner(t_u * v + xi_perp, t_u * v + xi_perp, g).real
        r2 = inner(xi_perp, xi_perp, g).real
        assert total == pytest.approx(abs(t_u) ** 2 + r2, rel=1e-10)


def test_orthogonal_direction_stays_standard_normal():
    # statistical independence of the coefficients orthogonal to the adapted
    # direction; invertible kernel so C^{-1/2} phi_u is computable
    g = make_grid(0, 1, 32)
    cov = assemble(Exponential(1, 0.5), g)
    fac = sqrt_factor(cov)
    assert fac.n_clipped == 0
    t = make_point_functional(g, 0.5)
    s_t = fac.apply(t.coeff)
    tct = float(inner(s_t, s_t, g).real)
    v = s_t / np.sqrt(tct)
    # fixed direction orthogonal to v (weighted Gram-Schmidt on a coordinate)
    e = np.zeros(g.m)
    e[3] = 1.0
    nu = e - inner(v, e, g) * v
    nu = nu / np.sqrt(inner(nu, nu, g).real)
    lam, vec = np.linalg.eigh(cov.op)
    inv_sqrt = (vec / lam ** 0.5) @ vec.T
    spec = ConditionSpec(u=2.0, scalar=COMPLEX, mode=RANDOM)
    n = 5000
    coeffs = np.empty(n, dtype=complex)
    for i in range(n):
        s = sample_conditional(fac, t, spec, substream(10, i))
        coeffs[i] = inner(nu, inv_sqrt @ s.values, g)
    assert abs(coeffs.mean()) < 4 / np.sqrt(n)
    assert abs(np.mean(np.abs(coeffs) ** 2) - 1.0) < 0.06


def test_determinism(setup64):
    g, cov, fac, t = setup64
    spec = ConditionSpec(u=10.0, scalar=COMPLEX, mode=RANDOM)
    a = sample_conditional(fac, t, spec, substream(42, 1, 2))
    b = sample_conditional(fac, t, spec, substream(42, 1, 2))
    assert np.array_equal(a.values, b.values)
    assert a.t_u == b.t_u and a.rho == b.rho and a.theta == b.theta


@pytest.mark.parametrize("kernel, n_clipped", [(SquaredExponential(1, 0.2), 55),
                                               (Exponential(1, 0.1), 0)])
@pytest.mark.parametrize("scalar", [REAL, COMPLEX])
def test_pathwise_matches_adapted_basis_split(kernel, n_clipped, scalar, adapted_split):
    # the rank-one update and the adapted-basis split are the same draw, to
    # roundoff, with and without clipped eigenvalues
    g = make_grid(0, 1, 128)
    fac = sqrt_factor(assemble(kernel, g))
    assert fac.n_clipped == n_clipped
    t = make_point_functional(g, 0.5)
    s_t = fac.apply(t.coeff)
    tct = float(inner(s_t, s_t, g).real)
    for i in range(20):
        for u in (0.0, 10.0, 1e4, 1e8):
            spec = ConditionSpec(u=u, scalar=scalar, mode=RANDOM)
            (s,), = condition_pathwise(fac, t, [spec], [substream(30, 0, i)])
            # the reference reads xi and then the draw from a fresh stream, same key
            rng = substream(30, 0, i)
            xi = white_noise(g.m, g.w, scalar, rng)
            draw = sample_t_u(spec, tct, rng)
            values, r2 = adapted_split(fac, t, xi, draw[0], scalar)
            assert np.max(np.abs(s.values - values)) <= 1e-12 * np.max(np.abs(values))
            assert s.r2 >= 0.0
            assert abs(s.r2 - r2) <= 1e-12 * r2
            assert (s.t_u, s.rho, s.theta, s.u) == (*draw, u)


def _assert_same_sample(a, b):
    assert a.values.dtype == b.values.dtype
    assert a.values.tobytes() == b.values.tobytes()
    assert (a.scalar, a.t_u, a.r2, a.u, a.rho, a.theta) == \
        (b.scalar, b.t_u, b.r2, b.u, b.rho, b.theta)


@pytest.mark.parametrize("scalar, mode, theta", [
    (REAL, RANDOM, 0.0),
    (COMPLEX, FIXED_RHO, 0.7),
    (COMPLEX, RANDOM, 0.0),
])
def test_condition_pathwise_stream_matches_single_calls(setup64, scalar, mode, theta):
    # one call over three streams, fed by a generator, gives bitwise the
    # samples of three one-stream calls; each stream is read as xi and then
    # (t_u, rho, theta) for each spec in order; sample_conditional is the
    # one-spec, one-stream call
    g, cov, fac, t = setup64
    _, tct = sqrt_tct(fac, t)
    specs = [ConditionSpec(u=u, scalar=scalar, mode=mode, rho=2.0, theta=theta)
             for u in (0.0, 10.0, 1e6)]
    streamed = list(condition_pathwise(fac, t, specs, (substream(3, 0, i) for i in range(3))))
    assert [len(samples) for samples in streamed] == [3, 3, 3]
    for i, samples in enumerate(streamed):
        (single,) = condition_pathwise(fac, t, specs, [substream(3, 0, i)])
        for got, want in zip(samples, single, strict=True):
            _assert_same_sample(got, want)
        rng = substream(3, 0, i)
        white_noise(g.m, g.w, scalar, rng)
        assert [(s.t_u, s.rho, s.theta) for s in samples] == \
            [sample_t_u(spec, tct, rng) for spec in specs]
    for spec in specs:
        (want,), = condition_pathwise(fac, t, [spec], [substream(3, 2)])
        _assert_same_sample(sample_conditional(fac, t, spec, substream(3, 2)), want)


def test_condition_pathwise_needs_specs_of_one_scalar_type(setup64):
    # xi's scalar type comes from the specs, so it must be one type
    g, cov, fac, t = setup64
    for specs in ([], [ConditionSpec(u=1.0, scalar=REAL), ConditionSpec(u=2.0, scalar=COMPLEX)]):
        with pytest.raises(ValueError, match="one scalar type"):
            next(condition_pathwise(fac, t, specs, [substream(0, 0)]))


@pytest.mark.parametrize("alpha", [1e155, 1e300])
def test_truncated_normal_returns_where_alpha_squared_overflows(deadline, alpha):
    # alpha^2 overflows here; the optimal rate must not, or every proposal is rejected
    assert truncated_normal_lower(alpha, substream(19, 0)) >= alpha


@pytest.mark.parametrize("scalar, mode", [(REAL, FIXED_RHO), (REAL, RANDOM), (COMPLEX, RANDOM)])
def test_sample_t_u_overflowing_square_raises(deadline, scalar, mode):
    # u^2 overflows a double at u = 1e155; u^2/<T|C|T> alone does at u = 1e153
    for u, tct in ((1e155, 1.0), (1e153, 1e-4)):
        with pytest.raises(errors.ThresholdOverflow):
            sample_t_u(ConditionSpec(u=u, scalar=scalar, mode=mode), tct, substream(20, 0))


def test_tiny_variance_draw_is_not_rejected_by_a_fixed_floor():
    # <T|C|T> = 1e-305 is far above its roundoff bound; with u = 1e-145 the
    # draw exists and hits the threshold
    g = make_grid(0, 1, 64)
    t = make_point_functional(g, 0.5)
    fac = sqrt_factor(assemble(SquaredExponential(1e-305, 0.2), g))
    spec = ConditionSpec(u=1e-145, scalar=REAL, mode=RANDOM)
    s = sample_conditional(fac, t, spec, substream(0, 0))
    assert np.all(np.isfinite(s.values))
    assert abs(t(s.values)) / spec.u == pytest.approx(1.0, rel=1e-12)
