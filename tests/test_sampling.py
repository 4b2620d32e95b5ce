import tracemalloc

import numpy as np
import pytest

from condfield import errors
from condfield.covariance import (
    Exponential,
    SquaredExponential,
    assemble,
    kernel_from_spec,
    sqrt_factor,
)
from condfield.functionals import constants, functional_from_spec, make_point_functional
from condfield.grid import inner, make_grid
from condfield.sampling import (
    COMPLEX,
    FIXED_RHO,
    NOISE_BLOCK,
    RANDOM,
    REAL,
    ConditionSpec,
    FieldSample,
    condition_blocks,
    keyed_streams,
    sample_conditional,
    sample_t_u,
    stream_keys,
    substream,
    white_noise,
)
from test_oracle import _nonstationary


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
        FieldSample(phi=np.ones(4), scalar=REAL, theta=0.0)


def test_forced_zero_noise_gives_zero_field(setup64, zero_stream):
    g, cov, fac, t = setup64
    s = sample_conditional(fac, t, ConditionSpec(u=0.0, rho=0.0), zero_stream)
    assert s.t_u == 0.0
    assert np.all(s.values == 0)


def test_unconditional_pointwise_variance(setup64):
    # Monte-Carlo oracle: empirical Var(phi(x_i)) should be C(x_i, x_i) = 1
    g, cov, fac, t = setup64
    n = 20000
    acc = np.zeros(g.m)
    for i in range(n):
        values = fac.apply(white_noise(fac.rank, COMPLEX, substream(7, 0, i)))
        acc += np.abs(values) ** 2
    var = acc / n
    assert np.all(np.abs(var - 1.0) < 0.05)


def test_complex_coefficient_null_second_moment(setup64):
    # <t_n^2> = 0 for the complex field: CLT bound on the sampled moment
    g, cov, fac, t = setup64
    n = 20000
    rng_vals = np.empty(n, dtype=complex)
    for i in range(n):
        xi = white_noise(1, COMPLEX, substream(9, 0, i))
        rng_vals[i] = xi[0] ** 2
    assert abs(rng_vals.mean()) < 4 / np.sqrt(n)


# an operator on each factor route, with its factor's rank: at M = 16 sqexp:1:0.2 needs
# more than M/2 = 8 pivots and its embedding is not positive, so it falls back to the
# dense eigh; at M = 32 sqexp:1:0.5 takes 12 pivots; exp's embedding has N = 30 columns
ROUTE_COVS = {
    "sqexp-eigh": (lambda: assemble(SquaredExponential(1, 0.2), make_grid(0, 1, 16)), 16),
    "pivoted": (lambda: assemble(SquaredExponential(1, 0.5), make_grid(0, 1, 32)), 12),
    "embedding": (lambda: assemble(Exponential(1, 0.1), make_grid(0, 1, 16)), 30),
    "rankk": (lambda: assemble(kernel_from_spec("rankk:4@1,1@3,0.5@0"), make_grid(0, 1, 16)), 3),
    "matrix-eigh": (lambda: _nonstationary(make_grid(0, 1, 16)), 16),
}


@pytest.mark.parametrize("route", ROUTE_COVS)
def test_unconditional_covariance_matches_kernel(monkeypatch, route):
    # the empirical covariance of 20000 complex draws L g against K, entry by entry;
    # a block's rows are bitwise the single draws of substream(21, 0, i)
    eigh, calls = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(1) or eigh(a))
    make, rank = ROUTE_COVS[route]
    cov = make()
    g, fac = cov.grid, sqrt_factor(cov)
    assert fac.rank == rank and bool(calls) == route.endswith("eigh")
    n = 20000
    samples = fac.apply(np.array([white_noise(fac.rank, COMPLEX, rng)
                                  for rng in keyed_streams(stream_keys(21, 0, n=n))]))
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


# (t_u, rho, theta) of two successive `sample_t_u` draws from substream(4, 1)
# with <T|C|T> = 0.37, as float.hex (a complex t_u as its real and imaginary
# parts), for the spec (scalar, mode, u) with rho = 2, and theta = 0.7 where
# complex and fixed-rho
GOLDEN_DRAWS = {
    (REAL, FIXED_RHO, 0.0): (
        "0x1.6a09e667f3bcdp+0 0x1.0000000000000p+1 0x0.0p+0",
        "0x1.6a09e667f3bcdp+0 0x1.0000000000000p+1 0x0.0p+0"),
    (REAL, FIXED_RHO, 1.0): (
        "0x1.1593c0ea1a25bp+1 0x1.0000000000000p+1 0x0.0p+0",
        "0x1.1593c0ea1a25bp+1 0x1.0000000000000p+1 0x0.0p+0"),
    (REAL, FIXED_RHO, 10.0): (
        "0x1.08028413931ffp+4 0x1.0000000000000p+1 0x0.0p+0",
        "0x1.08028413931ffp+4 0x1.0000000000000p+1 0x0.0p+0"),
    (REAL, FIXED_RHO, 1000000.0): (
        "0x1.915d5df807a94p+20 0x1.0000000000000p+1 0x0.0p+0",
        "0x1.915d5df807a94p+20 0x1.0000000000000p+1 0x0.0p+0"),
    (REAL, FIXED_RHO, 1e+153): (
        "0x1.f63a7b55bdd27p+508 0x1.0000000000000p+1 0x0.0p+0",
        "0x1.f63a7b55bdd27p+508 0x1.0000000000000p+1 0x0.0p+0"),
    (REAL, RANDOM, 0.0): (
        "0x1.489c61d0261d5p+1 0x1.a5d11a2cbcb8fp+2 0x0.0p+0",
        "0x1.a363b2af3b292p-1 0x1.5787c0dea5f44p-1 0x0.0p+0"),
    (REAL, RANDOM, 1.0): (
        "0x1.0b3ab344c62fep+1 0x1.a7e9aa95cd2d8p+0 0x0.0p+0",
        "0x1.c6634c369e318p+0 0x1.ca80173b5b208p-2 0x0.0p+0"),
    (REAL, RANDOM, 10.0): (
        "0x1.0a01b38483cd7p+4 0x1.889628e4bb900p+2 0x0.0p+0",
        "0x1.07f2f53c65806p+4 0x1.dfea07f5c6000p+0 0x0.0p+0"),
    (REAL, RANDOM, 1000000.0): (
        "0x1.915d5df808f9dp+20 0x1.87d8000000000p+2 0x0.0p+0",
        "0x1.915d5df8079f6p+20 0x1.e120000000000p+0 0x0.0p+0"),
    (REAL, RANDOM, 1e+153): (
        "0x1.f63a7b55bdd28p+508 0x1.0000000000000p+966 0x0.0p+0",
        "0x1.f63a7b55bdd28p+508 0x1.0000000000000p+966 0x0.0p+0"),
    (COMPLEX, FIXED_RHO, 0.0): (
        "0x1.14e706f25f1cep+0 0x1.d276a378efe7bp-1 0x1.0000000000000p+1 0x1.6666666666666p-1",
        "0x1.14e706f25f1cep+0 0x1.d276a378efe7bp-1 0x1.0000000000000p+1 0x1.6666666666666p-1"),
    (COMPLEX, FIXED_RHO, 1.0): (
        "0x1.a89afea4a887ap+0 0x1.65a3e673c1dfcp+0 0x1.0000000000000p+1 0x1.6666666666666p-1",
        "0x1.a89afea4a887ap+0 0x1.65a3e673c1dfcp+0 0x1.0000000000000p+1 0x1.6666666666666p-1"),
    (COMPLEX, FIXED_RHO, 10.0): (
        "0x1.93da098f1d960p+3 0x1.5428dba2d9385p+3 0x1.0000000000000p+1 0x1.6666666666666p-1",
        "0x1.93da098f1d960p+3 0x1.5428dba2d9385p+3 0x1.0000000000000p+1 0x1.6666666666666p-1"),
    (COMPLEX, FIXED_RHO, 1000000.0): (
        "0x1.32fb0cf75157bp+20 0x1.0290f5a96a4f2p+20 0x1.0000000000000p+1 0x1.6666666666666p-1",
        "0x1.32fb0cf75157bp+20 0x1.0290f5a96a4f2p+20 0x1.0000000000000p+1 0x1.6666666666666p-1"),
    (COMPLEX, FIXED_RHO, 1e+153): (
        "0x1.802020e58bad3p+508 0x1.438b60dff75ddp+508 0x1.0000000000000p+1 0x1.6666666666666p-1",
        "0x1.802020e58bad3p+508 0x1.438b60dff75ddp+508 0x1.0000000000000p+1 0x1.6666666666666p-1"),
    (COMPLEX, RANDOM, 0.0): (
        "-0x1.0af8c9e27f017p+0 -0x1.67a34e83ef7edp+0 0x1.87d2b1dac9e3ep+1 0x1.04b953ef796f2p+2",
        "0x1.d2a5743cf0fb9p-1 0x1.5143d5d912141p-2 0x1.e0d9d86e58d03p-1 0x1.63175f6221cf9p-2"),
    (COMPLEX, RANDOM, 1.0): (
        "-0x1.6e563e7ae048dp+0 -0x1.ed7e1e59a1832p+0 0x1.87d2b1dac9e3ep+1 0x1.04b953ef796f2p+2",
        "0x1.cb763d4a67e9ep+0 0x1.4c128eaa9a089p-1 0x1.e0d9d86e58d03p-1 0x1.63175f6221cf9p-2"),
    (COMPLEX, RANDOM, 10.0): (
        "-0x1.3b5740f1a3373p+3 -0x1.a8cbbba63bde7p+3 0x1.87d2b1dac9e3ep+1 0x1.04b953ef796f2p+2",
        "0x1.ef9f0ee1ef05bp+3 0x1.6634d9d54f3a8p+2 0x1.e0d9d86e58d03p-1 0x1.63175f6221cf9p-2"),
    (COMPLEX, RANDOM, 1000000.0): (
        "-0x1.de784e9fb3b94p+19 -0x1.4246096ffe603p+20 0x1.87d2b1dac9e3ep+1 0x1.04b953ef796f2p+2",
        "0x1.79794a1271854p+20 0x1.10d0f50619100p+19 0x1.e0d9d86e58d03p-1 0x1.63175f6221cf9p-2"),
    (COMPLEX, RANDOM, 1e+153): (
        "-0x1.2b5aed862ad43p+508 -0x1.9342f555060a5p+508 0x1.87d2b1dac9e3ep+1 0x1.04b953ef796f2p+2",
        "0x1.d8556c011f0c5p+508 0x1.55601ff005e65p+507 0x1.e0d9d86e58d03p-1 0x1.63175f6221cf9p-2"),
}


@pytest.mark.parametrize("scalar, mode, u", sorted(GOLDEN_DRAWS))
def test_sample_t_u_draws_are_pinned(scalar, mode, u):
    # the per-spec constants (alpha, the proposal rate, u^2/<T|C|T>) are formed
    # once per spec, and the draws stay bitwise these
    theta = 0.7 if (scalar, mode) == (COMPLEX, FIXED_RHO) else 0.0
    spec = ConditionSpec(u=u, scalar=scalar, mode=mode, rho=2.0, theta=theta)
    rng = substream(4, 1)
    for want in GOLDEN_DRAWS[scalar, mode, u]:
        t_u, rho, theta = sample_t_u(spec, 0.37, rng)
        parts = [t_u.real, t_u.imag] if scalar == COMPLEX else [t_u]
        assert " ".join(float(v).hex() for v in [*parts, rho, theta]) == want


@pytest.mark.parametrize("scalar", [REAL, COMPLEX])
def test_white_noise_block_rows_are_successive_draws(scalar):
    block = white_noise(16, scalar, substream(11, 0), n=7)
    rng = substream(11, 0)
    singles = np.array([white_noise(16, scalar, rng) for _ in range(7)])
    assert block.shape == (7, 16)
    assert block.dtype == singles.dtype
    assert block.tobytes() == singles.tobytes()


@pytest.mark.parametrize("scalar", [REAL, COMPLEX])
@pytest.mark.parametrize("n", [None, 7])
@pytest.mark.parametrize("m, w", [(16, 0.25), (64, 1.0 / 64), (33, 0.3)])
def test_white_noise_is_bitwise_the_plain_expression(scalar, n, m, w):
    # complex: (re + 1j im) / sqrt(2) from one read of 2m normals a row, with
    # coefficient j the normals (2j, 2j+1). That in-place scaling rests on
    # complex / real multiplying by the reciprocal, which is checked here at the
    # scales 1/sqrt(w) as well
    lead = () if n is None else (n,)
    for seed in range(4):
        got = white_noise(m, scalar, substream(seed, 5), n=n)
        g = substream(seed, 5).standard_normal(lead + ((2 * m,) if scalar == COMPLEX else (m,)))
        if scalar == COMPLEX:
            g = (g[..., 0::2] + 1j * g[..., 1::2]) / np.sqrt(2.0)
        assert got.shape == g.shape and got.dtype == g.dtype
        assert got.tobytes() == g.tobytes()
        if scalar == COMPLEX:
            got *= 1.0 / np.sqrt(w)
            assert got.tobytes() == (g / np.sqrt(w)).tobytes()


@pytest.mark.parametrize("m1, m2", [(1, 2), (21, 22), (22, 257)])
def test_complex_white_noise_is_a_prefix_of_a_longer_draw(m1, m2):
    # coefficient j is the normals (2j, 2j+1) of the stream, whatever the count
    # drawn, so a factor of a different rank reads the same leading coefficients
    for seed in range(4):
        short = white_noise(m1, COMPLEX, substream(seed, 5))
        long = white_noise(m2, COMPLEX, substream(seed, 5))
        assert short.tobytes() == long[:m1].tobytes()


def test_truncated_normal_half_normal_mean():
    # a real random t_u at <T|C|T> = 1 is N(0, 1) conditioned on z >= u; analytic
    # oracle at u = 0: the mean of |N(0,1)| is sqrt(2/pi)
    rng, spec = substream(17, 0), ConditionSpec(u=0.0, scalar=REAL, mode=RANDOM)
    n = 100000
    vals = np.array([sample_t_u(spec, 1.0, rng)[0] for _ in range(n)])
    assert vals.mean() == pytest.approx(np.sqrt(2 / np.pi), abs=0.01)


def test_truncated_normal_respects_large_threshold():
    rng, spec = substream(18, 0), ConditionSpec(u=40.0, scalar=REAL, mode=RANDOM)
    vals = [sample_t_u(spec, 1.0, rng)[0] for _ in range(1000)]
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
    s = sample_conditional(fac, t, spec, zero_stream)
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
    # in the factor's P-dimensional coefficient space, with its plain inner product
    g, cov, fac, t = setup64
    l_t = fac.adjoint(t.coeff)
    v = l_t / np.sqrt(np.vdot(l_t, l_t).real)
    assert np.vdot(v, v).real == pytest.approx(1.0, abs=1e-12)
    for i in range(20):
        xi = white_noise(fac.rank, COMPLEX, substream(8, i))
        c = np.vdot(v, xi)
        xi_perp = xi - c * v
        assert abs(np.vdot(v, xi_perp)) < 1e-12 * np.sqrt(np.vdot(xi, xi).real)
        # Pythagoras in the adapted basis
        t_u = 3.7 + 0.4j
        total = np.vdot(t_u * v + xi_perp, t_u * v + xi_perp).real
        r2 = np.vdot(xi_perp, xi_perp).real
        assert total == pytest.approx(abs(t_u) ** 2 + r2, rel=1e-10)


def test_orthogonal_direction_stays_standard_normal():
    # statistical independence of the coefficients orthogonal to the adapted
    # direction; invertible kernel so C^{-1/2} phi_u is computable
    g = make_grid(0, 1, 32)
    cov = assemble(Exponential(1, 0.5), g)
    fac = sqrt_factor(cov)
    assert fac.n_clipped == 0
    t = make_point_functional(g, 0.5)
    lam, vec = np.linalg.eigh(cov.op)
    s_t = (vec * lam ** 0.5) @ vec.T @ t.coeff  # the symmetric root of op, C^{1/2} T
    tct = float(inner(s_t, s_t, g).real)
    v = s_t / np.sqrt(tct)
    # fixed direction orthogonal to v (weighted Gram-Schmidt on a coordinate)
    e = np.zeros(g.m)
    e[3] = 1.0
    nu = e - inner(v, e, g) * v
    nu = nu / np.sqrt(inner(nu, nu, g).real)
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


@pytest.mark.parametrize("kernel, n_clipped", [(SquaredExponential(1, 0.2), 107),
                                               (Exponential(1, 0.1), 0)])
@pytest.mark.parametrize("scalar", [REAL, COMPLEX])
def test_pathwise_matches_adapted_basis_split(kernel, n_clipped, scalar, adapted_split,
                                              eigh_factor):
    # the rank-one update and the adapted-basis split are the same draw, to
    # roundoff, with and without cut eigenvalues; the split reads the modes of
    # a spectral factor, so exp's comes from the dense route
    g = make_grid(0, 1, 128)
    cov = assemble(kernel, g)
    fac = sqrt_factor(cov) if kernel.smooth else eigh_factor(cov)
    assert fac.n_clipped == n_clipped
    t = make_point_functional(g, 0.5)
    tct = constants(t, fac.cov).tct
    for i in range(20):
        for u in (0.0, 10.0, 1e4, 1e8):
            spec = ConditionSpec(u=u, scalar=scalar, mode=RANDOM)
            s = sample_conditional(fac, t, spec, substream(30, 0, i))
            # the reference reads xi and then the draw from a fresh stream, same key
            rng = substream(30, 0, i)
            xi = white_noise(fac.rank, scalar, rng)
            draw = sample_t_u(spec, tct, rng)
            values, r2 = adapted_split(fac, t, xi, draw[0], scalar)
            assert np.max(np.abs(s.values - values)) <= 1e-12 * np.max(np.abs(values))
            assert s.r2 >= 0.0
            assert abs(s.r2 - r2) <= 1e-12 * r2
            assert (s.t_u, s.rho, s.theta, s.u) == (*draw, u)


def _row(block, i, j):
    """Sample i at threshold j of a FieldSample block: the bytes of its field and
    of its unconditional draw, and its record with the scalar types
    `sample_conditional` gives."""
    return (block.values.dtype, block.values[i, j].tobytes(), block.phi[i].tobytes(),
            block.t1[i].item(), block.scalar, block.t_u[i, j].item(), float(block.r2[i]),
            block.u[j].item(), float(block.rho[i, j]), float(block.theta[i, j]))


@pytest.mark.parametrize("scalar, mode, theta", [
    (REAL, RANDOM, 0.0),
    (COMPLEX, FIXED_RHO, 0.7),
    (COMPLEX, RANDOM, 0.0),
])
def test_condition_pathwise_stream_matches_single_calls(setup64, scalar, mode, theta):
    # one condition_blocks call over three streams, fed by a generator, gives in
    # row i of its block bitwise the sample of a one-stream call; each stream is
    # read as xi and then (t_u, rho, theta) for each spec in order, which is
    # column j of the block; sample_conditional is row 0 of the one-spec,
    # one-stream call
    g, cov, fac, t = setup64
    tct = constants(t, cov).tct
    specs = [ConditionSpec(u=u, scalar=scalar, mode=mode, rho=2.0, theta=theta)
             for u in (0.0, 10.0, 1e6)]
    (block,) = condition_blocks(fac, t, specs, (substream(3, 0, i) for i in range(3)))
    assert block.phi.shape == (3, g.m) and block.t_u.shape == (3, 3)
    assert block.values.shape == (3, 3, g.m)
    for i in range(3):
        (single,) = condition_blocks(fac, t, specs, [substream(3, 0, i)])
        for j in range(len(specs)):
            assert _row(block, i, j) == _row(single, 0, j)
        rng = substream(3, 0, i)
        white_noise(fac.rank, scalar, rng)
        assert [(block.t_u[i, j], block.rho[i, j], block.theta[i, j])
                for j in range(len(specs))] == [sample_t_u(spec, tct, rng) for spec in specs]
    for spec in specs:
        (want,) = condition_blocks(fac, t, [spec], [substream(3, 2)])
        s = sample_conditional(fac, t, spec, substream(3, 2))
        assert not s.values.flags.writeable
        got = (s.values.dtype, s.values.tobytes(), s.phi.tobytes(), s.t1, s.scalar, s.t_u,
               s.r2, s.u, s.rho, s.theta)
        assert got == _row(want, 0, 0)
        assert [type(v) for v in got] == [type(v) for v in _row(want, 0, 0)]


@pytest.mark.parametrize("seed", [0, 31, 2**32 - 1, 2**32, 2**64 + 5, 2**200])
@pytest.mark.parametrize("path", [(), (0,), (3, 7), (2**40,)])
def test_stream_keys_are_numpys_seed_sequence_keys(seed, path):
    # bitwise numpy's keys, for a batch (stream_keys) and for one stream (substream)
    for n in (1, 128, 1000):
        want = [np.random.SeedSequence(seed, spawn_key=(*path, i)).generate_state(2, np.uint64)
                for i in range(n)]
        got = stream_keys(seed, *path, n=n)
        assert got.dtype == np.uint64 and np.array_equal(got, want)
    want = np.random.SeedSequence(seed, spawn_key=path).generate_state(2, np.uint64)
    assert np.array_equal(substream(seed, *path).bit_generator.state["state"]["key"], want)
    rekeyed = keyed_streams(stream_keys(seed, *path, n=3))
    for i, rng in enumerate(rekeyed):
        fresh = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(seed, spawn_key=(*path, i))))
        for draw in ("standard_normal", "standard_exponential", "random"):
            assert np.array_equal(getattr(rng, draw)(1000), getattr(fresh, draw)(1000))


def test_stream_keys_refuse_what_numpy_refuses_or_would_wrap():
    for seed, path in ((-1, ()), (3, (-2,)), (3, (0, -1))):
        with pytest.raises(ValueError):
            stream_keys(seed, *path, n=4)
        with pytest.raises(ValueError):
            substream(seed, *path)
    # a sample index of 2**32 or more would take two words: refused, not wrapped
    for n in (2**32, 2**40, -1):
        with pytest.raises(ValueError):
            stream_keys(0, 0, n=n)


def test_stream_keys_need_a_count():
    # one stream is numpy's own (substream); stream_keys keys only a batch
    with pytest.raises(TypeError):
        stream_keys(3, 0)


@pytest.mark.parametrize("scalar", [REAL, COMPLEX])
def test_condition_blocks_read_each_stream_before_the_next(setup64, scalar):
    # one re-keyed generator, yielded again and again, gives the blocks of a
    # list of fresh streams: each stream is read fully before the next is asked for
    g, cov, fac, t = setup64
    specs = [ConditionSpec(u=u, scalar=scalar, mode=RANDOM) for u in (1.0, 1e3)]
    for n in (1, 127, 128, 129, 300):
        seen = []

        def served():
            for rng in keyed_streams(stream_keys(13, 0, n=n)):
                seen.append(rng)
                yield rng

        got = list(condition_blocks(fac, t, specs, served()))
        want = list(condition_blocks(fac, t, specs, [substream(13, 0, i) for i in range(n)]))
        assert len(seen) == n and all(rng is seen[0] for rng in seen)
        assert len(got) == len(want) == -(-n // NOISE_BLOCK)
        for a, b in zip(got, want):
            for name in ("phi", "t_u", "rho", "theta", "t1", "r2"):
                x, y = getattr(a, name), getattr(b, name)
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name


def test_condition_pathwise_needs_specs_of_one_scalar_type(setup64):
    # xi's scalar type comes from the specs, so it must be one type
    g, cov, fac, t = setup64
    for specs in ([], [ConditionSpec(u=1.0, scalar=REAL), ConditionSpec(u=2.0, scalar=COMPLEX)]):
        with pytest.raises(ValueError, match="one scalar type"):
            next(condition_blocks(fac, t, specs, [substream(0, 0)]))


@pytest.mark.parametrize("kernel", ["exp:1:0.1", "sqexp:2.5:0.25", "rankk:4@1,1@3,0.5@0"])
@pytest.mark.parametrize("functional", ["point:0.5", "dpoint:0.37:1:4", "integral:cosine"])
@pytest.mark.parametrize("scalar", [REAL, COMPLEX])
def test_conditioning_event_holds_on_every_route(kernel, functional, scalar):
    # t_u is drawn with the constants' <T|C|T>, while <T|L g> = <l|g> reads the
    # factor's l: on the dense, pivoted and rank-k routes the two agree to roundoff
    g = make_grid(0, 1, 128)
    cov = assemble(kernel_from_spec(kernel), g)
    fac, t = sqrt_factor(cov), functional_from_spec(functional, g)
    specs = [ConditionSpec(u=u, scalar=scalar, mode=RANDOM) for u in (5.0, 1e6)]
    rngs = (substream(5, 0, i) for i in range(200))
    for s in condition_blocks(fac, t, specs, rngs):
        assert np.all(np.abs(g.w * (s.values @ t.coeff)) >= s.u * (1.0 - 1e-12))


@pytest.mark.parametrize("scalar, mode", [(REAL, FIXED_RHO), (REAL, RANDOM), (COMPLEX, RANDOM)])
def test_sample_t_u_overflowing_square_raises(deadline, scalar, mode):
    # u^2 overflows a double at u = 1e155 and 1e300; u^2/<T|C|T> alone does at u = 1e153.
    # The real tail's alpha^2 overflows too: its optimal rate must not, or every proposal
    # is rejected and the draw never returns
    for u, tct in ((1e155, 1.0), (1e300, 1.0), (1e153, 1e-4)):
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


@pytest.mark.parametrize("kernel", [Exponential(1, 0.1), SquaredExponential(1, 0.2)],
                         ids=["exp", "sqexp"])
@pytest.mark.parametrize("scalar", [REAL, COMPLEX])
def test_one_sample_draw_holds_no_block_of_noise(scalar, kernel):
    # the factor is applied to the rows drawn, and only a second stream makes room for
    # a full block: one draw holds a few rank- or M-sized vectors, not a NOISE_BLOCK x N
    # block of noise on the embedding route (rank N = 8192) nor a NOISE_BLOCK x M
    # product on the pivoted route (rank 21), whose GEMM is one padded chunk high
    g = make_grid(0, 1, 4096)
    fac = sqrt_factor(assemble(kernel, g))
    t = make_point_functional(g, 0.5)
    spec = ConditionSpec(u=10.0, scalar=scalar, mode=RANDOM)
    tracemalloc.start()
    try:
        sample_conditional(fac, t, spec, substream(0, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fac.rank == (8192 if isinstance(kernel, Exponential) else 21)
    assert peak <= 16 * 16 * max(fac.rank, g.m)
