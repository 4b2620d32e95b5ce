import dataclasses
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from condfield import concentration, covariance, errors
from condfield.concentration import (
    distance_record,
    normalized_sup_distance,
    quantiles,
    sweep,
    verify_prop1,
    verify_prop3,
)
from condfield.covariance import (
    Exponential,
    RankK,
    SquaredExponential,
    assemble,
    kernel_from_spec,
    sqrt_factor,
)
from condfield.functionals import (
    constants,
    functional_from_spec,
    make_integral_functional,
    make_point_functional,
    profile,
)
from condfield.grid import inner, l2_norm, make_grid, sup_norm
from condfield.sampling import (
    COMPLEX,
    FIXED_RHO,
    NOISE_BLOCK,
    RANDOM,
    REAL,
    ConditionSpec,
    FieldSample,
    sample_conditional,
    sample_t_u,
    stream_keys,
    substream,
    white_noise,
)


@pytest.fixture(scope="module")
def setup128():
    g = make_grid(0, 1, 128)
    cov = assemble(SquaredExponential(1, 0.2), g)
    fac = sqrt_factor(cov)
    t = make_point_functional(g, 0.5)
    return g, cov, fac, t, profile(t, cov), constants(t, cov)


def test_sup_distance_collinear_is_zero(setup128):
    g, cov, fac, t, prof, k = setup128
    s = FieldSample(phi=2.5 * prof, scalar=REAL, t_u=1.0, r2=0.0, u=0.0, rho=0.0, theta=0.0,
                    t1=1.0, k=k)
    assert normalized_sup_distance(s, prof) == pytest.approx(0.0, abs=1e-14)


def test_sup_distance_sign_flip(setup128):
    g, cov, fac, t, prof, k = setup128
    s = FieldSample(phi=-prof, scalar=REAL, t_u=1.0, r2=0.0, u=0.0, rho=0.0, theta=0.0,
                    t1=1.0, k=k)
    expected = 2 * sup_norm(prof) / l2_norm(prof, g)
    assert normalized_sup_distance(s, prof) == pytest.approx(expected, rel=1e-12)


def test_sup_distance_zero_noise_sample(setup128, zero_stream):
    g, cov, fac, t, prof, k = setup128
    spec = ConditionSpec(u=3.0, mode=FIXED_RHO, rho=0.0)
    s = sample_conditional(fac, t, spec, zero_stream)
    assert normalized_sup_distance(s, prof) < 1e-12
    with pytest.raises(errors.ZeroVector):
        normalized_sup_distance(FieldSample(phi=np.zeros(g.m), scalar=REAL, t_u=1.0,
                                            r2=0.0, u=0.0, rho=0.0, theta=0.0, t1=1.0, k=k),
                                prof)


def test_estimate0_zero_noise_vanishes(setup128, zero_stream):
    g, cov, fac, t, prof, k = setup128
    spec = ConditionSpec(u=3.0, mode=FIXED_RHO, rho=0.0)
    s = sample_conditional(fac, t, spec, zero_stream)
    rec = distance_record(s)
    assert rec.bound_rhs == pytest.approx(0.0, abs=1e-10)
    assert abs(rec.ratio) == pytest.approx(k.b_const, rel=1e-10)


def test_estimate0_dominates_sup_distance(setup128):
    # the theorem itself, used as the per-sample oracle
    g, cov, fac, t, prof, k = setup128
    spec = ConditionSpec(u=100.0, scalar=COMPLEX, mode=RANDOM)
    for i in range(100):
        s = sample_conditional(fac, t, spec, substream(14, i))
        assert normalized_sup_distance(s, prof) <= \
            distance_record(s).bound_rhs + 1e-9


def test_estimate0_homogeneous_in_a(setup128):
    g, cov, fac, t, prof, k = setup128
    spec = ConditionSpec(u=50.0, scalar=COMPLEX, mode=RANDOM)
    s = sample_conditional(fac, t, spec, substream(15, 0))
    k2 = dataclasses.replace(k, a_const=2 * k.a_const)
    assert distance_record(dataclasses.replace(s, k=k2)).bound_rhs == \
        pytest.approx(2 * distance_record(s).bound_rhs, rel=1e-12)


def test_ratio_bounds_gate(setup128):
    g, cov, fac, t, prof, k = setup128
    # tiny t_u relative to noise: not applicable, no assertion made
    spec = ConditionSpec(u=0.0, mode=FIXED_RHO, rho=0.01)
    s = sample_conditional(fac, t, spec, substream(16, 0))
    assert not distance_record(s).applicable


def test_ratio_bounds_hold_at_large_u(setup128):
    g, cov, fac, t, prof, k = setup128
    spec = ConditionSpec(u=1000.0, scalar=COMPLEX, mode=RANDOM)
    for i in range(200):
        s = sample_conditional(fac, t, spec, substream(17, i))
        rec = distance_record(s)
        assert rec.applicable
        assert rec.est12_ok  # ratio bound, residual bound and their two consequences


def test_sweep_acceptance_configuration(setup128):
    g, cov, fac, t, prof, k = setup128
    rep = sweep(fac, t, cov, [10, 100, 1000, 10000], 200, scalar=COMPLEX,
                mode=FIXED_RHO, rho=1.0, theta=0.0, seed=0)
    assert -1.15 <= rep.slope <= -0.85
    assert rep.violations_est0 == 0
    assert rep.violations_est12 == 0
    assert len(rep.records) == 800
    for r in rep.records:
        assert r.l2_dist <= np.sqrt(g.b - g.a) * r.sup_dist + 1e-12


def test_sweep_paired_envelope_monotone(setup128):
    g, cov, fac, t, prof, k = setup128
    rep = sweep(fac, t, cov, [100, 1000, 10000], 50, seed=3)
    by_sample = {}
    for r in rep.records:
        by_sample.setdefault(r.sample_index, []).append(r)
    for recs in by_sample.values():
        recs.sort(key=lambda r: r.u)
        applicable = [r for r in recs if r.applicable]
        for a, b in zip(applicable, applicable[1:]):
            assert b.bound_rhs <= a.bound_rhs * (1 + 1e-9)
    med_small = rep.per_u[0]["q50"]
    med_large = rep.per_u[-1]["q50"]
    assert med_large < med_small / ((10000 / 100) / 10)


def test_sweep_single_u_and_errors(setup128):
    g, cov, fac, t, prof, k = setup128
    rep = sweep(fac, t, cov, [100], 5, seed=0)
    assert rep.slope is None
    with pytest.raises(errors.EmptyUList):
        sweep(fac, t, cov, [], 5)
    with pytest.raises(errors.EmptyUList):
        sweep(fac, t, cov, [100, 10], 5)


def test_sweep_deterministic(setup128):
    g, cov, fac, t, prof, k = setup128
    a = sweep(fac, t, cov, [10, 100], 20, seed=9)
    b = sweep(fac, t, cov, [10, 100], 20, seed=9)
    assert a.records == b.records
    assert a.per_u == b.per_u and a.slope == b.slope


def test_verify_prop1_passes(setup128):
    g, cov, fac, t, prof, k = setup128
    res = verify_prop1(t, cov, 2000, seed=1)
    assert res["passed"] and res["all_finite"]
    assert res["var_hat"] == pytest.approx(1.0, abs=res["tolerance"])


def test_verify_prop1_scales_with_kernel():
    g = make_grid(0, 1, 64)
    t = make_point_functional(g, 0.5)
    res1 = verify_prop1(t, assemble(SquaredExponential(1, 0.2), g), 5000, seed=2)
    res4 = verify_prop1(t, assemble(SquaredExponential(4, 0.2), g), 5000, seed=2)
    assert res4["var_hat"] == pytest.approx(4 * res1["var_hat"], rel=1e-10)
    assert res4["passed"]


def test_verify_prop1_degenerate():
    g = make_grid(0, 1, 64)
    cov = assemble(SquaredExponential(1, 0.2), g)
    from condfield.functionals import LinearFunctional

    zero = LinearFunctional(grid=g, coeff=np.zeros(64))
    with pytest.raises(errors.DegenerateFunctional):
        verify_prop1(zero, cov, 2000)


def test_verify_prop3_point_case_exact():
    res = verify_prop3(SquaredExponential(1, 0.3), 0.5, 0, 2, 1e6, m=128, seed=0)
    assert res["profile_sup_dist"] < 1e-12
    assert not res["smoothness_warning"]


def test_verify_prop3_derivative_acceptance():
    res = verify_prop3(SquaredExponential(1, 0.3), 0.5, 1, 4, 1e6, m=256, seed=0)
    assert res["profile_sup_dist"] <= 1e-3
    assert res["sample_sup_dist"] <= 1e-2
    assert not res["smoothness_warning"]


def test_verify_prop3_nonsmooth_warning():
    res = verify_prop3(Exponential(1, 0.5), 0.5, 1, 4, 1e6, m=128, seed=0)
    assert res["smoothness_warning"]


def test_discretization_insensitivity():
    medians = {}
    for m in (128, 256):
        g = make_grid(0, 1, m)
        cov = assemble(SquaredExponential(1, 0.2), g)
        fac = sqrt_factor(cov)
        t = make_point_functional(g, 0.5)
        rep = sweep(fac, t, cov, [100, 1000], 50, seed=4)
        medians[m] = [p["q50"] for p in rep.per_u]
    for a, b in zip(medians[128], medians[256]):
        assert abs(b - a) / a < 0.25  # modest n_mc; acceptance test tightens this


EPS = np.finfo(float).eps


@pytest.mark.parametrize("kernel, weight, scalar, mode, rho, theta, u_list", [
    (SquaredExponential(1, 0.2), None, COMPLEX, FIXED_RHO, 1.0, 0.0, [10, 1e4, 1e8]),
    (SquaredExponential(1, 0.2), "cosine", COMPLEX, FIXED_RHO, 2.0, 0.7, [1, 1e3, 1e6]),
    (Exponential(1, 0.1), None, REAL, RANDOM, 1.0, 0.0, [10, 1e4, 1e8]),
    (Exponential(1, 0.1), "cosine", COMPLEX, RANDOM, 1.0, 0.0, [1, 1e2, 1e5]),
])
def test_sweep_matches_adapted_basis_records(kernel, weight, scalar, mode, rho, theta,
                                             u_list, adapted_split, eigh_factor):
    # every sweep record against one built from the adapted-basis split with
    # xi and then each threshold's draw, in u order, read from substream(seed, 0, i);
    # distances (and at large u the bound) are differences of unit-scale
    # vectors, so they get an absolute floor.  The split reads the modes of a
    # spectral factor, so exp's comes from the dense route
    g = make_grid(0, 1, 128)
    cov = assemble(kernel, g)
    fac = sqrt_factor(cov) if kernel.smooth else eigh_factor(cov)
    t = make_point_functional(g, 0.5) if weight is None else make_integral_functional(g, weight)
    prof, k = profile(t, cov), constants(t, cov)
    tct = k.tct
    n_mc, seed = 30, 12
    rep = sweep(fac, t, cov, u_list, n_mc, scalar=scalar, mode=mode, rho=rho,
                theta=theta, seed=seed)
    ref = []
    for i in range(n_mc):
        rng = substream(seed, 0, i)
        xi = white_noise(fac.rank, scalar, rng)
        for u in u_list:
            spec = ConditionSpec(u=float(u), scalar=scalar, mode=mode, rho=rho, theta=theta)
            t_u, rho_j, theta_j = sample_t_u(spec, tct, rng)
            values, r2 = adapted_split(fac, t, xi, t_u, scalar)
            s = FieldSample(phi=values, scalar=scalar, t_u=t_u, r2=r2, u=float(u),
                            rho=rho_j, theta=theta_j, t1=t_u, k=k)
            ref.append(dataclasses.replace(distance_record(s), sample_index=i))
    assert len(rep.records) == len(ref)
    for a, b in zip(rep.records, ref):
        for name in ("u", "sample_index", "applicable", "est0_ok", "est12_ok"):
            assert getattr(a, name) == getattr(b, name)
        for name in ("rho", "theta", "ratio", "r"):
            assert abs(getattr(a, name) - getattr(b, name)) <= 1e-12 * abs(getattr(b, name))
        assert abs(a.bound_rhs - b.bound_rhs) <= 1e-12 * b.bound_rhs + 64 * EPS * k.a_const
        for name in ("sup_dist", "l2_dist"):
            assert abs(getattr(a, name) - getattr(b, name)) <= 64 * EPS
    assert rep.violations_est0 == sum(not r.est0_ok for r in ref)
    assert rep.violations_est12 == sum(r.applicable and not r.est12_ok for r in ref)


@pytest.mark.parametrize("scalar", [REAL, COMPLEX])
def test_sweep_record_is_the_conditional_draw_on_its_stream(setup128, scalar):
    # one draw path: record i of a one-threshold sweep is sample_conditional on
    # substream(seed, 0, i), field by field and bitwise
    g, cov, fac, t, prof, k = setup128
    spec = ConditionSpec(u=100.0, scalar=scalar, mode=RANDOM)
    n_mc, seed = 6, 21
    rep = sweep(fac, t, cov, [spec.u], n_mc, scalar=scalar, mode=RANDOM, seed=seed)
    assert len(rep.records) == n_mc
    for i, rec in enumerate(rep.records):
        want = dataclasses.replace(
            distance_record(sample_conditional(fac, t, spec, substream(seed, 0, i))),
            sample_index=i)
        for f in dataclasses.fields(rec):
            assert getattr(rec, f.name) == getattr(want, f.name), f.name


def test_sweep_keys_one_stream_per_sample_in_one_call(setup128, monkeypatch):
    # the keys of substream(seed, 0, i), i < n_mc, asked for at once, and read
    # through one Philox
    g, cov, fac, t, prof, k = setup128
    requests, builds = [], []
    philox = np.random.Philox

    def recording_keys(*path, n):
        requests.append((path, n))
        return stream_keys(*path, n=n)

    def counting_philox(*args, **kwargs):
        builds.append(kwargs)
        return philox(*args, **kwargs)

    monkeypatch.setattr(concentration.sp, "stream_keys", recording_keys)
    monkeypatch.setattr(np.random, "Philox", counting_philox)
    sweep(fac, t, cov, [10.0, 100.0, 1000.0], 4, scalar=REAL, mode=RANDOM, seed=8)
    assert requests == [((8, 0), 4)]
    assert len(builds) <= 1


def test_sweep_records_do_not_depend_on_the_sample_count(setup128):
    # sample i reads only its own stream, so a shorter sweep is a prefix of a
    # longer one; the real rejection sampler reads a varying number of draws
    g, cov, fac, t, prof, k = setup128
    u_list = [10.0, 100.0, 1000.0]
    short, long = (sweep(fac, t, cov, u_list, n_mc, scalar=REAL, mode=RANDOM, seed=5)
                   for n_mc in (3, 5))
    assert len(long.records) == 5 * len(u_list)
    assert short.records == long.records[:3 * len(u_list)]


def _same_columns(a, b):
    return a.keys() == b.keys() and all(a[k].dtype == b[k].dtype
                                        and a[k].tobytes() == b[k].tobytes() for k in a)


@pytest.mark.parametrize("scalar", [REAL, COMPLEX])
def test_sweep_records_past_one_block_are_a_prefix(setup128, scalar):
    # a row of the factor's product does not depend on its block, so a record
    # depends neither on n_mc nor on its position in its block
    g, cov, fac, t, prof, k = setup128
    u_list = [10.0, 1000.0]
    short, long = (sweep(fac, t, cov, u_list, n_mc, scalar=scalar, mode=RANDOM, seed=6)
                   for n_mc in (NOISE_BLOCK + 3, 2 * NOISE_BLOCK))
    cut = (NOISE_BLOCK + 3) * len(u_list)
    assert _same_columns(short.columns, {name: col[:cut] for name, col in long.columns.items()})
    assert short.records == long.records[:cut]


@pytest.mark.parametrize("scalar", [REAL, COMPLEX])
def test_sweep_record_in_the_second_block_is_the_conditional_draw(setup128, scalar):
    g, cov, fac, t, prof, k = setup128
    spec = ConditionSpec(u=100.0, scalar=scalar, mode=RANDOM)
    i, seed = NOISE_BLOCK + 1, 23
    rep = sweep(fac, t, cov, [spec.u], NOISE_BLOCK + 2, scalar=scalar, mode=RANDOM, seed=seed)
    want = dataclasses.replace(
        distance_record(sample_conditional(fac, t, spec, substream(seed, 0, i))),
        sample_index=i)
    for f in dataclasses.fields(want):
        assert getattr(rep.records[i], f.name) == getattr(want, f.name), f.name


def _bitwise(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_quantiles_are_bitwise_np_quantile():
    # numpy's rule at every sample count up to 600, on 1-D and 2-D columns, with
    # ties of -0.0 and 0.0 (whose order np.quantile's partition sets), mixed
    # magnitudes, and a NaN, which makes its whole column NaN
    qs = [0.0, 0.1, 0.5, 0.9, 1.0]
    rng = np.random.default_rng(0)
    for n in range(1, 601):
        mixed = rng.standard_normal((n, 3)) * 10.0 ** rng.integers(-300, 300, (n, 3))
        ties = rng.choice([-0.0, 0.0, 5e-324, -1.0, 1.0, 1e300], (n, 2))
        with_nan = rng.standard_normal((n, 2))
        with_nan[rng.integers(n), 1] = np.nan
        for x in (rng.standard_normal(n), mixed, ties, ties[:, 0], with_nan):
            for q in qs:
                assert _bitwise(quantiles(x, (q,))[0], np.quantile(x, q, axis=0)), (n, q)
            for some in (qs, [0.1, 0.5, 0.9]):
                assert _bitwise(quantiles(x, some), np.quantile(x, some, axis=0)), n


@pytest.mark.parametrize("scalar, mode", [(REAL, RANDOM), (COMPLEX, FIXED_RHO)])
def test_sweep_quantiles_are_np_quantile_of_its_records(setup128, scalar, mode):
    g, cov, fac, t, prof, k = setup128
    u_list = [10.0, 100.0, 1000.0]
    rep = sweep(fac, t, cov, u_list, NOISE_BLOCK + 5, scalar=scalar, mode=mode, seed=12)
    sup_d, l2_d = (rep.columns[name].reshape(-1, len(u_list)) for name in ("sup_dist", "l2_dist"))
    q10, q50, q90 = np.quantile(sup_d, [0.1, 0.5, 0.9], axis=0)
    l2_q50 = np.quantile(l2_d, 0.5, axis=0)
    want = tuple({"u": u, "q10": float(a), "q50": float(b), "q90": float(c), "l2_q50": float(d)}
                 for u, a, b, c, d in zip(u_list, q10, q50, q90, l2_q50))
    assert repr(rep.per_u) == repr(want)


def test_sweep_memory_holds_no_field_per_record():
    # past the first block, the sweep keeps a few scalars per record (about 100
    # bytes) and no field vector (2 kB each at M = 256); its records are built
    # only on request
    g = make_grid(0, 1, 256)
    cov = assemble(Exponential(1, 0.1), g)
    fac = sqrt_factor(cov)
    t = make_point_functional(g, 0.5)

    def peak(n_mc):
        tracemalloc.start()
        try:
            sweep(fac, t, cov, [10.0, 1000.0], n_mc, scalar=REAL, mode=RANDOM, seed=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(NOISE_BLOCK), peak(8 * NOISE_BLOCK)
    assert (large - small) / (2 * 7 * NOISE_BLOCK) <= 256


@pytest.mark.parametrize("scalar, item", [(REAL, 8), (COMPLEX, 16)])
def test_sweep_peak_holds_one_noise_block(scalar, item):
    # a block's noise is dropped before the block is scored, and neither the draw nor
    # the score forms more than a few n x M arrays: the peak is one NOISE_BLOCK x rank
    # noise block and at most 3 NOISE_BLOCK x M field blocks (rank 8192 at M = 4096)
    g = make_grid(0, 1, 4096)
    cov = assemble(Exponential(1, 0.1), g)
    fac = sqrt_factor(cov)
    t = make_point_functional(g, 0.5)
    assert fac.rank == 8192
    tracemalloc.start()
    try:
        sweep(fac, t, cov, [10.0, 100.0, 1000.0, 10000.0], NOISE_BLOCK, scalar=scalar,
              mode=RANDOM, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    noise, field = NOISE_BLOCK * fac.rank * item, NOISE_BLOCK * g.m * item
    assert peak <= noise + 3 * field, (peak - noise) / field


def _exact_slope_and_bound(x, y):
    """The least-squares slope b of y on x for doubles x and y, in exact arithmetic, and
    a bound on the roundoff of its closed form from centred sums in doubles: with u =
    eps/2 and g(k) = k u / (1 - k u), each computed mean is within E = g(n) sum |x_i| / n
    of the exact one, dx_i = x_i - mean(x) to within a relative u, and the sums of
    products to within g(n + 2) of the sum of their absolute values (Higham, Accuracy
    and Stability of Numerical Algorithms, 2002, sec. 3.1 and 4.2).  As sum dx_i = 0
    exactly, an error e in a mean moves the products' sum only by n e_x e_y."""
    u = Fraction(np.finfo(float).eps) / 2
    n = len(x)
    gamma = lambda k: k * u / (1 - k * u)
    xs, ys = [Fraction(v) for v in x], [Fraction(v) for v in y]
    ex, ey = (gamma(n) * sum(abs(v) for v in vs) / n for vs in (xs, ys))
    mx, my = sum(xs) / n, sum(ys) / n
    ax, ay = [v - mx for v in xs], [v - my for v in ys]
    sxx, sxy = sum(a * a for a in ax), sum(a * b for a, b in zip(ax, ay))
    b = sxy / sxx
    d_num = n * ex * ey + gamma(n + 2) * sum((abs(a) + ex) * (abs(c) + ey) for a, c in zip(ax, ay))
    d_den = n * ex * ex + gamma(n + 2) * sum((abs(a) + ex) ** 2 for a in ax)
    assert d_den < sxx
    err = (d_num + abs(b) * d_den) / (sxx - d_den)
    return b, err + u * (abs(b) + err)


def test_sweep_slope_is_the_least_squares_slope_to_roundoff(setup128):
    # the slope is the least-squares fit of log q50 on log u, from centred sums: within
    # the roundoff bound of _exact_slope_and_bound of the exact slope of the rounded logs,
    # over u lists that reach 1e300 (np.polyfit, which does not centre log u, is outside
    # that bound on most of these fits)
    g, cov, fac, t, prof, k = setup128
    rep = sweep(fac, t, cov, [10, 100, 1000, 10000], 50, seed=4)
    q50 = np.array([row["q50"] for row in rep.per_u])
    assert rep.slope == concentration._slope(np.array([10.0, 100, 1000, 10000]), q50)
    rng = np.random.default_rng(27)
    for _ in range(3000):
        # log10 u spans 1e-6 to all of (0, top], top up to 300; log10 q50 centred on 0
        top = rng.uniform(1.0, 300.0)
        span = 10.0 ** rng.uniform(-6.0, np.log10(top))
        u = np.unique(10.0 ** (top - rng.uniform(0.0, span, int(rng.integers(2, 12)))))
        lg = np.log10(u)
        q50 = 10.0 ** (-rng.uniform(0.9, 1.1) * (lg - lg.mean()) + rng.normal(0.0, 0.05, u.size))
        x, y = np.log(u), np.log(q50)
        if x[-1] == x[0]:
            continue
        want, bound = _exact_slope_and_bound(x, y)
        assert abs(Fraction(concentration._slope(u, q50)) - want) <= bound, (u, q50)


def test_sweep_has_no_slope_where_log_u_coincide(setup128):
    # adjacent doubles near 1e10 have one double log: two thresholds but one log u to fit
    g, cov, fac, t, prof, k = setup128
    u_list = [1e10, np.nextafter(1e10, np.inf)]
    assert np.log(u_list[0]) == np.log(u_list[1])
    assert sweep(fac, t, cov, u_list, 5, seed=2).slope is None


@pytest.mark.parametrize("scalar", [REAL, COMPLEX])
def test_verify_prop1_matches_per_field_reference(scalar):
    # <C^{1/2} T|xi> against <T|phi> read off every formed field
    g = make_grid(0, 1, 64)
    cov = assemble(SquaredExponential(1, 0.2), g)
    t = make_point_functional(g, 0.5)
    fac = sqrt_factor(cov)
    n_mc, seed = 2000, 5
    rng = substream(seed, 0)
    vals = np.array([inner(t.coeff, fac.apply(white_noise(fac.rank, scalar, rng)), g)
                     for _ in range(n_mc)])
    var_ref = float(np.mean(np.abs(vals) ** 2))
    res = verify_prop1(t, cov, n_mc, seed=seed, scalar=scalar)
    assert res["all_finite"]
    assert abs(res["var_hat"] - var_ref) <= 1e-12 * var_ref


def test_verify_prop1_builds_one_stream(monkeypatch):
    builds = []

    def counting_substream(*key):
        builds.append(key)
        return substream(*key)

    monkeypatch.setattr(concentration.sp, "substream", counting_substream)
    g = make_grid(0, 1, 32)
    cov = assemble(SquaredExponential(1, 0.2), g)
    for n_mc in (1000, 1300):
        verify_prop1(make_point_functional(g, 0.5), cov, n_mc, seed=3)
    assert builds == [(3, 0), (3, 0)]


@pytest.mark.parametrize("scalar", [REAL, COMPLEX])
def test_verify_prop1_block_size_only_caps_memory(monkeypatch, scalar):
    g = make_grid(0, 1, 64)
    cov = assemble(Exponential(1, 0.1), g)
    t = make_point_functional(g, 0.3)
    ref = verify_prop1(t, cov, 1000, seed=2, scalar=scalar)["var_hat"]
    monkeypatch.setattr(concentration, "NOISE_BLOCK", 7)
    res = verify_prop1(t, cov, 1000, seed=2, scalar=scalar)["var_hat"]
    assert abs(res - ref) <= 1e-12 * ref


@pytest.mark.parametrize("slack", [concentration.BOUND_SLACK, -0.1])
@pytest.mark.parametrize("scalar, mode, theta", [
    (REAL, RANDOM, 0.0),
    (COMPLEX, FIXED_RHO, 0.7),
    (COMPLEX, RANDOM, 0.0),
])
def test_distance_record_flags_follow_the_slack(monkeypatch, slack, scalar, mode, theta):
    # the record's sup distance is the public one, formed from the field, to
    # roundoff, and its flags compare the bound chain under BOUND_SLACK. A
    # negative slack makes part of the flags fail, so they are not all trivially true.
    monkeypatch.setattr(concentration, "BOUND_SLACK", slack)
    g = make_grid(0, 1, 64)
    cov = assemble(Exponential(1, 0.1), g)
    fac = sqrt_factor(cov)
    t = make_integral_functional(g, "cosine")
    prof = profile(t, cov)
    flags = set()
    for i in range(10):
        for u in (1.0, 30.0, 1e4):
            spec = ConditionSpec(u=u, scalar=scalar, mode=mode, rho=0.5, theta=theta)
            s = sample_conditional(fac, t, spec, substream(9, i))
            rec = dataclasses.replace(distance_record(s), sample_index=i)
            assert abs(rec.sup_dist - normalized_sup_distance(s, prof)) <= 64 * EPS
            assert rec.est0_ok == (rec.sup_dist <= rec.bound_rhs + slack * (1 + rec.bound_rhs))
            flags.add((rec.applicable, rec.est12_ok))
    assert {applicable for applicable, _ in flags} == {True, False}
    assert ((True, False) in flags) == (slack < 0)


@pytest.mark.parametrize("other", [(0, 1, 65), (0, 2, 64)])
def test_mismatched_factor_grid_raises(other):
    g = make_grid(0, 1, 64)
    t = make_point_functional(g, 0.5)
    cov = assemble(SquaredExponential(1, 0.2), g)
    fac = sqrt_factor(assemble(SquaredExponential(1, 0.2), make_grid(*other)))
    with pytest.raises(errors.GridMismatch):
        sample_conditional(fac, t, ConditionSpec(u=10.0), substream(0, 0))
    with pytest.raises(errors.GridMismatch):
        sweep(fac, t, cov, [10.0], 5)


def test_sweep_rejects_a_factor_of_another_kernel():
    # the noise and the profile it is scored against come from one operator
    g = make_grid(0, 1, 64)
    t = make_point_functional(g, 0.5)
    fac = sqrt_factor(assemble(SquaredExponential(1, 0.2), g))
    for other in (Exponential(1, 0.1), SquaredExponential(1, 0.3)):
        with pytest.raises(errors.GridMismatch, match="different kernels"):
            sweep(fac, t, assemble(other, g), [10.0], 5)
    assert sweep(fac, t, assemble(SquaredExponential(1, 0.2), g), [10.0], 5).per_u


@pytest.mark.parametrize("kernel, functional, m", [
    ("sqexp:1:0.2", "point:0.5", 128),
    ("exp:1:0.1", "point:0.5", 128),
    ("sqexp:2.5:0.25", "dpoint:0.37:1:4", 200),
    ("sqexp:1:0.2", "integral:cosine", 512),
    ("rankk:4@1,1@3,0.5@0", "point:0.3", 100),
])
def test_large_u_floor_does_not_depend_on_the_factor(kernel, functional, m):
    # samples are conditioned along the profile they are scored against, so at
    # large u no factor's error in the profile direction (up to 235 eps) sets a
    # floor under the sup distance
    g = make_grid(0, 1, m)
    cov = assemble(kernel_from_spec(kernel), g)
    t = functional_from_spec(functional, g)
    rep = sweep(sqrt_factor(cov), t, cov, [1e6, 1e50, 1e100], 200, seed=1)
    assert rep.per_u[0]["q50"] > 4 * EPS
    assert all(row["q50"] <= 4 * EPS for row in rep.per_u[1:])


@pytest.mark.parametrize("kernel, scalar, mode", [
    ("sqexp:1:0.2", COMPLEX, FIXED_RHO),
    ("exp:1:0.1", REAL, RANDOM),
])
def test_rate_and_envelope_hold_up_to_u_1e150(monkeypatch, kernel, scalar, mode):
    # the distances carry no difference of two unit vectors, so q50 u stays put
    # past u = 1e15, where that roundoff (about eps) would set q50, and the
    # envelope holds with no slack
    monkeypatch.setattr(concentration, "BOUND_SLACK", 0.0)
    g = make_grid(0, 1, 128)
    cov = assemble(kernel_from_spec(kernel), g)
    u_list = [1e2, 1e6, 1e10, 1e14, 1e16, 1e50, 1e100, 1e150]
    rep = sweep(sqrt_factor(cov), make_point_functional(g, 0.5), cov, u_list, 200,
                scalar=scalar, mode=mode, seed=1)
    assert abs(rep.slope + 1.0) <= 0.01
    q50_u = np.array([row["q50"] * row["u"] for row in rep.per_u])
    assert np.all(np.abs(q50_u / q50_u[1] - 1.0) <= 0.01)
    assert np.max(rep.columns["sup_dist"] / rep.columns["bound_rhs"]) <= 1.0


@pytest.mark.parametrize("kernel, m, scalar, mode", [
    (SquaredExponential(1, 0.2), 256, COMPLEX, FIXED_RHO),
    (SquaredExponential(1, 0.2), 256, REAL, RANDOM),
    (RankK(((4.0, 1), (1.0, 3), (0.5, 0))), 100, COMPLEX, FIXED_RHO),
    (RankK(((4.0, 1), (1.0, 3), (0.5, 0))), 100, REAL, RANDOM),
], ids=["sqexp-complex", "sqexp-real", "rankk-complex", "rankk-real"])
def test_bound_chain_holds_with_fewer_modes_than_points(kernel, m, scalar, mode):
    # r is the residual over P < M modes; estimates 0-2 still follow, because
    # every row of L has norm sqrt(K(x, x)) <= A
    g = make_grid(0, 1, m)
    cov = assemble(kernel, g)
    fac = sqrt_factor(cov)
    assert fac.rank < m
    t = make_point_functional(g, 0.5)
    a2 = constants(t, cov).a_const ** 2
    rows2 = np.sum(fac.modes ** 2, axis=1)
    assert np.all(np.abs(rows2 - np.diag(cov.op) / g.w) <= 1e-10 * a2)
    rep = sweep(fac, t, cov, [10, 100, 1000, 10000], 200, scalar=scalar, mode=mode, seed=3)
    assert rep.violations_est0 == rep.violations_est12 == 0
    assert -1.15 <= rep.slope <= -0.85


class _RecordingStream:
    """A stream that records how many normals each read draws."""

    def __init__(self, rng, reads):
        self.rng, self.reads = rng, reads

    def standard_normal(self, shape):
        self.reads.append(int(np.prod(shape)))
        return self.rng.standard_normal(shape)


@pytest.mark.parametrize("scalar, per_coefficient", [(REAL, 1), (COMPLEX, 2)])
def test_verify_prop1_reads_p_normals_per_draw(monkeypatch, scalar, per_coefficient):
    # one coefficient per mode the clip leaves, P < M here, and nothing else
    g = make_grid(0, 1, 64)
    cov = assemble(SquaredExponential(1, 0.2), g)
    p = sqrt_factor(cov).rank
    assert p < g.m
    reads = []
    monkeypatch.setattr(concentration.sp, "substream",
                        lambda *key: _RecordingStream(substream(*key), reads))
    n_mc = 1000 + 3
    verify_prop1(make_point_functional(g, 0.5), cov, n_mc, seed=4, scalar=scalar)
    assert sum(reads) == n_mc * p * per_coefficient


def test_no_command_forms_the_symmetric_root(monkeypatch):
    # sweep and verify_prop1 read only the M x P factor, never its cached root
    g = make_grid(0, 1, 64)
    cov = assemble(SquaredExponential(1, 0.2), g)
    t = make_point_functional(g, 0.5)
    made = []

    def recording(c):
        made.append(sqrt_factor(c))
        return made[-1]

    monkeypatch.setattr(concentration.cv, "sqrt_factor", recording)
    fac = sqrt_factor(cov)
    sweep(fac, t, cov, [10.0, 100.0], 5, scalar=REAL, mode=RANDOM, seed=1)
    verify_prop1(t, cov, 1000, seed=1)
    assert len(made) == 1
    assert all("s" not in vars(f) for f in (fac, *made))


def test_ritz_and_eigh_factors_give_the_same_prop1_verdict(monkeypatch, eigh_factor):
    # the routes draw different samples (P = 21 against 22 here), so they are
    # compared on statistics: verify_prop1 passes on both, seed by seed
    g = make_grid(0, 1, 512)
    cov = assemble(SquaredExponential(1, 0.2), g)
    t = make_point_functional(g, 0.5)
    ritz, dense = sqrt_factor(cov), eigh_factor(cov)
    assert ritz.rank < dense.rank
    for fac in (ritz, dense):
        monkeypatch.setattr(concentration.cv, "sqrt_factor", lambda c, fac=fac: fac)
        for scalar, seeds in ((COMPLEX, range(8)), (REAL, range(4))):
            for seed in seeds:
                assert verify_prop1(t, cov, 20000, seed=seed, scalar=scalar)["passed"]


@pytest.mark.parametrize("kernel, functional, scalar, mode", [
    ("sqexp:1:0.2", "point:0.5", COMPLEX, FIXED_RHO),
    ("sqexp:1:0.2", "integral:cosine", REAL, RANDOM),
    ("rankk:4@1,1@3,0.5@0", "point:0.5", COMPLEX, RANDOM),
    ("sqexp:2:0.3", "dpoint:0.5:1", REAL, FIXED_RHO),
])
def test_ritz_and_eigh_factors_give_the_same_sweep_slope(kernel, functional, scalar, mode,
                                                         eigh_factor):
    # over u in [1e2, 1e8] both routes' q50 follow the 1/u rate
    g = make_grid(0, 1, 128)
    cov = assemble(kernel_from_spec(kernel), g)
    t = functional_from_spec(functional, g)
    assert covariance._pivoted_pairs(cov.op) is not None
    ritz, dense = sqrt_factor(cov), eigh_factor(cov)
    u_list = [10.0 ** k for k in range(2, 9)]
    reps = [sweep(fac, t, cov, u_list, 200, scalar=scalar, mode=mode, seed=1) for fac in (ritz, dense)]
    for rep in reps:
        assert rep.violations_est0 == rep.violations_est12 == 0
    assert abs(reps[0].slope - reps[1].slope) <= 1e-3


def test_circulant_and_eigh_factors_give_the_same_prop1_verdict(monkeypatch, eigh_factor):
    # exp's embedding draws N = 1024 coefficients, the dense route M = 512, so the
    # routes are compared on statistics: verify_prop1 passes on both, seed by seed
    g = make_grid(0, 1, 512)
    cov = assemble(Exponential(1, 0.1), g)
    t = make_point_functional(g, 0.5)
    circulant, dense = sqrt_factor(cov), eigh_factor(cov)
    assert isinstance(circulant, covariance.CirculantFactor)
    assert (circulant.rank, dense.rank) == (1024, 512)
    for fac in (circulant, dense):
        monkeypatch.setattr(concentration.cv, "sqrt_factor", lambda c, fac=fac: fac)
        for scalar, seeds in ((COMPLEX, range(8)), (REAL, range(4))):
            for seed in seeds:
                assert verify_prop1(t, cov, 20000, seed=seed, scalar=scalar)["passed"]


@pytest.mark.parametrize("functional, scalar, mode", [
    ("point:0.5", COMPLEX, FIXED_RHO),
    ("integral:cosine", REAL, RANDOM),
    ("point:0.3", COMPLEX, RANDOM),
    ("point:0.5", REAL, RANDOM),
])
def test_circulant_and_eigh_factors_give_the_same_sweep_slope(functional, scalar, mode,
                                                              eigh_factor):
    # over u in [1e2, 1e8] both routes' q50 follow the 1/u rate on exp
    g = make_grid(0, 1, 128)
    cov = assemble(Exponential(1, 0.1), g)
    t = functional_from_spec(functional, g)
    circulant, dense = sqrt_factor(cov), eigh_factor(cov)
    assert isinstance(circulant, covariance.CirculantFactor)
    u_list = [10.0 ** k for k in range(2, 9)]
    reps = [sweep(fac, t, cov, u_list, 200, scalar=scalar, mode=mode, seed=1)
            for fac in (circulant, dense)]
    for rep in reps:
        assert rep.violations_est0 == rep.violations_est12 == 0
    assert abs(reps[0].slope - reps[1].slope) <= 1e-3
