import dataclasses

import numpy as np
import pytest

from condfield import concentration, errors
from condfield.concentration import (
    distance_record,
    normalized_sup_distance,
    sweep,
    verify_prop1,
    verify_prop3,
)
from condfield.covariance import Exponential, SquaredExponential, assemble, sqrt_factor
from condfield.functionals import (
    constants,
    make_integral_functional,
    make_point_functional,
    profile,
)
from condfield.grid import inner, l2_norm, make_grid, sup_norm
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
    s = FieldSample(values=2.5 * prof, scalar=REAL, t_u=1.0, r2=0.0, u=0.0, rho=0.0, theta=0.0)
    assert normalized_sup_distance(s, prof, g) == pytest.approx(0.0, abs=1e-14)


def test_sup_distance_sign_flip(setup128):
    g, cov, fac, t, prof, k = setup128
    s = FieldSample(values=-prof, scalar=REAL, t_u=1.0, r2=0.0, u=0.0, rho=0.0, theta=0.0)
    expected = 2 * sup_norm(prof) / l2_norm(prof, g)
    assert normalized_sup_distance(s, prof, g) == pytest.approx(expected, rel=1e-12)


def test_sup_distance_zero_noise_sample(setup128, zero_stream):
    g, cov, fac, t, prof, k = setup128
    spec = ConditionSpec(u=3.0, mode=FIXED_RHO, rho=0.0)
    (s,), = condition_pathwise(fac, t, [spec], [zero_stream])
    assert normalized_sup_distance(s, prof, g) < 1e-12
    with pytest.raises(errors.ZeroVector):
        normalized_sup_distance(FieldSample(values=np.zeros(g.m), scalar=REAL, t_u=1.0,
                                            r2=0.0, u=0.0, rho=0.0, theta=0.0), prof, g)


def test_estimate0_zero_noise_vanishes(setup128, zero_stream):
    g, cov, fac, t, prof, k = setup128
    spec = ConditionSpec(u=3.0, mode=FIXED_RHO, rho=0.0)
    (s,), = condition_pathwise(fac, t, [spec], [zero_stream])
    rec = distance_record(s, k, g)
    assert rec.bound_rhs == pytest.approx(0.0, abs=1e-10)
    assert abs(rec.ratio) == pytest.approx(k.b_const, rel=1e-10)


def test_estimate0_dominates_sup_distance(setup128):
    # the theorem itself, used as the per-sample oracle
    g, cov, fac, t, prof, k = setup128
    spec = ConditionSpec(u=100.0, scalar=COMPLEX, mode=RANDOM)
    for i in range(100):
        s = sample_conditional(fac, t, spec, substream(14, i))
        assert normalized_sup_distance(s, prof, g) <= \
            distance_record(s, k, g).bound_rhs + 1e-9


def test_estimate0_homogeneous_in_a(setup128):
    g, cov, fac, t, prof, k = setup128
    spec = ConditionSpec(u=50.0, scalar=COMPLEX, mode=RANDOM)
    s = sample_conditional(fac, t, spec, substream(15, 0))
    k2 = dataclasses.replace(k, a_const=2 * k.a_const)
    assert distance_record(s, k2, g).bound_rhs == \
        pytest.approx(2 * distance_record(s, k, g).bound_rhs, rel=1e-12)


def test_ratio_bounds_gate(setup128):
    g, cov, fac, t, prof, k = setup128
    # tiny t_u relative to noise: not applicable, no assertion made
    spec = ConditionSpec(u=0.0, mode=FIXED_RHO, rho=0.01)
    s = sample_conditional(fac, t, spec, substream(16, 0))
    assert not distance_record(s, k, g).applicable


def test_ratio_bounds_hold_at_large_u(setup128):
    g, cov, fac, t, prof, k = setup128
    spec = ConditionSpec(u=1000.0, scalar=COMPLEX, mode=RANDOM)
    for i in range(200):
        s = sample_conditional(fac, t, spec, substream(17, i))
        rec = distance_record(s, k, g)
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
                                             u_list, adapted_split):
    # every sweep record against one built from the adapted-basis split with
    # xi and then each threshold's draw, in u order, read from substream(seed, 0, i);
    # distances (and at large u the bound) are differences of unit-scale
    # vectors, so they get an absolute floor
    g = make_grid(0, 1, 128)
    cov = assemble(kernel, g)
    fac = sqrt_factor(cov)
    t = make_point_functional(g, 0.5) if weight is None else make_integral_functional(g, weight)
    prof, k = profile(t, cov), constants(t, cov)
    s_t = fac.apply(t.coeff)
    tct = float(inner(s_t, s_t, g).real)
    n_mc, seed = 30, 12
    rep = sweep(fac, t, cov, u_list, n_mc, scalar=scalar, mode=mode, rho=rho,
                theta=theta, seed=seed)
    ref = []
    for i in range(n_mc):
        rng = substream(seed, 0, i)
        xi = white_noise(g.m, g.w, scalar, rng)
        for u in u_list:
            spec = ConditionSpec(u=float(u), scalar=scalar, mode=mode, rho=rho, theta=theta)
            t_u, rho_j, theta_j = sample_t_u(spec, tct, rng)
            values, r2 = adapted_split(fac, t, xi, t_u, scalar)
            s = FieldSample(values=values, scalar=scalar, t_u=t_u, r2=r2, u=float(u),
                            rho=rho_j, theta=theta_j)
            ref.append(distance_record(s, k, g, sample_index=i))
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
        want = distance_record(sample_conditional(fac, t, spec, substream(seed, 0, i)), k, g, i)
        for f in dataclasses.fields(rec):
            assert getattr(rec, f.name) == getattr(want, f.name), f.name


def test_sweep_builds_one_stream_per_sample(setup128, monkeypatch):
    g, cov, fac, t, prof, k = setup128
    builds = []

    def counting_substream(*key):
        builds.append(key)
        return substream(*key)

    monkeypatch.setattr(concentration.sp, "substream", counting_substream)
    sweep(fac, t, cov, [10.0, 100.0, 1000.0], 4, scalar=REAL, mode=RANDOM, seed=8)
    assert builds == [(8, 0, i) for i in range(4)]


def test_sweep_records_do_not_depend_on_the_sample_count(setup128):
    # sample i reads only its own stream, so a shorter sweep is a prefix of a
    # longer one; the real rejection sampler reads a varying number of draws
    g, cov, fac, t, prof, k = setup128
    u_list = [10.0, 100.0, 1000.0]
    short, long = (sweep(fac, t, cov, u_list, n_mc, scalar=REAL, mode=RANDOM, seed=5)
                   for n_mc in (3, 5))
    assert len(long.records) == 5 * len(u_list)
    assert short.records == long.records[:3 * len(u_list)]


@pytest.mark.parametrize("scalar", [REAL, COMPLEX])
def test_verify_prop1_matches_per_field_reference(scalar):
    # <C^{1/2} T|xi> against <T|phi> read off every formed field
    g = make_grid(0, 1, 64)
    cov = assemble(SquaredExponential(1, 0.2), g)
    t = make_point_functional(g, 0.5)
    fac = sqrt_factor(cov)
    n_mc, seed = 2000, 5
    rng = substream(seed, 0)
    vals = np.array([inner(t.coeff, fac.apply(white_noise(g.m, g.w, scalar, rng)), g)
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
    # the record's sup distance is the public one, and its flags compare the
    # bound chain under BOUND_SLACK. A negative slack makes part of the flags
    # fail, so they are not all trivially true.
    monkeypatch.setattr(concentration, "BOUND_SLACK", slack)
    g = make_grid(0, 1, 64)
    cov = assemble(Exponential(1, 0.1), g)
    fac = sqrt_factor(cov)
    t = make_integral_functional(g, "cosine")
    prof, consts = profile(t, cov), constants(t, cov)
    flags = set()
    for i in range(10):
        for u in (1.0, 30.0, 1e4):
            spec = ConditionSpec(u=u, scalar=scalar, mode=mode, rho=0.5, theta=theta)
            s = sample_conditional(fac, t, spec, substream(9, i))
            rec = distance_record(s, consts, g, sample_index=i)
            assert rec.sup_dist == normalized_sup_distance(s, prof, g)
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
