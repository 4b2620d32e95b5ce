import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from conftest import load_byteid

import condfield as cf
from condfield import cli, concentration, covariance
from condfield.cli import main
from condfield.sampling import NOISE_BLOCK

byteid = load_byteid()


def run(args):
    return main(args)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def read_strict_json(path):
    def refuse(name):
        raise ValueError(f"non-strict JSON constant {name}")

    return json.loads(path.read_text(), parse_constant=refuse)


def test_profile_writes_kernel_column(tmp_path):
    out = tmp_path / "profile.csv"
    assert run(["profile", "--kernel", "sqexp:1:0.2", "--functional", "point:0.5",
                "--grid", "64", "--out", str(out)]) == 0
    rows = read_csv(out)
    assert rows[0] == ["x", "profile_value", "analytic_value"]
    assert len(rows) == 65
    x = np.array([float(r[0]) for r in rows[1:]])
    vals = np.array([float(r[1]) for r in rows[1:]])
    x0 = x[np.argmax(vals)]
    assert np.allclose(vals, np.exp(-((x - x0) ** 2) / (2 * 0.2 ** 2)), atol=1e-12)


def test_condition_deterministic(tmp_path):
    args = ["condition", "--u", "1000", "--mode", "fixed-rho:1", "--seed", "7",
            "--grid", "64"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    sidecar = json.loads((tmp_path / "a.json").read_text())
    assert sidecar["u"] == 1000.0
    assert sidecar["sup_dist"] <= sidecar["bound_rhs"] + 1e-9
    assert sidecar["config"]["seed"] == 7


def test_sweep_outputs_and_determinism(tmp_path):
    args = ["sweep", "--u-list", "10,100,1000", "--mc", "20", "--seed", "3",
            "--grid", "64"]
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert (tmp_path / "s1.json").read_bytes() == (tmp_path / "s2.json").read_bytes()
    report = json.loads((tmp_path / "s1.json").read_text())
    assert report["violations_est0"] == 0
    assert report["violations_est12"] == 0
    assert -1.2 <= report["slope"] <= -0.8
    assert [p["u"] for p in report["per_u"]] == [10.0, 100.0, 1000.0]
    rows = read_csv(out1)
    assert rows[0][:4] == ["u", "sample_index", "rho", "theta"]
    assert len(rows) == 1 + 3 * 20
    for r in rows[1:]:
        assert float(r[5]) <= float(r[4]) + 1e-12  # l2_dist <= sup_dist on [0,1]


def test_sweep_is_invariant_under_translation_of_the_domain(tmp_path):
    # a stationary kernel's operator depends on the index lag alone, so the same
    # sweep on (1000, 1001) writes the bytes it writes on (0, 1)
    outs = []
    for a in (0, 1000):
        outs.append(tmp_path / f"s{a}.csv")
        assert run(["sweep", "--domain", f"{a},{a + 1}", "--functional", f"point:{a + 0.5}",
                    "--grid", "500", "--u-list", "10,100,1000", "--mc", "50",
                    "--out", str(outs[-1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_sweep_single_u_slope_null(tmp_path):
    out = tmp_path / "s.csv"
    assert run(["sweep", "--u-list", "100", "--mc", "5", "--grid", "64",
                "--out", str(out)]) == 0
    report = json.loads((tmp_path / "s.json").read_text())
    assert report["slope"] is None


def test_verify_prop1(tmp_path):
    out = tmp_path / "v.json"
    assert run(["verify", "prop1", "--mc", "2000", "--kernel", "sqexp:1:0.2",
                "--functional", "point:0.5", "--grid", "64", "--out", str(out)]) == 0
    res = json.loads(out.read_text())["result"]
    assert res["passed"]
    assert abs(res["var_hat"] - 1.0) < res["tolerance"]


def test_verify_prop3_with_warning(tmp_path):
    out = tmp_path / "v.json"
    code = run(["verify", "prop3", "--functional", "dpoint:0.5:1:4",
                "--kernel", "exp:1:0.5", "--grid", "128", "--out", str(out)])
    assert code == 0
    res = json.loads(out.read_text())["result"]
    assert res["smoothness_warning"]
    assert res["passed_with_warning"]


def test_verify_bounds(tmp_path):
    out = tmp_path / "v.json"
    assert run(["verify", "bounds", "--u", "1000", "--mc", "200", "--grid", "64",
                "--out", str(out)]) == 0
    res = json.loads(out.read_text())["result"]
    assert res["violations"] == 0


def test_env_seed_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("CONDENSATE_SEED", "123")
    out = tmp_path / "c.csv"
    assert run(["condition", "--u", "10", "--grid", "64", "--out", str(out)]) == 0
    sidecar = json.loads((tmp_path / "c.json").read_text())
    assert sidecar["config"]["seed"] == 123


@pytest.mark.parametrize("slack", [concentration.BOUND_SLACK, -0.1])
@pytest.mark.parametrize("scalar, mode", [("complex", "fixed-rho:1"), ("real", "random")])
def test_verify_bounds_counts_like_sweep(tmp_path, monkeypatch, slack, scalar, mode):
    # a negative slack makes part of the records fail, so the counts are not
    # trivially zero on both sides
    monkeypatch.setattr(concentration, "BOUND_SLACK", slack)
    out = tmp_path / "v.json"
    code = run(["verify", "bounds", "--u", "100", "--mc", "40", "--grid", "64",
                "--scalar", scalar, "--mode", mode, "--seed", "5", "--out", str(out)])
    g = cf.make_grid(0, 1, 64)
    cov = cf.assemble(cf.SquaredExponential(1, 0.2), g)
    t = cf.make_point_functional(g, 0.5)
    rep = cf.sweep(cf.sqrt_factor(cov), t, cov, [100.0], 40, scalar=scalar,
                   mode=mode.split(":")[0], seed=5)
    expected = sum(not r.est0_ok or (r.applicable and not r.est12_ok) for r in rep.records)
    assert json.loads(out.read_text())["result"]["violations"] == expected
    assert code == (0 if expected == 0 else 3)
    assert (expected > 0) == (slack < 0)


def test_sweep_slope_skips_u_zero(tmp_path):
    # log 0 is left out of the rate fit: u = 0 first gives the slope of the rest
    # (fixed-rho draws do not depend on the threshold's substream)
    slopes = []
    for u_list in ("0,10,100", "10,100"):
        out = tmp_path / f"s{len(slopes)}.csv"
        assert run(["sweep", "--u-list", u_list, "--mode", "fixed-rho:1", "--mc", "20",
                    "--grid", "64", "--seed", "5", "--out", str(out)]) == 0
        slopes.append(json.loads(out.with_suffix(".json").read_text())["slope"])
    assert slopes[1] is not None
    assert slopes[0] == slopes[1]
    g = cf.make_grid(0, 1, 64)
    cov = cf.assemble(cf.SquaredExponential(1, 0.2), g)
    rep = cf.sweep(cf.sqrt_factor(cov), cf.make_point_functional(g, 0.5), cov, [0.0, 10.0], 5)
    assert rep.slope is None


def test_write_json_rejects_non_finite(tmp_path):
    path = tmp_path / "r.json"
    with pytest.raises(ValueError):
        cli._write_json(str(path), {"value": float("nan")})
    assert not path.exists()


_SCALAR_MODES = [("complex", "fixed-rho:1"), ("complex", "random"),
                 ("real", "fixed-rho:1"), ("real", "random")]
# rank-one kernels on M <= 4 points whose samples all lie on the profile, so q50 is 0
# or within roundoff of it
ON_PROFILE_SWEEPS = (
    [("rankk:1@0", f, m, s, mode) for f in ("point:0.5", "point:0.3", "integral:uniform")
     for m in (2, 4) for s, mode in _SCALAR_MODES]
    + [("rankk:1@1", f, m, "real", mode) for f, m in (("point:0.5", 2), ("point:0.5", 4),
       ("point:0.3", 2), ("point:0.3", 4), ("integral:cosine", 2))
       for mode in ("fixed-rho:1", "random")]
    + [("rankk:1@1", f, 2, "complex", "fixed-rho:1") for f in ("point:0.5", "point:0.3")])


@pytest.mark.parametrize("kernel, functional, m, scalar, mode", ON_PROFILE_SWEEPS)
def test_sweep_on_the_profile_has_no_slope(tmp_path, kernel, functional, m, scalar, mode):
    # log q50 is -inf where q50 = 0: no fit, no warning, and a JSON report
    out = tmp_path / "o.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["sweep", "--kernel", kernel, "--functional", functional, "--grid", str(m),
                     "--scalar", scalar, "--mode", mode, "--u-list", "10,100", "--mc", "3",
                     "--out", str(out)]) == 0
    assert caught == []
    report = json.loads(out.with_suffix(".json").read_text())
    q50 = [row["q50"] for row in report["per_u"]]
    assert max(q50) <= 4 * np.finfo(float).eps
    assert (report["slope"] is None) == (min(q50) == 0.0)


@pytest.mark.parametrize("argv, target", [
    (["sweep", "--u-list", "10,100", "--mc", "5"], "sweep"),
    (["condition", "--u", "100"], "distance_record"),
], ids=["sweep", "condition"])
def test_report_that_cannot_be_serialized_leaves_no_file(tmp_path, monkeypatch, argv, target):
    # a NaN in the JSON report exits 2 before the CSV opens
    real = getattr(concentration, target)
    field = {"sweep": "slope", "distance_record": "sup_dist"}[target]
    monkeypatch.setattr(concentration, target, lambda *a, **k: dataclasses.replace(
        real(*a, **k), **{field: float("nan")}))
    assert run(argv + ["--grid", "64", "--out", str(tmp_path / "o.csv")]) == 2
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv, factorizations, cov_applies, factor_applies", [
    (["profile"], 0, 1, 0),
    (["condition", "--u", "100"], 1, 1, 1),
    (["sweep", "--u-list", "10,100", "--mc", "20"], 1, 1, 1),
    (["verify", "prop1", "--mc", "1000"], 1, 1, 0),
    (["verify", "prop3"], 1, 1, 1),
    (["verify", "bounds", "--mc", "20"], 1, 1, 1),
    (["condition", "--u", "100", "--kernel", "exp:1:0.1"], 1, 1, 1),
    (["sweep", "--u-list", "10,100", "--mc", "20", "--kernel", "exp:1:0.1"], 1, 1, 1),
], ids=["profile", "condition", "sweep", "prop1", "prop3", "bounds", "condition-exp",
        "sweep-exp"])
def test_one_factorization_per_command(tmp_path, monkeypatch, argv, factorizations,
                                       cov_applies, factor_applies):
    # a conditioned draw applies the factor to each block of NOISE_BLOCK noise
    # rows once, ceil(n_mc / NOISE_BLOCK), and never to v; L^T T is not an
    # apply, and prop1 needs nothing else; condition and prop3 draw with the
    # constants they score against, so every command applies the operator once
    calls, applies, factor_calls = [], [], []
    sqrt_factor = covariance.sqrt_factor
    apply = covariance.CovOperator.apply
    factor_apply = covariance.Factor.apply

    def counting(cov):
        calls.append(cov.grid.m)
        return sqrt_factor(cov)

    def counting_apply(cov, phi):
        applies.append(cov.grid.m)
        return apply(cov, phi)

    def counting_factor_apply(factor, phi):
        factor_calls.append(factor.grid.m)
        return factor_apply(factor, phi)

    monkeypatch.setattr(covariance, "sqrt_factor", counting)
    monkeypatch.setattr(covariance.CovOperator, "apply", counting_apply)
    monkeypatch.setattr(covariance.Factor, "apply", counting_factor_apply)
    out = tmp_path / ("o.json" if argv[0] == "verify" else "o.csv")
    assert run(argv + ["--grid", "64", "--out", str(out)]) == 0
    assert calls == [64] * factorizations
    assert applies == [64] * cov_applies
    assert factor_calls == [64] * factor_applies


@pytest.mark.parametrize("argv, keys", [
    (["condition", "--u", "10"], {"scalar", "mode", "rho", "theta", "seed", "u"}),
    (["sweep", "--u-list", "10,100", "--mc", "5"],
     {"scalar", "mode", "rho", "theta", "mc", "seed", "u_list"}),
    (["verify", "prop1", "--mc", "1000"], {"scalar", "mc", "seed"}),
    (["verify", "prop3"], {"scalar", "mode", "rho", "theta", "seed", "u"}),
    (["verify", "bounds", "--mc", "5"], {"scalar", "mode", "rho", "theta", "mc", "seed", "u"}),
], ids=["condition", "sweep", "prop1", "prop3", "bounds"])
def test_config_echoes_exactly_the_options_read(tmp_path, argv, keys):
    # condition and sweep write o.json as the sidecar of o.csv
    out = tmp_path / ("o.json" if argv[0] == "verify" else "o.csv")
    assert run(argv + ["--grid", "64", "--out", str(out)]) == 0
    config = json.loads((tmp_path / "o.json").read_text())["config"]
    assert set(config) == {"domain", "grid", "kernel", "functional"} | keys


@pytest.mark.parametrize("kernel, spec, order, grid", [
    (cf.SquaredExponential(1, 0.3), "sqexp:1:0.3", 4, 128),
    (cf.Exponential(1, 0.5), "exp:1:0.5", 4, 128),
    (cf.SquaredExponential(1, 0.3), "sqexp:1:0.3", 2, 16),  # profile off by 1%: fails
])
def test_verify_prop3_reports_the_library_verdict(tmp_path, kernel, spec, order, grid):
    out = tmp_path / "v.json"
    code = run(["verify", "prop3", "--functional", f"dpoint:0.5:1:{order}", "--kernel", spec,
                "--grid", str(grid), "--out", str(out)])
    expected = cf.verify_prop3(kernel, 0.5, 1, order, 1e6, m=grid)
    assert json.loads(out.read_text())["result"] == expected
    assert code == (0 if expected["passed"] else 3)
    assert expected["passed"] == (grid == 128)


def test_env_seed_read_only_by_commands_with_seed(tmp_path, monkeypatch, capsys):
    for value, says in (("abc", "invalid literal for int()"), ("-1", byteid.SEED)):
        monkeypatch.setenv("CONDENSATE_SEED", value)
        assert run(["profile", "--grid", "64", "--out", str(tmp_path / "p.csv")]) == 0
        assert run(["condition", "--u", "10", "--grid", "64",
                    "--out", str(tmp_path / "c.csv")]) == 2
        assert not (tmp_path / "c.csv").exists()
        assert says in capsys.readouterr().err.splitlines()[0]


def _assert_condition_stays_finite(tmp_path, u):
    out = tmp_path / "c.csv"
    assert run(["condition", "--u", u, "--grid", "64", "--out", str(out)]) == 0
    assert np.all(np.isfinite(np.array(read_csv(out)[1:], dtype=float)))
    sidecar = json.loads((tmp_path / "c.json").read_text())
    assert all(np.isfinite(v) for k, v in sidecar.items() if k != "config")


def test_largest_thresholds_stay_finite(tmp_path, deadline):
    _assert_condition_stays_finite(tmp_path, "1e150")


def test_condition_stays_finite_where_only_the_squared_norm_overflows(tmp_path, deadline):
    # at u = 1e154, ||phi_u||^2 overflows a double but ||phi_u|| does not
    _assert_condition_stays_finite(tmp_path, "1e154")


def test_prop3_stays_finite_where_only_the_squared_norm_overflows(tmp_path, deadline):
    # ||phi_u|| of the analytic comparison is rescaled as the records' norms are
    out = tmp_path / "p.json"
    assert run(["verify", "prop3", "--u", "1e154", "--grid", "64", "--out", str(out)]) == 0
    result = read_strict_json(out)["result"]
    assert result["passed"]
    assert all(np.isfinite(v) for v in result.values() if isinstance(v, float))


def test_condition_distance_keeps_its_rate_at_the_largest_thresholds(tmp_path):
    # the same noise at u = 1e6 and 1e150: sup_dist u is the same to 1e-4, and
    # the envelope holds with no slack, where a difference of two unit vectors
    # would leave a distance of about eps
    dist = {}
    for u in ("1e6", "1e150"):
        out = tmp_path / f"c{u}.csv"
        assert run(["condition", "--u", u, "--grid", "64", "--out", str(out)]) == 0
        dist[u] = json.loads(out.with_suffix(".json").read_text())
        assert dist[u]["sup_dist"] <= dist[u]["bound_rhs"]
    assert dist["1e150"]["sup_dist"] * 1e150 == pytest.approx(dist["1e6"]["sup_dist"] * 1e6,
                                                               rel=1e-4)


@pytest.mark.parametrize("variance", ["1e-158", "1e-200"])
def test_sweep_keeps_the_profile_where_its_squared_norm_underflows(tmp_path, variance):
    # w * sum |p_i|^2 is subnormal (1e-158) or zero (1e-200) in doubles
    out = tmp_path / "s.csv"
    assert run(["sweep", "--kernel", f"sqexp:{variance}:0.2", "--u-list", "1,2", "--mc", "5",
                "--out", str(out)]) == 0
    report = json.loads((tmp_path / "s.json").read_text())
    assert report["violations_est0"] == report["violations_est12"] == 0


@pytest.mark.parametrize("spec", ["point:nan", "dpoint:nan:1", "custom:nan", "custom:inf"])
@pytest.mark.parametrize("command", [["profile"], ["condition", "--u", "100"]])
def test_non_finite_functional_exits_2(tmp_path, command, spec):
    if spec.startswith("custom:"):
        values = np.ones(64)
        values[10] = float(spec.split(":")[1])
        path = tmp_path / "f.csv"
        np.savetxt(path, values, delimiter=",")
        spec = f"custom:@{path}"
    out = tmp_path / "o.csv"
    assert run(command + ["--grid", "64", "--functional", spec, "--out", str(out)]) == 2
    assert not list(tmp_path.glob("o.*"))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text", ["", "\n\n"])
def test_custom_functional_from_a_file_with_no_data_exits_2(tmp_path, capsys, text):
    # loadtxt warns on a file with no data: the run reports it as its config error
    path = tmp_path / "f.csv"
    path.write_text(text)
    out = tmp_path / "o.csv"
    assert run(["profile", "--functional", f"custom:@{path}", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: bad functional spec")
    assert not out.exists()


def test_dpoint_at_n0_is_point_evaluation(tmp_path):
    point, dpoint = tmp_path / "p.csv", tmp_path / "d.csv"
    for spec, out in (("point:0.5", point), ("dpoint:0.5:0", dpoint)):
        assert run(["profile", "--grid", "64", "--functional", spec, "--out", str(out)]) == 0
    assert dpoint.read_bytes() == point.read_bytes()
    out = tmp_path / "v.json"
    assert run(["verify", "prop3", "--grid", "64", "--functional", "dpoint:0.5:0:4",
                "--out", str(out)]) == 0
    res = json.loads(out.read_text())["result"]
    assert (res["n"], res["order"]) == (0, 4)


@pytest.mark.parametrize("kernel, spec, functional, n", [
    (cf.RankK(((1.0, 0),)), "rankk:1@0", "point:0.5", 0),
    (cf.RankK(((1.0, 1), (2.0, 2))), "rankk:1@1,2@2", "dpoint:0.5:1", 1),
])
def test_verify_prop3_without_a_curve_exits_2(tmp_path, kernel, spec, functional, n):
    # a smooth kernel with no closed-form curve leaves nothing to compare:
    # a usage error, not a failed theorem (exit 3)
    with pytest.raises(cf.errors.ConfigError):
        cf.verify_prop3(kernel, 0.5, n, 2, 1e6, m=64)
    assert run(["verify", "prop3", "--grid", "64", "--kernel", spec, "--functional", functional,
                "--out", str(tmp_path / "v.json")]) == 2
    assert not any(tmp_path.iterdir())


def _row_by_row_csv(header, rows) -> bytes:
    # the row-at-a-time writer the column writer replaced: floats as repr(float)
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(float(v)) if isinstance(v, (float, np.floating)) else v
                         for v in row])
    return buf.getvalue().encode()


@pytest.mark.parametrize("functional", ["point:0.5", "integral:cosine"])
def test_profile_csv_is_the_row_by_row_csv(tmp_path, functional):
    out = tmp_path / "p.csv"
    assert run(["profile", "--functional", functional, "--grid", "64", "--out", str(out)]) == 0
    g = cf.make_grid(0, 1, 64)
    kernel = cf.SquaredExponential(1, 0.2)
    t = cf.functional_from_spec(functional, g)
    columns = [g.points, cf.profile(t, cf.assemble(kernel, g))]
    header = ["x", "profile_value"]
    if t.kind == "point":
        columns.append(cf.analytic_derivative_curve(kernel, g.points, t.x0, t.n))
        header.append("analytic_value")
    want = _row_by_row_csv(header, ([float(v) for v in row] for row in zip(*columns)))
    assert out.read_bytes() == want


@pytest.mark.parametrize("scalar, mode", [("complex", "fixed-rho:1:0.3"), ("real", "random")])
def test_sweep_csv_keeps_its_header_and_float_format(tmp_path, scalar, mode):
    # more rows than one NOISE_BLOCK, so the CSV is written in several blocks
    out = tmp_path / "s.csv"
    argv = ["sweep", "--grid", "64", "--u-list", "10,1000", "--mc", "70", "--scalar", scalar,
            "--mode", mode, "--seed", "3", "--out", str(out)]
    assert run(argv) == 0
    setup = cli._Setup(cli.build_parser().parse_args(argv))
    records = cli._sweep(setup, setup.u_list).records
    want = _row_by_row_csv(
        ["u", "sample_index", "rho", "theta", "sup_dist", "l2_dist", "bound_rhs",
         "ratio_re", "ratio_im", "r", "applicable", "est0_ok", "est12_ok"],
        ([r.u, r.sample_index, r.rho, r.theta, r.sup_dist, r.l2_dist, r.bound_rhs,
          float(r.ratio.real), float(r.ratio.imag), r.r,
          int(r.applicable), int(r.est0_ok), int(r.est12_ok)] for r in records))
    assert len(records) == 140
    assert out.read_bytes() == want


@pytest.mark.parametrize("scalar", ["real", "complex"])
def test_condition_csv_is_the_row_by_row_csv(tmp_path, scalar):
    # a real field's im_phi column is all zeros, each written as 0.0 or -0.0
    out = tmp_path / "c.csv"
    assert run(["condition", "--grid", "64", "--u", "100", "--scalar", scalar,
                "--mode", "fixed-rho:2", "--seed", "4", "--out", str(out)]) == 0
    g = cf.make_grid(0, 1, 64)
    t = cf.functional_from_spec("point:0.5", g)
    factor = cf.sqrt_factor(cf.assemble(cf.SquaredExponential(1, 0.2), g))
    spec = cf.ConditionSpec(u=100.0, scalar=scalar, mode="fixed-rho", rho=2.0)
    values = cf.sample_conditional(factor, t, spec, cf.substream(4, 3, 0)).values
    columns = [g.points, np.real(values), np.imag(values)]
    want = _row_by_row_csv(["x", "re_phi", "im_phi"],
                           ([float(v) for v in row] for row in zip(*columns)))
    assert out.read_bytes() == want
    if scalar == "real":
        assert {row[2] for row in read_csv(out)[1:]} <= {"0.0", "-0.0"}


def test_write_csv_is_the_row_by_row_csv_across_blocks(tmp_path):
    n = NOISE_BLOCK + 3
    floats = np.resize([-0.0, 5e-324, 1e-5, 1e16, 1.7976931348623157e308, -2.5, 0.1], n)
    table = {"f": floats, "g": -floats[::-1], "i": np.arange(n) - 5, "b": np.arange(n) % 3 == 0,
             "z": floats[::-1] + 1j * floats}
    cli._write_csv(str(tmp_path / "w.csv"), table)
    rows = ([float(f), float(v), int(i), int(b), z.real, z.imag]
            for f, v, i, b, z in zip(*table.values()))
    want = _row_by_row_csv(["f", "g", "i", "b", "z_re", "z_im"], rows)
    assert (tmp_path / "w.csv").read_bytes() == want


def test_write_csv_rejects_columns_of_unequal_length(tmp_path):
    with pytest.raises(ValueError, match="unequal length"):
        cli._write_csv(str(tmp_path / "w.csv"), {"i": np.arange(NOISE_BLOCK + 1),
                                                 "x": np.zeros(NOISE_BLOCK)})
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_write_csv_rejects_a_non_finite_column(tmp_path, bad):
    x = np.zeros(NOISE_BLOCK + 1, type(bad))
    x[-1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        cli._write_csv(str(tmp_path / "w.csv"), {"i": np.arange(len(x)), "x": x})
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["sweep", "--u-list", "10,100", "--mc", "20", "--out", "s.csv"],
    ["verify", "bounds", "--mc", "20", "--out", "b.json"],
], ids=["sweep", "bounds"])
def test_run_leaves_numpy_ma_unimported(tmp_path, argv):
    # np.quantile loads numpy.ma through np.unique: 15 ms of a fresh process
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))

    def loads_numpy_ma(code, *args):
        done = subprocess.run([sys.executable, "-c", code, *args], env=env, cwd=tmp_path,
                              capture_output=True, text=True, check=True)
        return done.stdout.split()[-1] == "True"

    if loads_numpy_ma("import sys, condfield.cli; print('numpy.ma' in sys.modules)"):
        pytest.skip("importing condfield.cli loads numpy.ma with this numpy")
    assert not loads_numpy_ma(
        "import sys\nfrom condfield.cli import main\n"
        "assert main(sys.argv[1:]) == 0\nprint('numpy.ma' in sys.modules)", *argv, "--grid", "32")


@pytest.mark.parametrize("edge", byteid.EDGES, ids=lambda edge: edge.line)
def test_edge_row(tmp_path, monkeypatch, capsys, deadline, edge):
    # in a directory of its own, under the suite's error::RuntimeWarning filter: an
    # error names itself and writes nothing, a result is finite
    monkeypatch.chdir(tmp_path)
    assert run(edge.argv) == edge.rc
    err = capsys.readouterr().err.splitlines()
    written = sorted(tmp_path.iterdir())
    if edge.rc == 0:
        assert err == [] and written
        for path in written:
            if path.suffix == ".csv":
                assert np.all(np.isfinite(np.array(read_csv(path)[1:], dtype=float)))
            else:
                read_strict_json(path)
        return
    assert not written
    assert edge.says in err[0]
    if edge.rc == 1:
        assert err[0].startswith("i/o error: ")
    elif edge.says == byteid.USAGE:
        assert err[0].startswith(byteid.USAGE)
    elif edge.rc == 2:
        assert err[0].startswith("config error: ")
        assert len(err) == 2 and err[1].startswith(byteid.USAGE)


def edges_saying(*fragments):
    return [edge for edge in byteid.EDGES if any(part in edge.says for part in fragments)]


@pytest.mark.parametrize("edge", edges_saying("<T|C|T> = inf", "below the normal doubles"),
                         ids=lambda edge: edge.line)
def test_overflowing_tct_and_subnormal_kernel_exit_2_saying_so(tmp_path, capsys, edge):
    # a subnormal op is not blamed for positivity, and a <T|C|T> that overflows reads
    # inf, neither nan nor numerically zero
    assert run(edge.argv + ["--out", str(tmp_path / "o.csv")]) == 2
    first = capsys.readouterr().err.splitlines()[0]
    assert "positive semidefinite" not in first and "numerically zero" not in first


@pytest.mark.parametrize("edge", edges_saying("gives a covariance matrix that is not finite"),
                         ids=lambda edge: edge.argv[edge.argv.index("--kernel") + 1]
                         .split(":")[0])
def test_overflowing_covariance_exits_2_with_a_named_error(tmp_path, capsys, edge):
    # the error names the kernel by the repr of what its spec parses to
    spec = edge.argv[edge.argv.index("--kernel") + 1]
    assert run(edge.argv + ["--out", str(tmp_path / "p.csv")]) == 2
    assert capsys.readouterr().err.startswith(
        f"config error: {covariance.kernel_from_spec(spec)!r} gives a covariance matrix")


def test_overflow_to_a_zero_correlation_is_silent(tmp_path, capsys):
    # -|x - y|/ell overflows to -inf at ell = 1e-320, and exp(-inf) = 0 is the
    # correlation: exit 0 with nothing on stderr, under the error::RuntimeWarning filter
    out = tmp_path / "p.csv"
    assert run(["profile", "--grid", "32", "--kernel", "exp:1:1e-320", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    rows = np.array(read_csv(out)[1:], dtype=float)
    i0 = int(np.argmin(np.abs(rows[:, 0] - 0.5)))
    assert np.array_equal(rows[:, 1:], np.eye(32)[i0][:, None] * np.ones(2))


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kernel=st.sampled_from(["sqexp", "exp"]),
       log_variance=st.floats(-300.0, 308.2),
       log_ell=st.floats(-300.0, 300.0),
       functional=st.sampled_from(["point:0.5", *(f"dpoint:0.5:{n}" for n in range(5)),
                                   "integral:cosine"]),
       command=st.sampled_from([["profile"], ["condition", "--u", "10"]]))
def test_outside_inputs_exit_cleanly(tmp_path, deadline, kernel, log_variance, log_ell,
                                     functional, command):
    # any kernel scale in doubles: a result (every CSV value finite), a config
    # error that writes nothing, or a failed verification; never a traceback, and
    # never a RuntimeWarning (an error under the suite's filter)
    out = tempfile.mkdtemp(dir=tmp_path)
    code = run(command + [
        "--grid", "32", "--kernel", f"{kernel}:{10.0 ** log_variance!r}:{10.0 ** log_ell!r}",
        "--functional", functional, "--out", f"{out}/o.csv"])
    assert code in (0, 2, 3)
    written = sorted(Path(out).iterdir())
    if code == 2:
        assert not written
    for path in written:
        if path.suffix == ".csv":
            assert np.all(np.isfinite(np.array(read_csv(path)[1:], dtype=float)))
