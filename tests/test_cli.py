import csv
import json

import numpy as np
import pytest

import condfield as cf
from condfield import cli, concentration, covariance
from condfield.cli import main


def run(args):
    return main(args)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


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


def test_profile_unknown_kernel_exits_2(tmp_path, capsys):
    assert run(["profile", "--kernel", "matern:1:0.2",
                "--out", str(tmp_path / "p.csv")]) == 2


def test_profile_unwritable_path_exits_1(tmp_path):
    assert run(["profile", "--out", str(tmp_path / "missing" / "p.csv")]) == 1


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


def test_condition_negative_u_exits_2(tmp_path):
    assert run(["condition", "--u", "-3", "--out", str(tmp_path / "c.csv")]) == 2


def test_condition_real_theta_forbidden(tmp_path):
    assert run(["condition", "--u", "1", "--scalar", "real",
                "--mode", "fixed-rho:1:1.57", "--out", str(tmp_path / "c.csv")]) == 2


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


def test_usage_error_exits_2():
    assert run(["sweep"]) == 2  # missing --u-list
    assert run(["frobnicate"]) == 2


@pytest.mark.parametrize("args", [
    ["condition", "--u", "nan"],
    ["condition", "--u", "inf"],
    ["condition", "--u", "10", "--mode", "fixed-rho:nan"],
    ["profile", "--kernel", "sqexp:nan:0.2"],
    ["sweep", "--u-list", "10,nan", "--mc", "5"],
])
def test_non_finite_input_exits_2(tmp_path, args):
    out = tmp_path / "o.csv"
    assert run(args + ["--grid", "64", "--out", str(out)]) == 2
    assert not out.exists()


def test_verify_bounds_zero_mc_exits_2(tmp_path):
    assert run(["verify", "bounds", "--mc", "0", "--grid", "64",
                "--out", str(tmp_path / "v.json")]) == 2


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


@pytest.mark.parametrize("argv, factorizations, cov_applies, factor_applies", [
    (["profile"], 0, 1, 0),
    (["condition", "--u", "100"], 1, 1, 3),
    (["sweep", "--u-list", "10,100", "--mc", "20"], 1, 1, 22),
    (["verify", "prop1", "--mc", "1000"], 1, 1, 1),
    (["verify", "prop3"], 1, 1, 3),
    (["verify", "bounds", "--mc", "20"], 1, 1, 22),
], ids=["profile", "condition", "sweep", "prop1", "prop3", "bounds"])
def test_one_factorization_per_command(tmp_path, monkeypatch, argv, factorizations,
                                       cov_applies, factor_applies):
    # a conditioned draw applies the factor to T and v once per run and to
    # each xi once: 2 + n_mc; prop1 applies it to T only
    calls, applies, factor_calls = [], [], []
    sqrt_factor = covariance.sqrt_factor
    apply = covariance.CovOperator.apply
    factor_apply = covariance.SqrtFactor.apply

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
    monkeypatch.setattr(covariance.SqrtFactor, "apply", counting_factor_apply)
    out = tmp_path / ("o.json" if argv[0] == "verify" else "o.csv")
    assert run(argv + ["--grid", "64", "--out", str(out)]) == 0
    assert calls == [64] * factorizations
    assert applies == [64] * cov_applies
    assert factor_calls == [64] * factor_applies


@pytest.mark.parametrize("argv", [
    ["profile", "--scalar", "real"],
    ["profile", "--mode", "random"],
    ["profile", "--mc", "10"],
    ["profile", "--seed", "1"],
    ["condition", "--u", "10", "--mc", "10"],
    ["verify", "prop1", "--mc", "1000", "--mode", "random"],
    ["verify", "prop1", "--mc", "1000", "--u", "10"],
    ["verify", "prop3", "--mc", "10"],
], ids=lambda argv: " ".join(argv))
def test_option_the_command_does_not_read_exits_2(tmp_path, argv):
    assert run(argv + ["--grid", "64", "--out", str(tmp_path / "o.json")]) == 2
    assert not any(tmp_path.iterdir())


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


def test_env_seed_read_only_by_commands_with_seed(tmp_path, monkeypatch):
    monkeypatch.setenv("CONDENSATE_SEED", "abc")
    assert run(["profile", "--grid", "64", "--out", str(tmp_path / "p.csv")]) == 0
    assert run(["condition", "--u", "10", "--grid", "64",
                "--out", str(tmp_path / "c.csv")]) == 2
    assert not (tmp_path / "c.csv").exists()


@pytest.mark.parametrize("argv", [
    ["condition", "--kernel", "sqexp:1e-4:0.2", "--scalar", "real", "--mode", "random",
     "--u", "1e153"],
    ["condition", "--u", "1e155"],
    ["condition", "--u", "1e154"],
    ["sweep", "--u-list", "10,1e155", "--mc", "5"],
    ["verify", "bounds", "--u", "1e155", "--mc", "5"],
], ids=lambda argv: " ".join(argv))
def test_overflowing_threshold_exits_2(tmp_path, deadline, argv):
    # |t_u|^2 overflows in every case but u = 1e154, where ||phi_u||^2 alone does
    assert run(argv + ["--grid", "64", "--out", str(tmp_path / "o.json")]) == 2
    assert not any(tmp_path.iterdir())


def test_largest_thresholds_stay_finite(tmp_path, deadline):
    out = tmp_path / "c.csv"
    assert run(["condition", "--u", "1e150", "--grid", "64", "--out", str(out)]) == 0
    assert np.all(np.isfinite(np.array(read_csv(out)[1:], dtype=float)))
    sidecar = json.loads((tmp_path / "c.json").read_text())
    assert all(np.isfinite(v) for k, v in sidecar.items() if k != "config")


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


@pytest.mark.parametrize("command", [["profile"], ["verify", "prop3"]])
def test_dpoint_at_n0_with_unsupported_order_exits_2(tmp_path, command):
    out = tmp_path / "o.json"
    assert run(command + ["--grid", "64", "--functional", "dpoint:0.5:0:5",
                          "--out", str(out)]) == 2
    assert not any(tmp_path.iterdir())


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
