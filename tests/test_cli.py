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


@pytest.mark.parametrize("argv, factorizations", [
    (["profile"], 0),
    (["condition", "--u", "100"], 1),
    (["sweep", "--u-list", "10,100", "--mc", "20"], 1),
    (["verify", "prop1", "--mc", "1000"], 1),
    (["verify", "prop3"], 1),
    (["verify", "bounds", "--mc", "20"], 1),
], ids=["profile", "condition", "sweep", "prop1", "prop3", "bounds"])
def test_one_factorization_per_command(tmp_path, monkeypatch, argv, factorizations):
    calls = []
    sqrt_factor = covariance.sqrt_factor

    def counting(cov):
        calls.append(cov.grid.m)
        return sqrt_factor(cov)

    monkeypatch.setattr(covariance, "sqrt_factor", counting)
    out = tmp_path / ("o.json" if argv[0] == "verify" else "o.csv")
    assert run(argv + ["--grid", "64", "--out", str(out)]) == 0
    assert calls == [64] * factorizations
