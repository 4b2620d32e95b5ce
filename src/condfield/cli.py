"""Command-line front end.

Subcommands: profile, condition, sweep, verify {prop1, prop3, bounds}.
All outputs are deterministic given identical flags: CSV for vectors and
per-sample records, JSON for reports, every JSON echoing the fully resolved
configuration.  Exit codes: 0 success, 1 I/O or runtime error, 2 usage or
config error, 3 verification failure.
"""

import argparse
import csv
import functools
import json
import os
import sys

import numpy as np

from . import concentration as cc
from . import covariance as cv
from . import functionals as fn
from . import sampling as sp
from .errors import CondfieldError, ConfigError
from .grid import make_grid

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2
EXIT_VERIFY = 3

DEFAULTS = {
    "domain": "0,1",
    "grid": 128,
    "kernel": "sqexp:1:0.2",
    "functional": "point:0.5",
    "scalar": sp.COMPLEX,
    "mode": "fixed-rho:1",
    "mc": 200,
}


def _parse_domain(text: str):
    try:
        a, b = (float(v) for v in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad domain {text!r}, expected 'a,b'") from exc
    return a, b


def _parse_mode(text: str):
    if text == "random":
        return sp.RANDOM, 1.0, 0.0
    parts = text.split(":")
    if parts[0] == "fixed-rho" and len(parts) in (2, 3):
        try:
            rho = float(parts[1])
            theta = float(parts[2]) if len(parts) == 3 else 0.0
        except ValueError as exc:
            raise ConfigError(f"bad mode {text!r}") from exc
        return sp.FIXED_RHO, rho, theta
    raise ConfigError(f"unknown mode {text!r}, expected fixed-rho:RHO[:THETA] or random")


def _default_seed() -> int:
    return int(os.environ.get("CONDENSATE_SEED", "0"))


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--domain", default=DEFAULTS["domain"], help="interval 'a,b'")
    p.add_argument("--grid", type=int, default=DEFAULTS["grid"], metavar="M")
    p.add_argument("--kernel", default=DEFAULTS["kernel"])
    p.add_argument("--functional", default=DEFAULTS["functional"])
    p.add_argument("--scalar", choices=[sp.REAL, sp.COMPLEX], default=DEFAULTS["scalar"])
    p.add_argument("--mode", default=DEFAULTS["mode"])
    p.add_argument("--mc", type=int, default=DEFAULTS["mc"])
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="condfield",
        description="Sample Gaussian fields conditioned on a large linear "
        "functional and verify their concentration onto the limit profile.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile", help="write the limit profile C|T> as CSV")
    _add_common(p)

    p = sub.add_parser("condition", help="draw one conditional sample")
    _add_common(p)
    p.add_argument("--u", type=float, required=True)

    p = sub.add_parser("sweep", help="paired-seed concentration sweep over u")
    _add_common(p)
    p.add_argument("--u-list", required=True, help="ascending thresholds 'u1,u2,...'")

    p = sub.add_parser("verify", help="run a proposition or bound check")
    p.add_argument("which", choices=["prop1", "prop3", "bounds"])
    _add_common(p)
    p.add_argument("--u", type=float, default=1e6)

    return parser


class _Setup:
    """Resolved configuration plus the assembled module objects."""

    def __init__(self, args):
        self.seed = args.seed if args.seed is not None else _default_seed()
        a, b = _parse_domain(args.domain)
        self.grid = make_grid(a, b, args.grid)
        self.kernel = cv.kernel_from_spec(args.kernel)
        self.functional = fn.functional_from_spec(args.functional, self.grid)
        self.scalar = args.scalar
        self.mode, self.rho, self.theta = _parse_mode(args.mode)
        self.mc = args.mc
        self.config = {
            "domain": [a, b],
            "grid": args.grid,
            "kernel": args.kernel,
            "functional": args.functional,
            "scalar": args.scalar,
            "mode": self.mode,
            "rho": self.rho,
            "theta": self.theta,
            "mc": args.mc,
            "seed": self.seed,
        }

    # built on first use: verify prop3 assembles on its own grid, and only
    # condition, sweep and verify bounds draw from the factor
    @functools.cached_property
    def cov(self) -> cv.CovOperator:
        return cv.assemble(self.kernel, self.grid)

    @functools.cached_property
    def factor(self) -> cv.SqrtFactor:
        return cv.sqrt_factor(self.cov)


def _sidecar(path: str) -> str:
    root, _ = os.path.splitext(path)
    return root + ".json"


def _write_json(path: str, payload: dict):
    # serialized before the file opens, so a non-finite value leaves no file
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _write_csv(path: str, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, (float, np.floating))
                             else v for v in row])


def cmd_profile(args) -> int:
    setup = _Setup(args)
    out = args.out or "profile.csv"
    prof = fn.profile(setup.functional, setup.cov)
    t = setup.functional
    curve = None
    if t.kind in ("point", "derivative"):
        curve = fn.analytic_derivative_curve(setup.kernel, setup.grid.points, t.x0, t.n)
    header = ["x", "profile_value"] + (["analytic_value"] if curve is not None else [])
    columns = [setup.grid.points, prof] + ([curve] if curve is not None else [])
    _write_csv(out, header, ([float(v) for v in row] for row in zip(*columns)))
    return EXIT_OK


def cmd_condition(args) -> int:
    setup = _Setup(args)
    out = args.out or "condition.csv"
    spec = sp.ConditionSpec(u=args.u, scalar=setup.scalar, mode=setup.mode,
                            rho=setup.rho, theta=setup.theta)
    rng = sp.substream(setup.seed, 3, 0)
    sample = sp.sample_conditional(setup.factor, setup.functional, spec, rng)
    prof = fn.profile(setup.functional, setup.cov)
    consts = fn.constants(setup.functional, setup.cov)
    rec = cc.distance_record(sample, prof, consts, setup.grid)
    rows = [
        [float(x), float(np.real(v)), float(np.imag(v))]
        for x, v in zip(setup.grid.points, sample.values)
    ]
    _write_csv(out, ["x", "re_phi", "im_phi"], rows)
    _write_json(_sidecar(out), {
        "config": {**setup.config, "u": args.u},
        "u": float(args.u),
        "rho": float(sample.rho),
        "theta": float(sample.theta),
        "t_u_re": float(np.real(sample.t_u)),
        "t_u_im": float(np.imag(sample.t_u)),
        "r2": float(sample.r2),
        "sup_dist": rec.sup_dist,
        "l2_dist": rec.l2_dist,
        "bound_rhs": rec.bound_rhs,
    })
    return EXIT_OK


def _sweep(setup: _Setup, u_list) -> cc.SweepReport:
    return cc.sweep(setup.factor, setup.functional, setup.cov, u_list, setup.mc,
                    scalar=setup.scalar, mode=setup.mode, rho=setup.rho,
                    theta=setup.theta, seed=setup.seed)


def cmd_sweep(args) -> int:
    setup = _Setup(args)
    out = args.out or "sweep.csv"
    try:
        u_list = [float(v) for v in args.u_list.split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad u-list {args.u_list!r}") from exc
    report = _sweep(setup, u_list)
    rows = [
        [r.u, r.sample_index, r.rho, r.theta, r.sup_dist, r.l2_dist, r.bound_rhs,
         float(r.ratio.real), float(r.ratio.imag), r.r,
         int(r.applicable), int(r.est0_ok), int(r.est12_ok)]
        for r in report.records
    ]
    _write_csv(out, ["u", "sample_index", "rho", "theta", "sup_dist", "l2_dist",
                     "bound_rhs", "ratio_re", "ratio_im", "r", "applicable",
                     "est0_ok", "est12_ok"], rows)
    _write_json(_sidecar(out), {
        "config": {**setup.config, "u_list": u_list},
        "per_u": list(report.per_u),
        "slope": report.slope,
        "violations_est0": report.violations_est0,
        "violations_est12": report.violations_est12,
    })
    if report.violations_est0 or report.violations_est12:
        print("theorem bound violated; see report", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def cmd_verify(args) -> int:
    setup = _Setup(args)
    out = args.out or f"verify_{args.which}.json"
    if args.which == "prop1":
        result = cc.verify_prop1(setup.functional, setup.cov, setup.mc,
                                 seed=setup.seed, scalar=setup.scalar)
        passed = result["passed"]
    elif args.which == "prop3":
        t = setup.functional
        if t.kind not in ("point", "derivative"):
            raise ConfigError("verify prop3 needs a point or dpoint functional")
        result = cc.verify_prop3(
            setup.kernel, t.x0, t.n, t.order or 2, args.u,
            a=setup.grid.a, b=setup.grid.b, m=setup.grid.m,
            scalar=setup.scalar, mode=setup.mode, rho=setup.rho,
            theta=setup.theta, seed=setup.seed,
        )
        result["profile_tolerance"] = 1e-3
        result["sample_tolerance"] = 1e-2
        if result["smoothness_warning"]:
            # nonsmooth kernel: no analytic curve to compare against, so only
            # the per-sample bound is checked and the warning flag is raised
            passed = bool(result["bound_rhs"] >= result["sample_sup_dist_discrete"] - 1e-9)
        else:
            passed = (
                result["profile_sup_dist"] is not None
                and result["profile_sup_dist"] <= result["profile_tolerance"]
                and result["sample_sup_dist"] <= result["sample_tolerance"]
            )
        result["passed"] = bool(passed)
        result["passed_with_warning"] = bool(passed and result["smoothness_warning"])
    else:  # bounds
        report = _sweep(setup, [args.u])
        violations = sum(not r.est0_ok or (r.applicable and not r.est12_ok)
                         for r in report.records)
        passed = violations == 0
        result = {"u": args.u, "n_mc": setup.mc, "violations": violations, "passed": passed}
    _write_json(out, {"config": {**setup.config, "u": args.u}, "which": args.which,
                      "result": result})
    return EXIT_OK if passed else EXIT_VERIFY


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        if args.command == "profile":
            return cmd_profile(args)
        if args.command == "condition":
            return cmd_condition(args)
        if args.command == "sweep":
            return cmd_sweep(args)
        return cmd_verify(args)
    except (ConfigError, CondfieldError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
