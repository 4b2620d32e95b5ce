"""Command-line front end, a thin shell over the library, which owns every verdict.

Subcommands: profile, condition, sweep, verify {prop1, prop3, bounds}.  Each
takes --domain --grid --kernel --functional --out and, beyond those, only the
options it reads (listed in `build_parser`), after the subcommand words.  The
seed defaults to $CONDENSATE_SEED, then 0, in the commands that take --seed.
Outputs are deterministic given identical flags: CSV for vectors and
per-sample records, JSON for reports, whose config echoes exactly the
resolved options of its command.  Exit codes: 0 success, 1 I/O or runtime
error, 2 usage or config error, 3 verification failure.
"""

import argparse
import functools
import itertools
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

def domain(text: str):
    """'a,b' as a pair of floats."""
    a, b = (float(v) for v in text.split(","))
    return a, b


def mode(text: str):
    """'random' or 'fixed-rho:RHO[:THETA]' as (mode, rho, theta)."""
    if text == "random":
        return sp.RANDOM, 1.0, 0.0
    parts = text.split(":")
    if parts[0] != "fixed-rho" or len(parts) not in (2, 3):
        raise ValueError(text)
    return sp.FIXED_RHO, float(parts[1]), (float(parts[2]) if len(parts) == 3 else 0.0)


def thresholds(text: str):
    """'u1,u2,...' as a list of floats."""
    return [float(v) for v in text.split(",")]


# every option of every subcommand; each subcommand adds the ones it reads, and
# argparse applies `type` to the string defaults as well
OPTIONS = {
    "domain": {"type": domain, "default": "0,1", "help": "interval 'a,b'"},
    "grid": {"type": int, "default": 128, "metavar": "M"},
    "kernel": {"default": "sqexp:1:0.2"},
    "functional": {"default": "point:0.5"},
    "scalar": {"choices": [sp.REAL, sp.COMPLEX], "default": sp.COMPLEX},
    "mode": {"type": mode, "default": "fixed-rho:1", "help": "fixed-rho:RHO[:THETA] or random"},
    "mc": {"type": int, "default": 200},
    "seed": {"type": int, "default": None, "help": "default $CONDENSATE_SEED, then 0"},
    "u": {"type": float, "default": 1e6},
    "u-list": {"type": thresholds, "required": True, "help": "ascending thresholds 'u1,u2,...'"},
    "out": {"default": None},
}
MODEL = ("domain", "grid", "kernel", "functional")


class _Setup:
    """Resolved values of the options a subcommand took, plus the assembled
    module objects; `config` echoes exactly those options."""

    def __init__(self, args):
        self.grid = make_grid(*args.domain, args.grid)
        self.kernel = cv.kernel_from_spec(args.kernel)
        self.functional = fn.functional_from_spec(args.functional, self.grid)
        self.config = c = {name: value for name, value in vars(args).items()
                           if name not in ("command", "check", "handler", "out")}
        if "seed" in c:
            if c["seed"] is None:
                c["seed"] = int(os.environ.get("CONDENSATE_SEED", "0"))
            if c["seed"] < 0:
                raise ConfigError(f"seed must be >= 0 (--seed, else $CONDENSATE_SEED), "
                                  f"got {c['seed']}")
        if "mode" in c:
            c["mode"], c["rho"], c["theta"] = c["mode"]
        vars(self).update((name, value) for name, value in c.items() if name not in MODEL)

    # built on first use: verify prop3 assembles on its own grid, and only
    # condition, sweep and verify bounds draw from the factor
    @functools.cached_property
    def cov(self) -> cv.CovOperator:
        return cv.assemble(self.kernel, self.grid)

    @functools.cached_property
    def factor(self) -> cv.Factor:
        return cv.sqrt_factor(self.cov)


def _write_json(path: str, payload: dict, table=None):
    """Write `payload` as JSON to `path`; given a table, write it as CSV to `path`
    (`_write_csv`) and the JSON beside it, at `path` with its extension made .json.
    Serialized first: a non-finite value leaves no file."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    if table is not None:
        _write_csv(path, table)
        path = os.path.splitext(path)[0] + ".json"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _reprs(c: np.ndarray):
    """The repr of each entry of an int or float column, made lazily NOISE_BLOCK runs
    at a time and once per run of equal entries: of equal bits for a float, so that
    -0.0 and 0.0 stay apart."""
    block = sp.NOISE_BLOCK
    key = c.view(f"i{c.itemsize}") if c.dtype.kind == "f" else c
    first = np.ones(c.size, bool)  # of its run
    first[1:] = key[1:] != key[:-1]
    starts = np.flatnonzero(first)
    if starts.size == c.size:
        chunks = (map(repr, c[k:k + block].tolist()) for k in range(0, c.size, block))
    else:
        counts = np.diff(starts, append=c.size)
        chunks = (map(itertools.repeat, map(repr, c[starts[k:k + block]].tolist()),
                      counts[k:k + block].tolist()) for k in range(0, starts.size, block))
        chunks = map(itertools.chain.from_iterable, chunks)
    return itertools.chain.from_iterable(chunks)


def _write_csv(path: str, table: dict):
    """Write a table {name: array} of equal-length columns as CSV, in its order and
    NOISE_BLOCK rows at a time: a complex column as two, <name>_re and <name>_im;
    each field the repr of its int or float (booleans as 0/1), unquoted, as every
    field is a number, and rows ended by \\r\\n.  A non-finite value raises
    ValueError and leaves no file, as do columns of unequal length."""
    cols = {}
    for name, c in table.items():
        if c.dtype.kind == "c":
            cols[name + "_re"], cols[name + "_im"] = c.real, c.imag
        else:
            cols[name] = c.astype(int) if c.dtype == bool else c
    if len({len(c) for c in cols.values()}) > 1:
        raise ValueError(f"columns of unequal length: {[len(c) for c in cols.values()]}")
    for name, c in cols.items():
        if c.dtype.kind == "f" and not np.all(np.isfinite(c)):
            raise ValueError(f"column {name} holds a non-finite value")
    rows = zip(*map(_reprs, cols.values()))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(cols) + "\r\n")
        while text := "".join(",".join(row) + "\r\n"
                              for row in itertools.islice(rows, sp.NOISE_BLOCK)):
            fh.write(text)


def cmd_profile(setup: _Setup, out) -> int:
    t = setup.functional
    table = {"x": setup.grid.points, "profile_value": fn.profile(t, setup.cov)}
    if t.kind in ("point", "derivative"):  # None where no closed form is known
        table["analytic_value"] = fn.analytic_derivative_curve(
            setup.kernel, setup.grid.points, t.x0, t.n)
    _write_csv(out or "profile.csv", {k: c for k, c in table.items() if c is not None})
    return EXIT_OK


def cmd_condition(setup: _Setup, out) -> int:
    spec = sp.ConditionSpec(u=setup.u, scalar=setup.scalar, mode=setup.mode,
                            rho=setup.rho, theta=setup.theta)
    sample = sp.sample_conditional(setup.factor, setup.functional, spec,
                                   sp.substream(setup.seed, 3, 0))
    rec = cc.distance_record(sample)
    _write_json(out or "condition.csv", {
        "config": setup.config, "u": float(setup.u), "rho": float(sample.rho),
        "theta": float(sample.theta), "t_u_re": float(np.real(sample.t_u)),
        "t_u_im": float(np.imag(sample.t_u)), "r2": float(sample.r2),
        "sup_dist": rec.sup_dist, "l2_dist": rec.l2_dist, "bound_rhs": rec.bound_rhs},
        {"x": setup.grid.points, "re_phi": np.real(sample.values),
         "im_phi": np.imag(sample.values)})
    return EXIT_OK


def _sweep(setup: _Setup, u_list) -> cc.SweepReport:
    return cc.sweep(setup.factor, setup.functional, setup.cov, u_list, setup.mc,
                    scalar=setup.scalar, mode=setup.mode, rho=setup.rho,
                    theta=setup.theta, seed=setup.seed)


def cmd_sweep(setup: _Setup, out) -> int:
    report = _sweep(setup, setup.u_list)
    _write_json(out or "sweep.csv", {
        "config": setup.config, "per_u": list(report.per_u), "slope": report.slope,
        "violations_est0": report.violations_est0, "violations_est12": report.violations_est12},
        report.columns)
    if report.violations_est0 or report.violations_est12:
        print("theorem bound violated; see report", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def check_prop1(setup: _Setup) -> dict:
    return cc.verify_prop1(setup.functional, setup.cov, setup.mc,
                           seed=setup.seed, scalar=setup.scalar)


def check_prop3(setup: _Setup) -> dict:
    t = setup.functional
    if t.kind not in ("point", "derivative"):
        raise ConfigError("verify prop3 needs a point or dpoint functional")
    return cc.verify_prop3(
        setup.kernel, t.x0, t.n, t.order or 2, setup.u,
        a=setup.grid.a, b=setup.grid.b, m=setup.grid.m,
        scalar=setup.scalar, mode=setup.mode, rho=setup.rho,
        theta=setup.theta, seed=setup.seed,
    )


def check_bounds(setup: _Setup) -> dict:
    report = _sweep(setup, [setup.u])
    # est12_ok is True wherever the chain does not apply
    c = report.columns
    violations = int(np.count_nonzero(~c["est0_ok"] | ~c["est12_ok"]))
    return {"u": setup.u, "n_mc": setup.mc, "violations": violations,
            "passed": violations == 0}


def cmd_verify(which: str, check, setup: _Setup, out) -> int:
    result = check(setup)
    _write_json(out or f"verify_{which}.json",
                {"config": setup.config, "which": which, "result": result})
    return EXIT_OK if result["passed"] else EXIT_VERIFY


def _subcommand(sub, name: str, handler, help: str, *options, required=()):
    p = sub.add_parser(name, help=help)
    for opt in (*MODEL, *options, "out"):
        extra = {"required": True} if opt in required else {}
        p.add_argument("--" + opt, **OPTIONS[opt], **extra)
    p.set_defaults(handler=handler)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="condfield",
        description="Sample Gaussian fields conditioned on a large linear "
        "functional and verify their concentration onto the limit profile.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _subcommand(sub, "profile", cmd_profile, "write the limit profile C|T> as CSV")
    _subcommand(sub, "condition", cmd_condition, "draw one conditional sample",
                "scalar", "mode", "seed", "u", required=("u",))
    _subcommand(sub, "sweep", cmd_sweep, "paired-seed concentration sweep over u",
                "scalar", "mode", "mc", "seed", "u-list")
    verify = sub.add_parser("verify", help="run a proposition or bound check")
    checks = verify.add_subparsers(dest="check", required=True)
    for name, check, help, options in (
        ("prop1", check_prop1, "variance of <T|phi> against <T|C|T>",
         ("scalar", "mc", "seed")),
        ("prop3", check_prop3, "large derivative against the analytic curve",
         ("scalar", "mode", "seed", "u")),
        ("bounds", check_bounds, "per-sample bound chain at one threshold",
         ("scalar", "mode", "mc", "seed", "u")),
    ):
        _subcommand(checks, name, functools.partial(cmd_verify, name, check), help, *options)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return args.handler(_Setup(args), args.out)
    except (CondfieldError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
