"""Byte-identity check of the command-line outputs of two source trees.

    python3 tools/byteid.py --rev REV [--quick]

Runs one fixed matrix of commands through ``condfield.cli.main`` on two trees:
the revision REV of this repository, extracted with ``git archive`` into a
temporary directory, and the working tree.  Each tree
runs the whole matrix in one fresh interpreter, with one BLAS thread and
$CONDENSATE_SEED removed, and each command in a directory of its own.  Every
output file, exit code and first stderr line is then compared.  The script
prints a manifest of the runs and each difference, and exits 1 on any
difference.  ``--quick`` runs a small subset: every command on one model and
the edge rows flagged quick.

``EDGES`` is the one table of edge commands, malformed or extreme inputs: each
row holds a command line, its exit code, a fragment of its first stderr line
and whether ``--quick`` runs it.  Adding an edge case means adding one row;
tests/test_cli.py runs every row in-process and checks its outcome.

``LARGE`` is the one table of large commands: each row holds a command line, a
timeout and a peak RSS bound, which CI gates it on in a fresh interpreter; the
full matrix runs every row.  Adding a large-run gate means adding one row.
"""

import argparse
import hashlib
import itertools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent

SQEXP, EXP, RANKK = "sqexp:1:0.2", "exp:1:0.1", "rankk:4@1,1@3,0.5@0"
KERNELS = (SQEXP, EXP, RANKK)
FUNCTIONALS = ("point:0.5", "integral:cosine", "dpoint:0.5:2:4")
GRIDS = (("0,1", 68), ("0,1", 97), ("0,1", 128), ("0,1", 512), ("-0.3,2.7", 97))

# each is one command line; --out, where given, is relative to the command's directory
PER_MODEL = (
    "profile --out p.csv",
    "condition --u 10 --scalar complex --mode fixed-rho:1.5:0.3 --seed 1 --out c.csv",
    "condition --u 1000 --scalar real --mode random --seed 2 --out c.csv",
    "sweep --u-list 10,100,1000 --mc 40 --scalar complex --mode fixed-rho:1 --seed 3 --out s.csv",
    "sweep --u-list 10,10000 --mc 40 --scalar real --mode random --seed 4 --out s.csv",
)
PER_KERNEL_AND_FUNCTIONAL = (
    "verify bounds --u 100 --mc 40 --mode random --out b.json",
    "verify prop1 --mc 1000 --scalar real --out p1.json",
    "verify prop3 --u 1e6 --out p3.json",
)

USAGE = "usage: condfield"  # the start of an argparse error's first stderr line
T_U = "|t_u|^2 is not representable in doubles"
SEED = "seed must be >= 0 (--seed, else $CONDENSATE_SEED), got -1"


class Edge(NamedTuple):
    """An edge command and its outcome: the exit code, a fragment of the first stderr
    line ('' for exit 0), and whether --quick runs it."""

    line: str
    rc: int
    says: str = ""
    quick: bool = False

    @property
    def argv(self) -> list:
        return self.line.split()


EDGES = (
    # default output names
    Edge("profile", 0, quick=True),
    Edge("verify prop1 --mc 1000", 0),
    # malformed input
    Edge("profile --kernel matern:1:0.2", 2, "unknown kernel spec 'matern:1:0.2'", quick=True),
    Edge("profile --grid 1", 2, "need an integer number of grid points >= 2, got 1"),
    Edge("profile --domain 1,0", 2, "need finite a < b"),
    Edge("profile --domain=-1e308,1e308 --grid 4", 2, "step h = (b - a)/M = inf"),
    Edge("profile --functional point:2", 2, "x0=2.0 outside [0.0, 1.0]"),
    Edge("profile --functional dpoint:0.5:0:5", 2, "order must be one of (2, 4, 6), got 5"),
    Edge("verify prop3 --functional dpoint:0.5:0:5", 2, "order must be one of (2, 4, 6), got 5"),
    Edge("condition --u -1", 2, "threshold u must be finite and >= 0, got -1.0"),
    Edge("condition --u nan", 2, "threshold u must be finite and >= 0, got nan"),
    Edge("condition --u inf", 2, "threshold u must be finite and >= 0, got inf"),
    Edge("condition --u 10 --mode fixed-rho:nan", 2, "need finite rho >= 0 and theta"),
    Edge("condition --u 10 --mode fixed-rho:1:0.5 --scalar real", 2,
         "real scalar field requires theta = 0"),
    Edge("condition --u 10 --seed -1", 2, SEED),
    Edge("sweep --u-list 10 --mc 5 --grid 32 --seed -1", 2, SEED),
    Edge("verify prop1 --mc 1000 --seed -1", 2, SEED),
    Edge("profile --kernel sqexp:nan:0.2", 2, "needs finite variance > 0 and ell > 0"),
    Edge("sweep --u-list 10,nan --mc 5", 2, "threshold u must be finite and >= 0, got nan"),
    Edge("sweep --u-list 100,10 --mc 5", 2, "u_list must be strictly ascending"),
    Edge("verify bounds --mc 0", 2, "n_mc must be >= 1, got 0"),
    Edge("verify prop1 --mc 10", 2, "need n_mc >= 1000, got 10"),
    Edge("verify prop3 --functional integral:cosine", 2, "needs a point or dpoint functional"),
    Edge("profile --out missing/p.csv", 1, "No such file or directory"),
    # a missing option, an unknown command, and options the command does not read
    Edge("sweep", 2, USAGE),
    Edge("frobnicate", 2, USAGE),
    Edge("profile --scalar real", 2, USAGE),
    Edge("profile --mode random", 2, USAGE),
    Edge("profile --mc 10", 2, USAGE),
    Edge("profile --seed 1", 2, USAGE),
    Edge("condition --u 10 --mc 10", 2, USAGE),
    Edge("verify prop1 --mc 1000 --mode random", 2, USAGE),
    Edge("verify prop1 --mc 1000 --u 10", 2, USAGE),
    Edge("verify prop3 --mc 10", 2, USAGE),
    # non-finite or extreme values on the way
    Edge("profile --functional point:nan", 2, "x0=nan outside [0.0, 1.0]"),
    Edge("condition --u 100 --functional custom:inf", 2, "unknown functional spec 'custom:inf'"),
    Edge("condition --kernel sqexp:1e-4:0.2 --scalar real --mode random --u 1e153", 2, T_U),
    Edge("condition --u 1e155 --grid 64", 2, T_U),
    Edge("sweep --u-list 10,1e155 --mc 5 --grid 64", 2, T_U),
    Edge("verify bounds --u 1e155 --mc 5 --grid 64", 2, T_U),
    Edge("sweep --kernel sqexp:1e-200:0.2 --u-list 1,2 --mc 5 --grid 64", 0),
    # w K fits, although 2 K would not; w K overflows, or lam e_1(x)^2 does
    Edge("profile --grid 32 --kernel exp:1.7e308:0.2", 0),
    Edge("condition --grid 32 --kernel exp:1e308:0.2 --u 10", 0),
    Edge("profile --domain 0,1e10 --grid 4 --kernel exp:1e308:0.2", 2,
         "Exponential(variance=1e+308, ell=0.2) gives a covariance matrix that is not finite"),
    Edge("profile --grid 32 --kernel rankk:1.7e308@1", 2,
         "RankK(modes=((1.7e+308, 1),)) gives a covariance matrix that is not finite"),
    # ell^2 underflows to 0, or overflows, or neither at an extreme but representable ell
    Edge("profile --kernel sqexp:1:1e-200", 2, "needs 2 ell^2 to be a positive finite double"),
    Edge("profile --kernel sqexp:1:1e160", 2, "needs 2 ell^2 to be a positive finite double"),
    Edge("condition --u 10 --kernel sqexp:1:1e160", 2,
         "needs 2 ell^2 to be a positive finite double"),
    Edge("profile --kernel sqexp:1:1e150", 0),
    Edge("profile --kernel sqexp:1:1e-150", 0),
    # the analytic curve is inf * 0, or ell^-n overflows
    Edge("profile --grid 32 --kernel sqexp:1e300:1e-5 --functional dpoint:0.5:1", 2,
         "analytic curve is not finite for d^1 C(x, x0)/d x0^1"),
    Edge("profile --kernel sqexp:1:1e-60 --functional dpoint:0.5:4", 2,
         "analytic curve is not finite for d^4 C(x, x0)/d x0^4"),
    Edge("profile --functional dpoint:0.5:4 --kernel sqexp:1:1e-40", 2,
         "analytic curve is not finite for d^4 C(x, x0)/d x0^4"),
    Edge("verify prop3 --functional dpoint:0.5:4 --kernel sqexp:1:1e-40", 2,
         "analytic curve is not finite for d^4 C(x, x0)/d x0^4"),
    Edge("profile --functional dpoint:0.5:4 --kernel sqexp:1:1e-80", 2,
         "ell^-4 overflows a double"),
    Edge("verify prop3 --functional dpoint:0.5:4 --kernel sqexp:1:1e-80", 2,
         "ell^-4 overflows a double"),
    # -|x - y|/ell overflows to -inf, and exp(-inf) = 0 is the correlation
    Edge("profile --grid 32 --kernel exp:1:1e-320", 0),
    # <T|C|T> and ||C T||_2 overflow, also through (w sum_i |T_i|)^2 in its roundoff bound
    Edge("sweep --grid 32 --kernel exp:1e300:0.2 --functional dpoint:0.5:4 --u-list 10,100 "
         "--mc 3", 2, "non-finite theory constants: <T|C|T> = inf, "),
    Edge("condition --domain 0,1e-40 --functional dpoint:5e-41:4 --u 10 --kernel sqexp:1:1e-41",
         2, "non-finite theory constants: <T|C|T> = inf, "),
    Edge("condition --grid 256 --kernel sqexp:1e306:0.2 --u 10", 0),
    Edge("condition --grid 256 --kernel exp:1e307:0.2 --u 10", 0),
    # sums whose terms overflow although the weighted sum fits (<T|C|T>, C T and prop1's
    # variance estimate), and a variance estimate or a <T|C|T> that does not fit
    Edge("condition --grid 256 --kernel sqexp:1e306:0.2 --u 10 --functional dpoint:0.5:1", 0),
    Edge("profile --grid 256 --kernel sqexp:1e306:0.2 --functional dpoint:0.5:2:4", 0),
    Edge("verify prop1 --grid 256 --kernel sqexp:1e306:0.2 --mc 1000", 0),
    Edge("verify prop1 --grid 32 --kernel exp:1.7e308:0.2 --mc 1000", 2,
         "the empirical variance of <T|phi> is not a finite double: var_hat = inf"),
    Edge("condition --grid 256 --kernel sqexp:1e306:0.2 --u 10 --functional dpoint:0.5:2:4", 2,
         "non-finite theory constants: <T|C|T> = inf, "),
    # 40 equal modes: a factor of the kernel's rank, 40
    Edge("condition --grid 64 --kernel rankk:" + ",".join(f"1@{k}" for k in range(40))
         + " --u 10", 0),
    # kernels whose operator's products pass the double range
    Edge("condition --grid 256 --kernel sqexp:1e307:0.2 --u 10", 2,
         "an eigenvalue of K = op / w is not finite"),
    Edge("condition --grid 2048 --kernel sqexp:1e307:0.2 --u 10", 2,
         "an eigenvalue of K = op / w is not finite"),
    Edge("sweep --grid 256 --kernel sqexp:1e307:0.2 --u-list 10", 2,
         "an eigenvalue of K = op / w is not finite"),
    Edge("condition --grid 256 --kernel rankk:1e307@1 --u 10", 2,
         "an eigenvalue of K = op / w is not finite", quick=True),
    # operators below the normal doubles, whose positivity cannot be told
    Edge("condition --u 10 --kernel sqexp:1e-320:0.2", 2, "below the normal doubles"),
    Edge("condition --grid 256 --u 10 --kernel exp:1e-320:0.1", 2, "below the normal doubles"),
    Edge("condition --grid 256 --u 10 --kernel sqexp:1e-310:0.2", 2, "below the normal doubles"),
    # kernels so small that probes scaled up to their scale would pass it
    Edge("condition --grid 256 --kernel sqexp:1e-307:0.2 --u 10", 2, T_U, quick=True),
    Edge("condition --grid 256 --kernel rankk:1e-307@1 --u 10", 2, T_U, quick=True),
)


class Large(NamedTuple):
    """A large command, its timeout in s and its peak RSS bound in MB."""

    line: str
    timeout_s: int
    rss_mb: int
    argv = Edge.argv


LARGE = (
    # prop1's setup stays linear in M, also far from 0; a wide functional reads the lag row
    Large("verify prop1 --grid 65536 --kernel sqexp:1:0.2 --functional point:0.5 --mc 1000",
          60, 110),
    Large("verify prop1 --domain 10000,10001 --grid 60000 --kernel sqexp:1:0.2 "
          "--functional point:10000.5 --mc 1000", 60, 110),
    Large("profile --grid 65536 --kernel sqexp:1:0.2 --functional integral:cosine", 20, 95),
    # the first-target sweep, a many-sample sweep, and exp sweeps that hold one noise block
    Large("sweep --grid 2048 --kernel sqexp:1:0.2 --functional point:0.5 --scalar complex "
          "--mode fixed-rho:1 --mc 200 --u-list 10,100,1000,10000", 30, 70),
    Large("sweep --grid 128 --kernel exp:1:0.1 --functional point:0.5 --scalar real "
          "--mode random --mc 20000 --u-list 10,100,1000,10000", 20, 70),
    Large("sweep --grid 65536 --kernel exp:1:0.1 --functional point:0.5 --scalar real "
          "--mode random --mc 100 --u-list 10,100,1000,10000", 60, 300),
    Large("sweep --grid 65536 --kernel exp:1:0.1 --functional point:0.5 --scalar complex "
          "--mode random --mc 100 --u-list 10,100,1000,10000", 60, 560),
    # one draw on each route: no noise block, one chunk of GEMM rows, a scale-free certificate
    Large("condition --grid 65536 --kernel exp:1:0.1 --scalar complex --u 10", 30, 70),
    Large("condition --grid 65536 --kernel sqexp:1:0.2 --scalar real --u 10", 30, 110),
    Large("condition --grid 65536 --kernel sqexp:1:0.2 --scalar complex --u 10", 30, 110),
    Large("condition --grid 65536 --kernel sqexp:1e300:0.2 --scalar real --u 10", 30, 110),
    Large("condition --grid 65536 --kernel sqexp:1e300:0.2 --scalar complex --u 10", 30, 110),
)


def matrix(quick: bool) -> list:
    """The command lines, each a list of arguments to `cli.main`; `quick`, every
    command on one model and the edges flagged quick."""
    if quick:
        model = ["--grid", "68", "--kernel", SQEXP, "--functional", "dpoint:0.5:2:4"]
        return ([c.split() + model for c in PER_MODEL + PER_KERNEL_AND_FUNCTIONAL]
                + [e.argv for e in EDGES if e.quick])
    cmds = []
    for (domain, m), kernel, functional in itertools.product(GRIDS, KERNELS, FUNCTIONALS):
        model = [f"--domain={domain}", "--grid", str(m), "--kernel", kernel,
                 "--functional", functional]  # '=', as a domain may start with '-'
        cmds += [c.split() + model for c in PER_MODEL]
    for kernel, functional in itertools.product(KERNELS, FUNCTIONALS):
        model = ["--kernel", kernel, "--functional", functional]
        cmds += [c.split() + model for c in PER_KERNEL_AND_FUNCTIONAL]
    return cmds + [row.argv for row in LARGE] + [e.argv for e in EDGES]


# run in a fresh interpreter: argv[1] the tree's src directory, argv[2] the output
# directory, the matrix as JSON on stdin; writes results.json there
RUNNER = r"""
import contextlib, io, json, os, sys
src, out = sys.argv[1:]
sys.path.insert(0, src)
import warnings
warnings.simplefilter("always")  # a command's warnings, whatever ran before it
from condfield import cli
if os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__))) != src:
    raise SystemExit(f"condfield imported from {cli.__file__}, not from {src}")
results = []
for k, argv in enumerate(json.load(sys.stdin)):
    here = os.path.join(out, str(k))
    os.makedirs(here)
    os.chdir(here)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            rc = cli.main(argv)
        except Exception as exc:
            rc, err = None, io.StringIO(f"raised {type(exc).__name__}: {exc}")
    line = (err.getvalue().splitlines() or [""])[0]
    results.append({"rc": rc, "stderr": line.replace(os.path.dirname(src), "<tree>")})
os.chdir(out)
with open("results.json", "w") as fh:
    json.dump(results, fh)
"""


def extract(rev: str, dest: Path) -> Path:
    """The src directory of revision `rev`, extracted under `dest` by git archive."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                         check=True, capture_output=True).stdout
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=tar, check=True)
    return dest / "src"


def run_tree(src: Path, out: Path, cmds: list) -> list:
    """Run `cmds` on the tree `src` in one fresh interpreter; per command its exit
    code, first stderr line and {file: bytes} of what it wrote."""
    env = {k: v for k, v in os.environ.items() if k not in ("CONDENSATE_SEED", "PYTHONPATH")}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out.mkdir()
    subprocess.run([sys.executable, "-c", RUNNER, str(src.resolve()), str(out)],
                   input=json.dumps(cmds), text=True, env=env, check=True)
    results = json.loads((out / "results.json").read_text())
    for k, res in enumerate(results):
        here = out / str(k)
        res["files"] = {str(p.relative_to(here)): p.read_bytes()
                        for p in sorted(here.rglob("*")) if p.is_file()}
    return results


def differences(a: dict, b: dict) -> list:
    """What differs between one command's results on the two trees."""
    diffs = [f"{key}: {a[key]!r} -> {b[key]!r}" for key in ("rc", "stderr") if a[key] != b[key]]
    for name in sorted(a["files"].keys() | b["files"].keys()):
        x, y = a["files"].get(name), b["files"].get(name)
        if x is None or y is None:
            diffs.append(f"{name}: only in the {'second' if x is None else 'first'} tree")
        elif x != y:
            lines = zip(x.splitlines(), y.splitlines())
            row = next((i for i, (p, q) in enumerate(lines) if p != q), None)
            where = f"first at line {row + 1}" if row is not None else "in length"
            diffs.append(f"{name}: {len(x)} B -> {len(y)} B, differs {where}")
    return diffs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rev", required=True, help="the revision to compare against")
    parser.add_argument("--quick", action="store_true", help="run a small subset")
    args = parser.parse_args(argv)
    cmds = matrix(args.quick)
    with tempfile.TemporaryDirectory(prefix="byteid-") as tmp:
        tmp = Path(tmp)
        ra = run_tree(extract(args.rev, tmp / "first"), tmp / "out-first", cmds)
        rb = run_tree(ROOT / "src", tmp / "out-second", cmds)
    print(f"byteid: {args.rev} against the working tree, {len(cmds)} commands")
    n_diff = n_files = 0
    for argv, a, b in zip(cmds, ra, rb):
        files = " ".join(f"{name}:{len(data)}:{hashlib.sha256(data).hexdigest()[:12]}"
                         for name, data in a["files"].items())
        print(f"  [{a['rc']}] {' '.join(argv)}" + (f"  {files}" if files else ""))
        if a["stderr"]:
            print(f"      stderr: {a['stderr']}")
        n_files += len(a["files"])
        diffs = differences(a, b)
        n_diff += bool(diffs)
        for d in diffs:
            print(f"    DIFFERS {d}")
    verdict = "identical" if n_diff == 0 else f"{n_diff} commands differ"
    print(f"byteid: {len(cmds)} commands, {n_files} files: {verdict}")
    return 1 if n_diff else 0


if __name__ == "__main__":
    sys.exit(main())
