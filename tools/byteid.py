"""Byte-identity check of the command-line outputs of two source trees.

    python3 tools/byteid.py --rev REV [--quick]

Runs one fixed matrix of commands through ``condfield.cli.main`` on two trees:
the revision REV of this repository, extracted with ``git archive`` into a
temporary directory, and the working tree.  Each tree
runs the whole matrix in one fresh interpreter, with one BLAS thread and
$CONDENSATE_SEED removed, and each command in a directory of its own.  Every
output file, exit code and first stderr line is then compared.  The script
prints a manifest of the runs and each difference, and exits 1 on any
difference.  ``--quick`` runs a small subset.
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

ROOT = Path(__file__).resolve().parent.parent

SQEXP, EXP, RANKK = "sqexp:1:0.2", "exp:1:0.1", "rankk:4@1,1@3,0.5@0"
KERNELS = (SQEXP, EXP, RANKK)
FUNCTIONALS = ("point:0.5", "integral:cosine", "dpoint:0.5:2:4")
GRIDS = (("0,1", 68), ("0,1", 97), ("0,1", 128), ("0,1", 512), ("-0.3,2.7", 97))

# each is one command line; --out, where given, is relative to the command's directory
PER_MODEL = (
    ["profile", "--out", "p.csv"],
    ["condition", "--u", "10", "--scalar", "complex", "--mode", "fixed-rho:1.5:0.3",
     "--seed", "1", "--out", "c.csv"],
    ["condition", "--u", "1000", "--scalar", "real", "--mode", "random", "--seed", "2",
     "--out", "c.csv"],
    ["sweep", "--u-list", "10,100,1000", "--mc", "40", "--scalar", "complex",
     "--mode", "fixed-rho:1", "--seed", "3", "--out", "s.csv"],
    ["sweep", "--u-list", "10,10000", "--mc", "40", "--scalar", "real", "--mode", "random",
     "--seed", "4", "--out", "s.csv"],
)
PER_KERNEL_AND_FUNCTIONAL = (
    ["verify", "bounds", "--u", "100", "--mc", "40", "--mode", "random", "--out", "b.json"],
    ["verify", "prop1", "--mc", "1000", "--scalar", "real", "--out", "p1.json"],
    ["verify", "prop3", "--u", "1e6", "--out", "p3.json"],
)
LARGE = (
    # the first-target sweep, and one draw at M = 65536 on each route
    ["sweep", "--grid", "2048", "--kernel", SQEXP, "--functional", "point:0.5", "--scalar",
     "complex", "--mode", "fixed-rho:1", "--mc", "200", "--u-list", "10,100,1000,10000",
     "--out", "s.csv"],
    ["condition", "--grid", "65536", "--kernel", EXP, "--scalar", "complex", "--u", "10",
     "--out", "c.csv"],
    ["condition", "--grid", "65536", "--kernel", SQEXP, "--scalar", "real", "--u", "10",
     "--out", "c.csv"],
    ["condition", "--grid", "65536", "--kernel", "sqexp:1e300:0.2", "--scalar", "complex",
     "--u", "10", "--out", "c.csv"],
)
EDGES = (
    # default output names
    ["profile"],
    ["verify", "prop1", "--mc", "1000"],
    # malformed input
    ["profile", "--kernel", "matern:1:0.2"],
    ["profile", "--grid", "1"],
    ["profile", "--domain", "1,0"],
    ["profile", "--functional", "point:2"],
    ["profile", "--functional", "dpoint:0.5:0:5"],
    ["condition", "--u", "-1"],
    ["condition", "--u", "nan"],
    ["condition", "--u", "inf"],
    ["condition", "--u", "10", "--mode", "fixed-rho:nan"],
    ["condition", "--u", "10", "--mode", "fixed-rho:1:0.5", "--scalar", "real"],
    ["condition", "--u", "10", "--seed", "-1"],
    ["condition", "--u", "10", "--mc", "10"],
    ["profile", "--kernel", "sqexp:nan:0.2"],
    ["sweep", "--u-list", "10,nan", "--mc", "5"],
    ["sweep", "--u-list", "100,10", "--mc", "5"],
    ["verify", "prop1", "--mc", "10"],
    ["verify", "prop3", "--functional", "integral:cosine"],
    ["profile", "--out", "missing/p.csv"],
    # non-finite or extreme values on the way
    ["profile", "--functional", "point:nan"],
    ["condition", "--u", "100", "--functional", "custom:inf"],
    ["condition", "--u", "1e155", "--grid", "64"],
    ["sweep", "--u-list", "10,1e155", "--mc", "5", "--grid", "64"],
    ["verify", "bounds", "--u", "1e155", "--mc", "5", "--grid", "64"],
    ["sweep", "--kernel", "sqexp:1e-200:0.2", "--u-list", "1,2", "--mc", "5", "--grid", "64"],
    ["profile", "--grid", "32", "--kernel", "exp:1.7e308:0.2"],
    ["profile", "--kernel", "sqexp:1:1e-200"],
    ["profile", "--kernel", "sqexp:1:1e160"],
    ["condition", "--u", "10", "--kernel", "sqexp:1:1e160"],
    ["profile", "--grid", "32", "--kernel", "sqexp:1e300:1e-5", "--functional", "dpoint:0.5:1"],
    ["profile", "--functional", "dpoint:0.5:4", "--kernel", "sqexp:1:1e-80"],
    ["verify", "prop3", "--functional", "dpoint:0.5:4", "--kernel", "sqexp:1:1e-40"],
    ["profile", "--grid", "32", "--kernel", "exp:1:1e-320"],
    ["condition", "--domain", "0,1e-40", "--functional", "dpoint:5e-41:4", "--u", "10",
     "--kernel", "sqexp:1:1e-41"],
    ["condition", "--grid", "256", "--kernel", "sqexp:1e306:0.2", "--u", "10"],
    ["condition", "--grid", "256", "--kernel", "exp:1e307:0.2", "--u", "10"],
    # sums whose terms overflow although the weighted sum fits (<T|C|T>, C T and prop1's
    # variance estimate), and a <T|C|T> that does not fit
    ["condition", "--grid", "256", "--kernel", "sqexp:1e306:0.2", "--u", "10",
     "--functional", "dpoint:0.5:1"],
    ["profile", "--grid", "256", "--kernel", "sqexp:1e306:0.2", "--functional", "dpoint:0.5:2:4"],
    ["verify", "prop1", "--grid", "256", "--kernel", "sqexp:1e306:0.2", "--mc", "1000"],
    ["condition", "--grid", "256", "--kernel", "sqexp:1e306:0.2", "--u", "10",
     "--functional", "dpoint:0.5:2:4"],
    # 40 equal modes: a factor of the kernel's rank, 40
    ["condition", "--grid", "64", "--kernel", "rankk:" + ",".join(f"1@{k}" for k in range(40)),
     "--u", "10"],
    # kernels whose operator's products pass the double range
    ["condition", "--grid", "256", "--kernel", "sqexp:1e307:0.2", "--u", "10"],
    ["condition", "--grid", "2048", "--kernel", "sqexp:1e307:0.2", "--u", "10"],
    ["sweep", "--grid", "256", "--kernel", "sqexp:1e307:0.2", "--u-list", "10"],
    ["condition", "--grid", "256", "--kernel", "rankk:1e307@1", "--u", "10"],
    # operators below the normal doubles, whose positivity cannot be told
    ["condition", "--u", "10", "--kernel", "sqexp:1e-320:0.2"],
    ["condition", "--grid", "256", "--u", "10", "--kernel", "exp:1e-320:0.1"],
    ["condition", "--grid", "256", "--u", "10", "--kernel", "sqexp:1e-310:0.2"],
    # kernels so small that probes scaled up to their scale would pass it
    ["condition", "--grid", "256", "--kernel", "sqexp:1e-307:0.2", "--u", "10"],
    ["condition", "--grid", "256", "--kernel", "rankk:1e-307@1", "--u", "10"],
)


def matrix(quick: bool) -> list:
    """The command lines, each a list of arguments to `cli.main`."""
    if quick:
        model = ["--grid", "68", "--kernel", SQEXP, "--functional", "dpoint:0.5:2:4"]
        return ([c + model for c in PER_MODEL + PER_KERNEL_AND_FUNCTIONAL]
                + [EDGES[0], EDGES[2]] + list(EDGES[-3:]))
    cmds = []
    for (domain, m), kernel, functional in itertools.product(GRIDS, KERNELS, FUNCTIONALS):
        model = [f"--domain={domain}", "--grid", str(m), "--kernel", kernel,
                 "--functional", functional]  # '=', as a domain may start with '-'
        cmds += [c + model for c in PER_MODEL]
    for kernel, functional in itertools.product(KERNELS, FUNCTIONALS):
        model = ["--kernel", kernel, "--functional", functional]
        cmds += [c + model for c in PER_KERNEL_AND_FUNCTIONAL]
    return cmds + list(LARGE) + list(EDGES)


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
