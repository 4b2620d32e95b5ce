"""One benchmark worker: a fresh process that runs a single job and writes its
result as JSON.

    python3 perfbench/worker.py REQUEST.json

The request names a job:
  "command": run ``condfield.cli.main(argv)`` once, untraced or traced;
  "setup":   build a workload's model through the public API repeatedly and
             time each build.
The package is imported from the ``src`` directory of the checkout this file
sits in; any other copy on the path is refused.
"""

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_condfield():
    import condfield

    where = Path(condfield.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SystemExit(f"condfield imported from {where}, not from {ROOT / 'src'}")
    return condfield


def _versions(cf):
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "condfield": cf.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
    }


def run_command(req):
    cf = _import_condfield()
    from condfield import cli

    # Imported by untraced runs too, so both load the same modules before timing.
    import spans

    tracer = None
    if req["trace"]:
        tracer = spans.Tracer()
        spans.install(tracer)
    start = time.perf_counter()
    rc = cli.main(req["argv"])
    wall = time.perf_counter() - start
    return {
        "rc": rc,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "stats": tracer.stats if tracer else None,
        "versions": _versions(cf),
    }


def run_setup(req):
    cf = _import_condfield()
    model = req["model"]
    a, b = model["domain"]
    times = []
    budget_start = time.perf_counter()
    while len(times) < req["min_repeats"] or time.perf_counter() - budget_start < req["budget_s"]:
        start = time.perf_counter()
        grid = cf.make_grid(a, b, model["grid"])
        kernel = cf.kernel_from_spec(model["kernel"])
        t = cf.functional_from_spec(model["functional"], grid)
        cov = cf.assemble(kernel, grid)
        factor = cf.sqrt_factor(cov)
        consts = cf.constants(t, cov)
        times.append(time.perf_counter() - start)
        del grid, kernel, t, cov, factor, consts
    return {"times": times, "versions": _versions(cf)}


def main(path):
    req = json.loads(Path(path).read_text())
    job = {"command": run_command, "setup": run_setup}[req["job"]]
    result = job(req)
    Path(req["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
