"""Benchmark of the condfield command line, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is one fixed ``condfield`` command. Every repetition runs it
in-process through ``condfield.cli.main(argv)`` in a fresh worker process,
with ``--seed N`` and its outputs in a temporary directory inside the
checkout. Repetitions continue while another one fits in ``--seconds``
(the set-up timing below comes on top); there is always at least one.
Workers run one at a time from this process, with one BLAS thread and
``$CONDENSATE_SEED`` removed.

--trace 0 prints the end-to-end metrics: wall time of the fastest
repetition and its samples per second, the median peak resident memory of
the workers, and the median time to build the workload's model through the
public API (timed in its own worker before the commands). The fastest
repetition is taken, as timeit does, because on a shared host contention
only ever slows a repetition: over ten runs of sweep-m128-real on a 2-vCPU
VM, the per-run fastest repetition spread by 10% (quartile distance over
median), the per-run median by 22%. Only repetitions that pass every check
are timed, unless none did. --trace 1
alternates untraced and traced repetitions and prints per-layer metrics from
spans recorded around the public functions of each module (see spans.py),
plus the tracing overhead.

Every output is checked (exit code, row counts, finite values, strict JSON,
zero bound violations, fitted slope, prop1 verdict, echoed seed) and hashed;
a hash that differs from the first good run of the same command at the same
source tree is a failure. A failing command counts all its samples as
failed. The last line printed is one JSON object with keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE_DIR = ROOT / ".perfbench_state"
TMP_DIR = ROOT / ".perfbench_tmp"

DEADLINE_S = 165.0  # the whole run must end within 180 s
SLOPE_WINDOW = (-1.15, -0.85)  # acceptance criterion 5
NPROC = len(os.sched_getaffinity(0))
# With two threads the gemv at M = 128 and 512 hands every call to a second
# thread, which doubled the spread between repetitions on a 2-vCPU VM.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_MIN_REPEATS = 3
SETUP_SHARE = 0.1  # of --seconds spent repeating the set-up beyond the minimum


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    command: tuple  # subcommand words
    grid: int
    kernel: str
    functional: str
    scalar: str
    mc: int
    mode: str | None = None
    u_list: tuple = ()
    domain: tuple = (0.0, 1.0)

    @property
    def is_sweep(self) -> bool:
        return self.command == ("sweep",)

    @property
    def samples(self) -> int:
        """Sweep: one per (u, i) record. prop1: one per unconditional draw."""
        return self.mc * len(self.u_list) if self.is_sweep else self.mc

    @property
    def outputs(self) -> tuple:
        return ("sweep.csv", "sweep.json") if self.is_sweep else ("prop1.json",)

    def argv(self, out_dir, seed: int) -> list:
        argv = [*self.command, "--domain", ",".join(f"{v:g}" for v in self.domain),
                "--grid", str(self.grid), "--kernel", self.kernel,
                "--functional", self.functional, "--scalar", self.scalar,
                "--mc", str(self.mc), "--seed", str(seed)]
        if self.mode:
            argv += ["--mode", self.mode]
        if self.u_list:
            argv += ["--u-list", ",".join(f"{u:g}" for u in self.u_list)]
        return argv + ["--out", str(Path(out_dir) / self.outputs[0])]

    def model(self) -> dict:
        return {"domain": list(self.domain), "grid": self.grid,
                "kernel": self.kernel, "functional": self.functional}


# Why each workload: sweep-m2048 is dense matvec and eigh bound (batching,
# dtype and factor backends show there); prop1-m512 draws unconditional
# samples only, with a second eigh, and never reaches the concentration
# metrics; sweep-m128-real has tiny matrices, so per-record overhead
# dominates (streams, rejection sampler, distance records, aggregation, CSV)
# and a factor-backend change should show no gain. Its --mc is kept small so
# that a run holds about 35 repetitions, which makes the fastest of them
# steadier than the fastest of a dozen at --mc 2000.
# sweep-m2048 can be run by hand but is not listed in BENCHMARK.json: one
# command takes about 25 s and streams a 64 MB matrix per draw, so on a
# shared host its wall time followed the neighbours' memory traffic, and the
# quartile distance over ten seeds reached 30% of the median.
WORKLOADS = {w.name: w for w in (
    Workload("sweep-m2048", ("sweep",), 2048, "sqexp:1:0.2", "point:0.5", "complex",
             mc=200, mode="fixed-rho:1", u_list=(10, 100, 1000, 10000)),
    Workload("prop1-m512", ("verify", "prop1"), 512, "sqexp:1:0.2", "point:0.5",
             "complex", mc=20000),
    Workload("sweep-m128-real", ("sweep",), 128, "exp:1:0.1", "point:0.5", "real",
             mc=500, mode="random",
             u_list=(10, 31.6, 100, 316, 1000, 3162, 10000, 31623)),
)}

# Sizes for the harness self-test.
TINY = {"sweep-m2048": {"grid": 128, "mc": 20},
        "prop1-m512": {"grid": 64, "mc": 1000},
        "sweep-m128-real": {"grid": 32, "mc": 50}}

END_TO_END = {"wall_s": "s", "samples_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metric names are "<span>.<kind>": kind "s" is inclusive time,
# "self_s" the time outside child spans, "calls" the call count.
LAYER_STATS = (
    "covariance.sqrt_factor.s", "covariance.sqrt_factor.calls",
    "covariance.assemble.s",
    "covariance.apply.s", "covariance.apply.calls",
    "sampling.substream.s", "sampling.substream.calls",
    "sampling.white_noise.s", "sampling.white_noise.calls",
    "sampling.sample_t_u.s", "sampling.truncated_normal_lower.calls",
    "sampling.sample_conditional.self_s",
    "concentration.distance_record.self_s", "concentration.distance_record.calls",
    "grid.l2_norm.calls",
    "concentration.sweep.self_s", "concentration.verify_prop1.self_s",
    "functionals.constants.s", "functionals.profile.s",
    "cli.main.self_s",
)
KIND_UNITS = {"s": "s", "self_s": "s", "calls": "count"}
PER_LAYER = {
    **{name: KIND_UNITS[name.rsplit(".", 1)[1]] for name in LAYER_STATS},
    "covariance.apply.bytes_computed": "B",  # calls * M^2 * 8, computed
    "cli.bytes_written": "B",
    "trace_overhead_frac": "frac",
}


@dataclasses.dataclass
class Outcome:
    traced: bool
    samples: int
    problems: list
    wall_s: float | None = None
    peak_rss_mb: float | None = None
    stats: dict | None = None
    versions: dict | None = None
    bytes_written: int = 0


def _tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()
                       and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


class DigestStore:
    """Hash of the outputs of the first good run of each command, seed,
    interpreter, BLAS thread count and source tree; kept in the checkout so
    later runs compare against it."""

    def __init__(self, path: Path):
        self.path = path
        try:
            self.data = json.loads(path.read_text())
        except (OSError, ValueError):
            self.data = {}

    def check(self, key: str, digest: str, good: bool) -> bool:
        first = self.data.get(key)
        if first is None and good:
            self.data[key] = digest
            self.path.parent.mkdir(parents=True, exist_ok=True)
            tmp = self.path.with_suffix(".tmp")
            tmp.write_text(json.dumps(self.data, indent=1, sort_keys=True))
            os.replace(tmp, self.path)
        return first is None or first == digest


def _strict_json(path: Path):
    def reject(token):
        raise ValueError(f"bare {token} in {path.name}")

    return json.loads(path.read_text(), parse_constant=reject)


def check_outputs(wl: Workload, out_dir: Path, seed: int, rc) -> list:
    """Problems found in one command's exit code and output files."""
    problems = [] if rc == 0 else [f"exit code {rc}"]
    try:
        if wl.is_sweep:
            with open(out_dir / "sweep.csv", newline="") as fh:
                header, *rows = list(csv.reader(fh))
            if len(rows) != wl.samples:
                problems.append(f"{len(rows)} CSV rows, expected {wl.samples}")
            for row in rows:
                if len(row) != len(header) or not all(math.isfinite(float(v)) for v in row):
                    problems.append(f"bad CSV row {row}")
                    break
            report = _strict_json(out_dir / "sweep.json")
            if report["violations_est0"] or report["violations_est12"]:
                problems.append("bound violations: est0 "
                                f"{report['violations_est0']}, est12 {report['violations_est12']}")
            slope = report["slope"]
            if slope is None or not SLOPE_WINDOW[0] <= slope <= SLOPE_WINDOW[1]:
                problems.append(f"slope {slope} outside {SLOPE_WINDOW}")
        else:
            report = _strict_json(out_dir / "prop1.json")
            if report["result"]["passed"] is not True:
                problems.append("prop1 not passed")
        if report["config"]["seed"] != seed:
            problems.append(f"seed {report['config']['seed']} echoed, expected {seed}")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    return problems


def _worker_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("CONDENSATE_SEED", "PYTHONPATH", "PYTHONHOME", "PYTHONSTARTUP")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
    return env


def run_worker(job_dir: Path, request: dict, timeout: float):
    """Run one worker to completion; return (result or None, error text)."""
    job_dir.mkdir(parents=True)
    req_path, res_path = job_dir / "request.json", job_dir / "result.json"
    req_path.write_text(json.dumps({**request, "result": str(res_path)}))
    try:
        proc = subprocess.run([sys.executable, "-s", str(HERE / "worker.py"), str(req_path)],
                              cwd=job_dir, env=_worker_env(), capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        return None, f"worker timed out after {timeout:.0f} s"
    if proc.returncode != 0 or not res_path.exists():
        return None, f"worker exit {proc.returncode}: {proc.stderr.strip()[-800:]}"
    return json.loads(res_path.read_text()), ""


class Harness:
    def __init__(self, wl: Workload, seed: int, work_dir: Path, deadline: float):
        self.wl, self.seed, self.work_dir, self.deadline = wl, seed, work_dir, deadline
        self.store = DigestStore(STATE_DIR / "digests.json")
        self.key = "|".join([wl.name, str(seed), " ".join(wl.argv("OUT", seed)),
                             sys.executable, f"blas_threads={BLAS_THREADS}",
                             _tree_digest(ROOT / "src")])
        self.jobs = 0

    def _job_dir(self) -> Path:
        self.jobs += 1
        return self.work_dir / f"job{self.jobs:03d}"

    def setup(self, budget_s: float):
        result, err = run_worker(self._job_dir(), {
            "job": "setup", "model": self.wl.model(), "min_repeats": SETUP_MIN_REPEATS,
            "budget_s": budget_s,
        }, self.deadline - time.perf_counter())
        if result is None:
            raise RuntimeError(f"set-up failed: {err}")
        return result

    def command(self, traced: bool) -> Outcome:
        job = self._job_dir()
        out_dir = job / "out"
        out_dir.mkdir(parents=True)
        outcome = Outcome(traced=traced, samples=self.wl.samples, problems=[])
        result, err = run_worker(job / "worker", {
            "job": "command", "argv": self.wl.argv(out_dir, self.seed), "trace": traced,
        }, self.deadline - time.perf_counter())
        if result is None:
            outcome.problems.append(err)
            return outcome
        outcome.wall_s = result["wall_s"]
        outcome.peak_rss_mb = result["peak_rss_mb"]
        outcome.stats = result["stats"]
        outcome.versions = result["versions"]
        outcome.problems = check_outputs(self.wl, out_dir, self.seed, result["rc"])
        files = sorted(p for p in out_dir.iterdir() if p.is_file())
        outcome.bytes_written = sum(p.stat().st_size for p in files)
        digest = hashlib.sha256(b"".join(p.name.encode() + b"\0" + p.read_bytes()
                                         for p in files)).hexdigest()
        if not self.store.check(self.key, digest, good=not outcome.problems):
            outcome.problems.append("outputs differ from the first good run at this source tree")
        return outcome


def layer_metrics(outcome: Outcome, m: int) -> dict:
    def field(name):
        span, kind = name.rsplit(".", 1)
        calls, total, child = outcome.stats.get(span, (0, 0.0, 0.0))
        return {"calls": calls, "s": total, "self_s": total - child}[kind]

    values = {name: field(name) for name in LAYER_STATS}
    values["covariance.apply.bytes_computed"] = values["covariance.apply.calls"] * m * m * 8
    values["cli.bytes_written"] = outcome.bytes_written
    return values


def measure(wl: Workload, seed: int, seconds: float, trace: bool, work_dir: Path):
    """Run the workload; return (outcomes, metric values, manifest)."""
    start = time.perf_counter()
    deadline = start + DEADLINE_S
    harness = Harness(wl, seed, work_dir, deadline)
    manifest = {"workload": wl.name, "seed": seed, "seconds": seconds, "traced": trace,
                "argv": wl.argv("OUT", seed), "nproc": NPROC, "blas_threads": BLAS_THREADS,
                "python_executable": sys.executable}
    setup = None
    if not trace:
        setup = harness.setup(SETUP_SHARE * seconds)
        manifest["setup_repeats"] = len(setup["times"])
    outcomes = []
    commands_start = time.perf_counter()
    while True:
        began = time.perf_counter()
        outcomes.append(harness.command(traced=False))
        if trace:
            outcomes.append(harness.command(traced=True))
        now = time.perf_counter()
        if now - commands_start + (now - began) > seconds or now + (now - began) > deadline:
            break
    manifest["commands"] = len(outcomes)
    manifest.update(next((o.versions for o in outcomes if o.versions), {}))

    def timed(traced):
        ran = [o for o in outcomes if o.traced == traced and o.wall_s is not None]
        return [o for o in ran if not o.problems] or ran

    plain = timed(False)
    if trace:
        traced = timed(True)
        if not plain or not traced:
            return outcomes, None, manifest
        per_run = [layer_metrics(o, wl.grid) for o in traced]
        values = {name: statistics.median_low(r[name] for r in per_run) for name in per_run[0]}
        plain_wall = min(o.wall_s for o in plain)
        traced_wall = min(o.wall_s for o in traced)
        values["trace_overhead_frac"] = (traced_wall - plain_wall) / plain_wall
    else:
        if not plain:
            return outcomes, None, manifest
        values = {
            "wall_s": min(o.wall_s for o in plain),
            "samples_per_s": max(o.samples / o.wall_s for o in plain),
            "setup_s": statistics.median(setup["times"]),
            "peak_rss_mb": statistics.median(o.peak_rss_mb for o in plain),
        }
    return outcomes, values, manifest


def main(argv=None, tiny=False) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so the running worker is killed and reaped and the
    # temporary directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "condfield" / "__init__.py").is_file():
        print(f"no condfield sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    if tiny:
        wl = dataclasses.replace(wl, **TINY[wl.name])
    TMP_DIR.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=TMP_DIR))
    try:
        outcomes, values, manifest = measure(wl, args.seed, args.seconds,
                                             bool(args.trace), work_dir)
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            TMP_DIR.rmdir()
        except OSError:
            pass
    if values is None:
        for o in outcomes:
            print(o.problems, file=sys.stderr)
        print("no command completed; no metric to report", file=sys.stderr)
        return 1

    for i, o in enumerate(outcomes):
        wall = "-" if o.wall_s is None else f"{o.wall_s:.3f} s"
        print(f"command {i} {'traced' if o.traced else 'plain'}: wall {wall}, "
              f"{'ok' if not o.problems else 'FAILED: ' + '; '.join(o.problems)}")
    attempted = sum(o.samples for o in outcomes)
    failed = sum(o.samples for o in outcomes if o.problems)
    print("manifest " + json.dumps(manifest, sort_keys=True))
    units = PER_LAYER if args.trace else END_TO_END
    for name, unit in units.items():
        print(f"{name} = {values[name]!r} {unit}")
    print(f"failed_frac = {failed / attempted!r}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
