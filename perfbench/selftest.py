"""Self-test of the benchmark harness at tiny problem sizes.

    python3 perfbench/selftest.py

Runs every workload untraced and traced on two seeds, checks that the printed
metrics are exactly those BENCHMARK.json declares, and that corrupted or
non-reproducible outputs, and a checkout without sources, are counted as
failures. Exits non-zero on the first failed check.
"""

import contextlib
import csv
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

SEEDS = (101, 7919)


def expect(cond, what):
    if not cond:
        raise SystemExit(f"FAIL: {what}")
    print(f"ok: {what}")


def bench(workload, seed, trace):
    """Run the harness in-process at tiny size; return (stdout lines, result)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "1",
                       "--trace", str(trace)], tiny=True)
    lines = buf.getvalue().splitlines()
    expect(rc == 0, f"{workload} seed {seed} trace {trace} exits 0")
    return lines, json.loads(lines[-1])


def check_metric_names(spec):
    declared = {w["name"] for w in spec["workloads"]}
    expect(declared <= set(run.WORKLOADS), "every workload of BENCHMARK.json is defined")
    for seed in SEEDS:
        for name in sorted(run.WORKLOADS):
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                lines, result = bench(name, seed, trace)
                units = {m["name"]: m["unit"] for m in spec[section]}
                expect(set(result) == {"correct", "attempted", "failed", "metrics"}
                       and result["correct"] and result["failed"] == 0
                       and result["attempted"] >= 1,
                       f"{name} seed {seed} trace {trace} passes every check")
                printed = {n: m["unit"] for n, m in result["metrics"].items()}
                expect(printed == units, f"{name} trace {trace} metrics match {section}")
                expect(all(any(line.startswith(f"{n} = ") and line.endswith(f" {u}")
                               for line in lines) for n, u in units.items()),
                       f"{name} trace {trace} prints every metric with its unit")


def _replace(path, old, new):
    text = path.read_text()
    if old not in text:
        raise SystemExit(f"FAIL: corruption target {old!r} not in {path.name}")
    path.write_text(text.replace(old, new, 1))


def _csv_nan(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[1][4] = "nan"  # sup_dist of the first record
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _drop_last_row(path):
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))


def _set_json(path, keys, value):
    data = json.loads(path.read_text())
    target = data
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    path.write_text(json.dumps(data))


SWEEP_CORRUPTIONS = {
    "a NaN in the CSV": lambda d: _csv_nan(d / "sweep.csv"),
    "a missing CSV row": lambda d: _drop_last_row(d / "sweep.csv"),
    "a bare NaN in the JSON": lambda d: _replace(d / "sweep.json", '"slope": ', '"slope": NaN, "x": '),
    "a bound violation": lambda d: _set_json(d / "sweep.json", ["violations_est12"], 1),
    "a slope outside the window": lambda d: _set_json(d / "sweep.json", ["slope"], -0.5),
    "a wrong echoed seed": lambda d: _set_json(d / "sweep.json", ["config", "seed"], 0),
    "a missing output file": lambda d: (d / "sweep.json").unlink(),
}
PROP1_CORRUPTIONS = {
    "a failed prop1 verdict": lambda d: _set_json(d / "prop1.json", ["result", "passed"], False),
}


def check_corruptions(work):
    for name, corruptions in (("sweep-m128-real", SWEEP_CORRUPTIONS),
                              ("prop1-m512", PROP1_CORRUPTIONS)):
        wl = dataclasses.replace(run.WORKLOADS[name], **run.TINY[name])
        good = work / name
        good.mkdir()
        result, err = run.run_worker(work / f"{name}-worker",
                                     {"job": "command", "argv": wl.argv(good, SEEDS[0]),
                                      "trace": False}, 60)
        expect(result is not None and not run.check_outputs(wl, good, SEEDS[0], result["rc"]),
               f"{name}: an intact output passes ({err})")
        expect(run.check_outputs(wl, good, SEEDS[0], 3), f"{name}: exit code 3 is caught")
        for what, corrupt in corruptions.items():
            bad = work / f"{name}-bad"
            shutil.copytree(good, bad)
            corrupt(bad)
            expect(run.check_outputs(wl, bad, SEEDS[0], 0), f"{name}: {what} is caught")
            shutil.rmtree(bad)

    # End to end: a corrupted output counts all of its command's samples.
    original = run.check_outputs

    def corrupting(wl, out_dir, seed, rc):
        SWEEP_CORRUPTIONS["a NaN in the CSV"](out_dir)
        return original(wl, out_dir, seed, rc)

    run.check_outputs = corrupting
    try:
        _, result = bench("sweep-m128-real", SEEDS[0], 0)
    finally:
        run.check_outputs = original
    expect(not result["correct"] and result["failed"] == result["attempted"],
           "a corrupted output counts every sample of its command as failed")

    # A digest that differs from the first good run fails the run.
    digests = run.STATE_DIR / "digests.json"
    stored = json.loads(digests.read_text())
    digests.write_text(json.dumps({k: "0" * 64 for k in stored}))
    _, result = bench("sweep-m128-real", SEEDS[0], 0)
    expect(not result["correct"] and result["failed"] == result["attempted"],
           "outputs that differ from the first run at this source tree fail")


def check_bare_directory(work):
    bare = work / "bare"
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "prop1-m512",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=170)
    expect(proc.returncode != 0 and "metrics" not in proc.stdout,
           "a checkout without sources exits non-zero and prints no result")


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    run.TMP_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.TMP_DIR))
    run.STATE_DIR = work / "state"
    # The workload seed must come from the harness, never from the environment.
    os.environ["CONDENSATE_SEED"] = "424242"
    try:
        check_metric_names(spec)
        check_corruptions(work)
        check_bare_directory(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            run.TMP_DIR.rmdir()
    print("selftest passed")


if __name__ == "__main__":
    main()
