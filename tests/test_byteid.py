"""tools/byteid.py, the byte-identity check of two trees' command-line outputs,
run at its small size with HEAD on both sides: every output must match, so reruns
of the same source are byte-identical.  Also the shape of its matrix, of its
table of edge commands, whose outcomes tests/test_cli.py checks, and of its table
of large commands, which CI gates on time and peak RSS."""

import re
import shutil
import subprocess
from pathlib import Path

import pytest
from conftest import load_byteid

from condfield import cli

ROOT = Path(__file__).resolve().parent.parent


def _has_git_head() -> bool:
    if shutil.which("git") is None or shutil.which("tar") is None:
        return False
    probe = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", "HEAD"],
                           capture_output=True)
    return probe.returncode == 0


byteid = load_byteid()


@pytest.mark.skipif(not _has_git_head(), reason="needs git and a commit to extract")
def test_byteid_finds_head_identical_to_itself(tmp_path):
    cmds = byteid.matrix(True)
    a, b = (byteid.run_tree(byteid.extract("HEAD", tmp_path / side), tmp_path / f"o{side}",
                            cmds) for side in "ab")
    assert len(a) == len(b) == len(cmds)
    assert sum(len(r["files"]) for r in a) > 0
    for argv, ra, rb in zip(cmds, a, b):
        assert byteid.differences(ra, rb) == [], argv


def test_byteid_reports_each_kind_of_difference():
    a = {"rc": 0, "stderr": "", "files": {"o.csv": b"x\r\n1.0\r\n", "o.json": b"{}"}}
    assert byteid.differences(a, a) == []
    b = {"rc": 2, "stderr": "config error: e", "files": {"o.csv": b"x\r\n1.5\r\n"}}
    assert byteid.differences(a, b) == [
        "rc: 0 -> 2", "stderr: '' -> 'config error: e'",
        "o.csv: 8 B -> 8 B, differs first at line 2", "o.json: only in the first tree"]


def test_no_command_runs_twice():
    lines = [" ".join(argv) for argv in byteid.matrix(False)]
    assert len(set(lines)) == len(lines)


def test_quick_runs_the_edges_flagged_quick():
    # chosen by flag, so a row added to the table does not change the quick matrix
    edges = {e.line for e in byteid.EDGES}
    assert [" ".join(argv) for argv in byteid.matrix(True) if " ".join(argv) in edges] == [
        "profile", "profile --kernel matern:1:0.2",
        "condition --grid 256 --kernel rankk:1e307@1 --u 10",
        "condition --grid 256 --kernel sqexp:1e-307:0.2 --u 10",
        "condition --grid 256 --kernel rankk:1e-307@1 --u 10"]


def test_every_edge_row_states_an_outcome():
    # a row that exits 0 says nothing on stderr; any other names its error
    for edge in byteid.EDGES:
        assert edge.rc in (0, 1, 2, 3), edge.line
        assert (edge.says == "") == (edge.rc == 0), edge.line


def test_every_large_row_parses_and_is_bounded():
    # no tier-1 test runs a large row: the quick matrix holds none
    parser = cli.build_parser()
    quick = {" ".join(argv) for argv in byteid.matrix(True)}
    for row in byteid.LARGE:
        parser.parse_args(row.argv + ["--out", "x.csv"])
        assert "--out" not in row.argv and row.timeout_s > 0 and row.rss_mb > 0, row.line
        assert row.line not in quick, row.line


def test_ci_runs_command_lines_only_from_the_large_table():
    # outside the README step no CI step names a subcommand, and the one step that
    # calls cli.main reads its command lines from LARGE, so CI and byteid cannot drift
    steps = (ROOT / ".github" / "workflows" / "tests.yml").read_text().split("- name: ")
    others = [step for step in steps[1:] if not step.startswith("README")]
    assert len(others) == len(steps) - 2
    assert not [step for step in others
                if re.search(r"\b(profile|condition|sweep|verify)\b", step)]
    calls = [step for step in others if "cli.main" in step]
    assert len(calls) == 1 and 'run_path("tools/byteid.py")["LARGE"]' in calls[0]
