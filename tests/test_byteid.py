"""tools/byteid.py, the byte-identity check of two trees' command-line outputs,
run at its small size with HEAD on both sides: every output must match, so reruns
of the same source are byte-identical."""

import importlib.util
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _has_git_head() -> bool:
    if shutil.which("git") is None or shutil.which("tar") is None:
        return False
    probe = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", "HEAD"],
                           capture_output=True)
    return probe.returncode == 0


def _byteid():
    spec = importlib.util.spec_from_file_location("byteid", ROOT / "tools" / "byteid.py")
    byteid = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(byteid)
    return byteid


@pytest.mark.skipif(not _has_git_head(), reason="needs git and a commit to extract")
def test_byteid_finds_head_identical_to_itself(tmp_path):
    byteid = _byteid()
    cmds = byteid.matrix(True)
    a, b = (byteid.run_tree(byteid.extract("HEAD", tmp_path / side), tmp_path / f"o{side}",
                            cmds) for side in "ab")
    assert len(a) == len(b) == len(cmds)
    assert sum(len(r["files"]) for r in a) > 0
    for argv, ra, rb in zip(cmds, a, b):
        assert byteid.differences(ra, rb) == [], argv


def test_byteid_reports_each_kind_of_difference():
    byteid = _byteid()
    a = {"rc": 0, "stderr": "", "files": {"o.csv": b"x\r\n1.0\r\n", "o.json": b"{}"}}
    assert byteid.differences(a, a) == []
    b = {"rc": 2, "stderr": "config error: e", "files": {"o.csv": b"x\r\n1.5\r\n"}}
    assert byteid.differences(a, b) == [
        "rc: 0 -> 2", "stderr: '' -> 'config error: e'",
        "o.csv: 8 B -> 8 B, differs first at line 2", "o.json: only in the first tree"]
