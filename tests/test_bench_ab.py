"""Smoke tests of the paired A/B timing harness, ``benchmarks/bench_ab.py``.

Each test runs the harness on a one-commit git repository that holds a copy
of the harness and of ``src/``, so ``--base HEAD`` is a known tree whatever
state the checkout is in.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GIT = ["git", "-c", "user.name=bench", "-c", "user.email=bench@example.invalid",
       "-c", "commit.gpgsign=false"]


def _repo(tmp_path, base_cli_suffix=""):
    """The copy, committed with base_cli_suffix appended to ``cli.py``; the
    working tree keeps the unchanged ``cli.py``."""
    repo = tmp_path / "repo"
    (repo / "benchmarks").mkdir(parents=True)
    shutil.copy(ROOT / "benchmarks" / "bench_ab.py", repo / "benchmarks")
    shutil.copytree(ROOT / "src", repo / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
    cli = repo / "src" / "bellforge" / "cli.py"
    text = cli.read_text()
    cli.write_text(text + base_cli_suffix)
    for argv in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "base"]):
        subprocess.run(GIT + argv, cwd=repo, check=True, capture_output=True)
    cli.write_text(text)
    return repo


def _bench(repo, *argv):
    return subprocess.run([sys.executable, "benchmarks/bench_ab.py", "--base", "HEAD",
                           "--pairs", "2", "--calls", "1", *argv],
                          cwd=repo, capture_output=True, text=True, timeout=600)


def test_one_op_of_each_kind_gives_paired_samples(tmp_path):
    kinds = {"lhv": "warm", "cold-import": "cold", "build_parser": "call"}  # the cheapest
    out = tmp_path / "ab.json"
    proc = _bench(_repo(tmp_path), "--ops", ",".join(kinds), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert {name: r["kind"] for name, r in doc["ops"].items()} == kinds
    for r in doc["ops"].values():
        assert len(r["base_s"]) == len(r["change_s"]) == 2
        lo, hi = r["ratio_ci95"]
        assert 0 < lo <= hi and r["ratio_median"] > 0
    assert set(doc["pyc_at_start"]) == {"base", "change"}
    assert "pythondontwritebytecode" in doc


def test_an_op_the_base_lacks_names_the_op_and_the_tree(tmp_path):
    repo = _repo(tmp_path, "\ndel build_parser\n")
    proc = _bench(repo, "--ops", "build_parser")
    assert proc.returncode != 0
    assert "op build_parser failed on the base (HEAD) tree" in proc.stderr
    assert "has no attribute 'build_parser'" in proc.stderr
