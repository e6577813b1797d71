"""scripts/bench_snapshot.py refuses to write a snapshot taken while a pga
workload could not use both cores, counts code lines beside all lines,
builds the kernel before its first timed run, and records which sources
differ from the commit."""

import importlib.util
import json
import shutil
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_snapshot.py"
PROVENANCE = {"fingerprint": "f", "nproc": 2, "affinity": 2, "cpu_model": "cpu",
              "python": "3", "numpy": "1", "commit": "c"}


@pytest.fixture
def script(monkeypatch, tmp_path):
    """The script, writing its BENCH files to tmp_path, with no kernel to build;
    it imports paired_bench from its own directory, as when run."""
    monkeypatch.syspath_prepend(str(SCRIPT.parent))
    spec = importlib.util.spec_from_file_location("bench_snapshot", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "ROOT", tmp_path)
    monkeypatch.setattr(module, "warm", lambda tree: None)
    return module


def fake_perfbench(utils):
    """perfbench stand-in: traced engine.cpu_util per workload from utils."""
    from paired_bench import Run

    def run(tree, workload, seed, seconds, trace=0):
        if trace:
            return Run({"engine.cpu_util": utils.get(workload, 1.0)}, PROVENANCE, True)
        return Run({"run_s": 0.1, "calibration_ms": 9.0}, PROVENANCE, True)
    return run


def test_snapshot_with_low_cpu_util_is_not_written(script, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(script, "perfbench", fake_perfbench({}))
    assert script.main([]) == 0
    assert [p.name for p in tmp_path.glob("BENCH_*.json")] == ["BENCH_1.json"]
    capsys.readouterr()

    monkeypatch.setattr(script, "perfbench", fake_perfbench({"pga-n171-disk": 0.7}))
    assert script.main([]) == 1
    assert [p.name for p in tmp_path.glob("BENCH_*.json")] == ["BENCH_1.json"]
    out, err = capsys.readouterr()
    assert "ratios against BENCH_1.json" in out
    assert "pga-n171-disk: calibration loop 9 ms -> 9 ms  LOW CPU UTIL" in out
    assert "BENCH_2.json not written: LOW CPU UTIL on pga-n171-disk " \
           "(traced engine.cpu_util 0.7)" in err


PY_FILE = '''"""A module docstring
over two lines."""

# a comment
import os


def f(x):
    """One line."""
    text = """not a docstring,
    so both lines count"""
    return x  # trailing comment


class C:
    """Class docstring."""

    y = 1
'''

C_FILE = '''/* A header comment
   over two lines. */
#include <Python.h>

static int f(int x)  /* trailing comment */
{
    /* one line */
    return x; /* a comment
                 ending here */
}
'''


def test_snapshot_counts_code_lines_beside_all_lines(script, tmp_path, monkeypatch, capsys):
    src = tmp_path / "src" / "mrtsp"
    src.mkdir(parents=True)
    (src / "m.py").write_text(PY_FILE)
    (src / "k.c").write_text(C_FILE)
    assert script.line_counts() == {"k.c": 10, "m.py": 18, "total": 28}
    # m.py: import, def, text = (2 lines), return, class, y; k.c: #include, the
    # signature, both braces and the return
    assert script.line_counts(script.code_lines) == {"k.c": 5, "m.py": 7, "total": 12}
    monkeypatch.setattr(script, "perfbench", fake_perfbench({}))
    assert script.main([]) == 0
    (src / "k.c").write_text(C_FILE + "int g;\n")
    assert script.main([]) == 0
    snapshot = json.loads((tmp_path / "BENCH_2.json").read_text())
    assert snapshot["src_mrtsp_code_lines"] == {"k.c": 6, "m.py": 7, "total": 13}
    out = capsys.readouterr().out
    assert "src_mrtsp_lines total: not recorded -> 28" in out
    assert "src_mrtsp_lines total: 28 -> 29" in out
    assert "src_mrtsp_code_lines total: 12 -> 13" in out


def test_snapshot_builds_the_kernel_before_the_first_timed_run(script, monkeypatch, capsys):
    # a fresh tree's first run would compile the kernel, and its peak_rss_mb
    # would count the compiler
    calls = []
    monkeypatch.setattr(script, "warm", lambda tree: calls.append("build"))
    run = fake_perfbench({})
    monkeypatch.setattr(script, "perfbench",
                        lambda *args: calls.append(("run", *args)) or run(*args))
    assert script.main([]) == 0
    capsys.readouterr()
    assert calls[0] == "build" and calls.count("build") == 1
    assert len(calls) == 1 + (script.UNTRACED_RUNS + 1) * len(script.SPEC["workloads"])


@pytest.mark.skipif(shutil.which("git") is None, reason="no git")
def test_snapshot_records_uncommitted_sources(script, tmp_path, monkeypatch, capsys):
    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@example.com", *args],
                       cwd=tmp_path, check=True, capture_output=True)

    monkeypatch.setattr(script, "perfbench", fake_perfbench({}))
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))
    src = tmp_path / "src" / "mrtsp"
    src.mkdir(parents=True)
    (src / "k.c").write_text(C_FILE)
    assert script.main([]) == 0  # not a git checkout: git cannot say
    git("init", "-q")
    git("add", "src")
    git("commit", "-qm", "sources")
    (src / "k.c").write_text(C_FILE + "int g;\n")
    (src / "new.py").write_text("x = 1\n")
    (tmp_path / "notes.txt").write_text("outside src\n")
    assert script.main([]) == 0
    git("commit", "-qam", "k.c")
    assert script.main([]) == 0
    capsys.readouterr()
    statuses = [json.loads((tmp_path / f"BENCH_{n}.json").read_text())["src_status"]
                for n in (1, 2, 3)]
    assert statuses == [None, [" M src/mrtsp/k.c", "?? src/mrtsp/new.py"], ["?? src/mrtsp/new.py"]]
