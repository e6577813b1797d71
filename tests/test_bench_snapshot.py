"""scripts/bench_snapshot.py refuses to write a snapshot taken while a pga
workload could not use both cores."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_snapshot.py"
PROVENANCE = {"fingerprint": "f", "nproc": 2, "affinity": 2, "cpu_model": "cpu",
              "python": "3", "numpy": "1", "commit": "c"}


@pytest.fixture
def script(monkeypatch, tmp_path):
    """The script, writing its BENCH files to tmp_path."""
    spec = importlib.util.spec_from_file_location("bench_snapshot", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "ROOT", tmp_path)
    return module


def fake_perfbench(utils):
    """run_perfbench stand-in: traced engine.cpu_util per workload from utils."""
    def run(workload, seed, seconds, trace):
        if trace:
            return {"engine.cpu_util": utils.get(workload, 1.0)}, PROVENANCE
        return {"run_s": 0.1, "calibration_ms": 9.0}, PROVENANCE
    return run


def test_snapshot_with_low_cpu_util_is_not_written(script, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(script, "run_perfbench", fake_perfbench({}))
    assert script.main([]) == 0
    assert [p.name for p in tmp_path.glob("BENCH_*.json")] == ["BENCH_1.json"]
    capsys.readouterr()

    monkeypatch.setattr(script, "run_perfbench", fake_perfbench({"pga-n171-disk": 0.7}))
    assert script.main([]) == 1
    assert [p.name for p in tmp_path.glob("BENCH_*.json")] == ["BENCH_1.json"]
    out, err = capsys.readouterr()
    assert "ratios against BENCH_1.json" in out
    assert "pga-n171-disk: calibration loop 9 ms -> 9 ms  LOW CPU UTIL" in out
    assert "BENCH_2.json not written: LOW CPU UTIL on pga-n171-disk " \
           "(traced engine.cpu_util 0.7)" in err
