"""scripts/paired_bench.py alternates base and change runs in ABBA order,
reports medians, ratios and wins, and stops at a failed check or at
fingerprints that differ between the trees."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "paired_bench.py"
BASE, CHANGE = Path("base"), Path("change")
METRICS = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]


@pytest.fixture
def script():
    spec = importlib.util.spec_from_file_location("paired_bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def stub(script, times, calls, fingerprints=None, failing=()):
    """A runner that records (tree, seed) and reads run_s from times[tree][seed]."""
    def run(tree, workload, seed, seconds):
        calls.append((tree, seed))
        fingerprint = (fingerprints or {}).get((tree, seed), f"print-{seed}")
        metrics = {**dict.fromkeys(METRICS, 100.0), "run_s": times[tree][seed]}
        return script.Run(metrics, fingerprint, (tree, seed) not in failing)
    return run


def test_runs_alternate_in_abba_order_on_one_seed_per_pair(script, capsys):
    calls = []
    times = {tree: {seed: 0.04 for seed in range(5, 9)} for tree in (BASE, CHANGE)}
    results = script.run_pairs(BASE, CHANGE, "w", 5, 4, 1.0, stub(script, times, calls))
    assert calls == [(BASE, 5), (CHANGE, 5), (CHANGE, 6), (BASE, 6),
                     (BASE, 7), (CHANGE, 7), (CHANGE, 8), (BASE, 8)]
    assert [(b.fingerprint, c.fingerprint) for b, c in results] == \
        [(f"print-{seed}",) * 2 for seed in range(5, 9)]
    assert "pair 1 seed 6: run_s base 40.00 ms, change 40.00 ms" in capsys.readouterr().out


def test_summary_gives_medians_quartiles_ratio_and_wins(script):
    calls = []
    times = {BASE: {1: 0.040, 2: 0.044, 3: 0.036, 4: 0.042},
             CHANGE: {1: 0.030, 2: 0.045, 3: 0.033, 4: 0.035}}
    results = script.run_pairs(BASE, CHANGE, "w", 1, 4, 1.0, stub(script, times, calls))
    run_s, best = script.summary(results, ["run_s", "best_length"])
    # base median 0.041 over change median 0.034 is 1.206x; the change is lower in 3 of 4
    assert run_s == "run_s: base 0.041 [0.037, 0.0435] -> change 0.034, 1.206x, lower in 3 of 4"
    assert best == "best_length: base 100 [100, 100] -> change 100, 1.000x, lower in 0 of 4"


def test_a_fingerprint_mismatch_stops_the_pairs(script):
    calls = []
    times = {tree: {seed: 0.04 for seed in range(3)} for tree in (BASE, CHANGE)}
    runner = stub(script, times, calls, fingerprints={(CHANGE, 1): "other"})
    message = script.run_pairs(BASE, CHANGE, "w", 0, 3, 1.0, runner)
    assert message.startswith("pair 1 (seed 1): fingerprints differ")
    assert len(calls) == 4


def test_a_failed_check_stops_the_pairs(script):
    calls = []
    times = {tree: {seed: 0.04 for seed in range(3)} for tree in (BASE, CHANGE)}
    message = script.run_pairs(BASE, CHANGE, "w", 0, 3, 1.0,
                               stub(script, times, calls, failing={(BASE, 0)}))
    assert message == "pair 0 (seed 0): the base run failed a check"
    assert len(calls) == 2


@pytest.mark.parametrize("mismatch", [False, True])
def test_main_exits_nonzero_on_a_mismatch(script, monkeypatch, tmp_path, capsys, mismatch):
    calls = []
    times = {tree: {seed: 0.04 for seed in range(2)} for tree in (tmp_path, script.ROOT)}
    fingerprints = {(script.ROOT, 1): "other"} if mismatch else {}
    monkeypatch.setattr(script, "export", lambda revision, into: tmp_path)
    monkeypatch.setattr(script, "warm", lambda tree: calls.append(("warm", tree)))
    monkeypatch.setattr(script, "perfbench", stub(script, times, calls, fingerprints))
    assert script.main(["--workload", "w", "--pairs", "2", "--seed", "0"]) == int(mismatch)
    assert calls[:2] == [("warm", tmp_path), ("warm", script.ROOT)]
    out, err = capsys.readouterr()
    if mismatch:
        assert "fingerprints differ" in err and "run_s:" not in out
    else:
        assert [line.split(":")[0] for line in out.splitlines()[-len(METRICS):]] == METRICS
