"""scripts/paired_bench.py alternates base and change runs in ABBA order,
reports medians, ratios and wins in one block per workload, flags a median
worse than its BENCHMARK.json bound, and stops at a failed check or at
fingerprints that differ between the trees."""

import importlib.util
import json
import subprocess
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
        return script.Run(metrics, {"fingerprint": fingerprint}, (tree, seed) not in failing)
    return run


def copies(script, monkeypatch, tmp_path):
    """(base, change): the trees main runs, with export and snapshot stubbed."""
    base, change = tmp_path / "base", tmp_path / "change"
    monkeypatch.setattr(script, "export", lambda revision, into: base)
    monkeypatch.setattr(script, "snapshot", lambda into: change)
    return base, change


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
    base, change = copies(script, monkeypatch, tmp_path)
    times = {tree: {seed: 0.04 for seed in range(2)} for tree in (base, change)}
    fingerprints = {(change, 1): "other"} if mismatch else {}
    monkeypatch.setattr(script, "warm", lambda tree: calls.append(("warm", tree)))
    monkeypatch.setattr(script, "perfbench", stub(script, times, calls, fingerprints))
    assert script.main(["--workload", "w", "--pairs", "2", "--seed", "0"]) == int(mismatch)
    assert calls[:2] == [("warm", base), ("warm", change)]
    out, err = capsys.readouterr()
    if mismatch:
        assert "fingerprints differ" in err and "run_s:" not in out
    else:
        assert [line.split(":")[0] for line in out.splitlines()[-len(METRICS):]] == METRICS


def test_main_runs_every_workload_in_its_own_block(script, monkeypatch, tmp_path, capsys):
    calls = []

    def run(tree, workload, seed, seconds):
        calls.append((workload, tree, seed))
        return script.Run(dict.fromkeys(METRICS, 0.04), {"fingerprint": f"print-{workload}-{seed}"},
                          True)

    base, change = copies(script, monkeypatch, tmp_path)
    monkeypatch.setattr(script, "warm", lambda tree: None)
    monkeypatch.setattr(script, "perfbench", run)
    assert script.main(["--workload", "a", "--workload", "b", "--pairs", "2", "--seed", "3"]) == 0
    assert calls == [(w, tree, seed) for w in "ab"
                     for tree, seed in ((base, 3), (change, 3), (change, 4), (base, 4))]
    lines = capsys.readouterr().out.splitlines()
    blocks = [lines.index("== a"), lines.index("== b")]
    for start in blocks:  # two pair lines, then one summary line per metric
        names = [line.split(":")[0] for line in lines[start + 3:start + 3 + len(METRICS)]]
        assert names == METRICS
    assert blocks[1] == blocks[0] + 3 + len(METRICS)


def test_main_runs_a_copy_of_the_working_tree_and_never_the_tree_itself(script, monkeypatch):
    trees = []

    def run(tree, workload, seed, seconds):
        trees.append(tree)
        if tree.name == "change":  # the working tree's files, less its caches
            for name in ("src/mrtsp/ga.py", "perfbench/run.py", "BENCHMARK.json"):
                assert (tree / name).read_bytes() == (script.ROOT / name).read_bytes()
            assert not any(tree.rglob("__pycache__"))
        return script.Run(dict.fromkeys(METRICS, 0.04), {"fingerprint": "print"}, True)

    monkeypatch.setattr(script, "export", lambda revision, into: into)
    monkeypatch.setattr(script, "warm", trees.append)
    monkeypatch.setattr(script, "perfbench", run)
    assert script.main(["--workload", "w", "--pairs", "2"]) == 0
    base, change = trees[:2]
    assert trees == [base, change, base, change, change, base]
    assert (base.name, change.name) == ("base", "change")
    assert not any(tree.is_relative_to(script.ROOT) for tree in trees)


@pytest.mark.parametrize("better,bound,was,now,worse", [
    ("lower", 0.25, 0.040, 0.0499, False),
    ("lower", 0.25, 0.040, 0.0501, True),
    ("lower", 0.1, 40.0, 30.0, False),
    ("higher", 0.25, 100.0, 76.0, False),
    ("higher", 0.25, 100.0, 74.0, True),
    ("lower", 0.25, 0.0, 1.0, False),
])
def test_worse_than_bound_is_a_share_of_the_base_median(script, better, bound, was, now, worse):
    assert script.worse_than_bound(was, now, bound, better) is worse


@pytest.mark.parametrize("change,flagged", [(0.049, False), (0.051, True)])
def test_main_flags_a_median_worse_than_its_bound_and_exits_1(script, monkeypatch, tmp_path,
                                                              capsys, change, flagged):
    # run_s's bound is 0.25: a change median past 1.25 x the base's 0.04 s is flagged
    base, changed = copies(script, monkeypatch, tmp_path)
    times = {base: dict.fromkeys(range(3), 0.04), changed: dict.fromkeys(range(3), change)}
    monkeypatch.setattr(script, "warm", lambda tree: None)
    monkeypatch.setattr(script, "perfbench", stub(script, times, []))
    assert script.main(["--workload", "w", "--pairs", "3", "--seed", "0"]) == int(flagged)
    run_s = next(line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("run_s:"))
    assert run_s.endswith("WORSE THAN BOUND") is flagged
    assert run_s.startswith(f"run_s: base 0.04 [0.04, 0.04] -> change {change:g}")


def test_perfbench_reads_metrics_provenance_and_calibration(script, monkeypatch, tmp_path):
    # both scripts launch perfbench through this one function
    out = ("w seed 1: 3 timed solves over 20 instances; times are scaled to a 10 ms "
           "calibration loop, which took 9.5 ms (median)\n"
           'provenance {"fingerprint": "abc", "commit": "c"}\n'
           '{"correct": true, "attempted": 4, "failed": 1, '
           '"metrics": {"run_s": {"value": 0.02, "unit": "s"}}}\n')
    commands = []
    monkeypatch.setattr(script.subprocess, "run", lambda cmd, **kwargs: commands.append(cmd)
                        or subprocess.CompletedProcess(cmd, 0, out, ""))
    run = script.perfbench(tmp_path, "w", 1, 2.0)
    assert run.metrics == {"run_s": 0.02, "failed_ratio": 0.25, "calibration_ms": 9.5}
    assert (run.provenance, run.fingerprint, run.correct) == \
        ({"fingerprint": "abc", "commit": "c"}, "abc", False)
    traced = script.perfbench(tmp_path, "w", 1, 2.0, 1)
    assert traced.metrics == {"run_s": 0.02, "failed_ratio": 0.25}
    assert [cmd[-2:] for cmd in commands] == [["--trace", "0"], ["--trace", "1"]]
