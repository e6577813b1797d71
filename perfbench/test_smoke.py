"""Smoke test for the benchmark itself, at tiny budgets.

    python -m pytest perfbench -q

It is not part of the repository's test suite (pyproject's testpaths names
tests/ only).
"""

import dataclasses
import gzip
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

PROG = run.load_program()
SPEC = json.loads(run.SPEC_PATH.read_text())

TINY = {
    "sga-n64": {"generations": 3},
    "pga-n64": {"generations": 4, "interval": 2, "population": 6},
    "pga-n171-disk": {"generations": 2, "population": 4},
    "exact-n15": {"n": 8},
}


def tiny(name):
    return dataclasses.replace(run.WORKLOADS[name], **TINY[name])


def measure(workload, trace=False, seed=3, min_samples=2):
    return run.measure(PROG, workload, seed, 0, trace, instances=2, min_samples=min_samples)


def layer_share(metrics, layers):
    return sum(m["value"] for name, m in metrics.items()
               if name.endswith("self_share") and name.split(".")[0] in layers)


def test_spec_file_matches_the_definitions():
    assert SPEC == run.spec()
    assert set(TINY) == set(run.WORKLOADS)


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_every_end_to_end_metric_is_reported_with_its_unit(name):
    result = measure(tiny(name))
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_every_per_layer_metric_is_reported_with_its_unit(name):
    result = measure(tiny(name), trace=True)
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    plumbing = layer_share(metrics, ("codec", "engine", "island"))
    if run.WORKLOADS[name].kind == "pga":
        assert plumbing > 0
        assert metrics["engine.task_retries"]["value"] == 0
    else:
        assert plumbing == 0
    if run.WORKLOADS[name].kind == "exact":
        assert metrics["oracle.held_karp.states_per_s"]["value"] > 0
    else:
        assert metrics["ga.greedy_crossover.calls"]["value"] > 0


def test_held_karp_matches_the_registry_optimum_of_br17():
    instance = PROG["tsplib"].load_instance(run.ROOT / "instances" / "br17.atsp")
    assert instance.known_optimum == 39
    assert PROG["oracle"].held_karp(instance).optimum_length == 39


def _corrupting(monkeypatch, corrupt, nth):
    """Make run.solve pass its nth result through corrupt(result, workload, instance, seed)."""
    original = run.solve
    calls = []

    def solve(prog, workload, instance, seed, workers, store_dir):
        result = original(prog, workload, instance, seed, workers, store_dir)
        calls.append(None)
        return corrupt(result, workload, instance, seed) if len(calls) == nth else result

    monkeypatch.setattr(run, "solve", solve)


def test_a_corrupted_result_counts_as_failed(monkeypatch):
    _corrupting(monkeypatch, lambda r, *_: dataclasses.replace(
        r, best_length=r.best_length - 1), nth=2)
    result = measure(tiny("sga-n64"))
    assert result["failed"] == 1 and not result["correct"]


def test_a_changed_but_valid_result_counts_as_failed(monkeypatch):
    # the third solve repeats instance 0; a different seed still gives a valid
    # tour, but not the fingerprint the first solve pinned
    _corrupting(monkeypatch, lambda r, w, instance, seed: PROG["ga"].run_sga(
        instance, PROG["ga"].GaParams(population_size=w.population), w.generations,
        seed=seed + 1), nth=3)
    result = measure(tiny("sga-n64"), min_samples=4)
    assert result["failed"] == 1 and not result["correct"]


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(run.SPEC_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sga-n64",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_spans_written_at_the_end_link_parents_and_self_time(tmp_path):
    path = tmp_path / "spans.jsonl.gz"
    run.measure(PROG, tiny("pga-n64"), 3, 0, True, instances=2, spans_path=str(path))
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh]
    by_id = {row["id"]: row for row in rows}
    assert {"tsplib.load_instance", "island.run_pga", "engine.run_job",
            "island.evolve_reduce", "codec.encode_chromosome"} <= {r["name"] for r in rows}
    for row in rows:
        children = [r for r in rows if r["parent"] == row["id"]]
        duration = row["end"] - row["start"]
        assert row["self"] == pytest.approx(
            duration - sum(c["end"] - c["start"] for c in children), abs=1e-9)
        if row["parent"] >= 0:
            parent = by_id[row["parent"]]
            assert parent["start"] <= row["start"] <= row["end"] <= parent["end"]
