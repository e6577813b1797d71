import dataclasses
import json
import multiprocessing
import os
import pickle
import random
import re
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mrtsp import _xover
from mrtsp import engine as engine_module
from mrtsp import ga
from mrtsp import island as island_module
from mrtsp.codec import (MAX_LENGTH, CodecError, TruncatedBufferError, decode_chromosome,
                         encode_chromosome)
from mrtsp.engine import Engine, EngineError, FileStore, MemoryStore, Record
from mrtsp.ga import GaParams, run_sga, stop_reason, tour_length
from mrtsp.island import (EvolveReducer, InitReducer, IslandParams, NonIntegerWeightsError,
                          TourLengthOverflowError, evolve_job,
                          format_population_dump, init_job, run_pga)
from mrtsp.oracle import held_karp
from mrtsp.tsplib import (Instance, format_instance, parse_instance,
                          random_instance)
from test_codec import good_records, record_faults
from test_ga import evolve_args, huge_instance, outcome_of, overflowing_instance

needs_kernel = pytest.mark.skipif(ga._KERNEL is None, reason="the kernel cannot be built here")

INST10 = random_instance(10, (1, 100), seed=2)
INST8 = random_instance(8, (1, 100), seed=5)

SMALL = IslandParams(num_islands=4, migration_interval=2,
                     ga=GaParams(population_size=20),
                     max_total_generations=8, convergence_patience=None)


def pga_stop(bests, generations, params=IslandParams()):
    """stop_reason as run_pga asks it once rounds with these global bests
    have run `generations` generations per island."""
    return stop_reason(bests, generations, params.max_total_generations,
                       params.convergence_patience, params.target_length)


def island_best_lengths(parts):
    """Per-island resident best, recomputed by full decode (no peeking)."""
    bests = []
    for island, part in enumerate(parts):
        lengths = [decode_chromosome(r.value).length for r in part if r.key == island]
        bests.append(min(lengths))
    return bests


@pytest.mark.parametrize("kwargs", [
    dict(num_islands=1),
    dict(migration_interval=0),
    dict(migration_interval=100, max_total_generations=99),
    dict(convergence_patience=-1),
])
def test_params_validation(kwargs):
    with pytest.raises(ValueError):
        IslandParams(**kwargs)


def test_params_reject_a_nan_target():
    # as run_sga does: no best is <= NaN, so the run would never stop
    with pytest.raises(ValueError, match="^target_length must be a number, got nan$"):
        IslandParams(target_length=float("nan"))
    assert IslandParams(target_length=float("inf")).target_length == float("inf")


def test_params_defaults():
    p = IslandParams()
    assert (p.num_islands, p.migration_interval) == (10, 50)
    assert p.ga == GaParams()
    assert (p.max_total_generations, p.convergence_patience) == (50_000, 20)
    assert p.target_length is None


def test_init_job_builds_every_island():
    params = IslandParams(num_islands=10, migration_interval=50)
    store = MemoryStore()
    handle = init_job(Engine(store, workers=1), INST10, params, master_seed=0)
    records = store.read(handle)
    assert len(records) == 1000
    assert Counter(r.key for r in records) == {i: 100 for i in range(10)}
    for rec in records:
        decoded = decode_chromosome(rec.value)
        assert decoded.pop_id == rec.key
        assert sorted(decoded.genes) == list(range(10))
        assert decoded.length == tour_length(decoded.genes, INST10)


def test_init_job_deterministic():
    def snapshot(seed):
        store = MemoryStore()
        init_job(Engine(store, workers=1), INST10, SMALL, master_seed=seed)
        return store.snapshot()

    assert snapshot(3) == snapshot(3)
    assert snapshot(3) != snapshot(4)


def test_evolve_record_counts():
    # each task re-emits its full population plus one migrant per other island
    params = IslandParams(num_islands=10, migration_interval=1,
                          convergence_patience=None)
    store = MemoryStore()
    engine = Engine(store, workers=1)
    handle = init_job(engine, INST10, params, master_seed=1)
    out1 = evolve_job(engine, store.read_parts(handle), INST10, params, 1, master_seed=1)
    parts = store.read_parts(out1)
    assert [len(p) for p in parts] == [109] * 10
    assert sum(len(p) for p in parts) == 1090
    # next round absorbs the 9 inbound migrants and trims back to 100
    out2 = evolve_job(engine, store.read_parts(out1), INST10, params, 2, master_seed=1)
    parts = store.read_parts(out2)
    for island, part in enumerate(parts):
        assert sum(r.key == island for r in part) == 100
        assert sum(r.key != island for r in part) == 9


def test_migration_spreads_the_global_best():
    # in round r+1 every island holds the round-r global best as a migrant,
    # and elitism plus worst-first trimming never lose it
    store = MemoryStore()
    engine = Engine(store, workers=1)
    handle = init_job(engine, INST10, SMALL, master_seed=7)
    prev = island_best_lengths(store.read_parts(handle))
    for round_number in (1, 2, 3):
        handle = evolve_job(engine, store.read_parts(handle), INST10, SMALL, round_number,
                            master_seed=7)
        bests = island_best_lengths(store.read_parts(handle))
        if round_number == 1:
            # no migrants yet: each island can only improve on itself
            assert all(b <= p for b, p in zip(bests, prev))
        else:
            assert max(bests) <= min(prev)
        prev = bests


def test_migrants_carry_each_islands_best():
    store = MemoryStore()
    engine = Engine(store, workers=1)
    handle = init_job(engine, INST10, SMALL, master_seed=11)
    handle = evolve_job(engine, store.read_parts(handle), INST10, SMALL, 1, master_seed=11)
    parts = store.read_parts(handle)
    bests = island_best_lengths(parts)
    for island, part in enumerate(parts):
        migrants = [r for r in part if r.key != island]
        assert sorted(r.key for r in migrants) == [
            k for k in range(SMALL.num_islands) if k != island]
        for rec in migrants:
            decoded = decode_chromosome(rec.value)
            assert decoded.pop_id == rec.key          # re-keyed to destination
            assert decoded.length == bests[island]    # sender's best tour


class TamperingStore(MemoryStore):
    """Hands back round 1's output changed by `tamper(parts)`, to every reader."""

    def __init__(self, tamper):
        super().__init__()
        self.tamper = tamper

    def read_parts(self, name):
        parts = super().read_parts(name)
        return self.tamper(parts) if name == "job1" else parts


SCAN_PARAMS = IslandParams(num_islands=4, migration_interval=1,
                           ga=GaParams(population_size=4),
                           max_total_generations=4, convergence_patience=None)


def test_evolve_rejects_empty_island():
    store = TamperingStore(lambda parts: [[r for r in part if r.key != 2] for part in parts])
    with pytest.raises(EngineError, match="island 2"):
        run_pga(INST10, SCAN_PARAMS, master_seed=0, store=store)
    assert "job1" in store.names() and "job2" not in store.names()


def test_evolve_rejects_out_of_range_key():
    store = TamperingStore(lambda parts: parts[:1] + [parts[1] + [Record(4, b"")]] + parts[2:])
    with pytest.raises(EngineError, match="outside islands"):
        run_pga(INST10, SCAN_PARAMS, master_seed=0, store=store)
    assert "job1" in store.names() and "job2" not in store.names()


def test_run_pga_rejects_a_set_with_fewer_parts_than_islands():
    store = TamperingStore(lambda parts: parts[:-1])
    with pytest.raises(EngineError, match="'job1' has 3 parts for 4 islands"):
        run_pga(INST10, SCAN_PARAMS, master_seed=0, store=store)
    assert "job1" in store.names() and "job2" not in store.names()


def test_run_pga_rejects_a_best_resident_of_another_city_count():
    # a 9-city resident of length 1 is round 1's best: decoding it fails the run
    store = TamperingStore(
        lambda parts: [parts[0] + [Record(0, encode_chromosome(range(9), 1, 0))]] + parts[1:])
    with pytest.raises(EngineError, match="tour of 9 cities for an instance of 10"):
        run_pga(INST10, SCAN_PARAMS, master_seed=0, store=store)
    assert "job1" in store.names() and "job2" not in store.names()


@pytest.mark.parametrize("n", [9, 12])
def test_reducer_fails_at_once_on_records_of_another_city_count(n):
    # the kernel declines them, and the reference path names the first, which
    # _attempt does not retry
    reducer = EvolveReducer(INST10, SMALL)
    args = (1, good_records(1, n=n, count=6), random.Random(0))
    result, events, error = engine_module._attempt(reducer, args)
    assert result is None and [event for _, event, _ in events] == ["start", "fail"]
    assert isinstance(error, EngineError)
    assert str(error) == f"record keyed 1 holds a tour of {n} cities for an instance of 10"


class CountingStore(MemoryStore):
    """Counts read_parts calls per set; read() goes through read_parts."""

    def __init__(self):
        super().__init__()
        self.reads = Counter()

    def read_parts(self, name):
        self.reads[name] += 1
        return super().read_parts(name)


def test_run_pga_reads_each_set_once_per_reader(tmp_path):
    # the driver's scan is the only reader of a job's output: the next job
    # maps the scanned parts and the final dump reuses the last scan
    store = CountingStore()
    report = run_pga(INST10, SMALL, master_seed=0, store=store, dump_path=tmp_path / "pop.txt")
    assert store.reads == {"seed": 1, **{f"job{k}": 1 for k in range(len(report.rounds) + 1)}}


def test_reducer_rejects_mismatched_pop_id():
    reducer = EvolveReducer(INST10, SMALL)
    store = MemoryStore()
    handle = init_job(Engine(store, workers=1), INST10, SMALL, master_seed=0)
    value = store.read(handle)[0].value  # pop_id 0
    with pytest.raises(EngineError, match="pop_id"):
        reducer(1, [value], None)


def outcome(fn, *args):
    """What fn(*args) returns, or the type and message of what it raises."""
    try:
        return "returned", fn(*args)
    except Exception as exc:
        return "raised", type(exc), str(exc)


# members the evolve step may hand the encoder that do not fit the record layout
UNENCODABLE = {"gene 2**32": (tuple(range(9)) + (2**32,), 5), "empty tour": ((), 5),
               "length -1": (tuple(range(10)), -1), "length 2**64": (tuple(range(10)), 2**64),
               "length 1.5": (tuple(range(10)), 1.5)}


@pytest.mark.parametrize("name,values", record_faults(key=1) + [("valid", good_records(1))] +
                         [(f"evolves {fault}", good_records(1)) for fault in UNENCODABLE])
def test_reducer_and_dump_fault_alike_with_and_without_the_kernel(name, values, monkeypatch):
    # the kernel declines every fault, and the record-by-record decode or
    # encode then raises what it raises without the kernel, naming the same
    # first bad record or member; evolve_island cannot make an unencodable
    # member, so those cases make it decline and reach the reference path
    if name.startswith("evolves "):
        tour, length = UNENCODABLE[name.removeprefix("evolves ")]
        if ga._KERNEL is not None:
            monkeypatch.setattr(ga._KERNEL, "evolve_island", lambda *args: None)
        monkeypatch.setattr(island_module, "evolve",
                            lambda genes, lengths, *args: (genes[:1] + [tour] + genes[2:],
                                                           lengths[:1] + [length] + lengths[2:],
                                                           []))
    reducer = EvolveReducer(INST10, SMALL)
    parts = [[], [Record(1, value) for value in values]]
    compiled = (outcome(reducer, 1, values, random.Random(0)),
                outcome(format_population_dump, parts, INST10.dimension))
    monkeypatch.setattr(ga, "_KERNEL", None)
    looped = (outcome(reducer, 1, values, random.Random(0)),
              outcome(format_population_dump, parts, INST10.dimension))
    assert compiled == looped
    if name.startswith("cut at"):
        assert looped[0][:2] == ("raised", TruncatedBufferError)
    if name in ("pop_id != key", "mixed N"):
        for made in compiled + looped:
            assert made[:2] == ("raised", EngineError)
    if name.startswith("evolves "):
        assert looped[0][:2] == ("raised", CodecError)


# -- evolve_island: an island's reduce task in one kernel call -----------------------

def island_args(values, key, instance, params, rng):
    """The kernel's evolve_island arguments for EvolveReducer(instance, params)(key, values, rng)."""
    g = params.ga
    return (values, key, params.num_islands, g.population_size, instance.distances,
            g.similarity_threshold, g.max_parent_retries, g.crossover_prob, g.mutation_prob,
            g.elite_count, params.migration_interval, rng)


class SubclassRng(random.Random):
    pass


def overriding_rng(seed):
    """A random.Random whose instance overrides random(), which ga._kernel_may_run
    refuses; the override draws what random() draws."""
    rng = random.Random(seed)
    real = rng.random
    rng.random = lambda: real()
    return rng


def island_declines(key=1):
    """(name, args): evolve_island arguments it must decline, its rng
    untouched. The rng is always an exact random.Random: EvolveReducer does
    not call evolve_island for any other."""
    good, three = good_records(key), IslandParams(num_islands=4, ga=GaParams(elite_count=3))
    cases = [(f"record {name}", values, key, INST10, SMALL, random.Random(1))
             for name, values in record_faults(key)]
    cases += [
        ("N != n", good_records(key, n=9), key, INST10, SMALL, random.Random(1)),
        ("p = 1", good[:1], key, INST10, SMALL, random.Random(1)),
        ("elite_count = p", good, key, INST10, three, random.Random(1)),
        ("values not a list or tuple", iter(good), key, INST10, SMALL, random.Random(1)),
        ("islands 2**32", good, key, INST10, dataclasses.replace(SMALL, num_islands=2**32),
         random.Random(1)),
        ("key 2**32", good, 2**32, INST10, SMALL, random.Random(1)),
        ("float weights", good, key, Instance("f", 10, INST10.distances * 1.0), SMALL,
         random.Random(1)),
    ]
    return [(name, island_args(values, k, inst, params, rng))
            for name, values, k, inst, params, rng in cases]


@needs_kernel
@pytest.mark.parametrize("name,args", island_declines())
def test_evolve_island_declines_before_the_rng_moves(name, args):
    rng = args[-1]
    state = rng.getstate()
    assert ga._KERNEL.evolve_island(*args) is None
    assert rng.getstate() == state


@needs_kernel
@pytest.mark.parametrize("make_rng", [SubclassRng, overriding_rng],
                         ids=["rng_subclass", "rng_override"])
def test_reducer_runs_the_kernel_only_for_an_exact_random(make_rng, monkeypatch):
    # ga._kernel_may_run is the one check of which rng the kernel may draw from: the
    # reducer must not hand evolve_island, or ga.evolve the kernel's evolve,
    # an rng it refuses, and returns what it returns without the kernel
    def refuse(*args):
        raise AssertionError("the kernel was handed an rng that ga._kernel_may_run refuses")

    reducer, values = EvolveReducer(INST10, SMALL), good_records(1, count=25)
    for entry in ("evolve_island", "evolve"):
        monkeypatch.setattr(ga._KERNEL, entry, refuse)
    rng = make_rng(1)
    compiled = (reducer(1, values, rng), rng.getstate())
    monkeypatch.setattr(ga, "_KERNEL", None)
    rng = make_rng(1)
    assert compiled == (reducer(1, values, rng), rng.getstate())


@needs_kernel
def test_evolve_island_leaves_refcounts_unchanged():
    key, other = 1000, 2**40  # ints outside the small-int cache
    good = [good_records(key), tuple(good_records(key))]
    cases = [("made", values, key, random.Random(1)) for values in good]
    cases += [("none", values, other, random.Random(1)) for values in good]
    cases += [("none", values, k, random.Random(1))
              for _, values in record_faults(key) for k in (key, other)]
    # an rng that is not a _random.Random raises before any of its fields is read
    cases += [("raised", values, key, object()) for values in good]
    for expected, values, k, rng in cases:
        args = island_args(values, k, INST10, SMALL, rng)
        watched = [values, k, INST10.distances, rng, *values]
        before = list(map(sys.getrefcount, watched))
        outcome = outcome_of(ga._KERNEL.evolve_island, *args)
        after = list(map(sys.getrefcount, watched))  # counted outside the assert's temporaries
        assert (outcome, before) == (expected, after)


@needs_kernel
@pytest.mark.parametrize("old,new", [("    int index;\n", "    int pad;\n    int index;\n"),
                                     ("state[624];", "state[700];")],
                         ids=["field_before_index", "struct_past_basicsize"])
def test_a_layout_mismatch_declines_every_rng_entry(old, new, tmp_path):
    # a kernel whose mirror of _random.Random's struct is off: with a field
    # before index, getstate() disagrees with the fields; with a longer state,
    # the struct outgrows the type's basic size
    text = _xover.SOURCE.read_text()
    assert text.count(old) == 1
    source = tmp_path / "_xover.c"
    source.write_text(text.replace(old, new))
    mismatched = _xover.load(source=source, cache=tmp_path / "cache")
    assert mismatched is not None
    params = GaParams(population_size=12, mutation_prob=0.3)
    genes, lengths = ga.random_population(INST10, params, random.Random(3))
    values = good_records(1, count=12)
    calls = {
        "evolve": lambda kernel, rng: kernel.evolve(
            *evolve_args(genes, lengths, INST10, params, rng, 3)),
        "random_tours": lambda kernel, rng: kernel.random_tours(9, INST10.distances, rng),
        "evolve_island": lambda kernel, rng: kernel.evolve_island(
            *island_args(values, 1, INST10, SMALL, rng)),
    }
    for name, call in calls.items():
        assert call(ga._KERNEL, random.Random(5)) is not None, name
        rng = random.Random(5)
        state = rng.getstate()
        assert call(mismatched, rng) is None, name
        assert rng.getstate() == state, name


@st.composite
def island_tasks(draw):
    """(instance, params, key, values): one reduce task's input, with record
    counts below, at and above population_size, lengths with ties, and the
    migrants, like the residents, carrying pop_id == key."""
    n = draw(st.integers(2, 200))
    islands = draw(st.integers(2, 12))
    size = draw(st.integers(2, 12))
    params = IslandParams(
        num_islands=islands, migration_interval=draw(st.integers(1, 3)),
        ga=GaParams(population_size=size, elite_count=draw(st.integers(1, size - 1)),
                    crossover_prob=draw(st.sampled_from([0.0, 0.5, 1.0])),
                    mutation_prob=draw(st.sampled_from([0.0, 0.3, 1.0])),
                    similarity_threshold=draw(st.sampled_from([0.0, 0.8, 1.0]))))
    key = draw(st.integers(0, islands - 1))
    count = draw(st.integers(1, size + islands))
    rng = random.Random(draw(st.integers(0, 2**32)))
    lengths = draw(st.lists(st.integers(1000, 1003), min_size=count, max_size=count))
    values = [encode_chromosome(rng.sample(range(n), n), length, key) for length in lengths]
    top = draw(st.sampled_from([2, 100]))  # 2: ties among the weights too
    matrix = np.random.default_rng(draw(st.integers(0, 99))).integers(1, top, (n, n),
                                                                      endpoint=True)
    np.fill_diagonal(matrix, 0)
    return Instance("task", n, matrix), params, key, values


@needs_kernel
@settings(max_examples=80, deadline=None)
@given(island_tasks(), st.integers(0, 2**32))
def test_evolve_island_matches_the_reference_reducer(task, seed):
    instance, params, key, values = task
    reducer = EvolveReducer(instance, params)
    kernel = ga._KERNEL
    outcomes = []
    try:
        for compiled in (kernel, None):
            ga._KERNEL = compiled
            rng = random.Random(seed)
            outcomes.append((outcome(reducer, key, values, rng), rng.getstate()))
    finally:
        ga._KERNEL = kernel
    assert outcomes[0] == outcomes[1]
    p = min(len(values), params.ga.population_size)
    made = kernel.evolve_island(*island_args(values, key, instance, params, random.Random(seed)))
    assert (made is None) == (p <= params.ga.elite_count)
    if made is not None:
        assert len(made) == p + params.num_islands - 1


def test_check_convergence_continue():
    assert pga_stop([50.0], 50) is None


def test_check_convergence_stagnation():
    assert pga_stop([50.0] * 20, 20 * 50) == "stagnation"
    assert pga_stop([50.0] * 19 + [49.0], 20 * 50) is None


def test_check_convergence_target_and_budget():
    params = IslandParams(target_length=40.0)
    assert pga_stop([39.0], 50, params) == "target"
    # budget wins even when target and stagnation both hold
    assert pga_stop([39.0] * 20, 20 * 2500, params) == "budget"


def test_check_convergence_patience_disabled():
    for patience in (None, 0):
        assert pga_stop([50.0] * 40, 40 * 50, IslandParams(convergence_patience=patience)) is None


@pytest.mark.parametrize("stops,reason", [
    (dict(convergence_patience=2), "stagnation"),
    (dict(convergence_patience=0, target_length=400), "target"),
    (dict(convergence_patience=0), "budget"),
    (dict(convergence_patience=None), "budget"),
])
def test_run_pga_stops_at_the_first_round_stop_reason_names(stops, reason):
    params = dataclasses.replace(SMALL, max_total_generations=40, **stops)
    report = run_pga(random_instance(30, (1, 100), seed=4), params)
    bests = report.trajectory[1:]
    assert len(bests) > 2 and report.stop_reason == reason
    assert [pga_stop(bests[:k], k * params.migration_interval, params)
            for k in range(1, len(bests) + 1)] == [None] * (len(bests) - 1) + [reason]


def test_run_pga_accounting():
    report = run_pga(INST10, SMALL, master_seed=0, workers=1)
    assert report.algo == "pga"
    assert report.stop_reason == "budget"
    assert report.generations == 8
    assert len(report.rounds) == 4  # 8 generations / interval 2
    for i, summary in enumerate(report.rounds):
        assert summary.round == i + 1
        assert summary.generations == (i + 1) * SMALL.migration_interval
        assert summary.best_length == min(summary.island_bests)
    assert report.trajectory == [report.trajectory[0]] + [
        r.best_length for r in report.rounds]
    assert all(a >= b for a, b in zip(report.trajectory, report.trajectory[1:]))
    assert tour_length(report.best_tour, INST10) == report.best_length
    assert report.params["workers"] == 1
    assert report.params["ga"]["population_size"] == 20


@pytest.mark.parametrize("budget", [3, 9])
def test_run_pga_runs_whole_rounds_within_the_budget(budget):
    # interval 2 does not divide the budget: the run stops at the last whole
    # round that fits, not at the first one past it
    params = dataclasses.replace(SMALL, max_total_generations=budget)
    report = run_pga(INST10, params)
    assert report.stop_reason == "budget"
    assert [r.generations for r in report.rounds] == list(range(2, budget + 1, 2))
    assert report.generations == budget - 1
    assert report.params["max_total_generations"] == budget


def test_run_pga_finds_small_optimum():
    optimum = held_karp(INST8).optimum_length
    params = IslandParams(num_islands=4, migration_interval=10,
                          ga=GaParams(population_size=30),
                          max_total_generations=300, convergence_patience=5,
                          target_length=optimum)
    hits = 0
    for seed in range(10):
        report = run_pga(INST8, params, master_seed=seed, workers=1)
        assert report.best_length >= optimum
        hits += report.best_length == optimum
    assert hits >= 9


@pytest.fixture
def pool_from_round_1(monkeypatch):
    """No run is too short to pool: workers > 1 pools from round 1 on."""
    monkeypatch.setattr(island_module, "POOL_BREAK_EVEN_S", 0)


def same_output(report, twin):
    """Reports equal but for timing and the requested workers."""
    assert (report.best_length, report.best_tour, report.trajectory, report.stop_reason) == \
           (twin.best_length, twin.best_tour, twin.trajectory, twin.stop_reason)
    for a, b in zip(report.rounds, twin.rounds, strict=True):
        assert (a.round, a.island_bests, a.best_length, a.best_tour, a.generations) == \
               (b.round, b.island_bests, b.best_length, b.best_tour, b.generations)


def run_with_snapshot(workers):
    store = MemoryStore()
    return run_pga(INST10, SMALL, master_seed=5, workers=workers, store=store), store.snapshot()


def test_run_pga_deterministic_across_worker_counts(pool_from_round_1):
    serial_report, serial_snapshot = run_with_snapshot(1)
    for pooled_report, pooled_snapshot in (run_with_snapshot(4), run_with_snapshot(2)):
        same_output(serial_report, pooled_report)
        assert serial_snapshot == pooled_snapshot


@pytest.fixture
def pools(monkeypatch):
    """Every process pool the engine creates, each counting its shutdowns."""
    created = []

    class CountingPool(engine_module.ForkPool):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.shutdowns = 0
            created.append(self)

        def shutdown(self, *args, **kwargs):
            self.shutdowns += 1
            super().shutdown(*args, **kwargs)

    monkeypatch.setattr(engine_module, "ForkPool", CountingPool)
    return created


class GuttingStore(MemoryStore):
    """Loses island 2's records when round 1's output is read back."""

    def read_parts(self, name):
        return [[rec for rec in part if name != "job1" or rec.key != 2]
                for part in super().read_parts(name)]


def test_run_pga_uses_one_pool_for_the_whole_run(pools, pool_from_round_1):
    report = run_pga(INST10, SMALL, master_seed=5, workers=2)
    assert len(report.rounds) == 4  # five jobs, ten phases
    assert len(pools) == 1
    assert pools[0].shutdowns == 1
    assert multiprocessing.active_children() == []


@pytest.fixture
def pickled(monkeypatch):
    """Every Instance pickled in the driver."""
    driver = os.getpid()
    pickled = []
    real_getstate = Instance.__getstate__

    def counting_getstate(self):
        if os.getpid() == driver:
            pickled.append(self)
        return real_getstate(self)

    monkeypatch.setattr(Instance, "__getstate__", counting_getstate)
    pickle.dumps(INST10)
    assert pickled == [INST10]  # the count sees a pickle
    pickled.clear()
    return pickled


def test_pooled_run_pga_pickles_no_instance(pickled, pool_from_round_1):
    report = run_pga(INST10, SMALL, master_seed=5, workers=2)
    assert len(report.rounds) == 4  # four pooled reduce phases
    assert all(r.pooled for r in report.rounds)
    assert pickled == []  # the workers inherit the EvolveReducer at fork
    assert multiprocessing.active_children() == []


def test_evolve_reducers_compare_equal_by_instance_object_and_params():
    reducer = EvolveReducer(INST10, SMALL)
    twin = EvolveReducer(INST10, dataclasses.replace(SMALL))
    assert reducer == twin and hash(reducer) == hash(twin)
    assert reducer != EvolveReducer(pickle.loads(pickle.dumps(INST10)), SMALL)
    assert reducer != EvolveReducer(INST10, dataclasses.replace(SMALL, num_islands=5))
    assert reducer != island_module.InitReducer(INST10, SMALL.ga)
    with pytest.raises(dataclasses.FrozenInstanceError):
        reducer.params = dataclasses.replace(SMALL, num_islands=5)
    init = island_module.InitReducer(INST10, SMALL.ga)
    assert init == island_module.InitReducer(INST10, dataclasses.replace(SMALL.ga))
    assert hash(init) == hash(island_module.InitReducer(INST10, dataclasses.replace(SMALL.ga)))


def test_evolve_job_rounds_share_one_pool(pools):
    def run(workers):
        store = MemoryStore()
        with Engine(store) as engine:
            handle = init_job(engine, INST10, SMALL, master_seed=9)
            engine.workers = workers
            for round_number in range(1, 6):
                handle = evolve_job(engine, store.read_parts(handle), INST10, SMALL,
                                    round_number, master_seed=9)
        return store.snapshot()

    assert run(2) == run(1)
    assert len(pools) == 1 and pools[0].shutdowns == 1
    assert multiprocessing.active_children() == []


def test_fresh_evolve_reducer_every_round_in_a_pool_matches_in_process():
    def run(workers):
        store = MemoryStore()
        with Engine(store, workers=workers) as engine:
            handle = init_job(engine, INST10, SMALL, master_seed=9)
            for round_number in (1, 2, 3):
                handle = evolve_job(engine, store.read_parts(handle), INST10, SMALL,
                                    round_number, master_seed=9)
        return store.snapshot()

    assert run(2) == run(1)


def test_run_pga_shuts_the_pool_down_when_a_job_fails(pools, pool_from_round_1):
    with pytest.raises(EngineError, match="island 2 has no resident records"):
        run_pga(INST10, SMALL, master_seed=5, workers=2, store=GuttingStore())
    assert len(pools) == 1
    assert pools[0].shutdowns == 1
    assert multiprocessing.active_children() == []


def test_short_run_pga_stays_in_process(pools):
    report, snapshot = run_with_snapshot(2)
    assert pools == []
    assert multiprocessing.active_children() == []
    assert [r.pooled for r in report.rounds] == [False] * 4
    assert report.params["workers"] == 2
    serial_report, serial_snapshot = run_with_snapshot(1)
    same_output(report, serial_report)
    assert snapshot == serial_snapshot


def test_run_pga_pools_from_round_2_when_the_rest_pays(pools, pickled, monkeypatch):
    monkeypatch.setattr(island_module, "POOL_BREAK_EVEN_S", 1e-9)
    workers = 2
    report, snapshot = run_with_snapshot(workers)
    assert [r.pooled for r in report.rounds] == [False, True, True, True]
    assert [r["pooled"] for r in json.loads(report.to_json_line())["rounds"]] == \
           [False, True, True, True]
    assert len(pools) == 1
    assert pools[0].shutdowns == 1
    assert multiprocessing.active_children() == []
    assert pickled == []
    serial_report, serial_snapshot = run_with_snapshot(1)
    same_output(report, serial_report)
    assert snapshot == serial_snapshot


def test_run_pga_of_one_round_never_pools(pools, monkeypatch):
    monkeypatch.setattr(island_module, "POOL_BREAK_EVEN_S", 1e-9)
    one_round = IslandParams(num_islands=4, migration_interval=2,
                             ga=GaParams(population_size=20),
                             max_total_generations=2, convergence_patience=None)
    report = run_pga(INST10, one_round, master_seed=5, workers=2)
    assert [r.pooled for r in report.rounds] == [False]
    assert pools == []


def test_population_dump_round_trips(tmp_path):
    dump = tmp_path / "pop.txt"
    run_pga(INST10, SMALL, master_seed=1, workers=1, dump_path=dump)
    text = dump.read_text()
    assert text.endswith("\n")
    lines = text.splitlines()
    assert len(lines) == SMALL.num_islands * SMALL.ga.population_size
    pattern = re.compile(r"^\d+ \d+(?:\.\d+)? \d+(?: \d+)*$")
    per_island = Counter()
    for line in lines:
        assert pattern.match(line)
        fields = line.split()
        pop_id, length = int(fields[0]), float(fields[1])
        tour = [int(c) for c in fields[2:]]
        assert sorted(tour) == list(range(10))
        assert tour_length(tour, INST10) == length
        per_island[pop_id] += 1
    assert per_island == {i: 20 for i in range(SMALL.num_islands)}


def test_dump_formatting_skips_migrants():
    store = MemoryStore()
    engine = Engine(store, workers=1)
    handle = init_job(engine, INST10, SMALL, master_seed=3)
    handle = evolve_job(engine, store.read_parts(handle), INST10, SMALL, 1, master_seed=3)
    parts = store.read_parts(handle)
    total = sum(len(p) for p in parts)
    lines = format_population_dump(parts, INST10.dimension).splitlines()
    assert total == 4 * 20 + 4 * 3          # residents plus migrants in the parts
    assert len(lines) == 4 * 20             # but only residents are dumped


def test_run_pga_on_file_store(tmp_path):
    store = FileStore(tmp_path)
    report = run_pga(INST10, SMALL, master_seed=5, workers=1, store=store)
    assert not (tmp_path / "final-population.txt").exists()  # no dump unless asked
    for job in range(len(report.rounds) + 1):
        assert (tmp_path / f"job{job}" / "_SUCCESS").exists()

    memory = MemoryStore()
    twin = run_pga(INST10, SMALL, master_seed=5, workers=1, store=memory)
    assert twin.best_tour == report.best_tour
    assert twin.trajectory == report.trajectory
    assert memory.snapshot() == store.snapshot()


def test_run_pga_rejects_non_integer_weights_up_front():
    weights = np.random.default_rng(0).uniform(1, 10, (8, 8))
    np.fill_diagonal(weights, 0.0)
    instance = parse_instance(format_instance(Instance("float8", 8, weights)))
    assert instance.distances.dtype.kind == "f"  # the parser keeps fractional weights
    assert run_sga(instance, GaParams(population_size=20), 5).best_length > 0
    store = MemoryStore()
    with pytest.raises(NonIntegerWeightsError, match="integer edge weights"):
        run_pga(instance, SMALL, store=store)
    assert store.names() == []  # no job ran


@pytest.mark.parametrize("workers", [0, -3])
def test_run_pga_rejects_fewer_than_one_worker_up_front(workers):
    store = MemoryStore()
    with pytest.raises(ValueError, match=f"^workers must be >= 1, got {workers}$"):
        run_pga(INST10, SMALL, workers=workers, store=store)
    assert store.names() == []  # no job ran


def uniform_instance(n, weight):
    weights = np.full((n, n), weight, dtype=np.int64)
    np.fill_diagonal(weights, 0)
    return Instance(f"heavy{n}", n, weights)


def test_run_pga_rejects_overflowing_tour_lengths_up_front():
    heavy = uniform_instance(10, 2**61)  # a tour weighs 10 * 2**61 > 2**64 - 1
    assert run_sga(heavy, GaParams(population_size=10), 5).best_length == 10 * 2**61
    store = MemoryStore()
    with pytest.raises(TourLengthOverflowError, match="64-bit tour length"):
        run_pga(heavy, SMALL, store=store)
    assert store.names() == []  # no job ran, not even the seed was written


def test_run_pga_bound_ignores_the_diagonal(monkeypatch):
    # a tour of n >= 2 cities takes no diagonal entry: every tour here weighs 3
    weights = np.ones((3, 3), dtype=np.int64)
    np.fill_diagonal(weights, 2**62)
    inst = Instance("diagonal", 3, weights)
    assert inst.max_tour_length == 3
    params = IslandParams(num_islands=2, migration_interval=1, ga=GaParams(population_size=4),
                          max_total_generations=2, convergence_patience=None)
    runs = []
    for kernel in (ga._KERNEL, None):
        monkeypatch.setattr(ga, "_KERNEL", kernel)
        store = MemoryStore()
        runs.append((run_pga(inst, params, store=store), store.snapshot()))
    (report, snapshot), (looped, looped_snapshot) = runs
    assert report.best_length == 3
    same_output(report, looped)
    assert snapshot == looped_snapshot


@needs_kernel
def test_every_kernel_entry_is_skipped_past_the_tour_length_bound(monkeypatch):
    # no tour of these instances fits 64 bits, so ga._kernel_may_run keeps every
    # call from the kernel, and each run is the Python loops' from the start
    def refuse(*args):
        raise AssertionError("the kernel ran for an instance past the tour length bound")

    def sga(inst, params, generations, seed):
        report = run_sga(inst, params, generations, seed=seed)
        return (report.best_length, report.best_tour, report.trajectory, report.generations,
                report.stop_reason)

    def reduce(reducer, values):
        rng = random.Random(8)
        return outcome(reducer, 1, values, rng), rng.getstate()

    heavy = uniform_instance(10, 2**61)
    solves = {
        "sga huge": lambda: sga(huge_instance(), GaParams(population_size=10, mutation_prob=0.5,
                                                          crossover_prob=0.8), 3, 2),
        # the first population stays below 2**64 and generation 5 passes it, by
        # crossover or by mutation
        "sga crossover": lambda: sga(overflowing_instance(), GaParams(
            population_size=4, mutation_prob=0.0, crossover_prob=1.0), 8, 7),
        "sga mutation": lambda: sga(overflowing_instance(), GaParams(
            population_size=4, mutation_prob=1.0, crossover_prob=0.0), 8, 65),
        "init": lambda: reduce(InitReducer(heavy, GaParams(population_size=10)), [b""]),
        "evolve": lambda: reduce(EvolveReducer(heavy, SMALL), good_records(1, count=25)),
    }
    compiled = {}
    with monkeypatch.context() as refused:
        for entry in ("evolve", "random_tours", "evolve_island"):
            refused.setattr(ga._KERNEL, entry, refuse)
        for name, solve in solves.items():
            compiled[name] = solve()
    monkeypatch.setattr(ga, "_KERNEL", None)
    assert compiled == {name: solve() for name, solve in solves.items()}
    assert compiled["sga huge"][0] > 2**64
    for name in ("init", "evolve"):  # each sums a length past 2**64, which no record holds
        (_, kind, message), _ = compiled[name]
        assert kind is CodecError and message.endswith("does not fit an unsigned 64-bit field")
        assert int(message.split()[2]) == 10 * 2**61


def test_run_pga_accepts_tour_lengths_that_just_fit():
    params = IslandParams(num_islands=2, migration_interval=1, ga=GaParams(population_size=4),
                          max_total_generations=2, convergence_patience=None)
    report = run_pga(uniform_instance(3, MAX_LENGTH // 3), params)
    assert report.best_length == MAX_LENGTH
