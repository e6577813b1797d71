"""End-to-end acceptance suite.

Each test covers one numbered claim about the finished system and prints a
single [PASS]/[FAIL] line with the measured numbers (visible with -s, or on
failure). Criterion 5 audits the trajectories collected by criteria 2-4, so
file order matters.
"""

import random
import statistics
import struct
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from mrtsp.codec import (CodecError, DuplicateGeneError, GeneRangeError,
                         decode_chromosome, encode_chromosome)
from mrtsp.engine import Engine, JobSpec, MemoryStore, Record, _chunk, identity_mapper
from mrtsp.ga import GaParams, Ranking, mutate, run_sga, tour_length
from mrtsp.island import IslandParams, evolve_job, init_job, run_pga
from mrtsp.oracle import brute_force, held_karp
from mrtsp.tsplib import load_instance, parse_instance, random_instance

INSTANCE_DIR = Path(__file__).resolve().parent.parent / "instances"

# (label, trajectory) pairs accumulated by criteria 2-4 and audited by 5
TRAJECTORIES: list[tuple[str, list[float]]] = []


def _report(num: int, name: str, ok: bool, detail: str):
    verdict = "PASS" if ok else "FAIL"
    print(f"\n[{verdict}] criterion {num}: {name} — {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_oracle_equivalence():
    t0 = time.perf_counter()
    disagreements = 0
    for i in range(50):
        inst = random_instance(5 + i % 6, (1, 100), seed=i)
        bf = brute_force(inst)
        hk = held_karp(inst)
        if bf.optimum_length != hk.optimum_length:
            disagreements += 1
        assert tour_length(hk.optimum_tour, inst) == hk.optimum_length
    elapsed = time.perf_counter() - t0
    ok = disagreements == 0 and elapsed < 60
    _report(1, "oracle equivalence", ok,
            f"50 instances N in [5,10], {disagreements} disagreements, {elapsed:.1f}s (< 60s)")


def test_criterion_02_sga_small_instance_optimality():
    t0 = time.perf_counter()
    hits = 0
    for seed in range(10):
        inst = random_instance(8, (1, 100), seed=seed)
        optimum = held_karp(inst).optimum_length
        report = run_sga(inst, GaParams(population_size=100), 500, seed=seed,
                         target_length=optimum)
        hits += report.best_length == optimum
        TRAJECTORIES.append((f"c2-sga-seed{seed}", report.trajectory))
    elapsed = time.perf_counter() - t0
    ok = hits >= 9 and elapsed < 30
    _report(2, "sga finds 8-city optima", ok,
            f"{hits}/10 optimal (need >= 9), {elapsed:.1f}s (< 30s)")


def test_criterion_03_br17_quality(br17):
    optimum = held_karp(br17).optimum_length
    bound = optimum * 1.05
    params = IslandParams(num_islands=10, migration_interval=50,
                          ga=GaParams(population_size=100),
                          max_total_generations=50_000,
                          target_length=bound)
    within = 0
    times = []
    for seed in range(10):
        report = run_pga(br17, params, master_seed=seed, workers=1)
        within += report.best_length <= bound
        times.append(report.wall_seconds)
        TRAJECTORIES.append((f"c3-pga-seed{seed}", report.trajectory))
    median = statistics.median(times)
    ok = within >= 8 and median < 120
    _report(3, "br17 within 5% of optimum", ok,
            f"{within}/10 runs <= {bound:.2f} (optimum {optimum}, need >= 8), "
            f"median {median:.2f}s (< 120s)")


def test_criterion_04_pga_beats_sga_at_equal_budget():
    ga = GaParams(population_size=50)
    islands, interval = 10, 10
    sga_generations = 1000
    pga_generations = sga_generations // islands  # same offspring count
    pga_params = IslandParams(num_islands=islands, migration_interval=interval,
                              ga=ga, max_total_generations=pga_generations,
                              convergence_patience=None)
    details = []
    ok = True
    for stem in ("rnd053", "rnd064"):
        inst = load_instance(INSTANCE_DIR / f"{stem}.atsp")
        sga_bests, pga_bests, wins_or_ties = [], [], 0
        for seed in range(10):
            sga = run_sga(inst, ga, sga_generations, seed=seed)
            pga = run_pga(inst, pga_params, master_seed=seed, workers=1)
            sga_bests.append(sga.best_length)
            pga_bests.append(pga.best_length)
            wins_or_ties += pga.best_length <= sga.best_length
            TRAJECTORIES.append((f"c4-sga-{stem}-seed{seed}", sga.trajectory))
            TRAJECTORIES.append((f"c4-pga-{stem}-seed{seed}", pga.trajectory))
        sga_mean = statistics.fmean(sga_bests)
        pga_mean = statistics.fmean(pga_bests)
        ok = ok and pga_mean <= sga_mean and wins_or_ties >= 8
        details.append(f"{stem}: pga mean {pga_mean:.1f} vs sga mean {sga_mean:.1f}, "
                       f"{wins_or_ties}/10 wins-or-ties")
    _report(4, "pga mean <= sga mean at equal budgets", ok, "; ".join(details))


def test_criterion_05_trajectories_never_regress():
    violations = [label for label, traj in TRAJECTORIES
                  if any(b > a for a, b in zip(traj, traj[1:]))]
    ok = len(TRAJECTORIES) >= 60 and not violations
    _report(5, "best-length trajectories are non-increasing", ok,
            f"{len(TRAJECTORIES)} trajectories audited, "
            f"{len(violations)} violations {violations[:3]}")


class _AppendingMapper:
    """Identity mapper appending one byte per call to a file, so calls made
    in any worker process can be counted."""

    def __init__(self, path):
        self.path = path

    def __call__(self, record):
        with open(self.path, "ab") as fh:
            fh.write(b"x")
        return [record]


def _passthrough(k, vs, rng):
    return [Record(k, v) for v in vs]


def _slow_mapper(record):
    time.sleep(0.02)
    return [record]


def _drop_all(k, vs, rng):
    return []


def _draw_per_value(k, vs, rng):
    return [Record(k, struct.pack("<d", rng.random())) for _ in vs]


def test_criterion_06_engine_contract(tmp_path):
    failures = []

    # exactly-once mapping, counted across worker processes
    store = MemoryStore()
    store.write_parts("in", _chunk([Record(i, bytes([i])) for i in range(37)], 5))
    calls_file = tmp_path / "mapper-calls"
    with Engine(store, workers=4) as engine:
        engine.run_job(JobSpec(
            job_id=0, num_reduce_tasks=3,
            mapper=_AppendingMapper(calls_file), reducer=_passthrough, master_seed=0),
            store.read_parts("in"))
    calls = len(calls_file.read_bytes())
    if calls != 37:
        failures.append(f"exactly-once: {calls} calls for 37 records")

    # key co-location
    parts = store.read_parts("job0")
    for task, part in enumerate(parts):
        if any(rec.key % 3 != task for rec in part):
            failures.append(f"co-location: foreign key in part {task}")

    # phase barrier
    events = []
    store2 = MemoryStore()
    store2.write_parts("in", _chunk([Record(i, b"") for i in range(8)], 8))

    with Engine(store2, workers=4, task_observer=events.append) as engine:
        engine.run_job(JobSpec(
            job_id=0, num_reduce_tasks=4,
            mapper=_slow_mapper, reducer=_drop_all, master_seed=0),
            store2.read_parts("in"))
    map_ends = [e["time"] for e in events if e["kind"] == "map" and e["event"] == "end"]
    reduce_starts = [e["time"] for e in events if e["kind"] == "reduce" and e["event"] == "start"]
    if max(map_ends) > min(reduce_starts):
        failures.append("barrier: a reduce task started before the map phase ended")

    # retry transparency: a task that fails once must leave no trace
    class Flaky:
        def __init__(self, fail_once):
            self.pending = fail_once

        def __call__(self, key, values, rng):
            out = [Record(key, struct.pack("<d", rng.random())) for _ in values]
            if key == 2 and self.pending:
                self.pending = False
                raise RuntimeError("injected fault")
            return out

    def run_flaky(fail_once):
        s = MemoryStore()
        s.write_parts("in", _chunk([Record(k, bytes([k])) for k in range(4)], 2))
        Engine(s, workers=1).run_job(JobSpec(
            job_id=0, num_reduce_tasks=4,
            mapper=identity_mapper, reducer=Flaky(fail_once), master_seed=9),
            s.read_parts("in"))
        return s.snapshot()

    if run_flaky(True) != run_flaky(False):
        failures.append("retry transparency: retried run differs from clean run")

    # byte-determinism across worker-pool sizes, diffing complete stores
    def run_sized(workers):
        s = MemoryStore()
        s.write_parts("in", _chunk([Record(i % 5, bytes([i])) for i in range(23)], 4))
        with Engine(s, workers=workers) as engine:
            engine.run_job(JobSpec(
                job_id=0, num_reduce_tasks=5,
                mapper=identity_mapper, reducer=_draw_per_value, master_seed=13),
                s.read_parts("in"))
        return s.snapshot()

    snapshots = {w: run_sized(w) for w in (1, 4, 8)}
    if not (snapshots[1] == snapshots[4] == snapshots[8]):
        failures.append("determinism: sealed stores differ across worker pools {1,4,8}")

    _report(6, "engine contract", not failures,
            failures[0] if failures else
            "exactly-once, co-location, barrier, retry transparency, "
            "determinism at workers {1,4,8} all hold")


def test_criterion_07_record_count_law():
    inst = random_instance(10, (1, 100), seed=2)
    params = IslandParams(num_islands=10, migration_interval=1,
                          ga=GaParams(population_size=100),
                          convergence_patience=None)
    expected = params.num_islands * (params.ga.population_size + params.num_islands - 1)
    store = MemoryStore()
    engine = Engine(store, workers=1)
    handle = init_job(engine, inst, params, master_seed=0)
    emitted_per_round = []
    retained_ok = True
    for round_number in (1, 2):
        handle = evolve_job(engine, store.read_parts(handle), inst, params, round_number,
                            master_seed=0)
        parts = store.read_parts(handle)
        emitted_per_round.append(sum(len(p) for p in parts))
        for island, part in enumerate(parts):
            retained_ok = retained_ok and sum(r.key == island for r in part) == 100
    ok = emitted_per_round == [expected, expected] and retained_ok
    _report(7, "record-count law", ok,
            f"emitted {emitted_per_round} per round (expect {expected}), "
            f"100 residents retained per island: {retained_ok}")


def test_criterion_08_codec_round_trip():
    rng = random.Random(0)
    bad = 0
    for _ in range(1000):
        n = rng.randrange(2, 60)
        genes = list(range(n))
        rng.shuffle(genes)
        length = rng.randrange(0, 2**40)
        pop_id = rng.randrange(0, 2**32)
        buf = encode_chromosome(genes, length, pop_id)
        decoded = decode_chromosome(buf)
        if (decoded.genes, decoded.length, decoded.pop_id) != (tuple(genes), length, pop_id):
            bad += 1
        if encode_chromosome(decoded.genes, decoded.length, decoded.pop_id) != buf:
            bad += 1

    rejected = True
    buf = encode_chromosome([2, 0, 1], 7, 4)
    for cut in range(len(buf)):
        try:
            decode_chromosome(buf[:cut])
            rejected = False
        except CodecError:
            pass
    dup = struct.pack("<II", 0, 3) + struct.pack("<III", 1, 1, 2) + struct.pack("<Q", 5)
    try:
        decode_chromosome(dup)
        rejected = False
    except DuplicateGeneError:
        pass
    out_of_range = struct.pack("<II", 0, 3) + struct.pack("<III", 0, 1, 7) + struct.pack("<Q", 5)
    try:
        decode_chromosome(out_of_range)
        rejected = False
    except GeneRangeError:
        pass

    ok = bad == 0 and rejected
    _report(8, "codec round-trip", ok,
            f"1000 chromosomes, {bad} mismatches; corrupted buffers rejected: {rejected}")


def test_criterion_09_parser_goldens():
    failures = []

    three = parse_instance(
        "NAME: three\nTYPE: ATSP\nDIMENSION: 3\nEDGE_WEIGHT_TYPE: EXPLICIT\n"
        "EDGE_WEIGHT_FORMAT: FULL_MATRIX\nEDGE_WEIGHT_SECTION\n"
        "0 1 2\n2 0 3\n4 5 0\nEOF\n")
    if not np.array_equal(three.distances, [[0, 1, 2], [2, 0, 3], [4, 5, 0]]):
        failures.append("3-city FULL_MATRIX matrix mismatch")

    euclid = parse_instance(
        "NAME: triangle\nTYPE: TSP\nDIMENSION: 3\nEDGE_WEIGHT_TYPE: EUC_2D\n"
        "NODE_COORD_SECTION\n1 0 0\n2 3 0\n3 3 4\nEOF\n")
    if not np.array_equal(euclid.distances, [[0, 3, 5], [3, 0, 4], [5, 4, 0]]):
        failures.append("EUC_2D 3-4-5 triangle matrix mismatch")

    br17 = load_instance(INSTANCE_DIR / "br17.atsp")
    tokens = (INSTANCE_DIR / "br17.atsp").read_text().split("EDGE_WEIGHT_SECTION")[1]
    raw = [int(t) for t in tokens.split() if t not in ("EOF",)]
    golden = np.array(raw[:17 * 17]).reshape(17, 17)
    if br17.distances.shape != (17, 17):
        failures.append(f"br17 shape {br17.distances.shape}")
    elif not np.array_equal(br17.distances, golden):
        failures.append("br17 matrix differs from the raw file tokens")

    _report(9, "parser goldens", not failures,
            failures[0] if failures else
            "3-city FULL_MATRIX, EUC_2D triangle and 17x17 br17 all exact")


def test_criterion_10_operator_statistics():
    draws = 100_000
    lengths = [40.0, 30.0, 20.0, 10.0]
    ranking = Ranking(lengths)
    rng = random.Random(1)
    counts = Counter(ranking.draw(rng) for _ in range(draws))
    theory = [0.1, 0.2, 0.3, 0.4]  # worst rank 1/10 ... best rank 4/10
    deviations = [abs(counts[i] / draws - theory[i]) for i in range(4)]
    rank_ok = max(deviations) < 0.02

    rng = random.Random(0)
    genes = tuple(range(10))
    fires = sum(mutate(genes, rng, 0.021) is not genes for _ in range(draws))
    expected = 0.021 * draws
    mutation_ok = abs(fires - expected) <= 0.15 * expected

    ok = rank_ok and mutation_ok
    _report(10, "operator statistics", ok,
            f"rank deviation max {max(deviations):.4f} (< 0.02); "
            f"mutation fired {fires}/{draws} vs {expected:.0f} expected (±15%)")
