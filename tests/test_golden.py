"""Golden determinism pins.

The determinism contract says a fixed seed fixes the best length, the best
tour, the trajectory and the sealed store bytes. These tests pin a sha256 of
each for a few runs, so a change that moves any rng draw, any tie-break or
any float summation order fails here instead of passing unnoticed. The
hashes were recorded before the GA fast path (cached successor arrays,
crossover that sums its own length) went in; changing one is a declared
change of behaviour. These run on the compiled crossover kernel wherever it
loads; test_golden_python_loop.py runs them again on the Python loop.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from mrtsp import ga
from mrtsp.engine import FileStore, MemoryStore
from mrtsp.ga import GaParams, run_sga
from mrtsp.island import IslandParams, run_pga
from mrtsp.tsplib import Instance, load_instance, random_instance

INSTANCE_DIR = Path(__file__).resolve().parent.parent / "instances"

SGA_GOLDEN = {
    0: "f3550725d5a621cb6dfad563886ff508d2d4bfd38069d3a00e4546ea48428560",
    1: "1e1d586eba2f20ae0616945e0a97d26cba6e535d4ec9f061dfd1784b42b38ef8",
}
SGA_FLOAT_GOLDEN = "c72cbcbb10df2ef81ce3ddfe33a3507f9824d6eb629c35a65f8699c35260ba65"
PGA_GOLDEN = "a1655794721031842b27b1ebfedb22d6e51d721dfcc2582d5df98947788e7258"
PGA_DISK_GOLDEN = "1e0a2769b61c67751e9d30e7e30a10b136df1528ae02442f4ab7e97f6aac63d8"
SGA_TIES_GOLDEN = "a2e487efaa5ee7e5c69756850a30e284733d0dc649d1e17c1d0373fbc23e03f2"
PGA_TIES_GOLDEN = "a4cf7682c2c33403e37414419e6abcdf38d0cf6e6231908367762b11efe99274"


@pytest.fixture(scope="module")
def rnd064():
    return load_instance(INSTANCE_DIR / "rnd064.atsp")


def digest(report, snapshot=None) -> str:
    h = hashlib.sha256()
    h.update(repr((report.best_length, tuple(report.best_tour),
                   list(report.trajectory))).encode())
    for name in sorted(snapshot or {}):
        h.update(name.encode())
        for part in snapshot[name]:
            h.update(len(part).to_bytes(8, "little"))
            h.update(part)
    return h.hexdigest()


@pytest.mark.parametrize("seed", sorted(SGA_GOLDEN))
def test_sga_rnd064_pinned(rnd064, seed):
    report = run_sga(rnd064, GaParams(population_size=50), 100, seed=seed)
    assert digest(report) == SGA_GOLDEN[seed]


def test_sga_float_weights_pinned():
    # fractional weights: the summation order of a tour's length shows here
    rng = np.random.default_rng(7)
    matrix = rng.uniform(1.0, 100.0, size=(24, 24))
    np.fill_diagonal(matrix, 0.0)
    inst = Instance("float24", 24, matrix)
    report = run_sga(inst, GaParams(population_size=30), 60, seed=3)
    assert digest(report) == SGA_FLOAT_GOLDEN


@pytest.fixture(scope="module")
def ties20():
    # weights 1..3 on 20 cities: many members of a population share a length
    return random_instance(20, (1, 3), seed=12)


def test_sga_elites_among_ties_pinned(ties20):
    # several elites drawn from tied lengths: which tied members carry over,
    # and in what order, shows here
    report = run_sga(ties20, GaParams(population_size=30, elite_count=3), 60, seed=5)
    assert digest(report) == SGA_TIES_GOLDEN


def test_pga_elites_among_ties_pinned(ties20):
    params = IslandParams(num_islands=3, migration_interval=4,
                          ga=GaParams(population_size=16, elite_count=2),
                          max_total_generations=12, convergence_patience=None)
    store = MemoryStore()
    report = run_pga(ties20, params, master_seed=6, workers=1, store=store)
    assert digest(report, store.snapshot()) == PGA_TIES_GOLDEN


def test_pga_rnd064_pinned(rnd064):
    params = IslandParams(num_islands=4, migration_interval=5,
                          ga=GaParams(population_size=20),
                          max_total_generations=20, convergence_patience=None)
    store = MemoryStore()
    report = run_pga(rnd064, params, master_seed=2, workers=1, store=store)
    assert digest(report, store.snapshot()) == PGA_GOLDEN


@pytest.mark.skipif(ga._KERNEL is None, reason="the kernel cannot be built here")
def test_breed_makes_every_child_of_the_int_weight_pins(rnd064, monkeypatch):
    # the goldens hold even when evolve declines, so make the generation loop
    # and its per-child operators raise: these runs then pass only if the
    # kernel's evolve made every generation
    def per_child(*args):
        raise AssertionError("a generation was bred outside the kernel's evolve")

    for name in ("next_generation", "select_parents", "greedy_crossover", "mutate"):
        monkeypatch.setattr(ga, name, per_child)
    assert digest(run_sga(rnd064, GaParams(population_size=50), 100, seed=0)) == SGA_GOLDEN[0]
    params = IslandParams(num_islands=4, migration_interval=5,
                          ga=GaParams(population_size=20),
                          max_total_generations=20, convergence_patience=None)
    store = MemoryStore()
    report = run_pga(rnd064, params, master_seed=2, workers=1, store=store)
    assert digest(report, store.snapshot()) == PGA_GOLDEN


def test_pga_file_store_migrating_every_generation_pinned(rnd064, tmp_path):
    # the persist-every-job path: every round seals a set on disk, and the
    # run ends with the readable dump of the final populations; recorded
    # before the island-set checks moved from evolve_job into run_pga's scan
    params = IslandParams(num_islands=5, migration_interval=1,
                          ga=GaParams(population_size=12),
                          max_total_generations=6, convergence_patience=None)
    store = FileStore(tmp_path)
    report = run_pga(rnd064, params, master_seed=4, workers=1, store=store,
                     dump_path=tmp_path / "final-population.txt")
    rounds = [(r.round, r.island_bests, r.best_length, r.best_tour, r.generations)
              for r in report.rounds]
    h = hashlib.sha256(digest(report, store.snapshot()).encode())
    h.update(repr((report.generations, report.stop_reason, rounds)).encode())
    h.update((tmp_path / "final-population.txt").read_bytes())
    assert h.hexdigest() == PGA_DISK_GOLDEN
