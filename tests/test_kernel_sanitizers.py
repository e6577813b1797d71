"""The kernel built with AddressSanitizer and UBSan, run in a subprocess on
the matrices held_karp must decline and valid ones from 2 to 16 cities,
tie-heavy and with sums overflowing to inf, compared with the numpy DP, the
inputs evolve_island must decline before it touches the rng (every record
fault among them), an island's records at their widest and beyond
population_size at n = 129, the
inputs evolve and random_tours must decline before they touch the rng
(weights, genes, lengths, counts and stop rules, as in test_ga.py), short
sga and pga runs compared with the Python loops, which exercise evolve and
random_tours as well: evolve at n = 65, 128 and 129, whose crossover bitmap
of open cities ends in a partial or a full 64-bit word, on member lengths
of 2**64 - 1 and 2**64, from rng states whose draws cross the Mersenne
Twister's twist, with patience and a target that stop it early, and from
converged populations, one class of 200 members at n = 65 and two classes
of 3 members, whose duplicate classes compare rows. The GA entries read
and write the rng's Mersenne Twister in place, through the kernel's mirror
of _random.Random's struct, and the first of them checks that struct
against a fresh instance's getstate(); the twists corpus, rngs at word
index 0, 1, 623 and 624, drives that handover through evolve and
random_tours, and with PYTHONMALLOC=malloc a read past the type's basic
size lands where ASan watches it. Any report of either sanitizer aborts
the subprocess. The kernel must also build clean with -Wall -Werror."""

import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

from mrtsp import _xover

TESTS = Path(__file__).resolve().parent

SCRIPT = """
import importlib.machinery
import importlib.util
import random
import sys
from types import SimpleNamespace

import numpy as np

from mrtsp import ga
from mrtsp.codec import decode_chromosome, encode_chromosome
from mrtsp.ga import GaParams, TerminationPolicy, run_sga
from mrtsp.island import EvolveReducer, IslandParams, run_pga
from mrtsp.tsplib import Instance, random_instance
from test_codec import good_records
from test_ga import (ARG_FAULTS, DECLINED, GENE_FAULTS, ODD_WEIGHTS, arg_fault, declined_case,
                     evolve_args, gene_fault, odd_weights, twisted, weighted)
from test_island import island_args, island_declines
from test_oracle_golden import held_karp_declines, held_karp_outcome, held_karp_solvable

loader = importlib.machinery.ExtensionFileLoader("_xover", sys.argv[1])
kernel = importlib.util.module_from_spec(importlib.util.spec_from_loader("_xover", loader))
loader.exec_module(kernel)

for name, distances in held_karp_declines():
    assert kernel.held_karp(distances) is None, name
for name, distances in held_karp_solvable():
    assert kernel.held_karp(distances) is not None, name
    outcomes = []
    for compiled in (kernel, None):
        ga._KERNEL = compiled
        outcomes.append(repr(held_karp_outcome(Instance(name, len(distances), distances))))
    assert outcomes[0] == outcomes[1], name

for name, args in island_declines():
    state = args[-1].getstate()
    assert kernel.evolve_island(*args) is None, name
    assert args[-1].getstate() == state, name


def reduced(reducer, key, values):
    # evolve_island runs, and the reducer returns what it returns without the kernel
    assert kernel.evolve_island(*island_args(values, key, reducer.instance, reducer.params,
                                             random.Random(8))) is not None
    outcomes = []
    for compiled in (kernel, None):
        ga._KERNEL = compiled
        rng = random.Random(8)
        outcomes.append((reducer(key, values, rng), rng.getstate()))
    assert outcomes[0] == outcomes[1]


# key 2**32 - 1 lies past the islands, so every island gets a migrant
widest = [encode_chromosome(decode_chromosome(value).genes, 2**64 - 1 - k, 2**32 - 1)
          for k, value in enumerate(good_records(2**32 - 1, n=129, count=6, seed=4))]
island = IslandParams(num_islands=5, migration_interval=2,
                      ga=GaParams(population_size=6, mutation_prob=0.5))
reduced(EvolveReducer(weighted(129), island), 2**32 - 1, widest)
reduced(EvolveReducer(weighted(129), island), 3, good_records(3, n=129, count=11, seed=5))


def declines(args):
    # evolve returns None, having left its rng, a random.Random(1), untouched
    assert kernel.evolve(*args) is None
    assert args[-1].getstate() == random.Random(1).getstate()


for bad in DECLINED:
    inst, genes, lengths, params = declined_case(bad)
    declines(evolve_args(genes, lengths, inst, params, random.Random(1), 3))
inst, genes, lengths, params = declined_case("none")
for bad in GENE_FAULTS:
    faulty = genes[:3] + [gene_fault(bad, genes[3], inst.dimension)] + genes[4:]
    declines(evolve_args(faulty, lengths, inst, params, random.Random(1), 3))
for bad in ARG_FAULTS:
    declines(arg_fault(bad, evolve_args(genes, lengths, inst, params, random.Random(1), 3)))
for case in ODD_WEIGHTS:
    odd = SimpleNamespace(distances=odd_weights(case))
    declines(evolve_args(genes, lengths, odd, params, random.Random(1), 3))
    rng = random.Random(1)
    assert kernel.random_tours(9, odd.distances, rng) is None, case
    assert rng.getstate() == random.Random(1).getstate()
declines(evolve_args(genes, [2**64, *lengths[1:]], inst, params, random.Random(1), 3))
widest = [2**64 - 1, *lengths[1:]]
assert kernel.evolve(*evolve_args(genes, widest, inst, params, random.Random(1), 3)) is not None


def runs(solve):
    ga._KERNEL = kernel
    compiled = solve()
    ga._KERNEL = None
    looped = solve()
    assert (compiled.best_length, compiled.best_tour, compiled.trajectory,
            compiled.stop_reason) == \\
        (looped.best_length, looped.best_tour, looped.trajectory, looped.stop_reason)


runs(lambda: run_pga(random_instance(40, (1, 100), seed=3),
                     IslandParams(num_islands=3, migration_interval=3,
                                  ga=GaParams(population_size=12, mutation_prob=0.2),
                                  max_total_generations=9, convergence_patience=None),
                     master_seed=4))
wide = Instance("wide", 300, np.random.default_rng(5).integers(1, 10**12, (300, 300)))
runs(lambda: run_sga(wide, GaParams(population_size=6, mutation_prob=0.3), 2, seed=6))
for n in (65, 128, 129):
    runs(lambda: run_sga(weighted(n), GaParams(population_size=12, crossover_prob=1.0,
                                               mutation_prob=0.5), 3, seed=n))


small = random_instance(20, (1, 60), seed=11)
for patience, target in ((3, None), (20, 300.5), (None, 353)):
    runs(lambda: run_sga(small, GaParams(population_size=14, mutation_prob=0.1), 60,
                         TerminationPolicy(target, patience), seed=12))


def twists(index):
    start = ga.random_population(weighted(40), GaParams(population_size=20), random.Random(7))
    outcomes = []
    for compiled in (kernel, None):
        ga._KERNEL = compiled
        rng = twisted(index)
        made = ga.random_population(weighted(40), GaParams(population_size=20), rng)
        evolved = ga.evolve(*start, weighted(40), rng, GaParams(population_size=20), 4)
        outcomes.append((made, evolved, rng.getstate()))
    assert outcomes[0] == outcomes[1], index


for index in (0, 1, 623, 624):
    twists(index)


def converged(classes, size, n, generations):
    # size members copied from classes distinct tours: selection's rows are
    # compared with memcmp once a try is rejected
    inst, rng = weighted(n), random.Random(classes)
    tours = [tuple(ga.random_tour(n, rng)) for _ in range(classes)]
    genes = [tours[i % classes] for i in range(size)]
    lengths = [ga.tour_length(tour, inst) for tour in genes]
    params = GaParams(population_size=size, mutation_prob=0.3)
    outcomes = []
    for compiled in (kernel, None):
        ga._KERNEL = compiled
        rng = random.Random(size)
        outcomes.append((ga.evolve(genes, lengths, inst, rng, params, generations),
                         rng.getstate()))
    assert outcomes[0] == outcomes[1], (classes, size)


converged(1, 200, 65, 3)
converged(2, 3, 20, 30)
print("clean")
"""


def compiler_include() -> Path:
    """The interpreter's include directory; skips the test without cc or Python.h."""
    include = Path(sysconfig.get_paths()["include"])
    if shutil.which("cc") is None or not (include / "Python.h").exists():
        pytest.skip("no cc or no Python.h")
    return include


def test_kernel_builds_clean_with_all_warnings_as_errors(tmp_path):
    build = subprocess.run(["cc", "-O2", "-Wall", "-Werror", "-shared", "-fPIC", "-I",
                            str(compiler_include()), "-o", str(tmp_path / "_xover.so"),
                            str(_xover.SOURCE)], capture_output=True, text=True, timeout=120)
    assert build.returncode == 0, build.stderr


def test_kernel_runs_clean_under_address_and_undefined_behaviour_sanitizers(tmp_path):
    include = compiler_include()
    libasan = subprocess.run(["cc", "-print-file-name=libasan.so"], capture_output=True,
                             text=True).stdout.strip()
    if not os.path.isabs(libasan) or not os.path.exists(libasan):
        pytest.skip("no libasan")
    library = tmp_path / "_xover_sanitized.so"
    build = subprocess.run(["cc", "-O1", "-g", "-fsanitize=address,undefined",
                            "-fno-omit-frame-pointer", "-fno-sanitize-recover=all", "-shared",
                            "-fPIC", "-I", str(include), "-o", str(library), str(_xover.SOURCE)],
                           capture_output=True, text=True, timeout=120)
    assert build.returncode == 0, build.stderr
    env = {**os.environ, "LD_PRELOAD": libasan, "ASAN_OPTIONS": "detect_leaks=0",
           "PYTHONMALLOC": "malloc",  # every object allocated where ASan watches it
           "PYTHONPATH": os.pathsep.join([str(TESTS.parent / "src"), str(TESTS)])}
    run = subprocess.run([sys.executable, "-c", SCRIPT, str(library)], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0 and run.stdout.strip() == "clean", run.stderr[-4000:]
