import importlib.machinery
import random
import shutil
import subprocess
import sys
import sysconfig
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from mrtsp import _xover, ga as ga_module
from mrtsp.codec import MAX_LENGTH
from mrtsp.ga import (GaParams, Ranking, TerminationPolicy, canonical, evolve,
                      greedy_crossover, mutate, next_generation, random_population,
                      random_tour, run_sga,
                      select_parents, shortest, similarity, stop_reason, successors,
                      tour_length)
from mrtsp.oracle import held_karp
from mrtsp.tsplib import Instance, random_instance

THREE_CITY = Instance("toy3", 3, np.array([[0, 1, 2], [2, 0, 3], [4, 5, 0]]))
FOUR_CITY = Instance("toy4", 4, np.array([
    [0, 1, 4, 9],
    [1, 0, 2, 8],
    [4, 2, 0, 3],
    [9, 8, 3, 0],
]))


class PoisonRng:
    """Fails the test if any randomness is consumed."""

    def __getattr__(self, name):
        raise AssertionError(f"unexpected rng use: {name}")


class StubRng:
    """Plays back scripted random()/randrange() results."""

    def __init__(self, randoms=(), randranges=()):
        self.randoms = list(randoms)
        self.randranges = list(randranges)

    def random(self):
        return self.randoms.pop(0)

    def randrange(self, n):
        return self.randranges.pop(0)


def cross(a, b, instance, rng):
    """greedy_crossover of the gene sequences a and b."""
    return greedy_crossover(a[0], successors(a), successors(b), instance, rng)


def test_params_defaults():
    p = GaParams()
    assert (p.population_size, p.crossover_prob, p.mutation_prob) == (100, 0.99, 0.021)
    assert (p.similarity_threshold, p.elite_count, p.max_parent_retries) == (0.80, 1, 32)


@pytest.mark.parametrize("kwargs", [
    dict(population_size=1),
    dict(crossover_prob=1.5),
    dict(mutation_prob=-0.1),
    dict(similarity_threshold=2.0),
    dict(elite_count=0),
    dict(elite_count=100),
    dict(max_parent_retries=0),
])
def test_params_validation(kwargs):
    with pytest.raises(ValueError):
        GaParams(**kwargs)


def test_random_tour_basics():
    rng = random.Random(0)
    assert sorted(random_tour(5, rng)) == [0, 1, 2, 3, 4]
    assert random_tour(2, rng) in ([0, 1], [1, 0])
    assert random_tour(6, random.Random(9)) == random_tour(6, random.Random(9))
    with pytest.raises(ValueError):
        random_tour(1, rng)


def test_random_tour_is_uniform_at_each_position():
    rng = random.Random(3)
    hits = Counter(random_tour(5, rng)[0] for _ in range(10_000))
    for city in range(5):
        assert abs(hits[city] / 10_000 - 0.2) < 0.02


def test_tour_length_directed():
    assert tour_length((0, 1, 2), THREE_CITY) == 8    # 1 + 3 + 4
    assert tour_length((0, 2, 1), THREE_CITY) == 9    # 2 + 5 + 2
    assert tour_length((1, 2, 0), THREE_CITY) == 8    # rotation, same cycle
    assert tour_length((0, 1, 2, 3), FOUR_CITY) == 15


def test_rank_probabilities():
    def cum(n):
        return Ranking([float(n - i) for i in range(n)]).cum

    assert cum(2) == [1 / 3, 1.0]
    assert cum(3) == [1 / 6, 3 / 6, 1.0]
    for n in (2, 5, 100):
        probs = [b - a for a, b in zip([0.0] + cum(n), cum(n))]
        assert abs(sum(probs) - 1.0) < 1e-9
        assert probs == sorted(probs)  # best rank gets the largest share
    with pytest.raises(ValueError):
        next_generation([], [], THREE_CITY, random.Random(0), GaParams())


def test_ranking_and_shortest_keep_member_order_among_ties():
    lengths = [5, 3, 5, 3, 7]
    assert Ranking(lengths).order == [4, 0, 2, 1, 3]
    assert shortest(list("abcde"), lengths, 3) == (["b", "d", "a"], [3, 3, 5])


def test_successors_follow_the_closed_tour():
    assert successors([2, 0, 3, 1]) == [3, 2, 0, 1]   # 0->3, 1->2 (closing), 2->0, 3->1


def test_similarity_rotation_invariant():
    a = canonical((0, 1, 2, 3))
    assert similarity(a, canonical((0, 1, 2, 3))) == 1.0
    assert similarity(a, canonical((2, 3, 0, 1))) == 1.0   # same cycle, rotated
    assert similarity(a, canonical((0, 2, 1, 3))) == 0.5
    with pytest.raises(ValueError):
        similarity(a, canonical((0, 1, 2)))


def test_select_parents_waives_threshold_when_converged():
    rows = [canonical((0, 1, 2, 3))] * 4
    params = GaParams(population_size=4, max_parent_retries=5)
    ia, ib = select_parents(Ranking([15] * 4), rows, random.Random(0), params)
    assert ia != ib           # distinct members even though all tours match


def test_select_parents_rejects_similar_pairs():
    x = (0, 1, 2, 3)
    y = (0, 2, 1, 3)
    ranking = Ranking([tour_length(genes, FOUR_CITY) for genes in (x, x, x, y)])
    params = GaParams(population_size=4, max_parent_retries=1000)
    for seed in range(20):
        assert 3 in select_parents(ranking, [x, x, x, y], random.Random(seed), params)


def test_select_parents_rank_frequencies():
    ranking = Ranking([40.0, 30.0, 20.0, 10.0])
    rng = random.Random(1)
    draws = 100_000
    counts = Counter(ranking.draw(rng) for _ in range(draws))
    # worst tour should be drawn with probability 1/10, best with 4/10
    for index, expected in enumerate([0.1, 0.2, 0.3, 0.4]):
        assert abs(counts[index] / draws - expected) < 0.02


def test_greedy_crossover_identical_parents_is_pure_copy():
    a = (2, 0, 3, 1)
    child, length = cross(a, (2, 0, 3, 1), FOUR_CITY, PoisonRng())
    assert child == [2, 0, 3, 1]
    assert length == tour_length(a, FOUR_CITY)


def test_greedy_crossover_hand_trace():
    # start 0; succ_a=1 vs succ_b=2 -> d(0,1)=1 beats d(0,2)=4 -> 1
    # at 1: succ_a=2 open, succ_b=0 taken -> 2; at 2 both successors are 3
    assert cross((0, 1, 2, 3), (0, 2, 3, 1), FOUR_CITY, PoisonRng()) == ([0, 1, 2, 3], 15)


def reference_crossover(a, b, instance, rng):
    """Step-for-step restatement of the documented crossover contract."""
    n = len(a)
    succ_a = {a[i]: a[(i + 1) % n] for i in range(n)}
    succ_b = {b[i]: b[(i + 1) % n] for i in range(n)}
    child = [a[0]]
    taken = {a[0]}
    while len(child) < n:
        current = child[-1]
        ea, eb = succ_a[current], succ_b[current]
        if ea not in taken and eb not in taken:
            if instance.distances[current][eb] < instance.distances[current][ea]:
                nxt = eb
            else:
                nxt = ea  # cheaper, or the tie
        elif ea not in taken:
            nxt = ea
        elif eb not in taken:
            nxt = eb
        else:
            open_cities = sorted(set(range(n)) - taken)
            nxt = open_cities[rng.randrange(len(open_cities))]
        child.append(nxt)
        taken.add(nxt)
    return child


def test_greedy_crossover_matches_reference_on_random_cases():
    for case in range(200):
        rng = random.Random(case)
        n = rng.randrange(4, 12)
        inst = random_instance(n, (1, 50), seed=case)
        pa, pb = random_tour(n, rng), random_tour(n, rng)
        got, length = cross(pa, pb, inst, random.Random(1000 + case))
        want = reference_crossover(pa, pb, inst, random.Random(1000 + case))
        assert got == want
        assert length == tour_length(got, inst)
        assert sorted(got) == list(range(n))
        assert got[0] == pa[0]


def test_mutate_scripted_swap():
    # fires (0.0 < prob), i=1, raw j=2 shifts past i -> swap positions 1 and 3
    out = mutate((0, 1, 2, 3), StubRng(randoms=[0.0], randranges=[1, 2]), 0.021)
    assert out == [0, 3, 2, 1]


def test_mutate_zero_probability_is_identity():
    genes = (0, 1, 2, 3)
    assert mutate(genes, PoisonRng(), 0.0) is genes


def test_mutate_non_firing_draw_returns_input():
    genes = (0, 1, 2, 3)
    assert mutate(genes, StubRng(randoms=[0.5]), 0.021) is genes


def test_mutate_swaps_two_distinct_positions():
    rng = random.Random(7)
    base = tuple(range(12))
    for _ in range(500):
        out = mutate(base, rng, 1.0)
        diffs = [i for i in range(12) if out[i] != base[i]]
        assert len(diffs) == 2
        i, j = diffs
        assert (out[i], out[j]) == (base[j], base[i])


def test_mutate_fire_rate():
    rng = random.Random(0)
    genes = tuple(range(10))
    fires = sum(mutate(genes, rng, 0.021) is not genes for _ in range(100_000))
    assert abs(fires - 2100) <= 300


def test_next_generation_keeps_size_and_elite():
    inst = random_instance(10, (1, 100), seed=0)
    params = GaParams(population_size=30)
    rng = random.Random(0)
    genes, lengths = random_population(inst, params, rng)
    best = min(lengths)
    for _ in range(50):
        genes, lengths = next_generation(genes, lengths, inst, rng, params)
        assert len(genes) == len(lengths) == 30
        assert min(lengths) <= best  # elitism: never regresses
        best = min(lengths)
        assert all(sorted(tour) == list(range(10)) for tour in genes)
        assert lengths == [tour_length(tour, inst) for tour in genes]


def test_next_generation_without_variation_only_copies():
    inst = random_instance(8, (1, 100), seed=1)
    params = GaParams(population_size=12, crossover_prob=0.0, mutation_prob=0.0)
    rng = random.Random(2)
    genes, lengths = random_population(inst, params, rng)
    out, _ = next_generation(genes, lengths, inst, rng, params)
    assert set(out) <= set(genes)


def test_the_loop_builds_each_row_and_successor_list_once_per_generation(monkeypatch):
    inst = random_instance(10, (1, 100), seed=2)
    params = GaParams(population_size=12)
    genes, lengths = random_population(inst, params, random.Random(3))
    monkeypatch.setattr(ga_module, "_KERNEL", None)
    built = Counter()
    for name in ("canonical", "successors"):
        real = getattr(ga_module, name)
        monkeypatch.setattr(ga_module, name,
                            lambda tour, name=name, real=real: built.update([name]) or real(tour))
    rng = random.Random(4)
    for generation in range(1, 4):
        genes, lengths = next_generation(genes, lengths, inst, rng, params)
        assert built == {"canonical": 12 * generation, "successors": 12 * generation}


def test_next_generation_finds_small_optimum():
    inst = random_instance(8, (1, 100), seed=5)
    optimum = held_karp(inst).optimum_length
    hits = 0
    for seed in range(5):
        report = run_sga(inst, GaParams(), 300,
                         TerminationPolicy(target_length=optimum), seed=seed)
        hits += report.best_length == optimum
    assert hits >= 4


def test_run_sga_single_generation():
    report = run_sga(THREE_CITY, GaParams(population_size=4), 1, seed=0)
    assert report.generations == 1
    assert len(report.trajectory) == 2
    assert report.stop_reason == "budget"
    assert report.algo == "sga"
    assert tour_length(report.best_tour, THREE_CITY) == report.best_length


def test_run_sga_deterministic():
    inst = random_instance(9, (1, 100), seed=3)
    a = run_sga(inst, GaParams(population_size=20), 40, seed=11)
    b = run_sga(inst, GaParams(population_size=20), 40, seed=11)
    assert a.best_tour == b.best_tour
    assert a.trajectory == b.trajectory


def test_run_sga_hits_target_on_br17(br17):
    report = run_sga(br17, GaParams(), 2000,
                     TerminationPolicy(target_length=40), seed=0)
    assert report.best_length <= 40
    assert report.stop_reason == "target"


def test_run_sga_rejects_bad_budget():
    with pytest.raises(ValueError):
        run_sga(THREE_CITY, GaParams(population_size=4), 0)


def test_stop_reason_precedence():
    # budget beats everything
    assert stop_reason([5.0] * 30, 30, 30, patience=20, target_length=10.0) == "budget"
    # stagnation beats target
    assert stop_reason([5.0] * 20, 10, 30, patience=20, target_length=10.0) == "stagnation"
    assert stop_reason([5.0], 1, 30, patience=None, target_length=10.0) == "target"
    assert stop_reason([11.0], 1, 30, patience=None, target_length=10.0) is None


def test_stop_reason_patience_disabled():
    history = [5.0] * 100
    assert stop_reason(history, 10, 1000, patience=0, target_length=None) is None
    assert stop_reason(history, 10, 1000, patience=None, target_length=None) is None
    assert stop_reason(history, 10, 1000, patience=100, target_length=None) == "stagnation"
    # a fresh improvement resets the stagnation window
    assert stop_reason(history + [4.0], 10, 1000, patience=100, target_length=None) is None


@pytest.mark.parametrize("patience", [-1, -2])
def test_termination_policy_rejects_a_negative_patience(patience):
    # as IslandParams rejects a negative convergence_patience
    with pytest.raises(ValueError, match="^patience must be >= 0 or None$"):
        TerminationPolicy(patience=patience)
    assert TerminationPolicy(patience=0).patience == 0
    assert TerminationPolicy(target_length=-1).patience is None


def test_termination_policy_rejects_a_nan_target():
    # no best is <= NaN, so such a target would never stop a run
    with pytest.raises(ValueError, match="^target_length must be a number, got nan$"):
        TerminationPolicy(target_length=float("nan"))
    for target in (None, 0, -1.5, float("inf"), float("-inf"), 2**70):
        assert TerminationPolicy(target_length=target).target_length == target


# -- the compiled kernel -------------------------------------------------------------

needs_kernel = pytest.mark.skipif(ga_module._KERNEL is None,
                                  reason="the kernel cannot be built here")


class CountingRng(random.Random):
    """random.Random that counts randrange calls (crossover dead ends)."""

    dead_ends = 0

    def randrange(self, *args):
        self.dead_ends += 1
        return super().randrange(*args)


class FailingRng(random.Random):
    def randrange(self, *args):
        raise LookupError("randrange failed")


def failing_bits_rng():
    """An exact random.Random whose getrandbits, which randrange calls, fails."""
    rng = random.Random(0)

    def getrandbits(k):
        raise LookupError("getrandbits failed")

    rng.getrandbits = getrandbits
    return rng


def dead_end_pair(n=40):
    """An int instance and parents whose crossover meets at least one dead end."""
    inst = random_instance(n, (1, 50), seed=3)
    rng = random.Random(3)
    return inst, random_tour(n, rng), random_tour(n, rng)


def test_greedy_crossover_passes_on_what_the_rng_raises():
    inst, pa, pb = dead_end_pair()
    counting = CountingRng(0)
    cross(pa, pb, inst, counting)
    assert counting.dead_ends > 0
    with pytest.raises(LookupError, match="randrange failed"):
        cross(pa, pb, inst, FailingRng(0))
    with pytest.raises(LookupError, match="getrandbits failed"):
        cross(pa, pb, inst, failing_bits_rng())


def test_failed_build_or_load_falls_back_silently(tmp_path, monkeypatch):
    broken = tmp_path / "broken.c"
    broken.write_text("this is not C\n")
    assert _xover.load(broken, tmp_path / "cache") is None
    monkeypatch.setenv("PATH", str(tmp_path / "no-compiler-here"))
    assert _xover.load(_xover.SOURCE, tmp_path / "empty-cache") is None
    shared = tmp_path / "shared"
    shared.mkdir(mode=0o777)
    shared.chmod(0o777)
    assert _xover.load(_xover.SOURCE, shared) is None  # never load from a shared directory
    monkeypatch.undo()

    def unloadable(self, spec):
        raise ImportError(f"{spec.origin}: invalid ELF header")

    monkeypatch.setattr(importlib.machinery.ExtensionFileLoader, "create_module", unloadable)
    assert _xover.load() is None
    monkeypatch.undo()
    headerless = tmp_path / "no-headers"
    headerless.mkdir()
    monkeypatch.setattr(_xover.sysconfig, "get_paths", lambda: {"include": str(headerless)})
    assert _xover.load(_xover.SOURCE, tmp_path / "headerless-cache") is None
    monkeypatch.undo()

    inst = random_instance(30, (1, 100), seed=4)
    params = GaParams(population_size=20)
    compiled = run_sga(inst, params, 15, seed=6)
    monkeypatch.setattr(ga_module, "_KERNEL", _xover.load(broken, tmp_path / "cache"))
    fallback = run_sga(inst, params, 15, seed=6)
    assert (fallback.best_length, fallback.best_tour, fallback.trajectory) == \
        (compiled.best_length, compiled.best_tour, compiled.trajectory)


def test_kernel_source_compiles_without_warnings(tmp_path):
    # _xover._compile passes no -Werror, so that a newer compiler's new
    # warnings never break a user's build; here any warning fails, an unused
    # helper or variable left by a deletion included
    include = Path(sysconfig.get_paths()["include"])
    if shutil.which("cc") is None or not (include / "Python.h").exists():
        pytest.skip("no cc or no Python.h")
    build = subprocess.run(["cc", "-O2", "-Wall", "-Werror", "-shared", "-fPIC", "-I",
                            str(include), "-o", str(tmp_path / "_xover.so"), str(_xover.SOURCE)],
                           capture_output=True, text=True, timeout=120)
    assert build.returncode == 0, build.stderr


@needs_kernel
def test_a_build_removes_the_libraries_of_earlier_sources(tmp_path):
    cache = tmp_path / "cache"
    cache.mkdir(mode=0o700)
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    stale = cache / f"_xover-0123456789abcdef{suffix}"
    kept = [cache / name for name in (f"other-0123456789abcdef{suffix}",
                                      f"_xover-0123456789abcdef{suffix}.tmp", "_xover-notes.txt")]
    for path in (stale, *kept):
        path.write_bytes(b"")
    assert _xover.load(_xover.SOURCE, cache) is not None
    assert not stale.exists()
    assert all(path.exists() for path in kept)
    assert len(list(cache.glob(f"_xover-*{suffix}"))) == 1


# -- evolve: a run's generations in one kernel call ---------------------------------

def evolve_args(genes, lengths, instance, params, rng, generations=1, patience=None,
                target=None):
    """The kernel's evolve arguments for ga.evolve's."""
    return (genes, lengths, instance.distances, params.similarity_threshold,
            params.max_parent_retries, params.crossover_prob, params.mutation_prob,
            params.elite_count, generations, patience, target, rng)


DECLINED = ["float64", "int32", "fortran", "list", "duplicate"]
GENE_FAULTS = ["short", "long", "above_n", "last_above_n", "negative", "beyond_a_c_long",
               "float_city", "none_city", "bool_city"]
ODD_WEIGHTS = ["uint64", "big_endian", "strided", "non_square", "three_d", "one_city", "empty",
               "nested_list"]
ARG_FAULTS = ["elite_count_p", "elite_count_0", "negative_generations", "no_retries",
              "float_length", "bool_length", "negative_length", "length_2**128",
              "lengths_short", "lengths_tuple", "genes_tuple", "one_member", "float_patience",
              "str_target", "float_threshold_str"]


def declined_case(bad):
    n = 8
    matrix = np.random.default_rng(n).integers(1, 10, (n, n))
    weights = {"float64": matrix.astype(np.float64), "int32": matrix.astype(np.int32),
               "fortran": np.asfortranarray(matrix)}.get(bad, matrix)
    inst = Instance("declined", n, weights)
    params = GaParams(population_size=10, mutation_prob=0.5, crossover_prob=0.8)
    genes, lengths = random_population(inst, params, random.Random(n))
    if bad in ("list", "duplicate"):
        genes[3], lengths[3] = list(genes[3]) if bad == "list" else (0, 0, *genes[3][2:]), 1
    return inst, genes, lengths, params


def declines(args):
    """Whether the kernel's evolve(*args) returns None, its rng (args[-1])
    untouched: a random.Random(1) at the call."""
    declined = ga_module._KERNEL.evolve(*args) is None
    return declined and args[-1].getstate() == random.Random(1).getstate()


@needs_kernel
@pytest.mark.parametrize("bad", DECLINED)
def test_breed_declines_before_any_draw_and_the_loop_runs_as_before(bad, monkeypatch):
    inst, genes, lengths, params = declined_case(bad)
    assert declines(evolve_args(genes, lengths, inst, params, random.Random(1), 3))
    outcomes = []
    # the kernel as it is, then with evolve declining everything: the generation loop
    for entry in (ga_module._KERNEL.evolve, lambda *args: None):
        monkeypatch.setattr(ga_module._KERNEL, "evolve", entry)
        rng = random.Random(2)
        try:
            out = evolve(genes, lengths, inst, rng, params, 3)
        except ValueError as exc:  # a parent that is not a permutation
            out = repr(exc)
        outcomes.append((out, rng.getstate()))
    assert outcomes[0] == outcomes[1]


def gene_fault(bad, tour, n):
    """tour, a permutation of n cities, with the fault named bad."""
    return {"short": tour[:-1], "long": (*tour, n),
            "above_n": (n, *tour[1:]), "last_above_n": (*tour[:-1], n),
            "negative": (-1, *tour[1:]), "beyond_a_c_long": (2**70, *tour[1:]),
            "float_city": (float(tour[0]), *tour[1:]), "none_city": (None, *tour[1:]),
            "bool_city": tuple(True if city == 1 else city for city in tour)}[bad]


@needs_kernel
@pytest.mark.parametrize("bad", GENE_FAULTS)
def test_breed_declines_genes_that_do_not_permute_the_cities(bad):
    inst, genes, lengths, params = declined_case("none")
    tour = genes[3]
    genes[3] = gene_fault(bad, tour, inst.dimension)
    # returning None with an exception still set would raise SystemError here
    assert declines(evolve_args(genes, lengths, inst, params, random.Random(1)))
    genes[3] = tour
    assert not declines(evolve_args(genes, lengths, inst, params, random.Random(1)))


def arg_fault(bad, args):
    """The kernel's evolve arguments args with the fault named bad."""
    genes, lengths = list(args[0]), list(args[1])
    index, value = {
        "elite_count_p": (7, len(genes)), "elite_count_0": (7, 0),
        "negative_generations": (8, -1), "no_retries": (4, 0),
        "float_length": (1, [float(lengths[0]), *lengths[1:]]),
        "bool_length": (1, [True, *lengths[1:]]),
        "negative_length": (1, [-1, *lengths[1:]]),
        "length_2**128": (1, [2**128, *lengths[1:]]),
        "lengths_short": (1, lengths[:-1]), "lengths_tuple": (1, tuple(lengths)),
        "genes_tuple": (0, tuple(genes)), "one_member": (0, genes[:1]),
        "float_patience": (9, 2.0), "str_target": (10, "7"),
        "float_threshold_str": (3, "0.8")}[bad]
    if bad == "one_member":
        return (genes[:1], lengths[:1], *args[2:7], 0, *args[8:])
    return (*args[:index], value, *args[index + 1:])


@needs_kernel
@pytest.mark.parametrize("bad", ARG_FAULTS)
def test_evolve_declines_other_arguments_before_any_draw(bad):
    inst, genes, lengths, params = declined_case("none")
    assert declines(arg_fault(bad, evolve_args(genes, lengths, inst, params, random.Random(1), 3)))


@needs_kernel
def test_breed_declines_a_negative_count_before_any_draw():
    # the count is now evolve's generations; 0 of them is no draw and no change
    inst, genes, lengths, params = declined_case("none")
    assert declines(evolve_args(genes, lengths, inst, params, random.Random(1), -1))
    rng = random.Random(1)
    state = rng.getstate()
    assert ga_module._KERNEL.evolve(*evolve_args(genes, lengths, inst, params, rng, 0)) == \
        (genes, lengths, [])
    assert rng.getstate() == state


def odd_weights(case, n=8):
    matrix = np.random.default_rng(n).integers(1, 10, (n, n))
    return {"uint64": lambda: matrix.astype(np.uint64),
            "big_endian": lambda: matrix.astype(">i8"),
            "strided": lambda: np.repeat(np.repeat(matrix, 2, 0), 2, 1)[::2, ::2],
            "non_square": lambda: np.ascontiguousarray(matrix[:, :-1]),
            "three_d": lambda: matrix.reshape(1, n, n),
            "one_city": lambda: matrix[:1, :1].copy(),
            "empty": lambda: np.zeros((0, 0), np.int64),
            "nested_list": matrix.tolist,
            "longlong": lambda: matrix.astype(np.longlong),
            "row_offset": lambda: np.vstack([matrix[:2], matrix])[2:]}[case]()


@needs_kernel
@pytest.mark.parametrize("case", ODD_WEIGHTS)
def test_kernel_declines_weights_that_are_not_a_c_ordered_int64_matrix(case):
    weights = odd_weights(case)
    _, genes, lengths, params = declined_case("none")
    # the kernel reads a PoisonRng's state only by raising, so a touch would raise
    args = evolve_args(genes, lengths, SimpleNamespace(distances=weights), params, PoisonRng())
    assert ga_module._KERNEL.evolve(*args) is None
    assert ga_module._KERNEL.random_tours(9, weights, PoisonRng()) is None


@needs_kernel
@pytest.mark.parametrize("case", ["longlong", "row_offset", "memmap"])
def test_kernel_takes_any_c_ordered_int64_buffer(case, tmp_path, monkeypatch):
    if case == "memmap":
        np.save(tmp_path / "weights.npy", odd_weights("longlong"))
        weights = np.load(tmp_path / "weights.npy", mmap_mode="r")
    else:
        weights = odd_weights(case)
    assert weights.flags.c_contiguous and (case != "row_offset" or weights.base is not None)
    inst = Instance("buffer", 8, weights)
    params = GaParams(population_size=10, mutation_prob=0.5, crossover_prob=0.8)
    assert ga_module._KERNEL.random_tours(9, inst.distances, random.Random(1))
    genes, lengths = random_population(inst, params, random.Random(2))
    assert not declines(evolve_args(genes, lengths, inst, params, random.Random(1)))
    compiled, loop = kernel_and_loop_generation(genes, lengths, inst, params, 3, monkeypatch)
    assert compiled == loop
    populations = []
    for kernel in (ga_module._KERNEL, None):
        monkeypatch.setattr(ga_module, "_KERNEL", kernel)
        rng = random.Random(4)
        populations.append((random_population(inst, params, rng), rng.getstate()))
    assert populations[0] == populations[1]


def failing_at_call(name, k):
    """An exact random.Random whose instance attribute `name` (random or
    getrandbits) raises at its k-th call; rng.calls counts the calls."""
    rng = random.Random(3)
    real = getattr(rng, name)
    rng.calls = 0

    def failing(*args):
        rng.calls += 1
        if rng.calls == k:
            raise LookupError(f"{name} failed at call {k}")
        return real(*args)

    setattr(rng, name, failing)
    return rng


def refuse_the_kernel(monkeypatch):
    """Make the kernel's evolve and random_tours fail the test if called:
    ga must take its loops where ga._kernel_may_run does not hold."""
    def refuse(*args):
        raise AssertionError("the kernel ran where ga._kernel_may_run does not hold")

    for name in ("evolve", "random_tours"):
        monkeypatch.setattr(ga_module._KERNEL, name, refuse)


@needs_kernel
@pytest.mark.parametrize("name", ["random", "getrandbits"])
@pytest.mark.parametrize("k", [1, 2, 3, 17, 90, 400])
def test_breed_raises_what_the_loop_raises_after_as_many_calls(name, k, monkeypatch):
    inst = random_instance(20, (1, 5), seed=8)
    params = GaParams(population_size=12, mutation_prob=0.5, crossover_prob=0.8)
    start = random_population(inst, params, random.Random(9))
    refuse_the_kernel(monkeypatch)
    outcomes = []
    for kernel in (ga_module._KERNEL, None):
        monkeypatch.setattr(ga_module, "_KERNEL", kernel)
        rng, population = failing_at_call(name, k), start
        with pytest.raises(LookupError, match=f"{name} failed at call {k}$"):
            for _ in range(200):
                population = evolve(*population, inst, rng, params, 1)[:2]
        outcomes.append((rng.calls, rng.getstate(), population))
    assert outcomes[0] == outcomes[1]


@needs_kernel
def test_breed_runs_only_for_an_exact_random(monkeypatch):
    class Subclass(random.Random):
        pass

    inst = random_instance(12, (1, 9), seed=2)
    params = GaParams(population_size=10, mutation_prob=0.5)
    genes, lengths = random_population(inst, params, random.Random(4))
    refuse_the_kernel(monkeypatch)
    compiled = evolve(genes, lengths, inst, Subclass(5), params, 3)
    monkeypatch.setattr(ga_module, "_KERNEL", None)
    assert compiled == evolve(genes, lengths, inst, Subclass(5), params, 3)


def kernel_and_loop_generation(genes, lengths, inst, params, seed, monkeypatch, generations=3,
                               patience=None, target=None):
    """ga.evolve from random.Random(seed), with the kernel and then without
    it: each run's genes, lengths with their types, bests and rng state."""
    outcomes = []
    for kernel in (ga_module._KERNEL, None):
        monkeypatch.setattr(ga_module, "_KERNEL", kernel)
        rng = random.Random(seed)
        genes_out, lengths_out, bests = evolve(genes, lengths, inst, rng, params, generations,
                                               patience, target)
        outcomes.append((genes_out, [(length, type(length)) for length in lengths_out], bests,
                         rng.getstate()))
    monkeypatch.undo()
    return outcomes


def huge_instance():
    """9 cities whose weights lie near 2**61, so that every tour needs more than 64 bits."""
    n, top = 9, 2**61
    return Instance("huge", n, np.random.default_rng(1).integers(top - 2**40, top, (n, n),
                                                                 endpoint=True))


@needs_kernel
def test_breed_sums_lengths_beyond_64_bits_exactly(monkeypatch):
    # no tour here fits 64 bits, so ga keeps every call from the kernel and
    # its loops sum each length exactly
    inst = huge_instance()
    assert inst.max_tour_length > MAX_LENGTH
    params = GaParams(population_size=10, mutation_prob=0.5, crossover_prob=0.8)
    refuse_the_kernel(monkeypatch)
    genes, lengths = random_population(inst, params, random.Random(2))
    assert all(type(length) is int and length > 2**64 for length in lengths)
    assert lengths == [tour_length(tour, inst) for tour in genes]
    compiled, loop = kernel_and_loop_generation(genes, lengths, inst, params, 3, monkeypatch)
    assert compiled == loop
    genes, lengths, _, _ = compiled
    assert all(kind is int for _, kind in lengths)
    assert min(length for length, _ in lengths) > 2**64
    assert [length for length, _ in lengths] == [tour_length(tour, inst) for tour in genes]


@needs_kernel
def test_evolve_reads_member_lengths_up_to_64_bits(monkeypatch):
    # lengths are read as given, not recomputed: 2**64 - 1 is the widest the kernel takes
    inst, genes, lengths, params = declined_case("none")
    widest = [2**64 - 1, *lengths[1:]]
    compiled, loop = kernel_and_loop_generation(genes, widest, inst, params, 5, monkeypatch)
    assert compiled == loop
    assert not declines(evolve_args(genes, widest, inst, params, random.Random(1)))
    kept = ga_module._KERNEL.evolve(*evolve_args(genes, widest, inst, params, random.Random(1), 0))
    assert kept == (genes, widest, []) and type(kept[1][0]) is int
    assert declines(evolve_args(genes, [2**64, *lengths[1:]], inst, params, random.Random(1)))


def overflowing_instance():
    """9 cities, about 2 in 5 of whose edges weigh 2**64 // 5 + 1, so that a
    tour with 5 of them passes 2**64 - 1 and one with 4 does not."""
    n = 9
    heavy = np.random.default_rng(0).random((n, n)) < 0.4
    light = np.random.default_rng(0).integers(1, 9, (n, n))
    return Instance("overflowing", n, np.where(heavy, 2**64 // 5 + 1, light))


# (params, seed): random_population(overflowing_instance(), params,
# random.Random(seed)) stays below 2**64, and generation 5 of the loop from
# there makes the first child past it, by crossover or by mutation
OVERFLOWING = {"crossover": (GaParams(population_size=4, mutation_prob=0.0, crossover_prob=1.0), 7),
               "mutation": (GaParams(population_size=4, mutation_prob=1.0, crossover_prob=0.0), 65)}


@needs_kernel
@pytest.mark.parametrize("case", sorted(OVERFLOWING))
def test_evolve_declines_at_the_first_generation_past_64_bits(case, monkeypatch):
    # the bound is the instance's, not the population's: ga declines the
    # kernel from the first population on, before any length passes 2**64
    inst, (params, seed) = overflowing_instance(), OVERFLOWING[case]
    assert inst.max_tour_length > MAX_LENGTH
    refuse_the_kernel(monkeypatch)
    runs = []
    for kernel in (ga_module._KERNEL, None):
        monkeypatch.setattr(ga_module, "_KERNEL", kernel)
        rng = random.Random(seed)
        population = random_population(inst, params, rng)
        generations = [population]
        for _ in range(5):
            population = evolve(*population, inst, rng, params, 1)[:2]
            generations.append(population)
        runs.append((generations, rng.getstate()))
    assert runs[0] == runs[1]
    widest = [max(lengths) for _, lengths in runs[0][0]]
    assert max(widest[:5]) < 2**64 <= widest[5]


def recording_bits(rng):
    """rng with an instance-level getrandbits that appends the bits of each
    call to rng.bits; an exact random.Random still, but ga's loops serve it."""
    real, rng.bits = rng.getrandbits, []

    def getrandbits(k):
        rng.bits.append(k)
        return real(k)

    rng.getrandbits = getrandbits
    return rng


@needs_kernel
@pytest.mark.parametrize("n", [63, 64, 65, 127, 128, 129, 171])
def test_breed_picks_dead_ends_across_bitmap_words_as_the_loop_does(n, monkeypatch):
    # a dead end takes the k-th open city from a bitmap of 64-city words; the
    # recording rng proves the loop meets dead ends, and the kernel, run from a
    # plain rng of the same seed, must match the loop's genes, lengths and state
    inst = weighted(n)
    params = GaParams(population_size=16, crossover_prob=1.0, mutation_prob=0.5)
    start = random_population(inst, params, random.Random(n))
    kernel_evolve = ga_module._KERNEL.evolve
    refuse_the_kernel(monkeypatch)
    looped = recording_bits(random.Random(n + 1))
    genes, lengths, bests = evolve(*start, inst, looped, params, 3)
    plain = random.Random(n + 1)
    compiled = kernel_evolve(*evolve_args(*start, inst, params, plain, 3))
    assert compiled[0] == genes and compiled[2] == bests
    assert [(length, type(length)) for length in compiled[1]] == \
        [(length, type(length)) for length in lengths]
    assert plain.getstate() == looped.getstate()
    # a mutation draws n.bit_length() and (n - 1).bit_length() bits; fewer
    # come only from dead ends, drawn below the open count
    assert sum(bits < (n - 1).bit_length() for bits in looped.bits) > 10


@needs_kernel
def test_breed_takes_more_than_256_cities(monkeypatch):
    n = 257
    inst = Instance("wide", n, np.random.default_rng(n).integers(1, 10, (n, n)))
    params = GaParams(population_size=10, mutation_prob=0.5, crossover_prob=0.8)
    genes, lengths = random_population(inst, params, random.Random(n))
    assert not declines(evolve_args(genes, lengths, inst, params, random.Random(1)))
    compiled, loop = kernel_and_loop_generation(genes, lengths, inst, params, 4, monkeypatch)
    assert compiled == loop


@needs_kernel
def test_breed_raises_what_a_draw_past_the_last_rank_raises(monkeypatch):
    inst = random_instance(12, (1, 9), seed=2)
    params = GaParams(population_size=10)
    genes, lengths = random_population(inst, params, random.Random(4))
    refuse_the_kernel(monkeypatch)
    outcomes = []
    for kernel in (ga_module._KERNEL, None):
        monkeypatch.setattr(ga_module, "_KERNEL", kernel)
        # an exact random.Random whose first random() is 1.0, a value no rank
        # draw can take: it passes the last cumulative probability. random()
        # itself never returns 1.0, so the kernel, which declines this rng,
        # has no such branch
        rng = random.Random(5)
        real, firsts = rng.random, [1.0]
        rng.random = lambda: firsts.pop() if firsts else real()
        with pytest.raises(IndexError, match="list index out of range"):
            evolve(genes, lengths, inst, rng, params, 2)
        outcomes.append(rng.getstate())
    assert outcomes[0] == outcomes[1]
    monkeypatch.undo()
    # the kernel runs as before for a plain rng
    assert len(evolve(genes, lengths, inst, random.Random(1), params, 2)[0]) == 10


@needs_kernel
@pytest.mark.parametrize("threshold", [0.8, 1.0])
@pytest.mark.parametrize("classes", [1, 2, 50])
def test_evolve_on_converged_populations_matches_the_loop(classes, threshold, monkeypatch):
    # sga-n64's shape from a population of one, two or 50 distinct tours: from
    # a generation's first rejected try the kernel puts members in duplicate
    # classes, and a pair of one class must fare as the loop's similarity of
    # 1.0 does, rejected at 0.8 and accepted at 1.0
    inst = weighted(64)
    params = GaParams(population_size=50, similarity_threshold=threshold,
                      max_parent_retries=32)
    rng = random.Random(3)
    tours = [tuple(random_tour(64, rng)) for _ in range(classes)]
    genes = [tours[i % classes] for i in range(50)]
    lengths = [tour_length(tour, inst) for tour in genes]
    tries, real = [], ga_module.similarity
    monkeypatch.setattr(ga_module, "similarity", lambda a, b: tries.append(real(a, b)) or tries[-1])
    compiled, looped = kernel_and_loop_generation(genes, lengths, inst, params, 33, monkeypatch,
                                                  100)
    assert compiled == looped
    picks = 49 * 100
    if threshold == 1.0:
        assert len(tries) == picks  # every pick's first try is taken
    elif classes == 1:
        assert tries[:49 * 32] == [1.0] * (49 * 32)  # the first generation waives every pick
    assert classes == 50 or 1.0 in tries[:picks]
    assert not declines(evolve_args(genes, lengths, inst, params, random.Random(1), 100))


def twisted(index, gauss_next=0.25):
    """A random.Random set by setstate to the words of random.Random(index)
    at word index `index`, with gauss_next a float."""
    rng = random.Random()
    words = random.Random(index).getstate()[1][:624]
    rng.setstate((3, (*words, index), gauss_next))
    return rng


@needs_kernel
@pytest.mark.parametrize("index", [0, 1, 623, 624])
def test_kernel_draws_cross_the_twist_as_the_rng_does(index, monkeypatch):
    # word index 623 or 624 twists at the first or second word drawn; every
    # run below draws more than 624 words, so each crosses a twist
    inst = weighted(40)
    params = GaParams(population_size=20, mutation_prob=0.3, crossover_prob=0.9)
    start = random_population(inst, params, random.Random(7))
    outcomes = []
    for kernel in (ga_module._KERNEL, None):
        monkeypatch.setattr(ga_module, "_KERNEL", kernel)
        rng = twisted(index)
        made = random_population(inst, params, rng)
        made_state = rng.getstate()
        rng = twisted(index)
        evolved = evolve(*start, inst, rng, params, 4)
        outcomes.append((made, made_state, evolved, rng.getstate()))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][1][2] == outcomes[0][3][2] == 0.25  # gauss_next untouched
    monkeypatch.undo()
    assert not declines(evolve_args(*start, inst, params, random.Random(1)))


def stop_target(case, inst, params, seed):
    """target_length for case, from the loop's run without a target."""
    first = min(random_population(inst, params, random.Random(seed))[1])
    trajectory = run_sga(inst, params, 60, seed=seed).trajectory
    falls = [(a, b) for a, b in zip(trajectory, trajectory[1:]) if b < a]
    return {"none": None, "below_every_length": -1, "above_the_first_best": first + 0.5,
            "float_between_lengths": (falls[-1][0] + falls[-1][1]) / 2,
            "int": falls[len(falls) // 2][1]}[case]


@needs_kernel
@pytest.mark.parametrize("patience", [None, -1, 0, 1, 3, 20])
@pytest.mark.parametrize("target", ["none", "below_every_length", "above_the_first_best",
                                    "float_between_lengths", "int"])
def test_run_sga_stops_where_the_loop_stops(patience, target, monkeypatch):
    inst = random_instance(24, (1, 60), seed=11)
    params = GaParams(population_size=14, mutation_prob=0.1)
    start = random_population(inst, params, random.Random(12))
    with monkeypatch.context() as loop:
        loop.setattr(ga_module, "_KERNEL", None)
        goal = stop_target(target, inst, params, seed=12)
    if patience == -1:
        # run_sga never gets a negative patience, but ga.evolve takes any int
        with pytest.raises(ValueError, match="^patience must be >= 0 or None$"):
            TerminationPolicy(goal, patience)
        compiled, looped = kernel_and_loop_generation(*start, inst, params, 12, monkeypatch, 60,
                                                      patience, goal)
        assert compiled == looped
        bests = compiled[2]
        stopped = (len(bests), stop_reason([min(start[1]), *bests], len(bests), 60, patience, goal))
    else:
        with monkeypatch.context() as loop:
            loop.setattr(ga_module, "_KERNEL", None)
            looped = run_sga(inst, params, 60, TerminationPolicy(goal, patience), seed=12)
        compiled = run_sga(inst, params, 60, TerminationPolicy(goal, patience), seed=12)
        fields = ("best_length", "best_tour", "trajectory", "generations", "stop_reason")
        assert [getattr(compiled, f) for f in fields] == [getattr(looped, f) for f in fields]
        stopped = (compiled.generations, compiled.stop_reason)
    if target == "above_the_first_best":
        assert stopped[0] == 1
        assert stopped[1] == ("stagnation" if patience in (-1, 1) else "target")
    if patience in (-1, 1):  # a tail of one entry, history[-1:] or history[1:], fires at once
        assert stopped == (1, "stagnation")
    # the kernel took the run
    assert not declines(evolve_args(*start, inst, params, random.Random(1), 60, patience, goal))


# -- random_tours: the initial population in one kernel call -------------------------

def weighted(n, dtype=np.int64):
    return Instance("tours", n, np.random.default_rng(n).integers(0, 10**6, (n, n)).astype(dtype))


@needs_kernel
@pytest.mark.parametrize("n", [2, 3, 17, 64, 171, 300])
def test_random_tours_equal_random_tour_and_tour_length(n):
    inst = weighted(n)
    for seed in range(200):
        kernel_rng, loop_rng = random.Random(seed), random.Random(seed)
        tours, lengths = ga_module._KERNEL.random_tours(7, inst.distances, kernel_rng)
        loop = [random_tour(n, loop_rng) for _ in range(7)]
        assert tours == [tuple(genes) for genes in loop]
        assert lengths == [tour_length(genes, inst) for genes in loop]
        assert kernel_rng.getstate() == loop_rng.getstate()


@needs_kernel
@pytest.mark.parametrize("case", ["subclass", "float64"])
def test_random_population_runs_the_loop_where_the_kernel_cannot(case, monkeypatch):
    class Subclass(random.Random):
        pass

    inst = weighted(12, np.float64 if case == "float64" else np.int64)
    make_rng = Subclass if case == "subclass" else random.Random
    params = GaParams(population_size=9)

    def refuse(*args):
        raise AssertionError("random_tours drew from a random.Random subclass")

    if case == "subclass":
        monkeypatch.setattr(ga_module._KERNEL, "random_tours", refuse)
    else:  # the kernel reads a PoisonRng's state only by raising
        assert ga_module._KERNEL.random_tours(9, inst.distances, PoisonRng()) is None
    outcomes = []
    for kernel in (ga_module._KERNEL, None):
        monkeypatch.setattr(ga_module, "_KERNEL", kernel)
        rng = make_rng(5)
        genes, lengths = random_population(inst, params, rng)
        outcomes.append((genes, [(length, type(length)) for length in lengths], rng.getstate()))
    assert outcomes[0] == outcomes[1]
    assert type(outcomes[0][1][0][0]) is (float if case == "float64" else int)


@needs_kernel
@pytest.mark.parametrize("k", [1, 2, 40, 300])
def test_random_population_raises_what_getrandbits_raises(k, monkeypatch):
    inst, params = weighted(20), GaParams(population_size=30)
    refuse_the_kernel(monkeypatch)
    outcomes = []
    for kernel in (ga_module._KERNEL, None):
        monkeypatch.setattr(ga_module, "_KERNEL", kernel)
        rng = failing_at_call("getrandbits", k)
        with pytest.raises(LookupError, match=f"getrandbits failed at call {k}$"):
            random_population(inst, params, rng)
        outcomes.append((rng.calls, rng.getstate()))
    assert outcomes[0] == outcomes[1]
    monkeypatch.undo()
    # the kernel runs as before for a plain rng
    assert len(random_population(inst, params, random.Random(1))[0]) == 30


def test_random_population_of_one_city_raises_as_random_tour_does():
    # Instance itself rejects one city, so this stands in for one
    one = SimpleNamespace(dimension=1, distances=np.zeros((1, 1), np.int64), rows=[[0]],
                          max_tour_length=0)
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(ValueError, match="need at least 2 cities, got 1"):
        random_population(one, GaParams(), rng)
    assert rng.getstate() == state


# -- refcounts: the kernel leaves its inputs as it found them -----------------------

def outcome_of(fn, *args):
    """"made", "none" or "raised": what fn(*args) did, its result dropped."""
    try:
        return "none" if fn(*args) is None else "made"
    except TypeError:
        return "raised"


def refcounts(*objects):
    """sys.getrefcount of each object, then of each item of the first two."""
    return [sys.getrefcount(obj) for obj in objects] + \
        [sys.getrefcount(item) for items in objects[:2] for item in items]


@needs_kernel
def test_breed_leaves_refcounts_unchanged():
    # a crossover_prob of 0.5 makes copies; lengths of 2**64 and more are declined
    inst = random_instance(20, (1, 5), seed=8)
    params = GaParams(population_size=12, mutation_prob=0.5, crossover_prob=0.5)
    genes, lengths = random_population(inst, params, random.Random(9))
    declined = genes[:5] + [list(genes[5])] + genes[6:]
    wide = [2**100 + length for length in lengths]
    cases = [("made", genes, lengths, inst.distances, random.Random(1)),
             ("none", genes, wide, inst.distances, random.Random(1)),
             ("none", declined, lengths, inst.distances, random.Random(1)),
             ("none", genes, lengths[:-1] + [2**128], inst.distances, random.Random(1)),
             ("none", genes, lengths, inst.distances.astype(np.float64), random.Random(1)),
             ("raised", genes, lengths, inst.distances, object())]
    for expected, tours, sizes, distances, rng in cases:
        args = evolve_args(tours, sizes, SimpleNamespace(distances=distances), params, rng, 4)
        before = refcounts(tours, sizes, distances, rng)
        assert outcome_of(ga_module._KERNEL.evolve, *args) == expected
        assert refcounts(tours, sizes, distances, rng) == before, expected


@needs_kernel
def test_random_tours_leave_refcounts_unchanged():
    distances = weighted(20).distances
    cases = [("made", distances, random.Random(1)),
             ("none", distances.astype(np.float64), random.Random(1)),
             ("none", distances.astype(np.int32), random.Random(1)),
             ("raised", distances, object())]
    for expected, weights, rng in cases:
        before = [sys.getrefcount(weights), sys.getrefcount(rng)]
        assert outcome_of(ga_module._KERNEL.random_tours, 12, weights, rng) == expected
        assert [sys.getrefcount(weights), sys.getrefcount(rng)] == before, expected
