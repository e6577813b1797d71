"""Property tests for the GA operators on random instances and tours."""

import operator
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mrtsp import ga
from mrtsp.ga import (Chromosome, GaParams, Ranking, greedy_crossover, make_chromosome,
                      mutate, random_tour, select_parents, similarity, tour_length)
from mrtsp.tsplib import Instance

FEW_EXAMPLES = settings(max_examples=60, deadline=None)


@st.composite
def instances(draw, max_n=14):
    n = draw(st.integers(2, max_n))
    if draw(st.booleans()):
        weights = st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False)
        dtype = np.float64
    else:
        weights = st.integers(0, 10**6)
        dtype = np.int64
    values = draw(st.lists(weights, min_size=n * n, max_size=n * n))
    matrix = np.array(values, dtype=dtype).reshape(n, n)
    np.fill_diagonal(matrix, 0)
    return Instance("prop", n, matrix)


@st.composite
def instance_and_tours(draw, count):
    inst = draw(instances())
    tours = [draw(st.permutations(range(inst.dimension))) for _ in range(count)]
    return inst, tours


@FEW_EXAMPLES
@given(instance_and_tours(2), st.integers(0, 2**32))
def test_crossover_child_is_a_permutation_with_its_length(case, seed):
    inst, (a, b) = case
    pa, pb = make_chromosome(a, inst), make_chromosome(b, inst)
    child, length = greedy_crossover(pa, pb, inst, random.Random(seed))
    assert sorted(child) == list(range(inst.dimension))
    assert child[0] == pa.genes[0]
    assert length == tour_length(child, inst)


@FEW_EXAMPLES
@given(instance_and_tours(1))
def test_successors_match_genes(case):
    inst, (genes,) = case
    c = make_chromosome(genes, inst)
    succ = c.successors()
    n = len(genes)
    assert [succ[genes[i]] for i in range(n)] == [genes[(i + 1) % n] for i in range(n)]


@FEW_EXAMPLES
@given(st.permutations(range(12)), st.floats(0.0, 1.0), st.integers(0, 2**32))
def test_mutate_returns_a_permutation(genes, prob, seed):
    genes = tuple(genes)
    out = mutate(genes, random.Random(seed), prob)
    assert sorted(out) == list(range(12))
    assert out is genes or sum(x != y for x, y in zip(out, genes)) == 2


@st.composite
def crossover_cases(draw):
    """An int instance of 2 to 300 cities, many ties when the weights are few,
    tours longer than an int64 holds when they are near 2**62, and two
    parents; interleaving a with a stride forces many dead ends."""
    n = draw(st.integers(2, 300))
    top = draw(st.sampled_from([0, 1, 3, 10**6, 2**62]))
    matrix = np.random.default_rng(draw(st.integers(0, 2**32))).integers(0, top + 1, (n, n))
    np.fill_diagonal(matrix, 0)
    a = draw(st.permutations(range(n)))
    kind = draw(st.sampled_from(["random", "stride", "same"]))
    if kind == "random":
        b = draw(st.permutations(range(n)))
    elif kind == "stride":
        k = draw(st.integers(2, 5))
        b = [c for start in range(k) for c in a[start::k]]
    else:
        b = a
    return Instance("kernel", n, matrix), a, b


def bits_counting_rng(seed):
    """An exact random.Random, so the kernel draws from its getrandbits;
    this one records the function each call came from."""
    rng = random.Random(seed)
    rng.callers = []
    draw = rng.getrandbits

    def getrandbits(k):
        rng.callers.append(sys._getframe(1).f_code.co_name)
        return draw(k)

    rng.getrandbits = getrandbits
    return rng


class RandomOnlyRng(random.Random):
    """Overrides only random(), so randrange draws through random(), not
    getrandbits: greedy_crossover must run the Python loop."""

    def random(self):
        return super().random()


class ReversedRandrangeRng(random.Random):
    """Overrides randrange itself: greedy_crossover must run the Python loop."""

    def randrange(self, n):
        return n - 1 - super().randrange(n)


@pytest.mark.skipif(ga._KERNEL is None, reason="the crossover kernel cannot be built here")
@pytest.mark.parametrize("rng_class", [random.Random,
                                       pytest.param(bits_counting_rng, id="BitsCountingRng"),
                                       RandomOnlyRng, ReversedRandrangeRng])
@FEW_EXAMPLES
@given(crossover_cases(), st.integers(0, 2**32))
def test_kernel_matches_the_python_loop(rng_class, case, seed):
    inst, a, b = case
    pa, pb = make_chromosome(a, inst), make_chromosome(b, inst)
    assert ga._KERNEL.greedy_crossover(pa.genes, pb.genes, inst.distances,
                                       random.Random(0).getrandbits) is not None
    kernel_rng, loop_rng = rng_class(seed), rng_class(seed)
    compiled = greedy_crossover(pa, pb, inst, kernel_rng)
    kernel, ga._KERNEL = ga._KERNEL, None
    try:
        loop = greedy_crossover(pa, pb, inst, loop_rng)
    finally:
        ga._KERNEL = kernel
    assert compiled == loop
    assert kernel_rng.getstate() == loop_rng.getstate()
    if rng_class is bits_counting_rng:
        # the kernel calls getrandbits directly, the loop through randrange,
        # and both make the same number of calls
        assert set(kernel_rng.callers) <= {"greedy_crossover"}
        assert set(loop_rng.callers) <= {"_randbelow_with_getrandbits"}
        assert len(kernel_rng.callers) == len(loop_rng.callers)


@FEW_EXAMPLES
@given(st.integers(2, 300).flatmap(
    lambda n: st.tuples(st.permutations(range(n)), st.permutations(range(n)))))
def test_similarity_keys_match_position_counting(tours):
    a, b = (ga.Chromosome(tuple(t), 0) for t in tours)
    ca, cb = a.canonical(), b.canonical()
    assert similarity(a, b) == sum(map(operator.eq, ca, cb)) / len(ca)
    assert similarity(a, a) == 1.0


class RankGridRng(random.Random):
    """random() returns k / total, total being the rank weights' sum for a
    population of `size`: a Ranking's cumulative probabilities are such
    values, so draws land exactly on them, where bisect_right's tie rule
    decides the rank."""

    def __init__(self, seed, size):
        self.total = size * (size + 1) // 2
        super().__init__(seed)

    def random(self):
        return int(super().random() * self.total) / self.total


SELECTION_RNGS = {
    "Random": lambda seed, size: random.Random(seed),
    "RandomOnlyRng": lambda seed, size: RandomOnlyRng(seed),
    "ReversedRandrangeRng": lambda seed, size: ReversedRandrangeRng(seed),
    "RankGridRng": RankGridRng,
}


@st.composite
def selection_cases(draw):
    """A Ranking of 2 to 60 members with tours of 2 to 256 cities, and the
    GaParams to select from it. The tours are copies of a few variants of one
    tour, so duplicates and every degree of similarity occur; lengths come
    from a few values, so ties do too. The threshold is often exactly some
    k / n, a similarity that pairs can have."""
    n = draw(st.integers(2, 256))
    size = draw(st.integers(2, 60))
    rnd = random.Random(draw(st.integers(0, 2**32)))
    base = random_tour(n, rnd)
    variants = []
    for _ in range(draw(st.integers(1, size))):
        tour = base[:]
        for _ in range(rnd.randrange(n)):
            i, j = rnd.randrange(n), rnd.randrange(n)
            tour[i], tour[j] = tour[j], tour[i]
        variants.append(tuple(tour))
    lengths = draw(st.sampled_from([[5], [1, 2, 3], list(range(100))]))
    members = [Chromosome(rnd.choice(variants), rnd.choice(lengths)) for _ in range(size)]
    threshold = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0),
                               st.integers(0, n).map(lambda k: k / n)))
    params = GaParams(population_size=size, similarity_threshold=threshold,
                      max_parent_retries=draw(st.integers(1, 40)))
    return Ranking(members), params


@pytest.mark.skipif(ga._KERNEL is None, reason="the kernel cannot be built here")
@pytest.mark.parametrize("make_rng", SELECTION_RNGS.values(), ids=SELECTION_RNGS.keys())
@FEW_EXAMPLES
@given(selection_cases(), st.integers(0, 2**32))
def test_select_pair_matches_the_python_loop(make_rng, case, seed):
    ranking, params = case
    size = len(ranking.members)
    kernel_rng, loop_rng = make_rng(seed, size), make_rng(seed, size)
    compiled = select_parents(ranking, kernel_rng, params)
    assert ranking.rows is not None  # the kernel did not decline
    kernel, ga._KERNEL = ga._KERNEL, None
    try:
        loop = select_parents(ranking, loop_rng, params)
    finally:
        ga._KERNEL = kernel
    assert compiled[0] is loop[0] and compiled[1] is loop[1]
    assert kernel_rng.getstate() == loop_rng.getstate()


@st.composite
def generation_cases(draw):
    """An int instance of 2 to 256 cities with weights 0 to 3, a population of
    2 to 60 members copied from 1 to 4 distinct tours, so that equal tours,
    tied lengths and waived thresholds all occur, and GaParams for it."""
    n = draw(st.integers(2, 256))
    size = draw(st.integers(2, 60))
    seed = draw(st.integers(0, 2**32))
    matrix = np.random.default_rng(seed).integers(0, draw(st.integers(0, 3)) + 1, (n, n))
    inst = Instance("generation", n, matrix)
    rnd = random.Random(seed)
    tours = [tuple(random_tour(n, rnd)) for _ in range(draw(st.integers(1, 4)))]
    members = [make_chromosome(rnd.choice(tours), inst) for _ in range(size)]
    params = GaParams(population_size=size, elite_count=draw(st.integers(1, size - 1)),
                      crossover_prob=draw(st.sampled_from([0.0, 0.5, 1.0])),
                      mutation_prob=draw(st.sampled_from([0.0, 0.5, 1.0])),
                      similarity_threshold=draw(st.sampled_from([0.0, 0.8, 1.0])),
                      max_parent_retries=draw(st.integers(1, 4)))
    return inst, members, params


@pytest.mark.skipif(ga._KERNEL is None, reason="the kernel cannot be built here")
@settings(max_examples=200, deadline=None)
@given(generation_cases(), st.integers(0, 2**32))
def test_breed_matches_the_python_loop(case, seed):
    inst, members, params = case
    kernel_rng, loop_rng = random.Random(seed), random.Random(seed)
    compiled = ga.next_generation(members, inst, kernel_rng, params)
    kernel, ga._KERNEL = ga._KERNEL, None
    try:
        loop = ga.next_generation(members, inst, loop_rng, params)
    finally:
        ga._KERNEL = kernel
    assert [m.genes for m in compiled] == [m.genes for m in loop]
    assert [(m.length, type(m.length)) for m in compiled] == \
        [(m.length, type(m.length)) for m in loop]
    assert kernel_rng.getstate() == loop_rng.getstate()
    # breed took the generation: it does not decline such a population
    ranking = Ranking(members)
    assert kernel.breed([m.genes for m in members], [m.length for m in members], ranking.order,
                        ranking.cum, inst.distances, 0.0, 1, 0.0, 0.0, 0, None, None) == ([], [])


@pytest.mark.skipif(ga._KERNEL is None, reason="the kernel cannot be built here")
@FEW_EXAMPLES
@given(instances(max_n=40), st.integers(2, 30), st.integers(0, 2**32))
def test_random_population_matches_the_python_loop(inst, size, seed):
    params = GaParams(population_size=size)
    kernel_rng, loop_rng = random.Random(seed), random.Random(seed)
    compiled = ga.random_population(inst, params, kernel_rng)
    kernel, ga._KERNEL = ga._KERNEL, None
    try:
        loop = ga.random_population(inst, params, loop_rng)
    finally:
        ga._KERNEL = kernel
    assert [(m.genes, m.length, type(m.length)) for m in compiled] == \
        [(m.genes, m.length, type(m.length)) for m in loop]
    assert kernel_rng.getstate() == loop_rng.getstate()
    # random_tours took the int instances: it declines only float weights
    taken = kernel.random_tours(0, inst.distances, None)
    assert taken == (None if inst.distances.dtype.kind == "f" else ([], []))
