"""Property tests for the GA operators on random instances and tours."""

import math
import operator
import random
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mrtsp import ga
from mrtsp.ga import (GaParams, Ranking, canonical, greedy_crossover, mutate, random_tour,
                      similarity, successors, tour_length)
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
    child, length = greedy_crossover(a[0], successors(a), successors(b), inst,
                                     random.Random(seed))
    assert sorted(child) == list(range(inst.dimension))
    assert child[0] == a[0]
    assert length == tour_length(child, inst)


@FEW_EXAMPLES
@given(instance_and_tours(1))
def test_successors_match_genes(case):
    inst, (genes,) = case
    succ = successors(genes)
    n = len(genes)
    assert [succ[genes[i]] for i in range(n)] == [genes[(i + 1) % n] for i in range(n)]


@FEW_EXAMPLES
@given(st.permutations(range(12)), st.floats(0.0, 1.0), st.integers(0, 2**32))
def test_mutate_returns_a_permutation(genes, prob, seed):
    genes = tuple(genes)
    out = mutate(genes, random.Random(seed), prob)
    assert sorted(out) == list(range(12))
    assert out is genes or sum(x != y for x, y in zip(out, genes)) == 2


@FEW_EXAMPLES
@given(st.integers(2, 300).flatmap(
    lambda n: st.tuples(st.permutations(range(n)), st.permutations(range(n)))))
def test_similarity_keys_match_position_counting(tours):
    a, b = (tuple(t) for t in tours)
    ca, cb = canonical(a), canonical(b)
    assert ca[0] == cb[0] == 0
    assert ca in [a[i:] + a[:i] for i in range(len(a))]
    assert similarity(ca, cb) == sum(map(operator.eq, ca, cb)) / len(ca)
    assert similarity(ca, ca) == 1.0


@st.composite
def generation_cases(draw):
    """An int instance of 2 to 300 cities with weights 0 to 3, a population of
    2 to 200 members copied from 1 to 4 distinct tours, so that equal tours,
    tied lengths and waived thresholds all occur and the kernel's low guide
    buckets span many ranks, and GaParams for it."""
    n = draw(st.integers(2, 300))
    size = draw(st.integers(2, 200))
    seed = draw(st.integers(0, 2**32))
    matrix = np.random.default_rng(seed).integers(0, draw(st.integers(0, 3)) + 1, (n, n))
    inst = Instance("generation", n, matrix)
    rnd = random.Random(seed)
    tours = [tuple(random_tour(n, rnd)) for _ in range(draw(st.integers(1, 4)))]
    genes = [rnd.choice(tours) for _ in range(size)]
    lengths = [tour_length(tour, inst) for tour in genes]
    params = GaParams(population_size=size, elite_count=draw(st.integers(1, size - 1)),
                      crossover_prob=draw(st.sampled_from([0.0, 0.5, 1.0])),
                      mutation_prob=draw(st.sampled_from([0.0, 0.5, 1.0])),
                      similarity_threshold=draw(st.sampled_from([0.0, 0.8, 1.0])),
                      max_parent_retries=draw(st.integers(1, 4)))
    return inst, genes, lengths, params


def on_rank_grid(rng, size):
    """rng, its random() now returning k / total, total being the rank weights'
    sum for a population of `size`: a Ranking's cumulative probabilities are
    such values, so draws land exactly on them, where bisect_right's tie rule
    decides the rank. rng stays an exact random.Random, but its instance
    override sends ga to its Python loops."""
    total, real = size * (size + 1) // 2, rng.random
    rng.random = lambda: int(real() * total) / total
    return rng


def untemper(y):
    """The Mersenne Twister state word that CPython's tempering turns into y."""
    y ^= y >> 18
    y ^= (y << 15) & 0xEFC60000
    t = y
    for _ in range(5):
        t = y ^ ((t << 7) & 0x9D2C5680)
    t &= 0xFFFFFFFF
    y = t
    for _ in range(3):
        t = y ^ (t >> 11)
    return t


def first_random(rng, x):
    """rng, set to its own words at index 0 but for the first two, which are
    untempered so that its first random() is exactly x, for x in [0.5, 1):
    random() joins the top 27 and 26 bits of two words into x * 2**53, and
    drops the low 5 and 6 bits, which keep the rng's own."""
    m = int(x * 2**53)
    assert m == x * 2**53 and 2**52 <= m < 2**53
    words = list(rng.getstate()[1][:624])
    words[0] = untemper((m >> 26) << 5 | words[0] & 31)
    words[1] = untemper((m & (2**26 - 1)) << 6 | words[1] & 63)
    rng.setstate((3, (*words, 0), None))
    probe = random.Random()
    probe.setstate(rng.getstate())
    assert probe.random() == x
    return rng


class Refused:
    """A stand-in kernel that fails the test if ga calls it."""

    def __getattr__(self, name):
        raise AssertionError(f"ga called the kernel's {name}")


@pytest.mark.skipif(ga._KERNEL is None, reason="the kernel cannot be built here")
@settings(max_examples=200, deadline=None)
@given(generation_cases(), st.integers(0, 2**32), st.integers(1, 3),
       st.sampled_from(["plain", "first_on_a_cum", "first_below_a_cum",
                        "first_on_a_bucket_edge", "first_below_a_bucket_edge",
                        "on_rank_grid"]),
       st.integers(0, 200))
def test_breed_matches_the_python_loop(case, seed, generations, mode, pick):
    # first_on_a_cum: both rngs' first random() is a Ranking.cum value of at
    # least 0.5, so the kernel's walk from its guide table meets bisect_right's
    # tie rule; first_on_a_bucket_edge: the double nearest b / p, p members,
    # for some b >= p / 2, where x * p lands on a guide bucket's edge and the
    # walk's step back decides the rank; first_below_*: the double just below
    # either, 2**-53 less; on_rank_grid: every draw is on the grid, and ga
    # must take its loop
    inst, genes, lengths, params = case
    kernel_rng, loop_rng = random.Random(seed), random.Random(seed)
    kernel = ga._KERNEL
    step = 2**-53 if mode.startswith("first_below") else 0.0
    edges = (ga.Ranking(lengths).cum if mode.endswith("_cum")
             else [b / len(genes) for b in range(len(genes))])
    firsts = [edge - step for edge in edges if 0.5 + step <= edge < 1.0]
    if mode.startswith("first_") and firsts:
        kernel_rng, loop_rng = (first_random(rng, firsts[pick % len(firsts)])
                                for rng in (kernel_rng, loop_rng))
    if mode == "on_rank_grid":
        kernel_rng, loop_rng = (on_rank_grid(rng, len(genes)) for rng in (kernel_rng, loop_rng))
        ga._KERNEL = Refused()
    try:
        compiled = ga.evolve(genes, lengths, inst, kernel_rng, params, generations)
        ga._KERNEL = None
        loop = ga.evolve(genes, lengths, inst, loop_rng, params, generations)
    finally:
        ga._KERNEL = kernel
    assert compiled[0] == loop[0] and compiled[2] == loop[2]
    assert [(length, type(length)) for length in compiled[1]] == \
        [(length, type(length)) for length in loop[1]]
    assert kernel_rng.getstate() == loop_rng.getstate()
    # the kernel took the generations: it does not decline such a population
    assert kernel.evolve(genes, lengths, inst.distances, 0.0, 1, 0.0, 0.0, params.elite_count,
                         0, None, None, random.Random(0)) == (genes, lengths, [])


@pytest.mark.skipif(ga._KERNEL is None, reason="the kernel cannot be built here")
@pytest.mark.parametrize("size, b", [(109, 90), (123, 69), (170, 136), (185, 130)])
def test_a_draw_below_a_bucket_edge_steps_back_to_the_rank_of_bisect_right(size, b):
    # x, the double just below b / size, has x * size round up to b, and a
    # rank's cum equals b / size, so the kernel's guide bucket b starts one
    # rank past bisect_right's and only its step back finds the loop's rank;
    # for populations up to 200 and draws of at least 0.5, first_random's
    # range, these are the only such draws
    x = math.nextafter(b / size, 0.0)
    cum = ga.Ranking(range(size)).cum
    assert x * size == b and b / size in cum and bisect_right(cum, x) == cum.index(b / size)
    inst = Instance("edge", 9, np.random.default_rng(size).integers(1, 50, (9, 9)))
    genes, lengths = ga.random_population(inst, GaParams(population_size=size),
                                          random.Random(b))
    params = GaParams(population_size=size, crossover_prob=0.5)
    outcomes = []
    for kernel in (ga._KERNEL, None):
        saved, ga._KERNEL = ga._KERNEL, kernel
        try:
            rng = first_random(random.Random(size), x)
            outcomes.append((ga.evolve(genes, lengths, inst, rng, params, 1), rng.getstate()))
        finally:
            ga._KERNEL = saved
    assert outcomes[0] == outcomes[1]


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
    assert compiled[0] == loop[0]
    assert [(length, type(length)) for length in compiled[1]] == \
        [(length, type(length)) for length in loop[1]]
    assert kernel_rng.getstate() == loop_rng.getstate()
    # random_tours took the int instances: it declines only float weights
    taken = kernel.random_tours(0, inst.distances, random.Random(0))
    assert taken == (None if inst.distances.dtype.kind == "f" else ([], []))
