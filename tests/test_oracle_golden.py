"""Golden pins and properties for the exact solvers.

`held_karp` supplies the optima that tests, benchmarks and the registry
compare against, and ties between equally short tours are common on small
integer weights. These pins hash the full `(optimum_length, optimum_tour)`
of seeded tie-heavy instances (weights 1..3, and all-equal weights) and of
br17, so a change to the DP's tie-break or summation shows here, not only a
change to the optimum. The hashes were recorded on the per-state DP loop,
before the DP took one vectorized step per popcount layer.
"""

import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mrtsp.ga import tour_length
from mrtsp.oracle import brute_force, held_karp
from mrtsp.tsplib import Instance, random_instance

TIE_HEAVY_GOLDEN = "5dbe2ee173d23ada91b9b1b7c261895f5d6d60b50cd86850ff2dd20a3ff92a51"
BR17_GOLDEN = "0a33ae107c74397e5b3878f49dfa431231cbd91c746f51c7330640864d2172f5"


def tie_heavy(max_n: int) -> list[Instance]:
    """Three seeded instances with weights 1..3 and one with all weights 1, per N."""
    return [random_instance(n, weights, seed)
            for n in range(2, max_n + 1)
            for weights, seed in (((1, 3), 0), ((1, 3), 1), ((1, 3), 2), ((1, 1), 0))]


def digest(results) -> str:
    h = hashlib.sha256()
    for result in results:
        h.update(repr((result.optimum_length, result.optimum_tour)).encode())
    return h.hexdigest()


def reference_brute_force(instance: Instance) -> tuple:
    """The whole-array enumeration brute_force used before it went block by block."""
    n = instance.dimension
    d = np.asarray(instance.distances, dtype=np.float64)
    perms = np.array(list(itertools.permutations(range(1, n))), dtype=np.int64)
    cost = d[0, perms[:, 0]].copy()
    for k in range(perms.shape[1] - 1):
        cost += d[perms[:, k], perms[:, k + 1]]
    cost += d[perms[:, -1], 0] if n > 2 else d[perms[:, 0], 0]
    best = int(np.argmin(cost))
    return float(cost[best]), (0, *map(int, perms[best]))


def test_held_karp_tie_heavy_pinned():
    assert digest(held_karp(inst) for inst in tie_heavy(12)) == TIE_HEAVY_GOLDEN


def test_held_karp_br17_pinned(br17_exact):
    assert digest([br17_exact]) == BR17_GOLDEN


@pytest.mark.parametrize("inst", tie_heavy(10),
                         ids=lambda inst: f"{inst.name}w{inst.distances.max()}")
def test_brute_force_matches_the_whole_array_enumeration(inst):
    result = brute_force(inst)
    assert (result.optimum_length, result.optimum_tour) == reference_brute_force(inst)


@st.composite
def tie_heavy_instances(draw, max_n=8):
    n = draw(st.integers(2, max_n))
    values = draw(st.lists(st.integers(1, 3), min_size=n * n, max_size=n * n))
    matrix = np.array(values, dtype=np.int64).reshape(n, n)
    np.fill_diagonal(matrix, 0)
    return Instance("ties", n, matrix)


@settings(max_examples=80, deadline=None)
@given(tie_heavy_instances())
def test_held_karp_length_equals_brute_force(inst):
    hk = held_karp(inst)
    assert hk.optimum_length == brute_force(inst).optimum_length
    assert sorted(hk.optimum_tour) == list(range(inst.dimension))
    assert tour_length(hk.optimum_tour, inst) == hk.optimum_length
