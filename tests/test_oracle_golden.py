"""Golden pins and properties for the exact solvers.

`held_karp` supplies the optima that tests, benchmarks and the registry
compare against, and ties between equally short tours are common on small
integer weights. These pins hash the full `(optimum_length, optimum_tour)`
of seeded tie-heavy instances (weights 1..3, and all-equal weights) and of
br17, so a change to the DP's tie-break or summation shows here, not only a
change to the optimum. The hashes were recorded on the per-state DP loop,
before the DP took one vectorized step per popcount layer. The kernel's DP
is compared with the numpy DP on tie-heavy, signed-zero and overflowing
weights, and checked to decline every matrix it cannot read; when every
tour overflows, both raise the same NonFiniteOptimumError.
"""

import hashlib
import itertools
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mrtsp import ga
from mrtsp.ga import tour_length
from mrtsp.oracle import ExactResult, NonFiniteOptimumError, brute_force, held_karp
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


def test_held_karp_br17_pinned(br17):
    assert digest([held_karp(br17)]) == BR17_GOLDEN


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


# -- the kernel's held_karp against the numpy DP ----------------------------------------

needs_kernel = pytest.mark.skipif(ga._KERNEL is None, reason="the kernel cannot be built here")

# per family, the weights a matrix draws its entries from; overflowing sums
# become +inf, and rows whose candidates are all +inf take city 0 as parent
WEIGHT_FAMILIES = {
    "tie-heavy ints": st.integers(0, 2),
    "half steps": st.integers(0, 8).map(lambda k: k / 2),
    "signed zeros": st.sampled_from([0.0, -0.0, 1.0]),
    "near 1e308": st.sampled_from([1.0, 8e307, 1e308, 1.7e308]),
}


@st.composite
def oracle_instances(draw, max_n=12):
    """An instance of 2 to max_n cities with weights of one family, or all equal."""
    n = draw(st.integers(2, max_n))
    family = draw(st.sampled_from(sorted(WEIGHT_FAMILIES) + ["all equal"]))
    if family == "all equal":
        values = [draw(st.one_of(st.integers(0, 5), st.sampled_from([2.5, 1e308])))] * (n * n)
    else:
        values = draw(st.lists(WEIGHT_FAMILIES[family], min_size=n * n, max_size=n * n))
    dtype = np.int64 if all(type(v) is int for v in values) else np.float64
    return Instance(family, n, np.array(values, dtype=dtype).reshape(n, n))


def held_karp_outcome(inst):
    """held_karp's result, or the type and message of the NonFiniteOptimumError it raises."""
    try:
        with np.errstate(over="ignore"):  # sums near 1e308 overflow to inf, as intended
            return held_karp(inst)
    except NonFiniteOptimumError as exc:
        return type(exc), str(exc)


def solved_both_ways(inst):
    """held_karp's outcome with the kernel loaded and with the numpy DP."""
    kernel = ga._KERNEL
    try:
        ga._KERNEL = None
        looped = held_karp_outcome(inst)
    finally:
        ga._KERNEL = kernel
    return held_karp_outcome(inst), looped


def assert_identical(inst, compiled, looped):
    # repr tells an int from an equal float, and names the same error
    assert repr(compiled) == repr(looped)
    if isinstance(looped, ExactResult):
        assert type(compiled.optimum_length) is type(looped.optimum_length)
        assert sorted(looped.optimum_tour) == list(range(inst.dimension))


@needs_kernel
@settings(max_examples=300, deadline=None)
@given(oracle_instances())
def test_kernel_held_karp_matches_the_numpy_dp(inst):
    assert_identical(inst, *solved_both_ways(inst))


def test_held_karp_raises_when_no_tour_is_finite(monkeypatch):
    # every tour of 1e308 weights overflows to inf, and the DP's parent walk
    # from the closing edge's city 0 would make the one-city "tour" (0,)
    inst = Instance("overflow", 6, np.full((6, 6), 1e308))
    for kernel in (ga._KERNEL, None):
        monkeypatch.setattr(ga, "_KERNEL", kernel)
        with np.errstate(over="ignore"), \
                pytest.raises(NonFiniteOptimumError, match="^overflow: the optimum is not finite"):
            held_karp(inst)


@needs_kernel
@pytest.mark.parametrize("n", [15, 16, 17, 18])
def test_kernel_held_karp_matches_the_numpy_dp_up_to_18_cities(n):
    inst = random_instance(n, (0, 3), seed=n)
    assert ga._KERNEL.held_karp(np.asarray(inst.distances, dtype=np.float64)) is not None
    assert_identical(inst, *solved_both_ways(inst))


def held_karp_declines():
    """(name, distances): the inputs the kernel's held_karp returns None for."""
    ones = np.ones((5, 5))
    return [
        ("int64 matrix", np.ones((5, 5), dtype=np.int64)),
        ("float32 matrix", np.ones((5, 5), dtype=np.float32)),
        ("Fortran-ordered matrix", np.asfortranarray(np.arange(25.0).reshape(5, 5))),
        ("non-square matrix", np.ones((4, 5))),
        ("1x1 matrix", np.zeros((1, 1))),
        ("19x19 matrix", np.ones((19, 19))),
        ("NaN entry", np.where(np.eye(5, dtype=bool), np.nan, ones)),
        ("-inf entry", np.where(np.eye(5, dtype=bool), -np.inf, ones)),
        ("non-buffer", [[0.0, 1.0], [1.0, 0.0]]),
    ]


def held_karp_solvable():
    """(name, distances): valid float64 matrices for the kernel's held_karp."""
    return [
        ("2 cities", np.array([[0.0, 3.0], [7.0, 0.0]])),
        ("tie-heavy 12 cities", np.asarray(random_instance(12, (0, 2), seed=5).distances,
                                           dtype=np.float64)),
        ("sums overflowing to inf", np.full((6, 6), 1e308)),
        ("16 cities", np.asarray(random_instance(16, (1, 50), seed=16).distances,
                                 dtype=np.float64)),
    ]


@needs_kernel
@pytest.mark.parametrize("name,distances", held_karp_declines())
def test_kernel_held_karp_declines_every_fault(name, distances):
    assert ga._KERNEL.held_karp(distances) is None


@needs_kernel
def test_kernel_held_karp_leaves_refcounts_unchanged():
    for _, distances in held_karp_declines() + held_karp_solvable():
        for _ in range(2):  # the first call may cache on the object
            before = sys.getrefcount(distances)
            ga._KERNEL.held_karp(distances)
            assert before == sys.getrefcount(distances)
