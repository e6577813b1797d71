import numpy as np
import pytest

from mrtsp.ga import tour_length
from mrtsp.oracle import (BRUTE_FORCE_MAX, HELD_KARP_MAX, ExactResult,
                          InexactSumError, brute_force, held_karp)
from mrtsp.tsplib import Instance, parse_instance, random_instance

THREE_CITY = Instance("toy3", 3, np.array([[0, 1, 2], [2, 0, 3], [4, 5, 0]]))

# the 4-city matrix used by the crossover hand-trace; symmetric on purpose
FOUR_CITY = Instance("toy4", 4, np.array([
    [0, 1, 4, 9],
    [1, 0, 2, 8],
    [4, 2, 0, 3],
    [9, 8, 3, 0],
]))


def test_brute_force_three_city():
    result = brute_force(THREE_CITY)
    assert result.optimum_length == 8          # 0->1->2->0 = 1+3+4
    assert result.optimum_tour == (0, 1, 2)


def test_brute_force_two_city():
    inst = Instance("pair", 2, np.array([[0, 3], [7, 0]]))
    result = brute_force(inst)
    assert result.optimum_length == 10
    assert result.optimum_tour == (0, 1)


def test_four_city_hand_matrix():
    # optimum 1+2+3+9 = 15 via [0,1,2,3] (its reverse costs the same)
    bf = brute_force(FOUR_CITY)
    hk = held_karp(FOUR_CITY)
    assert bf.optimum_length == 15
    assert bf.optimum_tour == (0, 1, 2, 3)
    assert hk.optimum_length == 15
    assert tour_length(hk.optimum_tour, FOUR_CITY) == 15


def test_oracles_agree_on_random_instances():
    for seed in range(20):
        n = 5 + seed % 6  # sizes 5..10
        inst = random_instance(n, (1, 50), seed=seed)
        bf = brute_force(inst)
        hk = held_karp(inst)
        assert bf.optimum_length == hk.optimum_length, inst.name
        assert tour_length(bf.optimum_tour, inst) == bf.optimum_length
        assert tour_length(hk.optimum_tour, inst) == hk.optimum_length
        assert sorted(hk.optimum_tour) == list(range(n))


def test_br17_optimum_matches_registry(br17, br17_exact):
    assert br17.known_optimum == 39            # registry value
    assert br17_exact.optimum_length == 39     # Held-Karp recomputation
    assert tour_length(br17_exact.optimum_tour, br17) == 39


def test_results_are_deterministic():
    inst = random_instance(7, (1, 30), seed=99)
    assert brute_force(inst) == brute_force(inst)
    assert held_karp(inst) == held_karp(inst)


def test_brute_force_cap():
    inst = random_instance(BRUTE_FORCE_MAX + 1, (1, 10), seed=0)
    with pytest.raises(ValueError) as err:
        brute_force(inst)
    assert str(BRUTE_FORCE_MAX) in str(err.value)


def test_held_karp_cap():
    inst = random_instance(HELD_KARP_MAX + 1, (1, 10), seed=0)
    with pytest.raises(ValueError) as err:
        held_karp(inst)
    assert str(HELD_KARP_MAX) in str(err.value)


def test_integer_matrix_gives_integer_optimum():
    inst = random_instance(6, (1, 40), seed=3)
    assert isinstance(held_karp(inst).optimum_length, int)
    assert isinstance(brute_force(inst).optimum_length, int)


def test_float_matrix_supported():
    mat = np.array([[0.0, 1.5, 2.5],
                    [2.5, 0.0, 3.5],
                    [4.5, 5.5, 0.0]])
    inst = Instance("floaty", 3, mat)
    assert brute_force(inst).optimum_length == pytest.approx(9.5)
    assert held_karp(inst).optimum_length == pytest.approx(9.5)


@pytest.mark.parametrize("solver", [held_karp, brute_force])
def test_integer_tours_that_may_reach_two_to_the_53_are_rejected(solver):
    # every weight is below 2**53 and parses, but float64 sums made the optimum
    # 13510798882111492 for the tour (0, 1, 2), which weighs 13510798882111491
    w = 2**52 + 1
    weights = np.array([[0, w, w + 2], [w + 2, 0, w], [w, w + 2, 0]])
    with pytest.raises(InexactSumError, match="^big3: a tour may weigh up to 13510798882111497,"):
        solver(Instance("big3", 3, weights))
    with pytest.raises(InexactSumError, match="up to 9007199254740992,"):
        solver(Instance("at", 2, np.array([[0, 2**52], [2**52, 0]])))
    below = Instance("below", 2, np.array([[0, 2**52 - 1], [2**52 - 1, 0]]))
    assert solver(below) == ExactResult(2**53 - 2, (0, 1))
    # float weights are summed as before
    assert solver(Instance("floats", 3, weights.astype(np.float64))).optimum_length > 0
