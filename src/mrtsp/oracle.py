"""Exact TSP solvers used as ground truth in tests and benchmarks.

Both solvers treat tours as directed (asymmetric instances are the norm here)
and fix city 0 as the starting point, which is lossless for cyclic tours.
Both sum in float64, so an integer instance whose tours may weigh 2**53 or
more, where float64 stops holding every integer, raises InexactSumError up
front.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import ga
from .tsplib import EXACT_LIMIT, Instance

BRUTE_FORCE_MAX = 11
HELD_KARP_MAX = 18


class NonFiniteOptimumError(ValueError):
    """held_karp's optimum is not finite: every tour's length overflows to inf."""


class InexactSumError(ValueError):
    """An integer instance whose tours may weigh 2**53 or more, where the
    solvers' float64 sums can round a length."""


@dataclass(frozen=True)
class ExactResult:
    optimum_length: float
    optimum_tour: tuple[int, ...]


def brute_force(instance: Instance) -> ExactResult:
    """Enumerate all (N-1)! directed tours starting at city 0, in one block of
    (N-2)! tours per second city, so memory holds one block at a time.

    Returns the lexicographically first minimizer. Feasible up to N=11.
    """
    n = instance.dimension
    if n > BRUTE_FORCE_MAX:
        raise ValueError(f"brute_force handles N <= {BRUTE_FORCE_MAX}, got {n}")
    d = _float_matrix(instance)
    if n == 2:
        return ExactResult(_scalar(d[0, 1] + d[1, 0], d), (0, 1))
    best, tour = None, ()
    for first in range(1, n):  # blocks in lexicographic order; a tie keeps the earlier
        rest = [c for c in range(1, n) if c != first]
        perms = np.fromiter(itertools.chain.from_iterable(itertools.permutations(rest)),
                            dtype=np.int8).reshape(-1, n - 2)
        cost = d[0, first] + d[first, perms[:, 0]]
        for k in range(n - 3):
            cost += d[perms[:, k], perms[:, k + 1]]
        cost += d[perms[:, -1], 0]
        i = int(np.argmin(cost))  # argmin takes the first minimum; perms are lexicographic
        if not tour or cost[i] < best:
            best, tour = cost[i], (0, first, *map(int, perms[i]))
    return ExactResult(optimum_length=_scalar(best, d), optimum_tour=tour)


def held_karp(instance: Instance) -> ExactResult:
    """Dynamic program over (visited set, last city); O(2^N * N^2), N <= 18.

    With the kernel loaded, its held_karp runs the DP in one call, over
    tables indexed by the visited set without city 0, which is in every one:
    9 * 2^(N-1) * N bytes, 21 MB at N=18, and br17 takes about 8 ms. The
    numpy DP below is the reference, which runs when the kernel is absent or
    declines: one vectorized step per (popcount layer, last city), br17 in
    about 0.14 s, over tables of 9 * 2^N * N bytes (42 MB at N=18). Both take
    the first minimum in ascending city order at every step, so they return
    equal results, and either raises NonFiniteOptimumError when the optimum
    is not finite, since its "tour" is then no tour.
    """
    n = instance.dimension
    if n > HELD_KARP_MAX:
        raise ValueError(f"held_karp handles N <= {HELD_KARP_MAX}, got {n}")
    d = _float_matrix(instance)
    solved = ga._KERNEL.held_karp(d) if ga._KERNEL is not None else None
    length, tour = solved if solved is not None else _numpy_held_karp(d)
    if not math.isfinite(length):
        raise NonFiniteOptimumError(f"{instance.name}: the optimum is not finite ({length}), "
                                    "so held_karp has no tour to return")
    return ExactResult(optimum_length=_scalar(length, d), optimum_tour=tour)


def _numpy_held_karp(d: np.ndarray) -> tuple[float, tuple[int, ...]]:
    """held_karp's reference DP over the float64 matrix d: (length, tour)."""
    n = len(d)
    size = 1 << n
    # dp[mask, j] = cheapest path 0 -> ... -> j visiting exactly the cities in mask
    dp = np.full((size, n), np.inf)
    parent = np.full((size, n), -1, dtype=np.int8)
    dp[1, 0] = 0.0  # the empty path at city 0, which layer 2 extends

    col = d.T.copy()  # col[j] = distances into j
    bits = np.zeros(1, dtype=np.int8)  # bits[mask] = number of cities in mask
    for _ in range(n):
        bits = np.concatenate([bits, bits + 1])
    odd = np.arange(1, size, 2)  # city 0 always in the mask
    for k in range(2, n + 1):  # layer k reads only layer k - 1
        layer = odd[bits[odd] == k]
        for j in range(1, n):
            sel = layer[layer & (1 << j) != 0]
            cand = dp[sel ^ (1 << j)] + col[j]
            i = cand.argmin(axis=1)  # first minimum: a tie keeps the lowest predecessor
            dp[sel, j] = cand[np.arange(sel.size), i]
            parent[sel, j] = i

    full = size - 1
    totals = dp[full] + d[:, 0]  # totals[0] stays inf: dp[full, 0] is never set
    last = int(np.argmin(totals))
    tour, mask, j = [], full, last
    while j:
        tour.append(j)
        mask, j = mask ^ (1 << j), int(parent[mask, j])
    return totals[last], (0, *reversed(tour))


def _float_matrix(instance: Instance) -> np.ndarray:
    """The weights as float64, which both solvers sum in, once an integer
    instance has shown that no tour can weigh EXACT_LIMIT or more."""
    if np.issubdtype(instance.distances.dtype, np.integer) \
            and instance.max_tour_length >= EXACT_LIMIT:
        raise InexactSumError(f"{instance.name}: a tour may weigh up to "
                              f"{instance.max_tour_length}, not below 2**53, and float64 sums "
                              "can round such a length")
    return np.asarray(instance.distances, dtype=np.float64)


def _scalar(value: float, matrix: np.ndarray) -> float:
    # keep integer-weighted results as exact ints
    if np.issubdtype(np.asarray(matrix).dtype, np.integer) or float(value).is_integer():
        return int(value)
    return float(value)
