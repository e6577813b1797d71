"""Genetic operators for permutation-encoded TSP tours, plus the sequential GA.

A population is two parallel lists: genes, a tuple of cities per member, and
lengths, each member's tour length. Tours are directed: on asymmetric
instances the cost of a tour and of its reversal differ. All randomness flows
through an explicit random.Random so fixed seeds reproduce runs exactly; the
compiled kernel behind evolve draws from its Mersenne Twister in place.
"""

from __future__ import annotations

import operator
import random
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, asdict

from . import _xover
from .codec import MAX_LENGTH
from .reports import RunReport, accuracy_percent
from .tsplib import Instance

# The compiled `_xover` module, built at first import and loaded once, so forked
# pool workers inherit it; None when it cannot be built, and ga runs its loops.
_KERNEL = _xover.load()


def _kernel_may_run(instance: Instance, rng) -> bool:
    """The one rule for every GA kernel call: the kernel is loaded; rng is an
    exact random.Random with no instance override of a method, so the
    kernel, drawing from its Mersenne Twister in place, draws what its
    methods would; and no tour of instance weighs more than the 64 bits in
    which the kernel sums lengths (Instance.max_tour_length)."""
    return (_KERNEL is not None and type(rng) is random.Random
            and vars(rng).keys() <= {"gauss_next"} and instance.max_tour_length <= MAX_LENGTH)


@dataclass(frozen=True)
class GaParams:
    population_size: int = 100
    crossover_prob: float = 0.99
    mutation_prob: float = 0.021
    similarity_threshold: float = 0.80
    elite_count: int = 1
    max_parent_retries: int = 32

    def __post_init__(self):
        for name in ("crossover_prob", "mutation_prob", "similarity_threshold"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.population_size < 2:
            raise ValueError(f"population_size must be >= 2, got {self.population_size}")
        if not 0 < self.elite_count < self.population_size:
            raise ValueError(f"elite_count must be in (0, population_size), got {self.elite_count}")
        if self.max_parent_retries < 1:
            raise ValueError(f"max_parent_retries must be >= 1, got {self.max_parent_retries}")


def random_tour(n: int, rng: random.Random) -> list[int]:
    """Uniform random permutation of 0..n-1."""
    if n < 2:
        raise ValueError(f"need at least 2 cities, got {n}")
    tour = list(range(n))
    rng.shuffle(tour)
    return tour


def tour_length(genes, instance: Instance) -> float:
    """Directed cost of the closed tour, closing edge included."""
    rows = instance.rows
    total = 0
    prev = genes[0]
    for city in genes[1:]:
        total += rows[prev][city]
        prev = city
    total += rows[prev][genes[0]]
    return total


def canonical(genes):
    """The tour rotated so city 0 sits at index 0."""
    i = genes.index(0)
    return genes[i:] + genes[:i]


def successors(genes) -> list[int]:
    """succ[c] is the city after c on the closed tour."""
    succ = [0] * len(genes)
    prev = genes[-1]
    for city in genes:
        succ[prev] = city
        prev = city
    return succ


def similarity(a, b) -> float:
    """Fraction of matching positions of two tours' canonical rows.

    Rotation-invariant, since a and b are canonical(genes); reversal is NOT
    canonicalized because tours are directed on asymmetric instances.
    """
    n = len(a)
    if n != len(b):
        raise ValueError("tours must have the same number of cities")
    if a == b:
        return 1.0
    return sum(map(operator.eq, a, b)) / n


def shortest(genes, lengths, count):
    """(genes, lengths) of the count shortest members, ties in member order."""
    keep = sorted(range(len(lengths)), key=lengths.__getitem__)[:count]
    return [genes[i] for i in keep], [lengths[i] for i in keep]


class Ranking:
    """Rank-selection context: member indices ordered worst to best with
    cumulative draw probabilities. Ties in length keep the member order."""

    def __init__(self, lengths):
        n = len(lengths)
        self.order = sorted(range(n), key=lengths.__getitem__, reverse=True)
        self.cum = [r * (r + 1) / (n * (n + 1)) for r in range(1, n + 1)]

    def draw(self, rng: random.Random) -> int:
        """Member index of one rank-proportional draw."""
        return self.order[bisect_right(self.cum, rng.random())]


def select_parents(ranking: Ranking, rows, rng: random.Random,
                   params: GaParams) -> tuple[int, int]:
    """Indices of two distinct members drawn by rank, rows[i] being member
    i's canonical row; pairs more similar than the threshold are redrawn,
    and after max_parent_retries failures the constraint is waived so
    converged populations cannot livelock.

    Inside evolve the kernel runs this loop in C; this is the reference, and
    the path for the inputs and rngs the kernel declines.
    """
    draw = ranking.draw
    threshold = params.similarity_threshold
    for _ in range(params.max_parent_retries):
        ia = draw(rng)
        ib = draw(rng)
        while ib == ia:
            ib = draw(rng)
        if similarity(rows[ia], rows[ib]) <= threshold:
            break
    return ia, ib


def greedy_crossover(first: int, succ_a: list[int], succ_b: list[int],
                     instance: Instance, rng: random.Random) -> tuple[list[int], float]:
    """Build a child from parent successor edges, shortest first.

    Starting at first, parent a's first city, with succ_a and succ_b the
    parents' successors: take the cheaper of the two parental successors of
    the current city (tie goes to parent a's); if only one is unvisited take
    that one; if both are visited pick uniformly among the unvisited cities
    in ascending city order via one rng.randrange draw.
    Returns (child, length), the length summed in the same order as
    tour_length sums it. As with select_parents, the kernel runs these steps
    in C inside evolve, and this loop serves the inputs it declines.
    """
    n = len(succ_a)
    rows = instance.rows
    visited = bytearray(n)
    current = first
    child = [current]
    visited[current] = 1
    length = 0
    open_cities = None  # built at the first dead end, then kept sorted
    for _ in range(n - 1):
        ea = succ_a[current]
        eb = succ_b[current]
        row = rows[current]
        if not visited[ea]:
            if not visited[eb] and eb != ea:
                nxt = ea if row[ea] <= row[eb] else eb
            else:
                nxt = ea
        elif not visited[eb]:
            nxt = eb
        else:
            if open_cities is None:
                open_cities = [c for c in range(n) if not visited[c]]
            nxt = open_cities[rng.randrange(len(open_cities))]
        if open_cities is not None:
            del open_cities[bisect_left(open_cities, nxt)]
        child.append(nxt)
        visited[nxt] = 1
        length += row[nxt]
        current = nxt
    return child, length + rows[current][first]


def mutate(genes, rng: random.Random, mutation_prob: float):
    """With the given probability, swap two distinct uniformly random genes.

    Applied once per offspring; returns the input untouched when the draw
    does not fire.
    """
    if mutation_prob > 0.0 and rng.random() < mutation_prob:
        n = len(genes)
        i = rng.randrange(n)
        j = rng.randrange(n - 1)
        if j >= i:
            j += 1
        swapped = list(genes)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        return swapped
    return genes


def next_generation(genes: list, lengths: list, instance: Instance, rng: random.Random,
                    params: GaParams) -> tuple[list, list]:
    """One generation, (genes, lengths) in and out: the elite_count shortest
    members carried over (ties in member order), the rest bred by rank
    selection, greedy crossover (else a copy of the better parent) and
    mutation. Output size equals input size.

    The reference loop: the kernel runs it in C inside evolve, and evolve
    loops it for what the kernel declines."""
    size = len(genes)
    if size <= params.elite_count:
        raise ValueError("population smaller than elite_count + 1")

    new_genes, new_lengths = shortest(genes, lengths, params.elite_count)
    ranking = Ranking(lengths)
    rows = list(map(canonical, genes))
    succs = list(map(successors, genes))
    while len(new_genes) < size:
        ia, ib = select_parents(ranking, rows, rng, params)
        if rng.random() < params.crossover_prob:
            child, length = greedy_crossover(genes[ia][0], succs[ia], succs[ib], instance, rng)
        else:
            better = ia if lengths[ia] <= lengths[ib] else ib
            child, length = genes[better], lengths[better]
        mutated = mutate(child, rng, params.mutation_prob)
        if mutated is not child:
            child, length = mutated, tour_length(mutated, instance)
        new_genes.append(tuple(child))
        new_lengths.append(length)
    return new_genes, new_lengths


def random_population(instance: Instance, params: GaParams,
                      rng: random.Random) -> tuple[list, list]:
    """(genes, lengths) of population_size tours made by random_tour; where
    _kernel_may_run, the kernel's random_tours shuffles and sums them all in
    one call, or declines its inputs and the loop below runs."""
    if _kernel_may_run(instance, rng):
        made = _KERNEL.random_tours(params.population_size, instance.distances, rng)
        if made is not None:
            return made
    genes = [tuple(random_tour(instance.dimension, rng)) for _ in range(params.population_size)]
    return genes, [tour_length(tour, instance) for tour in genes]


@dataclass(frozen=True)
class TerminationPolicy:
    """Optional early-stop rules shared by the sequential and island GAs."""

    target_length: float | None = None
    patience: int | None = None

    def __post_init__(self):
        if self.patience is not None and self.patience < 0:
            raise ValueError("patience must be >= 0 or None")
        check_target(self.target_length)


def check_target(target_length) -> None:
    """Raise ValueError for a NaN target_length: no best is <= NaN, so such
    a target would never stop a run."""
    if target_length is not None and target_length != target_length:
        raise ValueError(f"target_length must be a number, got {target_length}")


def stop_reason(best_history: list[float], generations_used: int, budget: int,
                patience: int | None, target_length: float | None) -> str | None:
    """Why a run should stop now, or None to continue.

    Checked in order: generation budget exhausted, best unchanged over the
    last `patience` recorded entries, best at or below the target.
    """
    if generations_used >= budget:
        return "budget"
    if patience and len(best_history) >= patience:
        tail = best_history[-patience:]
        if all(v == tail[0] for v in tail):
            return "stagnation"
    if target_length is not None and best_history and best_history[-1] <= target_length:
        return "target"
    return None


def evolve(genes: list, lengths: list, instance: Instance, rng: random.Random, params: GaParams,
           generations: int, patience=None, target=None) -> tuple[list, list, list]:
    """(genes, lengths, bests): next_generation until `generations` or, after
    each, stop_reason([min(lengths)] + bests, ...) ends it; bests holds each
    generation's shortest length. Where _kernel_may_run, one call of the
    kernel's evolve runs them all, drawing as the loop does, or declines its
    inputs and the loop runs."""
    if _kernel_may_run(instance, rng):
        evolved = _KERNEL.evolve(genes, lengths, instance.distances, params.similarity_threshold,
                                 params.max_parent_retries, params.crossover_prob,
                                 params.mutation_prob, params.elite_count, generations,
                                 patience, target, rng)
        if evolved is not None:
            return evolved
    history = [min(lengths, default=None)]  # next_generation rejects an empty population
    while len(history) <= generations:
        genes, lengths = next_generation(genes, lengths, instance, rng, params)
        history.append(min(lengths))
        if stop_reason(history, len(history) - 1, generations, patience, target):
            break
    return genes, lengths, history[1:]


def run_sga(instance: Instance, params: GaParams, max_generations: int,
            termination: TerminationPolicy | None = None, seed: int = 0) -> RunReport:
    """Sequential GA: random initial population, then evolve until the
    budget or the termination policy ends the run."""
    if max_generations < 1:
        raise ValueError(f"max_generations must be >= 1, got {max_generations}")
    term = termination or TerminationPolicy()
    rng = random.Random(seed)
    t0 = time.perf_counter()

    genes, lengths = random_population(instance, params, rng)
    trajectory = [min(lengths)]
    genes, lengths, bests = evolve(genes, lengths, instance, rng, params, max_generations,
                                   term.patience, term.target_length)
    trajectory += bests
    reason = stop_reason(trajectory, len(bests), max_generations, term.patience, term.target_length)

    best = min(range(len(lengths)), key=lengths.__getitem__)
    snapshot = asdict(params)
    snapshot.update(max_generations=max_generations,
                    target_length=term.target_length, patience=term.patience)
    return RunReport(
        algo="sga",
        instance_name=instance.name,
        seed=seed,
        params=snapshot,
        best_length=lengths[best],
        best_tour=genes[best],
        trajectory=trajectory,
        generations=len(bests),
        wall_seconds=time.perf_counter() - t0,
        stop_reason=reason,
        accuracy=accuracy_percent(instance.known_optimum, lengths[best]),
    )
