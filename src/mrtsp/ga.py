"""Genetic operators for permutation-encoded TSP tours, plus the sequential GA.

Tours are directed: on asymmetric instances the cost of a tour and of its
reversal differ. All randomness flows through an explicit random.Random so
fixed seeds reproduce runs exactly.
"""

from __future__ import annotations

import operator
import random
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, asdict

from . import _xover
from .reports import RunReport, accuracy_percent
from .tsplib import Instance

# The compiled `_xover` module, built at first import and loaded once, so forked
# pool workers inherit it. next_generation and random_population run a whole
# step through it, or their Python loops when it is None (it cannot be built) or
# declines: float weights, an rng that is not an exact random.Random, or genes
# that are not tuples.
_KERNEL = _xover.load()


@dataclass(slots=True)
class Chromosome:
    genes: tuple[int, ...]
    length: float
    _canon: tuple[int, ...] | None = field(default=None, repr=False, compare=False)
    _succ: list[int] | None = field(default=None, repr=False, compare=False)

    def canonical(self) -> tuple[int, ...]:
        """Tour rotated so city 0 sits at index 0 (cached)."""
        if self._canon is None:
            i = self.genes.index(0)
            self._canon = self.genes[i:] + self.genes[:i]
        return self._canon

    def successors(self) -> list[int]:
        """succ[c] is the city after c on the closed tour (cached)."""
        if self._succ is None:
            genes = self.genes
            succ = [0] * len(genes)
            prev = genes[-1]
            for city in genes:
                succ[prev] = city
                prev = city
            self._succ = succ
        return self._succ


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


def make_chromosome(genes, instance: Instance) -> Chromosome:
    return Chromosome(tuple(genes), tour_length(genes, instance))


def similarity(a: Chromosome, b: Chromosome) -> float:
    """Fraction of matching positions after rotating both tours to start at 0.

    Rotation-invariant; reversal is NOT canonicalized because tours are
    directed on asymmetric instances.
    """
    n = len(a.genes)
    if n != len(b.genes):
        raise ValueError("chromosomes must have the same number of cities")
    ca, cb = a.canonical(), b.canonical()
    if ca == cb:
        return 1.0
    return sum(map(operator.eq, ca, cb)) / n


class Ranking:
    """Rank-selection context: members ordered worst to best with cumulative
    draw probabilities. Ties in length keep the original member order."""

    def __init__(self, members: list[Chromosome]):
        n = len(members)
        self.members = members
        self.order = sorted(range(n), key=lambda i: members[i].length, reverse=True)
        total = n * (n + 1) // 2
        cum, acc = [], 0
        for r in range(1, n + 1):
            acc += r
            cum.append(acc / total)
        self.cum = cum

    def draw(self, rng: random.Random) -> int:
        """Index (into the member list) of one rank-proportional draw."""
        return self.order[bisect_right(self.cum, rng.random())]


def select_parents(ranking: Ranking, rng: random.Random,
                   params: GaParams) -> tuple[Chromosome, Chromosome]:
    """Two distinct members drawn by rank; pairs more similar than the
    threshold are redrawn, and after max_parent_retries failures the
    constraint is waived so converged populations cannot livelock.

    Inside next_generation the kernel's breed runs this loop in C; this is
    the reference, and the path for float weights, an rng that is not an
    exact random.Random, and genes that are not tuples.
    """
    members = ranking.members
    draw = ranking.draw
    threshold = params.similarity_threshold
    pair = None
    for _ in range(params.max_parent_retries):
        ia = draw(rng)
        ib = draw(rng)
        while ib == ia:
            ib = draw(rng)
        pair = (members[ia], members[ib])
        if similarity(pair[0], pair[1]) <= threshold:
            return pair
    assert pair is not None
    return pair


def greedy_crossover(parent_a: Chromosome, parent_b: Chromosome,
                     instance: Instance, rng: random.Random) -> tuple[list[int], float]:
    """Build a child from parent successor edges, shortest first.

    Starting at parent_a's first city: take the cheaper of the two parental
    successors of the current city (tie goes to parent_a's); if only one is
    unvisited take that one; if both are visited pick uniformly among the
    unvisited cities in ascending city order via one rng.randrange draw.
    Returns (child, length), the length summed in the same order as
    tour_length sums it. As with select_parents, breed runs these steps in C
    inside next_generation, and this loop serves the inputs it declines.
    """
    sa, sb = parent_a.successors(), parent_b.successors()
    n = len(sa)
    rows = instance.rows
    visited = bytearray(n)
    current = first = parent_a.genes[0]
    child = [current]
    visited[current] = 1
    length = 0
    open_cities = None  # built at the first dead end, then kept sorted
    for _ in range(n - 1):
        ea = sa[current]
        eb = sb[current]
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


def next_generation(members: list[Chromosome], instance: Instance,
                    rng: random.Random, params: GaParams) -> list[Chromosome]:
    """One generation: the elite_count shortest members carried over (ties
    in member order), the rest bred by rank selection, greedy crossover
    (else a copy of the better parent) and mutation. Output size equals
    input size.

    With the kernel loaded and an exact random.Random, breed makes all the
    children in one call with the loop's draws in the loop's order. It
    declines, and the loop below runs, unless the weights are a C-ordered
    int64 matrix of at least 2 cities and each member's genes a tuple
    permuting them."""
    size = len(members)
    if size <= params.elite_count:
        raise ValueError("population smaller than elite_count + 1")

    new_members = sorted(members, key=lambda m: m.length)[:params.elite_count]
    ranking = Ranking(members)
    if _KERNEL is not None and type(rng) is random.Random:
        bred = _KERNEL.breed([m.genes for m in members], [m.length for m in members],
                             ranking.order, ranking.cum, instance.distances,
                             params.similarity_threshold, params.max_parent_retries,
                             params.crossover_prob, params.mutation_prob,
                             size - len(new_members), rng.random, rng.getrandbits)
        if bred is not None:
            return new_members + list(map(Chromosome, *bred))
    while len(new_members) < size:
        pa, pb = select_parents(ranking, rng, params)
        if rng.random() < params.crossover_prob:
            genes, length = greedy_crossover(pa, pb, instance, rng)
        else:
            better = pa if pa.length <= pb.length else pb
            genes, length = better.genes, better.length
        mutated = mutate(genes, rng, params.mutation_prob)
        if mutated is not genes:
            genes, length = mutated, tour_length(mutated, instance)
        new_members.append(Chromosome(tuple(genes), length))
    return new_members


def random_population(instance: Instance, params: GaParams,
                      rng: random.Random) -> list[Chromosome]:
    """population_size members made by random_tour, with their lengths.

    With the kernel loaded and an exact random.Random, random_tours shuffles
    and sums them all in one call, with random.shuffle's getrandbits calls in
    its order. It declines, and the loop below runs, unless the weights are a
    C-ordered int64 matrix of at least 2 cities."""
    if _KERNEL is not None and type(rng) is random.Random:
        made = _KERNEL.random_tours(params.population_size, instance.distances, rng.getrandbits)
        if made is not None:
            return list(map(Chromosome, *made))
    return [make_chromosome(random_tour(instance.dimension, rng), instance)
            for _ in range(params.population_size)]


@dataclass(frozen=True)
class TerminationPolicy:
    """Optional early-stop rules shared by the sequential and island GAs."""

    target_length: float | None = None
    patience: int | None = None


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


def run_sga(instance: Instance, params: GaParams, max_generations: int,
            termination: TerminationPolicy | None = None, seed: int = 0) -> RunReport:
    """Sequential GA: random initial population, then next_generation until
    the budget or the termination policy ends the run."""
    if max_generations < 1:
        raise ValueError(f"max_generations must be >= 1, got {max_generations}")
    term = termination or TerminationPolicy()
    rng = random.Random(seed)
    t0 = time.perf_counter()

    members = random_population(instance, params, rng)
    trajectory = [min(m.length for m in members)]
    generations = 0
    reason = None
    while reason is None:
        members = next_generation(members, instance, rng, params)
        generations += 1
        trajectory.append(min(m.length for m in members))
        reason = stop_reason(trajectory, generations, max_generations,
                             term.patience, term.target_length)

    best = min(members, key=lambda m: m.length)
    snapshot = asdict(params)
    snapshot.update(max_generations=max_generations,
                    target_length=term.target_length, patience=term.patience)
    return RunReport(
        algo="sga",
        instance_name=instance.name,
        seed=seed,
        params=snapshot,
        best_length=best.length,
        best_tour=best.genes,
        trajectory=trajectory,
        generations=generations,
        wall_seconds=time.perf_counter() - t0,
        stop_reason=reason,
        accuracy=accuracy_percent(instance.known_optimum, best.length),
    )
