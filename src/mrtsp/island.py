"""Island-model parallel GA run as iterated map/reduce jobs.

Every island is one reduce task. A job evolves each island independently
for migration_interval generations, then migration rides the shuffle: the
task emits its best tour re-keyed to every other island, so next round's
grouping delivers migrants together with the residents and the receiving
task drops its worst members to make room. The driver loops jobs until the
generation budget, a stagnation window or an optional target length stops
the run.

A reduce task's records go into the kernel's evolve_island and its output
records come out of it, in one call, when it is loaded; decode_island,
ga.evolve and encode_chromosome, record by record, are the reference path,
which runs when the kernel is absent or declines and names any faulty
record. Outside the kernel, island records are made only by
encode_chromosome and read only through decode_island, which also checks
that each holds the instance's city count, as the kernel does.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from . import ga
from .codec import MAX_LENGTH, decode_chromosome, encode_chromosome, peek_length
from .engine import Engine, EngineError, JobSpec, MemoryStore, Record, identity_mapper
from .ga import GaParams, check_stops, evolve, random_population, shortest, stop_reason
from .reports import RunReport, accuracy_percent
from .tsplib import Instance


class NonIntegerWeightsError(ValueError):
    """The instance has non-integer edge weights, which pga cannot ship."""


class TourLengthOverflowError(ValueError):
    """A tour of the instance can outgrow the record's 64-bit length field."""


# run_pga pools the rest of a run once (rounds left) x (last round's seconds)
# reaches this. Pooling from a round on costs a fixed F per run and makes each
# later round s times faster, so it pays once the in-process work W it takes
# over satisfies W (1 - 1/s) >= F, that is W >= F / (1 - 1/s). Measured on a
# 2-core Xeon, pooling from round 2 (medians of 8 alternating runs each):
# - F, the pool's start (5 ms) and join (3.9-4.5 ms) plus its first round's
#   extra over a warm pooled round (copy-on-write faults; when measured, also
#   the instance pickled to each worker, which workers now inherit at fork),
#   was 17 ms on quick.conf-shaped runs and 19 ms at 171 cities over a
#   FileStore migrating every generation;
# - s, an in-process round over a warm pooled one, was 1.31 and 1.15.
# That gives 0.07 and 0.15 s. The larger is kept, so a run pools only where
# pooling pays on both shapes.
POOL_BREAK_EVEN_S = 0.15


@dataclass(frozen=True)
class IslandParams:
    num_islands: int = 10
    migration_interval: int = 50
    ga: GaParams = field(default_factory=GaParams)
    max_total_generations: int = 50_000
    convergence_patience: int | None = 20
    target_length: float | None = None

    def __post_init__(self):
        if self.num_islands < 2:
            raise ValueError(f"num_islands must be >= 2, got {self.num_islands}")
        if self.migration_interval < 1:
            raise ValueError(f"migration_interval must be >= 1, got {self.migration_interval}")
        if self.max_total_generations < self.migration_interval:
            raise ValueError("max_total_generations must cover at least one round "
                             f"({self.max_total_generations} < {self.migration_interval})")
        check_stops(self.convergence_patience, self.target_length, "convergence_patience")


@dataclass(frozen=True)
class RoundSummary:
    """Driver-side view of one evolve job. `pooled` says whether its reduce
    tasks ran on the pool; like wall_seconds it rests on timing, so it stays
    outside the determinism contract."""

    round: int
    island_bests: tuple[float, ...]
    best_length: float
    best_tour: tuple[int, ...]
    generations: int
    wall_seconds: float
    pooled: bool = False


def decode_island(key: int, values: list[bytes],
                  n: int) -> tuple[list[tuple[int, ...]], list[int]]:
    """(genes, lengths) of an island's records, in order, decoded one by one
    through decode_chromosome, so that the first faulty record raises its
    CodecError, or a pop_id other than key or a tour of other than n cities
    an EngineError. It serves EvolveReducer's reference path, run_pga's best
    tour and the population dump."""
    genes, lengths = [], []
    for value in values:
        decoded = decode_chromosome(value)
        if decoded.pop_id != key:
            raise EngineError(f"record keyed {key} decodes to pop_id {decoded.pop_id}")
        if len(decoded.genes) != n:
            raise EngineError(f"record keyed {key} holds a tour of {len(decoded.genes)} "
                              f"cities for an instance of {n}")
        genes.append(decoded.genes)
        lengths.append(decoded.length)
    return genes, lengths


@dataclass(frozen=True)
class InitReducer:
    """Reduce task i emits a random_population keyed to island i."""

    instance: Instance
    params: GaParams

    def __call__(self, key, values, rng):
        return [Record(key, encode_chromosome(genes, length, key))
                for genes, length in zip(*random_population(self.instance, self.params, rng))]


@dataclass(frozen=True)
class EvolveReducer:
    """Reduce task i: absorb migrants, evolve, emit residents plus its best
    re-keyed to every other island.

    Arriving records may exceed population_size (residents + inbound
    migrants); the worst extras are dropped before evolution, which is the
    batch form of each migrant replacing the current worst member. Migrant
    records carry the destination's pop_id, matching their new key.

    Where ga._kernel_may_run, one call of the kernel's evolve_island does
    all of it, from the record values to the output values, and the keys are
    zipped on here; when it declines its inputs, the reference path below
    runs.

    Reducers of one instance object and equal params compare equal (Instance
    compares by identity), so that an engine's pool serves every round that
    evolves the same run.
    """

    instance: Instance
    params: IslandParams

    def __call__(self, key, values, rng):
        params, ga_params = self.params, self.params.ga
        others = [other for other in range(params.num_islands) if other != key]
        made = None
        if ga._kernel_may_run(self.instance, rng):
            made = ga._KERNEL.evolve_island(
                values, key, params.num_islands, ga_params.population_size,
                self.instance.distances, ga_params.similarity_threshold,
                ga_params.max_parent_retries, ga_params.crossover_prob,
                ga_params.mutation_prob, ga_params.elite_count, params.migration_interval, rng)
        if made is None:
            genes, lengths = decode_island(key, values, self.instance.dimension)
            if len(genes) > ga_params.population_size:
                genes, lengths = shortest(genes, lengths, ga_params.population_size)
            genes, lengths, _ = evolve(genes, lengths, self.instance, rng, ga_params,
                                       params.migration_interval)
            # one by one, so that the first member that does not fit the record
            # layout raises its CodecError
            made = [encode_chromosome(tour, length, key) for tour, length in zip(genes, lengths)]
            best = min(range(len(lengths)), key=lengths.__getitem__)
            made += [encode_chromosome(genes[best], lengths[best], other) for other in others]
        return list(map(Record, [key] * (len(made) - len(others)) + others, made))


def _island_job(params: IslandParams, job_id: int, reducer, master_seed: int) -> JobSpec:
    """Identity map, then one reduce task per island, keyed by island."""
    return JobSpec(job_id, params.num_islands, identity_mapper, reducer, master_seed)


def init_job(engine: Engine, instance: Instance, params: IslandParams,
             master_seed: int) -> str:
    """Job 0: build every island's starting population in its own task."""
    engine.store.put("seed", [Record(i, b"") for i in range(params.num_islands)])
    reducer = InitReducer(instance, params.ga)
    return engine.run_job(_island_job(params, 0, reducer, master_seed),
                          engine.store.read_parts("seed"))


def evolve_job(engine: Engine, parts: list[list[Record]], instance: Instance,
               params: IslandParams, round_number: int, master_seed: int) -> str:
    """One migration round on the parts of the last round's set, one map task
    per part; job id doubles as the round number. The parts are taken as
    checked: run_pga scans every set and hands over the parts it read. Each
    call builds a fresh EvolveReducer, equal to the last call's for the same
    instance and params, so on a pooled engine such calls share a pool."""
    reducer = EvolveReducer(instance, params)
    return engine.run_job(_island_job(params, round_number, reducer, master_seed), parts)


def _scan_set(store, name: str, islands: int) -> tuple[list[list[Record]], list[int], Record]:
    """Read and check an island record set: one part per island, every key
    an island, and a resident (a record keyed to its own part) on every
    island. Returns the parts, per-island best lengths and the best resident."""
    parts = store.read_parts(name)
    if len(parts) != islands:
        raise EngineError(f"record set {name!r} has {len(parts)} parts for {islands} islands")
    bests: list[tuple[int, Record]] = []
    for island, part in enumerate(parts):
        best = None
        for rec in part:
            if rec.key == island:
                length = peek_length(rec.value)
                if best is None or length < best[0]:
                    best = (length, rec)
            elif not 0 <= rec.key < islands:
                raise EngineError(f"record set {name!r}: record keyed {rec.key} "
                                  f"outside islands 0..{islands - 1}")
        if best is None:
            raise EngineError(f"record set {name!r}: island {island} has no resident records")
        bests.append(best)
    return parts, [length for length, _ in bests], min(bests, key=lambda b: b[0])[1]


def format_population_dump(parts: list[list[Record]], n: int) -> str:
    """One resident per line: pop_id, tour length, then the city sequence.
    Every resident must hold a tour of n cities."""
    lines = []
    for island, part in enumerate(parts):
        residents = [rec.value for rec in part if rec.key == island]
        for genes, length in zip(*decode_island(island, residents, n)):
            lines.append(f"{island} {length} {' '.join(map(str, genes))}")
    return "\n".join(lines) + "\n"


def run_pga(instance: Instance, params: IslandParams | None = None,
            master_seed: int = 0, workers: int = 1, store=None,
            dump_path=None) -> RunReport:
    """Drive init_job plus evolve_job rounds until convergence.

    workers=N means up to N workers; a run pools from round 2 only when its
    remaining rounds pay for it. The init job and round 1 run in-process, and
    before each later round, until the run pools, (rounds left in the
    budget) x (last round's seconds) >= POOL_BREAK_EVEN_S raises the engine
    to `workers`: the rest of the run's reduce tasks then run on one pool of
    worker processes, forked with the first pooled round's EvolveReducer,
    which every later round's equals, and joined when the run ends, so no
    instance is pickled to them. Each RoundSummary says whether its round
    pooled; outputs are the same either way. Reported generations are
    per-island cumulative (rounds times migration_interval), and a run goes
    only whole rounds within max_total_generations. When dump_path
    is given, the final populations are also written there as a readable
    text dump. Non-integer weights, and weights whose tours can overflow the
    record's 64-bit length, are rejected before anything is written.
    _scan_set reads and checks each sealed set once, and the next
    evolve_job is handed the parts it read; the dump reuses the final scan's.
    Each round's best tour is decoded through decode_island, which checks
    its city count.
    """
    if instance.distances.dtype.kind == "f":
        raise NonIntegerWeightsError(
            f"{instance.name}: pga needs integer edge weights (the record layout "
            "stores integer tour lengths); run sga for non-integer weights")
    if instance.max_tour_length > MAX_LENGTH:
        raise TourLengthOverflowError(
            f"{instance.name}: a tour can weigh up to {instance.max_tour_length}, past "
            "the record's 64-bit tour length field")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    params = params if params is not None else IslandParams()
    start = time.perf_counter()
    store = store if store is not None else MemoryStore()
    budget_rounds = params.max_total_generations // params.migration_interval
    round_s = 0.0  # the last round's seconds: none is timed before round 1 ends
    with Engine(store, workers=1) as engine:
        handle = init_job(engine, instance, params, master_seed)
        parts, island_bests, _ = _scan_set(store, handle, params.num_islands)
        trajectory = [min(island_bests)]
        rounds: list[RoundSummary] = []
        reason = None
        while reason is None:
            round_number = len(rounds) + 1
            rounds_left = budget_rounds - len(rounds)
            if engine.workers < workers and rounds_left * round_s >= POOL_BREAK_EVEN_S:
                engine.workers = workers  # a pooled engine stays pooled
            round_start = time.perf_counter()
            handle = evolve_job(engine, parts, instance, params, round_number, master_seed)
            del parts  # hold one set's records at a time: the scan reads the next
            parts, island_bests, best = _scan_set(store, handle, params.num_islands)
            round_s = time.perf_counter() - round_start
            (best_tour,), _ = decode_island(best.key, [best.value], instance.dimension)
            rounds.append(RoundSummary(
                round=round_number,
                island_bests=tuple(island_bests),
                best_length=min(island_bests),
                best_tour=best_tour,
                generations=round_number * params.migration_interval,
                wall_seconds=time.perf_counter() - start,
                pooled=engine.workers > 1,
            ))
            trajectory.append(rounds[-1].best_length)
            reason = stop_reason(trajectory[1:], rounds[-1].generations,
                                 budget_rounds * params.migration_interval,
                                 params.convergence_patience, params.target_length)

    if dump_path is not None:
        Path(dump_path).write_text(format_population_dump(parts, instance.dimension))

    final = rounds[-1]
    return RunReport(
        algo="pga",
        instance_name=instance.name,
        seed=master_seed,
        params={**asdict(params), "workers": workers},
        best_length=final.best_length,
        best_tour=final.best_tour,
        trajectory=trajectory,
        generations=final.generations,
        wall_seconds=time.perf_counter() - start,
        stop_reason=reason,
        accuracy=accuracy_percent(instance.known_optimum, final.best_length),
        rounds=rounds,
    )
