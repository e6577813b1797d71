"""Genetic algorithms for the (asymmetric) TSP: a sequential baseline and an
island-model parallel GA whose evolution rounds run as map/reduce jobs over
a keyed record store, plus TSPLIB parsing and exact solvers for ground truth.
"""

from .codec import (CodecError, DecodedChromosome, DuplicateGeneError,
                    GeneRangeError, TruncatedBufferError, decode_chromosome,
                    encode_chromosome)
from .engine import (Engine, EngineError, FileStore, JobFailedError, JobSpec,
                     MemoryStore, Record, StoreError, default_partition,
                     identity_mapper, task_rng)
from .ga import (GaParams, TerminationPolicy, greedy_crossover, mutate,
                 next_generation, run_sga, select_parents, similarity,
                 tour_length)
from .island import (IslandParams, NonIntegerWeightsError, RoundSummary,
                     TourLengthOverflowError, check_convergence, evolve_job,
                     init_job, run_pga)
from .oracle import (BRUTE_FORCE_MAX, HELD_KARP_MAX, ExactResult, brute_force,
                     held_karp)
from .reports import RunReport, accuracy_percent
from .tsplib import (Instance, ParseError, load_instance, load_registry,
                     parse_instance, random_instance, save_registry)
