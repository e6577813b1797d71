"""Genetic algorithms for the (asymmetric) TSP: a sequential baseline and an
island-model parallel GA whose evolution rounds run as map/reduce jobs over
a keyed record store, plus TSPLIB parsing and exact solvers for ground truth.
"""

from .ga import GaParams, run_sga
from .island import IslandParams, run_pga
from .tsplib import load_instance
