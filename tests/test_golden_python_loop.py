"""The golden pins of test_golden.py again, on the GA's Python loops.

test_golden.py runs them on the compiled kernel wherever it loads, where
breed makes every child of the int-weight runs; importing the tests here
collects them a second time, under this module's fixture, which switches the
kernel off, so that next_generation, select_parents and greedy_crossover run
their Python loops.
"""

import pytest

from mrtsp import ga
from test_golden import (rnd064, test_pga_elites_among_ties_pinned,  # noqa: F401
                         test_pga_file_store_migrating_every_generation_pinned,
                         test_pga_rnd064_pinned, test_sga_elites_among_ties_pinned,
                         test_sga_float_weights_pinned, test_sga_rnd064_pinned, ties20)


@pytest.fixture(autouse=True)
def python_loop(monkeypatch):
    monkeypatch.setattr(ga, "_KERNEL", None)
