"""The golden pins of test_golden.py and test_oracle_golden.py again, on the
GA's Python loops and the numpy Held-Karp DP.

test_golden.py and test_oracle_golden.py run them on the compiled kernel
wherever it loads; importing the tests here collects them a second time,
under this module's fixture, which switches the kernel off, so that
next_generation, select_parents and greedy_crossover run their Python loops
and held_karp its numpy DP. The br17 pin solves br17 itself, under the
fixture.
"""

import pytest

from mrtsp import ga
from test_golden import (rnd064, test_pga_elites_among_ties_pinned,  # noqa: F401
                         test_pga_file_store_migrating_every_generation_pinned,
                         test_pga_rnd064_pinned, test_sga_elites_among_ties_pinned,
                         test_sga_float_weights_pinned, test_sga_rnd064_pinned, ties20)
from test_oracle_golden import (test_held_karp_br17_pinned,  # noqa: F401
                                test_held_karp_tie_heavy_pinned)


@pytest.fixture(autouse=True)
def python_loop(monkeypatch):
    monkeypatch.setattr(ga, "_KERNEL", None)
