"""The kernel built with AddressSanitizer and UBSan, run in a subprocess on
the record faults decode_records must decline, on valid records, and on short
sga and pga runs compared with the Python loops, which exercise breed and
random_tours as well. Any report of either sanitizer aborts the subprocess."""

import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

from mrtsp import _xover

TESTS = Path(__file__).resolve().parent

SCRIPT = """
import importlib.machinery
import importlib.util
import sys

import numpy as np

from mrtsp import ga
from mrtsp.codec import decode_chromosome
from mrtsp.ga import GaParams, run_sga
from mrtsp.island import IslandParams, run_pga
from mrtsp.tsplib import Instance, random_instance
from test_codec import good_records, record_faults

loader = importlib.machinery.ExtensionFileLoader("_xover", sys.argv[1])
kernel = importlib.util.module_from_spec(importlib.util.spec_from_loader("_xover", loader))
loader.exec_module(kernel)

for name, values in record_faults(key=1):
    assert kernel.decode_records(values, 1) is None, name
for n in (1, 10, 300):
    values = good_records(5, n=n, count=4, seed=n)
    decoded = [decode_chromosome(value) for value in values]
    assert kernel.decode_records(values, 5) == \\
        ([d.genes for d in decoded], [d.length for d in decoded]), n


def runs(solve):
    ga._KERNEL = kernel
    compiled = solve()
    ga._KERNEL = None
    looped = solve()
    assert (compiled.best_length, compiled.best_tour, compiled.trajectory) == \\
        (looped.best_length, looped.best_tour, looped.trajectory)


runs(lambda: run_pga(random_instance(40, (1, 100), seed=3),
                     IslandParams(num_islands=3, migration_interval=3,
                                  ga=GaParams(population_size=12, mutation_prob=0.2),
                                  max_total_generations=9, convergence_patience=None),
                     master_seed=4))
wide = Instance("wide", 300, np.random.default_rng(5).integers(1, 10**12, (300, 300)))
runs(lambda: run_sga(wide, GaParams(population_size=6, mutation_prob=0.3), 2, seed=6))
print("clean")
"""


def test_kernel_runs_clean_under_address_and_undefined_behaviour_sanitizers(tmp_path):
    include = Path(sysconfig.get_paths()["include"])
    if shutil.which("cc") is None or not (include / "Python.h").exists():
        pytest.skip("no cc or no Python.h")
    libasan = subprocess.run(["cc", "-print-file-name=libasan.so"], capture_output=True,
                             text=True).stdout.strip()
    if not os.path.isabs(libasan) or not os.path.exists(libasan):
        pytest.skip("no libasan")
    library = tmp_path / "_xover_sanitized.so"
    build = subprocess.run(["cc", "-O1", "-g", "-fsanitize=address,undefined",
                            "-fno-omit-frame-pointer", "-fno-sanitize-recover=all", "-shared",
                            "-fPIC", "-I", str(include), "-o", str(library), str(_xover.SOURCE)],
                           capture_output=True, text=True, timeout=120)
    assert build.returncode == 0, build.stderr
    env = {**os.environ, "LD_PRELOAD": libasan, "ASAN_OPTIONS": "detect_leaks=0",
           "PYTHONMALLOC": "malloc",  # every object allocated where ASan watches it
           "PYTHONPATH": os.pathsep.join([str(TESTS.parent / "src"), str(TESTS)])}
    run = subprocess.run([sys.executable, "-c", SCRIPT, str(library)], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0 and run.stdout.strip() == "clean", run.stderr[-4000:]
