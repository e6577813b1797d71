"""Build and load the compiled kernel, the extension module `_xover.c`.

`evolve` runs a run's generations in one call, and `random_tours` an
initial population, for `ga.evolve` and `ga.random_population`; they run
their Python loops instead for float weights, an rng that is not
`ga._plain`, genes that are not tuples, and tour lengths of 2**64 or more.
`evolve_island` runs an island's reduce task for `island.EvolveReducer`,
from its record values to its output values, when the rng is `ga._plain`;
the reducer runs its reference path (decode, `ga.evolve`, encode) instead
when it declines: for records `codec.decode_chromosome` rejects, whose
pop_id is not the key or whose N is not the instance's, fewer than 2
members or no more than elite_count after truncation, float weights and
tour lengths of 2**64 or more. `held_karp` runs `oracle.held_karp`'s DP,
which runs its numpy DP instead when the kernel declines the weights.

The module is compiled once with `cc -O2 -shared -fPIC` against the
interpreter's headers into the package's `__pycache__`, under a name that
carries the source's sha256 and the interpreter's extension suffix, and
renamed into place so that a concurrent build never loads a half-written
file; a build removes the libraries of earlier sources from the directory.
`load` returns None, and the callers run only their Python loops, when there is
no compiler or no `Python.h`, the build or the load fails, or another user
could write the cache directory.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.machinery
import importlib.util
import os
import re
import subprocess
import sysconfig
import tempfile
from pathlib import Path

SOURCE = Path(__file__).with_name("_xover.c")


def _private(directory: Path) -> bool:
    """Only the current user (or root) can write to the directory."""
    st = directory.stat()
    return st.st_uid in (0, os.getuid()) and not st.st_mode & 0o022


def _compile(source: Path, target: Path) -> None:
    fd, tmp = tempfile.mkstemp(dir=target.parent, suffix=".tmp")
    os.close(fd)
    try:
        include = sysconfig.get_paths()["include"]
        subprocess.run(["cc", "-O2", "-shared", "-fPIC", "-I", include, "-o", tmp, str(source)],
                       check=True, capture_output=True, timeout=120)
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _remove_stale(target: Path, stem: str, suffix: str) -> None:
    """Best effort: delete the libraries built from other versions of the source."""
    stale = re.compile(re.escape(stem) + "-[0-9a-f]{16}" + re.escape(suffix))
    try:
        names = os.listdir(target.parent)
    except OSError:
        return
    for name in names:
        if name != target.name and stale.fullmatch(name):
            with contextlib.suppress(OSError):
                os.unlink(target.parent / name)


def load(source: Path = SOURCE, cache: Path | None = None):
    """The kernel module, or None when it cannot be built or loaded.

    evolve(genes, lengths, distances, threshold, retries, crossover_prob,
    mutation_prob, elite_count, generations, patience, target, rng) ->
    (genes, lengths, bests) is ga.evolve's loop, the population kept in C
    arrays. It returns None, before it touches rng, unless distances is a
    C-ordered int64 matrix of n >= 2 cities, genes a list of p >= 2 tuples
    permuting 0..n-1, lengths p ints below 2**64, 0 < elite_count < p,
    generations >= 0, retries >= 1, patience None or an int and target
    None, an int or a float. random_tours(count, distances, rng) -> (tours,
    lengths) shuffles count tours as random.shuffle shuffles list(range(n))
    and sums them; it returns None unless distances is such a matrix. Both
    read rng's Mersenne Twister with _random.Random.getstate, draw from it
    as random() and getrandbits() do, and write it back with setstate, so
    that outputs and rng state equal the loops'. Lengths are summed in 64
    bits, the record layout's width: when a sum passes 2**64 - 1, either
    returns None, its rng untouched, as when it declines its inputs.

    evolve_island(values, key, islands, size, distances, threshold, retries,
    crossover_prob, mutation_prob, elite_count, generations, rng) -> list of
    bytes is EvolveReducer's task: it decodes values as decode_chromosome
    does, keeps the size shortest records when there are more (ga.shortest's
    order), runs evolve's loop over the p = min(len(values), size) members
    for generations generations and returns their records keyed to key,
    then the first shortest one re-addressed to each island below islands
    but key, in ascending order, each value byte for byte what
    encode_chromosome and with_pop_id pack. It returns None, before it
    touches rng, unless distances and the numbers are as evolve takes them,
    key and islands are ints below 2**32, values is a list or tuple of bytes
    that decode_chromosome accepts, each with pop_id key and N equal to n,
    and 0 < elite_count < p; and, rng untouched, when a length sum passes
    2**64 - 1. Like evolve and random_tours, it takes rng to be one that
    ga._plain accepts: its callers check.

    held_karp(distances) -> (length, tour) runs oracle.held_karp's DP with
    the numpy DP's tie rule: the optimum directed tour's length as a float,
    and the tour from city 0 as a tuple of ints, equal to the numpy DP's. Its
    tables are indexed by the visited set without city 0, 9 * 2**(n-1) * n
    bytes. It returns None, before it allocates anything, unless distances
    is a C-ordered n x n float64 matrix with 2 <= n <= 18 and no NaN or -inf
    entry, and raises MemoryError when the tables cannot be allocated.
    """
    cache = cache if cache is not None else source.parent / "__pycache__"
    try:
        digest = hashlib.sha256(source.read_bytes()).hexdigest()[:16]
        cache.mkdir(mode=0o700, exist_ok=True)
        if not _private(cache):
            return None
        suffix = importlib.machinery.EXTENSION_SUFFIXES[0]  # names the interpreter's ABI
        target = cache / f"{source.stem}-{digest}{suffix}"
        if not target.exists():
            _compile(source, target)
            _remove_stale(target, source.stem, suffix)
        loader = importlib.machinery.ExtensionFileLoader(source.stem, str(target))
        module = importlib.util.module_from_spec(importlib.util.spec_from_loader(source.stem, loader))
        loader.exec_module(module)
    except (OSError, ImportError, subprocess.SubprocessError):
        return None
    return module
