"""Build and load the compiled GA kernel, the extension module `_xover.c`.

The module is compiled once with `cc -O2 -shared -fPIC` against the
interpreter's headers into the package's `__pycache__`, under a name that
carries the source's sha256 and the interpreter's extension suffix, and
renamed into place so that a concurrent build never loads a half-written
file; a build removes the libraries of earlier sources from the directory.
`load` returns None, and `ga.next_generation`, `ga.greedy_crossover`,
`ga.select_parents` and `ga.random_population` keep their Python loops, when
there is no compiler or no `Python.h`, the build or the load fails, or another
user could write the cache directory.
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

    greedy_crossover(genes_a, genes_b, distances, getrandbits) -> (child, length)
    takes the parents' gene tuples, the n x n weights and a random.Random's
    bound getrandbits, from which it draws dead ends as randrange would. It
    returns None, having drawn nothing, unless distances is a C-ordered int64
    array; the length it returns is exact for any non-negative weights.
    Parents that do not permute 0..n-1 raise ValueError.

    canonical_rows(genes) -> bytes takes a list of P gene tuples and returns
    them as P rows of n bytes, each rotated to start at city 0, or None unless
    each permutes 0..n-1 for one n <= 256.
    select_pair(canon, n, order, cum, threshold, retries, random) -> (ia, ib)
    runs select_parents' retry loop over those rows and a Ranking's order and
    cum, drawing through the rng's bound random method, and returns the two
    member indexes. It returns None, having drawn nothing, unless there are at
    least two rows of n bytes and retries >= 1.

    breed(genes, lengths, order, cum, distances, threshold, retries,
    crossover_prob, mutation_prob, count, random, getrandbits) -> (children,
    lengths) makes count children as next_generation's loop does, from the
    members' gene tuples and lengths, a Ranking's order and cum and the rng's
    bound random and getrandbits. A copy that does not mutate is the parent's
    own tuple and length. It returns None, having drawn nothing, unless
    distances is a C-ordered int64 matrix of 2 <= n <= 256 cities and each of
    the P >= 2 members' genes is a tuple permuting 0..n-1.

    random_tours(count, distances, getrandbits) -> (tours, lengths) makes
    count gene tuples as random.shuffle shuffles list(range(n)), with the
    same getrandbits calls, and their lengths. It returns None, having drawn
    nothing, unless distances is a C-ordered int64 matrix of n >= 2 cities.

    An exception raised by getrandbits or random reaches the caller.
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
