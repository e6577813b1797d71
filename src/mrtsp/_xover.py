"""Build and load the compiled greedy-crossover kernel, `_xover.c`.

The library is compiled once with `cc -O2 -shared -fPIC` into the package's
`__pycache__`, under a name that carries the source's sha256 and the
interpreter's extension suffix, and renamed into place so that a concurrent
build never loads a half-written file; a build removes the libraries of
earlier sources from the directory. `load` returns None, and
`ga.greedy_crossover` keeps its Python loop, when there is no compiler, the
build or the load fails, or another user could write the cache directory.
`matrix_address` decides which distance matrices the kernel may read.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import importlib.machinery
import os
import re
import subprocess
import tempfile
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("_xover.c")


def matrix_address(distances: np.ndarray) -> int:
    """Address of the weights when the kernel may read them, else 0: they
    must be C-ordered int64 and every tour's length must fit an int64
    (n * max weight < 2**63), because the kernel sums them in int64."""
    if (distances.dtype != np.int64 or not distances.flags.c_contiguous
            or len(distances) * int(distances.max()) >= 2**63):
        return 0
    return distances.ctypes.data


def _private(directory: Path) -> bool:
    """Only the current user (or root) can write to the directory."""
    st = directory.stat()
    return st.st_uid in (0, os.getuid()) and not st.st_mode & 0o022


def _compile(source: Path, target: Path) -> None:
    fd, tmp = tempfile.mkstemp(dir=target.parent, suffix=".tmp")
    os.close(fd)
    try:
        subprocess.run(["cc", "-O2", "-shared", "-fPIC", "-o", tmp, str(source)],
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
    """The kernel as a ctypes function, or None when it cannot be built or loaded.

    greedy_crossover(n, genes_a, genes_b, distances, getrandbits, child)
    -> length takes the parents' gene tuples, the address of the int64 n x n
    matrix, a random.Random's bound getrandbits, and a list of n items that
    it fills with the child. At a dead end it draws from getrandbits as
    randrange would. It runs holding the interpreter lock (PyDLL), so an
    exception it sets, or one raised by getrandbits, reaches the caller.
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
        kernel = ctypes.PyDLL(str(target)).greedy_crossover
    except (OSError, subprocess.SubprocessError):
        return None
    kernel.argtypes = [ctypes.c_int, ctypes.py_object, ctypes.py_object, ctypes.c_void_p,
                       ctypes.py_object, ctypes.py_object]
    kernel.restype = ctypes.c_longlong
    return kernel
