"""Build and load the compiled kernel, the extension module `_xover.c`.

Its entries are `evolve` and `random_tours`, for `ga.evolve` and
`ga.random_population`; `evolve_island`, for `island.EvolveReducer`; and
`held_karp`, for `oracle.held_karp`. The comment beside each function in
`_xover.c` states its contract: what it returns, the inputs it declines by
returning None, and, for the GA entries, what `ga._kernel_may_run` checks
before any call. A caller runs its Python loop for what the kernel declines.

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
    """The kernel module, or None when it cannot be built or loaded. Its
    entries, evolve, random_tours, evolve_island and held_karp, are
    documented beside their functions in _xover.c."""
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
