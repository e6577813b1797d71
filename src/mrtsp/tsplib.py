"""TSPLIB instance loading.

Supports EXPLICIT/FULL_MATRIX (the asymmetric instances this project targets)
and EUC_2D coordinate files. Headers are parsed leniently (unknown keys such
as COMMENT are skipped), sections strictly: the weight section must contain
exactly N*N numeric tokens and nothing numeric may trail it before EOF.
Numbers are read as float64, so weights, coordinates, node indexes and
DIMENSION must be finite, and weights and EUC_2D distances below 2**53,
where every integer is exact. Every rejection is a ParseError.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterator

import numpy as np


class ParseError(ValueError):
    """Malformed TSPLIB input. Carries the offending line number and keyword."""

    def __init__(self, message: str, *, line: int | None = None, keyword: str | None = None):
        detail = message
        if keyword is not None:
            detail += f" (keyword {keyword}"
            detail += f", line {line})" if line is not None else ")"
        elif line is not None:
            detail += f" (line {line})"
        super().__init__(detail)
        self.line = line
        self.keyword = keyword


class MissingKeywordError(ParseError):
    pass


class UnsupportedFormatError(ParseError):
    pass


class TokenCountError(ParseError):
    pass


class TokenValueError(ParseError):
    pass


@dataclass(frozen=True, eq=False)
class Instance:
    """A TSP instance as an N x N matrix of directed edge weights.

    distances[i][j] is the cost of travelling i -> j; asymmetry is allowed.
    Diagonal entries are stored as read but never used by tour evaluation.
    """

    name: str
    dimension: int
    distances: np.ndarray
    known_optimum: float | None = None

    def __post_init__(self):
        n = self.dimension
        if n < 2:
            raise ValueError(f"dimension must be >= 2, got {n}")
        if self.distances.shape != (n, n):
            raise ValueError(f"distance matrix must be {n}x{n}, got {self.distances.shape}")
        if not np.all(np.isfinite(self.distances)):
            raise ValueError("distance matrix has non-finite entries")
        if np.any(self.distances < 0):
            raise ValueError("distance matrix has negative entries")
        self.distances.setflags(write=False)

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.distances.setflags(write=False)  # a pickled array loads writable

    @functools.cached_property
    def rows(self) -> list:
        """Distance matrix as nested Python lists, built on first use: the
        Python GA loops read it, where numpy scalar indexing is slow."""
        return self.distances.tolist()

    @functools.cached_property
    def max_tour_length(self):
        """An upper bound on any tour's length, computed on first use: a tour
        takes dimension edges and no diagonal entry, so dimension times the
        largest off-diagonal weight, as an exact Python number."""
        n = self.dimension
        # the flat matrix past entry 0, as n - 1 rows of n + 1, has the diagonal in its last column
        return n * self.distances.ravel()[1:].reshape(n - 1, n + 1)[:, :n].max().item()

    def with_known_optimum(self, value: float | None) -> "Instance":
        return Instance(self.name, self.dimension, np.array(self.distances), value)


# float64 holds every integer below this exactly; a weight at or above it may
# already have been rounded on reading
EXACT_LIMIT = 2**53


def _as_matrix(values: list, n: int) -> np.ndarray:
    arr = np.array(values, dtype=np.float64).reshape(n, n)
    bad = ~(np.abs(arr) < EXACT_LIMIT)  # NaN fails the comparison too
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise TokenValueError(f"weight {arr[i, j]} at row {i + 1}, column {j + 1} is not a "
                              f"finite number below 2**53", keyword="EDGE_WEIGHT_SECTION")
    if np.all(arr == np.floor(arr)):
        return arr.astype(np.int64)
    return arr


def _numeric(token: str) -> float | None:
    try:
        return float(token)
    except ValueError:
        return None


def _iter_lines(source: str | IO[str]) -> Iterator[tuple[int, str]]:
    text = source if isinstance(source, str) else source.read()
    for idx, line in enumerate(text.splitlines(), start=1):
        yield idx, line


_HEADER_KEYS = {
    "NAME", "TYPE", "COMMENT", "DIMENSION", "EDGE_WEIGHT_TYPE", "EDGE_WEIGHT_FORMAT",
    "DISPLAY_DATA_TYPE", "NODE_COORD_TYPE", "CAPACITY",
}


def parse_instance(source: str | IO[str]) -> Instance:
    """Parse TSPLIB text into an Instance.

    Accepts EDGE_WEIGHT_TYPE EXPLICIT (EDGE_WEIGHT_FORMAT FULL_MATRIX, tokens
    row-major) or EUC_2D (NODE_COORD_SECTION, distances rounded to the nearest
    integer). Anything else raises UnsupportedFormatError.
    """
    name = ""
    dimension: int | None = None
    ew_type: str | None = None
    ew_format: str | None = None
    matrix: np.ndarray | None = None
    coords: list[tuple[float, float]] | None = None

    lines = _iter_lines(source)
    for lineno, raw in lines:
        stripped = raw.strip()
        if not stripped:
            continue
        key, _, value = stripped.partition(":")
        key = key.strip().upper()
        value = value.strip()

        if key == "EOF":
            break
        if key == "NAME":
            name = value
        elif key == "DIMENSION":
            num = _numeric(value)
            if num is None or not num.is_integer() or not 2 <= num < EXACT_LIMIT:
                raise TokenValueError(f"DIMENSION value {value!r} is not an integer in [2, 2**53)",
                                      line=lineno, keyword="DIMENSION")
            dimension = int(num)
        elif key == "EDGE_WEIGHT_TYPE":
            ew_type = value.upper()
        elif key == "EDGE_WEIGHT_FORMAT":
            ew_format = value.upper()
        elif key == "EDGE_WEIGHT_SECTION":
            if dimension is None:
                raise MissingKeywordError("DIMENSION must appear before EDGE_WEIGHT_SECTION",
                                          line=lineno, keyword="DIMENSION")
            if ew_type != "EXPLICIT":
                raise UnsupportedFormatError(
                    f"EDGE_WEIGHT_SECTION requires EDGE_WEIGHT_TYPE EXPLICIT, got {ew_type!r}",
                    line=lineno, keyword="EDGE_WEIGHT_TYPE")
            if ew_format not in (None, "FULL_MATRIX"):
                raise UnsupportedFormatError(
                    f"unsupported EDGE_WEIGHT_FORMAT {ew_format!r}; only FULL_MATRIX is supported",
                    line=lineno, keyword="EDGE_WEIGHT_FORMAT")
            matrix = _read_full_matrix(lines, dimension)
        elif key == "NODE_COORD_SECTION":
            if dimension is None:
                raise MissingKeywordError("DIMENSION must appear before NODE_COORD_SECTION",
                                          line=lineno, keyword="DIMENSION")
            if ew_type != "EUC_2D":
                raise UnsupportedFormatError(
                    f"NODE_COORD_SECTION requires EDGE_WEIGHT_TYPE EUC_2D, got {ew_type!r}",
                    line=lineno, keyword="EDGE_WEIGHT_TYPE")
            coords = _read_coords(lines, dimension)
        elif key in _HEADER_KEYS:
            continue
        else:
            # numeric junk outside any section is a structural error
            if _numeric(key.split()[0] if key else "") is not None:
                raise TokenCountError(f"unexpected numeric data outside a section: {stripped!r}",
                                      line=lineno, keyword="EDGE_WEIGHT_SECTION")

    if dimension is None:
        raise MissingKeywordError("missing DIMENSION", keyword="DIMENSION")
    if ew_type is None:
        raise MissingKeywordError("missing EDGE_WEIGHT_TYPE", keyword="EDGE_WEIGHT_TYPE")
    if matrix is None and coords is None:
        if ew_type == "EXPLICIT":
            raise MissingKeywordError("missing EDGE_WEIGHT_SECTION", keyword="EDGE_WEIGHT_SECTION")
        if ew_type == "EUC_2D":
            raise MissingKeywordError("missing NODE_COORD_SECTION", keyword="NODE_COORD_SECTION")
        raise UnsupportedFormatError(f"unsupported EDGE_WEIGHT_TYPE {ew_type!r}",
                                     keyword="EDGE_WEIGHT_TYPE")
    if coords is not None:
        matrix = _euclidean_matrix(coords)
    assert matrix is not None
    try:
        return Instance(name=name, dimension=dimension, distances=matrix)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def _read_full_matrix(lines: Iterator[tuple[int, str]], n: int) -> np.ndarray:
    """Consume exactly n*n numeric tokens, row-major, then require EOF/keyword."""
    need = n * n
    values: list[float] = []
    last_line = None
    for lineno, raw in lines:
        last_line = lineno
        stripped = raw.strip()
        if not stripped:
            continue
        first = stripped.split()[0]
        if _numeric(first) is None:
            # hit the next keyword (EOF etc.) before enough tokens
            if len(values) < need:
                raise TokenCountError(
                    f"EDGE_WEIGHT_SECTION ended after {len(values)} tokens, expected {need}",
                    line=lineno, keyword="EDGE_WEIGHT_SECTION")
            break
        for token in stripped.split():
            num = _numeric(token)
            if num is None:
                raise TokenValueError(f"non-numeric token {token!r} in EDGE_WEIGHT_SECTION",
                                      line=lineno, keyword="EDGE_WEIGHT_SECTION")
            values.append(num)
        if len(values) > need:
            raise TokenCountError(
                f"EDGE_WEIGHT_SECTION holds more than {need} tokens",
                line=lineno, keyword="EDGE_WEIGHT_SECTION")
    if len(values) < need:
        raise TokenCountError(
            f"EDGE_WEIGHT_SECTION ended after {len(values)} tokens, expected {need}",
            line=last_line, keyword="EDGE_WEIGHT_SECTION")
    return _as_matrix(values, n)


def _read_coords(lines: Iterator[tuple[int, str]], n: int) -> list[tuple[float, float]]:
    # filled as lines arrive: DIMENSION alone must not size an allocation
    coords: dict[int, tuple[float, float]] = {}
    for lineno, raw in lines:
        stripped = raw.strip()
        if not stripped:
            continue
        parts = stripped.split()
        if _numeric(parts[0]) is None:
            break
        if len(parts) != 3:
            raise TokenValueError(f"NODE_COORD_SECTION line needs 'index x y', got {stripped!r}",
                                  line=lineno, keyword="NODE_COORD_SECTION")
        idx_f, x, y = (_numeric(p) for p in parts)
        if idx_f is None or x is None or y is None:
            raise TokenValueError(f"non-numeric token in NODE_COORD_SECTION: {stripped!r}",
                                  line=lineno, keyword="NODE_COORD_SECTION")
        if not (math.isfinite(x) and math.isfinite(y)):
            raise TokenValueError(f"non-finite coordinate in NODE_COORD_SECTION: {stripped!r}",
                                  line=lineno, keyword="NODE_COORD_SECTION")
        idx = int(idx_f) - 1 if idx_f.is_integer() else -1
        if idx < 0 or idx >= n or idx in coords:
            raise TokenValueError(f"bad node index {parts[0]} in NODE_COORD_SECTION",
                                  line=lineno, keyword="NODE_COORD_SECTION")
        coords[idx] = (x, y)
        if len(coords) == n:
            break
    if len(coords) < n:
        raise TokenCountError(f"NODE_COORD_SECTION has {len(coords)} nodes, expected {n}",
                              keyword="NODE_COORD_SECTION")
    return [coords[i] for i in range(n)]


def _euclidean_matrix(coords: list[tuple[float, float]]) -> np.ndarray:
    # TSPLIB nint() rounding: floor(d + 0.5), with math.hypot's rounding
    mat = np.floor(np.array([[math.hypot(xi - xj, yi - yj) for xj, yj in coords]
                             for xi, yi in coords]) + 0.5)
    if not np.all(mat < EXACT_LIMIT):  # an overflowed hypot is inf
        raise TokenValueError(f"EUC_2D distance {mat.max()} is not below 2**53",
                              keyword="NODE_COORD_SECTION")
    return mat.astype(np.int64)


def format_instance(instance: Instance) -> str:
    """Render an Instance as EXPLICIT/FULL_MATRIX TSPLIB text.

    parse_instance(format_instance(x)) reproduces the matrix exactly.
    """
    out = [
        f"NAME: {instance.name}",
        "TYPE: ATSP",
        f"DIMENSION: {instance.dimension}",
        "EDGE_WEIGHT_TYPE: EXPLICIT",
        "EDGE_WEIGHT_FORMAT: FULL_MATRIX",
        "EDGE_WEIGHT_SECTION",
    ]
    for row in instance.distances:
        out.append(" ".join(repr(v) if isinstance(v, float) else str(v) for v in row.tolist()))
    out.append("EOF")
    return "\n".join(out) + "\n"


def random_instance(n: int, weight_range: tuple[int, int], seed: int) -> Instance:
    """Seeded random asymmetric instance; off-diagonal weights drawn uniformly."""
    if not 2 <= n <= 64:
        raise ValueError(f"n must be in [2, 64], got {n}")
    lo, hi = weight_range
    if lo < 0 or hi < lo:
        raise ValueError(f"weight range must be a non-empty range of non-negative ints, got {weight_range}")
    rng = random.Random(seed)
    mat = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            if i != j:
                mat[i, j] = rng.randint(lo, hi)
    return Instance(name=f"rand{n}s{seed}", dimension=n, distances=mat)


def load_registry(path: Path | str) -> dict[str, float]:
    """Read a 'name value' registry of known optima; '#' starts a comment."""
    registry: dict[str, float] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        value = _numeric(parts[1]) if len(parts) == 2 else None
        if value is None or not math.isfinite(value):
            raise ParseError(f"registry line must be 'name value', got {raw!r}", line=lineno)
        registry[parts[0]] = int(value) if value == int(value) else value
    return registry


def save_registry(registry: dict[str, float], path: Path | str) -> None:
    """Write the registry sorted by name; rewriting the same mapping is idempotent."""
    lines = [f"{name} {value}" for name, value in sorted(registry.items())]
    Path(path).write_text("\n".join(lines) + "\n")


def load_instance(path: Path | str, registry_path: Path | str | None = None) -> Instance:
    """Parse an instance file; fill known_optimum from a registry when available.

    With no explicit registry path, an optima.txt next to the instance file is
    used if present.
    """
    path = Path(path)
    with path.open() as fh:
        instance = parse_instance(fh)
    if not instance.name:
        instance = Instance(path.stem, instance.dimension, np.array(instance.distances))
    if registry_path is None:
        candidate = path.parent / "optima.txt"
        registry_path = candidate if candidate.exists() else None
    if registry_path is not None:
        registry = load_registry(registry_path)
        if instance.name in registry:
            instance = instance.with_known_optimum(registry[instance.name])
    return instance
