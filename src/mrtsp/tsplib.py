"""TSPLIB instance loading.

Supports EXPLICIT/FULL_MATRIX (the asymmetric instances this project targets)
and EUC_2D coordinate files. The text is read in one pass. A section's data
are the lines that start with a number; the first line that does not ends
the section and is read as a keyword line, and nothing after EOF is read.
Headers are parsed leniently (unknown keys such as COMMENT are skipped),
sections strictly: the weight section must contain exactly N*N numeric
tokens, for the DIMENSION in force at its keyword, a coordinate section ends
at its N-th node, and no numeric line may stand outside a section.
Numbers are read as float64, so weights, coordinates, node indexes and
DIMENSION must be finite, and weights and EUC_2D distances below 2**53,
where every integer is exact. Every rejection is a ParseError.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, replace
from pathlib import Path

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


# the section keywords, each with the EDGE_WEIGHT_TYPE it requires
_SECTION_TYPES = {"EDGE_WEIGHT_SECTION": "EXPLICIT", "NODE_COORD_SECTION": "EUC_2D"}


def parse_instance(text: str) -> Instance:
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
    section: str | None = None  # the keyword of the section whose data lines may follow
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts:
            continue
        if section is not None:
            nums = _leading_numbers(parts)
            if nums and section == "EDGE_WEIGHT_SECTION":
                if len(nums) < len(parts):
                    raise TokenValueError(f"non-numeric token {parts[len(nums)]!r} in {section}",
                                          line=lineno, keyword=section)
                weights += nums
                if len(weights) > n * n:
                    raise TokenCountError(f"{section} holds more than {n * n} tokens",
                                          line=lineno, keyword=section)
                continue
            if nums:
                _add_node(nodes, nums, parts, raw, n, lineno)
                if len(nodes) == n:
                    section, coords = None, [nodes[i] for i in range(n)]
                continue
            # not data: the section ends, and this line is read as a keyword line
            matrix, section = _end_section(section, weights, nodes, n, lineno), None
        stripped = raw.strip()
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
        elif key in _SECTION_TYPES:
            if dimension is None:
                raise MissingKeywordError(f"DIMENSION must appear before {key}",
                                          line=lineno, keyword="DIMENSION")
            if ew_type != _SECTION_TYPES[key]:
                raise UnsupportedFormatError(
                    f"{key} requires EDGE_WEIGHT_TYPE {_SECTION_TYPES[key]}, got {ew_type!r}",
                    line=lineno, keyword="EDGE_WEIGHT_TYPE")
            if key == "EDGE_WEIGHT_SECTION" and ew_format not in (None, "FULL_MATRIX"):
                raise UnsupportedFormatError(
                    f"unsupported EDGE_WEIGHT_FORMAT {ew_format!r}; only FULL_MATRIX is supported",
                    line=lineno, keyword="EDGE_WEIGHT_FORMAT")
            # the data take the DIMENSION in force here; coordinates fill a dict
            # as lines arrive, so DIMENSION alone never sizes an allocation
            section, n, opened, weights, nodes = key, dimension, lineno, [], {}
        elif _numeric(key.split()[0] if key else "") is not None:
            # numeric junk outside any section is a structural error
            raise TokenCountError(f"unexpected numeric data outside a section: {stripped!r}",
                                  line=lineno)
    if section is not None:  # the text ended inside a section
        matrix = _end_section(section, weights, nodes, n, lineno if lineno > opened else None)

    if dimension is None:
        raise MissingKeywordError("missing DIMENSION", keyword="DIMENSION")
    if ew_type is None:
        raise MissingKeywordError("missing EDGE_WEIGHT_TYPE", keyword="EDGE_WEIGHT_TYPE")
    if matrix is None and coords is None:
        for key, required in _SECTION_TYPES.items():
            if ew_type == required:
                raise MissingKeywordError(f"missing {key}", keyword=key)
        raise UnsupportedFormatError(f"unsupported EDGE_WEIGHT_TYPE {ew_type!r}",
                                     keyword="EDGE_WEIGHT_TYPE")
    if coords is not None:
        matrix = _euclidean_matrix(coords)
    assert matrix is not None
    try:
        return Instance(name=name, dimension=dimension, distances=matrix)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def _leading_numbers(parts: list[str]) -> list[float]:
    """The tokens of parts, as floats, up to the first that is not a number."""
    nums = []
    for token in parts:
        try:
            nums.append(float(token))
        except ValueError:
            break
    return nums


def _add_node(nodes: dict[int, tuple[float, float]], nums: list[float], parts: list[str],
              raw: str, n: int, lineno: int) -> None:
    """Store the NODE_COORD_SECTION line raw, 'index x y', split into parts
    whose leading numbers are nums, in nodes by 0-based index."""
    if len(parts) != 3:
        problem = f"NODE_COORD_SECTION line needs 'index x y', got {raw.strip()!r}"
    elif len(nums) < 3:
        problem = f"non-numeric token in NODE_COORD_SECTION: {raw.strip()!r}"
    elif not (math.isfinite(nums[1]) and math.isfinite(nums[2])):
        problem = f"non-finite coordinate in NODE_COORD_SECTION: {raw.strip()!r}"
    else:
        idx = int(nums[0]) - 1 if nums[0].is_integer() else -1
        if 0 <= idx < n and idx not in nodes:
            nodes[idx] = (nums[1], nums[2])
            return
        problem = f"bad node index {parts[0]} in NODE_COORD_SECTION"
    raise TokenValueError(problem, line=lineno, keyword="NODE_COORD_SECTION")


def _end_section(section: str, weights: list[float], nodes: dict, n: int,
                 line: int | None) -> np.ndarray:
    """The weight matrix of a section whose data end before line; a coordinate
    section that gets here is short, since its n-th node ends it."""
    if section == "NODE_COORD_SECTION":
        raise TokenCountError(f"NODE_COORD_SECTION has {len(nodes)} nodes, expected {n}",
                              keyword=section)
    if len(weights) < n * n:
        raise TokenCountError(f"{section} ended after {len(weights)} tokens, expected {n * n}",
                              line=line, keyword=section)
    return _as_matrix(weights, n)


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
        out.append(" ".join(map(str, row.tolist())))
    out.append("EOF")
    return "\n".join(out) + "\n"


def random_instance(n: int, weight_range: tuple[int, int], seed: int) -> Instance:
    """Seeded random asymmetric instance; off-diagonal weights drawn uniformly."""
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


def load_instance(path: Path | str) -> Instance:
    """Parse an instance file; fill known_optimum from an optima.txt beside it, if present."""
    path = Path(path)
    instance = parse_instance(path.read_text())
    registry_path = path.parent / "optima.txt"
    registry = load_registry(registry_path) if registry_path.exists() else {}
    name = instance.name or path.stem
    return replace(instance, name=name, known_optimum=registry.get(name))
