"""Fixed binary layout for chromosomes shipped through the record store.

All fields little-endian:

    pop_id   u32
    N        u32   (city count)
    genes    N x u32
    length   u64   (tour length; integer edge weights only)

Decoding is strict: short buffers, trailing bytes, a city count of zero,
out-of-range genes and duplicate genes are each rejected with a distinct
error so a corrupted record never turns into a silently wrong tour.

decode_chromosome is the reference for the kernel's batch decoder,
`_xover.decode_records`, and its fallback: island.decode_island decodes
record by record here whenever the batch decoder is absent or declines, so
these errors name the first faulty record either way.
"""

from __future__ import annotations

import struct
from typing import NamedTuple, Sequence


class CodecError(ValueError):
    pass


class TruncatedBufferError(CodecError):
    pass


class GeneRangeError(CodecError):
    pass


class DuplicateGeneError(CodecError):
    pass


_HEADER = struct.Struct("<II")
_LENGTH = struct.Struct("<Q")
_RECORDS: dict[int, struct.Struct] = {}  # the whole layout per N, built at first use

MAX_LENGTH = 2**64 - 1


class DecodedChromosome(NamedTuple):
    pop_id: int
    genes: tuple[int, ...]
    length: int


def encode_chromosome(genes: Sequence[int], length: int, pop_id: int) -> bytes:
    n = len(genes)
    if n == 0:
        raise CodecError("cannot encode an empty tour")
    if not 0 <= pop_id < 2**32:
        raise CodecError(f"pop_id {pop_id} does not fit an unsigned 32-bit field")
    if isinstance(length, float):
        if not length.is_integer():
            raise CodecError(f"tour length {length} is not an integer; "
                             "the record layout carries integer lengths only")
        length = int(length)
    if not 0 <= length <= MAX_LENGTH:
        raise CodecError(f"tour length {length} does not fit an unsigned 64-bit field")
    record = _RECORDS.get(n)
    if record is None:
        record = _RECORDS[n] = struct.Struct(f"<II{n}IQ")
    try:
        return record.pack(pop_id, n, *genes, length)
    except struct.error:
        try:  # a gene fault is a CodecError; a pop_id or length that is no int stays a struct.error
            struct.pack(f"<{n}I", *genes)
        except struct.error as exc:
            raise CodecError(f"genes are not unsigned 32-bit integers: {exc}") from None
        raise


def with_pop_id(data: bytes, pop_id: int) -> bytes:
    """An encoded chromosome re-addressed to pop_id: only the leading u32 changes."""
    if not 0 <= pop_id < 2**32:
        raise CodecError(f"pop_id {pop_id} does not fit an unsigned 32-bit field")
    return pop_id.to_bytes(4, "little") + data[4:]


def peek_length(data: bytes) -> int:
    """Tour length from the fixed tail field, skipping gene validation.

    Scanning a whole population for its best member only needs lengths;
    full decoding is deferred to the records that win.
    """
    if len(data) < _HEADER.size:
        raise TruncatedBufferError(f"buffer of {len(data)} bytes is shorter than the header")
    _, n = _HEADER.unpack_from(data, 0)
    expected = _HEADER.size + 4 * n + _LENGTH.size
    if len(data) < expected:
        raise TruncatedBufferError(
            f"buffer of {len(data)} bytes is shorter than the {expected} "
            f"bytes implied by N={n}")
    return _LENGTH.unpack_from(data, expected - _LENGTH.size)[0]


def decode_chromosome(data: bytes) -> DecodedChromosome:
    if len(data) < _HEADER.size:
        raise TruncatedBufferError(f"buffer of {len(data)} bytes is shorter than the header")
    pop_id, n = _HEADER.unpack_from(data, 0)
    expected = _HEADER.size + 4 * n + _LENGTH.size
    if len(data) < expected:
        raise TruncatedBufferError(
            f"buffer of {len(data)} bytes is shorter than the {expected} "
            f"bytes implied by N={n}")
    if len(data) > expected:
        raise CodecError(f"buffer of {len(data)} bytes has trailing data beyond "
                         f"the {expected} bytes implied by N={n}")
    if n == 0:
        raise CodecError("header says N=0; a tour has at least one city")
    genes = struct.unpack_from(f"<{n}I", data, _HEADER.size)
    if max(genes) >= n or len(set(genes)) != n:
        # find the first bad gene, to name it and its fault
        seen = bytearray(n)
        for gene in genes:
            if gene >= n:
                raise GeneRangeError(f"gene {gene} out of range for N={n}")
            if seen[gene]:
                raise DuplicateGeneError(f"gene {gene} appears more than once")
            seen[gene] = 1
    (length,) = _LENGTH.unpack_from(data, expected - _LENGTH.size)
    return DecodedChromosome(pop_id, genes, length)
