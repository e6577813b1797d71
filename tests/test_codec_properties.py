"""Property tests for the chromosome codec: a corrupted encoding either fails
to decode with CodecError or decodes to a value that encodes back to it, and
the kernel's batch decoder agrees with decode_chromosome on valid records."""

import struct

import pytest
from hypothesis import example, given, settings, strategies as st

from mrtsp import ga
from mrtsp.codec import (MAX_LENGTH, CodecError, decode_chromosome,
                         encode_chromosome, peek_length)


@st.composite
def corrupted_encodings(draw):
    """A valid encoding with one byte flipped, cut short or extended, or
    raw bytes in its place."""
    n = draw(st.integers(1, 40))
    data = encode_chromosome(draw(st.permutations(range(n))),
                             draw(st.integers(0, MAX_LENGTH)),
                             draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["flip", "truncate", "append", "raw"]))
    if kind == "flip":
        i = draw(st.integers(0, len(data) - 1))
        return data[:i] + bytes([data[i] ^ draw(st.integers(1, 255))]) + data[i + 1:]
    if kind == "truncate":
        return data[:draw(st.integers(0, len(data) - 1))]
    if kind == "append":
        return data + draw(st.binary(min_size=1, max_size=16))
    return draw(st.binary(max_size=200))


@settings(max_examples=500, deadline=None)
@given(corrupted_encodings())
@example(struct.pack("<IIQ", 0, 0, 5))  # a header that says N=0
def test_corruption_raises_or_decodes_to_the_same_bytes(data):
    try:
        decoded = decode_chromosome(data)
    except CodecError:
        return
    assert encode_chromosome(decoded.genes, decoded.length, decoded.pop_id) == data
    assert decoded.length == peek_length(data)


@st.composite
def island_records(draw):
    """(key, records): 1 to 5 valid encodings of one N, each with pop_id key."""
    n = draw(st.integers(1, 300))  # past 256, where ints stop being cached
    key = draw(st.integers(0, 2**32 - 1))
    tours = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=5))
    return key, [encode_chromosome(tour, draw(st.integers(0, MAX_LENGTH)), key) for tour in tours]


@pytest.mark.skipif(ga._KERNEL is None, reason="the kernel cannot be built here")
@settings(max_examples=200, deadline=None)
@given(island_records())
def test_batch_decode_matches_decode_chromosome(records):
    key, values = records
    genes, lengths = ga._KERNEL.decode_records(values, key)
    assert [(key, tour, length) for tour, length in zip(genes, lengths)] == \
        [tuple(decode_chromosome(value)) for value in values]
