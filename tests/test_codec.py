import random
import struct

import pytest

from mrtsp.codec import (CodecError, DuplicateGeneError, GeneRangeError,
                         TruncatedBufferError, decode_chromosome,
                         encode_chromosome, peek_length, with_pop_id)

GOLDEN = bytes.fromhex(
    "00000000"          # pop_id 0
    "02000000"          # N 2
    "00000000" "01000000"  # genes 0, 1
    "0a00000000000000"  # length 10
)


def test_golden_layout():
    buf = encode_chromosome([0, 1], length=10, pop_id=0)
    assert len(buf) == 24
    assert buf == GOLDEN
    decoded = decode_chromosome(buf)
    assert decoded.pop_id == 0
    assert decoded.genes == (0, 1)
    assert decoded.length == 10


def test_round_trip_1000_random_chromosomes():
    rng = random.Random(2024)
    for _ in range(1000):
        n = rng.randint(2, 60)
        genes = list(range(n))
        rng.shuffle(genes)
        length = rng.randrange(2**64)
        pop_id = rng.randrange(2**32)
        buf = encode_chromosome(genes, length, pop_id)
        decoded = decode_chromosome(buf)
        assert decoded == (pop_id, tuple(genes), length)
        assert encode_chromosome(decoded.genes, decoded.length, decoded.pop_id) == buf


def test_every_truncation_rejected():
    buf = encode_chromosome([2, 0, 1, 3], length=77, pop_id=5)
    for cut in range(len(buf)):
        with pytest.raises(TruncatedBufferError):
            decode_chromosome(buf[:cut])


def test_trailing_bytes_rejected():
    with pytest.raises(CodecError):
        decode_chromosome(GOLDEN + b"\x00")


def test_gene_out_of_range():
    buf = struct.pack("<II", 0, 2) + struct.pack("<II", 0, 2) + struct.pack("<Q", 9)
    with pytest.raises(GeneRangeError):
        decode_chromosome(buf)


def test_duplicate_gene():
    buf = struct.pack("<II", 0, 2) + struct.pack("<II", 1, 1) + struct.pack("<Q", 9)
    with pytest.raises(DuplicateGeneError):
        decode_chromosome(buf)


def test_error_hierarchy():
    for exc in (TruncatedBufferError, GeneRangeError, DuplicateGeneError):
        assert issubclass(exc, CodecError)
    assert issubclass(CodecError, ValueError)


def test_encode_validation():
    with pytest.raises(CodecError):
        encode_chromosome([], length=0, pop_id=0)
    with pytest.raises(CodecError):
        encode_chromosome([0, 1], length=-1, pop_id=0)
    with pytest.raises(CodecError):
        encode_chromosome([0, 1], length=2**64, pop_id=0)
    with pytest.raises(CodecError):
        encode_chromosome([0, 1], length=1, pop_id=2**32)
    with pytest.raises(CodecError):
        encode_chromosome([0, 1], length=1.5, pop_id=0)


def test_encode_accepts_integral_float_length():
    assert encode_chromosome([1, 0], 10.0, 3) == encode_chromosome([1, 0], 10, 3)


def test_peek_length_matches_decode():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(2, 20)
        genes = list(range(n))
        rng.shuffle(genes)
        buf = encode_chromosome(genes, rng.randrange(10**9), rng.randrange(100))
        assert peek_length(buf) == decode_chromosome(buf).length
    with pytest.raises(TruncatedBufferError):
        peek_length(b"\x01\x02")


def test_with_pop_id_matches_a_fresh_encode():
    rng = random.Random(13)
    for _ in range(50):
        n = rng.randint(1, 20)
        genes = list(range(n))
        rng.shuffle(genes)
        length = rng.randrange(2**64)
        buf = encode_chromosome(genes, length, rng.randrange(2**32))
        for pop_id in (0, rng.randrange(2**32), 2**32 - 1):
            assert with_pop_id(buf, pop_id) == encode_chromosome(genes, length, pop_id)
    for pop_id in (-1, 2**32):
        with pytest.raises(CodecError, match="pop_id"):
            with_pop_id(GOLDEN, pop_id)
