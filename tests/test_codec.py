import random
import struct

import pytest

from mrtsp.codec import (CodecError, DuplicateGeneError, GeneRangeError,
                         TruncatedBufferError, decode_chromosome,
                         encode_chromosome, peek_length)
from mrtsp.engine import EngineError
from mrtsp.island import decode_island

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


# -- an island's records, valid and faulty; decode_island, their decoder outside the kernel

def good_records(key, n=10, count=3, seed=0):
    rng = random.Random(seed)
    return [encode_chromosome(rng.sample(range(n), n), rng.randrange(1000, 2000), key)
            for _ in range(count)]


def record_faults(key=1):
    """(name, values): one island's records holding one input the kernel's
    evolve_island must decline, after a valid record unless the fault is in
    the first."""
    good = good_records(key)
    first, record = good[0], good[1]
    cases = [(f"cut at {cut}", [record[:cut], first]) for cut in range(len(record))]
    genes = list(struct.unpack_from("<10I", record, 8))
    out_of_range, duplicate = genes.copy(), genes.copy()
    out_of_range[3], duplicate[3] = 10, genes[4]

    def with_genes(genes):
        return record[:8] + struct.pack("<10I", *genes) + record[-8:]

    return cases + [
        ("one trailing byte", [first, record + b"\0"]),
        ("N=0", [first, struct.pack("<IIQ", key, 0, 5)]),
        ("gene >= N", [first, with_genes(out_of_range)]),
        ("duplicate gene", [first, with_genes(duplicate)]),
        ("first of two faults", [first, with_genes(duplicate), with_genes(out_of_range)]),
        ("pop_id != key", [first, encode_chromosome(genes, peek_length(record), key + 1)]),
        ("mixed N", [first, encode_chromosome(range(9), 7, key)]),
        ("N=2**32-1 on a short buffer", [first, struct.pack("<IIQ", key, 2**32 - 1, 5)]),
        ("bytearray value", [first, bytearray(record)]),
        ("None value", [first, None]),
        ("empty list", []),
    ]


# what decode_island raises, for the records' n = 10, for each record_faults
# case that lies in one record; the rest (an empty list, a bytearray value) are
# faults only to the kernel, and decode here record by record
DECODE_ISLAND_RAISES = {
    "one trailing byte": CodecError,
    "N=0": CodecError,
    "gene >= N": GeneRangeError,
    "duplicate gene": DuplicateGeneError,
    "first of two faults": DuplicateGeneError,
    "pop_id != key": EngineError,
    "mixed N": EngineError,
    "N=2**32-1 on a short buffer": TruncatedBufferError,
    "None value": TypeError,
}


@pytest.mark.parametrize("name,values", record_faults())
def test_decode_records_declines_every_fault(name, values):
    raises = TruncatedBufferError if name.startswith("cut at") else DECODE_ISLAND_RAISES.get(name)
    if raises is None:
        decoded = [decode_chromosome(value) for value in values]
        assert decode_island(1, values, 10) == ([d.genes for d in decoded],
                                                 [d.length for d in decoded])
    else:
        with pytest.raises(raises):
            decode_island(1, values, 10)


def test_decode_records_matches_decode_chromosome():
    values = good_records(7, n=300, count=5)
    decoded = [decode_chromosome(value) for value in values]
    for batch in (values, tuple(values), iter(values)):
        genes, lengths = decode_island(7, batch, 300)
        assert genes == [d.genes for d in decoded] and lengths == [d.length for d in decoded]
        assert all(type(tour) is tuple for tour in genes)
    for key in (-1, 2**64, 6, "7"):
        with pytest.raises(EngineError, match="pop_id 7"):
            decode_island(key, values, 300)


@pytest.mark.parametrize("n", [9, 12])
def test_decode_island_names_a_tour_of_another_city_count(n):
    with pytest.raises(EngineError, match=f"^record keyed 1 holds a tour of {n} cities "
                                          "for an instance of 10$"):
        decode_island(1, good_records(1, n=n), 10)
