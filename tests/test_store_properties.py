"""Property tests for the record store: both backends keep the same framed
bytes and reject the same bad writes, and a damaged FileStore set fails its read."""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mrtsp.engine import FileStore, MemoryStore, Record, StoreError, pack_records

FEW_EXAMPLES = settings(max_examples=40, deadline=None)

records = st.builds(Record, st.integers(0, 2**32 - 1), st.binary(max_size=24))
record_parts = st.lists(st.lists(records, max_size=8), min_size=1, max_size=4)
bad_names = st.sampled_from(["", ".", "..", "a/b", "a\\b", "/abs"])


def both_stores(root):
    return MemoryStore(), FileStore(root)


@FEW_EXAMPLES
@given(parts=record_parts)
def test_stores_agree_and_round_trip(parts):
    with tempfile.TemporaryDirectory() as root:
        memory, disk = both_stores(root)
        for store in (memory, disk):
            store.write_parts("set", parts)
            assert store.read_parts("set") == parts
            assert store.read("set") == [rec for part in parts for rec in part]
        assert memory.snapshot() == disk.snapshot() == {
            "set": [pack_records(part) for part in parts]}


@FEW_EXAMPLES
@given(parts=record_parts, bad_key=st.one_of(st.integers(max_value=-1),
                                             st.integers(min_value=2**32)),
       where=st.integers(0, 100))
def test_out_of_range_key_fails_at_write_on_both_stores(parts, bad_key, where):
    target = parts[where % len(parts)]
    target.insert(where % (len(target) + 1), Record(bad_key, b"x"))
    with tempfile.TemporaryDirectory() as root:
        for store in both_stores(root):
            with pytest.raises(StoreError, match=f"record key {bad_key} "):
                store.write_parts("set", parts)
            assert store.names() == []
            assert store.snapshot() == {}
            store.write_parts("set", [[]])  # the name is still free


@FEW_EXAMPLES
@given(name=bad_names, parts=record_parts)
def test_invalid_name_fails_at_write_and_read_on_both_stores(name, parts):
    with tempfile.TemporaryDirectory() as root:
        for store in both_stores(root):
            with pytest.raises(StoreError, match="invalid record set name"):
                store.write_parts(name, parts)
            with pytest.raises(StoreError, match="invalid record set name"):
                store.read_parts(name)
            assert store.names() == []


@FEW_EXAMPLES
@given(parts=record_parts, in_marker=st.booleans(), where=st.integers(0, 2**16),
       mask=st.integers(1, 255))
def test_flipped_byte_in_a_sealed_file_set_fails_the_read(parts, in_marker, where, mask):
    with tempfile.TemporaryDirectory() as root:
        store = FileStore(root)
        store.write_parts("set", parts)
        data, marker = (Path(root) / "set" / name for name in ("data", "_SUCCESS"))
        target = marker if in_marker or not data.stat().st_size else data
        damaged = bytearray(target.read_bytes())
        damaged[where % len(damaged)] ^= mask
        target.write_bytes(damaged)
        # never different records: every read of the set fails
        for read in (lambda: store.read_parts("set"), lambda: store.read("set"),
                     store.snapshot):
            with pytest.raises(StoreError, match="'set' is half-written or corrupt"):
                read()
