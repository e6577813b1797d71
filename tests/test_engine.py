import contextlib
import multiprocessing
import os
import signal
import struct
import threading
import time
import zlib
from pathlib import Path

import pytest

from mrtsp import engine as engine_module
from mrtsp.codec import decode_chromosome
from mrtsp.engine import (Engine, EngineError, FileStore, ForkPool,
                          JobFailedError, JobSpec, MemoryStore, Record,
                          StoreError, default_partition, identity_mapper,
                          pack_records, task_rng, unpack_records)


def passthrough_reducer(key, values, rng):
    return [Record(key, v) for v in values]


def draw_reducer(key, values, rng):
    return [Record(key, struct.pack("<d", rng.random())) for _ in values]


def text_draw_reducer(key, values, rng):
    return [Record(key, f"{rng.random():.15f}".encode()) for _ in values]


def slow_mapper(record):
    time.sleep(0.02)
    return [record]


class AppendingMapper:
    """Identity mapper that appends one byte per call to a file, so calls
    made in any process can be counted."""

    def __init__(self, path):
        self.path = path

    def __call__(self, record):
        with open(self.path, "ab") as fh:
            fh.write(b"x")
        return [record]


def pid_reducer(key, values, rng):
    return [Record(key, str(os.getpid()).encode())]


class ExitInWorker:
    """Reducer that kills the process it runs in, unless that is the driver."""

    def __init__(self, driver_pid):
        self.driver_pid = driver_pid

    def __call__(self, key, values, rng):
        if os.getpid() != self.driver_pid:
            os._exit(1)
        return []


class TagReducer:
    """Emits its tag once per key."""

    def __init__(self, tag):
        self.tag = tag

    def __call__(self, key, values, rng):
        return [Record(key, self.tag)]


class UnpicklableError(Exception):
    def __init__(self):
        super().__init__("holds a lock")
        self.lock = threading.Lock()


class TwoArgumentError(Exception):
    """Pickles, but does not unpickle: reconstruction passes one argument."""

    def __init__(self, first, second):
        super().__init__(first)


def unpicklable_error_reducer(key, values, rng):
    raise UnpicklableError()


def two_argument_error_reducer(key, values, rng):
    raise TwoArgumentError("a", "b")


class DeadlineExceeded(Exception):
    """Not an OSError: multiprocessing's join swallows those from waitpid."""


@contextlib.contextmanager
def deadline(seconds):
    """Fail the block with DeadlineExceeded instead of letting it hang."""
    def expire(signum, frame):
        raise DeadlineExceeded(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def spec_for(input_name, *, job_id=0, maps=2, reduces=2, mapper=identity_mapper,
             reducer=passthrough_reducer, seed=0):
    return JobSpec(job_id=job_id, input=input_name, num_map_tasks=maps,
                   num_reduce_tasks=reduces, mapper=mapper,
                   partitioner=default_partition, reducer=reducer,
                   master_seed=seed)


def test_identity_pipeline_preserves_multiset():
    store = MemoryStore()
    records = [Record(i % 3, bytes([i])) for i in range(10)]
    store.put("in", records)
    with Engine(store, workers=2) as engine:
        out = engine.run_job(spec_for("in", maps=3, reduces=3))
    assert sorted(store.read(out)) == sorted(records)


def test_grouping_contract():
    store = MemoryStore()
    keys = [0, 0, 1, 2, 2, 2]
    store.put("in", [Record(k, bytes([i])) for i, k in enumerate(keys)])
    seen = {}

    def reducer(key, values, rng):
        seen[key] = list(values)
        return [Record(key, b"".join(values))]

    Engine(store, workers=1).run_job(spec_for("in", maps=2, reduces=3, reducer=reducer))
    assert seen[2] == [bytes([3]), bytes([4]), bytes([5])]  # all 3 values, input order
    assert seen[0] == [bytes([0]), bytes([1])]
    assert seen[1] == [bytes([2])]


def test_keys_ascending_within_reduce_task():
    store = MemoryStore()
    # keys 6,3,0 all route to task 0 of 3; reducer must see them ascending
    store.put("in", [Record(6, b"x"), Record(3, b"y"), Record(0, b"z")])
    calls = []

    def reducer(key, values, rng):
        calls.append(key)
        return []

    Engine(store, workers=1).run_job(spec_for("in", reduces=3, reducer=reducer))
    assert calls == [0, 3, 6]


def test_values_keep_input_sequence_order():
    payload = [Record(1, bytes([i])) for i in range(20)]
    # order must survive any map-task split; the passthrough reducer
    # emits the values in the order it received them
    with Engine(MemoryStore(), workers=4) as engine:
        for maps in (1, 3, 7, 20):
            engine.store.put(f"in{maps}", payload)
            out = engine.run_job(spec_for(f"in{maps}", job_id=maps, maps=maps))
            assert engine.store.read_parts(out)[1] == payload


def test_exactly_once_mapping(tmp_path):
    store = MemoryStore()
    records = [Record(i, bytes([i])) for i in range(37)]
    store.put("in", records)
    calls = tmp_path / "calls"
    with Engine(store, workers=4) as engine:
        engine.run_job(spec_for("in", maps=5, mapper=AppendingMapper(calls)))
    assert calls.read_bytes() == b"x" * len(records)


def test_key_co_location():
    store = MemoryStore()
    store.put("in", [Record(k, bytes([k, i])) for i in range(4) for k in range(6)])
    with Engine(store, workers=4) as engine:
        out = engine.run_job(spec_for("in", maps=3, reduces=3))
    parts = store.read_parts(out)
    homes = {}
    for task, part in enumerate(parts):
        for rec in part:
            homes.setdefault(rec.key, set()).add(task)
    assert all(len(tasks) == 1 for tasks in homes.values())
    assert all(tasks == {key % 3} for key, tasks in homes.items())


def test_phase_barrier_under_concurrency():
    store = MemoryStore()
    store.put("in", [Record(i, b"") for i in range(8)])
    events = []
    with Engine(store, workers=4, task_observer=events.append) as engine:
        engine.run_job(spec_for("in", maps=8, reduces=4, mapper=slow_mapper))
    map_ends = [e["time"] for e in events if e["kind"] == "map" and e["event"] == "end"]
    reduce_starts = [e["time"] for e in events
                     if e["kind"] == "reduce" and e["event"] == "start"]
    assert len(map_ends) == 8 and len(reduce_starts) == 4
    assert max(map_ends) <= min(reduce_starts)
    tasks = [("map", i) for i in range(8)] + [("reduce", i) for i in range(4)]
    assert [(e["kind"], e["index"], e["event"]) for e in events] == [
        (kind, index, event) for kind, index in tasks for event in ("start", "end")]


class FlakyReducer:
    """Draws from the task rng, then fails the first attempt for key 2."""

    def __init__(self):
        self.failed = False

    def __call__(self, key, values, rng):
        out = [Record(key, f"{rng.random():.17f}".encode()) for _ in values]
        if key == 2 and not self.failed:
            self.failed = True
            raise RuntimeError("injected fault")
        return out


def test_retry_transparency():
    def run(reducer, **engine_args):
        store = MemoryStore()
        store.put("in", [Record(k, bytes([k])) for k in range(4)])
        with Engine(store, **engine_args) as engine:
            out = engine.run_job(spec_for("in", reduces=4, reducer=reducer))
        return store.snapshot()[out]

    flaky = FlakyReducer()
    clean = FlakyReducer()
    clean.failed = True  # never raises
    baseline = run(clean, workers=1)
    assert run(flaky, workers=1) == baseline
    assert flaky.failed
    # in a pool the flag flips in the worker's copy; the events show the retry
    events = []
    assert run(FlakyReducer(), workers=2, task_observer=events.append) == baseline
    fails = [(e["kind"], e["index"], e["attempt"]) for e in events if e["event"] == "fail"]
    assert fails == [("reduce", 2, 0)]


def test_closure_reducer_runs_in_a_pool():
    seed = 11

    def salted_reducer(key, values, rng):  # a closure: pooled reducers are never pickled
        return [Record(key, bytes([seed]) + struct.pack("<d", rng.random())) for _ in values]

    def run(workers):
        store = MemoryStore()
        store.put("in", [Record(k, b"") for k in range(8)])
        with deadline(30), Engine(store, workers=workers) as engine:
            engine.run_job(spec_for("in", reduces=4, reducer=salted_reducer))
        return store.snapshot()

    assert run(2) == run(1)
    assert multiprocessing.active_children() == []


def test_map_runs_in_the_driver_and_reduce_on_workers():
    store = MemoryStore()
    store.put("in", [Record(k, b"") for k in range(4)])
    seen = []

    def recording_mapper(record):  # a closure: map tasks are never pickled
        seen.append((os.getpid(), threading.active_count()))
        return [record]

    with deadline(30), Engine(store, workers=2) as engine:
        outputs = [engine.run_job(spec_for("in", job_id=job, maps=2, reduces=4,
                                           mapper=recording_mapper, reducer=pid_reducer))
                   for job in (0, 1)]
    assert len(seen) == 8
    # the second job's map phase runs while the pool is up: still no thread
    assert set(seen) == {(os.getpid(), 1)}
    reducer_pids = {int(rec.value) for out in outputs for rec in store.read(out)}
    assert len(reducer_pids) == 2 and os.getpid() not in reducer_pids
    assert multiprocessing.active_children() == []


def test_dead_worker_fails_the_job_and_leaves_no_process():
    store = MemoryStore()
    store.put("in", [Record(k, b"") for k in range(4)])
    with deadline(30), Engine(store, workers=2) as engine:
        with pytest.raises(EngineError, match="job 3 reduce phase: worker 0 exited with code 1"):
            engine.run_job(spec_for("in", job_id=3, reducer=ExitInWorker(os.getpid())))
        assert multiprocessing.active_children() == []
        # the next job starts a fresh pool and reads no stale reply
        out = engine.run_job(spec_for("in", job_id=4, reduces=4, reducer=pid_reducer))
        assert len(store.read(out)) == 4
    assert multiprocessing.active_children() == []


def test_pool_forks_again_for_another_reducer_object(monkeypatch):
    pickled, pools = [], []

    def counting_getstate(self):
        pickled.append(self.tag)
        return self.__dict__

    class CountingPool(ForkPool):
        def __init__(self, workers, reducer):
            super().__init__(workers, reducer)
            pools.append(reducer.tag)

    monkeypatch.setattr(TagReducer, "__getstate__", counting_getstate, raising=False)
    monkeypatch.setattr(engine_module, "ForkPool", CountingPool)
    store = MemoryStore()
    store.put("in", [Record(k, b"") for k in range(4)])
    first, second = TagReducer(b"1"), TagReducer(b"2")
    with deadline(30), Engine(store, workers=2) as engine:
        def run(job_id, reducer):
            out = engine.run_job(spec_for("in", job_id=job_id, reduces=4, reducer=reducer))
            assert {rec.value for rec in store.read(out)} == {reducer.tag}

        for job_id, reducer in enumerate([first, first, second, first]):
            run(job_id, reducer)
        # a fresh object each, so it may reuse the address of one no longer referenced
        run(4, TagReducer(b"3"))
        run(5, TagReducer(b"4"))
    assert pools == [b"1", b"2", b"1", b"3", b"4"]
    assert pickled == []
    assert multiprocessing.active_children() == []


def test_pool_that_fails_to_start_leaves_no_process(monkeypatch):
    real_start = multiprocessing.context.ForkProcess.start
    started = []

    def start_once(self):
        if started:
            raise OSError("cannot start another process")
        started.append(self)
        real_start(self)

    monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", start_once)
    with deadline(30), pytest.raises(OSError, match="another process"):
        ForkPool(2, passthrough_reducer)
    assert len(started) == 1
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("reducer, message", [
    (unpicklable_error_reducer, "task outcomes do not pickle"),
    (two_argument_error_reducer, "reply does not unpickle"),
])
def test_unsendable_task_reply_fails_the_phase(reducer, message):
    store = MemoryStore()
    store.put("in", [Record(k, b"") for k in range(4)])
    with deadline(30), Engine(store, workers=2, max_task_retries=0) as engine:
        with pytest.raises(EngineError, match=message):
            engine.run_job(spec_for("in", reducer=reducer))
        assert multiprocessing.active_children() == []


def test_retries_exhausted_fail_with_task_identity():
    store = MemoryStore()
    store.put("in", [Record(0, b""), Record(1, b"")])
    attempts = [0]

    def bad_mapper(record):
        attempts[0] += 1
        raise ValueError("boom")

    engine = Engine(store, workers=1, max_task_retries=2)
    with pytest.raises(JobFailedError) as err:
        engine.run_job(spec_for("in", job_id=9, maps=1, mapper=bad_mapper))
    assert err.value.job_id == 9
    assert err.value.task_kind == "map"
    assert err.value.task_index == 0
    assert attempts[0] == 3  # first try + 2 retries
    attempts[0] = 0
    with pytest.raises(JobFailedError):
        Engine(store, workers=1, max_task_retries=-1).run_job(
            spec_for("in", job_id=10, maps=1, mapper=bad_mapper))
    assert attempts[0] == 1  # a negative retry count still makes one attempt


def test_failed_attempts_emit_events():
    store = MemoryStore()
    store.put("in", [Record(0, b"")])
    events = []

    def bad_mapper(record):
        raise RuntimeError("nope")

    engine = Engine(store, workers=1, max_task_retries=1, task_observer=events.append)
    with pytest.raises(JobFailedError):
        engine.run_job(spec_for("in", maps=1, mapper=bad_mapper))
    fails = [e for e in events if e["event"] == "fail"]
    assert [e["attempt"] for e in fails] == [0, 1]


def bad_output_mapper(record):
    return ["bad"]


def bad_record_reducer(key, values, rng):
    decode_chromosome(b"corrupt")


def str_value_mapper(record):
    return [Record(record.key, "not bytes")]


def wide_key_reducer(key, values, rng):
    return [Record(key, b"fits"), Record(2**32, b"does not")]


def negative_key_reducer(key, values, rng):
    return [Record(-1, b"")]


def bytearray_value_reducer(key, values, rng):
    return [Record(key, bytearray(b"x"))]


@pytest.mark.parametrize("mapper, reducer, kind", [
    (bad_output_mapper, passthrough_reducer, "map"),      # EngineError
    (str_value_mapper, passthrough_reducer, "map"),       # EngineError
    (identity_mapper, bad_record_reducer, "reduce"),      # CodecError
    (identity_mapper, wide_key_reducer, "reduce"),        # EngineError, key past u32
    (identity_mapper, negative_key_reducer, "reduce"),    # EngineError, key below 0
    (identity_mapper, bytearray_value_reducer, "reduce"),  # EngineError
])
def test_deterministic_errors_fail_on_first_attempt(mapper, reducer, kind):
    store = MemoryStore()
    store.put("in", [Record(0, b"")])
    events = []
    engine = Engine(store, workers=1, max_task_retries=2, task_observer=events.append)
    with pytest.raises(JobFailedError) as err:
        engine.run_job(spec_for("in", maps=1, reduces=1, mapper=mapper, reducer=reducer))
    assert err.value.task_kind == kind
    assert [(e["kind"], e["attempt"], e["event"]) for e in events if e["kind"] == kind] == [
        (kind, 0, "start"), (kind, 0, "fail")]


def test_a_bare_tuple_is_not_a_record():
    store = MemoryStore()
    store.put("in", [Record(0, b"")])

    def tuple_reducer(key, values, rng):
        return [(0, b"x")]

    with pytest.raises(JobFailedError, match="expected a Record") as err:
        Engine(store, workers=1).run_job(spec_for("in", maps=1, reduces=1,
                                                  reducer=tuple_reducer))
    assert err.value.task_kind == "reduce"
    assert isinstance(err.value.__cause__, EngineError)
    assert "(0, b'x')" in str(err.value.__cause__)


def test_store_immutability():
    store = MemoryStore()
    store.put("in", [Record(0, b"a")])
    with pytest.raises(StoreError):
        store.put("in", [Record(0, b"b")])
    engine = Engine(store, workers=1)
    out = engine.run_job(spec_for("in", maps=1, reduces=1))
    before = store.snapshot()[out]
    with pytest.raises(StoreError):
        store.write_parts(out, [[Record(0, b"overwrite")]])
    # later jobs leave sealed sets untouched
    store.put("in2", [Record(0, b"c")])
    engine.run_job(spec_for("in2", job_id=1, maps=1, reduces=1))
    assert store.snapshot()[out] == before


def test_read_missing_set():
    with pytest.raises(StoreError):
        MemoryStore().read("ghost")


def test_determinism_same_seed_same_bytes():
    def run(workers):
        store = MemoryStore()
        store.put("in", [Record(i % 5, bytes([i])) for i in range(23)])
        with Engine(store, workers=workers) as engine:
            out = engine.run_job(spec_for("in", maps=4, reduces=5, reducer=draw_reducer,
                                          seed=77))
        return store.snapshot()[out]

    baseline = run(1)
    assert run(2) == baseline
    assert run(4) == baseline
    assert run(8) == baseline


def test_different_master_seed_changes_bytes():
    def reducer(key, values, rng):
        return [Record(key, struct.pack("<d", rng.random()))]

    def run(seed):
        store = MemoryStore()
        store.put("in", [Record(0, b"")])
        out = Engine(store, workers=1).run_job(
            spec_for("in", maps=1, reduces=1, reducer=reducer, seed=seed))
        return store.snapshot()[out]

    assert run(1) != run(2)


WORDS = {"the": 0, "cat": 1, "sat": 2, "mat": 3}


def tokenize(record):
    return [Record(WORDS[w], b"1") for w in record.value.decode().split()]


def total(key, values, rng):
    return [Record(key, str(sum(int(v) for v in values)).encode())]


def test_word_count_fixture():
    store = MemoryStore()
    store.put("docs", [
        Record(0, b"the cat sat"),
        Record(1, b"the cat"),
        Record(2, b"the mat"),
    ])
    with Engine(store, workers=2) as engine:
        out = engine.run_job(spec_for("docs", maps=2, reduces=2, mapper=tokenize,
                                      reducer=total))
    counts = {rec.key: int(rec.value) for rec in store.read(out)}
    assert counts == {WORDS["the"]: 3, WORDS["cat"]: 2, WORDS["sat"]: 1, WORDS["mat"]: 1}


def test_more_map_tasks_than_records():
    store = MemoryStore()
    store.put("in", [Record(0, b"x")])
    with Engine(store, workers=2) as engine:
        out = engine.run_job(spec_for("in", maps=6, reduces=1))
    assert store.read(out) == [Record(0, b"x")]


@pytest.mark.parametrize("workers", [1, 2])
def test_reducer_key_past_u32_fails_the_job_at_once(workers):
    store = MemoryStore()
    store.put("in", [Record(k, b"") for k in range(4)])
    events = []
    with deadline(30), Engine(store, workers=workers, task_observer=events.append) as engine:
        with pytest.raises(JobFailedError, match="reduce task 0") as err:
            engine.run_job(spec_for("in", reducer=wide_key_reducer))
    assert isinstance(err.value.__cause__, EngineError)
    assert "4294967296" in str(err.value.__cause__)
    assert [e["event"] for e in events if e["kind"] == "reduce" and e["index"] == 0] == \
        ["start", "fail"]
    assert "job0" not in store.names()


def test_negative_mapper_key_fails_the_default_partition():
    store = MemoryStore()
    store.put("in", [Record(1, b"")])

    def negative(record):
        return [Record(-record.key, record.value)]

    with pytest.raises(ValueError, match="record keys must be non-negative, got -1"):
        Engine(store, workers=1).run_job(spec_for("in", maps=1, mapper=negative))
    assert "job0" not in store.names()


def test_partitioner_is_asked_once_per_key_in_key_order():
    store = MemoryStore()
    store.put("in", [Record(k % 3, bytes([k])) for k in (5, 1, 3, 4, 0, 2)])
    asked = []

    def reversed_partition(key, tasks):
        asked.append(key)
        return tasks - 1 - key % tasks

    spec = JobSpec(job_id=0, input="in", num_map_tasks=2, num_reduce_tasks=2,
                   mapper=identity_mapper, partitioner=reversed_partition,
                   reducer=passthrough_reducer)
    Engine(store, workers=1).run_job(spec)
    assert asked == [0, 1, 2]
    # keys ascending within each task, values in production order
    assert store.read_parts("job0") == [
        [Record(1, b"\x01"), Record(1, b"\x04")],
        [Record(0, b"\x03"), Record(0, b"\x00"), Record(2, b"\x05"), Record(2, b"\x02")]]


def test_run_job_maps_the_parts_it_is_given_without_reading_the_store():
    store = MemoryStore()
    store.put("in", [Record(k % 3, bytes([k])) for k in range(9)])
    parts = store.read_parts("in")
    twin = MemoryStore()
    twin.write_parts("in", parts)
    twin.read_parts = None  # a read would fail
    for target, given in ((store, None), (twin, parts)):
        Engine(target, workers=1).run_job(spec_for("in", reduces=3, reducer=draw_reducer,
                                                   seed=4), given)
    assert store.snapshot() == twin.snapshot()


def test_write_packed_seals_framed_parts_as_given():
    parts = [[Record(0, b"a"), Record(2**32 - 1, b"")], [], [Record(5, b"bc")]]
    store, twin = MemoryStore(), MemoryStore()
    store.write_parts("x", parts)
    twin.write_packed("x", [pack_records(part) for part in parts])
    assert store.snapshot() == twin.snapshot()
    assert twin.read_parts("x") == parts
    with pytest.raises(StoreError, match="sealed"):
        twin.write_packed("x", [b""])


def test_partitioner_out_of_range_rejected():
    store = MemoryStore()
    store.put("in", [Record(0, b"")])
    spec = JobSpec(job_id=0, input="in", num_map_tasks=1, num_reduce_tasks=2,
                   mapper=identity_mapper, partitioner=lambda key, n: n,
                   reducer=passthrough_reducer, master_seed=0)
    with pytest.raises(EngineError):
        Engine(store, workers=1).run_job(spec)


def test_malformed_mapper_output_fails_job():
    store = MemoryStore()
    store.put("in", [Record(0, b"")])

    def bad(record):
        return ["not a record"]

    with pytest.raises(JobFailedError):
        Engine(store, workers=1).run_job(spec_for("in", maps=1, mapper=bad))


def test_jobspec_validation():
    with pytest.raises(ValueError):
        spec_for("in", job_id=-1)
    with pytest.raises(ValueError):
        spec_for("in", maps=0)
    with pytest.raises(ValueError):
        spec_for("in", reduces=0)


def test_default_partition():
    assert default_partition(3, 10) == 3
    assert default_partition(7, 3) == 1
    assert [default_partition(k, 10) for k in range(10)] == list(range(10))
    with pytest.raises(ValueError):
        default_partition(-1, 4)
    with pytest.raises(ValueError):
        default_partition(0, 0)


def test_task_rng_streams():
    a = [task_rng(5, 0, "reduce", 0).random() for _ in range(100)]
    b = [task_rng(5, 0, "reduce", 0).random() for _ in range(100)]
    assert a == b
    assert a != [task_rng(5, 0, "reduce", 1).random() for _ in range(100)]
    assert a != [task_rng(5, 1, "reduce", 0).random() for _ in range(100)]
    assert a != [task_rng(6, 0, "reduce", 0).random() for _ in range(100)]
    assert a != [task_rng(5, 0, "map", 0).random() for _ in range(100)]


def test_record_framing_round_trip():
    records = [Record(0, b""), Record(2**32 - 1, b"\x00\xff"), Record(7, b"abc")]
    assert unpack_records(pack_records(records)) == records
    with pytest.raises(StoreError):
        unpack_records(pack_records(records)[:-1])
    with pytest.raises(StoreError):
        pack_records([Record(2**32, b"")])


def test_file_store_layout_and_framing(tmp_path):
    store = FileStore(tmp_path)
    store.put("in", [Record(1, b"ab")])
    engine = Engine(store, workers=1)
    out = engine.run_job(spec_for("in", job_id=3, maps=1, reduces=2))
    assert out == "job3"
    assert sorted(p.name for p in (tmp_path / "job3").iterdir()) == ["_SUCCESS", "data"]
    golden = struct.pack("<II", 1, 2) + b"ab"  # part-0 is empty, part-1 holds the record
    assert (tmp_path / "job3" / "data").read_bytes() == golden
    assert (tmp_path / "job3" / "_SUCCESS").read_text() == (
        f"2 0 {zlib.crc32(b'')} {len(golden)} {zlib.crc32(golden)}")
    assert store.read_parts("job3") == [[], [Record(1, b"ab")]]


def test_file_store_seal_semantics(tmp_path):
    store = FileStore(tmp_path)
    with pytest.raises(StoreError):
        store.read("nothing")
    store.put("x", [Record(0, b"v")])
    with pytest.raises(StoreError):
        store.put("x", [Record(0, b"v")])
    with pytest.raises(StoreError):
        store.put("sub/dir", [])
    assert store.names() == ["x"]


def test_file_store_empty_marker_is_store_error(tmp_path):
    store = FileStore(tmp_path)
    store.put("x", [Record(0, b"v")])
    (tmp_path / "x" / "_SUCCESS").write_text("")
    for read in (store.read_parts, store.read):
        with pytest.raises(StoreError, match="'x' is half-written"):
            read("x")
    with pytest.raises(StoreError, match="'x' is half-written"):
        store.snapshot()


def test_file_store_missing_part_is_store_error(tmp_path):
    store = FileStore(tmp_path)
    store.write_parts("x", [[Record(0, b"a")], [Record(1, b"b")]])
    (tmp_path / "x" / "data").unlink()
    for read in (store.read_parts, store.read):
        with pytest.raises(StoreError, match="'x' is half-written.*data"):
            read("x")
    with pytest.raises(StoreError, match="'x' is half-written.*data"):
        store.snapshot()


@pytest.mark.parametrize("garble", [
    lambda marker: marker.rsplit(" ", 1)[0],  # the last part's CRC cut off
    lambda marker: marker + " 0 0",  # one part too many
    # each of these parses to the same numbers, but is not the text _seal writes
    lambda marker: marker.replace(" ", "\t", 1),
    lambda marker: marker.replace(" ", " +", 1),
    lambda marker: marker.replace(" ", " 0", 1),
], ids=["short", "long", "tab", "signed", "zero-padded"])
def test_file_store_garbled_marker_is_store_error(tmp_path, garble):
    store = FileStore(tmp_path)
    store.write_parts("x", [[Record(0, b"a")], [Record(1, b"b")]])
    marker = tmp_path / "x" / "_SUCCESS"
    marker.write_text(garble(marker.read_text()))
    with pytest.raises(StoreError, match="'x' is half-written or corrupt: garbled marker"):
        store.read("x")


def test_file_store_crash_mid_seal_leaves_set_rewritable(tmp_path, monkeypatch):
    store = FileStore(tmp_path)
    real_write_text = Path.write_text

    def crash(path, text, *args, **kwargs):
        real_write_text(path, text[:len(text) // 2], *args, **kwargs)
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_text", crash)
    with pytest.raises(OSError, match="disk full"):
        store.write_parts("y", [[Record(0, b"a")], [Record(1, b"bc")]])
    monkeypatch.undo()
    assert store.names() == []
    with pytest.raises(StoreError, match="no sealed record set"):
        store.read("y")
    store.write_parts("y", [[Record(0, b"a")], [Record(1, b"bc")]])
    assert store.read_parts("y") == [[Record(0, b"a")], [Record(1, b"bc")]]


@pytest.mark.parametrize("damage, fault", [
    (lambda data: data[:12], "part-0 holds 12 of its 24 bytes"),
    (lambda data: data + data, "data holds 33 bytes past the last part"),
], ids=["truncated", "grown"])
def test_file_store_resized_part_is_store_error(tmp_path, damage, fault):
    store = FileStore(tmp_path)
    store.write_parts("x", [[Record(0, b"aaaa"), Record(1, b"bbbb")], [Record(2, b"c")]])
    data = tmp_path / "x" / "data"
    data.write_bytes(damage(data.read_bytes()))  # cut or grown at a record boundary
    for read in (store.read_parts, store.read):
        with pytest.raises(StoreError, match=f"'x' is half-written or corrupt: {fault}"):
            read("x")
    with pytest.raises(StoreError, match=f"'x' is half-written or corrupt: {fault}"):
        store.snapshot()


def test_file_store_flipped_byte_is_store_error(tmp_path):
    store = FileStore(tmp_path)
    store.write_parts("x", [[Record(0, b"aaaa")], [Record(1, b"bbbb"), Record(2, b"c")]])
    data = tmp_path / "x" / "data"
    flipped = bytearray(data.read_bytes())
    flipped[-1] ^= 0x01  # the last value: size and framing still hold
    data.write_bytes(flipped)
    assert unpack_records(bytes(flipped[12:])) == [Record(1, b"bbbb"), Record(2, b"b")]
    for read in (store.read_parts, store.read):
        with pytest.raises(StoreError, match="'x' is half-written or corrupt: "
                                             "part-1 fails its CRC32 check"):
            read("x")


def test_file_and_memory_stores_agree(tmp_path):
    def run(store):
        store.put("in", [Record(i % 3, bytes([i])) for i in range(9)])
        with Engine(store, workers=2) as engine:
            engine.run_job(spec_for("in", maps=2, reduces=3, reducer=text_draw_reducer,
                                    seed=5))
        return store.snapshot()

    assert run(MemoryStore()) == run(FileStore(tmp_path))
