import contextlib
import multiprocessing
import os
import signal
import struct
import threading
import time
from pathlib import Path

import pytest

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


def test_unpicklable_reducer_fails_at_once_in_a_pool():
    store = MemoryStore()
    store.put("in", [Record(k, b"") for k in range(4)])
    events = []
    with Engine(store, workers=2, task_observer=events.append) as engine:
        with pytest.raises(AttributeError, match="pickle"):
            engine.run_job(spec_for("in", reducer=lambda key, values, rng: []))
    assert {e["kind"] for e in events} == {"map"}  # no reduce attempt, so no retry


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
        ForkPool(2)
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


@pytest.mark.parametrize("mapper, reducer, kind", [
    (bad_output_mapper, passthrough_reducer, "map"),      # EngineError
    (identity_mapper, bad_record_reducer, "reduce"),      # CodecError
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
    assert (tmp_path / "job3" / "_SUCCESS").exists()
    assert (tmp_path / "job3" / "part-0").read_bytes() == b""
    golden = struct.pack("<II", 1, 2) + b"ab"
    assert (tmp_path / "job3" / "part-1").read_bytes() == golden
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
    (tmp_path / "x" / "part-1").unlink()
    for read in (store.read_parts, store.read):
        with pytest.raises(StoreError, match="'x' is half-written.*part-1"):
            read("x")
    with pytest.raises(StoreError, match="'x' is half-written.*part-1"):
        store.snapshot()


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


@pytest.mark.parametrize("damage", [lambda data: data[:len(data) // 2],
                                    lambda data: data + data], ids=["truncated", "grown"])
def test_file_store_resized_part_is_store_error(tmp_path, damage):
    store = FileStore(tmp_path)
    store.write_parts("x", [[Record(0, b"aaaa"), Record(1, b"bbbb")], [Record(2, b"c")]])
    part = tmp_path / "x" / "part-0"
    part.write_bytes(damage(part.read_bytes()))  # cut or grown at a record boundary
    for read in (store.read_parts, store.read):
        with pytest.raises(StoreError, match="'x' is half-written or corrupt"):
            read("x")
    with pytest.raises(StoreError, match="'x' is half-written or corrupt"):
        store.snapshot()


def test_file_and_memory_stores_agree(tmp_path):
    def run(store):
        store.put("in", [Record(i % 3, bytes([i])) for i in range(9)])
        with Engine(store, workers=2) as engine:
            engine.run_job(spec_for("in", maps=2, reduces=3, reducer=text_draw_reducer,
                                    seed=5))
        return store.snapshot()

    assert run(MemoryStore()) == run(FileStore(tmp_path))
