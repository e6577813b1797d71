"""A minimal iterative map/shuffle/reduce engine over keyed byte records.

One job = map every input record, route intermediates through a partitioner,
group them per reduce task with keys ascending and values in production
order, then reduce. Map tasks run in the driver, on the input set's records
or on the parts a caller has already read and checked. Reduce tasks run
in-process or, with workers > 1, on that many processes forked with the
job's reducer, each fed one contiguous chunk of tasks per phase over its own
pipe; a job whose reducer is not equal to the pool's forks a new pool. Each
reduce task frames its checked output itself and replies with its part's
bytes, which the store seals as given. Reduce tasks get their own
deterministically seeded rng, so job outputs are byte-identical for a fixed
master seed no matter how many workers run or how the scheduler interleaves
them.

The record store stands in for a distributed file system: sets of records
are named, written once by a completed job, and immutable afterwards. Both
stores keep a set as the framed bytes of its parts. FileStore writes them to
one data file, then seals the set by renaming into place a marker of each
part's size and CRC32, which reads check.
"""

from __future__ import annotations

import gc
import hashlib
import multiprocessing
import os
import random
import struct
import time
import zlib
from contextlib import AbstractContextManager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, NamedTuple

from .codec import CodecError


class Record(NamedTuple):
    key: int
    value: bytes


class StoreError(Exception):
    pass


class EngineError(Exception):
    pass


class JobFailedError(EngineError):
    """A task failed for good; carries the failing task's identity."""

    def __init__(self, job_id: int, task_kind: str, task_index: int, cause: BaseException):
        super().__init__(f"job {job_id}: {task_kind} task {task_index} failed: {cause!r}")
        self.job_id = job_id
        self.task_kind = task_kind
        self.task_index = task_index


_RECORD_HEADER = struct.Struct("<II")


def pack_records(records: Iterable[Record]) -> bytes:
    """Length-prefixed framing: key (4-byte LE), value length (4-byte LE), value."""
    chunks = []
    for rec in records:
        if not 0 <= rec.key < 2**32:
            raise StoreError(f"record key {rec.key} does not fit an unsigned 32-bit field")
        chunks += _RECORD_HEADER.pack(rec.key, len(rec.value)), rec.value
    return b"".join(chunks)


def unpack_records(data: bytes) -> list[Record]:
    # every store read lands here: bound locals, tuple.__new__ in place of the
    # generated Record.__new__, and bounds checked by struct and after the loop
    records = []
    append, header, new = records.append, _RECORD_HEADER.unpack_from, tuple.__new__
    end = len(data)
    offset = 0
    try:
        while offset < end:
            key, size = header(data, offset)
            start = offset + _RECORD_HEADER.size
            offset = start + size
            append(new(Record, (key, data[start:offset])))
    except struct.error:
        raise StoreError("truncated record header") from None
    if offset > end:
        raise StoreError("truncated record value")
    return records


class _RecordStore:
    """Named record sets, sealed once and immutable after, kept as the framed
    bytes of their parts. A backend defines _seal, _load (None if unsealed), names."""

    def put(self, name: str, records: Iterable[Record]) -> str:
        return self.write_parts(name, [list(records)])

    def write_parts(self, name: str, parts: list[list[Record]]) -> str:
        return self.write_packed(name, [pack_records(part) for part in parts])

    def write_packed(self, name: str, data: list[bytes]) -> str:
        """Seal parts already framed as pack_records frames them, as given."""
        if self._sealed(name) is not None:
            raise StoreError(f"record set {name!r} is sealed and cannot be rewritten")
        self._seal(name, data)
        return name

    def read(self, name: str) -> list[Record]:
        return [rec for part in self.read_parts(name) for rec in part]

    def read_parts(self, name: str) -> list[list[Record]]:
        data = self._sealed(name)
        if data is None:
            raise StoreError(f"no sealed record set named {name!r}")
        return [unpack_records(part) for part in data]

    def _sealed(self, name: str) -> list[bytes] | None:
        if "/" in name or "\\" in name or name in ("", ".", ".."):
            raise StoreError(f"invalid record set name {name!r}")
        return self._load(name)

    def snapshot(self) -> dict[str, list[bytes]]:
        """The stored bytes of every sealed set, for determinism diffs."""
        return {name: list(self._load(name)) for name in self.names()}


class MemoryStore(_RecordStore):
    """Default backend for tests and in-process runs: part bytes in a dict."""

    # bound in each backend's own body: perfbench wraps them per class
    write_parts = _RecordStore.write_parts
    read_parts = _RecordStore.read_parts

    def __init__(self):
        self._sets: dict[str, list[bytes]] = {}
        self._seal = self._sets.__setitem__
        self._load = self._sets.get

    def names(self) -> list[str]:
        return sorted(self._sets)


class FileStore(_RecordStore):
    """Directory backend: a subdirectory per set holding `data`, its parts
    concatenated, and a _SUCCESS marker of the part count and each part's size
    and CRC32, written under a temporary name and renamed into place last.
    Reads check every size and CRC. Nothing is fsynced: a set survives a
    crash of the program, not a power loss."""

    write_parts = _RecordStore.write_parts  # see MemoryStore
    read_parts = _RecordStore.read_parts

    def __init__(self, root: Path | str):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _seal(self, name: str, data: list[bytes]):
        target = self.root / name
        target.mkdir(parents=True, exist_ok=True)
        (target / "data").write_bytes(b"".join(data))
        fields = [len(data)]
        for part in data:
            fields += len(part), zlib.crc32(part)
        (target / "_SUCCESS.tmp").write_text(" ".join(map(str, fields)))
        os.replace(target / "_SUCCESS.tmp", target / "_SUCCESS")

    def _load(self, name: str) -> list[bytes] | None:
        target = self.root / name
        try:
            marker = (target / "_SUCCESS").read_bytes()
        except FileNotFoundError:
            return None
        try:
            count, *fields = map(int, marker.split())
            # only the exact text _seal writes: int() would also take other
            # whitespace, signs, leading zeros and underscores
            canonical = " ".join(map(str, [count, *fields])).encode()
            if len(fields) != 2 * count or marker != canonical:
                raise ValueError(f"garbled marker {marker[:60]!r}")
            blob = (target / "data").read_bytes()
            data, offset = [], 0
            for idx, (size, crc) in enumerate(zip(fields[::2], fields[1::2])):
                part = blob[offset:offset + size]
                offset += size
                if len(part) != size:
                    raise ValueError(f"part-{idx} holds {len(part)} of its {size} bytes")
                if zlib.crc32(part) != crc:
                    raise ValueError(f"part-{idx} fails its CRC32 check")
                data.append(part)
            if offset != len(blob):
                raise ValueError(f"data holds {len(blob) - offset} bytes past the last part")
        except (ValueError, FileNotFoundError) as exc:
            raise StoreError(f"record set {name!r} is half-written or corrupt: {exc}") from exc
        return data

    def names(self) -> list[str]:
        return sorted(p.name for p in self.root.iterdir() if (p / "_SUCCESS").exists())


def default_partition(key: int, num_reduce_tasks: int) -> int:
    """key mod tasks; the identity routing when one task exists per key."""
    if num_reduce_tasks < 1:
        raise ValueError(f"num_reduce_tasks must be >= 1, got {num_reduce_tasks}")
    if key < 0:
        raise ValueError(f"record keys must be non-negative, got {key}")
    return key % num_reduce_tasks


def task_rng(master_seed: int, job_id: int, task_kind: str, task_index: int) -> random.Random:
    """Independent, reproducible rng stream per (seed, job, kind, index)."""
    digest = hashlib.sha256(f"{master_seed}|{job_id}|{task_kind}|{task_index}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "little"))


Mapper = Callable[[Record], Iterable[Record]]
Partitioner = Callable[[int, int], int]
Reducer = Callable[[int, list[bytes], random.Random], Iterable[Record]]


@dataclass(frozen=True)
class JobSpec:
    job_id: int
    input: str
    num_map_tasks: int
    num_reduce_tasks: int
    mapper: Mapper
    partitioner: Partitioner
    reducer: Reducer
    master_seed: int = 0

    def __post_init__(self):
        if self.job_id < 0:
            raise ValueError(f"job_id must be >= 0, got {self.job_id}")
        if self.num_map_tasks < 1 or self.num_reduce_tasks < 1:
            raise ValueError("num_map_tasks and num_reduce_tasks must be >= 1")


def identity_mapper(record: Record) -> list[Record]:
    return [record]


def _checked(rec, origin: str) -> Record:
    if not isinstance(rec, Record):
        raise EngineError(f"{origin} produced {rec!r}, expected a Record")
    if not isinstance(rec.key, int) or not isinstance(rec.value, bytes):
        raise EngineError(f"{origin} produced a malformed record {rec!r}")
    return rec


def _map_task(mapper: Mapper, records: list[Record]) -> list[Record]:
    if mapper is identity_mapper:
        return records  # store reads build only well-formed records
    return [_checked(out, "mapper") for rec in records for out in mapper(rec)]


def _reduce_task(reducer: Reducer, grouped: list[tuple[int, list[bytes]]],
                 master_seed: int, job_id: int, index: int) -> bytes:
    """Task `index`'s part as pack_records frames it, each record checked as
    it is framed: a malformed one, or a key outside u32, fails the job at once."""
    rng = task_rng(master_seed, job_id, "reduce", index)
    chunks = []
    header = _RECORD_HEADER.pack
    for key, values in grouped:
        for rec in reducer(key, values, rng):
            if not (isinstance(rec, Record) and isinstance(rec.key, int)
                    and isinstance(rec.value, bytes) and 0 <= rec.key < 2**32):
                _checked(rec, "reducer")  # names a malformed record; else the key is out of range
                raise EngineError(f"reducer produced key {rec.key}, outside u32")
            chunks += header(rec.key, len(rec.value)), rec.value
    return b"".join(chunks)


def _attempt(fn, args: tuple, retries: int):
    """Run fn(*args), retrying a failed attempt up to `retries` times.

    Malformed task output (EngineError) and bad records (CodecError) fail
    on the first attempt: a rerun on the same inputs would only repeat them.
    Returns (result, events, error). events lists (attempt, "start"|"end"|
    "fail", time.monotonic()) in order; error is the last exception when
    the task failed, else None."""
    events = []
    error = None
    for attempt in range(retries + 1):
        events.append((attempt, "start", time.monotonic()))
        try:
            result = fn(*args)
        except Exception as exc:
            error = exc
            events.append((attempt, "fail", time.monotonic()))
            if isinstance(exc, (EngineError, CodecError)):
                break
            continue
        events.append((attempt, "end", time.monotonic()))
        return result, events, None
    return None, events, error


def _chunk(items: list, pieces: int) -> list[list]:
    n = len(items)
    bounds = [i * n // pieces for i in range(pieces + 1)]
    return [items[bounds[i]:bounds[i + 1]] for i in range(pieces)]


def _serve(conn, reducer: Reducer, inherited: list):
    """Worker loop: reply to each (chunk of task args, retries) message with
    _attempt(_reduce_task, (reducer, *args), retries) for each task, until
    the driver closes the pipe."""
    gc.freeze()  # collections would walk, and so copy, every object fork shared
    for end in inherited:
        # the driver's ends of this and every earlier worker's pipe, copied by
        # fork: while one is open here, closing it in the driver sends no EOF
        end.close()
    while True:
        try:
            chunk, retries = conn.recv()
        except EOFError:
            return
        outcomes = [_attempt(_reduce_task, (reducer, *args), retries) for args in chunk]
        try:
            conn.send(outcomes)
        except Exception as exc:  # pickling fails before a byte is written
            conn.send(EngineError(f"task outcomes do not pickle: {exc!r}"))


class ForkPool:
    """`workers` processes forked with `reducer`, each running chunks of its
    reduce tasks over its own duplex pipe until shutdown(). Starts no thread
    in the driver, which keeps fork safe. Fork, not spawn: a forked worker is
    ready in milliseconds with the program and the reducer already in memory,
    where a spawned one re-imports the program (about 0.3 s, longer than a
    whole pga-n64 run) and must be sent the reducer."""

    def __init__(self, workers: int, reducer: Reducer):
        context = multiprocessing.get_context("fork")
        self.reducer = reducer  # a later job's reducer is compared to it for reuse
        self._workers = []
        try:
            for _ in range(workers):
                conn, child = context.Pipe()
                ends = [c for c, _ in self._workers] + [conn]
                proc = context.Process(target=_serve, args=(child, reducer, ends), daemon=True)
                proc.start()
                child.close()
                self._workers.append((conn, proc))
        except BaseException:
            self.shutdown(kill=True)
            raise

    def run(self, tasks: list[tuple], retries: int, label: str) -> list[tuple]:
        """_attempt(_reduce_task, (reducer, *args), retries) for every task's
        args, in task order: each worker gets one contiguous chunk and replies
        once. After a failure, shut down: workers may still be mid-chunk or
        hold unread replies."""
        chunks = _chunk(tasks, len(self._workers))
        for index, ((conn, _), chunk) in enumerate(zip(self._workers, chunks)):
            try:
                conn.send((chunk, retries))
            except OSError as exc:
                raise EngineError(f"{label}: worker {index} is gone: {exc!r}") from exc
        outcomes = []
        for index, (conn, proc) in enumerate(self._workers):
            try:
                reply = conn.recv()
            except EOFError:
                proc.join()
                raise EngineError(f"{label}: worker {index} exited with code "
                                  f"{proc.exitcode} before replying") from None
            except Exception as exc:
                raise EngineError(f"{label}: worker {index}'s reply does not "
                                  f"unpickle: {exc!r}") from exc
            if isinstance(reply, EngineError):
                raise EngineError(f"{label}: worker {index}: {reply}")
            outcomes.extend(reply)
        return outcomes

    def shutdown(self, kill: bool = False):
        for conn, proc in self._workers:
            conn.close()
            if kill:
                proc.terminate()
        for _, proc in self._workers:
            proc.join()
        self._workers = []


class Engine(AbstractContextManager):
    """Runs JobSpecs against a record store.

    Map tasks always run in the driver, so a mapper need not pickle. Reduce
    tasks run in-process with workers 1 (the default); with more, on a
    ForkPool of that many processes, forked with the job's reducer at its
    first reduce phase and reused until close(), which leaving a `with
    Engine(...)` block calls, or until a job's reducer does not compare
    equal to the pool's (by default: is another object), which forks a new
    pool. `workers` may be raised between jobs; the pool then starts at the
    next reduce phase.
    Pooled workers run the reducer as it was at fork, so it need not pickle,
    but a change made to it in the driver after that does not reach them. A
    worker that dies, or a reply that does not pickle, fails the job with an
    EngineError and shuts the pool down. Malformed output and bad records
    fail at once, other errors are retried. The task_observer callback
    receives a dict per task start/end/fail, timestamped where the task ran
    and delivered in task order once each phase has finished; tests use it
    to verify the map->reduce barrier and retry behaviour.
    """

    def __init__(self, store, workers: int = 1, max_task_retries: int = 2,
                 task_observer: Callable[[dict], None] | None = None):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.store = store
        self.workers = workers
        self.max_task_retries = max(0, max_task_retries)
        self.task_observer = task_observer
        self._pool: ForkPool | None = None

    def __exit__(self, *exc_info):
        self.close()

    def close(self):
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def _run_phase(self, job_id: int, kind: str, fn, head, payloads: list[tuple],
                   pooled: bool = False) -> list:
        # fn(head, *args) for each task's args in payloads. Pooled, fn is
        # _reduce_task and head the job's reducer, which the pool's workers
        # inherit: a reducer not equal to the pool's needs a pool forked with it
        retries = self.max_task_retries
        if not pooled:
            outcomes = [_attempt(fn, (head, *args), retries) for args in payloads]
        else:
            if self._pool is not None and self._pool.reducer != head:
                self.close()
            if self._pool is None:
                self._pool = ForkPool(self.workers, head)
            try:
                outcomes = self._pool.run(payloads, retries, f"job {job_id} {kind} phase")
            except BaseException:
                self._pool.shutdown(kill=True)
                self._pool = None
                raise
        results = []
        for index, (result, events, error) in enumerate(outcomes):
            if self.task_observer is not None:
                for attempt, event, stamp in events:
                    self.task_observer({"job_id": job_id, "kind": kind, "index": index,
                                        "attempt": attempt, "event": event, "time": stamp})
            if error is not None:
                # raised here, not in a worker: JobFailedError does not unpickle
                raise JobFailedError(job_id, kind, index, error) from error
            results.append(result)
        return results

    def run_job(self, spec: JobSpec, parts: list[list[Record]] | None = None) -> str:
        """Execute one job; returns the sealed output record-set handle. The
        job maps `parts` when given, spec.input's records as the caller has
        read and checked them, else reads spec.input."""
        if parts is None:
            parts = self.store.read_parts(spec.input)
        chunks = _chunk([rec for part in parts for rec in part], spec.num_map_tasks)
        map_outputs = self._run_phase(spec.job_id, "map", _map_task, spec.mapper,
                                      [(chunk,) for chunk in chunks])
        # shuffle: values grouped by key in production order, then the
        # partitioner, a function of the key, routes each key in key order
        groups: dict[int, list[bytes]] = {}
        for out in map_outputs:
            for key, value in out:
                groups.setdefault(key, []).append(value)
        tasks = spec.num_reduce_tasks
        grouped: list[list] = [[] for _ in range(tasks)]
        for key in sorted(groups):
            task = spec.partitioner(key, tasks)
            if not isinstance(task, int) or not 0 <= task < tasks:
                raise EngineError(f"partitioner returned {task!r} for key {key}, "
                                  f"outside [0, {tasks})")
            grouped[task].append((key, groups[key]))
        payloads = [(grouped[t], spec.master_seed, spec.job_id, t) for t in range(tasks)]
        framed = self._run_phase(spec.job_id, "reduce", _reduce_task, spec.reducer,
                                 payloads, pooled=self.workers > 1)
        return self.store.write_packed(f"job{spec.job_id}", framed)
