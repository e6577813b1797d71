"""Span tracing for the benchmark's traced run.

The program itself carries no tracing, so this module wraps the public
functions of the mrtsp modules from the outside. Each call to a wrapped
function becomes one span: a name, the index of the enclosing span, and its
start and end times. Spans stay in memory (four flat arrays) until the run is
over; `Tracer.layer_metrics` then folds them into per-layer numbers, and
`Tracer.write` can dump them, with self times, as JSON lines.

Wrapping only works for calls made in the tracing thread, so the traced run
drives the engine with one worker, which keeps every task in-process.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import statistics
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

# Functions reported with calls, us_per_call and self_share, by layer.
_TIMED = {
    "ga": ("next_generation", "greedy_crossover", "select_parents", "similarity",
           "tour_length", "mutate"),
    "codec": ("encode_chromosome", "decode_chromosome", "peek_length"),
    "engine.store": ("write_parts", "read_parts"),
}
# (metric, unit, better) for every per-layer metric the traced run reports.
PER_LAYER = [("tsplib.load_instance.s", "s", "lower")]
PER_LAYER += [(f"{layer}.{function}.{stat}", unit, "lower")
              for layer, functions in _TIMED.items() for function in functions
              for stat, unit in (("calls", "count"), ("us_per_call", "us"),
                                 ("self_share", "ratio"))]
PER_LAYER += [
    ("codec.bytes_encoded", "bytes", "lower"),
    ("ga.select_parents.accept_ratio", "ratio", "higher"),
    ("ga.mutate.fired_ratio", "ratio", "higher"),
    ("ga.crossover_ratio", "ratio", "higher"),
    ("engine.run_job.calls", "count", "lower"),
    ("engine.run_job.self_share", "ratio", "lower"),
    ("engine.store.bytes_written", "bytes", "lower"),
    ("engine.records_shuffled", "count", "lower"),
    ("engine.task_retries", "count", "lower"),
    ("engine.cpu_util", "cpu_s/s", "higher"),
    ("island.evolve_reduce.calls", "count", "lower"),
    ("island.evolve_reduce.self_share", "ratio", "lower"),
    ("island.run_pga.self_share", "ratio", "lower"),
    ("island.migrants", "count", "lower"),
    ("island.reduce_imbalance", "ratio", "lower"),
    ("oracle.held_karp.s", "s", "lower"),
    ("oracle.held_karp.states_per_s", "1/s", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


def _mutate_fired(counters, args, result):
    counters["ga.mutate.fired"] += result is not args[0]


def _bytes_encoded(counters, args, result):
    counters["codec.bytes_encoded"] += len(result)


def _reduce_tasks(counters, args, result):
    counters["engine.reduce_tasks"] += args[1].num_reduce_tasks


def _bytes_written(counters, args, result):
    # framed size: an 8-byte key/length header per record plus its value
    counters["engine.store.bytes_written"] += sum(
        8 + len(rec.value) for part in args[2] for rec in part)


def _reduce_inputs(counters, args, result):
    counters["engine.reducer_calls"] += 1
    counters["engine.records_shuffled"] += len(args[2])


def _evolve_outputs(counters, args, result):
    _reduce_inputs(counters, args, result)
    key = args[1]
    counters["island.migrants"] += sum(rec.key != key for rec in result)


def targets(tsplib, ga, codec, engine, island, oracle):
    """(owner, attribute, span name, counter hook) for every wrapped callable.

    An owner that is a class gets its method replaced; for a module, every
    mrtsp module binding the same function object is patched, so names that
    island imports from ga and codec are traced as well.
    """
    out = [(tsplib, "load_instance", "tsplib.load_instance", None),
           (ga, "mutate", "ga.mutate", _mutate_fired),
           (codec, "encode_chromosome", "codec.encode_chromosome", _bytes_encoded),
           (engine.Engine, "run_job", "engine.run_job", _reduce_tasks),
           (island, "run_pga", "island.run_pga", None),
           (island.InitReducer, "__call__", "island.init_reduce", _reduce_inputs),
           (island.EvolveReducer, "__call__", "island.evolve_reduce", _evolve_outputs),
           (oracle, "held_karp", "oracle.held_karp", None)]
    for function in ("next_generation", "greedy_crossover", "select_parents",
                     "similarity", "tour_length"):
        out.append((ga, function, f"ga.{function}", None))
    for function in ("decode_chromosome", "peek_length"):
        out.append((codec, function, f"codec.{function}", None))
    for store in (engine.MemoryStore, engine.FileStore):
        out.append((store, "write_parts", "engine.store.write_parts", _bytes_written))
        out.append((store, "read_parts", "engine.store.read_parts", None))
    return out


class Tracer:
    """In-memory span log for one traced run, single-threaded."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.kinds = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn, hook=None):
        kind = self._name_ids.setdefault(name, len(self._name_ids))
        if kind == len(self.names):
            self.names.append(name)
        kinds, parents, starts, ends = self.kinds, self.parents, self.starts, self.ends
        stack, counters = self._stack, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(kinds)
            kinds.append(kind)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(counters, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def instrument(self, target_list):
        """Patch every target for the duration of the block, then restore."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "mrtsp" or name.startswith("mrtsp.")]
        patched = []
        try:
            for owner, attr, name, hook in target_list:
                if isinstance(owner, type):
                    original = owner.__dict__[attr]
                    patched.append((owner, attr, original))
                    setattr(owner, attr, self.wrap(name, original, hook))
                    continue
                original = getattr(owner, attr)
                wrapper = self.wrap(name, original, hook)
                for module in modules:
                    for alias, value in list(vars(module).items()):
                        if value is original:
                            patched.append((module, alias, original))
                            setattr(module, alias, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    def self_times(self) -> array:
        """Each span's duration minus the durations of its direct children."""
        own = array("d", (end - start for start, end in zip(self.starts, self.ends)))
        durations = array("d", own)
        for parent, duration in zip(self.parents, durations):
            if parent >= 0:
                own[parent] -= duration
        return own

    def write(self, path) -> None:
        """Write every span, with its parent link and self time, as gzipped JSON lines."""
        own = self.self_times()
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, kind in enumerate(self.kinds):
                fh.write(json.dumps({"id": i, "name": self.names[kind],
                                     "parent": self.parents[i], "start": self.starts[i],
                                     "end": self.ends[i], "self": own[i]}) + "\n")

    def layer_metrics(self, traced_wall: float, traced_runs: int) -> dict[str, float]:
        """Per-layer metrics over every span logged so far.

        traced_wall is the summed wall time of the traced solves and
        traced_runs their number: shares are of traced_wall, counts are per
        traced solve. tsplib.load_instance spans come from set-up and only
        feed tsplib.load_instance.s.
        """
        own = self.self_times()
        calls: Counter = Counter()
        total: defaultdict = defaultdict(float)
        self_total: defaultdict = defaultdict(float)
        durations: defaultdict = defaultdict(list)
        reducers_by_job: defaultdict = defaultdict(list)
        evolve = self._name_ids.get("island.evolve_reduce")
        for i, kind in enumerate(self.kinds):
            name = self.names[kind]
            duration = self.ends[i] - self.starts[i]
            calls[name] += 1
            total[name] += duration
            self_total[name] += own[i]
            if name in ("tsplib.load_instance", "oracle.held_karp"):
                durations[name].append(duration)
            if kind == evolve:
                reducers_by_job[self.parents[i]].append(duration)

        runs = max(traced_runs, 1)
        wall = traced_wall if traced_wall > 0 else 1.0
        out: dict[str, float] = {}
        for layer, functions in _TIMED.items():
            for function in functions:
                name = f"{layer}.{function}"
                out[f"{name}.calls"] = calls[name] / runs
                out[f"{name}.us_per_call"] = (1e6 * total[name] / calls[name]
                                              if calls[name] else 0.0)
                out[f"{name}.self_share"] = self_total[name] / wall
        c = self.counters
        out["tsplib.load_instance.s"] = _median(durations["tsplib.load_instance"])
        out["codec.bytes_encoded"] = c["codec.bytes_encoded"] / runs
        out["ga.select_parents.accept_ratio"] = _ratio(calls["ga.select_parents"],
                                                       calls["ga.similarity"])
        out["ga.mutate.fired_ratio"] = _ratio(c["ga.mutate.fired"], calls["ga.mutate"])
        # mutate runs once per bred offspring, crossover only when its draw fires
        out["ga.crossover_ratio"] = _ratio(calls["ga.greedy_crossover"], calls["ga.mutate"])
        out["engine.run_job.calls"] = calls["engine.run_job"] / runs
        out["engine.run_job.self_share"] = self_total["engine.run_job"] / wall
        out["engine.store.bytes_written"] = c["engine.store.bytes_written"] / runs
        out["engine.records_shuffled"] = c["engine.records_shuffled"] / runs
        out["engine.task_retries"] = (c["engine.reducer_calls"] - c["engine.reduce_tasks"]) / runs
        out["island.evolve_reduce.calls"] = calls["island.evolve_reduce"] / runs
        out["island.evolve_reduce.self_share"] = self_total["island.evolve_reduce"] / wall
        out["island.run_pga.self_share"] = self_total["island.run_pga"] / wall
        out["island.migrants"] = c["island.migrants"] / runs
        imbalance = [max(d) / statistics.fmean(d) for d in reducers_by_job.values()
                     if statistics.fmean(d) > 0]
        out["island.reduce_imbalance"] = statistics.fmean(imbalance) if imbalance else 0.0
        out["oracle.held_karp.s"] = _median(durations["oracle.held_karp"])
        return out


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
