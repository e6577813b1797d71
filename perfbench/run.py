#!/usr/bin/env python3
"""End-to-end benchmark for mrtsp: seeded workloads through the library API.

    python3 perfbench/run.py --workload pga-n64 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20
    python3 perfbench/run.py --write-spec

A run visits instances made from --seed round-robin for --seconds. Each
visit generates the instance, writes it as TSPLIB and loads it with
`load_instance` (set-up), then solves it with `run_sga`, `run_pga` or
`held_karp` and checks the result. With --trace 0 the last line of standard
output is a JSON object holding the end-to-end metrics; with --trace 1 it
holds the per-layer metrics of a traced run (see spans.py). The exit code is 0 when the run completed, whether or not a check
failed, and 2 when the program cannot be imported from the checkout's src/.
perfbench/README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import spans

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"

RUN_SECONDS = 20
INSTANCES = 20          # instances per (workload, seed), solved round-robin
MIN_SAMPLES = 40        # two visits per instance; ten samples beyond the 75th percentile
TAIL_PERCENTILE = 75
HARD_LIMIT_S = 150.0    # stop sampling past this, whatever --seconds says
CALIBRATION_REF_S = 0.010  # calibration_s() at the reference speed


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str                 # "sga", "pga" or "exact"
    n: int
    population: int = 0       # per island for pga
    generations: int = 0      # sga generations, or generations per island
    islands: int = 0
    interval: int = 0         # generations between migrations
    disk: bool = False        # pga over a FileStore instead of the default MemoryStore

    @property
    def offspring(self) -> int:
        """Offspring bred per solve (elites excluded); 0 for the exact solver."""
        if self.kind == "exact":
            return 0
        return (self.population - 1) * self.generations * max(self.islands, 1)


WORKLOADS = {w.name: w for w in (
    Workload("sga-n64", "sequential GA baseline: GA operators do all the work, "
             "engine, codec and store none; an engine change must not move it",
             "sga", 64, population=50, generations=100),
    Workload("pga-n64", "island GA with quick.conf's 10 islands of 50 and the offspring of "
             "sga-n64: GA-bound reduce tasks, so executor and parallelism changes show",
             "pga", 64, population=50, generations=10, islands=10, interval=5),
    Workload("pga-n171-disk", "island GA migrating every generation over a FileStore: "
             "the persist-every-job path where codec, store and engine cost shows",
             "pga", 171, population=20, generations=5, islands=10, interval=1, disk=True),
    Workload("exact-n15", "Held-Karp numpy DP: the only workload that runs the oracle layer",
             "exact", 15),
)}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float


END_TO_END = [
    Metric("run_s", "s", "lower", 0.25),
    Metric(f"run_s_p{TAIL_PERCENTILE}", "s", "lower", 0.25),
    Metric("best_length", "length", "lower", 0.25),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
]


def spec() -> dict:
    """The BENCHMARK.json contents these definitions imply."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
                       for m in END_TO_END],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, unit, better in spans.PER_LAYER],
    }


class ProgramMissing(Exception):
    pass


def load_program():
    """Import mrtsp from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "mrtsp" / "__init__.py").is_file():
        raise ProgramMissing(f"no mrtsp package under {src}")
    sys.path.insert(0, str(src))
    import mrtsp
    from mrtsp import codec, engine, ga, island, oracle, tsplib
    if Path(mrtsp.__file__).resolve().parent != (src / "mrtsp").resolve():
        raise ProgramMissing(f"mrtsp imported from {mrtsp.__file__}, not from {src}")
    return {"tsplib": tsplib, "ga": ga, "codec": codec, "engine": engine,
            "island": island, "oracle": oracle}


# -- inputs ------------------------------------------------------------------

def instance_matrix(workload: Workload, seed: int, k: int) -> np.ndarray:
    """Uniform [1, 100] asymmetric weights, zero diagonal, from (seed, k, N)."""
    rng = np.random.default_rng([seed, k, workload.n])
    matrix = rng.integers(1, 101, size=(workload.n, workload.n), dtype=np.int64)
    np.fill_diagonal(matrix, 0)
    return matrix


def tsplib_text(name: str, matrix: np.ndarray) -> str:
    lines = [f"NAME: {name}", "TYPE: ATSP", f"DIMENSION: {len(matrix)}",
             "EDGE_WEIGHT_TYPE: EXPLICIT", "EDGE_WEIGHT_FORMAT: FULL_MATRIX",
             "EDGE_WEIGHT_SECTION"]
    lines += [" ".join(map(str, row)) for row in matrix.tolist()]
    lines.append("EOF")
    return "\n".join(lines) + "\n"


def set_up(prog, workload: Workload, seed: int, k: int, tmp: Path):
    """Generate instance k, write it as TSPLIB, load it. Returns (instance, matrix, seconds)."""
    start = perf_counter()
    matrix = instance_matrix(workload, seed, k)
    path = tmp / f"{workload.name}-{seed}-{k}.atsp"
    path.write_text(tsplib_text(path.stem, matrix))
    instance = prog["tsplib"].load_instance(path)
    return instance, matrix, perf_counter() - start


def solve_seed(seed: int, k: int) -> int:
    return seed * INSTANCES + k


def default_workers() -> int:
    return len(os.sched_getaffinity(0))


def solve(prog, workload: Workload, instance, seed: int, workers: int, store_dir: Path):
    """One solve through the public API, as `mrtsp solve` / `mrtsp exact` make it."""
    ga, island = prog["ga"], prog["island"]
    if workload.kind == "exact":
        return prog["oracle"].held_karp(instance)
    params = ga.GaParams(population_size=workload.population)
    if workload.kind == "sga":
        return ga.run_sga(instance, params, workload.generations, seed=seed)
    island_params = island.IslandParams(
        num_islands=workload.islands, migration_interval=workload.interval, ga=params,
        max_total_generations=workload.generations, convergence_patience=0)
    store = prog["engine"].FileStore(store_dir) if workload.disk else None
    return island.run_pga(instance, island_params, master_seed=seed, workers=workers,
                          store=store)


# -- correctness ---------------------------------------------------------------

@dataclass(frozen=True)
class Outcome:
    length: float
    tour: tuple
    trajectory: tuple
    workers: int | None

    @classmethod
    def of(cls, result) -> "Outcome":
        if hasattr(result, "optimum_tour"):
            return cls(result.optimum_length, tuple(result.optimum_tour), (), None)
        return cls(result.best_length, tuple(result.best_tour), tuple(result.trajectory),
                   result.params.get("workers"))

    def fingerprint(self) -> str:
        payload = json.dumps([float(self.length), [int(c) for c in self.tour],
                              [float(x) for x in self.trajectory]])
        return hashlib.sha256(payload.encode()).hexdigest()


def problems(outcome: Outcome, matrix: np.ndarray) -> list[str]:
    """Everything wrong with a result, judged against the generated matrix."""
    n = len(matrix)
    tour = np.asarray(outcome.tour, dtype=np.int64)
    if tour.shape != (n,) or not np.array_equal(np.sort(tour), np.arange(n)):
        return [f"best tour is not a permutation of 0..{n - 1}"]
    found = []
    length = matrix[tour, np.roll(tour, -1)].sum()
    if length != outcome.length:
        found.append(f"tour length is {length}, result says {outcome.length}")
    trajectory = outcome.trajectory
    if any(b > a for a, b in zip(trajectory, trajectory[1:])):
        found.append("trajectory increases")
    if trajectory and trajectory[-1] != outcome.length:
        found.append(f"trajectory ends at {trajectory[-1]}, best is {outcome.length}")
    return found


class Ledger:
    """Counts attempts and failures and pins one fingerprint per instance."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.fingerprints: dict[int, str] = {}
        self.lengths: dict[int, float] = {}
        self.workers: set = set()

    def record(self, k: int, matrix: np.ndarray, result=None, error=None) -> bool:
        self.attempted += 1
        if error is not None:
            return self._fail(k, f"raised {error!r}")
        outcome = Outcome.of(result)
        found = problems(outcome, matrix)
        fingerprint = outcome.fingerprint()
        pinned = self.fingerprints.setdefault(k, fingerprint)
        if pinned != fingerprint:
            found.append(f"fingerprint {fingerprint[:12]} differs from {pinned[:12]}")
        if found:
            return self._fail(k, "; ".join(found))
        self.lengths.setdefault(k, outcome.length)
        if outcome.workers is not None:
            self.workers.add(outcome.workers)
        return True

    def _fail(self, k: int, why: str) -> bool:
        self.failed += 1
        print(f"FAILED instance {k}: {why}", file=sys.stderr)
        return False

    def fingerprint(self) -> str:
        joined = "".join(self.fingerprints[k] for k in sorted(self.fingerprints))
        return hashlib.sha256(joined.encode()).hexdigest()


# -- measurement -----------------------------------------------------------------

def cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def timed_solve(prog, workload, instance, seed, workers, tmp: Path, ledger, k, matrix):
    """Solve once; record the result; return (wall, cpu) seconds or None if it failed."""
    store_dir = tmp / f"store-{ledger.attempted}"
    try:
        cpu0 = cpu_seconds()
        start = perf_counter()
        result = solve(prog, workload, instance, seed, workers, store_dir)
        wall = perf_counter() - start
        cpu = cpu_seconds() - cpu0
    except Exception as exc:  # a failed solve is counted, never fatal
        ledger.record(k, matrix, error=exc)
        return None
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)
    return (wall, cpu) if ledger.record(k, matrix, result=result) else None


def measure(prog, workload: Workload, seed: int, seconds: float, trace: bool,
            instances: int = INSTANCES, min_samples: int = MIN_SAMPLES,
            spans_path: str | None = None) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    tmp_root = ROOT / ".perfbench-tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=tmp_root))
    ledger = Ledger()
    try:
        if trace:
            metrics = _traced_run(prog, workload, seed, seconds, tmp, ledger, instances,
                                  spans_path)
        else:
            metrics = _untraced_run(prog, workload, seed, seconds, tmp, ledger, instances,
                                    min_samples)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            tmp_root.rmdir()  # only when no concurrent run still uses it

    units = {m.name: m.unit for m in END_TO_END}
    units.update((name, unit) for name, unit, _ in spans.PER_LAYER)
    _print_provenance(workload, seed, ledger, instances)
    return {"correct": ledger.failed == 0, "attempted": ledger.attempted,
            "failed": ledger.failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def _cycles(seconds, instances, min_samples, count):
    """Yield instance indices round-robin, in whole cycles, until the run is long enough."""
    start = perf_counter()
    while True:
        for k in range(instances):
            yield k
            if perf_counter() - start > HARD_LIMIT_S:
                return
        if perf_counter() - start >= seconds and count() >= min_samples:
            return


_CALIBRATION_VECTOR = np.arange(16, dtype=np.float64)


def calibration_s(kind: str) -> float:
    """Time a fixed loop that touches no mrtsp code, shaped like the workload's
    inner loop: small-array numpy calls for Held-Karp, pure-Python integer
    work for the GA workloads.

    The host's CPU speed drifts by about 20% in phases lasting seconds to
    minutes, and this loop's time drifts with it. Each set-up and solve is
    scaled by the calibration taken just before it.
    """
    start = perf_counter()
    if kind == "exact":
        for _ in range(4500):
            int(np.argmin(_CALIBRATION_VECTOR + _CALIBRATION_VECTOR))
    else:
        total = 0
        for i in range(100_000):
            total += i * i
    return perf_counter() - start


def _untraced_run(prog, workload, seed, seconds, tmp, ledger, instances, min_samples) -> dict:
    """Visit the instances round-robin: calibrate, set the instance up, solve it."""
    walls, runs, setups, calibrations = [], [], [], []
    workers = default_workers()
    for k in _cycles(seconds, instances, min_samples, lambda: ledger.attempted):
        calibration = calibration_s(workload.kind)
        calibrations.append(calibration)
        scale = CALIBRATION_REF_S / calibration
        instance, matrix, elapsed = set_up(prog, workload, seed, k, tmp)
        setups.append(elapsed * scale)
        timing = timed_solve(prog, workload, instance, solve_seed(seed, k), workers, tmp,
                             ledger, k, matrix)
        if timing is not None:
            walls.append(timing[0])
            runs.append(timing[0] * scale)
    walls, runs = walls or [float("nan")], runs or [float("nan")]

    tail = _percentile(runs, TAIL_PERCENTILE)
    lengths = list(ledger.lengths.values()) or [float("nan")]
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    metrics = {
        "run_s": statistics.median(runs),
        f"run_s_p{TAIL_PERCENTILE}": tail,
        "best_length": float(statistics.fmean(lengths)),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_kb / 1024.0,
    }

    print(f"{workload.name} seed {seed}: {len(runs)} timed solves over {instances} "
          f"instances; times are scaled to a {CALIBRATION_REF_S * 1e3:g} ms calibration "
          f"loop, which took {statistics.median(calibrations) * 1e3:.4g} ms (median)")
    notes = {
        "run_s": f"median (unscaled wall {statistics.median(walls):.6g} s)",
        f"run_s_p{TAIL_PERCENTILE}": f"{sum(r > tail for r in runs)} samples beyond it "
                                     f"(unscaled {_percentile(walls, TAIL_PERCENTILE):.6g} s)",
        "best_length": "mean over instances",
        "setup_s": "median of generate + write TSPLIB + load_instance",
    }
    for metric in END_TO_END:
        print(f"  {metric.name:<16} {metrics[metric.name]:.6g} {metric.unit}  "
              f"{notes.get(metric.name, '')}".rstrip())
    if workload.offspring:
        print(f"  {'offspring_per_s':<16} {workload.offspring / metrics['run_s']:.6g} 1/s  "
              "offspring per solve over run_s")
    print(f"  {'failed_ratio':<16} {ledger.failed / max(ledger.attempted, 1):.6g} ratio  "
          f"{ledger.failed} of {ledger.attempted} solves")
    return metrics


def _traced_run(prog, workload, seed, seconds, tmp, ledger, instances, spans_path) -> dict:
    """Visit the instances round-robin. Per visit: a traced set-up, an untraced
    solve with the default workers, for pga an untraced solve with one worker,
    then a traced solve with one worker. All must give the same fingerprint."""
    tracer = spans.Tracer()
    targets = spans.targets(**prog)
    default, single, traced = [], [], []
    workers = default_workers()
    for k in _cycles(seconds, instances, 1, lambda: len(traced)):
        with tracer.instrument(targets):
            instance, matrix, _ = set_up(prog, workload, seed, k, tmp)
        args = (prog, workload, instance, solve_seed(seed, k))
        timing = timed_solve(*args, workers, tmp, ledger, k, matrix)
        if timing is not None:
            default.append(timing)
        if workload.kind == "pga":
            timing = timed_solve(*args, 1, tmp, ledger, k, matrix)
            if timing is not None:
                single.append(timing[0])
        elif timing is not None:
            single.append(timing[0])
        with tracer.instrument(targets):
            timing = timed_solve(*args, 1, tmp, ledger, k, matrix)
        if timing is not None:
            traced.append(timing[0])
    if spans_path:
        tracer.write(spans_path)

    metrics = tracer.layer_metrics(sum(traced), len(traced))
    wall = sum(w for w, _ in default)
    metrics["engine.cpu_util"] = sum(c for _, c in default) / wall if wall else 0.0
    hk = metrics["oracle.held_karp.s"]
    states = (workload.n - 1) * 2 ** (workload.n - 2)  # (visited set, last city) pairs
    metrics["oracle.held_karp.states_per_s"] = states / hk if hk else 0.0
    metrics["trace.overhead_ratio"] = (statistics.median(traced) / statistics.median(single)
                                       if traced and single else 0.0)
    print(f"{workload.name} seed {seed}: {len(traced)} traced solves, "
          f"{ledger.attempted} solves in all, {ledger.failed} failed")
    if default and single and traced:
        if workload.kind == "pga":
            print(f"  untraced solve median: {statistics.median(w for w, _ in default):.6g} s "
                  f"with {workers} workers, {statistics.median(single):.6g} s with 1")
        print(f"  traced solve median: {statistics.median(traced):.6g} s, untraced "
              f"{statistics.median(single):.6g} s")
    return {name: metrics[name] for name, _, _ in spans.PER_LAYER}


def _percentile(values, pct):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


# -- provenance --------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _print_provenance(workload, seed, ledger, instances):
    print("provenance " + json.dumps({
        "nproc": os.cpu_count(), "affinity": default_workers(), "cpu_model": _cpu_model(),
        "python": platform.python_version(), "numpy": np.__version__,
        "commit": _git_commit(), "workload": workload.name, "seed": seed,
        "instances": instances, "pga_workers": sorted(ledger.workers),
        "fingerprint": ledger.fingerprint(),
    }, sort_keys=True))


# -- command line --------------------------------------------------------------------

def _run_all(args) -> int:
    """Each workload in a fresh process, so peak RSS is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="with --trace 1, also write every span to this "
                        "gzipped JSON-lines file")
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json from the definitions in this file")
    args = parser.parse_args(argv)
    # a terminated run still removes its temporary files (the finally blocks)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.write_spec:
        SPEC_PATH.write_text(json.dumps(spec(), indent=2) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        prog = load_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"cannot load the program: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    result = measure(prog, WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace), spans_path=args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
