#!/usr/bin/env python3
"""Compare a base revision with the working tree in alternating perfbench pairs.

    python3 scripts/paired_bench.py --workload pga-n171-disk --workload exact-n15 \\
        --pairs 10 --seconds 20 --seed 28001 --base HEAD

Copies the working tree's `src/`, `perfbench/` and `BENCHMARK.json`, less
`__pycache__` and `.perfbench-tmp`, into one directory under a temporary
directory and exports the base revision's with `git archive` into another,
so that both sides run from fresh copies in the same place and the working
tree itself never runs. Imports `mrtsp.ga` once in each copy, so that the
kernel is compiled before any timed run and the compiler's RSS counts in
neither. Then, for each `--workload` in turn (the option repeats), runs each
copy's `perfbench/run.py --trace 0` for `--pairs` pairs in ABBA order: base
first in even pairs, the change first in odd ones, pair k on seed `--seed` +
k for both. Prints, in one block per workload, every pair's `run_s` and, for
each end-to-end metric of BENCHMARK.json, the base and change medians, the
base's quartiles, the ratio base / change and in how many pairs the change
read lower, flagging WORSE THAN BOUND where the change median is worse than
the base median by more than the metric's bound, as a share of the base
median. Exits 1 when any metric is flagged, and at once when a run reports a
failed check or the two trees' fingerprints differ on a seed.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Callable, NamedTuple

ROOT = Path(__file__).resolve().parent.parent
EXPORTED = ("src", "perfbench", "BENCHMARK.json")
FLAG = "  WORSE THAN BOUND"
CALIBRATION = re.compile(r"calibration loop, which took ([0-9.eE+-]+) ms \(median\)")


class Run(NamedTuple):
    metrics: dict[str, float]
    provenance: dict
    correct: bool

    @property
    def fingerprint(self) -> str:
        return self.provenance["fingerprint"]


def perfbench(tree: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> Run:
    """One perfbench process of the tree. Its metrics include `failed_ratio`
    and, untraced, `calibration_ms`, the median time of its calibration loop."""
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=900).stdout
    lines = out.strip().splitlines()
    provenance = next(json.loads(line.split(" ", 1)[1]) for line in lines
                      if line.startswith("provenance "))
    result = json.loads(lines[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    metrics["failed_ratio"] = result["failed"] / max(result["attempted"], 1)
    if not trace:
        metrics["calibration_ms"] = float(CALIBRATION.search(out).group(1))
    return Run(metrics, provenance, result["correct"] and result["failed"] == 0)


def export(revision: str, into: Path) -> Path:
    """The revision's EXPORTED paths, extracted under into."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", revision, *EXPORTED],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return into


def snapshot(into: Path) -> Path:
    """The working tree's EXPORTED paths, copied under into without the
    caches and scratch files that running them leaves."""
    skip = shutil.ignore_patterns("__pycache__", ".perfbench-tmp")
    into.mkdir(parents=True)
    for name in EXPORTED:
        if (ROOT / name).is_dir():
            shutil.copytree(ROOT / name, into / name, ignore=skip)
        else:
            shutil.copy2(ROOT / name, into / name)
    return into


def warm(tree: Path) -> None:
    """Build the tree's kernel in a process of its own, outside any timed run:
    peak_rss_mb reads the larger of a run's and its children's peak memory."""
    subprocess.run([sys.executable, "-c", "import mrtsp.ga"], cwd=tree, check=True,
                   env={**os.environ, "PYTHONPATH": str(tree / "src")}, timeout=300)


def run_pairs(base: Path, change: Path, workload: str, seed: int, pairs: int, seconds: float,
              runner: Callable[[Path, str, int, float], Run]) -> list[tuple[Run, Run]] | str:
    """(base run, change run) of each pair, runner(tree, workload, seed,
    seconds) making each, in ABBA order; or, at the first failed check or
    fingerprint mismatch, a message naming it."""
    results = []
    for k in range(pairs):
        order = [("base", base), ("change", change)]
        runs = {side: runner(tree, workload, seed + k, seconds)
                for side, tree in (order if k % 2 == 0 else order[::-1])}
        for side, run in runs.items():
            if not run.correct:
                return f"pair {k} (seed {seed + k}): the {side} run failed a check"
        if runs["base"].fingerprint != runs["change"].fingerprint:
            return (f"pair {k} (seed {seed + k}): fingerprints differ, base "
                    f"{runs['base'].fingerprint[:12]}, change {runs['change'].fingerprint[:12]}")
        print(f"pair {k} seed {seed + k}: run_s base {runs['base'].metrics['run_s'] * 1e3:.2f} ms, "
              f"change {runs['change'].metrics['run_s'] * 1e3:.2f} ms", flush=True)
        results.append((runs["base"], runs["change"]))
    return results


def worse_than_bound(was: float, now: float, bound: float, better: str) -> bool:
    """Whether now is worse than was by more than bound, as a share of was."""
    if not was:
        return False
    return now / was > 1 + bound if better == "lower" else now / was < 1 - bound


def summary(results: list[tuple[Run, Run]], metrics: list[str],
            bounds: dict[str, tuple[float, str]] | None = None) -> list[str]:
    """Per metric: medians, the base's quartiles, base / change and k of N
    lower, ending in FLAG where bounds, name -> (bound, better), has the
    metric and its change median is worse than its bound."""
    lines = []
    for name in metrics:
        before = [b.metrics[name] for b, _ in results]
        after = [c.metrics[name] for _, c in results]
        low, _, high = statistics.quantiles(before, n=4) if len(before) > 1 else before * 3
        was, now = statistics.median(before), statistics.median(after)
        ratio = f"{was / now:.3f}x" if now else "n/a"
        lower = sum(c < b for b, c in zip(before, after))
        worse = name in (bounds or {}) and worse_than_bound(was, now, *bounds[name])
        lines.append(f"{name}: base {was:.6g} [{low:.6g}, {high:.6g}] -> change {now:.6g}, "
                     f"{ratio}, lower in {lower} of {len(results)}{FLAG if worse else ''}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True,
                        help="a BENCHMARK.json workload (repeatable)")
    parser.add_argument("--base", default="HEAD", help="git revision to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    metrics = [m["name"] for m in spec]
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec}
    flagged = False
    with tempfile.TemporaryDirectory(prefix="paired-bench-") as tmp:
        base, change = export(args.base, Path(tmp) / "base"), snapshot(Path(tmp) / "change")
        for tree in (base, change):
            warm(tree)
        for workload in args.workload:
            print(f"== {workload}", flush=True)
            results = run_pairs(base, change, workload, args.seed, args.pairs, args.seconds,
                                perfbench)
            if isinstance(results, str):
                print(f"{workload}: {results}", file=sys.stderr)
                return 1
            lines = summary(results, metrics, bounds)
            print("\n".join(lines), flush=True)
            flagged |= any(line.endswith(FLAG) for line in lines)
    return int(flagged)


if __name__ == "__main__":
    sys.exit(main())
