#!/usr/bin/env python3
"""Record one point of the perf trajectory as BENCH_<n>.json at the repo root.

    python3 scripts/bench_snapshot.py --seed 7 --seconds 10

Builds the kernel first, so that no timed run compiles it and counts the C
compiler in its peak_rss_mb. Then runs perfbench/run.py untraced (--trace 0)
three times and traced (--trace 1) once for every workload, each in its own
process and through paired_bench.py's launcher, and writes the end-to-end
metrics (every run's value and their median), each untraced run's median
calibration-loop time, the per-layer metrics, the fingerprints, the machine,
the commit with `git status --porcelain -- src` beside it (so a snapshot of
uncommitted sources says so), the `src/mrtsp` line counts, of all lines
and of code lines, and the `scripts` code line counts to the next free
BENCH_<n>.json. Then prints the three line totals, old and new, and every
metric's ratio against the previous file, medians for end-to-end metrics,
flagging those that got worse by more than their BENCHMARK.json bound, with
each workload's old and new calibration time beside its ratios.
A pga workload whose traced `engine.cpu_util` is below LOW_CPU_UTIL is
flagged too, and then no file is written: the ratios still print, and the
script names each flagged workload and exits with status 1. A regression
stays in the file.
"""

from __future__ import annotations

import argparse
import ast
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

from paired_bench import perfbench, warm, worse_than_bound

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNTRACED_RUNS = 3  # one run's spread can exceed a real change (pga-n171-disk)
# The pga workloads run every solve in-process (see island.POOL_BREAK_EVEN_S).
# Traced on two cores, they read 0.99-1.00 idle and 0.98-1.00 beside one busy
# loop, but 0.57-0.76 beside two, which took a core from them. Below this,
# another process held a core, and that workload's times and ratios are
# suspect. A pga workload that pools reads higher, and could lose a core
# unflagged.
LOW_CPU_UTIL = 0.9


def source_status() -> list[str] | None:
    """`git status --porcelain -- src` of the checkout, a line per changed or
    untracked path under src; None where git cannot say."""
    try:
        status = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=ROOT,
                                capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.SubprocessError):
        return None
    return status.stdout.splitlines() if status.returncode == 0 else None


def code_lines(path: Path) -> int:
    """Lines of code in a .py or .c file: in Python, those that are not blank,
    not comment-only and not inside a docstring; in C, those left non-blank
    once /* ... */ comments are removed."""
    text = path.read_text()
    if path.suffix == ".c":
        return sum(1 for line in re.sub(r"/\*.*?\*/", "", text, flags=re.S).splitlines()
                   if line.strip())
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return sum(1 for number, line in enumerate(text.splitlines(), 1)
               if number not in docstrings and line.strip() and not line.lstrip().startswith("#"))


def line_counts(count=lambda path: len(path.read_text().splitlines()),
                directory: str = "src/mrtsp") -> dict[str, int]:
    """count(file) for every .py and .c file in directory, and their total."""
    src = ROOT / directory
    counts = {f.name: count(f) for f in sorted([*src.glob("*.py"), *src.glob("*.c")])}
    return {**counts, "total": sum(counts.values())}


def low_cpu_util(snapshot: dict) -> dict[str, float]:
    """Traced `engine.cpu_util` of each pga workload below LOW_CPU_UTIL."""
    utils = {workload: cell["per_layer"]["engine.cpu_util"]
             for workload, cell in snapshot["workloads"].items()}
    return {workload: util for workload, util in utils.items()
            if workload.startswith("pga") and util < LOW_CPU_UTIL}


def compare(new: dict, old: dict) -> None:
    bounds = {m["name"]: (m["bound"], m["better"]) for m in SPEC["end_to_end"]}
    for key in ("src_mrtsp_lines", "src_mrtsp_code_lines", "scripts_code_lines"):
        print(f"{key} total: {old.get(key, {}).get('total', 'not recorded')} -> "
              f"{new[key]['total']}")
    low = low_cpu_util(new)
    for workload, cell in new["workloads"].items():
        before = old["workloads"].get(workload, {})
        was, now = (c.get("end_to_end", {}).get("calibration_ms") for c in (before, cell))
        flag = (f"  LOW CPU UTIL: traced engine.cpu_util {low[workload]:.3g} < {LOW_CPU_UTIL}"
                if workload in low else "")
        print(f"{workload}: calibration loop {f'{was:.4g} ms' if was else 'not recorded'}"
              f" -> {now:.4g} ms{flag}")
        for kind in ("end_to_end", "per_layer"):
            for name, value in cell[kind].items():
                base = before.get(kind, {}).get(name)
                if not base or not isinstance(value, (int, float)):
                    continue
                worse = name in bounds and worse_than_bound(base, value, *bounds[name])
                flag = "  WORSE THAN BOUND" if worse else ""
                print(f"{workload:<14} {name:<40} {base:>12.6g} -> {value:<12.6g} x{value / base:.3f}{flag}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--note", action="append", default=[],
                        help="free text kept in the file's notes (repeatable)")
    args = parser.parse_args(argv)
    taken = [int(m.group(1)) for p in ROOT.glob("BENCH_*.json")
             if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name))]
    snapshot = {"seed": args.seed, "seconds": args.seconds, "untraced_runs": UNTRACED_RUNS,
                "notes": args.note, "workloads": {}, "src_mrtsp_lines": line_counts(),
                "src_mrtsp_code_lines": line_counts(code_lines),
                "scripts_code_lines": line_counts(code_lines, "scripts"),
                "src_status": source_status()}
    warm(ROOT)
    for workload in (w["name"] for w in SPEC["workloads"]):
        runs = [perfbench(ROOT, workload, args.seed, args.seconds)
                for _ in range(UNTRACED_RUNS)]
        provenance = runs[0].provenance
        if any(run.fingerprint != provenance["fingerprint"] for run in runs):
            raise SystemExit(f"{workload}: untraced runs disagree on the fingerprint")
        end_to_end = {name: statistics.median(run.metrics[name] for run in runs)
                      for name in runs[0].metrics}
        traced = perfbench(ROOT, workload, args.seed, args.seconds, 1)
        snapshot["workloads"][workload] = {
            "end_to_end": end_to_end,
            "end_to_end_runs": {name: [run.metrics[name] for run in runs] for name in end_to_end},
            "per_layer": traced.metrics,
            "fingerprint": provenance["fingerprint"],
            "traced_fingerprint": traced.fingerprint}
        snapshot["machine"] = {key: provenance[key] for key in
                               ("nproc", "affinity", "cpu_model", "python", "numpy")}
        snapshot["commit"] = provenance["commit"]
        print(f"{workload}: median run_s {end_to_end['run_s']:.6g} s, "
              f"fingerprint {provenance['fingerprint'][:12]}", file=sys.stderr)
    path = ROOT / f"BENCH_{max(taken, default=0) + 1}.json"
    low = low_cpu_util(snapshot)
    if not low:
        path.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path.name}")
    old = {"workloads": {}}  # with no earlier file, only calibration and flags print
    if taken:
        previous = ROOT / f"BENCH_{max(taken)}.json"
        print(f"ratios against {previous.name}:")
        old = json.loads(previous.read_text())
    compare(snapshot, old)
    if low:
        flagged = ", ".join(f"{workload} (traced engine.cpu_util {util:.3g})"
                            for workload, util in low.items())
        print(f"{path.name} not written: LOW CPU UTIL on {flagged}, below {LOW_CPU_UTIL}; "
              "another process likely held a core, so take the snapshot again",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
