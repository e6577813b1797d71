"""Command-line front end: solve one instance, run benchmark suites, or
query the exact solvers.

`solve` runs the sequential or the island GA once and appends a JSON-lines
report. `bench` runs an (instance x algorithm x seed) grid from a suite
config, writing results.csv, summary.csv and a plot script that mirrors the
accuracy and time comparisons the benchmarks exist for. `exact` prints an
optimal tour and can pin it into the optima registry.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import shutil
import statistics
import sys
from dataclasses import replace
from pathlib import Path

from .codec import CodecError
from .engine import EngineError, StoreError
from .ga import GaParams, TerminationPolicy, run_sga
from .island import IslandParams, run_pga
from .oracle import held_karp
from .reports import RunReport
from .tsplib import Instance, ParseError, load_instance, load_registry, save_registry

SGA_DEFAULT_GENERATIONS = 10_000


def _add_shared_flags(sub: argparse.ArgumentParser):
    sub.add_argument("--pop-size", type=int, help="population size (per island for pga)")
    sub.add_argument("--crossover-prob", type=float, help="crossover probability")
    sub.add_argument("--mutation-prob", type=float, help="per-individual swap mutation probability")
    sub.add_argument("--similarity-threshold", type=float,
                     help="parent pairs more similar than this are redrawn")
    sub.add_argument("--islands", type=int, help="number of islands (pga)")
    sub.add_argument("--migration-interval", type=int,
                     help="generations each island evolves between migrations (pga)")
    sub.add_argument("--max-generations", type=int,
                     help=f"generation budget (default {SGA_DEFAULT_GENERATIONS} sga, "
                          f"{IslandParams.max_total_generations} per-island pga)")
    sub.add_argument("--patience", type=int, metavar="N",
                     help="stop once the last N recorded bests are equal: the initial "
                          "population's and each generation's (sga), each round's (pga); "
                          "so N-1 steps without improvement, and 1 stops after the "
                          "first; 0 disables")
    sub.add_argument("--target-length", type=float, help="stop once best length <= target")
    sub.add_argument("--seed", type=int, default=0, help="run seed (default 0)")
    sub.add_argument("--workers", type=int, default=1,
                     help="pga worker processes, up to N; a run pools from round 2 "
                          "only when its remaining rounds pay for it (default 1 runs "
                          "in-process)")
    sub.add_argument("--out-dir", default=".", help="directory for report files (default .)")


# command-line flag -> GaParams field
_GA_FIELDS = {"pop_size": "population_size", "crossover_prob": "crossover_prob",
              "mutation_prob": "mutation_prob", "similarity_threshold": "similarity_threshold"}
# command-line flag -> IslandParams field
_PGA_FIELDS = {"islands": "num_islands", "migration_interval": "migration_interval",
               "max_generations": "max_total_generations",
               "patience": "convergence_patience", "target_length": "target_length"}


def _given(settings: dict, fields: dict) -> dict:
    """The settings named by fields' flags that are not None, keyed by field."""
    return {field: settings[flag] for flag, field in fields.items() if settings[flag] is not None}


def _run(instance: Instance, algo: str, settings: dict, seed: int, workers: int = 1,
         dump_path: Path | None = None) -> RunReport:
    """Run algo on instance once. settings are keyed as `solve`'s flags, and
    each that is None takes its default; workers and dump_path apply to pga."""
    ga = replace(GaParams(), **_given(settings, _GA_FIELDS))
    if algo == "sga":
        budget = settings["max_generations"]
        termination = TerminationPolicy(target_length=settings["target_length"],
                                        patience=settings["patience"])
        return run_sga(instance, ga, SGA_DEFAULT_GENERATIONS if budget is None else budget,
                       termination, seed=seed)
    params = replace(IslandParams(ga=ga), **_given(settings, _PGA_FIELDS))
    return run_pga(instance, params, master_seed=seed, workers=workers, dump_path=dump_path)


def _append_report(out_dir: Path, report: RunReport):
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "reports.jsonl", "a", encoding="utf-8") as fh:
        fh.write(report.to_json_line() + "\n")


def cmd_solve(args) -> int:
    instance = load_instance(args.instance)
    out_dir = Path(args.out_dir)
    dump = None
    if args.dump_tours and args.algo == "pga":
        out_dir.mkdir(parents=True, exist_ok=True)
        dump = out_dir / "final-population.txt"
    report = _run(instance, args.algo, vars(args), args.seed, args.workers, dump)
    _append_report(out_dir, report)
    print(report.summary_line())
    return 0


# -- benchmark suites --------------------------------------------------------

SUITE_DEFAULTS = {
    "algos": ["sga", "pga"],
    "repeats": 10,
    "seed": 0,
    "pop_size": 100,
    "islands": 10,
    "migration_interval": 50,
    "sga_generations": SGA_DEFAULT_GENERATIONS,
    "pga_generations": None,       # None = max(migration_interval, sga_generations // islands)
    "crossover_prob": None,
    "mutation_prob": None,
    "similarity_threshold": None,
    "patience": 20,                # pga rounds
    "sga_patience": None,          # sga generations
    "stop_at_known_optimum": True,
    "out_dir": None,
}

# numeric suite key -> (type, what its value must be)
_NUMBER_KEYS = {
    **dict.fromkeys(("repeats", "seed", "pop_size", "islands", "migration_interval",
                     "sga_generations", "pga_generations", "patience", "sga_patience"),
                    (int, "an integer")),
    **dict.fromkeys(("crossover_prob", "mutation_prob", "similarity_threshold"),
                    (float, "a number")),
}


def parse_suite_config(text: str, base_dir: Path) -> dict:
    """Plain key-value lines plus repeated `instance <path>` lines.

    Keys use hyphens in the file (`pop-size 50`) and are separated from
    their values by whitespace; `#` starts a comment.
    Instance paths are resolved relative to the config file.
    """
    cfg = dict(SUITE_DEFAULTS)
    cfg["instances"] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        name, rest = (line.split(maxsplit=1) + [""])[:2]
        key = name.replace("-", "_")
        if not rest:
            raise ValueError(f"suite config line {lineno}: {name!r} has no value")
        if key == "instance":
            cfg["instances"].append(base_dir / rest)
        elif key == "algos":
            algos = rest.split()
            bad = [a for a in algos if a not in ("sga", "pga")]
            if bad:
                raise ValueError(f"suite config line {lineno}: unknown algo {bad[0]!r}")
            cfg["algos"] = algos
        elif key == "out_dir":
            cfg["out_dir"] = base_dir / rest
        elif key in _NUMBER_KEYS:
            kind, what = _NUMBER_KEYS[key]
            try:
                cfg[key] = kind(rest)
            except ValueError:
                raise ValueError(f"suite config line {lineno}: {name} needs {what}, "
                                 f"got {rest!r}") from None
        elif key == "stop_at_known_optimum":
            if rest not in ("on", "off"):
                raise ValueError(f"suite config line {lineno}: {name} must be on or off")
            cfg[key] = rest == "on"
        else:
            raise ValueError(f"suite config line {lineno}: unknown key {name!r}")
    if not cfg["instances"]:
        raise ValueError("suite config names no instances")
    return cfg


def _run_cell(instance: Instance, algo: str, seed: int, cfg: dict) -> RunReport:
    budget = cfg[f"{algo}_generations"]
    if budget is None:
        # same number of offspring evaluations as the sga budget, split across islands
        budget = max(cfg["migration_interval"], cfg["sga_generations"] // cfg["islands"])
    target = instance.known_optimum if cfg["stop_at_known_optimum"] else None
    return _run(instance, algo, {**cfg, "max_generations": budget, "target_length": target,
                                 "patience": cfg["sga_patience" if algo == "sga" else "patience"]},
                seed)


RESULT_COLUMNS = ["instance", "N", "algo", "seed", "best", "accuracy",
                  "seconds", "generations", "error"]
SUMMARY_COLUMNS = ["instance", "N", "algo", "runs", "mean_best", "min_best",
                   "mean_accuracy", "mean_seconds"]


def _fixed(value: float | None) -> str | None:
    """value to 4 decimal places; None stays None, a blank cell."""
    return None if value is None else f"{value:.4f}"


def _write_csv(path: Path, columns: list[str], rows: list[list]):
    """A header of columns, then rows; a None cell is written blank."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


def _summary(cells: dict[tuple[str, int, str], list[RunReport]]) -> list[list]:
    """One SUMMARY_COLUMNS row per (instance, N, algo) cell, from its
    successful runs' reports; a cell with none has only its names and 0 runs."""
    rows = []
    for (name, n, algo), reports in cells.items():
        if not reports:
            rows.append([name, None, algo, 0, None, None, None, None])
            continue
        bests = [r.best_length for r in reports]
        accuracies = [r.accuracy for r in reports if r.accuracy is not None]
        rows.append([name, n, algo, len(reports), _fixed(statistics.fmean(bests)), min(bests),
                     _fixed(statistics.fmean(accuracies) if accuracies else None),
                     _fixed(statistics.fmean(r.wall_seconds for r in reports))])
    return rows


# copied next to every bench's CSVs; found in a source checkout only
PLOT_SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "plot_results.py"


def cmd_bench(args) -> int:
    config_path = Path(args.config)
    cfg = parse_suite_config(config_path.read_text(encoding="utf-8"), config_path.parent)
    if args.seed is not None:
        cfg["seed"] = args.seed
    out_dir = Path(args.out_dir) if args.out_dir else Path(cfg["out_dir"] or "bench-out")
    out_dir.mkdir(parents=True, exist_ok=True)

    instances = [load_instance(path) for path in cfg["instances"]]
    rows = []
    cells: dict[tuple[str, int, str], list[RunReport]] = {}
    for inst, algo, repeat in itertools.product(instances, cfg["algos"],
                                                range(cfg["repeats"])):
        seed = cfg["seed"] + repeat
        cell = (inst.name, inst.dimension, algo)
        reports = cells.setdefault(cell, [])
        try:
            report = _run_cell(inst, algo, seed, cfg)
        except Exception as exc:  # per-row failure, suite continues
            rows.append([*cell, seed, None, None, None, None, f"{type(exc).__name__}: {exc}"])
        else:
            _append_report(out_dir, report)
            reports.append(report)
            rows.append([*cell, seed, report.best_length, _fixed(report.accuracy),
                         _fixed(report.wall_seconds), report.generations, None])

    _write_csv(out_dir / "results.csv", RESULT_COLUMNS, rows)
    _write_csv(out_dir / "summary.csv", SUMMARY_COLUMNS, _summary(cells))
    failures = len(rows) - sum(map(len, cells.values()))
    if PLOT_SCRIPT.exists():
        shutil.copyfile(PLOT_SCRIPT, out_dir / "plot_results.py")
    print(f"{len(rows)} runs ({failures} failed) -> {out_dir / 'results.csv'}")
    return 1 if failures else 0


def cmd_exact(args) -> int:
    instance = load_instance(args.instance)
    result = held_karp(instance)
    print(f"{instance.name}: optimum {result.optimum_length}")
    print("tour: " + " ".join(str(c) for c in result.optimum_tour))
    if args.write_registry:
        registry_path = (Path(args.registry) if args.registry
                         else Path(args.instance).with_name("optima.txt"))
        registry = load_registry(registry_path) if registry_path.exists() else {}
        registry[instance.name] = result.optimum_length
        save_registry(registry, registry_path)
        print(f"registry updated: {registry_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mrtsp",
                                     description="GA solvers and exact oracles for (A)TSP instances")
    commands = parser.add_subparsers(dest="command", required=True)

    solve = commands.add_parser("solve", help="run one GA on one instance")
    solve.add_argument("--algo", choices=("sga", "pga"), required=True)
    solve.add_argument("--instance", required=True, help="TSPLIB instance file")
    solve.add_argument("--dump-tours", action="store_true",
                       help="write the final populations in readable form (pga)")
    _add_shared_flags(solve)
    solve.set_defaults(func=cmd_solve)

    bench = commands.add_parser("bench", help="run a benchmark suite from a config file")
    bench.add_argument("--config", required=True, help="suite config file")
    bench.add_argument("--out-dir", help="output directory (default from config, else bench-out)")
    bench.add_argument("--seed", type=int, help="override the suite's base seed")
    bench.set_defaults(func=cmd_bench)

    exact = commands.add_parser("exact", help="solve an instance exactly (Held-Karp)")
    exact.add_argument("--instance", required=True)
    exact.add_argument("--write-registry", action="store_true",
                       help="record the optimum in the instance's optima registry")
    exact.add_argument("--registry", help="registry path (default optima.txt beside the instance)")
    exact.set_defaults(func=cmd_exact)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, CodecError, EngineError, StoreError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
