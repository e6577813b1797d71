import csv
import json
import statistics
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mrtsp import cli
from mrtsp.cli import (RESULT_COLUMNS, SUMMARY_COLUMNS, main,
                       parse_suite_config)
from mrtsp.ga import GaParams, run_sga
from mrtsp.island import IslandParams, run_pga
from mrtsp.tsplib import (Instance, format_instance, load_instance,
                          load_registry, random_instance)

THREE_CITY_TEXT = format_instance(Instance("toy3", 3, np.array(
    [[0, 1, 2], [2, 0, 3], [4, 5, 0]])))


@pytest.fixture(scope="module")
def inst_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("instances")
    for stem, n, seed in (("eight", 8, 5), ("ten", 10, 2)):
        (d / f"{stem}.atsp").write_text(
            format_instance(random_instance(n, (1, 100), seed=seed)))
    (d / "toy3.atsp").write_text(THREE_CITY_TEXT)
    return d


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_solve_sga_happy_path(inst_dir, tmp_path, capsys):
    rc = main(["solve", "--algo", "sga", "--instance", str(inst_dir / "eight.atsp"),
               "--pop-size", "20", "--max-generations", "30", "--seed", "1",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "sga rand8s5 seed=1" in out
    lines = (tmp_path / "reports.jsonl").read_text().splitlines()
    assert len(lines) == 1
    report = json.loads(lines[0])
    assert report["algo"] == "sga"
    assert report["generations"] == 30
    assert sorted(report["best_tour"]) == list(range(8))
    assert report["rounds"] == []


def test_solve_sga_takes_the_default_budget(inst_dir, tmp_path, capsys):
    rc = main(["solve", "--algo", "sga", "--instance", str(inst_dir / "toy3.atsp"),
               "--pop-size", "4", "--patience", "1", "--out-dir", str(tmp_path)])
    assert rc == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "reports.jsonl").read_text())
    assert report["params"]["max_generations"] == 10_000
    assert (report["generations"], report["stop_reason"]) == (1, "stagnation")


def test_solve_is_deterministic_and_appends(inst_dir, tmp_path, capsys):
    argv = ["solve", "--algo", "sga", "--instance", str(inst_dir / "ten.atsp"),
            "--pop-size", "15", "--max-generations", "20", "--seed", "7",
            "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    assert main(argv) == 0
    capsys.readouterr()
    first, second = map(json.loads, (tmp_path / "reports.jsonl").read_text().splitlines())
    assert first["best_length"] == second["best_length"]
    assert first["best_tour"] == second["best_tour"]


def test_solve_pga_with_dump(inst_dir, tmp_path, capsys):
    rc = main(["solve", "--algo", "pga", "--instance", str(inst_dir / "eight.atsp"),
               "--islands", "2", "--pop-size", "10", "--migration-interval", "2",
               "--max-generations", "4", "--patience", "0", "--seed", "0",
               "--dump-tours", "--out-dir", str(tmp_path)])
    assert rc == 0
    assert "pga rand8s5" in capsys.readouterr().out
    dump = tmp_path / "final-population.txt"
    assert len(dump.read_text().splitlines()) == 20
    report = json.loads((tmp_path / "reports.jsonl").read_text())
    assert report["generations"] == 4
    assert report["params"]["num_islands"] == 2
    rounds = report["rounds"]
    assert [r["round"] for r in rounds] == [1, 2]
    assert [r["generations"] for r in rounds] == [2, 4]
    assert all(len(r["island_bests"]) == 2 for r in rounds)
    assert [r["best_length"] for r in rounds] == [min(r["island_bests"]) for r in rounds]
    assert report["trajectory"][1:] == [r["best_length"] for r in rounds]
    assert 0 < rounds[0]["wall_seconds"] <= rounds[1]["wall_seconds"]


def test_solve_rejects_single_island(inst_dir, tmp_path, capsys):
    rc = main(["solve", "--algo", "pga", "--instance", str(inst_dir / "eight.atsp"),
               "--islands", "1", "--out-dir", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("algo,flag,message", [
    ("sga", "--max-generations", "max_generations must be >= 1, got 0"),
    ("pga", "--max-generations", "max_total_generations must cover at least one round"),
    ("pga", "--migration-interval", "migration_interval must be >= 1, got 0"),
    ("pga", "--workers", "workers must be >= 1, got 0"),
])
def test_solve_zero_settings_reach_the_validators(inst_dir, tmp_path, capsys, algo, flag,
                                                   message):
    rc = main(["solve", "--algo", algo, "--instance", str(inst_dir / "eight.atsp"),
               flag, "0", "--out-dir", str(tmp_path)])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "reports.jsonl").exists()


@pytest.mark.parametrize("algo", ["sga", "pga"])
def test_solve_rejects_a_negative_patience(inst_dir, tmp_path, capsys, algo):
    rc = main(["solve", "--algo", algo, "--instance", str(inst_dir / "eight.atsp"),
               "--islands", "2", "--patience", "-2", "--out-dir", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "patience must be >= 0 or None" in err
    assert not (tmp_path / "reports.jsonl").exists()


@pytest.mark.parametrize("algo", ["sga", "pga"])
def test_solve_rejects_a_nan_target(inst_dir, tmp_path, capsys, algo):
    # such a target never stops a run, which would spend its budget and exit 0
    rc = main(["solve", "--algo", algo, "--instance", str(inst_dir / "eight.atsp"),
               "--islands", "2", "--target-length", "nan", "--out-dir", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err == "error: target_length must be a number, got nan\n"
    assert not (tmp_path / "reports.jsonl").exists()


def test_solve_pga_rejects_non_integer_weights(tmp_path, capsys):
    weights = np.random.default_rng(0).uniform(1, 10, (8, 8))
    np.fill_diagonal(weights, 0.0)
    path = tmp_path / "float8.atsp"
    path.write_text(format_instance(Instance("float8", 8, weights)))
    rc = main(["solve", "--algo", "pga", "--instance", str(path), "--islands", "2",
               "--pop-size", "10", "--max-generations", "50", "--out-dir", str(tmp_path)])
    assert rc == 1
    assert "integer edge weights" in capsys.readouterr().err
    assert not (tmp_path / "reports.jsonl").exists()


def test_solve_pga_rejects_overflowing_tour_lengths(tmp_path, capsys, monkeypatch):
    # the parser keeps weights below 2**53, so overflow needs more than 2048
    # cities on disk; a hand-built instance stands in for such a file
    weights = np.full((10, 10), 2**61, dtype=np.int64)
    np.fill_diagonal(weights, 0)
    monkeypatch.setattr(cli, "load_instance", lambda path: Instance("heavy10", 10, weights))
    rc = main(["solve", "--algo", "pga", "--instance", "heavy10.atsp", "--islands", "2",
               "--pop-size", "10", "--max-generations", "50", "--out-dir", str(tmp_path)])
    assert rc == 1
    assert "64-bit tour length" in capsys.readouterr().err
    assert not (tmp_path / "reports.jsonl").exists()


def test_solve_missing_instance(tmp_path, capsys):
    rc = main(["solve", "--algo", "sga", "--instance", str(tmp_path / "nope.atsp"),
               "--out-dir", str(tmp_path)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_solve_unknown_algo_is_usage_error(inst_dir, tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["solve", "--algo", "tabu", "--instance", str(inst_dir / "eight.atsp"),
              "--out-dir", str(tmp_path)])
    assert err.value.code == 2


BENCH_CONFIG = """\
# smoke suite: tiny budgets, two instances
instance eight.atsp
instance ten.atsp
algos sga pga
repeats 10
pop-size 10
islands 2
migration-interval 5
sga-generations 30
pga-generations 15
patience 0
stop-at-known-optimum off
"""


def test_bench_suite(inst_dir, tmp_path, capsys):
    config = inst_dir / "suite.conf"
    config.write_text(BENCH_CONFIG)
    out_dir = tmp_path / "out"
    rc = main(["bench", "--config", str(config), "--out-dir", str(out_dir)])
    assert rc == 0
    assert f"40 runs (0 failed) -> {out_dir / 'results.csv'}" in capsys.readouterr().out

    rows = read_rows(out_dir / "results.csv")
    assert len(rows) == 40
    assert list(rows[0]) == RESULT_COLUMNS
    assert {r["algo"] for r in rows} == {"sga", "pga"}
    assert {r["instance"] for r in rows} == {"rand8s5", "rand10s2"}
    assert all(r["error"] == "" for r in rows)
    assert all(r["accuracy"] == "" for r in rows)  # no registry, no reference
    by_cell = {}
    for r in rows:
        by_cell.setdefault((r["instance"], r["algo"]), []).append(r)
    assert all(len(cell) == 10 for cell in by_cell.values())
    assert [int(r["seed"]) for r in by_cell[("rand8s5", "sga")]] == list(range(10))

    summary = read_rows(out_dir / "summary.csv")
    assert len(summary) == 4
    assert list(summary[0]) == SUMMARY_COLUMNS
    for row in summary:
        assert row["runs"] == "10"
        assert float(row["mean_best"]) >= float(row["min_best"])

    assert (out_dir / "plot_results.py").exists()
    assert len((out_dir / "reports.jsonl").read_text().splitlines()) == 40


def test_bench_rows_match_direct_api_runs(inst_dir, tmp_path, capsys):
    config = inst_dir / "suite.conf"
    config.write_text(BENCH_CONFIG)
    out_dir = tmp_path / "out"
    assert main(["bench", "--config", str(config), "--out-dir", str(out_dir)]) == 0
    capsys.readouterr()
    rows = read_rows(out_dir / "results.csv")
    eight = load_instance(inst_dir / "eight.atsp")
    ga = GaParams(population_size=10)

    sga_row = next(r for r in rows if r["algo"] == "sga" and r["instance"] == "rand8s5"
                   and r["seed"] == "3")
    direct = run_sga(eight, ga, 30, seed=3)
    assert float(sga_row["best"]) == direct.best_length
    assert int(sga_row["generations"]) == direct.generations

    pga_row = next(r for r in rows if r["algo"] == "pga" and r["instance"] == "rand8s5"
                   and r["seed"] == "3")
    params = IslandParams(num_islands=2, migration_interval=5, ga=ga,
                          max_total_generations=15, convergence_patience=0)
    direct = run_pga(eight, params, master_seed=3)
    assert float(pga_row["best"]) == direct.best_length
    assert int(pga_row["generations"]) == direct.generations


def test_bench_csvs_hold_exact_bests(tmp_path, capsys):
    # tours of over a million: six significant digits would round them
    (tmp_path / "heavy.atsp").write_text(
        format_instance(random_instance(12, (100000, 300000), seed=3)))
    config = tmp_path / "heavy.conf"
    config.write_text("instance heavy.atsp\nalgos sga pga\nrepeats 2\npop-size 10\n"
                      "islands 2\nmigration-interval 5\nsga-generations 30\n"
                      "stop-at-known-optimum off\n")
    out_dir = tmp_path / "out"
    assert main(["bench", "--config", str(config), "--out-dir", str(out_dir)]) == 0
    capsys.readouterr()
    reports = [json.loads(line) for line in (out_dir / "reports.jsonl").read_text().splitlines()]
    rows = read_rows(out_dir / "results.csv")
    assert [(r["algo"], int(r["seed"])) for r in rows] == [(r["algo"], r["seed"]) for r in reports]
    assert [int(r["best"]) for r in rows] == [r["best_length"] for r in reports]
    assert min(r["best_length"] for r in reports) >= 10**6
    summary = {r["algo"]: r for r in read_rows(out_dir / "summary.csv")}
    for algo in ("sga", "pga"):
        bests = [r["best_length"] for r in reports if r["algo"] == algo]
        assert summary[algo]["min_best"] == str(min(bests))
        assert summary[algo]["mean_best"] == f"{statistics.fmean(bests):.4f}"


@pytest.mark.parametrize("algo", ["sga", "pga"])
def test_solve_and_bench_share_the_run_path(inst_dir, tmp_path, capsys, algo):
    solve_dir, bench_dir = tmp_path / "solve", tmp_path / "bench"
    assert main(["solve", "--algo", algo, "--instance", str(inst_dir / "eight.atsp"),
                 "--pop-size", "10", "--islands", "2", "--migration-interval", "5",
                 "--max-generations", "15", "--patience", "0", "--seed", "3",
                 "--out-dir", str(solve_dir)]) == 0
    config = inst_dir / f"one-{algo}.conf"
    config.write_text(f"instance eight.atsp\nalgos {algo}\nrepeats 1\nseed 3\npop-size 10\n"
                      "islands 2\nmigration-interval 5\nsga-generations 15\n"
                      "pga-generations 15\npatience 0\nsga-patience 0\n"
                      "stop-at-known-optimum off\n")
    assert main(["bench", "--config", str(config), "--out-dir", str(bench_dir)]) == 0
    capsys.readouterr()

    def untimed(out_dir):
        report = json.loads((out_dir / "reports.jsonl").read_text())
        del report["wall_seconds"]
        for summary in report["rounds"]:
            del summary["wall_seconds"]
        return report

    solved = untimed(solve_dir)
    assert solved == untimed(bench_dir)
    assert solved["generations"] == 15 and len(solved["rounds"]) == (3 if algo == "pga" else 0)


def test_bench_seed_override(inst_dir, tmp_path, capsys):
    config = inst_dir / "mini.conf"
    config.write_text("instance eight.atsp\nalgos sga\nrepeats 2\npop-size 10\n"
                      "sga-generations 5\nstop-at-known-optimum off\n")
    out_dir = tmp_path / "out"
    assert main(["bench", "--config", str(config), "--out-dir", str(out_dir),
                 "--seed", "100"]) == 0
    capsys.readouterr()
    rows = read_rows(out_dir / "results.csv")
    assert [r["seed"] for r in rows] == ["100", "101"]


def test_bench_failed_cells_are_rows_not_crashes(inst_dir, tmp_path, capsys):
    config = inst_dir / "broken.conf"
    # pga budget below the migration interval: every pga cell must fail
    config.write_text("instance eight.atsp\ninstance ten.atsp\nalgos sga pga\n"
                      "repeats 2\npop-size 10\nsga-generations 5\n"
                      "pga-generations 3\nmigration-interval 5\n"
                      "stop-at-known-optimum off\n")
    out_dir = tmp_path / "out"
    rc = main(["bench", "--config", str(config), "--out-dir", str(out_dir)])
    assert rc == 1
    assert "8 runs (4 failed)" in capsys.readouterr().out
    rows = read_rows(out_dir / "results.csv")
    sga_rows = [r for r in rows if r["algo"] == "sga"]
    pga_rows = [r for r in rows if r["algo"] == "pga"]
    assert all(r["error"] == "" and r["best"] != "" for r in sga_rows)
    assert all(r["error"] != "" and r["best"] == "" for r in pga_rows)
    summary = {(r["instance"], r["algo"]): r for r in read_rows(out_dir / "summary.csv")}
    assert summary[("rand8s5", "sga")]["runs"] == "2"
    assert summary[("rand8s5", "pga")]["runs"] == "0"
    assert summary[("rand8s5", "pga")]["mean_best"] == ""


def test_a_second_bench_into_one_dir_keeps_only_its_own_reports(inst_dir, tmp_path, capsys):
    first, second = inst_dir / "first.conf", inst_dir / "second.conf"
    first.write_text("instance ten.atsp\nalgos sga\nrepeats 3\npop-size 10\n"
                     "sga-generations 5\nstop-at-known-optimum off\n")
    # every pga cell fails: its budget is below the migration interval
    second.write_text("instance eight.atsp\nalgos sga pga\nrepeats 2\npop-size 10\n"
                      "sga-generations 5\npga-generations 3\nmigration-interval 5\n"
                      "stop-at-known-optimum off\n")
    out_dir = tmp_path / "out"
    assert main(["bench", "--config", str(first), "--out-dir", str(out_dir)]) == 0
    assert main(["bench", "--config", str(second), "--out-dir", str(out_dir),
                 "--seed", "100"]) == 1
    capsys.readouterr()
    reports = [json.loads(line) for line in (out_dir / "reports.jsonl").read_text().splitlines()]
    done = [r for r in read_rows(out_dir / "results.csv") if r["error"] == ""]
    assert len(done) == 2
    assert [(r["instance"], r["algo"], r["seed"], r["best"]) for r in done] == \
        [(r["instance"], r["algo"], str(r["seed"]), str(r["best_length"])) for r in reports]


def test_bench_rejects_two_instances_of_one_name(tmp_path, capsys):
    for stem, seed in (("one", 1), ("two", 2)):
        (tmp_path / f"{stem}.atsp").write_text(format_instance(
            replace(random_instance(8, (1, 100), seed=seed), name="same")))
    config = tmp_path / "twins.conf"
    config.write_text("instance one.atsp\ninstance two.atsp\nalgos sga\nrepeats 2\n"
                      "pop-size 10\nsga-generations 5\n")
    out_dir = tmp_path / "out"
    assert main(["bench", "--config", str(config), "--out-dir", str(out_dir)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(tmp_path / "one.atsp") in captured.err and str(tmp_path / "two.atsp") in captured.err
    assert "'same'" in captured.err
    assert not out_dir.exists()
    # one file listed twice would merge its rows the same way
    config.write_text("instance one.atsp\ninstance one.atsp\nalgos sga\n")
    assert main(["bench", "--config", str(config), "--out-dir", str(out_dir)]) == 1
    assert "are both named 'same'" in capsys.readouterr().err
    assert not out_dir.exists()


def test_bench_rejects_bad_config(inst_dir, tmp_path, capsys):
    config = inst_dir / "bad.conf"
    config.write_text("instance eight.atsp\nwarp-speed 9\n")
    rc = main(["bench", "--config", str(config), "--out-dir", str(tmp_path)])
    assert rc == 1
    assert "warp-speed" in capsys.readouterr().err


def test_parse_suite_config_errors():
    with pytest.raises(ValueError, match="line 2"):
        parse_suite_config("instance a.atsp\nbogus 1\n", Path("."))
    with pytest.raises(ValueError, match="no value"):
        parse_suite_config("instance a.atsp\nrepeats\n", Path("."))
    with pytest.raises(ValueError, match="no instances"):
        parse_suite_config("repeats 3\n", Path("."))
    with pytest.raises(ValueError, match="unknown algo"):
        parse_suite_config("instance a.atsp\nalgos sga annealing\n", Path("."))
    with pytest.raises(ValueError, match="on or off"):
        parse_suite_config("instance a.atsp\nstop-at-known-optimum yes\n", Path("."))
    with pytest.raises(ValueError) as err:
        parse_suite_config("instance a.atsp\nrepeats many\n", Path("."))
    assert str(err.value) == "suite config line 2: repeats needs an integer, got 'many'"
    with pytest.raises(ValueError) as err:
        parse_suite_config("# probabilities\ninstance a.atsp\ncrossover-prob high\n", Path("."))
    assert str(err.value) == "suite config line 3: crossover-prob needs a number, got 'high'"
    with pytest.raises(ValueError, match="line 2: pga-generations needs an integer, got '1.5'"):
        parse_suite_config("instance a.atsp\npga-generations 1.5\n", Path("."))


def test_parse_suite_config_values():
    text = ("# comment line\n"
            "instance sub/a.atsp   # trailing comment\n"
            "instance b.atsp\n"
            "algos pga\n"
            "repeats 3\n"
            "pop-size 25\n"
            "stop-at-known-optimum off\n"
            "out-dir results\n"
            "seed\t4\n"
            "mutation-prob \t 0.05\n")
    cfg = parse_suite_config(text, Path("/base"))
    assert cfg["instances"] == [Path("/base/sub/a.atsp"), Path("/base/b.atsp")]
    assert cfg["algos"] == ["pga"]
    assert cfg["repeats"] == 3
    assert cfg["pop_size"] == 25
    assert cfg["stop_at_known_optimum"] is False
    assert cfg["out_dir"] == Path("/base/results")
    assert cfg["seed"] == 4  # key and value split on any whitespace
    assert cfg["mutation_prob"] == 0.05
    assert cfg["patience"] == 20  # untouched defaults survive


def test_exact_three_city(inst_dir, capsys):
    rc = main(["exact", "--instance", str(inst_dir / "toy3.atsp")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "toy3: optimum 8" in out
    assert "tour: 0 1 2" in out


def test_exact_write_registry_idempotent(tmp_path, capsys):
    # a copy of its own: the module's inst_dir must not gain an optima.txt
    (tmp_path / "toy3.atsp").write_text(THREE_CITY_TEXT)
    registry = tmp_path / "optima.txt"
    argv = ["exact", "--instance", str(tmp_path / "toy3.atsp"), "--write-registry"]
    assert main(argv) == 0
    first = registry.read_text()
    assert main(argv) == 0
    capsys.readouterr()
    assert registry.read_text() == first
    assert load_registry(registry) == {"toy3": 8}


def test_exact_registry_feeds_accuracy(tmp_path, capsys):
    (tmp_path / "toy3.atsp").write_text(THREE_CITY_TEXT)
    assert main(["exact", "--instance", str(tmp_path / "toy3.atsp"),
                 "--write-registry"]) == 0
    assert (tmp_path / "optima.txt").exists()  # default lives beside the instance
    assert load_instance(tmp_path / "toy3.atsp").known_optimum == 8
    rc = main(["solve", "--algo", "sga", "--instance", str(tmp_path / "toy3.atsp"),
               "--pop-size", "4", "--max-generations", "5",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    assert "accuracy=100.00%" in capsys.readouterr().out


def test_exact_auto_cap(tmp_path, capsys):
    (tmp_path / "big.atsp").write_text(
        format_instance(random_instance(19, (1, 50), seed=0)))
    rc = main(["exact", "--instance", str(tmp_path / "big.atsp")])
    assert rc == 1
    assert "18" in capsys.readouterr().err


def test_exact_reports_an_optimum_that_is_not_finite(tmp_path, capsys, monkeypatch):
    # the parser keeps weights below 2**53; a hand-built instance stands in
    # for a matrix whose every tour overflows to inf
    monkeypatch.setattr(cli, "load_instance",
                        lambda path: Instance("huge6", 6, np.full((6, 6), 1e308)))
    with np.errstate(over="ignore"):
        rc = main(["exact", "--instance", str(tmp_path / "huge6.atsp"), "--write-registry"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: huge6: the optimum is not finite (inf)")
    assert captured.out == "" and not (tmp_path / "optima.txt").exists()


def test_exact_rejects_integer_tours_that_may_reach_two_to_the_53(tmp_path, capsys):
    w = 2**52 + 1  # each weight parses; a tour's float64 sum need not be exact
    weights = np.array([[0, w, w + 2], [w + 2, 0, w], [w, w + 2, 0]])
    (tmp_path / "big3.atsp").write_text(format_instance(Instance("big3", 3, weights)))
    assert main(["exact", "--instance", str(tmp_path / "big3.atsp")]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: big3: a tour may weigh up to 13510798882111497,")
    assert captured.out == ""


def test_shipped_suite_configs_parse():
    bench_dir = Path(__file__).resolve().parent.parent / "bench"
    for name in ("quick.conf", "full.conf"):
        path = bench_dir / name
        cfg = parse_suite_config(path.read_text(), bench_dir)
        assert cfg["instances"], name
        for instance_path in cfg["instances"]:
            assert instance_path.exists(), instance_path


def test_console_script_entry_point(inst_dir):
    proc = subprocess.run([sys.executable, "-m", "mrtsp.cli", "exact",
                           "--instance", str(inst_dir / "toy3.atsp")],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "optimum 8" in proc.stdout
