"""README's Library example runs as written, against the names the package
binds, so the two cannot drift apart."""

import re
import types
from pathlib import Path

import mrtsp

ROOT = Path(__file__).resolve().parent.parent


def library_snippet() -> str:
    library = (ROOT / "README.md").read_text().split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", library, re.S).group(1)


def test_the_package_binds_exactly_the_names_readme_imports():
    imported = re.search(r"^from mrtsp import (.+)$", library_snippet(), re.M).group(1)
    bound = {name for name, value in vars(mrtsp).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert bound == set(imported.split(", "))


def test_readme_library_example_runs(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    exec(compile(library_snippet(), "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2  # one run_pga, one run_sga
    for line in lines:
        best, *_, reason = line.split()
        assert int(best) <= 40 and reason == "target"
