"""Run reports shared by the sequential GA, the island GA and the CLI."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field


@dataclass
class RunReport:
    """Outcome of one solver run, sufficient to reproduce and to chart."""

    algo: str
    instance_name: str
    seed: int
    params: dict
    best_length: float
    best_tour: tuple[int, ...]
    trajectory: list[float]
    generations: int
    wall_seconds: float
    stop_reason: str
    accuracy: float | None = None
    rounds: list = field(default_factory=list)

    def summary_line(self) -> str:
        acc = f" accuracy={self.accuracy:.2f}%" if self.accuracy is not None else ""
        return (f"{self.algo} {self.instance_name} seed={self.seed} "
                f"best={self.best_length}{acc} generations={self.generations} "
                f"stop={self.stop_reason} wall={self.wall_seconds:.2f}s")

    def to_json_line(self) -> str:
        obj = asdict(self)
        obj["instance"] = obj.pop("instance_name")
        for summary in obj["rounds"]:
            del summary["best_tour"]  # the run's best_tour is above
        return json.dumps(obj, sort_keys=True)


def accuracy_percent(reference_optimum: float | None, best_length: float) -> float | None:
    """Reference optimum over found length, as a percentage; 100 means optimal."""
    if reference_optimum is None or best_length <= 0:
        return None
    return 100.0 * reference_optimum / best_length
