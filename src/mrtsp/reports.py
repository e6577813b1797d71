"""Run reports shared by the sequential GA, the island GA and the CLI."""

from __future__ import annotations

import json
from dataclasses import dataclass, field


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
        obj = {
            "algo": self.algo,
            "instance": self.instance_name,
            "seed": self.seed,
            "params": self.params,
            "best_length": self.best_length,
            "best_tour": list(self.best_tour),
            "trajectory": self.trajectory,
            "generations": self.generations,
            "wall_seconds": self.wall_seconds,
            "stop_reason": self.stop_reason,
            "accuracy": self.accuracy,
            "rounds": [{"round": r.round, "best_length": r.best_length,
                        "island_bests": r.island_bests, "generations": r.generations,
                        "wall_seconds": r.wall_seconds, "pooled": r.pooled}
                       for r in self.rounds],
        }
        return json.dumps(obj, sort_keys=True)


def accuracy_percent(reference_optimum: float | None, best_length: float) -> float | None:
    """Reference optimum over found length, as a percentage; 100 means optimal."""
    if reference_optimum is None or best_length <= 0:
        return None
    return 100.0 * reference_optimum / best_length
