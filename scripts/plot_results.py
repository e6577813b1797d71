#!/usr/bin/env python3
"""Bar charts from summary.csv: mean accuracy and mean seconds per
instance and algorithm. Writes accuracy.png and time.png next to the CSVs."""

import csv
from pathlib import Path

import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt

here = Path(__file__).resolve().parent
rows = [r for r in csv.DictReader(open(here / "summary.csv")) if r["runs"] != "0"]
instances = list(dict.fromkeys(r["instance"] for r in rows))
algos = list(dict.fromkeys(r["algo"] for r in rows))


def chart(column, ylabel, out_name):
    fig, ax = plt.subplots(figsize=(1.5 + 1.2 * len(instances), 4))
    width = 0.8 / len(algos)
    for i, algo in enumerate(algos):
        values = []
        for name in instances:
            cell = [r for r in rows if r["instance"] == name and r["algo"] == algo]
            values.append(float(cell[0][column]) if cell and cell[0][column] else 0.0)
        xs = [j + i * width for j in range(len(instances))]
        ax.bar(xs, values, width=width, label=algo)
    ax.set_xticks([j + width * (len(algos) - 1) / 2 for j in range(len(instances))])
    ax.set_xticklabels(instances)
    ax.set_ylabel(ylabel)
    ax.legend()
    fig.tight_layout()
    fig.savefig(here / out_name, dpi=120)


chart("mean_accuracy", "mean accuracy (%)", "accuracy.png")
chart("mean_seconds", "mean seconds", "time.png")
print("wrote accuracy.png and time.png")
