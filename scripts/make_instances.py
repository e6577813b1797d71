#!/usr/bin/env python3
"""Regenerate the synthetic asymmetric instances shipped under instances/.

These are seeded uniform-random ATSP matrices, not TSPLIB originals; the
rnd prefix marks them as locally generated. Sizes 53 and 64 feed the paired
SGA-vs-PGA benchmarks, 171 exists for larger CLI demos. Running this script
again reproduces the files byte-for-byte.
"""

import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mrtsp.tsplib import Instance, format_instance, random_instance

OUT_DIR = Path(__file__).resolve().parent.parent / "instances"

SPECS = [  # (name, n, seed)
    ("rnd053", 53, 53),
    ("rnd064", 64, 64),
    ("rnd171", 171, 171),
]


def build(name: str, n: int, seed: int) -> Instance:
    return replace(random_instance(n, (1, 100), seed), name=name)


def main():
    for name, n, seed in SPECS:
        path = OUT_DIR / f"{name}.atsp"
        path.write_text(format_instance(build(name, n, seed)))
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
