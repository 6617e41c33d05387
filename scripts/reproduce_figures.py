#!/usr/bin/env python3
"""Run the four built-in scenarios and drop CSV + SVG files under results/.

Prints the sha256 of every file it writes, so that runs of two commits
can be compared byte for byte.  Given a reference directory, it also
prints, for each CSV, the largest absolute value difference and the
number of changed cells against the file of the same name there, so a
sha256 mismatch shows which file moved and by how much.

Usage: python scripts/reproduce_figures.py [output_dir [reference_dir]]
"""

import hashlib
import sys
import time
from pathlib import Path

import numpy as np

from lambdaphase.cli import PRESETS, run_scenario


def compare_csv(path: Path, reference: Path) -> str:
    """One line: how the values of the CSV ``path`` differ from ``reference``'s."""
    if not reference.is_file():
        return f"  no reference file {reference}"
    ours, theirs = (np.loadtxt(p, delimiter=",", skiprows=1, ndmin=2) for p in (path, reference))
    if ours.shape != theirs.shape:
        return f"  {ours.shape} cells against {theirs.shape} in {reference}"
    changed = np.count_nonzero(ours != theirs)
    largest = np.max(np.abs(ours - theirs), initial=0.0)
    return f"  max |diff| {largest:.3g} in {changed} changed cells against {reference}"


def main() -> int:
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("results")
    reference_dir = Path(sys.argv[2]) if len(sys.argv) > 2 else None
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, config in sorted(PRESETS.items()):
        start = time.perf_counter()
        run_scenario(config,
                     csv_path=out_dir / f"{name}.csv",
                     svg_path=out_dir / f"{name}.svg")
        elapsed = time.perf_counter() - start
        print(f"{name}: {config.tau_steps} rows in {elapsed:.2f} s "
              f"-> {out_dir / name}.csv")
        for path in (out_dir / f"{name}.csv", out_dir / f"{name}.svg"):
            print(f"  sha256 {hashlib.sha256(path.read_bytes()).hexdigest()}  {path}")
        if reference_dir is not None:
            print(compare_csv(out_dir / f"{name}.csv", reference_dir / f"{name}.csv"))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
