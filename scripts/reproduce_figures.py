#!/usr/bin/env python3
"""Run the four built-in scenarios and drop CSV + SVG files under results/.

Prints the sha256 of every file it writes, so that runs of two commits
can be compared byte for byte.

Usage: python scripts/reproduce_figures.py [output_dir]
"""

import hashlib
import sys
import time
from pathlib import Path

from lambdaphase.cli import PRESETS, run_scenario


def main() -> int:
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("results")
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
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
