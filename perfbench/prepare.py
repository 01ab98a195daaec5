"""One set-up, timed from outside by run.py: start, import baric, write one pass of inputs.

Usage: python3 perfbench/prepare.py <workload> <seed> <directory>
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import baric.cli  # noqa: E402,F401  (every CLI call pays this import)
import workloads  # noqa: E402

if __name__ == "__main__":
    workload, seed, directory = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    os.chdir(directory)
    workloads.build(workload, seed, 0)
