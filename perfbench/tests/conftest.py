"""Make the benchmark's modules importable as top-level modules, the
way ``perfbench/run.py`` imports them."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parents[1] / "src"), str(HERE.parent)]
