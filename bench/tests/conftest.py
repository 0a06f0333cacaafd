"""Self-tests of the benchmark: python3 -m pytest bench/tests

They import the benchmark's modules and this checkout's holocurve.
"""
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))
