import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [BENCH.as_posix(), (BENCH.parent / "src").as_posix()]
