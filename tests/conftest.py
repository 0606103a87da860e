import sys
from pathlib import Path

# make tests/util.py, oracles.py and scripts/write_golden.py importable from any dir
TESTS = Path(__file__).resolve().parent
sys.path[:0] = [str(TESTS), str(TESTS.parent / "scripts")]
