"""Locate the checkout the benchmark runs in and import hivae from its src/.

Importing this module puts ``<checkout>/src`` first on ``sys.path``; the
package is never taken from an installed copy.  Without ``src/hivae`` the
benchmark cannot measure anything, so it exits with status 1.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

if not (SRC / "hivae" / "__init__.py").is_file():
    sys.exit(f"perfbench: no hivae package under {SRC}")
if sys.path[:1] != [str(SRC)]:
    sys.path.insert(0, str(SRC))
