"""Locate the package source of the checkout the benchmark runs in.

The benchmark measures the code next to it, never an installed copy, so it
puts ``<checkout>/src`` first on ``sys.path`` and stops when that is missing.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"


def use_checkout_source() -> None:
    if not (SRC / "regret_audit" / "__init__.py").is_file():
        sys.exit(f"perfbench: {SRC / 'regret_audit'} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
