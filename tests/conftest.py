"""Let the harmdist processes that tests start import this checkout's src/,
as the tests themselves do through ``pythonpath`` in pyproject.toml."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p
)
