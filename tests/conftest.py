"""Session set-up: interpreters the tests launch import weilaff from this
checkout's ``src/``, as the tests themselves do (``pythonpath`` in
``pyproject.toml``), so a bare ``python -m pytest`` works from the root."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
_paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
if _SRC not in _paths:
    os.environ["PYTHONPATH"] = os.pathsep.join([_SRC, *_paths])
