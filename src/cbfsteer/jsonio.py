"""Canonical JSON serialization: sorted keys, fixed separators, newline-terminated.

Every artifact the package writes (checkpoints, problem files, metrics) goes
through these helpers so identical values produce identical bytes.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any


def canonical_dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def dump_json(path: str | Path, obj: Any) -> None:
    Path(path).write_text(canonical_dumps(obj) + "\n")


def load_json(path: str | Path) -> Any:
    return json.loads(Path(path).read_text())


def load_jsonl(path: str | Path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]
