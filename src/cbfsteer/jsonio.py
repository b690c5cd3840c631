"""Canonical JSON serialization: sorted keys, fixed separators, newline-terminated.

Every artifact the package writes (checkpoints, problem files, metrics) goes
through these helpers so identical values produce identical bytes. Dataclass
records (problems, environments, arms, barrier hyperparameters, plans and
metric rows) share one field-by-field format through `Record`.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import json
import types
import typing
from pathlib import Path
from typing import Any

import numpy as np


def canonical_dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def dump_json(path: str | Path, obj: Any) -> None:
    Path(path).write_text(canonical_dumps(obj) + "\n")


def load_json(path: str | Path) -> Any:
    return json.loads(Path(path).read_text())


def dump_jsonl(path: str | Path, rows) -> None:
    with open(path, "w") as f:
        for row in rows:
            f.write(canonical_dumps(row) + "\n")


def load_jsonl(path: str | Path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


class Record:
    """JSON codec for dataclasses: one rule for every record type.

    `to_json` writes every init field under its name: tuples, lists and
    arrays as lists, enums by value, nested records as their own documents,
    other values as they are. A field that is None and whose default is None
    is left out. `from_json` reads each present key back with the type the
    field is annotated with (floats, ints and strings converted, arrays as
    float arrays, enums by value, records recursively) and leaves missing
    keys to the field defaults, so files written before a field existed
    still load. An int field refuses a bool and a number with a fraction, a
    float field a bool, and a tuple field of fixed length (no `...`) a list
    of another length, rather than truncate, convert or misread them.
    """

    def to_json(self) -> dict:
        doc = {}
        for f, _ in _schema(type(self)):
            value = getattr(self, f.name)
            if value is not None or f.default is not None:
                doc[f.name] = _encode(value)
        return doc

    @classmethod
    def from_json(cls, doc: dict):
        return cls(**{f.name: _decode(tp, doc[f.name], f.name)
                      for f, tp in _schema(cls) if f.name in doc})


@functools.cache
def _schema(cls) -> tuple:
    """(field, resolved annotation) of each init field of a record class."""
    hints = typing.get_type_hints(cls)
    return tuple((f, hints[f.name]) for f in dataclasses.fields(cls) if f.init)


def _encode(value):
    if isinstance(value, Record):
        return value.to_json()
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    if isinstance(value, (tuple, list)):
        return [_encode(v) for v in value]
    if isinstance(value, dict):
        return {k: _encode(v) for k, v in value.items()}
    return value


def _decode(tp, value, name: str):
    if value is None:
        return None
    origin = typing.get_origin(tp)
    if origin in (typing.Union, types.UnionType):  # `X | None`
        (tp,) = [a for a in typing.get_args(tp) if a is not type(None)]
        return _decode(tp, value, name)
    if origin in (tuple, list):  # homogeneous: tuple[X, ...], list[X], or tuple[X, X] of two
        args = typing.get_args(tp)
        if origin is tuple and ... not in args and len(value) != len(args):
            raise ValueError(f"field {name} needs {len(args)} entries, not {len(value)}")
        return origin(_decode(args[0], v, name) for v in value)
    if tp is np.ndarray:
        return np.array(value, dtype=float)
    if isinstance(tp, type) and issubclass(tp, Record):
        return tp.from_json(value)
    if tp in (int, float) and (isinstance(value, bool) or (
            tp is int and isinstance(value, float) and not value.is_integer())):
        kind = "an integer" if tp is int else "a number"
        raise ValueError(f"field {name} needs {kind}, not {value!r}")
    if isinstance(tp, type) and issubclass(tp, (enum.Enum, float, int, str)):
        return tp(value)
    return value
