"""Deterministic report serialisation.

Floats are written with 17 significant digits so that every value
round-trips exactly through the textual report; combined with fixed key
order and LF line endings this makes the JSON output byte-stable, which
the golden tests exploit. The manifest block records enough to reproduce
any run (the timestamp can be suppressed for golden comparisons).
"""

from __future__ import annotations

import json
import math
from datetime import datetime, timezone
from typing import Any

import numpy as np


def format_float(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError(f"reports cannot contain non-finite numbers: {value!r}")
    return format(value + 0.0, ".17g")  # +0.0 folds -0.0 into 0.0


def build_manifest(
    command: str,
    parameters: dict,
    seed: int,
    include_timestamp: bool = True,
) -> dict:
    from . import __version__

    manifest: dict[str, Any] = {
        "command": command,
        "parameters": parameters,
        "seed": seed,
        "version": __version__,
    }
    if include_timestamp:
        manifest["timestamp"] = datetime.now(timezone.utc).isoformat()
    return manifest


def to_json(payload: Any) -> str:
    """Pretty JSON with exact floats, 2-space indent and a trailing newline."""
    pieces: list[str] = []
    _emit(payload, 0, pieces)
    pieces.append("\n")
    return "".join(pieces)


def _emit(value: Any, level: int, out: list[str]) -> None:
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        value = value.item()
    if value is None:
        out.append("null")
    elif isinstance(value, bool):
        out.append("true" if value else "false")
    elif isinstance(value, int):
        out.append(str(value))
    elif isinstance(value, float):
        out.append(format_float(value))
    elif isinstance(value, str):
        out.append(json.dumps(value))
    elif isinstance(value, (dict, list, tuple)):
        # One layout for both containers; an object's items lead with a key.
        keyed = isinstance(value, dict)
        items = ([(json.dumps(str(key)) + ": ", item) for key, item in value.items()]
                 if keyed else [("", item) for item in value])
        brackets = "{}" if keyed else "[]"
        if not items:
            out.append(brackets)
            return
        out.append(brackets[0] + "\n")
        for index, (key, item) in enumerate(items):
            out.append("  " * (level + 1) + key)
            _emit(item, level + 1, out)
            out.append(",\n" if index < len(items) - 1 else "\n")
        out.append("  " * level + brackets[1])
    else:
        raise TypeError(f"cannot serialise {type(value).__name__} into a report")


def grid_csv(rows: list[tuple[float, float, int]]) -> str:
    """CSV grid with header ``x,value,k`` and LF line endings."""
    lines = ["x,value,k"]
    for x, value, k in rows:
        lines.append(f"{format_float(x)},{format_float(value)},{k}")
    return "\n".join(lines) + "\n"
