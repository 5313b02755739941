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


def build_manifest(args) -> dict:
    """The manifest of the parsed CLI ``args``: the subcommand, its own options in declared
    order, then ``output``, the seed, the version, and the timestamp unless ``--no-timestamp``."""
    from . import __version__

    skip = ("command", "func", "seed", "no_timestamp", "output")
    parameters = {key: value for key, value in vars(args).items() if key not in skip}
    parameters["output"] = args.output
    manifest: dict[str, Any] = {"command": args.command, "parameters": parameters,
                                "seed": args.seed, "version": __version__}
    if not args.no_timestamp:
        manifest["timestamp"] = datetime.now(timezone.utc).isoformat()
    return manifest


def to_json(payload: Any) -> str:
    """Pretty JSON with exact floats, 2-space indent and a trailing newline."""
    return _text(payload, "") + "\n"


#: How each kind of scalar is written, tried in this order. A string is written as
#: ``json.dumps`` writes it, through the function ``json.dumps`` calls for one.
_WRITERS = {
    type(None): lambda value: "null",
    bool: {True: "true", False: "false"}.__getitem__,
    int: str,
    float: format_float,
    str: json.encoder.encode_basestring_ascii,
}


def _text(value: Any, indent: str) -> str:
    """JSON text of a report value whose first line starts at ``indent``."""
    write = _WRITERS.get(type(value))
    if write is not None:
        return write(value)
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        value = value.item()  # written, or refused, by the loop below
    inner = indent + "  "
    # One layout for both containers; an object's items lead with a key.
    if isinstance(value, dict):
        items = [json.dumps(str(key)) + ": " + _text(item, inner) for key, item in value.items()]
    elif isinstance(value, (list, tuple)):
        table = _rows(value, indent)
        if table is not None:
            return table
        items = [_text(item, inner) for item in value]
    else:
        for kind, write in _WRITERS.items():
            if isinstance(value, kind):
                return write(value)
        raise TypeError(f"cannot serialise {type(value).__name__} into a report")
    brackets = "{}" if isinstance(value, dict) else "[]"
    if not items:
        return brackets
    return brackets[0] + "\n" + inner + (",\n" + inner).join(items) + "\n" + indent + brackets[1]


def _rows(rows, indent: str) -> str | None:
    """``_text`` of a list of flat dicts that share one tuple of string keys, a column at a
    time and each row from one template whose key prefixes are built once; ``None`` for any
    other list. A value that cannot be written also gives ``None``, so that ``_text`` raises
    in document order."""
    if not rows or set(map(type, rows)) != {dict}:
        return None
    keys = tuple(rows[0])
    if not keys or not all(type(key) is str for key in keys) or set(map(tuple, rows)) != {keys}:
        return None
    row, cell, columns = indent + "  ", indent + "    ", []
    try:
        for column in zip(*map(dict.values, rows)):
            kinds = set(map(type, column))
            write = _WRITERS.get(kinds.pop()) if len(kinds) == 1 else None
            columns.append(list(map(write, column)) if write
                           else [_text(value, cell) for value in column])
    except (TypeError, ValueError):
        return None
    template = "{" + ",".join("\n" + cell + json.dumps(key).replace("%", "%%") + ": %s"
                              for key in keys) + "\n" + row + "}"
    return ("[\n" + row + (",\n" + row).join(map(template.__mod__, zip(*columns)))
            + "\n" + indent + "]")


def grid_csv(rows: list[dict]) -> str:
    """CSV of the ``{"x", "value", "k"}`` grid rows of a threshold report: header
    ``x,value,k`` and LF line endings."""
    lines = ["x,value,k"]
    for row in rows:
        lines.append(f"{format_float(row['x'])},{format_float(row['value'])},{row['k']}")
    return "\n".join(lines) + "\n"
