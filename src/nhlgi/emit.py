"""Byte-stable CSV and JSON emission for simulation outputs.

Two identical runs must produce identical bytes, so floats are printed with
17 significant digits (lossless round-trip for IEEE doubles), metadata is a
fixed-order block of ``# key = value`` comment lines, and nothing
time-dependent or host-dependent is ever written.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

__all__ = ["format_value", "write_csv", "write_json"]


def format_value(value) -> str:
    """Render one CSV cell: floats at 17 significant digits, ints plain."""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _open_target(target):
    """Resolve ``target`` to ``(stream, needs_close)``; '-' or None is stdout."""
    if target is None or target == "-":
        return sys.stdout, False
    if hasattr(target, "write"):
        return target, False
    path = Path(target)
    if path.parent and not path.parent.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
    return open(path, "w", encoding="utf-8", newline="\n"), True


def write_csv(target, columns: dict, metadata: dict | None = None) -> None:
    """Write named columns as CSV with a leading metadata comment block.

    ``columns`` maps names to equal-length sequences; insertion order gives
    the column order.  An empty table still emits metadata and the header.
    """
    names = list(columns)
    series = [np.atleast_1d(np.asarray(columns[name])) for name in names]
    lengths = {s.shape[0] for s in series}
    if len(lengths) > 1:
        raise ValueError(f"columns have unequal lengths: {sorted(lengths)}")
    n_rows = lengths.pop() if lengths else 0

    stream, needs_close = _open_target(target)
    try:
        for key, value in (metadata or {}).items():
            stream.write(f"# {key} = {format_value(value)}\n")
        stream.write(",".join(names) + "\n")
        for i in range(n_rows):
            stream.write(",".join(format_value(s[i]) for s in series) + "\n")
    finally:
        if needs_close:
            stream.close()


def write_json(target, payload: dict) -> None:
    """Write ``payload`` as stable, human-readable JSON."""
    stream, needs_close = _open_target(target)
    try:
        json.dump(payload, stream, indent=2, ensure_ascii=False)
        stream.write("\n")
    finally:
        if needs_close:
            stream.close()
