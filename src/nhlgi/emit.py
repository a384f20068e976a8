"""Byte-stable CSV and JSON emission for simulation outputs.

Two identical runs must produce identical bytes, so floats are printed with
17 significant digits (lossless round-trip for IEEE doubles), metadata is a
fixed-order block of ``# key = value`` comment lines, and nothing
time-dependent or host-dependent is ever written.

:func:`format_value` defines the rendering of one cell.  :func:`write_csv`
reproduces it at C speed: it builds one ``%`` template per table and formats
rows in blocks of bounded size.  A list of exact Python floats goes to
``%.17g`` as it is; every other column is converted to a numpy array, whose
dtype picks its conversion (``%.17g`` for floats, ``%d`` for integers and
booleans), and formatted from ``.tolist()`` blocks.  Only columns of other
dtypes, and the metadata, go through :func:`format_value` cell by cell.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from ._numpy import np

__all__ = ["format_value", "write_csv", "write_json"]

# Rows formatted per block, so a 10^7-row table never holds all its lines.
_CHUNK_ROWS = 4096
# ``%`` conversion per dtype kind that renders like :func:`format_value`.
_KIND_FORMATS = {"f": "%.17g", "i": "%d", "u": "%d", "b": "%d"}


def format_value(value) -> str:
    """Render one CSV cell: floats at 17 significant digits, ints plain."""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _is_float_list(column) -> bool:
    """Whether ``column`` is a list of exact Python floats, which renders as
    it is: numpy would turn it into a float array and back to the same floats."""
    return type(column) is list and set(map(type, column)) == {float}


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
    series = [
        column if _is_float_list(column) else np.atleast_1d(np.asarray(column))
        for column in columns.values()
    ]
    lengths = {len(s) for s in series}
    if len(lengths) > 1:
        raise ValueError(f"columns have unequal lengths: {sorted(lengths)}")
    n_rows = lengths.pop() if lengths else 0

    # One ``%`` conversion per column; None marks a column of format_value cells.
    formats = [
        "%.17g" if type(s) is list
        else _KIND_FORMATS.get(s.dtype.kind) if s.ndim == 1
        else None
        for s in series
    ]
    template = ",".join(fmt or "%s" for fmt in formats) + "\n"

    stream, needs_close = _open_target(target)
    try:
        for key, value in (metadata or {}).items():
            stream.write(f"# {key} = {format_value(value)}\n")
        stream.write(",".join(names) + "\n")
        for start in range(0, n_rows, _CHUNK_ROWS):
            blocks = [s[start : start + _CHUNK_ROWS] for s in series]
            cells = [
                block if type(block) is list
                else block.tolist() if fmt else [format_value(v) for v in block]
                for block, fmt in zip(blocks, formats)
            ]
            stream.writelines([template % row for row in zip(*cells)])
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
