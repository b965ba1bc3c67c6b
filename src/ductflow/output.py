"""Deterministic CSV/JSON emission of simulation and analysis tables.

Every output file embeds the fully resolved configuration and the seed as a
reproducibility header, and identical inputs produce byte-identical files:
column order is fixed by the caller, CSV floats are rendered with 17
significant digits and JSON is written by the stdlib encoder (floats by
``repr``, infinity as ``Infinity``), both round-trippable, and newlines are
always ``\\n``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = ["Table", "emit_table", "format_value", "short_digest"]


def format_value(value) -> str:
    """Render one cell: floats at 17 significant digits, rest verbatim."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


@dataclass(frozen=True)
class Table:
    """A rectangular table plus header metadata, ready for emission."""

    columns: tuple
    rows: list
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError("row width does not match column count")


def _json_default(value):
    """Numpy scalars and arrays as their Python values; anything else as text."""
    if isinstance(value, (np.generic, np.ndarray)):
        return value.tolist()
    return str(value)


def _csv_text(table: Table) -> str:
    lines = [f"# {key} = {format_value(val)}" for key, val in table.meta.items()]
    lines.append(",".join(table.columns))
    for row in table.rows:
        lines.append(",".join(format_value(v) for v in row))
    return "\n".join(lines) + "\n"


def _json_text(table: Table) -> str:
    body = {
        "meta": table.meta,
        "columns": list(table.columns),
        "rows": [list(row) for row in table.rows],
    }
    return json.dumps(body, ensure_ascii=False, default=_json_default) + "\n"


def emit_table(table: Table, path: str | Path, fmt: str = "csv") -> Path:
    """Write ``table`` to ``path`` in the requested format and return the path."""
    if fmt == "csv":
        text = _csv_text(table)
    elif fmt == "json":
        text = _json_text(table)
    else:
        raise ValueError(f"unknown output format {fmt!r} (expected csv or json)")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(text.encode("utf-8"))
    return path


def short_digest(mapping: dict) -> str:
    """Stable 12-hex-digit digest of a flat configuration mapping."""
    canon = "\n".join(f"{k}={format_value(v)}" for k, v in sorted(mapping.items()))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]
