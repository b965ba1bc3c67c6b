"""Deterministic CSV emission of simulation and analysis tables.

Every output file embeds the fully resolved configuration and the seed as a
``# key = value`` reproducibility header, and identical inputs produce
byte-identical files: column order is fixed by the caller, floats are
rendered with 17 significant digits (round-trippable, infinity as ``inf``)
and newlines are always ``\\n``.
"""

from __future__ import annotations

import hashlib
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


def _csv_text(table: Table) -> str:
    lines = [f"# {key} = {format_value(val)}" for key, val in table.meta.items()]
    lines.append(",".join(table.columns))
    for row in table.rows:
        lines.append(",".join(format_value(v) for v in row))
    return "\n".join(lines) + "\n"


def emit_table(table: Table, path: str | Path) -> Path:
    """Write ``table`` to ``path`` as CSV and return the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(_csv_text(table).encode("utf-8"))
    return path


def short_digest(mapping: dict) -> str:
    """Stable 12-hex-digit digest of a flat configuration mapping."""
    canon = "\n".join(f"{k}={format_value(v)}" for k, v in sorted(mapping.items()))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]
