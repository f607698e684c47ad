"""Deterministic report emission: canonical JSON documents and CSV tables.

Determinism contract: the same data structure always produces the same
bytes — keys are sorted, floats are rendered with ``repr`` (shortest
round-trip form), no timestamps or environment data are embedded, and CSV
rows use CRLF line endings per RFC 4180.  Reports from repeated runs can
therefore be compared byte-for-byte.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
from pathlib import Path

import numpy as np

__all__ = [
    "ReportIOError",
    "to_jsonable",
    "json_document",
    "write_json",
    "write_csv",
    "csv_document",
]


class ReportIOError(OSError):
    """Raised when emitting a report fails at the filesystem level."""


def to_jsonable(obj):
    """Recursively convert report objects to JSON-compatible structures.

    Dataclasses become objects keyed by field name, numpy scalars become
    Python scalars, tuples become arrays.  Non-finite floats are encoded
    as the strings "NaN"/"Infinity"/"-Infinity" so the emitted document
    stays strictly standard JSON.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: to_jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isnan(x):
            return "NaN"
        if math.isinf(x):
            return "Infinity" if x > 0 else "-Infinity"
        return x
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if obj is None or isinstance(obj, str):
        return obj
    return str(obj)


def json_document(obj) -> str:
    """Canonical JSON text for a report object (sorted keys, trailing \\n)."""
    return (
        json.dumps(to_jsonable(obj), indent=2, sort_keys=True, allow_nan=False)
        + "\n"
    )


def write_json(path, obj) -> None:
    try:
        Path(path).write_text(json_document(obj), encoding="utf-8")
    except OSError as exc:
        raise ReportIOError(f"cannot write JSON report to {path}: {exc}") from exc


def _cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def csv_document(header, rows) -> str:
    """RFC-4180 CSV text (CRLF rows) with round-trip float formatting."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(list(header))
    for row in rows:
        writer.writerow([_cell(v) for v in row])
    return buf.getvalue()


def write_csv(path, header, rows) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(csv_document(header, rows))
    except OSError as exc:
        raise ReportIOError(f"cannot write CSV table to {path}: {exc}") from exc

