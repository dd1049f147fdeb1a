"""Deterministic report serialization.

Reports must be byte-identical across runs for the same job, so JSON is
emitted by a small canonical writer: keys sorted, floats rendered with 17
significant digits, +inf rendered as the string "inf".  CSV output follows
RFC 4180 (CRLF, minimal quoting) with "inf" cells.
"""

from __future__ import annotations

import json
import math
from itertools import repeat

import numpy as np

from .errors import PreconditionError
from .matrices import DivMatrix

# Floats per formatting chunk: a report holds this many as Python floats, never a matrix's.
FLOAT_CHUNK = 4096


def format_float(x: float) -> str:
    if math.isnan(x):
        raise PreconditionError("reports must be NaN-free")
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".17g")


def dumps_canonical(obj, indent: int = 0) -> str:
    """Canonical JSON text for dicts/lists/str/bool/int/float/None, and for a 1-D float64
    array, written as the list of its floats.  Every piece goes to one list, joined once."""
    out: list[str] = []
    _write(obj, " " * indent, out)
    return "".join(out)


def _write(obj, pad: str, out: list) -> None:
    if isinstance(obj, float):
        out.append(format_float(obj))
    elif obj is None or isinstance(obj, (bool, int, str)):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise PreconditionError("report keys must be strings")
            out.append(("," if i else "{") + f"\n{pad}  {json.dumps(key)}: ")
            _write(obj[key], pad + "  ", out)
        out.append(f"\n{pad}}}" if obj else "{}")
    elif isinstance(obj, (list, tuple)) and set(map(type, obj)) != {float}:
        for i, item in enumerate(obj):
            out.append(f",\n{pad}  " if i else f"[\n{pad}  ")
            _write(item, pad + "  ", out)
        out.append(f"\n{pad}]" if obj else "[]")
    elif isinstance(obj, (list, tuple)) or (
            type(obj) is np.ndarray and obj.ndim == 1 and obj.dtype == np.float64):
        run = np.asarray(obj)  # a run of floats: formatted a chunk at a time
        for start in range(0, run.size, FLOAT_CHUNK):
            chunk = run[start:start + FLOAT_CHUNK].tolist()
            finite = math.isfinite(sum(chunk))  # no NaN or inf; an overflow only costs speed
            items = [format(x, ".17g") for x in chunk] if finite else map(format_float, chunk)
            out.append((f",\n{pad}  " if start else f"[\n{pad}  ") + f",\n{pad}  ".join(items))
        out.append(f"\n{pad}]" if run.size else "[]")
    else:
        raise PreconditionError(f"cannot serialize object of type {type(obj).__name__}")


def matrix_to_csv(mat: DivMatrix) -> str:
    """RFC-4180 CSV of the matrix entries, one row per line, "inf" cells allowed."""
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL)
    writer.writerow(["kind", mat.kind, "size", mat.size, "reference", mat.reference])
    # row by row, from the float array; a DivMatrix is NaN-free
    writer.writerows(map(format, row.tolist(), repeat(".17g")) for row in mat.entries)
    return buf.getvalue()
