"""Deterministic report serialization.

Reports must be byte-identical across runs for the same job, so JSON is
emitted by a small canonical writer: keys sorted, floats rendered with 17
significant digits, +inf rendered as the string "inf".  CSV output follows
RFC 4180 (CRLF, minimal quoting) with "inf" cells.
"""

from __future__ import annotations

import json
import math

from .errors import PreconditionError
from .matrices import DivMatrix


def format_float(x: float) -> str:
    if math.isnan(x):
        raise PreconditionError("reports must be NaN-free")
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".17g")


def dumps_canonical(obj, indent: int = 0) -> str:
    """Canonical JSON text for dicts/lists/str/bool/int/float/None."""
    pad = " " * indent
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key in sorted(obj):
            if not isinstance(key, str):
                raise PreconditionError("report keys must be strings")
            items.append(f'{pad}  {json.dumps(key)}: {dumps_canonical(obj[key], indent + 2)}')
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if set(map(type, obj)) == {float} and math.isfinite(sum(obj)):  # so no NaN or inf
            items = [format(x, ".17g") for x in obj]
        else:
            items = [dumps_canonical(x, indent + 2) for x in obj]
        return f"[\n{pad}  " + f",\n{pad}  ".join(items) + f"\n{pad}]"
    raise PreconditionError(f"cannot serialize object of type {type(obj).__name__}")


def matrix_to_csv(mat: DivMatrix) -> str:
    """RFC-4180 CSV of the matrix entries, one row per line, "inf" cells allowed."""
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL)
    writer.writerow(["kind", mat.kind, "size", mat.size, "reference", mat.reference])
    for row in mat.entries.tolist():  # a DivMatrix is NaN-free
        writer.writerow([format(x, ".17g") for x in row])
    return buf.getvalue()
