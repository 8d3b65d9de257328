"""JSONL instance files: one object per line, arrival order = line order.

Each line is `{"size": <number>}`, finite and >= 0, with an optional integer
`"class"` that `clcs run` requires in [1, 2**63 - 1].  A refusal names the file and line.
"""

from __future__ import annotations

import json
import math
from typing import Optional

# the C scanner json.loads runs, without raw_decode's Python frame around it: a
# stripped line that it scans to the end is exactly what json.loads accepts (a BOM
# never scans), and it makes only plain dicts
_scan = json.JSONDecoder().scan_once


def _loads(path: str, lineno: int, line: str):
    """json.loads(line), its decoding failure raised as a one-line ValueError naming the line."""
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: line {lineno}: invalid JSON ({exc.msg})") from exc
    except RecursionError:
        raise ValueError(f"{path}: line {lineno}: invalid JSON (nested too deeply)") from None


def load_jobs(path: str, classed: bool = False) -> list[tuple[float, Optional[int]]]:
    """The (size, class) jobs of a JSONL file; `classed` requires every class, in range."""
    try:
        return _load_jobs(path, classed)
    except UnicodeDecodeError:
        # name the first bad line, counting lines as the text-mode loop does (\n, \r, \r\n)
        with open(path, "rb") as fh:
            lines = fh.read().splitlines()
        for lineno, raw in enumerate(lines, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                reason = f"byte {exc.start + 1}: {exc.reason}"
                raise ValueError(f"{path}: line {lineno}: not valid UTF-8 ({reason})") from None
        raise


def _load_jobs(path: str, classed: bool) -> list[tuple[float, Optional[int]]]:
    entries: list[tuple[float, Optional[int]]] = []
    append, scan, inf = entries.append, _scan, math.inf
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj, end = scan(line, 0)
            except (ValueError, RecursionError, StopIteration):  # StopIteration: no value at 0
                end = -1
            if end != len(line):  # json.loads gives the failure its message, or the object
                obj = _loads(path, lineno, line)
            if obj.__class__ is not dict or "size" not in obj:
                raise ValueError(f"{path}: line {lineno}: expected an object with a 'size' field")
            size = obj["size"]
            if type(size) is not float:
                if isinstance(size, bool) or not isinstance(size, (int, float)):
                    raise ValueError(f"{path}: line {lineno}: 'size' must be a number")
                try:
                    size = float(size)
                except OverflowError:
                    size = math.inf
            if not 0.0 <= size < inf:  # also rejects NaN; -0.0 passes
                raise ValueError(f"{path}: line {lineno}: size must be finite and >= 0, got {size}")
            cls = obj.get("class")
            if cls is not None or classed:
                if cls is not None and (isinstance(cls, bool) or not isinstance(cls, int)):
                    raise ValueError(f"{path}: line {lineno}: 'class' must be an integer")
                if classed and cls is None:
                    raise ValueError(f"{path}: line {lineno}: 'class' field required for clcs")
                if classed and not 1 <= cls <= 2**63 - 1:
                    why = f"job class must be in [1, 2**63 - 1], got {cls}"
                    raise ValueError(f"{path}: line {lineno}: {why}")
            append((size, cls))
    return entries
