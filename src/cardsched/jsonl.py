"""JSONL instance files: one object per line, arrival order = line order.

Each line is `{"size": <number>}` with an optional integer `"class"` used by
the class-constrained subcommands.
"""

from __future__ import annotations

import json
import math
from typing import Optional


def load_jobs(path: str) -> list[tuple[float, Optional[int]]]:
    entries: list[tuple[float, Optional[int]]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: line {lineno}: invalid JSON ({exc.msg})") from exc
            if not isinstance(obj, dict) or "size" not in obj:
                raise ValueError(f"{path}: line {lineno}: expected an object with a 'size' field")
            size = obj["size"]
            if isinstance(size, bool) or not isinstance(size, (int, float)):
                raise ValueError(f"{path}: line {lineno}: 'size' must be a number")
            try:
                size = float(size)
            except OverflowError:
                size = math.inf
            if not math.isfinite(size):
                raise ValueError(f"{path}: line {lineno}: 'size' must be finite, got {size}")
            cls = obj.get("class")
            if cls is not None and (isinstance(cls, bool) or not isinstance(cls, int)):
                raise ValueError(f"{path}: line {lineno}: 'class' must be an integer")
            entries.append((size, cls))
    return entries
