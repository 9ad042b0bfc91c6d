"""Terminal visualisation: sparklines and time-series plots.

The case-study figures are CPI-versus-time traces; this module renders
their text-mode equivalents so examples and the CLI can *show* a victim's
CPI trace without a plotting stack.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

__all__ = ["sparkline", "timeseries"]

_BLOCKS = "▁▂▃▄▅▆▇█"


def _clean(values: Iterable[float], name: str = "values") -> list[float]:
    out = [float(v) for v in values]
    if not out:
        raise ValueError(f"{name} must be non-empty")
    if any(math.isnan(v) or math.isinf(v) for v in out):
        raise ValueError(f"{name} contain non-finite entries")
    return out


def _resample(values: Sequence[float], width: int) -> list[float]:
    """Bucket-average a series down to ``width`` points (identity if short)."""
    if len(values) <= width:
        return list(values)
    out = []
    for i in range(width):
        lo = i * len(values) // width
        hi = max(lo + 1, (i + 1) * len(values) // width)
        chunk = values[lo:hi]
        out.append(sum(chunk) / len(chunk))
    return out


def sparkline(values: Iterable[float], width: int | None = None) -> str:
    """A one-line block-character sketch of a series.

    >>> sparkline([1, 2, 3, 4, 3, 2, 1])
    '▁▃▆█▆▃▁'
    """
    data = _clean(values)
    if width is not None:
        if width < 1:
            raise ValueError(f"width must be >= 1, got {width}")
        data = _resample(data, width)
    lo, hi = min(data), max(data)
    if hi == lo:
        return _BLOCKS[0] * len(data)
    scale = (len(_BLOCKS) - 1) / (hi - lo)
    return "".join(_BLOCKS[int(round((v - lo) * scale))] for v in data)


def timeseries(values: Iterable[float], width: int = 60,
               height: int = 8) -> str:
    """A multi-row character plot of one series, min/max labelled.

    The case-study figures (victim CPI vs time) render legibly at 60x8.
    """
    data = _clean(values)
    if width < 2 or height < 2:
        raise ValueError("width and height must each be >= 2")
    data = _resample(data, width)
    lo, hi = min(data), max(data)
    span = hi - lo or 1.0
    rows = [[" "] * len(data) for _ in range(height)]
    for x, v in enumerate(data):
        y = int(round((v - lo) / span * (height - 1)))
        rows[height - 1 - y][x] = "*"
    lines = []
    for i, row in enumerate(rows):
        label = f"{hi:8.3g} |" if i == 0 else (
            f"{lo:8.3g} |" if i == height - 1 else "         |")
        lines.append(label + "".join(row))
    return "\n".join(lines)
