"""CSV and JSON serialization with atomic writes and fixed number formatting.

Numeric payloads are formatted with ``repr`` (shortest round-trip), so a run
with identical inputs produces byte-identical files.  Files are written to a
temporary sibling and renamed into place; no partially written output is ever
observable.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Iterable, Mapping, Sequence

import numpy as np

from .conventions import CONVENTIONS_HASH
from .errors import ConfigurationError
from .geometry import RadialWeight


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return str(x)


def atomic_write_text(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_text(path: str) -> str:
    """The UTF-8 text of a file; any other path is refused by name."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(
            f"{path}: cannot read: {getattr(exc, 'strerror', None) or exc}") from None


def read_csv(path: str) -> tuple[list[str], np.ndarray]:
    """Header and numeric rows of a CSV file; an unreadable file, one without
    either, with a non-numeric cell or a row not of the header's length is
    refused."""
    lines = [ln.strip().split(",") for ln in read_text(path).split("\n")
             if ln.strip()]
    if len(lines) < 2:
        raise ConfigurationError(f"{path}: no {'data rows' if lines else 'header'}")
    header, rows = lines[0], lines[1:]
    for n, cells in enumerate(rows, start=1):
        if len(cells) != len(header):
            raise ConfigurationError(f"{path}: data row {n} has {len(cells)} "
                                     f"cells, the header {len(header)}")
    try:
        return header, np.array([[float(x) for x in cells] for cells in rows])
    except ValueError as exc:
        raise ConfigurationError(f"{path}: non-numeric cell: {exc}") from None


def write_json(path: str, payload: Mapping) -> None:
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True,
                                       default=_json_default) + "\n")


def _json_default(x):
    if isinstance(x, (np.floating, np.integer, np.bool_)):
        return x.item()
    if isinstance(x, np.ndarray):
        return x.tolist()
    raise TypeError(f"not JSON serializable: {type(x)!r}")


# ---------------------------------------------------------------------------
# weight profiles
# ---------------------------------------------------------------------------

def weight_to_csv(w: RadialWeight, path: str) -> None:
    """Profile table with columns t, u, u', u''."""
    rows = zip(w.grid.nodes, w.values, w.derivative(), w.curvature_profile())
    write_csv(path, ["t", "u", "du_dt", "d2u_dt2"], rows)


def weight_record(w: RadialWeight) -> dict:
    """JSON-ready metadata record for a weight profile."""
    return {
        "grid": {"half_width": w.grid.half_width, "node_count": w.grid.node_count},
        "slope_minus": w.slope_minus,
        "slope_plus": w.slope_plus,
        "degree": w.degree,
        "convention_hash": CONVENTIONS_HASH,
    }

