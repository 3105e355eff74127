"""File output and input helpers.

Images go out as 16-bit binary PGM with a plain-text sidecar recording
the affine scale, maps as CSV with full-precision floats, and run
records as stable JSON.  Object masks can be read back from 8-bit PGM.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .optics import Grid2D

FLOAT_FMT = "%.17g"


def write_pgm16(path, values: np.ndarray) -> tuple[float, float]:
    """Write a 2-D map as binary 16-bit PGM plus a .scale.txt sidecar.

    Values are mapped affinely so the data min lo -> 0 and the max
    hi -> 65535.  Returns (lo, hi); the sidecar stores them so the map
    can be reconstructed exactly to 16-bit resolution.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise ValidationError(f"expected a 2-D map, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("map contains non-finite values")
    vlo = float(np.min(arr))
    vhi = float(np.max(arr))
    if vhi > vlo:
        scaled = (arr - vlo) * (65535.0 / (vhi - vlo))
    else:
        scaled = np.zeros_like(arr)
    pixels = np.clip(np.rint(scaled), 0, 65535).astype(">u2")
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{arr.shape[1]} {arr.shape[0]}\n65535\n".encode("ascii"))
        fh.write(pixels.tobytes())
    sidecar = path.with_suffix(path.suffix + ".scale.txt")
    with open(sidecar, "w", encoding="ascii") as fh:
        fh.write(f"lo {FLOAT_FMT % vlo}\nhi {FLOAT_FMT % vhi}\n")
    return vlo, vhi


def _pgm_tokens(raw: bytes):
    """Yield header tokens of a PGM file, skipping # comments."""
    i = 0
    n = len(raw)
    while i < n:
        c = raw[i:i + 1]
        if c.isspace():
            i += 1
        elif c == b"#":
            while i < n and raw[i:i + 1] not in (b"\n", b"\r"):
                i += 1
        else:
            j = i
            while j < n and not raw[j:j + 1].isspace() and raw[j:j + 1] != b"#":
                j += 1
            yield raw[i:j].decode("ascii"), j
            i = j


def read_pgm8(path) -> np.ndarray:
    """Read an 8-bit PGM (binary P5 or ASCII P2) as floats in [0, 1]."""
    raw = Path(path).read_bytes()
    tokens = _pgm_tokens(raw)
    try:
        magic, _ = next(tokens)
        width, _ = next(tokens)
        height, _ = next(tokens)
        maxval, end = next(tokens)
    except StopIteration:
        raise ValidationError(f"{path}: truncated PGM header") from None
    if magic not in ("P5", "P2"):
        raise ValidationError(f"{path}: not a PGM file (magic {magic!r})")
    w, h, mv = int(width), int(height), int(maxval)
    if w < 1 or h < 1:
        raise ValidationError(f"{path}: bad PGM dimensions {w}x{h}")
    if not 0 < mv <= 255:
        raise ValidationError(f"{path}: expected 8-bit PGM, maxval {mv}")
    if magic == "P5":
        payload = raw[end + 1:]
        if len(payload) < w * h:
            raise ValidationError(f"{path}: truncated PGM pixel data")
        data = np.frombuffer(payload, dtype=np.uint8, count=w * h)
    else:
        flat = [int(tok) for tok, _ in tokens]
        if len(flat) != w * h:
            raise ValidationError(f"{path}: expected {w * h} samples, got {len(flat)}")
        data = np.asarray(flat, dtype=np.uint8)
    return data.reshape(h, w).astype(np.float64) / mv


def write_map_csv(path, grid: Grid2D, values: np.ndarray,
                  value_name: str = "value") -> None:
    """Write one value per grid pixel as x_m,y_m,<value_name> rows."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.shape != (grid.ny, grid.nx):
        raise ValidationError(f"values shape {arr.shape} does not match grid "
                              f"({grid.ny}, {grid.nx})")
    # Formatted numbers never need csv quoting, so the rows are joined
    # directly, in the csv module's default dialect (CRLF line ends).
    xs = [FLOAT_FMT % x for x in grid.x()]
    with open(path, "w", encoding="ascii", newline="") as fh:
        csv.writer(fh).writerow(["x_m", "y_m", value_name])
        for y, row in zip(grid.y(), arr.tolist()):
            tail = "," + FLOAT_FMT % y + ","
            fh.write("".join(x + tail + FLOAT_FMT % v + "\r\n" for x, v in zip(xs, row)))


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return FLOAT_FMT % value
    return value


def write_rows_csv(path, header, rows) -> None:
    """Write a header and rows through csv.writer.

    Floats are written with FLOAT_FMT, bools in lower case, and None as
    an empty cell; other cells as csv.writer writes them.
    """
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_cell(v) for v in row] for row in rows)


def write_run_json(path, record: dict) -> None:
    """Write a run record as deterministic, human-diffable, strict JSON (NaN raises)."""
    with open(path, "w", encoding="ascii") as fh:
        json.dump(record, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
