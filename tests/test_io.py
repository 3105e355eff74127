import csv
import json
import math

import numpy as np
import pytest

from ghost_turb.errors import ValidationError
from ghost_turb.io_formats import (FLOAT_FMT, read_pgm8, write_map_csv, write_pgm16,
                                   write_rows_csv, write_run_json)
from ghost_turb.optics import Grid2D


def test_pgm16_roundtrip_scaling(tmp_path, rng):
    values = rng.normal(size=(7, 9))
    path = tmp_path / "map.pgm"
    lo, hi = write_pgm16(path, values)
    assert lo == values.min() and hi == values.max()
    raw = path.read_bytes()
    header = f"P5\n9 7\n65535\n".encode()
    assert raw.startswith(header)
    pixels = np.frombuffer(raw[len(header):], dtype=">u2").reshape(7, 9)
    restored = lo + pixels.astype(float) * (hi - lo) / 65535.0
    assert np.allclose(restored, values, atol=(hi - lo) / 65535.0)
    sidecar = (tmp_path / "map.pgm.scale.txt").read_text()
    assert sidecar.splitlines()[0].startswith("lo ")
    assert float(sidecar.split()[1]) == lo
    assert float(sidecar.split()[3]) == hi


def test_pgm16_constant_map_is_black(tmp_path):
    path = tmp_path / "flat.pgm"
    lo, hi = write_pgm16(path, np.full((3, 3), 4.2))
    assert lo == hi == 4.2
    pixels = np.frombuffer(path.read_bytes()[-18:], dtype=">u2")
    assert np.all(pixels == 0)


def test_pgm16_rejects_bad_maps(tmp_path):
    with pytest.raises(ValidationError):
        write_pgm16(tmp_path / "x.pgm", np.ones(5))
    with pytest.raises(ValidationError):
        write_pgm16(tmp_path / "x.pgm", np.array([[1.0, math.nan]]))


def test_read_pgm8_binary(tmp_path):
    path = tmp_path / "mask.pgm"
    data = bytes([0, 128, 255, 64, 32, 16])
    path.write_bytes(b"P5\n# a comment\n3 2\n255\n" + data)
    arr = read_pgm8(path)
    assert arr.shape == (2, 3)
    assert arr[0, 1] == pytest.approx(128 / 255)
    assert arr[0, 2] == 1.0


def test_read_pgm8_ascii(tmp_path):
    path = tmp_path / "mask.pgm"
    path.write_text("P2\n2 2\n# comment\n100\n0 50\n100 25\n")
    arr = read_pgm8(path)
    assert np.allclose(arr, [[0.0, 0.5], [1.0, 0.25]])


def test_read_pgm8_errors(tmp_path):
    bad_magic = tmp_path / "a.pgm"
    bad_magic.write_bytes(b"P6\n1 1\n255\n\x00")
    with pytest.raises(ValidationError, match="magic"):
        read_pgm8(bad_magic)
    deep = tmp_path / "b.pgm"
    deep.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
    with pytest.raises(ValidationError, match="8-bit"):
        read_pgm8(deep)
    short = tmp_path / "c.pgm"
    short.write_bytes(b"P5\n4 4\n255\n\x00\x00")
    with pytest.raises(ValidationError, match="truncated"):
        read_pgm8(short)
    header_only = tmp_path / "d.pgm"
    header_only.write_bytes(b"P5\n4")
    with pytest.raises(ValidationError, match="truncated"):
        read_pgm8(header_only)


def test_map_csv_layout(tmp_path):
    grid = Grid2D.centered(3, 2, 1e-5)
    values = np.arange(6, dtype=float).reshape(2, 3)
    path = tmp_path / "map.csv"
    write_map_csv(path, grid, values, value_name="ghost")
    text = path.read_bytes().decode("ascii")
    lines = text.split("\r\n")
    assert lines[0] == "x_m,y_m,ghost"
    assert len(lines) == 8 and lines[-1] == ""
    first = lines[1].split(",")
    assert float(first[0]) == pytest.approx(-1e-5)
    assert float(first[2]) == 0.0
    with pytest.raises(ValidationError, match="shape"):
        write_map_csv(path, grid, np.zeros((3, 3)))


def test_map_csv_matches_csv_writer_byte_for_byte(tmp_path, rng):
    grid = Grid2D.centered(7, 4, 3.3e-6)
    values = rng.normal(scale=1e17, size=(4, 7))
    values[1, 2] = -0.0
    values[2, 5] = -1.0 / 3.0
    path = tmp_path / "map.csv"
    write_map_csv(path, grid, values, value_name="stderr, 1-sigma")
    oracle = tmp_path / "oracle.csv"
    with open(oracle, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x_m", "y_m", "stderr, 1-sigma"])
        for iy in range(grid.ny):
            for ix in range(grid.nx):
                writer.writerow([FLOAT_FMT % grid.x()[ix], FLOAT_FMT % grid.y()[iy],
                                 FLOAT_FMT % values[iy, ix]])
    assert path.read_bytes() == oracle.read_bytes()


def test_rows_csv_cells_match_csv_writer(tmp_path):
    path = tmp_path / "rows.csv"
    rows = [["a, b", 3, -1.0 / 3.0, True, None], ["x", 0, np.float64(1e-300), False, "y"]]
    write_rows_csv(path, ["name", "count", "value", "flag", "note"], iter(rows))
    oracle = tmp_path / "oracle.csv"
    with open(oracle, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["name", "count", "value", "flag", "note"])
        writer.writerow(["a, b", "3", FLOAT_FMT % (-1.0 / 3.0), "true", ""])
        writer.writerow(["x", "0", FLOAT_FMT % 1e-300, "false", "y"])
    assert path.read_bytes() == oracle.read_bytes()
    assert path.read_text().splitlines()[1].startswith('"a, b",3,')


def test_run_json_is_stable(tmp_path):
    record = {"b": 2, "a": {"z": [1, 2], "y": "s"}}
    p1 = tmp_path / "r1.json"
    p2 = tmp_path / "r2.json"
    write_run_json(p1, record)
    write_run_json(p2, {"a": {"y": "s", "z": [1, 2]}, "b": 2})
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text().endswith("\n")
    assert json.loads(p1.read_text()) == record
    assert p1.read_text().index('"a"') < p1.read_text().index('"b"')


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_run_json_refuses_values_strict_json_cannot_hold(tmp_path, value):
    with pytest.raises(ValueError):
        write_run_json(tmp_path / "run.json", {"a": {"b": [1.0, value]}})
