"""Tests of the benchmark itself.

Run from the repository root with:  python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def test_smoke_mode_passes():
    """Every metric is emitted with its unit and every gate catches a corrupted output."""
    done = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=900)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    """With only the benchmark's own files present it exits non-zero and prints no result."""
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    done = subprocess.run([sys.executable, f"{BENCH_DIR.name}/run.py", "--workload",
                           "sim_vacuum", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
