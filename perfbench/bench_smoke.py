"""Short self-check of the benchmark.

It checks two things.  Every workload emits exactly the metric names and
units of END_TO_END (trace 0) and PER_LAYER (trace 1), which must also
match BENCHMARK.json when that file is present.  Each correctness gate
passes on real output and fails once that output is deliberately
corrupted.  It runs at reduced sizes (SMOKE_SIZES) in about a minute.
"""

from __future__ import annotations

import csv
import json
import shutil
from pathlib import Path

import bench_gates as gates
from bench_trace import PER_LAYER
from bench_core import (END_TO_END, OUT_ROOT, POOL_WORKERS, ROOT, SMOKE_SIZES, WORKLOADS, Runner,
                        measure)

SEED = 7


def _rewrite_csv(path: Path, edit) -> None:
    with open(path, encoding="ascii", newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", encoding="ascii", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _set_value(key: str, value: str):
    """Edit for a metric,value CSV: replace the value of one metric."""
    def edit(rows):
        for row in rows:
            if row and row[0] == key:
                row[1] = value
    return edit


def _scale_cell(row: int, col: int, factor: float):
    def edit(rows):
        rows[row][col] = "%.17g" % (float(rows[row][col]) * factor)
    return edit


def _mds_value(case: str, column: str, value: str):
    def edit(rows):
        index = rows[0].index(column)
        for row in rows[1:]:
            if row[0] == case:
                row[index] = value
    return edit


def _corrupted(runner: Runner, outcome: gates.Outcome, kept: Path, name: str, edit,
               code: int = 0) -> gates.Outcome:
    """A copy of a command's output with one file edited, read back as an outcome."""
    copy = runner.outdir / "corrupt"
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(kept, copy)
    _rewrite_csv(copy / name, edit)
    bad = gates.Outcome(label=f"corrupt {name}", command=outcome.command, code=code)
    return gates.collect(bad, copy)


def _keep(runner: Runner, label: str) -> Path:
    kept = runner.outdir / label
    shutil.rmtree(kept, ignore_errors=True)
    shutil.copytree(runner.outdir / "cmd", kept)
    return kept


def metric_checks() -> list[tuple[str, bool]]:
    checks = []
    tables = {0: {n: u for n, u, _ in END_TO_END}, 1: {n: u for n, u, _ in PER_LAYER}}
    for workload in WORKLOADS.values():
        for trace in (0, 1):
            result, _ = measure(workload, SEED, 0.0, bool(trace), SMOKE_SIZES)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            numeric = all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
            checks.append((f"{workload.name} trace {trace}: metric names and units",
                           got == tables[trace] and numeric))
            checks.append((f"{workload.name} trace {trace}: all gates pass "
                           f"({result['attempted']} attempted, {result['failed']} failed)",
                           result["correct"] and result["failed"] == 0))
    declared = ROOT / "BENCHMARK.json"
    if declared.is_file():
        spec = json.loads(declared.read_text())
        for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
            listed = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
            checks.append((f"BENCHMARK.json {key} matches the benchmark", listed == list(table)))
        names = [w["name"] for w in spec["workloads"]]
        checks.append(("BENCHMARK.json workloads are benchmark workloads",
                        set(names) <= set(WORKLOADS)))
    return checks


def gate_checks() -> list[tuple[str, bool]]:
    checks = []
    runner = Runner(WORKLOADS["sim_turbulent"], SEED, SMOKE_SIZES)
    serial = runner.run("serial", workers=1)
    kept = _keep(runner, "serial")
    parallel = runner.run("parallel", workers=POOL_WORKERS)
    reference = runner.run("closed-form", command="analytic")
    ref_fwhm = gates.fwhm(reference)
    tol = runner.config.load_config(None, {}).compare_tolerance

    checks.append(("real output passes every simulate gate",
                   gates.gate_detected(serial) is None
                   and gates.gate_fwhm(serial, ref_fwhm, tol) is None
                   and gates.gate_same_image(parallel, serial) is None))
    no_peak = _corrupted(runner, serial, kept, "psf_metrics.csv",
                         _set_value("status", "no_detection"))
    checks.append(("detection gate fails on a missing peak", gates.gate_detected(no_peak) is not None))
    bad_exit = _corrupted(runner, serial, kept, "psf_metrics.csv", lambda rows: None, code=3)
    checks.append(("detection gate fails on exit code 3", gates.gate_detected(bad_exit) is not None))
    wide = _corrupted(runner, serial, kept, "psf_metrics.csv",
                      _set_value("fwhm_x_m", "%.17g" % (ref_fwhm[0] * (1.0 + 2.0 * tol))))
    checks.append(("FWHM gate fails on a widened peak",
                   gates.gate_fwhm(wide, ref_fwhm, tol) is not None))
    changed = _corrupted(runner, serial, kept, "ghost.csv", _scale_cell(17, 2, 1.0 + 1e-9))
    checks.append(("repeat gate fails on one changed ghost.csv value",
                   gates.gate_same_image(changed, serial) is not None))
    checks.append(("worker-count gate fails on one changed ghost.csv value",
                   gates.gate_same_image(changed, parallel) is not None))

    runner = Runner(WORKLOADS["analytic_open"], SEED, SMOKE_SIZES)
    analytic = runner.run("analytic")
    kept = _keep(runner, "analytic")
    checks.append(("real output passes every analytic gate",
                   gates.gate_detected(analytic) is None and gates.gate_analytic(analytic) is None))
    skew = _corrupted(runner, analytic, kept, "analytic.csv", _scale_cell(2, 2, 1.0 + 1e-6))
    checks.append(("symmetry gate fails on one changed analytic.csv value",
                   gates.gate_analytic(skew) is not None))
    drift = _corrupted(runner, analytic, kept, "mds_demo.csv",
                       _mds_value("mode_dependent", "mean_lhs", "2.05"))
    checks.append(("phase-demo gate fails on a shifted mean", gates.gate_analytic(drift) is not None))
    broken = _corrupted(runner, analytic, kept, "mds_demo.csv",
                        _mds_value("mode_independent", "max_rel_diff_vs_clean", "1e-6"))
    checks.append(("phase-demo gate fails on a broken identity",
                   gates.gate_analytic(broken) is not None))
    return checks


def smoke() -> int:
    try:
        checks = metric_checks() + gate_checks()
    finally:
        shutil.rmtree(OUT_ROOT, ignore_errors=True)
    for name, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}")
    failed = sum(not ok for _, ok in checks)
    print(json.dumps({"correct": failed == 0, "attempted": len(checks), "failed": failed,
                      "metrics": {}}))
    return 0 if failed == 0 else 1
