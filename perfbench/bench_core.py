"""Workloads, the command runner and one benchmark run (measure).

See run.py for how to run the benchmark and what it prints.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import bench_gates as gates
from bench_trace import PER_LAYER, Tracer, span_metrics, stage_shares

PROCESS_START = time.perf_counter()
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_ROOT = BENCH_DIR / "_out"
# No command starts once this much of a run has passed, so a run in the
# slow sim_parallel mode still ends well inside three minutes.
HARD_LIMIT_S = 150.0
SETUP_REPEATS = {"simulate": 11, "analytic": 101}
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
# Pool size of the parallel runs: nproc, but at least two so the pool path runs.
POOL_WORKERS = max(NPROC, 2)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str                          # "simulate" or "analytic"
    sets: tuple[tuple[str, str], ...]     # config overrides beyond the defaults
    workers: int
    why: str


WORKLOADS = {w.name: w for w in (
    Workload("sim_vacuum", "simulate", (("rho0", "inf"),), 1,
             "simulate without turbulence: source draw, propagation and accumulation "
             "only; the bypass workload for any screen change"),
    Workload("sim_turbulent", "simulate", (("cn2", "1.5e-12"),), 1,
             "simulate at the paper's rho0 = 49.73 mm with independent source-plane "
             "screens per path; screens take about 40% of frame time"),
    Workload("sim_parallel", "simulate", (("cn2", "1.5e-12"),), POOL_WORKERS,
             "sim_turbulent on nproc fork workers: pool, pickling, in-order merge and "
             "BLAS threading"),
    Workload("analytic_open", "analytic", (("cn2", "1.5e-12"), ("mask", "open")), 1,
             "closed-form pair sum over 81 open-mask bucket pixels; no frame layers; "
             "the bypass workload for simulation changes"),
)}

# name, unit, better.
END_TO_END = (
    ("command_s", "s", "lower"),
    ("command_cpu_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
)


@dataclass(frozen=True)
class Sizes:
    frames: int = 4096          # frames per simulate command
    check_frames: int = 1024    # frames of the worker-count cross-check in sim_turbulent
    ref_pixels: int = 0         # 0: the program's default reference grid
    min_samples: int = 3        # timed commands per run, at least


SMOKE_SIZES = Sizes(frames=1024, check_frames=512, ref_pixels=32, min_samples=1)


def load_program():
    """Import ghost_turb from this checkout's src/ and nowhere else."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        package = importlib.import_module("ghost_turb")
        importlib.import_module("ghost_turb.cli")
    except ImportError as exc:
        raise SystemExit(f"error: cannot import ghost_turb from {src}: {exc}") from None
    if not Path(package.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"error: ghost_turb was imported from {package.__file__}, not {src}")
    return package


class Runner:
    """Runs one workload's commands and builds its inputs."""

    def __init__(self, workload: Workload, seed: int, sizes: Sizes):
        self.workload = workload
        self.seed = seed
        self.sizes = sizes
        self.cli = importlib.import_module("ghost_turb.cli")
        self.config = importlib.import_module("ghost_turb.config")
        self.simulate = importlib.import_module("ghost_turb.simulate")
        self.outdir = OUT_ROOT / workload.name

    def overrides(self, workers: int, frames: int, command: str) -> dict[str, str]:
        out = dict(self.workload.sets)
        if command != self.workload.command:     # the closed-form reference keeps the point mask
            out.pop("mask", None)
        if self.sizes.ref_pixels:
            out["ref_pixels"] = str(self.sizes.ref_pixels)
        out.update(frames=str(frames), seed=str(self.seed), workers=str(workers))
        return out

    def run(self, label: str, workers: int | None = None, frames: int | None = None,
            command: str | None = None) -> gates.Outcome:
        """One CLI command, timed from argument parsing to written outputs."""
        command = command or self.workload.command
        workers = workers or self.workload.workers
        frames = frames or self.sizes.frames
        out = self.outdir / "cmd"
        shutil.rmtree(out, ignore_errors=True)
        argv = [command, "--out", str(out)]
        for key, value in self.overrides(workers, frames, command).items():
            argv += ["--set", f"{key}={value}"]
        log = io.StringIO()
        error = ""
        before = _cpu_times()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # counted as a failed operation, the run goes on
            code, error = -1, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        after = _cpu_times()
        child = after[1] - before[1]
        cpu = after[0] - before[0] + child
        outcome = gates.Outcome(label=label, command=command, code=code, wall_s=wall,
                                cpu_s=cpu, child_cpu_s=child, error=error)
        return gates.collect(outcome, out)

    def loop(self, label: str, seconds: float, min_samples: int, after=None) -> list:
        """Commands back to back until `seconds` have passed and min_samples are done."""
        outcomes = []
        start = time.perf_counter()
        while True:
            outcomes.append(self.run(f"{label}-{len(outcomes) + 1}"))
            if after is not None:
                after()
            now = time.perf_counter()
            if now - start >= seconds and len(outcomes) >= min_samples:
                return outcomes
            if now - PROCESS_START + outcomes[-1].wall_s > HARD_LIMIT_S:
                return outcomes

    def setup_phase(self) -> tuple[list[float], dict[str, float]]:
        """setup_s samples, and the geometry counts of the last setup."""
        overrides = self.overrides(self.workload.workers, self.sizes.frames,
                                   self.workload.command)
        times = []
        for _ in range(SETUP_REPEATS[self.workload.command]):
            start = time.perf_counter()
            rc = self.config.load_config(None, overrides)
            if self.workload.command == "simulate":
                setup = self.config.config_to_setup(rc)
                pipeline = self.simulate.FramePipeline(setup)
                sources, mask, ref_grid = setup.sources, setup.mask, setup.ref_grid
            else:
                sources = rc.subsources()
                ref_grid = rc.reference_grid()
                mask = self.config.parse_mask(rc.mask, rc.object_grid())
            times.append(time.perf_counter() - start)
        return times, self._geometry(sources, mask, ref_grid,
                                     pipeline if self.workload.command == "simulate" else None)

    def _geometry(self, sources, mask, ref_grid, pipeline) -> dict[str, float]:
        m = sources.count
        ref_px = ref_grid.nx * ref_grid.ny
        obj_px = mask.grid.nx * mask.grid.ny
        bucket_px = int(np.count_nonzero(mask.transmissivity))
        counts = {"source.subsources": m, "optics.ref_px": ref_px,
                  "correlator.bucket_px": bucket_px, "turbulence.modes": 0,
                  "turbulence.screen_px": 0, "optics.flops_per_frame": 0,
                  "optics.kernel_mb": 0.0, "analytic.pair_terms": 0}
        if pipeline is None:
            # One cosine-weighted term per subsource pair, reference pixel
            # and bucket pixel.
            counts["analytic.pair_terms"] = bucket_px * ref_px * m * m
            return counts
        # A complex multiply-add is 8 real flops; one GEMV per detector
        # plane per frame over every object and reference pixel.
        counts["optics.flops_per_frame"] = 8 * m * (obj_px + ref_px)
        counts["optics.kernel_mb"] = 16 * m * (obj_px + ref_px) / 2**20
        sampler = getattr(pipeline, "screen_sampler", None)
        if sampler is not None:
            counts["turbulence.screen_px"] = sampler.grid.nx * sampler.grid.ny
            modes = getattr(sampler, "_amp", None)
            counts["turbulence.modes"] = int(modes.size) if modes is not None else 0
        return counts


def _cpu_times() -> tuple[float, float]:
    """User + sys seconds of this process, and of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime


def peak_rss_mb(with_children: bool) -> float:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def _openblas_threads() -> int:
    """Thread count of numpy's bundled OpenBLAS, read-only; -1 if unknown."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return -1


def _git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10,
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def machine_record() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ghost_turb").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": NPROC, "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_name, "blas_threads": _openblas_threads(),
            "git_commit": _git_commit(), "src_sha256": digest.hexdigest()[:16]}


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def evaluate(workload: Workload, main: list, checks: list, reference, tolerance: float):
    """Failure reasons per outcome label, for every command of a run."""
    failures: dict[str, list[str]] = {}

    def note(outcome, reason):
        if reason:
            failures.setdefault(outcome.label, []).append(reason)

    everything = main + checks + ([reference] if reference is not None else [])
    for o in everything:
        note(o, gates.gate_detected(o))
    for o in main[1:]:
        note(o, gates.gate_same_image(o, main[0]))
    if workload.command == "analytic":
        for o in main:
            note(o, gates.gate_analytic(o))
        return failures
    ref_fwhm = None
    if reference is not None and gates.gate_detected(reference) is None:
        ref_fwhm = gates.fwhm(reference)
    full_size = main + [c for c in checks if c.label == "serial-full"]
    for o in full_size:
        note(o, gates.gate_fwhm(o, ref_fwhm, tolerance) if ref_fwhm
             else f"{o.label}: no closed-form FWHM to compare with")
    by_label = {c.label: c for c in checks}
    if "serial-full" in by_label:           # sim_parallel against the serial run
        note(by_label["serial-full"], gates.gate_same_image(main[0], by_label["serial-full"]))
    if "parallel-check" in by_label:        # sim_turbulent's reduced-size cross-check
        note(by_label["parallel-check"],
             gates.gate_same_image(by_label["parallel-check"], by_label["serial-check"]))
    return failures


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            sizes: Sizes = Sizes()) -> tuple[dict, list[str]]:
    """One benchmark run: the result object and the report lines."""
    runner = Runner(workload, seed, sizes)
    setup_times, counts = runner.setup_phase()
    main = [runner.run("warm-up")]
    timed = runner.loop("timed", seconds / 2 if trace else seconds,
                        max(sizes.min_samples - 1, 1) if trace else sizes.min_samples)
    traced, summaries, missing = [], [], []
    if trace:
        tracer = Tracer()
        tracer.install()
        missing = tracer.missing
        try:
            traced = runner.loop("traced", seconds / 2, max(sizes.min_samples - 1, 1),
                                 after=lambda: summaries.append(tracer.take()))
        finally:
            tracer.uninstall()
    main += timed + traced
    rss = peak_rss_mb(with_children=workload.workers > 1)

    checks = []
    if workload.name == "sim_turbulent":
        checks.append(runner.run("serial-check", workers=1, frames=sizes.check_frames))
        checks.append(runner.run("parallel-check", workers=POOL_WORKERS,
                                 frames=sizes.check_frames))
    elif workload.workers > 1:
        checks.append(runner.run("serial-full", workers=1))
    reference = None
    if workload.command == "simulate":
        reference = runner.run("closed-form", command="analytic")
    tolerance = runner.config.load_config(None, {}).compare_tolerance
    failures = evaluate(workload, main, checks, reference, tolerance)
    shutil.rmtree(runner.outdir, ignore_errors=True)

    frames = sizes.frames if workload.command == "simulate" else 0
    serial = timed if workload.workers == 1 else [c for c in checks if c.label == "serial-full"]
    serial_cpu = _median(o.cpu_s / frames for o in serial) if frames else 0.0
    if frames and workload.workers > 1:
        worker_cpu = _median(o.child_cpu_s / frames for o in timed + traced)
    else:
        worker_cpu = serial_cpu
    efficiency = serial_cpu / worker_cpu if worker_cpu else 0.0
    untraced_s = _median(o.wall_s for o in timed)
    traced_s = _median(o.wall_s for o in traced)

    end_to_end = {"command_s": untraced_s,
                  "command_cpu_s": _median(o.cpu_s for o in timed),
                  "setup_s": _median(setup_times),
                  "peak_rss_mb": rss}
    layer = dict(counts)
    layer.update(span_metrics(summaries))
    layer.update({
        "correlator.peak_z": _median(o.peak_z for o in main),
        "io_formats.bytes_written": _median(o.bytes_written for o in main),
        "simulate.worker_cpu_s_per_frame": worker_cpu,
        "simulate.parallel_efficiency": efficiency,
        "simulate.slow_mode": int(workload.workers > 1 and efficiency < 0.5),
        "trace.command_s_untraced": untraced_s,
        "trace.command_s_traced": traced_s,
        "trace.overhead_pct": 100.0 * (traced_s / untraced_s - 1.0) if traced_s else 0.0,
    })

    attempted = len(main) + len(checks) + (reference is not None)
    table = PER_LAYER if trace else END_TO_END
    values = layer if trace else end_to_end
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit, _ in table}}

    lines = [f"workload {workload.name}: seed {seed}, {seconds:g} s, trace {int(trace)}, "
             f"workers {workload.workers}, frames {frames or '-'}",
             "machine " + json.dumps(machine_record(), sort_keys=True)]
    walls = [o.wall_s for o in timed]
    lines.append(f"  command_s             = {untraced_s:.6g} s (median of {len(walls)}, "
                 f"min {min(walls):.6g}, max {max(walls):.6g})")
    if frames:
        lines.append(f"  frames_per_s          = {frames / untraced_s:.6g} 1/s")
        lines.append(f"  cpu_s_per_frame       = {end_to_end['command_cpu_s'] / frames:.6g} s")
    else:
        lines.append(f"  analytic_s            = {untraced_s:.6g} s")
    lines.append(f"  command_cpu_s         = {end_to_end['command_cpu_s']:.6g} s")
    lines.append(f"  setup_s               = {end_to_end['setup_s']:.6g} s "
                 f"(median of {len(setup_times)})")
    lines.append(f"  peak_rss_mb           = {rss:.6g} MiB")
    if trace:
        for name, unit, _ in PER_LAYER:
            lines.append(f"  {name:<36} = {layer[name]:.6g} {unit}")
        shares = stage_shares(summaries)
        if shares:
            lines.append("  share of simulate wall: "
                         + ", ".join(f"{n} {100 * s:.1f}%" for n, s in shares if s > 0))
        for name in missing:
            lines.append(f"  not traced (absent from the program): {name}")
    if workload.workers > 1:
        lines.append(f"  mode {'slow' if layer['simulate.slow_mode'] else 'fast'}: "
                     f"worker CPU {worker_cpu * 1e3:.4g} ms/frame against serial "
                     f"{serial_cpu * 1e3:.4g} ms/frame")
    for label, reasons in failures.items():
        for reason in reasons:
            lines.append(f"  FAIL {reason}")
    lines.append(f"  attempted {attempted}, failed {len(failures)}")
    return result, lines
