"""Outside-in tracing of ghost_turb's layers.

The tracer wraps public functions on their module or class attributes,
so the program itself is unchanged.  Each call records one span in
memory: name, start, end and the index of the span that was open when it
started.  A span's self time is its duration minus the time its direct
children cover.  The part of a span name before the first dot is the
layer that its self time is charged to.

Forked pool workers inherit the wrappers, but their spans stay in the
child: a parallel run shows only the parent's spans.
"""

from __future__ import annotations

import functools
import importlib
import time

# (object holding the attribute, attribute, span name).  Functions are
# wrapped where the caller looks them up: simulate.py imports
# sample_frame and bucket_signal by name, and cli.py imports the config,
# simulate, analytic and io_formats entry points it calls.
TARGETS = (
    ("cli", "main", "cli.main"),
    ("cli", "load_config", "config.load_config"),
    ("cli", "config_to_setup", "config.config_to_setup"),
    ("cli", "run_simulation", "simulate.run_simulation"),
    ("cli", "psf_metrics", "correlator.psf_metrics"),
    ("cli", "analytic_ghost_image", "cli.analytic_ghost_image"),
    ("cli", "predicted_ghost_image", "analytic.predicted_ghost_image"),
    ("cli", "mds_demo_rows", "analytic.mds_demo_rows"),
    ("cli", "write_pgm16", "io_formats.write_pgm16"),
    ("cli", "write_map_csv", "io_formats.write_map_csv"),
    ("cli", "write_psf_csv", "io_formats.write_psf_csv"),
    ("cli", "write_run_json", "io_formats.write_run_json"),
    ("simulate", "sample_frame", "source.sample_frame"),
    ("simulate", "bucket_signal", "correlator.bucket_signal"),
    ("simulate.FramePipeline", "__init__", "simulate.pipeline_init"),
    ("simulate.FramePipeline", "batch", "simulate.batch"),
    ("simulate.FramePipeline", "frame", "optics.frame"),
    ("turbulence.ScreenSampler", "sample", "turbulence.screen_draw"),
    ("turbulence.PhaseScreen", "sample_at", "turbulence.screen_eval"),
    ("correlator.GhostImageEstimate", "add", "correlator.add"),
    ("correlator.GhostImageEstimate", "merge", "correlator.merge"),
    ("correlator.GhostImageEstimate", "finalize", "correlator.finalize"),
)

# Spans whose durations add up to the simulate wall time in a serial run.
# optics.frame is counted by its self time; its children are listed.
FRAME_STAGES = ("simulate.pipeline_init", "source.sample_frame", "turbulence.screen_draw",
                "turbulence.screen_eval", "optics.frame", "correlator.bucket_signal",
                "correlator.add", "correlator.merge", "correlator.finalize")

# name, unit, better.  A unit ending in -computed marks a number derived
# from array sizes rather than measured.
PER_LAYER = (
    ("config.load_s", "s", "lower"),
    ("simulate.pipeline_init_s", "s", "lower"),
    ("source.subsources", "count", "higher"),
    ("source.draw_us_per_frame", "us", "lower"),
    ("turbulence.screen_draw_us_per_frame", "us", "lower"),
    ("turbulence.screen_eval_us_per_frame", "us", "lower"),
    ("turbulence.screens_per_frame", "count", "lower"),
    ("turbulence.modes", "count", "lower"),
    ("turbulence.screen_px", "count", "lower"),
    ("optics.propagate_us_per_frame", "us", "lower"),
    ("optics.ref_px", "count", "higher"),
    ("optics.flops_per_frame", "flop-computed", "lower"),
    ("optics.kernel_mb", "MiB-computed", "lower"),
    ("correlator.bucket_px", "count", "higher"),
    ("correlator.bucket_us_per_frame", "us", "lower"),
    ("correlator.accumulate_us_per_frame", "us", "lower"),
    ("correlator.merge_ms", "ms", "lower"),
    ("correlator.finalize_ms", "ms", "lower"),
    ("correlator.psf_ms", "ms", "lower"),
    ("correlator.peak_z", "sigma", "higher"),
    ("simulate.batches", "count", "lower"),
    ("simulate.pool_wait_s", "s", "lower"),
    ("simulate.worker_cpu_s_per_frame", "s", "lower"),
    ("simulate.parallel_efficiency", "ratio", "higher"),
    ("simulate.slow_mode", "count", "lower"),
    ("simulate.stage_coverage", "ratio", "higher"),
    ("analytic.predict_ms_per_bucket_px", "ms", "lower"),
    ("analytic.bucket_px", "count", "lower"),
    ("analytic.pair_terms", "count-computed", "lower"),
    ("analytic.mds_demo_s", "s", "lower"),
    ("io_formats.write_ms", "ms", "lower"),
    ("io_formats.bytes_written", "B", "lower"),
    ("cli.self_ms", "ms", "lower"),
    ("trace.command_s_untraced", "s", "lower"),
    ("trace.command_s_traced", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)


def _owner(package: str, path: str):
    module, _, cls = path.partition(".")
    try:
        obj = importlib.import_module(f"{package}.{module}")
    except ImportError:
        return None
    return getattr(obj, cls, None) if cls else obj


class Tracer:
    """Span recorder installed on the TARGETS of one package."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index]
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def install(self, package: str = "ghost_turb") -> None:
        for path, attr, name in TARGETS:
            owner = _owner(package, path)
            original = vars(owner).get(attr) if owner is not None else None
            if not callable(original):
                self.missing.append(f"{path}.{attr}")
                continue
            setattr(owner, attr, self._wrap(name, original))
            self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _wrap(self, name: str, original):
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, open_[-1] if open_ else -1])
            open_.append(index)
            try:
                return original(*args, **kwargs)
            finally:
                open_.pop()
                spans[index][2] = clock()
        return traced

    def take(self) -> dict[str, list]:
        """Per span name [calls, total s, self s] since the last take; forget the spans."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = {}
        for (name, start, end, _), covered in zip(self.spans, child):
            agg = out.setdefault(name, [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += end - start
            agg[2] += end - start - covered
        self.spans.clear()
        return out


def merge_summaries(summaries: list[dict[str, list]]) -> dict[str, list]:
    out: dict[str, list] = {}
    for summary in summaries:
        for name, (calls, total, self_s) in summary.items():
            agg = out.setdefault(name, [0, 0.0, 0.0])
            agg[0] += calls
            agg[1] += total
            agg[2] += self_s
    return out


def span_metrics(summaries: list[dict[str, list]]) -> dict[str, float]:
    """Per-layer times from the spans of the traced commands.

    Per-frame numbers divide by the frames the parent process computed,
    so they read 0 when every frame ran in a pool worker.  Per-command
    numbers are means over the traced commands.
    """
    tot = merge_summaries(summaries)
    commands = max(len(summaries), 1)

    def calls(name):
        return tot.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return tot.get(name, (0, 0.0, 0.0))[1]

    def self_time(name):
        return tot.get(name, (0, 0.0, 0.0))[2]

    def layer_sum(prefix, column):
        return sum(v[column] for k, v in tot.items() if k.startswith(prefix))

    frames = calls("optics.frame")

    def us_per_frame(seconds):
        return 1e6 * seconds / frames if frames else 0.0

    predicted = calls("analytic.predicted_ghost_image")
    sim_wall = total("simulate.run_simulation")
    stages = sum(total(s) for s in FRAME_STAGES if s != "optics.frame") + self_time("optics.frame")
    return {
        "config.load_s": (total("config.load_config") + total("config.config_to_setup")) / commands,
        "simulate.pipeline_init_s": total("simulate.pipeline_init") / commands,
        "source.draw_us_per_frame": us_per_frame(total("source.sample_frame")),
        "turbulence.screen_draw_us_per_frame": us_per_frame(total("turbulence.screen_draw")),
        "turbulence.screen_eval_us_per_frame": us_per_frame(total("turbulence.screen_eval")),
        "turbulence.screens_per_frame": calls("turbulence.screen_draw") / frames if frames else 0.0,
        "optics.propagate_us_per_frame": us_per_frame(self_time("optics.frame")),
        "correlator.bucket_us_per_frame": us_per_frame(total("correlator.bucket_signal")),
        "correlator.accumulate_us_per_frame": us_per_frame(total("correlator.add")),
        "correlator.merge_ms": 1e3 * total("correlator.merge") / commands,
        "correlator.finalize_ms": 1e3 * total("correlator.finalize") / commands,
        "correlator.psf_ms": 1e3 * total("correlator.psf_metrics") / commands,
        "simulate.batches": calls("correlator.merge") / commands,
        "simulate.pool_wait_s": self_time("simulate.run_simulation") / commands,
        "simulate.stage_coverage": stages / sim_wall if sim_wall else 0.0,
        "analytic.predict_ms_per_bucket_px":
            1e3 * total("analytic.predicted_ghost_image") / predicted if predicted else 0.0,
        "analytic.bucket_px": predicted / commands,
        "analytic.mds_demo_s": total("analytic.mds_demo_rows") / commands,
        "io_formats.write_ms": 1e3 * layer_sum("io_formats.", 1) / commands,
        "cli.self_ms": 1e3 * layer_sum("cli.", 2) / commands,
    }


def stage_shares(summaries: list[dict[str, list]]) -> list[tuple[str, float]]:
    """Each frame stage's share of the simulate wall time, largest first."""
    tot = merge_summaries(summaries)
    wall = tot.get("simulate.run_simulation", (0, 0.0, 0.0))[1]
    if not wall:
        return []
    shares = []
    for name in FRAME_STAGES:
        calls, total, self_s = tot.get(name, (0, 0.0, 0.0))
        seconds = self_s if name == "optics.frame" else total
        shares.append((name, seconds / wall))
    return sorted(shares, key=lambda item: -item[1])
