"""Run configuration: flat key=value files plus CLI overrides.

A config file holds one `key = value` per line; blank lines and text
after `#` are ignored.  An optional `[profile]` section carries inline
piecewise-turbulence rows (same grammar as a profile file).  Unknown
keys are rejected so typos fail loudly instead of silently running
defaults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .analytic import CoherenceParams
from .correlator import ObjectMask, double_slit_mask, point_mask, three_bar_mask
from .errors import ConfigurationError
from .optics import Grid2D, OpticalConfig
from .simulate import RunSetup
from .source import SubsourceSet, make_source_grid
from .turbulence import CnSquaredProfile, TurbulenceModel, coherence_length

# Baseline geometry; the wavelength default is assumed, not measured.
DEFAULTS: dict[str, str] = {
    "wavelength": "780e-9",
    "path_length": "1.4",
    "source_diameter": "11e-3",
    "source_pitch": "",          # empty -> source_diameter / 16
    "source_power": "1.0",
    "frames": "10000",
    "seed": "12345",
    "workers": "1",
    "mask": "point:0,0",
    "object_pixels": "9",
    "object_pitch": "12e-6",
    "ref_pixels": "64",
    "ref_pitch": "12e-6",
    "rho0": "",                  # meters, or "inf"; empty -> use cn2 keys
    "cn2": "",                   # uniform structure constant, m^(-2/3)
    "cn2_profile": "",           # path to a piecewise profile file
    "profile": "",               # filled by an inline [profile] section
    "rho0_sweep_mm": "",         # comma list of mm values or inf, for compare
    "screen_fraction": "0.0",
    "paths_independent": "true",
    "compare_tolerance": "0.10",
    "out_dir": "ghost_out",
}

# Keys that all determine the same coherence length; setting one from
# the command line silences the others from the file.
_RHO0_FAMILY = ("rho0", "cn2", "cn2_profile", "profile")

_BOOL_WORDS = {"true": True, "yes": True, "on": True, "1": True,
               "false": False, "no": False, "off": False, "0": False}


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    """Parse key=value lines (plus an optional [profile] section).

    Returns a raw string map; inline profile rows are joined under the
    "profile" key, one row per line.
    """
    out: dict[str, str] = {}
    profile_rows: list[str] = []
    in_profile = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section != "profile":
                raise ConfigurationError(f"{source}:{lineno}: unknown section [{section}]")
            if in_profile or profile_rows:
                raise ConfigurationError(f"{source}:{lineno}: duplicate [profile] section")
            in_profile = True
            continue
        if in_profile:
            profile_rows.append(line)
            continue
        if "=" not in line:
            raise ConfigurationError(f"{source}:{lineno}: expected key = value, got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip().lower()
        if key in out:
            raise ConfigurationError(f"{source}:{lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    if in_profile and not profile_rows:
        raise ConfigurationError(f"{source}: [profile] section is empty")
    if profile_rows:
        if out.get("profile", ""):
            raise ConfigurationError(f"{source}: both profile key and [profile] section set")
        out["profile"] = "\n".join(profile_rows)
    return out


def _as_float(key: str, value: str) -> float:
    try:
        number = float(value)
    except ValueError:
        raise ConfigurationError(f"{key}: expected a number, got {value!r}") from None
    if not math.isfinite(number):
        raise ConfigurationError(f"{key}: expected a finite number, got {value!r}")
    return number


def _as_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigurationError(f"{key}: expected an integer, got {value!r}") from None


def _as_bool(key: str, value: str) -> bool:
    try:
        return _BOOL_WORDS[value.strip().lower()]
    except KeyError:
        raise ConfigurationError(f"{key}: expected true/false, got {value!r}") from None


@dataclass(frozen=True)
class RunConfig:
    """Fully typed run parameters after defaults and overrides."""

    wavelength: float
    path_length: float
    source_diameter: float
    source_pitch: float
    source_power: float
    frames: int
    seed: int
    workers: int
    mask: str
    object_pixels: int
    object_pitch: float
    ref_pixels: int
    ref_pitch: float
    rho0: float
    rho0_origin: str
    rho0_sweep: tuple[float, ...]
    screen_fraction: float
    paths_independent: bool
    compare_tolerance: float
    out_dir: str

    def optical(self) -> OpticalConfig:
        return OpticalConfig(wavelength=self.wavelength, path_length=self.path_length)

    def turbulence(self) -> TurbulenceModel:
        return TurbulenceModel(rho0=self.rho0,
                               screen_position_fraction=self.screen_fraction,
                               paths_independent=self.paths_independent)

    def object_grid(self) -> Grid2D:
        return Grid2D.centered(self.object_pixels, self.object_pixels, self.object_pitch)

    def reference_grid(self) -> Grid2D:
        return Grid2D.centered(self.ref_pixels, self.ref_pixels, self.ref_pitch)

    def subsources(self) -> SubsourceSet:
        return make_source_grid(self.source_diameter, self.source_pitch,
                                mean_power=self.source_power)

    def coherence_params(self) -> CoherenceParams:
        return CoherenceParams(wavelength=self.wavelength, path_length=self.path_length,
                               rho0=self.rho0, prefactor_radius=self.source_pitch / 2.0,
                               power_m=self.source_power, power_mp=self.source_power)

    def to_record(self) -> dict:
        rec = {
            "wavelength_m": self.wavelength,
            "path_length_m": self.path_length,
            "source_diameter_m": self.source_diameter,
            "source_pitch_m": self.source_pitch,
            "source_power": self.source_power,
            "frames": self.frames,
            "seed": self.seed,
            "workers": self.workers,
            "mask": self.mask,
            "object_pixels": self.object_pixels,
            "object_pitch_m": self.object_pitch,
            "ref_pixels": self.ref_pixels,
            "ref_pitch_m": self.ref_pitch,
            "rho0_m": "inf" if math.isinf(self.rho0) else self.rho0,
            "rho0_origin": self.rho0_origin,
            "rho0_sweep_m": ["inf" if math.isinf(v) else v for v in self.rho0_sweep],
            "screen_fraction": self.screen_fraction,
            "paths_independent": self.paths_independent,
            "compare_tolerance": self.compare_tolerance,
        }
        return rec


def _check_profile_length(profile: CnSquaredProfile, path_length: float,
                          what: str) -> CnSquaredProfile:
    if abs(profile.path_length - path_length) > 1e-9 * path_length:
        raise ConfigurationError(
            f"{what} covers {profile.path_length} m but path_length is {path_length} m")
    return profile


def _resolve_rho0(raw: dict[str, str], wavelength: float,
                  path_length: float) -> tuple[float, str]:
    given = [k for k in _RHO0_FAMILY if raw.get(k, "")]
    if len(given) > 1:
        raise ConfigurationError(
            f"set only one of {', '.join(_RHO0_FAMILY)} (got {given})")
    if raw.get("rho0", ""):
        text = raw["rho0"].lower()
        if text in ("inf", "infinity", "vacuum"):
            return math.inf, "explicit"
        value = _as_float("rho0", raw["rho0"])
        if value <= 0:
            raise ConfigurationError(f"rho0 must be positive, got {value}")
        return value, "explicit"
    if raw.get("cn2_profile", ""):
        profile = _check_profile_length(CnSquaredProfile.from_file(raw["cn2_profile"]),
                                        path_length, "cn2_profile")
        return coherence_length(profile, wavelength), "cn2_profile"
    if raw.get("profile", ""):
        profile = _check_profile_length(
            CnSquaredProfile.from_lines(raw["profile"].splitlines()),
            path_length, "[profile] section")
        return coherence_length(profile, wavelength), "inline_profile"
    if raw.get("cn2", ""):
        cn2 = _as_float("cn2", raw["cn2"])
        profile = CnSquaredProfile.uniform(path_length, cn2)
        return coherence_length(profile, wavelength), "cn2_uniform"
    return math.inf, "vacuum"


def _parse_sweep(text: str) -> tuple[float, ...]:
    """rho0_sweep_mm entries: numbers in millimeters, or inf/vacuum."""
    values = []
    for item in text.split(","):
        word = item.strip().lower()
        if not word:
            continue
        if word in ("inf", "infinity", "vacuum"):
            values.append(math.inf)
            continue
        value = _as_float("rho0_sweep_mm", word) * 1e-3
        if value <= 0:
            raise ConfigurationError(f"rho0_sweep_mm entries must be positive, got {word}")
        values.append(value)
    return tuple(values)


def build_config(raw_items: dict[str, str]) -> RunConfig:
    """Apply defaults, validate keys, and resolve derived values."""
    unknown = sorted(set(raw_items) - set(DEFAULTS))
    if unknown:
        raise ConfigurationError(f"unknown config keys: {', '.join(unknown)}")
    raw = dict(DEFAULTS)
    raw.update({k: v for k, v in raw_items.items() if v != ""})

    wavelength = _as_float("wavelength", raw["wavelength"])
    path_length = _as_float("path_length", raw["path_length"])
    if wavelength <= 0 or path_length <= 0:
        raise ConfigurationError("wavelength and path_length must be positive")
    source_diameter = _as_float("source_diameter", raw["source_diameter"])
    pitch_text = raw["source_pitch"]
    source_pitch = _as_float("source_pitch", pitch_text) if pitch_text \
        else source_diameter / 16.0
    rho0, rho0_origin = _resolve_rho0(raw, wavelength, path_length)

    cfg = RunConfig(
        wavelength=wavelength,
        path_length=path_length,
        source_diameter=source_diameter,
        source_pitch=source_pitch,
        source_power=_as_float("source_power", raw["source_power"]),
        frames=_as_int("frames", raw["frames"]),
        seed=_as_int("seed", raw["seed"]),
        workers=_as_int("workers", raw["workers"]),
        mask=raw["mask"],
        object_pixels=_as_int("object_pixels", raw["object_pixels"]),
        object_pitch=_as_float("object_pitch", raw["object_pitch"]),
        ref_pixels=_as_int("ref_pixels", raw["ref_pixels"]),
        ref_pitch=_as_float("ref_pitch", raw["ref_pitch"]),
        rho0=rho0,
        rho0_origin=rho0_origin,
        rho0_sweep=_parse_sweep(raw["rho0_sweep_mm"]),
        screen_fraction=_as_float("screen_fraction", raw["screen_fraction"]),
        paths_independent=_as_bool("paths_independent", raw["paths_independent"]),
        compare_tolerance=_as_float("compare_tolerance", raw["compare_tolerance"]),
        out_dir=raw["out_dir"],
    )
    cfg.turbulence()   # the screen model owns the screen-plane rule
    if cfg.frames < 2:
        raise ConfigurationError(f"imaging runs need frames >= 2, got {cfg.frames}")
    if cfg.seed < 0:
        raise ConfigurationError(f"seed must be >= 0, got {cfg.seed}")
    if cfg.workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {cfg.workers}")
    if cfg.source_power <= 0:
        raise ConfigurationError(f"source_power must be positive, got {cfg.source_power}")
    if cfg.compare_tolerance <= 0:
        raise ConfigurationError("compare_tolerance must be positive")
    return cfg


def load_config(path=None, overrides: dict[str, str] | None = None) -> RunConfig:
    """Read an optional config file, apply overrides, build a RunConfig.

    An override from the coherence-length family (rho0, cn2, ...)
    replaces whichever member the file used instead of conflicting
    with it.
    """
    raw: dict[str, str] = {}
    if path is not None:
        text = Path(path).read_text(encoding="utf-8")
        raw.update(parse_config_text(text, source=str(path)))
    overrides = {k.lower(): v for k, v in (overrides or {}).items()}
    if any(key in overrides for key in _RHO0_FAMILY):
        for key in _RHO0_FAMILY:
            raw.pop(key, None)
    raw.update(overrides)
    return build_config(raw)


def parse_mask(spec: str, grid: Grid2D) -> ObjectMask:
    """Build an object mask from its textual form.

    Forms: point | point:x,y | double_slit:w,s,h | three_bar:w,h |
    open | pgm:path  (lengths in meters; pgm pixel counts must match
    the object grid).
    """
    from . import io_formats
    import numpy as np

    name, _, args = spec.partition(":")
    name = name.strip().lower()
    try:
        if name == "point":
            if args.strip():
                x, y = (float(v) for v in args.split(","))
            else:
                x = y = 0.0
            return point_mask(grid, (x, y))
        if name == "double_slit":
            w, s, h = (float(v) for v in args.split(","))
            return double_slit_mask(grid, slit_width=w, separation=s, height=h)
        if name == "three_bar":
            w, h = (float(v) for v in args.split(","))
            return three_bar_mask(grid, bar_width=w, height=h)
        if name == "open":
            return ObjectMask(grid=grid, transmissivity=np.ones((grid.ny, grid.nx)))
        if name == "pgm":
            trans = io_formats.read_pgm8(args.strip())
            if trans.shape != (grid.ny, grid.nx):
                raise ConfigurationError(
                    f"mask PGM is {trans.shape[1]}x{trans.shape[0]} but the object "
                    f"grid is {grid.nx}x{grid.ny}")
            return ObjectMask(grid=grid, transmissivity=trans)
    except ConfigurationError:
        raise
    except (ValueError, OSError) as exc:
        raise ConfigurationError(f"bad mask spec {spec!r}: {exc}") from None
    raise ConfigurationError(f"unknown mask type {name!r} in {spec!r}")


def config_to_setup(rc: RunConfig) -> RunSetup:
    """Materialize the simulation inputs described by a RunConfig."""
    grid = rc.object_grid()
    return RunSetup(cfg=rc.optical(),
                    sources=rc.subsources(),
                    model=rc.turbulence(),
                    mask=parse_mask(rc.mask, grid),
                    ref_grid=rc.reference_grid(),
                    frames=rc.frames,
                    seed=rc.seed,
                    workers=rc.workers)
