"""Run configuration: flat key=value files plus CLI overrides.

A config file holds one `key = value` per line; blank lines and text
after `#` are ignored.  An optional `[profile]` section carries inline
piecewise-turbulence rows (same grammar as a profile file).  Unknown
keys are rejected so typos fail loudly instead of silently running
defaults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from .correlator import ObjectMask, double_slit_mask, point_mask, three_bar_mask
from .errors import ConfigurationError, require_length, require_positive
from .optics import Grid2D, OpticalConfig
from .simulate import RunSetup, check_run, check_sampling
from .source import SubsourceSet, make_source_grid
from .turbulence import CnSquaredProfile, TurbulenceModel, coherence_length

# Keys that all determine the same coherence length, each with the
# rho0_origin it records: rho0 itself, a uniform cn2 in m^(-2/3), a
# profile file path, or profile text (the profile key or an inline
# [profile] section).  Setting one from the command line silences the
# others from the file.
_RHO0_FAMILY = {"rho0": "explicit", "cn2": "cn2_uniform",
                "cn2_profile": "cn2_profile", "profile": "inline_profile"}

_BOOL_WORDS = {"true": True, "yes": True, "on": True, "1": True,
               "false": False, "no": False, "off": False, "0": False}


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    """Parse key=value lines (plus an optional [profile] section).

    Returns a raw string map.  An inline profile's text goes under the
    "profile" key with blank lines in place of the lines above its
    rows, so that CnSquaredProfile.from_lines numbers each row by its
    line in the file.
    """
    out: dict[str, str] = {}
    lines = text.splitlines()
    header = 0   # line number of the [profile] header; 0: no section
    has_rows = False
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section != "profile":
                raise ConfigurationError(f"{source}:{lineno}: unknown section [{section}]")
            if header:
                raise ConfigurationError(f"{source}:{lineno}: duplicate [profile] section")
            header = lineno
            continue
        if header:
            has_rows = True
            continue
        if "=" not in line:
            raise ConfigurationError(f"{source}:{lineno}: expected key = value, got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip().lower()
        if key in out:
            raise ConfigurationError(f"{source}:{lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    if header and not has_rows:
        raise ConfigurationError(f"{source}: [profile] section is empty")
    if has_rows:
        if out.get("profile", ""):
            raise ConfigurationError(f"{source}: both profile key and [profile] section set")
        out["profile"] = "\n" * header + "\n".join(lines[header:])
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


def _as_text(key: str, value: str) -> str:
    return value


def _as_length(key: str, text: str, unit: float = 1.0) -> float:
    """A coherence length in meters: a positive number of units, or inf/infinity/vacuum."""
    word = text.strip()
    if word.lower() in ("inf", "infinity", "vacuum"):
        return math.inf
    value = _as_float(key, word)
    require_length(key, value)
    return value * unit


def _parse_sweep(key: str, text: str) -> tuple[float, ...]:
    """rho0_sweep_mm entries, for compare: lengths in millimeters; empty ones skipped."""
    return tuple(_as_length(key, item, 1e-3) for item in text.split(",") if item.strip())


def _row(default: str | None, parse, record: str | None, key: str | None = None):
    """One row of the config-key table: the metadata of the field it fills.

    default is the key's default text (None: the field has no key of its
    own), parse turns the text into the field value (None: derived in
    build_config), record is the run.json name (None: not recorded) and
    key is the config key where it differs from the field name.
    """
    return field(metadata={"default": default, "parse": parse, "record": record, "key": key})


@dataclass(frozen=True)
class RunConfig:
    """Fully typed run parameters after defaults and overrides.

    The fields are the config-key table, one row per key; adding a key
    is adding a row.  The wavelength default is assumed, not measured.
    """

    # field: type = _row(default text, parser, run.json name)
    wavelength: float = _row("780e-9", _as_float, "wavelength_m")
    path_length: float = _row("1.4", _as_float, "path_length_m")
    source_diameter: float = _row("11e-3", _as_float, "source_diameter_m")
    source_pitch: float = _row("", None, "source_pitch_m")  # empty: source_diameter / 16
    source_power: float = _row("1.0", _as_float, "source_power")
    frames: int = _row("10000", _as_int, "frames")
    seed: int = _row("12345", _as_int, "seed")
    workers: int = _row("1", _as_int, "workers")
    mask: str = _row("point:0,0", _as_text, "mask")
    object_pixels: int = _row("9", _as_int, "object_pixels")
    object_pitch: float = _row("12e-6", _as_float, "object_pitch_m")
    ref_pixels: int = _row("64", _as_int, "ref_pixels")
    ref_pitch: float = _row("12e-6", _as_float, "ref_pitch_m")
    rho0: float = _row("", None, "rho0_m")      # meters or inf; see _RHO0_FAMILY
    rho0_origin: str = _row(None, None, "rho0_origin")
    rho0_sweep: tuple[float, ...] = _row("", _parse_sweep, "rho0_sweep_m", key="rho0_sweep_mm")
    screen_fraction: float = _row("0.0", _as_float, "screen_fraction")
    paths_independent: bool = _row("true", _as_bool, "paths_independent")
    compare_tolerance: float = _row("0.10", _as_float, "compare_tolerance")
    out_dir: str = _row("ghost_out", _as_text, None)

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

    def to_record(self) -> dict:
        return {f.metadata["record"]: _record_value(getattr(self, f.name))
                for f in fields(self) if f.metadata["record"]}


def _record_value(value):
    """run.json form of a field value: inf as "inf", tuples as lists."""
    if isinstance(value, tuple):
        return [_record_value(v) for v in value]
    return "inf" if isinstance(value, float) and math.isinf(value) else value


def _key(f) -> str:
    return f.metadata["key"] or f.name


# Config keys with their default text: the table's rows plus the
# coherence-length family, all empty by default.
_DEFAULTS = {**{_key(f): f.metadata["default"] for f in fields(RunConfig)
                if f.metadata["default"] is not None},
             **dict.fromkeys(_RHO0_FAMILY, "")}


def _read_text(path, what: str) -> str:
    """The UTF-8 text of a config or profile file; what names the file in errors."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except IsADirectoryError:
        raise ConfigurationError(f"{what} {path} is a directory") from None
    except UnicodeDecodeError:
        raise ConfigurationError(f"{what} {path} is not UTF-8 text") from None


def _resolve_rho0(raw: dict[str, str], wavelength: float,
                  path_length: float) -> tuple[float, str]:
    """rho0 and its origin from the one coherence-length key that is set.

    rho0 is read as a length; every other key becomes a Cn2 profile,
    which must cover the path, and rho0 is its coherence length.
    """
    given = [k for k in _RHO0_FAMILY if raw.get(k, "")]
    if len(given) > 1:
        raise ConfigurationError(
            f"set only one of {', '.join(_RHO0_FAMILY)} (got {given})")
    if not given:
        return math.inf, "vacuum"
    key = given[0]
    text = raw[key]
    if key == "rho0":
        return _as_length(key, text), _RHO0_FAMILY[key]
    # Outside the try: a bad number's error already names its key.
    cn2 = _as_float(key, text) if key == "cn2" else None
    try:
        if key == "cn2":
            profile = CnSquaredProfile.uniform(path_length, cn2)
        else:
            if key == "cn2_profile":
                text = _read_text(text, "profile file")
            profile = CnSquaredProfile.from_lines(text.splitlines())
    except (ValueError, OSError) as exc:
        raise ConfigurationError(f"{key}: {exc}") from None
    if abs(profile.path_length - path_length) > 1e-9 * path_length:
        raise ConfigurationError(
            f"{key} covers {profile.path_length} m but path_length is {path_length} m")
    return coherence_length(profile, wavelength), _RHO0_FAMILY[key]


def build_config(raw_items: dict[str, str]) -> RunConfig:
    """Apply defaults, validate keys, and resolve derived values."""
    unknown = sorted(set(raw_items) - set(_DEFAULTS))
    if unknown:
        raise ConfigurationError(f"unknown config keys: {', '.join(unknown)}")
    raw = dict(_DEFAULTS)
    raw.update({k: v for k, v in raw_items.items() if v != ""})

    values = {f.name: f.metadata["parse"](_key(f), raw[_key(f)])
              for f in fields(RunConfig) if f.metadata["parse"]}
    wavelength, path_length = values["wavelength"], values["path_length"]
    OpticalConfig(wavelength, path_length)   # the optics own the wavelength and path rules
    pitch_text = raw["source_pitch"]
    values["source_pitch"] = _as_float("source_pitch", pitch_text) if pitch_text \
        else values["source_diameter"] / 16.0
    values["rho0"], values["rho0_origin"] = _resolve_rho0(raw, wavelength, path_length)
    cfg = RunConfig(**values)
    cfg.turbulence()   # the screen model owns the screen-plane rule
    check_run(cfg.frames, cfg.seed, cfg.workers)
    require_positive("source_power", cfg.source_power)
    require_positive("compare_tolerance", cfg.compare_tolerance)
    return cfg


def load_config(path=None, overrides: dict[str, str] | None = None) -> RunConfig:
    """Read an optional config file, apply overrides, build a RunConfig.

    An override from the coherence-length family (rho0, cn2, ...)
    replaces whichever member the file used instead of conflicting
    with it.
    """
    raw: dict[str, str] = {}
    if path is not None:
        raw.update(parse_config_text(_read_text(path, "config file"), source=str(path)))
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
            return ObjectMask(grid=grid, transmissivity=io_formats.read_pgm8(args.strip()))
    except (ValueError, OSError) as exc:
        raise ConfigurationError(f"bad mask spec {spec!r}: {exc}") from None
    raise ConfigurationError(f"unknown mask type {name!r} in {spec!r}")


def config_to_setup(rc: RunConfig) -> RunSetup:
    """Materialize the simulation inputs described by a RunConfig.

    RunSetup refuses a geometry that is not paraxial, and check_sampling
    then an aliased lattice or a reference grid too narrow for the
    blurred peak (see simulate).
    """
    setup = RunSetup(cfg=rc.optical(), sources=rc.subsources(), model=rc.turbulence(),
                     mask=parse_mask(rc.mask, rc.object_grid()), ref_grid=rc.reference_grid(),
                     frames=rc.frames, seed=rc.seed, workers=rc.workers)
    check_sampling(setup, rc.source_diameter)
    return setup
