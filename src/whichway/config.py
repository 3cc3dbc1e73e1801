"""Run configuration: JSON blocks with defaults reproducing the lab setup."""
from __future__ import annotations

import hashlib
import json
import math
import sys
import typing
from collections import defaultdict
from dataclasses import dataclass
from functools import cache
from pathlib import Path

from .errors import ConfigurationError, DataError
from .instrument import DetectorConfig, ScanConfig, scan_tag
from .metrics import DEFAULT_MATCH_HALF_WINDOW, PEAK_SELECTOR
from .optics import Geometry, GridSpec
from .reconstruct import DEFAULT_RANK_CUTOFF, SMOOTHING_RMS, smoothing_kernel_elems


@dataclass(frozen=True)
class RunConfig:
    """Parsed configuration for one reproducible run."""

    geometry: Geometry
    grid: GridSpec
    illumination_tilt: float
    scans: tuple
    detector: DetectorConfig
    output_dir: str
    raw: dict  # the merged config with typed values, as hashed

    # fixed analysis settings, not config keys, read only by perfbench/run.py
    recon_cutoff = DEFAULT_RANK_CUTOFF
    window_half = DEFAULT_MATCH_HALF_WINDOW
    smoothing_rms = SMOOTHING_RMS
    peak_selector = PEAK_SELECTOR

    def __post_init__(self):
        # the slits' amplitudes are 1 -+ tilt/2, so beyond +-2 one turns negative
        if not -2.0 <= self.illumination_tilt <= 2.0:
            raise ConfigurationError(
                f"source.illumination_tilt must lie in [-2, 2], got {self.illumination_tilt!r}"
            )
        # checked at load, so a run that cannot be solved stops before it
        # has written anything: the scans are stacked into one solve, and
        # each writes scan_<tag>.*
        tags = [scan_tag(scan.aperture_width) for scan in self.scans]
        for i, scan in enumerate(self.scans[1:], start=1):
            if tags[i] in tags[:i]:
                raise ConfigurationError(f"scans[{i}]: output tag scan_{tags[i]} is already taken")
            for key in ("step_m", "s_start_m", "n_steps"):
                if getattr(scan, _SCAN_KEYS[key][1]) != getattr(self.scans[0], _SCAN_KEYS[key][1]):
                    raise ConfigurationError(f"scans[{i}]: {key} must equal that of scans[0]")
        for i, scan in enumerate(self.scans):
            # the stacked solve takes each aperture, and smooths on the scans' steps
            kernel = smoothing_kernel_elems(SMOOTHING_RMS, scan.step)
            for what, steps in (("aperture", scan.width_elems()), ("smoothing kernel", kernel)):
                if steps > scan.n_steps:
                    raise ConfigurationError(
                        f"scans[{i}]: the {what} spans {steps} steps, "
                        f"more than n_steps = {scan.n_steps}"
                    )

    @property
    def h_scale(self) -> float:
        """Scale of positions from the direct-image plane to the pupil, L_S/D."""
        return self.geometry.dist_slits_lens / self.geometry.dist_slits_direct

    def config_hash(self) -> str:
        # output_dir is excluded: it names where artifacts land, not what
        # was computed, and identical runs should hash identically
        physical = {k: v for k, v in self.raw.items() if k != "output_dir"}
        return hashlib.sha256(
            json.dumps(physical, sort_keys=True).encode()
        ).hexdigest()


# JSON key -> (dataclass, field), one table per config block
_BLOCKS = {
    "geometry": {
        "wavelength_m": (Geometry, "wavelength"),
        "slit_width_m": (Geometry, "slit_width"),
        "slit_sep_m": (Geometry, "slit_sep"),
        "l_slits_lens_m": (Geometry, "dist_slits_lens"),
        "l_lens_det_m": (Geometry, "dist_lens_detector"),
        "d_direct_m": (Geometry, "dist_slits_direct"),
        "focal_m": (Geometry, "focal_length"),
    },
    "source": {
        "illumination_tilt": (RunConfig, "illumination_tilt"),
        "grid_n": (GridSpec, "n"),
    },
    "detector": {
        "pixel_pitch_m": (DetectorConfig, "pixel_pitch"),
        "n_pixels": (DetectorConfig, "n_pixels"),
        "readout_noise_e": (DetectorConfig, "readout_noise"),
        "gain_e_per_unit": (DetectorConfig, "gain"),
        "noise_enabled": (DetectorConfig, "noise_enabled"),
    },
}

# every entry of the "scans" list
_SCAN_KEYS = {
    "aperture_width_m": (ScanConfig, "aperture_width"),
    "step_m": (ScanConfig, "step"),
    "n_steps": (ScanConfig, "n_steps"),
    "s_start_m": (ScanConfig, "s_start"),
    "stage_ratio": (ScanConfig, "stage_ratio"),
    "exposure_s": (ScanConfig, "exposure"),
    "frames_per_step": (ScanConfig, "frames_per_step"),
    "midline": (ScanConfig, "midline"),
}

# top-level values; the seed is the detector noise model's only seed
_TOP_KEYS = {"output_dir": (RunConfig, "output_dir"), "seed": (DetectorConfig, "rng_seed")}


# the library's defaults, plus the reference bench's own choices: noise on,
# a tilted illumination, the 4 and 5 mm scans and the output directory
DEFAULT_CONFIG = {
    "geometry": {key: getattr(Geometry(), a) for key, (_, a) in _BLOCKS["geometry"].items()},
    "source": {"illumination_tilt": 0.1, "grid_n": GridSpec().n},
    "scans": [{"aperture_width_m": 4e-3}, {"aperture_width_m": 5e-3}],
    "detector": {
        **{key: getattr(DetectorConfig(), a) for key, (_, a) in _BLOCKS["detector"].items()},
        "noise_enabled": True,
    },
    "output_dir": "runs/default",
    "seed": DetectorConfig().rng_seed,
}

_KINDS = {int: "an integer", float: "a finite number", bool: "true or false", str: "a string"}
_KINDS[float | None] = "a finite number or null"


@cache
def _hints(cls) -> dict:
    """The resolved annotations of a config dataclass, read once per class."""
    return typing.get_type_hints(cls)


def _typed(value, cls, attr: str, where: str):
    """A JSON value checked against the annotation of cls.attr.

    int takes a JSON integer, float a finite number (an integer is stored
    as float), bool true or false, str a string, float | None also null.
    """
    hint = _hints(cls)[attr]
    optional = hint == float | None
    if optional and value is None:
        return None
    kind = float if optional else hint
    if kind is float and type(value) is int and abs(value) <= sys.float_info.max:
        value = float(value)
    if type(value) is kind and (kind is not float or math.isfinite(value)):
        return value
    raise ConfigurationError(f"{where} must be {_KINDS[hint]}, got {json.dumps(value)}")


def _check_keys(block: dict, allowed, where: str) -> None:
    unknown = set(block) - set(allowed)
    if unknown:
        raise ConfigurationError(
            f"unknown key(s) in {where}: {', '.join(map(json.dumps, sorted(unknown)))}"
        )


def _typed_block(block, defaults: dict, keys: dict, where: str, fields) -> dict:
    """A JSON block merged over its defaults, typed; fields[cls][attr] gets each value."""
    if not isinstance(block, dict):
        raise ConfigurationError(f"{where} must be an object")
    _check_keys(block, keys, where)
    typed = {}
    for key, value in {**defaults, **block}.items():
        cls, attr = keys[key]
        typed[key] = fields[cls][attr] = _typed(value, cls, attr, f"{where}.{key}")
    return typed


def _parse(raw: dict) -> RunConfig:
    _check_keys(raw, DEFAULT_CONFIG, "config")
    fields = defaultdict(dict)
    merged = {
        name: _typed_block(raw.get(name, {}), DEFAULT_CONFIG[name], keys, name, fields)
        for name, keys in _BLOCKS.items()
    }
    for key, (cls, attr) in _TOP_KEYS.items():
        value = raw.get(key, DEFAULT_CONFIG[key])
        merged[key] = fields[cls][attr] = _typed(value, cls, attr, key)

    blocks = raw.get("scans", DEFAULT_CONFIG["scans"])
    if not isinstance(blocks, list) or not blocks:
        raise ConfigurationError("config needs at least one scan")
    scan_fields = [defaultdict(dict) for _ in blocks]
    merged["scans"] = [
        _typed_block(block, {}, _SCAN_KEYS, f"scans[{idx}]", scan_fields[idx])
        for idx, block in enumerate(blocks)
    ]

    return RunConfig(
        geometry=_build(Geometry, fields, "geometry"),
        grid=_build(GridSpec, fields, "source"),
        scans=tuple(_build(ScanConfig, f, f"scans[{i}]") for i, f in enumerate(scan_fields)),
        detector=_build(DetectorConfig, fields, "detector"),
        raw=merged,
        **fields[RunConfig],
    )


def _build(cls, fields, where: str):
    """cls from its typed fields; a range error names the config block."""
    try:
        return cls(**fields[cls])
    except ConfigurationError as exc:
        raise ConfigurationError(f"{where}: {exc}") from exc


def load_config(
    path: str | None = None,
    seed: int | None = None,
    output_dir: str | None = None,
    no_noise: bool = False,
) -> RunConfig:
    """Build the run configuration, overlaying a JSON file on the defaults.

    Without a file the built-in defaults reproduce the lab setup.  A file,
    when given, must at least contain the 'geometry' block; any other
    block may be partial and is merged over the defaults.  seed, output_dir
    and no_noise edit it before parsing, so they are checked (and hashed,
    output_dir aside) like the file's values.
    """
    if path is None:
        raw = {}
    else:
        p = Path(path)
        if not p.exists():
            raise DataError(f"config file not found: {path}")
        try:
            raw = json.loads(p.read_bytes())
        except (ValueError, RecursionError) as exc:  # undecodable text or nesting too deep
            raise ConfigurationError(f"{path}: invalid JSON ({exc})") from exc
        if not isinstance(raw, dict):
            raise ConfigurationError(f"{path}: config must be a JSON object")
        if "geometry" not in raw:
            raise ConfigurationError(
                f"{path}: config is missing the required 'geometry' block"
            )
    if seed is not None:
        raw = {**raw, "seed": seed}
    if output_dir is not None:
        raw = {**raw, "output_dir": output_dir}
    detector = raw.get("detector", {})
    if no_noise and isinstance(detector, dict):  # a non-object fails in _parse
        raw = {**raw, "detector": {**detector, "noise_enabled": False}}
    try:
        return _parse(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{path or 'config'}: invalid value ({exc})") from exc
