"""Run configuration: JSON blocks with defaults reproducing the lab setup."""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from pathlib import Path

from .errors import ConfigurationError, DataError
from .instrument import DetectorConfig, ScanConfig
from .optics import Geometry, GridSpec

# JSON key -> dataclass field, one table per config block
_GEOMETRY_KEYS = {
    "wavelength_m": "wavelength",
    "slit_width_m": "slit_width",
    "slit_sep_m": "slit_sep",
    "l_slits_lens_m": "dist_slits_lens",
    "l_lens_det_m": "dist_lens_detector",
    "d_direct_m": "dist_slits_direct",
    "focal_m": "focal_length",
}

DEFAULT_CONFIG = {
    "geometry": {key: getattr(Geometry(), attr) for key, attr in _GEOMETRY_KEYS.items()},
    "source": {
        "illumination_tilt": 0.1,
        "grid_n": 2**17,
        "grid_half_span_m": 40e-3,
    },
    "scans": [
        {"aperture_width_m": 4e-3, "midline": "centroid"},
        {"aperture_width_m": 5e-3, "midline": "centroid"},
    ],
    "detector": {
        "pixel_pitch_m": 13e-6,
        "n_pixels": 1024,
        "readout_noise_e": 6.0,
        "gain_e_per_unit": 1.0,
        "noise_enabled": True,
    },
    "reconstruction": {
        "cutoff": 1e-10,
        "smoothing_rms_m": 0.15e-3,
        "window_half_m": 5e-3,
    },
    "metrics": {
        "peak_selector": "second_third",
        "guard_px": 20,
    },
    "output_dir": "runs/default",
    "seed": 0,
}

_SCAN_KEYS = {
    "aperture_width_m": "aperture_width",
    "step_m": "step",
    "n_steps": "n_steps",
    "s_start_m": "s_start",
    "stage_ratio": "stage_ratio",
    "exposure_s": "exposure",
    "frames_per_step": "frames_per_step",
    "opening": "opening",
    "anchor_elems": "anchor_elems",
    "midline": "midline",
}

_DETECTOR_KEYS = {
    "pixel_pitch_m": "pixel_pitch",
    "n_pixels": "n_pixels",
    "readout_noise_e": "readout_noise",
    "gain_e_per_unit": "gain",
    "noise_enabled": "noise_enabled",
    "rng_seed": "rng_seed",
}


def _check_keys(block: dict, allowed, where: str) -> None:
    unknown = set(block) - set(allowed)
    if unknown:
        raise ConfigurationError(
            f"unknown key(s) in {where}: {', '.join(sorted(unknown))}"
        )


def _build(cls, block, keys: dict, where: str):
    """Construct cls from a JSON block, mapping its keys to field names."""
    if not isinstance(block, dict):
        raise ConfigurationError(f"{where} must be an object")
    _check_keys(block, keys, where)
    return cls(**{attr: block[key] for key, attr in keys.items() if key in block})


@dataclass(frozen=True)
class RunConfig:
    """Parsed configuration for one reproducible run."""

    geometry: Geometry
    grid: GridSpec
    illumination_tilt: float
    scans: tuple
    detector: DetectorConfig
    recon_cutoff: float
    smoothing_rms: float
    window_half: float
    peak_selector: str
    guard_px: int
    output_dir: str
    seed: int
    raw: dict

    @property
    def h_scale(self) -> float:
        """Camera pixel pitch scaled from the direct-image plane to the pupil."""
        geom = self.geometry
        return self.detector.pixel_pitch * geom.dist_slits_lens / geom.dist_slits_direct

    def config_hash(self) -> str:
        # output_dir is excluded: it names where artifacts land, not what
        # was computed, and identical runs should hash identically
        physical = {k: v for k, v in self.raw.items() if k != "output_dir"}
        return hashlib.sha256(
            json.dumps(physical, sort_keys=True).encode()
        ).hexdigest()


def _parse(raw: dict) -> RunConfig:
    _check_keys(raw, DEFAULT_CONFIG, "config")
    merged = {}
    for key, default in DEFAULT_CONFIG.items():
        value = raw.get(key, default)
        if isinstance(default, dict) and key != "scans":
            if not isinstance(value, dict):
                raise ConfigurationError(f"config block '{key}' must be an object")
            merged[key] = {**default, **value}
        else:
            merged[key] = value

    geometry = _build(Geometry, merged["geometry"], _GEOMETRY_KEYS, "geometry block")

    src = merged["source"]
    _check_keys(src, DEFAULT_CONFIG["source"], "source block")
    grid = GridSpec(int(src["grid_n"]), float(src["grid_half_span_m"]))

    seed = int(merged["seed"])

    detector = _build(
        DetectorConfig,
        {"rng_seed": seed, **merged["detector"]},
        _DETECTOR_KEYS,
        "detector block",
    )

    scans_raw = merged["scans"]
    if not isinstance(scans_raw, list) or not scans_raw:
        raise ConfigurationError("config needs at least one scan")
    scans = [
        _build(ScanConfig, block, _SCAN_KEYS, f"scans[{idx}]")
        for idx, block in enumerate(scans_raw)
    ]

    rec = merged["reconstruction"]
    _check_keys(rec, DEFAULT_CONFIG["reconstruction"], "reconstruction block")
    met = merged["metrics"]
    _check_keys(met, DEFAULT_CONFIG["metrics"], "metrics block")

    return RunConfig(
        geometry=geometry,
        grid=grid,
        illumination_tilt=float(src["illumination_tilt"]),
        scans=tuple(scans),
        detector=detector,
        recon_cutoff=float(rec["cutoff"]),
        smoothing_rms=float(rec["smoothing_rms_m"]),
        window_half=float(rec["window_half_m"]),
        peak_selector=str(met["peak_selector"]),
        guard_px=int(met["guard_px"]),
        output_dir=str(merged["output_dir"]),
        seed=seed,
        raw=merged,
    )


def load_config(
    path: str | None = None,
    seed: int | None = None,
    output_dir: str | None = None,
    no_noise: bool = False,
) -> RunConfig:
    """Build the run configuration, overlaying a JSON file on the defaults.

    Without a file the built-in defaults reproduce the lab setup.  A file,
    when given, must at least contain the 'geometry' block; any other
    block may be partial and is merged over the defaults.
    """
    if path is None:
        raw = {}
    else:
        p = Path(path)
        if not p.exists():
            raise DataError(f"config file not found: {path}")
        try:
            raw = json.loads(p.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"{path}: invalid JSON ({exc})") from exc
        if not isinstance(raw, dict):
            raise ConfigurationError(f"{path}: config must be a JSON object")
        if "geometry" not in raw:
            raise ConfigurationError(
                f"{path}: config is missing the required 'geometry' block"
            )
    if seed is not None:
        raw = {**raw, "seed": int(seed)}
    if output_dir is not None:
        raw = {**raw, "output_dir": str(output_dir)}
    try:
        cfg = _parse(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{path or 'config'}: invalid value ({exc})") from exc
    if no_noise:
        cfg = replace(cfg, detector=replace(cfg.detector, noise_enabled=False))
    return cfg
