"""Command-line front end: fringes, scan, reconstruct, report, rank."""
from __future__ import annotations

import argparse
import sys
import time
from itertools import chain, islice
from pathlib import Path

import numpy as np

from . import __version__
from .artifacts import read_csv, read_json, write_csv, write_json
from .config import RunConfig, load_config
from .errors import ConfigurationError, DataError, NumericalError, WhichwayError
from .instrument import (
    GUARD_PX,
    _pixel_profile,
    assignment_probability,
    load_scan_csv,
    pooled_assignment,
    scan_tag,
    uniform_step,
    width_in_steps,
)
from .metrics import (
    PEAK_PROMINENCE_FRACTION, distinguishability, duality_check, match_profiles, visibility
)
from .optics import IntensityProfile
from .pipeline import (
    direct_fringe_profile,
    reconstruct_tables,
    result_profile,
    run_all_scans,
)
from .reconstruct import ANCHOR_ELEMS, iter_full_rank_dims

_PLOT_SCRIPT = """\
# Plot helper emitted alongside {csv_name}; run with any Python that has
# matplotlib installed:  python {script_name}
import csv

import matplotlib.pyplot as plt

x, y = [], []
with open({csv_name!r}) as fh:
    reader = csv.DictReader(fh)
    cols = reader.fieldnames
    for row in reader:
        x.append(float(row[cols[0]]))
        y.append(float(row[cols[1]]))
plt.plot(x, y)
plt.xlabel(cols[0])
plt.ylabel(cols[1])
plt.title({title!r})
plt.show()
"""


# profile CSVs: header and cell formats; positions in metres resp. millimetres
_PROFILE_CSV = (("position_m", "value"), (".12e", ".12e"))
_RECONSTRUCTION_CSV = (("position_mm", "P_hat"), (".9e", ".9e"))

# the sidecar numbers that reconstruct and report read back
_SIDECAR_NUMBERS = ("exposure_s", "contamination", "total_flux_sum")
_SIDECAR_POSITIVE = ("exposure_s", "total_flux_sum")  # a scan never writes either <= 0
# a noisy scan's total flux must exceed this many sigma of its pixels' summed
# readout noise, beyond which its sign no longer depends on the draw
LIGHT_FLOOR_SIGMAS = 5


def _read_profile(path: Path) -> IntensityProfile:
    """A profile CSV (positions in metres) with negatives clipped."""
    x, values = read_csv(path, _PROFILE_CSV[0], min_rows=2).values()
    step = uniform_step(x, f"{path}: positions")
    return IntensityProfile(float(x[0]), step, np.clip(values, 0.0, None))


def _update_manifest(cfg: RunConfig, out: Path, stage: str, files, seconds: float):
    path = out / "run_manifest.json"
    try:
        manifest = read_json(path)
    except DataError:  # a missing or corrupt manifest is started afresh
        manifest = {}
    manifest["config_hash"] = cfg.config_hash()
    manifest["artifact_version"] = __version__
    stages = manifest.get("stages")
    manifest["stages"] = stages = stages if isinstance(stages, dict) else {}
    stages[stage] = {
        "files": [f.name for f in files],
        "seconds": round(seconds, 3),
    }
    write_json(path, manifest)


def _write_plot_script(path: Path, csv_name: str, title: str):
    path.write_text(
        _PLOT_SCRIPT.format(csv_name=csv_name, script_name=path.name, title=title)
    )


def cmd_fringes(cfg: RunConfig, args, out: Path) -> list[Path]:
    """Direct image of the interference fringes at the near plane D."""
    profile = direct_fringe_profile(cfg)
    csv_path = out / "fringes.csv"
    write_csv(csv_path, *_PROFILE_CSV, (profile.positions, profile.values))
    script = out / "fringes_plot.py"
    _write_plot_script(script, csv_path.name, "direct double-slit fringes")
    print(f"wrote {csv_path}")
    return [csv_path, script]


def _scan_sidecar(series, cfg: RunConfig) -> dict:
    sc, detector, total = series.config, cfg.detector, series.total_flux_sum
    if detector.noise_enabled:
        # the readout sigma of all the scan's pixels summed, in the profiles' units
        pixels = series.profiles.size
        sigma = detector.readout_noise * (pixels / sc.frames_per_step) ** 0.5 / detector.gain
        if not total > LIGHT_FLOOR_SIGMAS * sigma:
            raise NumericalError(
                f"scan {scan_tag(sc.aperture_width)}: total flux {total:g} is not above its light"
                f" floor {LIGHT_FLOOR_SIGMAS * sigma:g}, {LIGHT_FLOOR_SIGMAS} sigma of the readout"
                f" noise summed over its {pixels} pixels"
            )
    contamination, p, d = assignment_probability(series)
    return {
        "aperture_width_m": sc.aperture_width,
        "width_elems": sc.width_elems(),
        "anchor_elems": ANCHOR_ELEMS,
        "exposure_s": sc.exposure,
        "stage_ratio": sc.stage_ratio,
        "guard_px": GUARD_PX,
        "contamination": contamination,
        "p_correct": p,
        "distinguishability": d,
        "total_flux_sum": total,
        "noise_enabled": cfg.detector.noise_enabled,
        "rng_seed": cfg.detector.rng_seed,
    }


def cmd_scan(cfg: RunConfig, args, out: Path) -> list[Path]:
    """Run every configured scan and write one flux CSV (plus sidecar) each."""
    series_list = run_all_scans(cfg)
    # every sidecar before any file, so a scan whose sidecar fails writes nothing
    sidecars = [_scan_sidecar(series, cfg) for series in series_list]
    files = []
    for series, sidecar in zip(series_list, sidecars):
        tag = scan_tag(series.config.aperture_width)
        csv_path, json_path = out / f"scan_{tag}.csv", out / f"scan_{tag}.json"
        series.to_csv(csv_path)
        write_json(json_path, sidecar)
        files += [csv_path, json_path]
        if args.profiles:
            directory = out / f"profiles_{tag}"
            for stale in directory.glob("step_*.csv"):  # a longer earlier scan's
                stale.unlink()
            for k, values in enumerate(series.profiles):
                prof = _pixel_profile(cfg.detector, values)
                path = directory / f"step_{k:04d}.csv"
                write_csv(path, *_PROFILE_CSV, (prof.positions, prof.values))
        print(f"wrote {csv_path}")
    return files


def _read_scans(cfg: RunConfig, out: Path, flux_csvs=(), widths_mm=None):
    """Widths, scan tables, sidecars and exposures of a stacked solve, each file read once.

    With no flux_csvs these are cfg's scans in out, and every CSV and
    sidecar must be there.  Explicit flux_csvs take their widths from
    widths_mm (in mm); either every one has a JSON sidecar next to it or
    none does, and with none every sidecar is None and every exposure 1.0.
    A sidecar must record the width in steps and anchor that the stacked
    solve gives its scan, the width (in metres) in steps of the first CSV
    and ANCHOR_ELEMS, and the guard band of the pooled D, GUARD_PX; and
    its total_flux_sum must be the sum of its CSV's F column.
    """
    if (widths_mm is None) == bool(flux_csvs):
        raise ConfigurationError("--widths-mm is taken exactly when flux CSVs are given")
    if flux_csvs:
        paths = [Path(p) for p in flux_csvs]
        try:
            widths = [float(w) * 1e-3 for w in widths_mm.split(",")]
        except ValueError as exc:
            raise ConfigurationError(f"--widths-mm: {exc}") from exc
        if len(widths) != len(paths):
            raise ConfigurationError("need one width per flux CSV")
    else:
        widths = [scan.aperture_width for scan in cfg.scans]
        paths = [out / f"scan_{scan_tag(width)}.csv" for width in widths]
    jsons = [path.with_suffix(".json") for path in paths]
    if not flux_csvs:
        missing = [str(p) for pair in zip(paths, jsons) for p in pair if not p.exists()]
        if missing:
            raise DataError("missing scan inputs: " + ", ".join(missing))
    lacking = [str(path) for path, s in zip(paths, jsons) if not s.exists()]
    if len(lacking) == len(jsons):  # explicit CSVs with no sidecar at all
        tables = [load_scan_csv(path) for path in paths]
        return widths, tables, [None] * len(jsons), [1.0] * len(jsons)
    if lacking:
        raise DataError(
            "either every scan CSV has a JSON sidecar or none does; no sidecar next to "
            + ", ".join(lacking)
        )
    sidecars = [read_json(s, _SIDECAR_NUMBERS) for s in jsons]
    tables = [load_scan_csv(path) for path in paths]
    step = uniform_step(tables[0]["s"], "scan slit positions")
    for path, csv_path, table, sidecar, width in zip(jsons, paths, tables, sidecars, widths):
        for key in _SIDECAR_POSITIVE:
            if not sidecar[key] > 0:
                raise DataError(f"{path}: '{key}' must be > 0")
        # a wrong-side flux fraction above 1/2 is no which-way bound
        if not 0 <= sidecar["contamination"] <= 0.5:
            raise DataError(f"{path}: 'contamination' must lie in [0, 1/2]")
        taken = dict(
            width_elems=width_in_steps(width, step), anchor_elems=ANCHOR_ELEMS, guard_px=GUARD_PX
        )
        for key, value in taken.items():
            if key not in sidecar or sidecar[key] != value:
                found = repr(sidecar[key]) if key in sidecar else "missing"
                raise DataError(f"{path}: '{key}' is {found}; this run takes {value!r}")
        # the pooled D weighs each scan by its total flux
        total, flux = sidecar["total_flux_sum"], table["F"]
        if not abs(total - flux.sum()) <= 1e-9 * np.abs(flux).sum():
            raise DataError(
                f"{path}: 'total_flux_sum' is {total!r}; "
                f"the F column of {csv_path.name} sums to {float(flux.sum())!r}"
            )
    return widths, tables, sidecars, [float(s["exposure_s"]) for s in sidecars]


def cmd_reconstruct(cfg: RunConfig, args, out: Path) -> list[Path]:
    """Solve the stacked flux equations from scan CSVs."""
    # the scan step comes from the CSVs' s_mm column, not the config
    widths, tables, _, exposures = _read_scans(cfg, out, args.flux_csv, args.widths_mm)
    result = reconstruct_tables(tables, widths, exposures)
    n = tables[0]["F"].size
    if len(widths) == 1 and result.effective_rank < n:
        print(
            f"warning: rank-deficient system (rank {result.effective_rank} < {n}); "
            "emitting the minimum-norm solution",
            file=sys.stderr,
        )
    csv_path = out / "reconstruction.csv"
    write_csv(csv_path, *_RECONSTRUCTION_CSV, (result.grid * 1e3, result.p_hat))
    sidecar = out / "reconstruction.json"
    write_json(
        sidecar,
        {
            "residual_norm": result.residual_norm,
            "effective_rank": result.effective_rank,
            "cutoff": result.cutoff,
            "smoothing_rms_m": result.smoothing_rms,
        },
    )
    script = out / "reconstruction_plot.py"
    _write_plot_script(script, csv_path.name, "reconstructed pupil pattern")
    print(f"wrote {csv_path}")
    return [csv_path, sidecar, script]


def cmd_report(cfg: RunConfig, args, out: Path) -> list[Path]:
    """Duality report: V from the configured scans' stacked solve, D from their sidecars."""
    widths, tables, sidecars, exposures = _read_scans(cfg, out)
    profile = result_profile(reconstruct_tables(tables, widths, exposures))

    # match the reconstruction against the direct fringe image, scaled
    # from the near plane to the pupil plane
    match = None
    fringes_csv = out / "fringes.csv"
    if fringes_csv.exists():
        reference = _read_profile(fringes_csv)
        match = match_profiles(profile, reference, cfg.h_scale)

    vis = visibility(profile)
    _, _, d = pooled_assignment(
        (float(s["contamination"]), float(s["total_flux_sum"])) for s in sidecars
    )
    # left/right-signal reconstructions (which-way split of the pattern)
    lr_results = {
        signal: reconstruct_tables(tables, widths, exposures, signal)
        for signal in ("left", "right")
    }

    report = duality_check(
        vis.value,  # at most 1: result_profile clips the pattern at 0
        d,
        v_method=f"peaks:{vis.method};prominence:{PEAK_PROMINENCE_FRACTION:.0%}",
        d_method=f"guard_px:{GUARD_PX};pooled-contamination",
    )
    lines = [
        f"whichway run report (config {cfg.config_hash()[:12]})",
        f"V  = {report.v:.4f}   [{report.v_method}]",
        f"D  = {report.d:.4f}   [{report.d_method}]",
        f"V^2 + D^2 = {report.duality:.4f}  -> "
        + ("VIOLATED (> 1)" if report.violated else "within the bound"),
    ]
    for width, sidecar in zip(widths, sidecars):
        d_scan = distinguishability(1 - sidecar["contamination"])
        lines.append(f"  scan_{scan_tag(width)}: D = {d_scan:.4f}")
    if match is not None:
        lines.append(
            f"profile match vs direct fringes: shift = {match.shift * 1e3:+.3f} mm, "
            f"v_scale = {match.v_scale:.4g}, normalized RMS = {match.rms_residual:.4f}"
        )
    left, right = (result_profile(res) for res in lr_results.values())
    lp = left.values / max(left.values.max(), 1e-300)
    rp = right.values / max(right.values.max(), 1e-300)
    lines.append(
        "left/right reconstructions (peak-normalized) RMS difference: "
        f"{float(np.sqrt(np.mean((lp - rp) ** 2))):.4f}"
    )

    duality_path = out / "duality.json"
    write_json(duality_path, report.to_json_dict())
    lr_files = [out / f"reconstruction_{signal}.csv" for signal in lr_results]
    for path, res in zip(lr_files, lr_results.values()):
        write_csv(path, *_RECONSTRUCTION_CSV, (res.grid * 1e3, res.p_hat))
    summary = out / "summary.txt"
    summary.write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    return [duality_path, summary, *lr_files]


def cmd_rank(args) -> int:
    """Print the full-rank dimensions of a banded aperture matrix."""
    dims = map(str, iter_full_rank_dims(args.width_elems, args.n_max))
    # written 4096 at a time, so memory does not grow with --n-max
    chunks = iter(lambda: ", ".join(islice(dims, 4096)), "")
    sys.stdout.writelines(chain(islice(chunks, 1), (", " + c for c in chunks), ["\n"]))
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON run configuration")
    common.add_argument("--seed", type=int, help="override the RNG seed")
    common.add_argument("--out", metavar="DIR", help="override the output directory")
    common.add_argument(
        "--no-noise", action="store_true", help="disable the detector noise model"
    )
    parser = argparse.ArgumentParser(
        prog="whichway",
        description="Which-way double-slit bench: simulate, reconstruct, report.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("fringes", parents=[common], help="direct fringe image at D")
    p_scan = sub.add_parser("scan", parents=[common], help="run the aperture scans")
    p_scan.add_argument(
        "--profiles", action="store_true", help="also export per-step profiles"
    )
    p_rec = sub.add_parser(
        "reconstruct", parents=[common], help="reconstruct the pupil pattern"
    )
    p_rec.add_argument(
        "flux_csv", nargs="*", help="scan CSVs (default: the configured scan outputs)"
    )
    p_rec.add_argument(
        "--widths-mm", help="comma-separated aperture widths matching the CSVs"
    )
    sub.add_parser("report", parents=[common], help="duality report from run artifacts")
    p_rank = sub.add_parser("rank", help="full-rank dimensions of an aperture matrix")
    p_rank.add_argument("-w", "--width-elems", type=int, required=True)
    p_rank.add_argument("--n-max", type=int, required=True)
    return parser


# the commands that write artifacts: each returns the files it wrote
_STAGES = {
    "fringes": cmd_fringes,
    "scan": cmd_scan,
    "reconstruct": cmd_reconstruct,
    "report": cmd_report,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "rank":
            return cmd_rank(args)
        cfg = load_config(
            args.config, seed=args.seed, output_dir=args.out, no_noise=args.no_noise
        )
        t0 = time.perf_counter()
        out = Path(cfg.output_dir)
        # a stage computes, then writes: its first artifact creates out
        files = _STAGES[args.command](cfg, args, out)
        _update_manifest(cfg, out, args.command, files, time.perf_counter() - t0)
        return 0
    except WhichwayError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 4)
    except OSError as exc:
        # an output directory or artifact that cannot be created or written
        where = "" if exc.filename is None else f"{exc.filename}: "
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        # numpy's message names the allocation that failed
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
