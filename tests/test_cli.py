import errno
import json
import math
import operator
import os
import shutil
import subprocess
import sys
import threading
import time
import warnings
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from whichway import cli, pipeline
from whichway.artifacts import read_csv
from whichway.cli import _scan_sidecar, build_parser, main
from whichway.config import load_config
from whichway.errors import ConfigurationError, DataError, NumericalError
from whichway.instrument import GUARD_PX, ScanConfig, ScanSeries, load_scan_csv, run_scan
from whichway.metrics import distinguishability, visibility
from whichway.optics import GridSpec, amplitude_steps, double_slit_field, fresnel_field
from whichway.pipeline import run_all_scans
from whichway.reconstruct import full_rank_dims

ROOT = Path(__file__).resolve().parent.parent
EXPECTED_ARTIFACTS = [
    "fringes.csv",
    "fringes_plot.py",
    "scan_a4mm.csv",
    "scan_a4mm.json",
    "scan_a5mm.csv",
    "scan_a5mm.json",
    "reconstruction.csv",
    "reconstruction.json",
    "reconstruction_plot.py",
    "reconstruction_left.csv",
    "reconstruction_right.csv",
    "duality.json",
    "summary.txt",
    "run_manifest.json",
]


def test_full_run_writes_all_artifacts(cli_run):
    for name in EXPECTED_ARTIFACTS:
        assert (cli_run / name).exists(), name


def test_manifest_records_stages_and_config_hash(cli_run):
    manifest = json.loads((cli_run / "run_manifest.json").read_text())
    assert len(manifest["config_hash"]) == 64
    files = {
        "fringes": ["fringes.csv", "fringes_plot.py"],
        "scan": ["scan_a4mm.csv", "scan_a4mm.json", "scan_a5mm.csv", "scan_a5mm.json"],
        "reconstruct": ["reconstruction.csv", "reconstruction.json", "reconstruction_plot.py"],
        "report": [
            "duality.json",
            "summary.txt",
            "reconstruction_left.csv",
            "reconstruction_right.csv",
        ],
    }
    assert {name: stage["files"] for name, stage in manifest["stages"].items()} == files
    for stage in manifest["stages"].values():
        assert stage["seconds"] >= 0


def test_scan_sidecar_contents(cli_run):
    sidecar = json.loads((cli_run / "scan_a4mm.json").read_text())
    assert sidecar["width_elems"] == 40
    assert sidecar["exposure_s"] > 0
    assert 0.0 <= sidecar["contamination"] <= 1.0
    assert sidecar["noise_enabled"] is True


def test_scan_sidecar_total_adds_the_row_sums_in_step_order(quiet_cfg, quiet_series):
    for series in [*quiet_series, _one_pixel_series([1e16, 1.0, 1.0, -1e16, 5.0])]:
        total = _scan_sidecar(series, quiet_cfg)["total_flux_sum"]
        # a left-to-right fold: Python 3.12's built-in sum() is compensated
        assert total == reduce(operator.add, (float(row.sum()) for row in series.profiles), 0.0)
        assert series.total_flux_sum == total


def _one_pixel_series(flux):
    """A scan of 64-pixel rows whose step k holds flux[k] in pixel 32, right of
    its midline at 31.5."""
    flux = np.asarray(flux, dtype=float)
    profiles = np.zeros((flux.size, 64))
    profiles[:, 32] = flux
    zeros = np.zeros(flux.size)
    records = np.rec.fromarrays(
        [np.arange(flux.size), zeros, flux, zeros, flux],
        names="step_index,slit_position,total_flux,left_signal,right_signal",
    )
    scan = ScanConfig(aperture_width=4e-3, n_steps=flux.size, exposure=1.0)
    return ScanSeries(scan, records, profiles, np.full(flux.size, 31.5))


def test_scan_sidecar_total_adds_the_row_sums_left_to_right(quiet_cfg):
    # a compensated sum, as Python 3.12's built-in sum(), gives 7.0
    sidecar = _scan_sidecar(_one_pixel_series([1e16, 1.0, 1.0, -1e16, 5.0]), quiet_cfg)
    assert sidecar["total_flux_sum"] == 5.0
    assert sidecar["contamination"] == 0.0


def test_a_noisy_scan_must_clear_five_sigma_of_its_summed_readout_noise():
    # 4 steps of 64 pixels at 4 frames and 6 e readout noise, gain 1: the
    # summed readout sigma is 6 * sqrt(256 / 4) = 48, so the floor is 240
    cfg = load_config(seed=0)
    assert cfg.detector.noise_enabled
    assert (cfg.detector.readout_noise, cfg.detector.gain) == (6.0, 1.0)
    with pytest.raises(NumericalError, match=r"^scan a4mm: total flux 240 is not above its light floor 240, "):
        _scan_sidecar(_one_pixel_series([60.0] * 4), cfg)
    assert _scan_sidecar(_one_pixel_series([60.25] * 4), cfg)["total_flux_sum"] == 241.0
    quiet = load_config(seed=0, no_noise=True)  # no readout noise, no floor
    assert _scan_sidecar(_one_pixel_series([60.0] * 4), quiet)["total_flux_sum"] == 240.0


def test_rerun_is_byte_identical(cli_run, tmp_path):
    out = tmp_path / "again"
    for cmd in ("fringes", "scan", "reconstruct", "report"):
        assert main([cmd, "--out", str(out), "--seed", "0"]) == 0
    # everything except the manifest (which records wall-clock timings)
    for name in EXPECTED_ARTIFACTS:
        if name == "run_manifest.json":
            continue
        assert (out / name).read_bytes() == (cli_run / name).read_bytes(), name


def test_listed_scans_without_a_midline_write_the_default_run(cli_run, tmp_path):
    # a scan that names no midline splits at the centroid, as the default scans do
    path = tmp_path / "listed.json"
    scans = [{"aperture_width_m": 0.004}, {"aperture_width_m": 0.005}]
    path.write_text(json.dumps({"geometry": {}, "scans": scans}))
    out = tmp_path / "listed"
    for cmd in ("fringes", "scan", "reconstruct", "report"):
        assert main([cmd, "--config", str(path), "--out", str(out), "--seed", "0"]) == 0
    names = sorted(
        f.name
        for f in cli_run.iterdir()
        if f.suffix in (".csv", ".json") and f.name != "run_manifest.json"
    )
    assert len(names) == 10
    for name in names:
        assert (out / name).read_bytes() == (cli_run / name).read_bytes(), name
    assert json.loads((out / "duality.json").read_text())["D"] == 0.8945171050998821


def test_reconstruct_composes_from_explicit_csvs(cli_run, tmp_path):
    out = tmp_path / "explicit"
    rc = main(
        [
            "reconstruct",
            str(cli_run / "scan_a4mm.csv"),
            str(cli_run / "scan_a5mm.csv"),
            "--widths-mm",
            "4,5",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    assert (out / "reconstruction.csv").read_bytes() == (
        cli_run / "reconstruction.csv"
    ).read_bytes()


def test_single_width_reconstruction_warns_about_rank(cli_run, tmp_path, capsys):
    out = tmp_path / "single"
    rc = main(
        [
            "reconstruct",
            str(cli_run / "scan_a4mm.csv"),
            "--widths-mm",
            "4",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    assert "rank-deficient" in capsys.readouterr().err


def test_rank_command(capsys):
    assert main(["rank", "-w", "40", "--n-max", "121"]) == 0
    printed = capsys.readouterr().out.strip()
    assert printed == "40, 41, 80, 81, 120, 121"
    # every dimension up to the anchor of 20 elements
    assert main(["rank", "-w", "8", "--n-max", "12"]) == 0
    assert capsys.readouterr().out == "8, 9, 10, 11, 12\n"
    assert main(["rank", "-w", "0", "--n-max", "0"]) == 2
    assert capsys.readouterr().err == "error: width_elems must be >= 1; got 0\n"
    # lists longer than one chunk of the printed line, both branches of the rule
    for width, n_max in ((20, 20_000), (40, 300_000)):
        assert main(["rank", "-w", str(width), "--n-max", str(n_max)]) == 0
        dims = full_rank_dims(width, n_max)
        assert len(dims) > 10_000
        assert capsys.readouterr().out == ", ".join(map(str, dims)) + "\n"


def test_rank_memory_does_not_grow_with_n_max():
    # at -w 20 every n is full rank; printed as they come, 10^6 dimensions
    # take no more memory than 81 (their list and line take about 117 MB)
    code = (
        "import resource, subprocess, sys\n"
        "subprocess.run(sys.argv[1:], check=True, stdout=subprocess.DEVNULL)\n"
        "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)"
    )
    rank = "import sys; from whichway.cli import main; sys.exit(main())"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))

    def peak_kb(n_max):
        argv = [sys.executable, "-c", rank, "rank", "-w", "20", "--n-max", str(n_max)]
        run = subprocess.run(
            [sys.executable, "-c", code, *argv],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            check=True,
        )
        return int(run.stdout)

    assert abs(peak_kb(10**6) - peak_kb(100)) < 10 * 1024


# each run option before the subcommand, and each on rank, which reads none
# of them, not even a config: argparse rejects them before anything is written
MISPLACED_OPTIONS = {
    "seed-first": ["--seed", "3", "fringes"],
    "out-first": ["--out", "D", "scan"],
    "config-first": ["--config", "C", "report"],
    "no-noise-first": ["--no-noise", "reconstruct"],
    "rank-seed": ["rank", "-w", "8", "--n-max", "12", "--seed", "1"],
    "rank-out": ["rank", "-w", "8", "--n-max", "12", "--out", "D"],
    "rank-no-noise": ["rank", "-w", "8", "--n-max", "12", "--no-noise"],
    "rank-config": ["rank", "--config", "C", "-w", "8", "--n-max", "12"],
}


@pytest.mark.parametrize("argv", MISPLACED_OPTIONS.values(), ids=MISPLACED_OPTIONS)
def test_misplaced_run_options_exit_2(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    # neither the --out directory nor the default runs/default
    assert list(tmp_path.iterdir()) == []


def test_config_without_geometry_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"seed": 1}')
    assert main(["scan", "--config", str(bad)]) == 2
    assert "geometry" in capsys.readouterr().err


def test_invalid_json_config_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["scan", "--config", str(bad)]) == 2


@pytest.mark.parametrize(
    "text", [b'\xff\xfe{"geometry": {}}', b"[" * 100_000], ids=["not-utf-8", "nested-too-deep"]
)
def test_undecodable_json_config_exits_2(tmp_path, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_bytes(text)
    assert main(["scan", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: invalid JSON (") and err.count("\n") == 1, err
    assert not (tmp_path / "o").exists()


def test_a_manifest_nested_too_deep_is_started_afresh(tmp_path):
    out = tmp_path / "run"
    out.mkdir()
    (out / "run_manifest.json").write_text("[" * 100_000)
    assert main(["fringes", "--out", str(out)]) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert list(manifest["stages"]) == ["fringes"]


def test_missing_config_file_exits_3(tmp_path):
    assert main(["scan", "--config", str(tmp_path / "nope.json")]) == 3


def _missing_scans_error(out):
    """The one error line for a directory that holds none of the default scans' files."""
    names = ("scan_a4mm.csv", "scan_a4mm.json", "scan_a5mm.csv", "scan_a5mm.json")
    return "error: missing scan inputs: " + ", ".join(str(out / name) for name in names) + "\n"


def test_report_with_missing_inputs_exits_3(tmp_path, capsys):
    assert main(["report", "--out", str(tmp_path / "empty")]) == 3
    assert capsys.readouterr().err == _missing_scans_error(tmp_path / "empty")
    # a failed stage leaves the manifest of the stages before it as it was
    out = tmp_path / "fringes-only"
    assert main(["fringes", "--out", str(out)]) == 0
    capsys.readouterr()
    before = (out / "run_manifest.json").read_bytes()
    assert main(["report", "--out", str(out)]) == 3
    assert capsys.readouterr().err == _missing_scans_error(out)
    assert (out / "run_manifest.json").read_bytes() == before


FAILING_STAGES = {
    "reconstruct-widths-without-csvs": (["reconstruct", "--widths-mm", "4,5"], 2),
    "report-into-a-fresh-directory": (["report", "--out", "fresh"], 3),
    "report-into-nested-fresh-directories": (["report", "--out", "a/b/c"], 3),
}


@pytest.mark.parametrize("argv, code", FAILING_STAGES.values(), ids=FAILING_STAGES)
def test_a_stage_that_fails_before_writing_leaves_no_directory(tmp_path, monkeypatch, capsys,
                                                               argv, code):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == code
    assert capsys.readouterr().err.startswith("error: ")
    # neither the --out directory, its parents nor the default runs/default
    assert list(tmp_path.iterdir()) == []


def test_a_failing_stage_keeps_an_existing_directory(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("kept").mkdir()
    assert main(["report", "--out", "kept"]) == 3
    assert list(tmp_path.iterdir()) == [tmp_path / "kept"]
    assert list(Path("kept").iterdir()) == []


def test_an_out_that_is_a_file_exits_3(tmp_path, capsys):
    out = tmp_path / "summary.txt"
    out.write_text("not a directory\n")
    assert main(["fringes", "--out", str(out)]) == 3
    assert capsys.readouterr().err.splitlines() == [f"error: {out}: {os.strerror(errno.EEXIST)}"]
    assert out.read_text() == "not a directory\n"


def test_an_artifact_that_cannot_be_written_exits_3(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["fringes", "--out", str(out)]) == 0
    before = (out / "run_manifest.json").read_bytes()
    (out / "fringes.csv").unlink()
    (out / "fringes.csv").mkdir()
    capsys.readouterr()
    assert main(["fringes", "--out", str(out)]) == 3
    error = f"error: {out / 'fringes.csv'}: {os.strerror(errno.EISDIR)}"
    assert capsys.readouterr().err.splitlines() == [error]
    assert (out / "run_manifest.json").read_bytes() == before


def _fail_the_5mm_sidecar(monkeypatch):
    """Make the 5 mm scan's sidecar raise DataError; the 4 mm one is computed first."""
    real = cli.assignment_probability

    def fails_at_5mm(series, guard_px=GUARD_PX):
        if series.config.aperture_width == 5e-3:
            raise DataError("no assignment for the 5 mm scan")
        return real(series, guard_px)

    monkeypatch.setattr(cli, "assignment_probability", fails_at_5mm)


def test_a_scan_whose_sidecar_fails_creates_no_directory(tmp_path, monkeypatch, capsys):
    _fail_the_5mm_sidecar(monkeypatch)
    assert main(["scan", "--out", str(tmp_path / "a" / "b"), "--seed", "0"]) == 3
    assert capsys.readouterr().err == "error: no assignment for the 5 mm scan\n"
    assert list(tmp_path.iterdir()) == []


def test_a_scan_whose_sidecar_fails_keeps_an_existing_run(cli_run, tmp_path, monkeypatch):
    out = tmp_path / "run"
    shutil.copytree(cli_run, out)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(name for name in before if name.startswith("scan_")) == [
        "scan_a4mm.csv", "scan_a4mm.json", "scan_a5mm.csv", "scan_a5mm.json"
    ]
    _fail_the_5mm_sidecar(monkeypatch)
    # at another seed each file it wrote would differ from the seed-0 run's
    assert main(["scan", "--out", str(out), "--seed", "1"]) == 3
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def _replace_cell(text, line, column, cell):
    lines = text.splitlines()
    cells = lines[line].split(",")
    cells[column] = cell
    lines[line] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _zero_column(text, column):
    lines = text.splitlines()
    for k in range(1, len(lines)):
        cells = lines[k].split(",")
        cells[column] = "0"
        lines[k] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _edit_json(edit):
    def corrupt(text):
        data = json.loads(text)
        edit(data)
        return json.dumps(data)

    return corrupt


# (artifact, corruption, commands that read it[, exit code]): each command
# must reject the corrupt artifact with one error line, naming the file for
# exit 3 (the default), and leave every file of the run as it was; a tuple
# of artifacts takes a tuple of corruptions, and the error names the first
CORRUPTIONS = {
    "fringes-header": (
        "fringes.csv",
        lambda t: t.replace("position_m", "x_m", 1),
        ["report"],
    ),
    "fringes-nan": ("fringes.csv", lambda t: _replace_cell(t, 512, 1, "nan"), ["report"]),
    # a dark direct image leaves nothing to scale the reconstruction to
    "fringes-all-zero": ("fringes.csv", lambda t: _zero_column(t, 1), ["report"], 4),
    "sidecar-truncated": (
        "scan_a4mm.json",
        lambda t: t[: len(t) // 2],
        ["report", "reconstruct"],
    ),
    "sidecar-no-contamination": (
        "scan_a4mm.json",
        _edit_json(lambda d: d.pop("contamination")),
        ["report", "reconstruct"],
    ),
    "sidecar-list": ("scan_a4mm.json", lambda t: "[1, 2]\n", ["report", "reconstruct"]),
    "sidecar-nested-too-deep": (
        "scan_a4mm.json",
        lambda t: "[" * 100_000,
        ["report", "reconstruct"],
    ),
    "sidecar-exposure-string": (
        "scan_a4mm.json",
        _edit_json(lambda d: d.update(exposure_s="x")),
        ["report", "reconstruct"],
    ),
    "scan-huge-step": (
        "scan_a4mm.csv",
        lambda t: _replace_cell(t, 100, 0, "1e300"),
        ["report", "reconstruct"],
    ),
    # finite but absurd numbers overflow the solve: a numerical failure
    "scan-flux-overflow": (
        ("scan_a4mm.csv", "scan_a4mm.json"),
        (
            # F stays left + right, which the CSV reader checks
            lambda t: _replace_cell(
                _replace_cell(_replace_cell(t, 100, 2, "1e300"), 100, 3, "1e300"), 100, 4, "0"
            ),
            # and the sidecar's total stays the sum of F, which it checks too
            _edit_json(lambda d: d.update(total_flux_sum=1e300)),
        ),
        ["reconstruct"],
        4,
    ),
    "scan-flux-not-left-plus-right": (
        "scan_a4mm.csv",
        lambda t: _replace_cell(t, 151, 2, f"{1.5 * float(t.splitlines()[151].split(',')[2]):.9e}"),
        ["report", "reconstruct"],
    ),
    "sidecar-zero-exposure": (
        "scan_a4mm.json",
        _edit_json(lambda d: d.update(exposure_s=0)),
        ["report", "reconstruct"],
    ),
    "sidecar-negative-flux": (
        "scan_a5mm.json",
        _edit_json(lambda d: d.update(total_flux_sum=-d["total_flux_sum"])),
        ["report", "reconstruct"],
    ),
    # each sidecar must record the width in steps and anchor the stacked
    # solve gives its scan, or the solve would not be the scan's
    "sidecar-width-elems": (
        "scan_a4mm.json",
        _edit_json(lambda d: d.update(width_elems=41)),
        ["report", "reconstruct"],
    ),
    "sidecar-anchor": (
        "scan_a5mm.json",
        _edit_json(lambda d: d.update(anchor_elems=3)),
        ["report", "reconstruct"],
    ),
    "sidecar-no-anchor": (
        "scan_a4mm.json",
        _edit_json(lambda d: d.pop("anchor_elems")),
        ["report", "reconstruct"],
    ),
    # a scan's contamination is pooled into D only at this run's guard band
    "sidecar-guard": (
        "scan_a4mm.json",
        _edit_json(lambda d: d.update(guard_px=30)),
        ["report", "reconstruct"],
    ),
    # the pooled D weighs the scans by their total flux, and a total that
    # is not its CSV's is a CSV scanned at another exposure
    "sidecar-flux-sum-x50": (
        "scan_a4mm.json",
        _edit_json(lambda d: d.update(total_flux_sum=50 * d["total_flux_sum"])),
        ["report", "reconstruct"],
    ),
    "sidecar-subnormal-exposure": (
        "scan_a4mm.json",
        _edit_json(lambda d: d.update(exposure_s=1e-310)),
        ["report", "reconstruct"],
        4,
    ),
    # a wrong-side fraction outside [0, 1/2]; pooled with the 5 mm scan,
    # 0.7 would still leave the mean below 1/2
    **{
        f"sidecar-contamination-{value}": (
            "scan_a4mm.json",
            _edit_json(lambda d, value=value: d.update(contamination=value)),
            ["report", "reconstruct"],
        )
        for value in (5, -3, 0.7)
    },
}


def _snapshot(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir() if p.is_file()}


@pytest.mark.parametrize("case", CORRUPTIONS)
def test_corrupted_artifacts_exit_3(cli_run, tmp_path, capsys, case):
    names, corruptions, commands, *code = CORRUPTIONS[case]
    if isinstance(names, str):
        names, corruptions = (names,), (corruptions,)
    code = code[0] if code else 3
    run = tmp_path / "run"
    shutil.copytree(cli_run, run)
    for name, corrupt in zip(names, corruptions):
        (run / name).write_text(corrupt((run / name).read_text()))
    path = run / names[0]
    before = _snapshot(run)
    for cmd in commands:
        assert main([cmd, "--out", str(run), "--seed", "0"]) == code, cmd
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: " if code == 3 else "error: "), err
        assert err.count("\n") == 1, err
        assert _snapshot(run) == before, cmd


def test_summary_derives_each_scan_d_from_its_contamination(cli_run, tmp_path):
    # the sidecar's own distinguishability is not read: an absurd one
    # changes nothing, and each scan's line is the D of its contamination
    run = tmp_path / "run"
    shutil.copytree(cli_run, run)
    sidecar = run / "scan_a4mm.json"
    sidecar.write_text(_edit_json(lambda d: d.update(distinguishability=7.0))(sidecar.read_text()))
    assert main(["report", "--out", str(run), "--seed", "0"]) == 0
    summary = (run / "summary.txt").read_text()
    assert summary == (cli_run / "summary.txt").read_text()
    for name in ("scan_a4mm", "scan_a5mm"):
        contamination = json.loads((run / f"{name}.json").read_text())["contamination"]
        assert f"  {name}: D = {distinguishability(1 - contamination):.4f}\n" in summary


def test_summary_lists_each_scan_in_config_order(tmp_path):
    # as strings scan_a10mm sorts before scan_a4mm; the summary keeps the config's order
    path = tmp_path / "widths.json"
    path.write_text(json.dumps({"geometry": {}, "scans": [{"aperture_width_m": 0.004},
                                                          {"aperture_width_m": 0.010}]}))
    out = tmp_path / "o"
    for cmd in ("scan", "report"):
        assert main([cmd, "--config", str(path), "--out", str(out), "--seed", "0"]) == 0
    lines = [line for line in (out / "summary.txt").read_text().splitlines() if ": D = " in line]
    assert [line.split(":")[0] for line in lines] == ["  scan_a4mm", "  scan_a10mm"]


def test_an_older_sidecars_opening_is_ignored(cli_run, tmp_path):
    # sidecars once recorded the aperture's "opening"; like any key the
    # solve does not check, it changes nothing
    run = tmp_path / "run"
    shutil.copytree(cli_run, run)
    for name in ("scan_a4mm.json", "scan_a5mm.json"):
        sidecar = run / name
        sidecar.write_text(_edit_json(lambda d: d.update(opening="leftward"))(sidecar.read_text()))
    assert main(["reconstruct", "--out", str(run), "--seed", "0"]) == 0
    for name in ("reconstruction.csv", "reconstruction.json"):
        assert (run / name).read_bytes() == (cli_run / name).read_bytes(), name


def test_configured_reconstruct_requires_the_sidecars(cli_run, tmp_path, capsys):
    run = tmp_path / "run"
    shutil.copytree(cli_run, run)
    sidecar = run / "scan_a4mm.json"
    sidecar.unlink()
    assert main(["reconstruct", "--out", str(run), "--seed", "0"]) == 3
    assert capsys.readouterr().err == f"error: missing scan inputs: {sidecar}\n"


def test_a_scan_at_another_exposure_than_its_sidecar_exits_3(tmp_path, capsys):
    # a CSV scanned at exposure 1.0 beside the sidecar of an auto-exposed
    # scan: divided by the sidecar's exposure, it would be stacked ~1e10
    # times too faint; both commands reject it by the sidecar's total
    short = {"n_steps": 101, "s_start_m": -5e-3}
    configs = {
        "auto": [{"aperture_width_m": 4e-3, **short}, {"aperture_width_m": 5e-3, **short}],
        "unit": [{"aperture_width_m": 4e-3, **short, "exposure_s": 1.0}],
    }
    for name, scans in configs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"geometry": {}, "scans": scans}))
        argv = ["scan", "--config", str(path), "--out", str(tmp_path / name), "--no-noise"]
        assert main(argv) == 0
    run = tmp_path / "auto"
    shutil.copy(tmp_path / "unit" / "scan_a4mm.csv", run / "scan_a4mm.csv")
    capsys.readouterr()
    for cmd in ("reconstruct", "report"):
        argv = [cmd, "--config", str(tmp_path / "auto.json"), "--out", str(run), "--no-noise"]
        assert main(argv) == 3, cmd
        err = capsys.readouterr().err
        assert err.startswith(f"error: {run / 'scan_a4mm.json'}: 'total_flux_sum' is "), err
        assert err.count("\n") == 1, err
    assert not list(run.glob("reconstruction*"))


def test_explicit_csvs_need_every_sidecar_or_none(cli_run, tmp_path, capsys):
    # a CSV without a sidecar is taken at exposure 1.0; stacked with one at
    # its true exposure, the solve would mix the two scales
    for name in ("scan_a4mm.csv", "scan_a4mm.json", "scan_a5mm.csv"):
        shutil.copy(cli_run / name, tmp_path / name)
    csvs = [str(tmp_path / "scan_a4mm.csv"), str(tmp_path / "scan_a5mm.csv")]
    out = tmp_path / "o"
    argv = ["reconstruct", *csvs, "--widths-mm", "4,5", "--out", str(out)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert csvs[1] in err and csvs[0] not in err, err
    assert not list(out.glob("reconstruction*"))
    # without any sidecar every exposure is 1.0
    (tmp_path / "scan_a4mm.json").unlink()
    assert main(argv) == 0


def test_explicit_csvs_with_swapped_widths_exit_3(cli_run, tmp_path, capsys):
    # 5 mm is 50 steps, but the first CSV's sidecar records the 40 of 4 mm
    out = tmp_path / "o"
    before = _snapshot(cli_run)
    csvs = [str(cli_run / "scan_a4mm.csv"), str(cli_run / "scan_a5mm.csv")]
    assert main(["reconstruct", *csvs, "--widths-mm", "5,4", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cli_run / 'scan_a4mm.json'}: 'width_elems' is 40;"), err
    assert err.count("\n") == 1, err
    assert not list(out.glob("*")) and _snapshot(cli_run) == before


def test_h_scale_follows_the_geometry(tmp_path, capsys):
    assert load_config().h_scale == 0.58 / 0.25
    path = tmp_path / "near.json"
    path.write_text(json.dumps({"geometry": {"d_direct_m": 0.5}}))
    assert load_config(str(path)).h_scale == 0.58 / 0.5
    path.write_text(json.dumps({"geometry": {}, "metrics": {"h_scale_m_per_pix": 3e-5}}))
    assert main(["report", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert 'in config: "metrics"' in capsys.readouterr().err


def test_explicit_csvs_require_widths(cli_run, tmp_path):
    rc = main(
        ["reconstruct", str(cli_run / "scan_a4mm.csv"), "--out", str(tmp_path / "x")]
    )
    assert rc == 2


def test_widths_without_flux_csvs_exit_2(cli_run, tmp_path, capsys):
    # the configured scans take their widths from the config alone
    run = tmp_path / "run"
    shutil.copytree(cli_run, run)
    before = _snapshot(run)
    assert main(["reconstruct", "--widths-mm", "4,5", "--out", str(run), "--seed", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --widths-mm ") and err.count("\n") == 1, err
    assert _snapshot(run) == before


@pytest.mark.parametrize("reconstruction", ["deleted", "from-other-scans", "kept"])
def test_report_solves_v_from_the_configured_scans(cli_run, tmp_path, reconstruction):
    # report does not read reconstruction.csv: V and D come from one set of scans
    run = tmp_path / "run"
    shutil.copytree(cli_run, run)
    recon = run / "reconstruction.csv"
    if reconstruction == "deleted":
        recon.unlink()
    elif reconstruction == "from-other-scans":
        argv = ["reconstruct", str(run / "scan_a4mm.csv"), "--widths-mm", "4"]
        assert main([*argv, "--out", str(run), "--seed", "0"]) == 0
        assert recon.read_bytes() != (cli_run / "reconstruction.csv").read_bytes()
    assert main(["report", "--out", str(run), "--seed", "0"]) == 0
    for name in ("duality.json", "summary.txt"):
        assert (run / name).read_bytes() == (cli_run / name).read_bytes(), name
    cfg = load_config(seed=0)
    paths = [run / f"scan_a{w}mm" for w in (4, 5)]
    tables = [load_scan_csv(p.with_suffix(".csv")) for p in paths]
    exposures = [json.loads(p.with_suffix(".json").read_text())["exposure_s"] for p in paths]
    widths = [scan.aperture_width for scan in cfg.scans]
    solve = pipeline.reconstruct_tables(tables, widths, exposures)
    vis = visibility(pipeline.result_profile(solve), cfg.peak_selector)
    assert json.loads((run / "duality.json").read_text())["V"] == min(vis.value, 1.0)


def test_scan_profiles_writes_each_step_in_pixel_coordinates(tmp_path):
    path = tmp_path / "small.json"
    path.write_text(
        json.dumps(
            {
                "geometry": {},
                "source": {"grid_n": 2**16},
                "scans": [
                    {"aperture_width_m": 4e-3, "step_m": 1e-3, "n_steps": 7, "s_start_m": -3e-3}
                ],
            }
        )
    )
    out = tmp_path / "o"
    assert main(["scan", "--profiles", "--config", str(path), "--out", str(out)]) == 0
    cfg = load_config(str(path))
    (series,) = run_all_scans(cfg)
    files = sorted((out / "profiles_a4mm").iterdir())
    assert [f.name for f in files] == [f"step_{k:04d}.csv" for k in range(7)]
    det = cfg.detector
    centres = (np.arange(det.n_pixels) - det.center_index) * det.pixel_pitch
    for k, csv_path in enumerate(files):
        x, values = read_csv(csv_path, ("position_m", "value")).values()
        assert np.allclose(x, centres, rtol=1e-11, atol=0)
        assert np.allclose(values, series.profiles[k], rtol=1e-11, atol=0)


def test_scan_profiles_replaces_the_step_files_of_a_longer_run(tmp_path):
    def scan_profiles(n_steps, out):
        path = tmp_path / f"steps{n_steps}.json"
        start = -(n_steps // 2) * 1e-3
        scans = [{"aperture_width_m": 4e-3, "step_m": 1e-3, "n_steps": n_steps, "s_start_m": start}]
        path.write_text(json.dumps({"geometry": {}, "source": {"grid_n": 2**16}, "scans": scans}))
        argv = ["scan", "--profiles", "--config", str(path), "--out", str(out), "--no-noise"]
        assert main(argv) == 0
        return {p.name: p.read_bytes() for p in (out / "profiles_a4mm").iterdir()}

    scan_profiles(21, tmp_path / "rerun")
    again = scan_profiles(11, tmp_path / "rerun")
    assert sorted(again) == [f"step_{k:04d}.csv" for k in range(11)]
    assert again == scan_profiles(11, tmp_path / "fresh")


def test_scan_profiles_create_their_directories_under_a_fresh_nested_out(tmp_path):
    scans = [
        {"aperture_width_m": w, "step_m": 1e-3, "n_steps": 7, "s_start_m": -3e-3}
        for w in (4e-3, 5e-3)
    ]
    path = tmp_path / "small.json"
    path.write_text(json.dumps({"geometry": {}, "source": {"grid_n": 2**16}, "scans": scans}))
    out = tmp_path / "a" / "b"
    assert main(["scan", "--profiles", "--config", str(path), "--out", str(out)]) == 0
    steps = [f"step_{k:04d}.csv" for k in range(7)]
    for tag in ("a4mm", "a5mm"):
        assert sorted(p.name for p in (out / f"profiles_{tag}").iterdir()) == steps


def test_undersized_grid_exits_2(tmp_path, capsys):
    # the grid samples the slit mask: 1024 samples over +-40 mm put 78 um
    # between samples, about one per 89 um slit
    cfg = tmp_path / "small.json"
    cfg.write_text(json.dumps({"geometry": {}, "source": {"grid_n": 1024}}))
    assert main(["fringes", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "16 samples per slit width" in err and err.count("\n") == 1, err


def test_fringe_pixels_integrate_the_exact_near_field(cli_run, quiet_cfg, source):
    # each pixel is |fresnel_field|^2 at the direct-image plane integrated
    # over the pixel; adaptive quadrature of the same intensity agrees
    geom, det = quiet_cfg.geometry, quiet_cfg.detector
    steps = amplitude_steps(source)

    def intensity(u):
        return abs(fresnel_field(steps, geom.dist_slits_direct, geom.wavelength, u)) ** 2

    x, values = read_csv(cli_run / "fringes.csv", ("position_m", "value")).values()
    for k in (0, 300, 511, 512, 700, 1023):
        lo, hi = x[k] - det.pixel_pitch / 2, x[k] + det.pixel_pitch / 2
        expected, _ = quad(intensity, lo, hi, epsabs=0, epsrel=1e-13)
        assert values[k] == pytest.approx(expected, rel=1e-10, abs=0), k


def test_out_of_memory_exits_4(tmp_path, capsys):
    # 2^50 grid positions take 8 PiB, more than any address space holds,
    # so the allocation fails at once
    cfg = tmp_path / "huge.json"
    cfg.write_text(json.dumps({"geometry": {}, "source": {"grid_n": 2**50}}))
    assert main(["scan", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: ") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "key, value",
    [("exposure_s", 1e30), ("frames_per_step", 10**30), ("frames_per_step", 10**400)],
    ids=["exposure", "frames", "frames-beyond-float"],
)
def test_too_many_electrons_for_the_noise_model_exit_2(tmp_path, capsys, key, value):
    # numpy's Poisson draw refuses a mean beyond about 9.2e18, and 10^400
    # frames have no float value
    path = tmp_path / "bright.json"
    short = {"step_m": 1e-3, "n_steps": 4, "s_start_m": -2e-3}
    path.write_text(json.dumps(_with("scans", **short, **{key: value})))
    out = tmp_path / "o"
    assert main(["scan", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: scan a4mm: ") and err.count("\n") == 1, err
    for name in ("exposure_s", "gain_e_per_unit", "frames_per_step"):
        assert name in err, err
    assert not list(out.glob("scan_*.csv"))


# (config blocks beyond an empty geometry, scan flags, exit code, text of the
# one error line): numbers that overflow or drown the scan's light
NUMERIC_FAULTS = {
    "gain-underflow": ({"detector": {"gain_e_per_unit": 1e-300}}, [], 4, "no flux reaches the detector"),
    "gain-underflow-noiseless": (
        {"detector": {"gain_e_per_unit": 1e-300}}, ["--no-noise"], 4, "no flux reaches the detector"
    ),
    "far-lens": ({"geometry": {"l_slits_lens_m": 1e300}}, [], 4, "no flux reaches the detector"),
    "readout-overflow": (
        {"detector": {"readout_noise_e": 1e308}}, [], 2, "readout_noise_e 1e+308 and frames_per_step 4"
    ),
    "pixel-pitch-overflow": ({"detector": {"pixel_pitch_m": 1e300}}, [], 2, "sampling bound violated"),
    "readout-drowns-flux": (
        {"detector": {"readout_noise_e": 1e200}}, [], 4, "is not above its light floor 1.38795e+203,"
    ),
    "exposure-underflow": (
        {"scans": [{"aperture_width_m": 4e-3, "exposure_s": 1e-300}]}, [], 4,
        "total flux -954.022 is not above its light floor 8327.69,"
    ),
    # readout noise alone, whose sum here comes out positive
    "no-light": (
        {"scans": [{"aperture_width_m": 4e-3, "step_m": 1e-3, "n_steps": 4, "s_start_m": -2e-3,
                    "exposure_s": 1e-300}]},
        [], 4, "scan a4mm: total flux 23.4344 is not above its light floor 960,"
    ),
}


@pytest.mark.parametrize("case", NUMERIC_FAULTS)
def test_a_numeric_fault_in_the_scan_exits_with_one_error_line(tmp_path, capsys, case):
    blocks, flags, code, text = NUMERIC_FAULTS[case]
    path = tmp_path / "fault.json"
    path.write_text(json.dumps({"geometry": {}, **blocks}))
    out = tmp_path / "o"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["scan", "--config", str(path), "--out", str(out), "--seed", "0", *flags]) == code
    # no numeric warning; the far lens still warns of its lens-equation defect
    assert {str(w.message)[:20] for w in caught} == (
        {"lens-equation defect"} if case == "far-lens" else set()
    ), [str(w.message) for w in caught]
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and text in err, err
    assert not list(out.glob("scan_*"))


def _scan_config(tmp_path, *stage_ratios):
    """Short scans at 4, 5, ... mm; a stage ratio of 0.2 fails the sampling
    bound at step 3 (see test_scan_step_leaving_the_grid_names_the_first_such_step)."""
    scans = [
        {"aperture_width_m": (4 + i) * 1e-3, "step_m": 1e-3, "n_steps": 10, "s_start_m": 36e-3,
         "exposure_s": 1.0, "stage_ratio": ratio}
        for i, ratio in enumerate(stage_ratios)
    ]
    path = tmp_path / "scans.json"
    path.write_text(json.dumps({"geometry": {}, "scans": scans}))
    return path


def _scan_error(path, out, capsys, monkeypatch):
    """The one stderr line of a failing `whichway scan`, checked."""
    baseline, uncaught = threading.active_count(), []
    monkeypatch.setattr(threading, "excepthook", uncaught.append)  # would print a traceback
    assert main(["scan", "--config", str(path), "--out", str(out)]) == 2
    assert threading.active_count() == baseline
    assert uncaught == []
    err = capsys.readouterr().err
    assert err.startswith("error: scan step ") and err.count("\n") == 1, err
    assert not list(out.glob("scan_*.csv"))
    return err


def test_a_failing_second_scan_exits_2_as_on_one_cpu(tmp_path, capsys, monkeypatch):
    path = _scan_config(tmp_path, 1.07, 0.2)
    threaded = _scan_error(path, tmp_path / "threads", capsys, monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert _scan_error(path, tmp_path / "serial", capsys, monkeypatch) == threaded


def test_the_first_failing_scan_in_config_order_wins(tmp_path, capsys, monkeypatch):
    # both scans fail, with messages that tell them apart; the first scan
    # fails last, so config order, not timing, picks the error
    path = _scan_config(tmp_path, 0.2, 0.25)
    cfg = load_config(str(path))
    messages = []
    for scan in cfg.scans:
        with pytest.raises(ConfigurationError) as info:
            run_scan(pipeline.make_source(cfg), cfg.geometry, scan, cfg.detector)
        messages.append(f"error: {info.value}\n")
    assert messages[0] != messages[1]

    def first_fails_last(source, geom, scan, det, table=None):
        if scan == cfg.scans[0]:
            time.sleep(0.2)
        return run_scan(source, geom, scan, det, table)

    monkeypatch.setattr(pipeline, "run_scan", first_fails_last)
    assert _scan_error(path, tmp_path / "o", capsys, monkeypatch) == messages[0]


@pytest.mark.skipif(
    pipeline._usable_cpus() < 2 or not os.path.isdir("/proc/self/task"),
    reason="needs 2 usable CPUs and /proc",
)
@pytest.mark.parametrize("stage", ["scan", "fringes"])
def test_the_scan_and_fringes_stages_leave_the_blas_pool_idle(tmp_path, stage):
    # an OpenBLAS call above its threading threshold wakes the pool, whose
    # idle worker then spins on the second CPU: a one-scan stage that made
    # such calls used 1.6-2.0 CPU seconds a wall second, one without uses 1;
    # neither the scan nor the fringes stage makes one
    config = tmp_path / "one.json"
    config.write_text(json.dumps({"geometry": {}, "scans": [{"aperture_width_m": 4e-3}]}))
    # numpy starts the pool on import, and its worker spins for a while
    # then: the window opens once the other threads' CPU time (utime +
    # stime, fields 14-15 of their /proc stat) stops advancing over 0.1 s
    code = (
        "import os, resource, sys, threading, time\n"
        "from whichway.cli import main\n"
        "def others():\n"
        "    me, ticks = threading.get_native_id(), 0\n"
        "    for tid in os.listdir('/proc/self/task'):\n"
        "        if int(tid) != me:\n"
        "            with open(f'/proc/self/task/{tid}/stat') as fh:\n"
        "                fields = fh.read().rsplit(')', 1)[1].split()\n"
        "            ticks += int(fields[11]) + int(fields[12])\n"
        "    return ticks\n"
        "deadline, ticks = time.monotonic() + 5, others()\n"
        "while time.monotonic() < deadline:\n"
        "    time.sleep(0.1)\n"
        "    ticks, before = others(), ticks\n"
        "    if ticks == before:\n"
        "        break\n"
        "def cpu():\n"
        "    usage = resource.getrusage(resource.RUSAGE_SELF)\n"
        "    return usage.ru_utime + usage.ru_stime\n"
        "cpu0, wall0 = cpu(), time.perf_counter()\n"
        "assert main([sys.argv[3], '--no-noise', '--config', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
        "print((cpu() - cpu0) / (time.perf_counter() - wall0))"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", code, str(config), str(tmp_path / "run"), stage],
        env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "2"},
        capture_output=True,
        text=True,
        check=True,
    )
    assert float(run.stdout.splitlines()[-1]) < 1.4


def test_scan_records_do_not_depend_on_the_grid_span(quiet_cfg):
    # scans read only the slit edges from the grid: a +-5 mm grid of the
    # default pitch holds the same edges as the default +-40 mm grid, up to
    # the rounding of its origin (about 1e-17 m)
    geom, tilt = quiet_cfg.geometry, quiet_cfg.illumination_tilt
    scan = ScanConfig(aperture_width=4e-3, n_steps=31, s_start=-15e-3)
    default, narrow = (
        run_scan(
            double_slit_field(geom, GridSpec(grid_n, half_span), tilt), geom, scan, quiet_cfg.detector
        ).records
        for grid_n, half_span in ((2**17, 40e-3), (2**14, 5e-3))
    )
    for field in default.dtype.names:
        scale = np.abs(default[field]).max()
        assert np.abs(narrow[field] - default[field]).max() <= 1e-12 * scale, field


def test_parser_rejects_unknown_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])


def test_duality_report_artifact(cli_run):
    report = json.loads((cli_run / "duality.json").read_text())
    assert set(report) >= {"V", "D", "duality", "violated"}
    assert report["duality"] == pytest.approx(
        report["V"] ** 2 + report["D"] ** 2, rel=1e-12
    )


def test_seed_0_duality_values_are_pinned(cli_run):
    # a change to the forward model, the noise draw or the estimators moves
    # these on purpose
    report = json.loads((cli_run / "duality.json").read_text())
    assert report["V"] == pytest.approx(0.8366947171545788, rel=1e-9)
    assert report["D"] == pytest.approx(0.8945171050998821, rel=1e-9)
    assert report["duality"] == pytest.approx(1.5002189010306541, rel=1e-9)


def _rewrite_s_mm(src, dst, shift):
    """Copy a scan CSV, moving row i's s_mm by shift(i) millimetres."""
    lines = src.read_text().splitlines()
    rows = [lines[0]]
    for i, line in enumerate(lines[1:]):
        step, s_mm, *rest = line.split(",")
        rows.append(",".join([step, f"{float(s_mm) + shift(i):.9e}", *rest]))
    dst.write_text("\n".join(rows) + "\n")


@pytest.mark.parametrize(
    "shift, stacked, match",
    [
        (lambda i: 0.05, True, "same slit positions"),  # every position moved
        (lambda i: 0.03 * (i == 7), False, "uniform steps"),  # one position moved
    ],
    ids=["shifted", "non-uniform"],
)
def test_explicit_csvs_with_mismatched_slit_positions_exit_3(
    cli_run, tmp_path, capsys, shift, stacked, match
):
    moved = tmp_path / "scan_a5mm.csv"
    _rewrite_s_mm(cli_run / "scan_a5mm.csv", moved, shift)
    # stacked with a CSV that has its sidecar, the moved CSV needs one too
    shutil.copy(cli_run / "scan_a5mm.json", tmp_path / "scan_a5mm.json")
    csvs = [str(cli_run / "scan_a4mm.csv"), str(moved)] if stacked else [str(moved)]
    widths = "4,5" if stacked else "5"
    rc = main(["reconstruct", *csvs, "--widths-mm", widths, "--out", str(tmp_path / "o")])
    assert rc == 3
    assert match in capsys.readouterr().err


def test_explicit_csvs_take_the_step_from_the_data(cli_run, tmp_path):
    # the configured step (0.2 mm) disagrees with the 0.1 mm CSVs; the
    # CSVs win, so the default run's reconstruction comes back unchanged
    cfg = tmp_path / "coarse.json"
    cfg.write_text(
        json.dumps(
            {
                "geometry": {},
                "scans": [
                    {"aperture_width_m": 4e-3, "step_m": 2e-4},
                    {"aperture_width_m": 5e-3, "step_m": 2e-4},
                ],
            }
        )
    )
    out = tmp_path / "explicit"
    argv = [str(cli_run / "scan_a4mm.csv"), str(cli_run / "scan_a5mm.csv")]
    rc = main(["reconstruct", *argv, "--widths-mm", "4,5", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    assert (out / "reconstruction.csv").read_bytes() == (
        cli_run / "reconstruction.csv"
    ).read_bytes()
    for bad_widths in ("4.05,5", "4,x"):
        assert main(["reconstruct", *argv, "--widths-mm", bad_widths, "--out", str(out)]) == 2


def _with(block, **keys):
    """The smallest config, an empty geometry block, plus one block."""
    return {"geometry": {}, block: [{"aperture_width_m": 4e-3, **keys}] if block == "scans" else keys}


# (config, the block and key that its one error line must name)
MISTYPED = {
    "geometry": (_with("geometry", wavelength_m="abc"), "geometry.wavelength_m"),
    "scan-not-object": ({"geometry": {}, "scans": [5]}, "scans[0]"),
    "scan-field": (_with("scans", n_steps="x"), "scans[0].n_steps"),
    "detector-field": (_with("detector", n_pixels="x"), "detector.n_pixels"),
    "scan-fractional-steps": (_with("scans", n_steps=3.5), "scans[0].n_steps"),
    "scan-fractional-frames": (_with("scans", frames_per_step=2.5), "scans[0].frames_per_step"),
    "scan-opening": (_with("scans", opening="rightward"), 'in scans[0]: "opening"'),
    "scan-anchor": (_with("scans", anchor_elems=20), 'in scans[0]: "anchor_elems"'),
    "source-grid-span": (_with("source", grid_half_span_m=5e-3), 'in source: "grid_half_span_m"'),
    # the reconstruction and metrics blocks are gone: every key they held is a constant
    "reconstruction-cutoff": (_with("reconstruction", cutoff=1.0), 'in config: "reconstruction"'),
    "reconstruction-window": (_with("reconstruction", window_half_m=0.0), 'in config: "reconstruction"'),
    "geometry-infinity": (_with("geometry", wavelength_m=math.inf), "geometry.wavelength_m"),
    "source-nan": (_with("source", illumination_tilt=math.nan), "source.illumination_tilt"),
    "source-numeric-string": (_with("source", grid_n="65536"), "source.grid_n"),
    "detector-fractional-pixels": (_with("detector", n_pixels=1024.5), "detector.n_pixels"),
    "detector-string-bool": (_with("detector", noise_enabled="no"), "detector.noise_enabled"),
    "detector-rng-seed": (_with("detector", rng_seed=7), "rng_seed"),
    "reconstruction-numeric-string": (
        _with("reconstruction", smoothing_rms_m="1e-4"), 'in config: "reconstruction"'
    ),
    "metrics-fractional-guard": (_with("metrics", guard_px=20.7), 'in config: "metrics"'),
    "metrics-bool-guard": (_with("metrics", guard_px=True), 'in config: "metrics"'),
    "metrics-string-guard": (_with("metrics", guard_px="20"), 'in config: "metrics"'),
    "seed-fractional": ({"geometry": {}, "seed": 1.9}, "seed"),
    "seed-negative": ({"geometry": {}, "seed": -1}, "seed"),
}


_TILT = "source.illumination_tilt must lie in [-2, 2], got "

# (block, key, value, its one error line): a value in range for its type but
# not for its use.  A key that is a constant now sits in a block that is gone,
# so the block is an unknown key.  The slits' amplitudes are 1 -+ tilt/2, so a
# tilt beyond +-2 would flip one slit's phase.
OUT_OF_RANGE = {
    "metrics-negative-guard": ("metrics", "guard_px", -1, 'unknown key(s) in config: "metrics"'),
    "reconstruction-negative-smoothing": (
        "reconstruction", "smoothing_rms_m", -1e-4, 'unknown key(s) in config: "reconstruction"'
    ),
    "metrics-unknown-selector": (
        "metrics", "peak_selector", "brightest", 'unknown key(s) in config: "metrics"'
    ),
    "source-tilt-below": ("source", "illumination_tilt", -2.5, _TILT + "-2.5"),
    "source-tilt-above": ("source", "illumination_tilt", 2.5, _TILT + "2.5"),
    "source-tilt-overflow": ("source", "illumination_tilt", 1e300, _TILT + "1e+300"),
}


@pytest.mark.parametrize("case", OUT_OF_RANGE)
def test_out_of_range_config_values_exit_2_before_any_scan(tmp_path, capsys, case):
    block, key, value, line = OUT_OF_RANGE[case]
    config = _with("scans", step_m=1e-3, n_steps=4, s_start_m=-2e-3)
    config[block] = {key: value}
    path = tmp_path / "range.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "o"
    for command in ("fringes", "scan", "reconstruct", "report"):
        assert main([command, "--config", str(path), "--out", str(out)]) == 2, command
        err = capsys.readouterr().err
        assert err == f"error: {line}\n", (command, err)
        assert not out.exists(), command


@pytest.mark.parametrize("tilt", [-2.0, 2.0])
def test_a_tilt_of_two_darkens_one_slit_and_runs(tmp_path, tilt):
    # the which-way control: one slit's amplitude 1 -+ tilt/2 is zero
    path = tmp_path / "tilt.json"
    path.write_text(json.dumps({"geometry": {}, "source": {"illumination_tilt": tilt}}))
    out = tmp_path / "o"
    for command in ("fringes", "scan", "reconstruct", "report"):
        assert main([command, "--config", str(path), "--out", str(out), "--seed", "0"]) == 0, command


def _two_scans(**second):
    """Two short scans, the second with its keys replaced by second."""
    short = {"step_m": 1e-3, "n_steps": 10, "s_start_m": -5e-3}
    return {
        "geometry": {},
        "scans": [{"aperture_width_m": 4e-3, **short}, {"aperture_width_m": 5e-3, **short, **second}],
    }


# (config, the block and the field its one error line must name): a value
# in range for its type that its dataclass rejects
BLOCK_OUT_OF_RANGE = {
    "scan-width-between-steps": (_two_scans(aperture_width_m=4.05e-3), "scans[1]", "aperture width"),
    "scan-width-below-a-step": (_two_scans(aperture_width_m=1e-11), "scans[1]", "aperture width"),
    "scan-no-steps": (_two_scans(n_steps=0), "scans[1]", "n_steps"),
    "scan-center-midline": (_two_scans(midline="center"), "scans[1]", "midline"),
    "detector-few-pixels": ({**_two_scans(), "detector": {"n_pixels": 10}}, "detector", "n_pixels"),
    "geometry-negative-wavelength": (
        {**_two_scans(), "geometry": {"wavelength_m": -1e-7}}, "geometry", "wavelength"
    ),
    "source-one-sample": ({**_two_scans(), "source": {"grid_n": 1}}, "source", "grid"),
}


@pytest.mark.parametrize("case", BLOCK_OUT_OF_RANGE)
def test_dataclass_range_errors_name_their_block(tmp_path, capsys, case):
    config, block, field = BLOCK_OUT_OF_RANGE[case]
    path = tmp_path / "range.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "o"
    assert main(["scan", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {block}: ") and err.count("\n") == 1 and field in err, err
    assert not list(out.glob("scan_*"))


# (second scan's keys, words its one error line must hold): scans that
# cannot be stacked into one solve
UNSTACKABLE = {
    "same-tag": ({"aperture_width_m": 4e-3}, "scan_a4mm"),
    "other-step": ({"step_m": 5e-4}, "step_m"),
    "other-start": ({"s_start_m": -4e-3}, "s_start_m"),
    "other-count": ({"n_steps": 11}, "n_steps"),
}


@pytest.mark.parametrize("case", UNSTACKABLE)
def test_scans_that_cannot_be_stacked_exit_2_before_any_scan(tmp_path, capsys, case):
    second, words = UNSTACKABLE[case]
    path = tmp_path / "stack.json"
    path.write_text(json.dumps(_two_scans(**second)))
    out = tmp_path / "o"
    assert main(["scan", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: scans[1]: ") and err.count("\n") == 1 and words in err, err
    assert not out.exists()


@pytest.mark.parametrize("command", ["fringes", "scan", "reconstruct", "report"])
def test_an_aperture_wider_than_its_scan_exits_2_before_writing(tmp_path, capsys, command):
    # the stacked solve takes a width of at most n_steps steps, so a config
    # whose 5 mm aperture spans 50 steps of a 45-step scan stops every command
    scans = [{"aperture_width_m": w, "n_steps": 45, "s_start_m": -2e-3} for w in (4e-3, 5e-3)]
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"geometry": {}, "scans": scans}))
    out = tmp_path / "o"
    assert main([command, "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: scans[1]: the aperture spans 50 steps, more than n_steps = 45\n", err
    assert not out.exists()
    # an aperture as wide as the scan is taken
    path.write_text(json.dumps({"geometry": {}, "scans": [{**scans[1], "n_steps": 50}]}))
    assert load_config(str(path)).scans[0].width_elems() == 50


@pytest.mark.parametrize("command", ["fringes", "scan", "reconstruct", "report"])
def test_a_scan_shorter_than_the_smoothing_kernel_exits_2_before_writing(
    tmp_path, capsys, command
):
    # the 0.15 mm smoothing reaches 5 sigma, 7.5 steps of 0.1 mm rounded up
    # to 8, to each side of its centre: 17 steps, more than a 15-step scan holds
    scans = [{"aperture_width_m": w, "n_steps": 15, "s_start_m": -7e-4} for w in (1e-3, 1.2e-3)]
    path = tmp_path / "short.json"
    path.write_text(json.dumps({"geometry": {}, "scans": scans}))
    out = tmp_path / "o"
    assert main([command, "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: scans[0]: the smoothing kernel spans 17 steps, more than n_steps = 15\n"
    assert not out.exists()
    # a scan as long as the kernel is taken
    path.write_text(json.dumps({"geometry": {}, "scans": [{**s, "n_steps": 17} for s in scans]}))
    assert load_config(str(path)).scans[0].n_steps == 17


@pytest.mark.parametrize("case", MISTYPED)
def test_mistyped_config_values_exit_2(tmp_path, capsys, case):
    config, name = MISTYPED[case]
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(config))
    # report stops at its missing inputs (exit 3) once the config is accepted
    assert main(["report", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and name in err, err
    assert not (tmp_path / "o").exists()


def test_config_hash_covers_the_overrides(tmp_path):
    noisy = load_config()
    assert noisy.config_hash().startswith("e798dfab460c")
    # fixed analysis settings, not config keys, so not hashed
    assert (noisy.recon_cutoff, noisy.window_half, noisy.grid.half_span) == (1e-10, 5e-3, 40e-3)
    assert (noisy.smoothing_rms, noisy.peak_selector) == (0.15e-3, "second_third")
    assert not hasattr(noisy, "guard_px")  # instrument.GUARD_PX is its one owner
    assert load_config(seed=0).config_hash() == noisy.config_hash()
    assert load_config(no_noise=True).config_hash() != noisy.config_hash()
    assert load_config(seed=3).detector.rng_seed == 3
    # an integer is accepted for a float key and hashed as that float
    path = tmp_path / "cfg.json"
    hashes = []
    for value in (1, 1.0):
        path.write_text(json.dumps({"geometry": {"l_slits_lens_m": value}}))
        cfg = load_config(str(path))
        assert type(cfg.geometry.dist_slits_lens) is float
        hashes.append(cfg.config_hash())
    assert hashes[0] == hashes[1]
