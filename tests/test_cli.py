import json
import math
import shutil

import numpy as np
import pytest
from scipy.integrate import quad

from whichway.artifacts import read_csv
from whichway.cli import build_parser, main
from whichway.config import load_config
from whichway.optics import amplitude_steps, fresnel_field
from whichway.pipeline import run_all_scans

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
    assert set(manifest["stages"]) == {"fringes", "scan", "reconstruct", "report"}
    for stage in manifest["stages"].values():
        assert stage["files"]
        assert stage["seconds"] >= 0


def test_scan_sidecar_contents(cli_run):
    sidecar = json.loads((cli_run / "scan_a4mm.json").read_text())
    assert sidecar["width_elems"] == 40
    assert sidecar["exposure_s"] > 0
    assert 0.0 <= sidecar["contamination"] <= 1.0
    assert sidecar["noise_enabled"] is True


def test_rerun_is_byte_identical(cli_run, tmp_path):
    out = tmp_path / "again"
    for cmd in ("fringes", "scan", "reconstruct", "report"):
        assert main([cmd, "--out", str(out), "--seed", "0"]) == 0
    # everything except the manifest (which records wall-clock timings)
    for name in EXPECTED_ARTIFACTS:
        if name == "run_manifest.json":
            continue
        assert (out / name).read_bytes() == (cli_run / name).read_bytes(), name


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
    assert main(["rank", "-w", "0", "--n-max", "0"]) == 2
    assert capsys.readouterr().err == "error: width_elems must be >= 1; got 0\n"


def test_config_without_geometry_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"seed": 1}')
    assert main(["scan", "--config", str(bad)]) == 2
    assert "geometry" in capsys.readouterr().err


def test_invalid_json_config_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["scan", "--config", str(bad)]) == 2


def test_missing_config_file_exits_3(tmp_path):
    assert main(["scan", "--config", str(tmp_path / "nope.json")]) == 3


def test_report_with_missing_inputs_exits_3(tmp_path, capsys):
    assert main(["report", "--out", str(tmp_path / "empty")]) == 3
    assert "missing report inputs" in capsys.readouterr().err


def _replace_cell(text, line, column, cell):
    lines = text.splitlines()
    cells = lines[line].split(",")
    cells[column] = cell
    lines[line] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _shift_cell(text, line, column, delta):
    cell = float(text.splitlines()[line].split(",")[column])
    return _replace_cell(text, line, column, f"{cell + delta:.9e}")


def _swap_cells(text, line_a, line_b, column):
    lines = text.splitlines()
    a, b = lines[line_a].split(","), lines[line_b].split(",")
    a[column], b[column] = b[column], a[column]
    lines[line_a], lines[line_b] = ",".join(a), ",".join(b)
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
# exit 3 (the default), and leave every file of the run as it was
CORRUPTIONS = {
    "recon-one-row": (
        "reconstruction.csv",
        lambda t: "\n".join(t.splitlines()[:2]) + "\n",
        ["report"],
    ),
    "recon-header": (
        "reconstruction.csv",
        lambda t: t.replace("position_mm", "x_mm", 1),
        ["report"],
    ),
    "fringes-header": (
        "fringes.csv",
        lambda t: t.replace("position_m", "x_m", 1),
        ["report"],
    ),
    "recon-non-numeric": (
        "reconstruction.csv",
        lambda t: _replace_cell(t, 150, 1, "abc"),
        ["report"],
    ),
    "recon-swapped-positions": (
        "reconstruction.csv",
        lambda t: _swap_cells(t, 1, 2, 0),
        ["report"],
    ),
    "recon-non-uniform": (
        "reconstruction.csv",
        lambda t: _shift_cell(t, 150, 0, 0.03),
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
        "scan_a4mm.csv",
        # F stays left + right, which the CSV reader checks
        lambda t: _replace_cell(
            _replace_cell(_replace_cell(t, 100, 2, "1e300"), 100, 3, "1e300"), 100, 4, "0"
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
    "sidecar-subnormal-exposure": (
        "scan_a4mm.json",
        _edit_json(lambda d: d.update(exposure_s=1e-310)),
        ["report", "reconstruct"],
        4,
    ),
}


def _snapshot(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir() if p.is_file()}


@pytest.mark.parametrize("case", CORRUPTIONS)
def test_corrupted_artifacts_exit_3(cli_run, tmp_path, capsys, case):
    name, corrupt, commands, *code = CORRUPTIONS[case]
    code = code[0] if code else 3
    run = tmp_path / "run"
    shutil.copytree(cli_run, run)
    path = run / name
    path.write_text(corrupt(path.read_text()))
    before = _snapshot(run)
    for cmd in commands:
        assert main([cmd, "--out", str(run), "--seed", "0"]) == code, cmd
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: " if code == 3 else "error: "), err
        assert err.count("\n") == 1, err
        assert _snapshot(run) == before, cmd


def test_configured_reconstruct_requires_the_sidecars(cli_run, tmp_path, capsys):
    run = tmp_path / "run"
    shutil.copytree(cli_run, run)
    sidecar = run / "scan_a4mm.json"
    sidecar.unlink()
    assert main(["reconstruct", "--out", str(run), "--seed", "0"]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {sidecar}: ") and err.count("\n") == 1, err


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


def test_h_scale_follows_the_geometry(tmp_path, capsys):
    assert load_config().h_scale == 13e-6 * 0.58 / 0.25
    path = tmp_path / "near.json"
    path.write_text(json.dumps({"geometry": {"d_direct_m": 0.5}}))
    assert load_config(str(path)).h_scale == 13e-6 * 0.58 / 0.5
    path.write_text(json.dumps({"geometry": {}, "metrics": {"h_scale_m_per_pix": 3e-5}}))
    assert main(["report", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "h_scale_m_per_pix" in capsys.readouterr().err


def test_explicit_csvs_require_widths(cli_run, tmp_path):
    rc = main(
        ["reconstruct", str(cli_run / "scan_a4mm.csv"), "--out", str(tmp_path / "x")]
    )
    assert rc == 2


def test_scan_profiles_writes_each_step_in_pixel_coordinates(tmp_path):
    path = tmp_path / "small.json"
    path.write_text(
        json.dumps(
            {
                "geometry": {},
                "source": {"grid_n": 2**16},
                "scans": [{"aperture_width_m": 4e-3, "n_steps": 7, "s_start_m": -3e-4}],
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
    path.write_text(json.dumps(_with("scans", n_steps=3, s_start_m=-1e-4, **{key: value})))
    out = tmp_path / "o"
    assert main(["scan", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: scan a4mm: ") and err.count("\n") == 1, err
    for name in ("exposure_s", "gain_e_per_unit", "frames_per_step"):
        assert name in err, err
    assert not list(out.glob("scan_*.csv"))


def test_scan_records_do_not_depend_on_the_grid_span(tmp_path):
    # scans read only the slit edges from the grid: a +-5 mm grid of the
    # default pitch holds the same edges as the default +-40 mm grid, up to
    # the rounding of its origin (about 1e-17 m)
    records = []
    for grid_n, half_span in ((2**17, 40e-3), (2**14, 5e-3)):
        path = tmp_path / f"grid{grid_n}.json"
        path.write_text(
            json.dumps(
                {
                    "geometry": {},
                    "source": {"grid_n": grid_n, "grid_half_span_m": half_span},
                    "scans": [{"aperture_width_m": 4e-3, "n_steps": 31, "s_start_m": -15e-3}],
                }
            )
        )
        (series,) = run_all_scans(load_config(str(path), no_noise=True))
        records.append(series.records)
    default, narrow = records
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
    "scan-fractional-anchor": (_with("scans", anchor_elems=20.5), "scans[0].anchor_elems"),
    "geometry-infinity": (_with("geometry", wavelength_m=math.inf), "geometry.wavelength_m"),
    "source-nan": (_with("source", illumination_tilt=math.nan), "source.illumination_tilt"),
    "source-numeric-string": (_with("source", grid_n="65536"), "source.grid_n"),
    "detector-fractional-pixels": (_with("detector", n_pixels=1024.5), "detector.n_pixels"),
    "detector-string-bool": (_with("detector", noise_enabled="no"), "detector.noise_enabled"),
    "detector-rng-seed": (_with("detector", rng_seed=7), "rng_seed"),
    "reconstruction-numeric-string": (_with("reconstruction", cutoff="1e-9"), "reconstruction.cutoff"),
    "metrics-fractional-guard": (_with("metrics", guard_px=20.7), "metrics.guard_px"),
    "metrics-bool-guard": (_with("metrics", guard_px=True), "metrics.guard_px"),
    "metrics-string-guard": (_with("metrics", guard_px="20"), "metrics.guard_px"),
    "seed-fractional": ({"geometry": {}, "seed": 1.9}, "seed"),
    "seed-negative": ({"geometry": {}, "seed": -1}, "seed"),
}


# (block, key, value) in range for its type but not for its use
OUT_OF_RANGE = {
    "metrics-negative-guard": ("metrics", "guard_px", -1),
    "reconstruction-cutoff-one": ("reconstruction", "cutoff", 1.0),
    "reconstruction-negative-smoothing": ("reconstruction", "smoothing_rms_m", -1e-4),
    "reconstruction-zero-window": ("reconstruction", "window_half_m", 0.0),
    "metrics-unknown-selector": ("metrics", "peak_selector", "brightest"),
}


@pytest.mark.parametrize("case", OUT_OF_RANGE)
def test_out_of_range_config_values_exit_2_before_any_scan(tmp_path, capsys, case):
    block, key, value = OUT_OF_RANGE[case]
    config = _with("scans", n_steps=3, s_start_m=-1e-4)
    config[block] = {key: value}
    path = tmp_path / "range.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "o"
    assert main(["scan", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and f"{block}.{key}" in err, err
    assert not list(out.glob("scan_*"))


def _two_scans(**second):
    """Two short scans, the second with its keys replaced by second."""
    short = {"n_steps": 3, "s_start_m": -1e-4}
    return {
        "geometry": {},
        "scans": [{"aperture_width_m": 4e-3, **short}, {"aperture_width_m": 5e-3, **short, **second}],
    }


# (config, the block and the field its one error line must name): a value
# in range for its type that its dataclass rejects
BLOCK_OUT_OF_RANGE = {
    "scan-negative-anchor": (_two_scans(anchor_elems=-5), "scans[1]", "anchor_elems"),
    "scan-width-between-steps": (_two_scans(aperture_width_m=4.05e-3), "scans[1]", "aperture width"),
    "scan-width-below-a-step": (_two_scans(aperture_width_m=1e-11), "scans[1]", "aperture width"),
    "scan-no-steps": (_two_scans(n_steps=0), "scans[1]", "n_steps"),
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
    "other-step": ({"step_m": 2e-4}, "step_m"),
    "other-start": ({"s_start_m": -2e-4}, "s_start_m"),
    "other-count": ({"n_steps": 5}, "n_steps"),
    "other-opening": ({"opening": "centered"}, "opening"),
    "other-anchor": ({"anchor_elems": 10}, "anchor_elems"),
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


@pytest.mark.parametrize("case", MISTYPED)
def test_mistyped_config_values_exit_2(tmp_path, capsys, case):
    config, name = MISTYPED[case]
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(config))
    # report stops at its missing inputs (exit 3) once the config is accepted
    assert main(["report", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and name in err, err


def test_config_hash_covers_the_overrides(tmp_path):
    noisy = load_config()
    assert noisy.config_hash().startswith("75c9edb7b8d1")
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
