"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line."""
import json
import math
import time

import numpy as np
from scipy.signal import find_peaks

import whichway as ww
from whichway import pipeline
from whichway.optics import amplitude_steps, fresnel_field


def _width_at_half_max(x: np.ndarray, y: np.ndarray) -> float:
    """Full width at half maximum with linear interpolation at the crossings."""
    y = np.asarray(y, dtype=float)
    half = y.max() / 2
    above = y >= half
    if not above.any():
        return 0.0
    first = int(np.argmax(above))
    last = len(y) - 1 - int(np.argmax(above[::-1]))
    left = x[first]
    if first > 0:
        left = np.interp(half, [y[first - 1], y[first]], [x[first - 1], x[first]])
    right = x[last]
    if last < len(y) - 1:
        right = np.interp(half, [y[last + 1], y[last]], [x[last + 1], x[last]])
    return float(right - left)


def _report(capsys, ok: bool, label: str, detail: str) -> None:
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


def test_criterion_1_rank_structure(capsys):
    t0 = time.perf_counter()
    dims40 = set(ww.full_rank_dims(40, 301))
    dims50 = set(ww.full_rank_dims(50, 301))
    elapsed = time.perf_counter() - t0
    expected40 = {40, 41, 80, 81, 120, 121, 160, 161, 200, 201, 240, 241, 280, 281}
    expected50 = {50, 51, 100, 101, 150, 151, 200, 201, 250, 251, 300, 301}
    ok = dims40 == expected40 and dims50 == expected50 and elapsed < 60
    _report(
        capsys,
        ok,
        "criterion 1 (rank structure)",
        f"w=40 and w=50 full-rank dimension sets exact, {elapsed:.1f} s",
    )


def test_criterion_2_noiseless_roundtrip(capsys, scan_grid, pattern_truth):
    n = scan_grid.size
    mats = [ww.build_aperture_matrix(n, w) for w in (40, 50)]
    fluxes = [m @ pattern_truth for m in mats]
    # the fastest of 5 identical solves, so that other load on the host
    # does not count against the bound
    elapsed = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        res = ww.solve_stacked(mats, fluxes, grid=scan_grid)
        elapsed = min(elapsed, time.perf_counter() - t0)
    rel_rms = float(
        np.sqrt(np.mean((res.p_hat - pattern_truth) ** 2))
        / np.sqrt(np.mean(pattern_truth**2))
    )
    ok = rel_rms < 1e-6 and elapsed < 1.0
    _report(
        capsys,
        ok,
        "criterion 2 (noiseless round-trip)",
        f"relative RMS {rel_rms:.2e} (< 1e-6), fastest of 5 solves {elapsed * 1e3:.0f} ms",
    )


def test_criterion_3_end_to_end_physics(
    capsys, quiet_cfg, quiet_series, scan_grid, pattern_truth
):
    t0 = time.perf_counter()
    recon = pipeline.reconstruct_series(quiet_cfg, quiet_series)
    elapsed = time.perf_counter() - t0
    truth = ww.ReconstructionResult(scan_grid, pattern_truth, 0.0, scan_grid.size, 0.0)
    truth = ww.gaussian_smooth(truth, quiet_cfg.smoothing_rms)
    rec_prof = pipeline.result_profile(recon)
    truth_prof = ww.IntensityProfile(
        float(scan_grid[0]),
        float(scan_grid[1] - scan_grid[0]),
        np.clip(truth.p_hat, 0.0, None),
    )
    match = ww.match_profiles(rec_prof, truth_prof, h_scale=1.0, half_window=5e-3)
    ok = match.rms_residual < 0.05 and elapsed < 60
    _report(
        capsys,
        ok,
        "criterion 3 (end-to-end physics)",
        f"central +-5 mm normalized RMS {match.rms_residual:.4f} (< 0.05), "
        f"shift {match.shift * 1e3:+.3f} mm, reconstruction {elapsed:.1f} s",
    )


def test_criterion_4_geometry_constants(capsys, quiet_series):
    w_scale = ww.fringe_scale(ww.Geometry())
    scale_ok = abs(w_scale - 1.520e-3) / 1.520e-3 < 1e-3

    # slit-image separation from the central step of the 4 mm scan
    series4 = quiet_series[0]
    central = series4.profiles[np.argmin(np.abs(series4.records.slit_position))]
    peaks, _ = find_peaks(central, prominence=0.1 * central.max())
    separation = int(np.ptp(peaks)) if peaks.size >= 2 else 0
    sep_ok = peaks.size == 2 and 19 <= separation <= 21

    widths = []
    for series in quiet_series:
        offsets, flux = ww.flux_vector(series.table())
        widths.append(_width_at_half_max(offsets, flux))
    width_diff = widths[1] - widths[0]
    diff_ok = 0.8e-3 <= width_diff <= 1.2e-3

    ok = scale_ok and sep_ok and diff_ok
    _report(
        capsys,
        ok,
        "criterion 4 (geometry constants)",
        f"fringe scale {w_scale * 1e3:.4f} mm (1.520 +- 0.1%), "
        f"slit-image separation {separation} px (20 +- 1), "
        f"flux-curve width difference {width_diff * 1e3:.2f} mm (1.0 +- 0.2)",
    )


def test_criterion_5_duality_reproduction(capsys, cli_run):
    report = json.loads((cli_run / "duality.json").read_text())
    v, d, duality = report["V"], report["D"], report["duality"]
    ok = d >= 0.85 and v >= 0.6 and duality > 1.0 and report["violated"]
    _report(
        capsys,
        ok,
        "criterion 5 (duality reproduction)",
        f"noisy pipeline reports V={v:.3f} (>= 0.6), D={d:.3f} (>= 0.85), "
        f"V^2+D^2={duality:.3f} (> 1)",
    )


def test_criterion_6_metric_identities(capsys):
    d = ww.distinguishability(0.95)
    d_ok = math.isclose(d, 0.90, rel_tol=0.0, abs_tol=1e-15)  # exact to one ulp

    duality = ww.duality_check(0.69, 0.90).duality
    q_ok = abs(duality - 1.2861) < 1e-4

    rng = np.random.default_rng(20240817)
    inv_ok = True
    for _ in range(100):
        n = int(rng.integers(500, 800))
        period = float(rng.uniform(20, 80))
        contrast = float(rng.uniform(0.15, 0.95))
        phase = float(rng.uniform(0, 2 * np.pi))
        x = np.arange(n)
        values = 1.0 + contrast * np.cos(2 * np.pi * x / period + phase)
        base = ww.IntensityProfile(0.0, 1.0, values)
        moved = ww.IntensityProfile(
            float(rng.uniform(-1e3, 1e3)),
            1.0,
            float(rng.uniform(1e-3, 1e3)) * values,
        )
        selector = "central" if rng.integers(2) else "second_third"
        v0 = ww.visibility(base, selector).value
        v1 = ww.visibility(moved, selector).value
        if not np.isclose(v0, v1, rtol=1e-9, atol=1e-12):
            inv_ok = False
            break

    ok = d_ok and q_ok and inv_ok
    _report(
        capsys,
        ok,
        "criterion 6 (metric identities)",
        f"D(0.95)={d!r} (0.90 exact), V^2+D^2(0.69,0.90)={duality:.4f} "
        f"(1.2861 +- 1e-4), visibility invariance on 100 random profiles",
    )


def test_criterion_7_width_sensitivity(capsys, scan_grid, pattern_truth):
    n = scan_grid.size
    a40 = ww.build_aperture_matrix(n, 40)
    a50 = ww.build_aperture_matrix(n, 50)
    fluxes = [a40 @ pattern_truth, a50 @ pattern_truth]
    central = np.abs(scan_grid) <= 5e-3

    def central_rms(width):
        mats = [ww.build_aperture_matrix(n, width), a50]
        res = ww.solve_stacked(mats, fluxes, grid=scan_grid)
        err = res.p_hat[central] - pattern_truth[central]
        return float(np.sqrt(np.mean(err**2)) / np.sqrt(np.mean(pattern_truth[central] ** 2)))

    base = central_rms(40)
    ratios = {w: central_rms(w) / base for w in (39, 41)}
    ok = all(r >= 5.0 for r in ratios.values())
    _report(
        capsys,
        ok,
        "criterion 7 (width sensitivity)",
        f"central-RMS degradation w=39: {ratios[39]:.2e}x, "
        f"w=41: {ratios[41]:.2e}x (both >= 5x)",
    )


def test_criterion_8_oracle_equivalence(capsys, quiet_cfg, source):
    geom = quiet_cfg.geometry
    # the Fresnel-integral pupil at the lens on a 1 um pitch over +-10 mm
    x = 1e-6 * np.arange(-10000, 10001)
    field = fresnel_field(amplitude_steps(source), geom.dist_slits_lens, geom.wavelength, x)
    numeric = np.abs(field) ** 2
    numeric = numeric / numeric.max()
    analytic = ww.fraunhofer_intensity(geom, geom.dist_slits_lens, x)
    rms = float(np.sqrt(np.mean((numeric - analytic) ** 2)))
    ok = rms < 0.01
    _report(
        capsys,
        ok,
        "criterion 8 (oracle equivalence)",
        f"Fresnel-integral pupil vs analytic far-field RMS {rms:.4f} (< 0.01) over +-10 mm",
    )
