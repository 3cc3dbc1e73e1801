import math
import os
import threading
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
import scipy.fft

import whichway as ww
from whichway import instrument, pipeline
from whichway.artifacts import write_csv
from whichway.config import load_config
from whichway.instrument import (
    AUTO_EXPOSURE_FRACTION,
    FULL_WELL,
    GUARD_PX,
    _bin_intensity,
    _next_fast_len,
    ordered_sum,
)
from whichway.optics import GridSpec, SampledField, amplitude_steps, double_slit_field, fresnel_field


def _power(field):
    """Total power of a grid field, sum |a|^2 * pitch."""
    return float(np.sum(np.abs(field.amplitudes) ** 2) * field.pitch)


def _flat_field(n=2048, half=2e-3):
    grid = GridSpec(n, half)
    return SampledField(grid.origin, grid.pitch, np.ones(n))


class TestApplyAperture:
    WIDTH = 0.7345e-3  # deliberately not a multiple of the pitch

    # the interval lies right of, left of, or centred on 0.11 mm
    @pytest.mark.parametrize(
        "left_edge",
        [0.11e-3, 0.11e-3 - WIDTH, 0.11e-3 - WIDTH / 2],
        ids=["rightward", "leftward", "centered"],
    )
    def test_transmitted_power_equals_window_width(self, left_edge):
        out = instrument.apply_aperture(_flat_field(), left_edge, self.WIDTH)
        assert _power(out) == pytest.approx(self.WIDTH, rel=1e-12)

    def test_rightward_fixes_the_left_edge(self):
        field = _flat_field()
        out = instrument.apply_aperture(field, 0.5e-3, 1e-3)
        x = out.positions[np.abs(out.amplitudes) > 0.5]
        assert x.min() > 0.5e-3 - out.pitch
        assert x.max() < 1.5e-3 + out.pitch

    def test_outside_grid_warns_and_zeroes(self):
        field = _flat_field()
        with pytest.warns(UserWarning, match="outside"):
            out = instrument.apply_aperture(field, 1.0, 1e-3)
        assert _power(out) == 0.0


class TestBinIntensity:
    def test_conserves_the_integral(self):
        rng = np.random.default_rng(3)
        intensity = rng.random(500)
        pitch = 1e-5
        origin = -250 * pitch + pitch / 2
        edges = np.linspace(origin - pitch / 2, origin - pitch / 2 + 500 * pitch, 11)
        binned = _bin_intensity(intensity, origin, pitch, edges)
        assert binned.sum() == pytest.approx(intensity.sum() * pitch, rel=1e-12)

    def test_uncovered_bins_raise(self):
        with pytest.raises(ww.ConfigurationError, match="not covered"):
            _bin_intensity(np.ones(10), 0.0, 1e-6, np.array([-1.0, 1.0]))


class TestScanConfig:
    def test_width_elems(self):
        assert ww.ScanConfig(aperture_width=4e-3).width_elems() == 40
        assert ww.ScanConfig(aperture_width=5e-3).width_elems() == 50
        with pytest.raises(ww.ConfigurationError):
            ww.ScanConfig(aperture_width=4.05e-3).width_elems()

    def test_aperture_left_edge_anchors_at_the_reference_half_width(self):
        scan = ww.ScanConfig(aperture_width=4e-3)
        assert scan.aperture_left_edge() == pytest.approx(-1.95e-3)
        # wider apertures keep the same fixed edge
        scan5 = ww.ScanConfig(aperture_width=5e-3)
        assert scan5.aperture_left_edge() == pytest.approx(-1.95e-3)

    def test_validation(self):
        for midline in ("median", "center"):  # the centroid is the one rule
            with pytest.raises(ww.ConfigurationError, match="midline must be 'centroid'"):
                ww.ScanConfig(aperture_width=4e-3, midline=midline)
        with pytest.raises(ww.ConfigurationError):
            ww.ScanConfig(aperture_width=-1e-3)


def test_detector_validation():
    with pytest.raises(ww.ConfigurationError):
        ww.DetectorConfig(n_pixels=16)
    with pytest.raises(ww.ConfigurationError):
        ww.DetectorConfig(gain=0.0)
    assert ww.DetectorConfig(n_pixels=1024).center_index == 511.5


def test_split_signals():
    values = np.array([1.0, 2.0, 3.0, 4.0])
    left, right = ww.split_signals(values, 2.0)
    assert left == 3.0 and right == 7.0
    assert left + right == values.sum()
    left, right = ww.split_signals(values, 2.5)
    assert left == 6.0 and right == 4.0
    with pytest.raises(ww.ConfigurationError):
        ww.split_signals(values, 10.0)


# The direct-quadrature oracle of a scan step.  Nothing is periodic and no
# FFT is used.  The aperture is cut into 10 um panels of 5 Gauss-Legendre
# nodes each (mean node spacing 2 um, finer than the engine's cells of at
# most 10 um), which end exactly at the aperture edges.  The pupil at each node
# is the Fresnel-integral field, itself checked against quadrature of the
# Fresnel kernel in test_optics.  Each pixel integrates |V|^2 over 8
# Gauss-Legendre points.
ORACLE_PANEL = 10e-6
ORACLE_PANEL_NODES = 5
ORACLE_PIXEL_NODES = 8
# the scan engine must match the oracle to these fractions of each step's
# peak pixel and of its flux (on the 2^16-2^18 sources at 2-8 mm it reads at
# most 5.1e-6 and 3.7e-5)
ORACLE_PEAK_TOL = 1e-5
ORACLE_FLUX_TOL = 1e-4


def _oracle_profiles(geom, scan, det, steps):
    """Noiseless unit-exposure pixel values, one row per (source, s) in steps."""
    lam, l_c = geom.wavelength, geom.dist_lens_detector
    k = 2 * np.pi / (lam * l_c)
    nodes, weights = np.polynomial.legendre.leggauss(ORACLE_PANEL_NODES)
    n_panels = round(scan.aperture_width / ORACLE_PANEL)
    starts = scan.aperture_left_edge() + ORACLE_PANEL * np.arange(n_panels)
    u = (starts[:, np.newaxis] + ORACLE_PANEL / 2 * (nodes + 1)).ravel()
    # thin lens, L_C chirp, quadrature weight and the kernel's 1/sqrt(lambda L_C)
    base = np.exp(1j * np.pi * u**2 * (1 / l_c - 1 / geom.focal_length) / lam)
    base *= np.tile(ORACLE_PANEL / 2 * weights, n_panels) / np.sqrt(lam * l_c)
    centres = (np.arange(det.n_pixels) - det.center_index) * det.pixel_pitch
    nodes, weights = np.polynomial.legendre.leggauss(ORACLE_PIXEL_NODES)
    in_pixel = det.pixel_pitch / 2 * nodes
    columns = []
    for source, s in steps:
        # the camera point x = -stage_ratio s + centre + in_pixel
        g = fresnel_field(amplitude_steps(source), geom.dist_slits_lens, lam, u - s) * base
        g *= np.exp(1j * k * scan.stage_ratio * s * u)
        columns.append(g[:, np.newaxis] * np.exp(-1j * k * np.outer(u, in_pixel)))
    g = np.concatenate(columns, axis=1)
    field = np.zeros((det.n_pixels, g.shape[1]), complex)
    for j in range(0, u.size, 1024):  # blocks keep the kernel matrix small
        field += np.exp(-1j * k * np.outer(centres, u[j : j + 1024])) @ g[j : j + 1024]
    power = field.real**2 + field.imag**2
    power = power.reshape(det.n_pixels, len(steps), ORACLE_PIXEL_NODES)
    return np.einsum("psq,q->sp", power, det.pixel_pitch / 2 * weights)


def _assert_within_oracle(rows, oracle, peak_tol=ORACLE_PEAK_TOL, flux_tol=ORACLE_FLUX_TOL):
    """Per row: the largest pixel error over the peak pixel, and the flux error."""
    peak = np.abs(rows - oracle).max(axis=1) / oracle.max(axis=1)
    flux = np.abs(rows.sum(axis=1) / oracle.sum(axis=1) - 1)
    assert peak.max() <= peak_tol, f"peak-pixel errors {peak}"
    assert flux.max() <= flux_tol, f"flux errors {flux}"


@pytest.fixture(scope="module")
def small_source(quiet_cfg):
    return double_slit_field(
        quiet_cfg.geometry, GridSpec(2**16, quiet_cfg.grid.half_span), quiet_cfg.illumination_tilt
    )


# Each case is (scan, the width of its cells, the peak and flux tolerances).
# The default 301-step scan at four widths; 81 steps of 0.05 mm, where 5
# cells of 10 um a step are rounded up to 6 for an even count; and a camera
# that lags the image (stage ratio 0.2) at s of -38 to -10 mm, where 10 um
# cells fail the sampling guard and 2.5 um cells pass.  That camera sees
# only the image's far tail, 1e-10 as bright as the s = 0 step, where the
# integrand turns up to the guard's 0.25 cycles a cell and Simpson's rule
# errs by about (pi / 2)^4 / 180: 4.0e-2 of the peak and 3.9e-2 of the flux
# at s = -38 mm (the four-point midpoint engine read 0.10 and 0.15).
ORACLE_SCANS = {
    **{f"{width:g}": (dict(aperture_width=width), 1e-5, ORACLE_PEAK_TOL, ORACLE_FLUX_TOL)
       for width in (2e-3, 4e-3, 5e-3, 8e-3)},
    "odd": (dict(aperture_width=4.05e-3, step=5e-5), 5e-5 / 6, ORACLE_PEAK_TOL, ORACLE_FLUX_TOL),
    "lagging": (
        dict(aperture_width=4e-3, step=1e-3, n_steps=29, s_start=-38e-3, stage_ratio=0.2),
        2.5e-6, 5e-2, 5e-2,
    ),
}


@pytest.mark.parametrize("case", ORACLE_SCANS)
def test_scan_engine_matches_the_oracle(quiet_cfg, case):
    geom, det = quiet_cfg.geometry, quiet_cfg.detector
    kwargs, h, peak_tol, flux_tol = ORACLE_SCANS[case]
    scan = ww.ScanConfig(**kwargs)
    positions = [scan.s_start + k * scan.step for k in np.linspace(0, scan.n_steps - 1, 5).round()]
    rows, steps = [], []
    for grid_n in (2**16, 2**17, 2**18):
        source = double_slit_field(
            geom, GridSpec(grid_n, quiet_cfg.grid.half_span), quiet_cfg.illumination_tilt
        )
        optics = instrument._ScanOptics(source, geom, scan, det)
        assert optics.h == pytest.approx(h, rel=1e-12) and optics.u.size % 2 == 1
        rows += [optics.images([s])[0] for s in positions]
        steps += [(source, s) for s in positions]
    oracle = _oracle_profiles(geom, scan, det, steps)
    _assert_within_oracle(np.array(rows), oracle, peak_tol, flux_tol)


def test_auto_exposure_targets_the_full_well_fraction(quiet_cfg, source):
    geom = quiet_cfg.geometry
    scan = quiet_cfg.scans[0]
    det = quiet_cfg.detector
    exposure = ww.auto_exposure(source, geom, scan, det)
    peak = instrument._ScanOptics(source, geom, scan, det).images([0.0])[0].max()
    target = AUTO_EXPOSURE_FRACTION * FULL_WELL
    assert peak * exposure * det.gain == pytest.approx(target, rel=1e-12)
    (oracle,) = _oracle_profiles(geom, scan, det, [(source, 0.0)])
    assert peak == pytest.approx(oracle.max(), rel=ORACLE_PEAK_TOL)


def test_steps_off_the_scan_positions_evaluate_the_pupil_directly(quiet_cfg, small_source):
    geom, det = quiet_cfg.geometry, quiet_cfg.detector
    scan = ww.ScanConfig(aperture_width=4e-3, n_steps=3, s_start=-1e-3)
    s = scan.s_start + scan.step
    tabulated = instrument._ScanOptics(small_source, geom, scan, det).images([s])[0]
    # a scan shifted by a third of an aperture cell has no position at s
    shifted = replace(scan, s_start=scan.s_start + instrument.SUPPORT_PITCH / 3)
    direct = instrument._ScanOptics(small_source, geom, shifted, det).images([s])[0]
    assert np.allclose(direct, tabulated, rtol=1e-9, atol=1e-12 * tabulated.max())


@pytest.mark.parametrize("block", [1, 7, instrument.SCAN_BLOCK, 301])
def test_scan_rows_do_not_depend_on_the_block(quiet_cfg, small_source, monkeypatch, block):
    geom, det = quiet_cfg.geometry, quiet_cfg.detector
    n_steps = 2 * instrument.SCAN_BLOCK + 5  # not a multiple of any block but 1
    scan = ww.ScanConfig(aperture_width=5e-3, n_steps=n_steps, s_start=-3e-3, exposure=1.0)
    optics = instrument._ScanOptics(small_source, geom, scan, det)
    monkeypatch.setattr(instrument, "SCAN_BLOCK", block)
    series = ww.run_scan(small_source, geom, scan, det)
    blocked = optics.images(series.records.slit_position)
    monkeypatch.setattr(instrument, "SCAN_BLOCK", 301)
    whole = ww.run_scan(small_source, geom, scan, det)
    monkeypatch.undo()
    single = [optics.images([s])[0] for s in series.records.slit_position]
    assert np.array_equal(blocked, single)
    # each block takes its rows' centroids and sums from its own totals
    assert series.records.tobytes() == whole.records.tobytes()
    assert series.midlines.tobytes() == whole.midlines.tobytes()


def _expected_scan(rows, midlines, scan, det):
    """run_scan's noisy signals, drawn by hand from rows, the noiseless pixels
    that images() gives at its exposure (an (n_steps, n_pixels) matrix).
    Each step's midline and the guard band cut its row into four runs of
    pixels: left of the midline beyond the guard band, left within it, right
    within it and right beyond it.  Each run's K-frame sum is one Poisson
    draw for its summed pixels and one readout draw for its pixel count,
    from the scan's (seed, width) stream, every shot-noise value in step
    order first, then every readout value."""
    n = rows.shape[1]
    runs = []
    for row, midline in zip(rows, midlines):
        a = min(max(math.ceil(midline - GUARD_PX), 0), n)
        b = min(math.floor(midline + GUARD_PX) + 1, n)
        runs.append((row[:a], row[a : math.ceil(midline)], row[math.ceil(midline) : b], row[b:]))
    frames, scale = scan.frames_per_step, scan.frames_per_step * det.gain
    rng = np.random.default_rng((det.rng_seed, scan.width_elems()))
    shot = [[rng.poisson(run.sum() * scale) for run in step] for step in runs]
    sigma = det.readout_noise * math.sqrt(frames)
    signals = []
    for counts, step in zip(shot, runs):
        values = [(c + rng.normal(0.0, sigma * math.sqrt(run.size))) / scale
                  for c, run in zip(counts, step)]
        signals.append((values[0] + values[1], values[2] + values[3], values[0] + values[3]))
    return signals


# run_scan takes its noiseless sums from each step's lag sum, not from its
# pixels: they match the pixels' sums within these fractions of the scan's
# peak step flux and its midlines within these pixels (on the default 4 and
# 5 mm scans they read 5.7e-15 and 4.0e-12 px); a camera that sees only the
# image's far tail, on 2.5 um cells, gets looser ones
SUMS_TOL, MIDLINE_TOL_PX = 1e-12, 1e-9
FAR_TAIL_SUMS_TOL, FAR_TAIL_MIDLINE_TOL_PX = 1e-10, 1e-6


def _assert_scan_equals_expected(series, exposure, signals):
    """A noisy series against _expected_scan's signals: its draws take the
    same counts, so it matches them to the bit."""
    scan, records = series.config, series.records
    assert scan.exposure == exposure
    assert np.array_equal(records.step_index, np.arange(scan.n_steps))
    assert records.slit_position.tolist() == [
        scan.s_start + k * scan.step for k in range(scan.n_steps)
    ]
    left, right, beyond = np.array(signals).T
    for name, expected in [("left_signal", left), ("right_signal", right), ("beyond_guard", beyond)]:
        assert np.array_equal(records[name], expected), name
    assert np.array_equal(records.total_flux, records.left_signal + records.right_signal)


# widths of 1, 4, 8, 16, 20 and 24 steps: below, at and beyond the anchor of 20
@pytest.mark.parametrize("width", [5e-4, 2e-3, 4e-3, 8e-3, 10e-3, 12e-3])
def test_run_scan_matches_the_oracle(quiet_cfg, small_source, width):
    geom = quiet_cfg.geometry
    base = ww.ScanConfig(width, step=5e-4, n_steps=12, s_start=-3e-3)
    quiet_det = ww.DetectorConfig()
    quiet = ww.run_scan(small_source, geom, base, quiet_det)
    exposure = quiet.config.exposure
    rows = _check_scan_sums(quiet, small_source, geom, quiet_det)
    checked = [0, 5, 11]
    positions = [0.0, *(base.s_start + k * base.step for k in checked)]
    oracle = _oracle_profiles(geom, base, quiet_det, [(small_source, s) for s in positions])
    # a one-step aperture's image spreads over the whole detector, whose far
    # pixels 10 um Simpson cells resolve to 2.1e-5 of the peak (the four-point
    # midpoint engine: 8.1e-6)
    peak_tol = 3e-5 if width == 5e-4 else ORACLE_PEAK_TOL
    assert exposure * oracle[0].max() == pytest.approx(AUTO_EXPOSURE_FRACTION * FULL_WELL, rel=peak_tol)
    _assert_within_oracle(rows[checked] / exposure, oracle[1:], peak_tol)
    # exposure, noise, midline and split on top of the noiseless rows
    det = ww.DetectorConfig(noise_enabled=True, rng_seed=11)
    _assert_scan_equals_expected(ww.run_scan(small_source, geom, base, det), exposure,
                                 _expected_scan(rows, quiet.midlines, base, det))


# (width in steps, steps of the band left of the pupil axis): below, at and
# beyond the anchor of 20; an aperture much narrower than 1 mm diffracts
# past the camera, so its flux is not the band's sum to 1%
@pytest.mark.parametrize("w, left", [(10, 10), (20, 20), (40, 20)])
def test_the_aperture_edge_and_the_band_agree(quiet_cfg, source, w, left):
    # a noiseless scan sums the pupil over the aperture at the scan's offsets,
    # which on the unclipped rows is the band times the binned pupil
    n = 121
    scan = ww.ScanConfig(w * 1e-4, n_steps=n, s_start=-6e-3, midline="centroid")
    assert scan.aperture_left_edge() == pytest.approx(-(left - 0.5) * scan.step)
    series = ww.run_scan(source, quiet_cfg.geometry, scan, ww.DetectorConfig())
    offsets, flux = ww.flux_vector(series.table())
    band = ww.build_aperture_matrix(n, w)
    lag = np.arange(n)[:, None] - np.arange(n)
    assert np.array_equal(band, (lag < left) & (lag >= left - w))
    expected = band @ pipeline.pupil_truth(quiet_cfg.geometry, source, offsets, scan.step)
    rows = band.sum(axis=1) == w
    got = flux[rows] / series.config.exposure
    assert np.linalg.norm(got - expected[rows]) < 1e-2 * np.linalg.norm(expected[rows])


def test_scan_step_leaving_the_grid_names_the_first_such_step(quiet_cfg, small_source, monkeypatch):
    # a stage ratio of 0.2 leaves the camera behind the slit image, which
    # rides at about -1.09 s: from s = 38.5 mm on, the camera window leaves
    # the span the aperture cells resolve (the integrand turns more than a
    # quarter cycle per cell), so step 3 (s = 39 mm) fails the guard first
    scan = ww.ScanConfig(
        aperture_width=4e-3, step=1e-3, n_steps=200, s_start=36e-3, exposure=1.0, stage_ratio=0.2
    )
    calls = []
    assert instrument.ifft is np.fft.ifft

    def counted(*args, **kwargs):
        calls.append(args)
        return np.fft.ifft(*args, **kwargs)

    monkeypatch.setattr(instrument, "ifft", counted)
    with pytest.raises(
        ww.ConfigurationError,
        match=r"^scan a4mm: scan step 3 \(s = 0\.039 m\): imaging sampling bound",
    ):
        ww.run_scan(small_source, quiet_cfg.geometry, scan, quiet_cfg.detector)
    # every position is checked before any is imaged: no step was imaged
    assert calls == []


def _midlines_row_by_row(profiles):
    """The midline rule one row at a time."""
    n = profiles.shape[1]
    midlines = np.full(len(profiles), (n - 1) / 2)
    for k, row in enumerate(profiles):
        if (total := row.sum()) > 0:
            midlines[k] = np.sum(np.arange(n) * row) / total
    return midlines


def test_noise_and_exposure_leave_the_midlines_alone(quiet_cfg, small_source):
    # each step splits at the centroid of its expected image: a bright and a
    # dim scan, noiseless and noisy, share the midlines of the 40-step scan
    # that test_run_scan_sums_the_pixels_of_images checks against its pixels
    scans = [
        ww.run_scan(small_source, quiet_cfg.geometry,
                    ww.ScanConfig(aperture_width=4e-3, n_steps=40, exposure=exposure),
                    ww.DetectorConfig(noise_enabled=noise, rng_seed=3))
        for exposure in (None, 1e-9) for noise in (False, True)
    ]
    assert len({series.midlines.tobytes() for series in scans}) == 1


def _assert_sums_match_the_pixels(rows, midlines, signals, tol=SUMS_TOL, midline_tol=MIDLINE_TOL_PX):
    """midlines and the (left, right, beyond-guard, total) signals of a scan's
    steps against rows, their pixels from images(): the midlines within
    midline_tol px of the rows' centroids, and the signals within tol of the
    peak step flux of the rows' sums split at those midlines, row by row.
    Returns the centroids and those sums, one row of four per step."""
    centroids = _midlines_row_by_row(rows)
    assert np.abs(midlines - centroids).max() <= midline_tol
    idx = np.arange(rows.shape[1])
    expected = np.array([
        (row[: math.ceil(mid)].sum(), row[math.ceil(mid) :].sum(),
         row[np.abs(idx - mid) > GUARD_PX].sum(), row.sum())
        for row, mid in zip(rows, midlines)
    ])
    assert np.abs(np.column_stack(signals) - expected).max() <= tol * rows.sum(axis=1).max()
    return centroids, expected


def _check_scan_sums(series, field, geom, det, table=None, tol=SUMS_TOL, midline_tol=MIDLINE_TOL_PX,
                     rtol=None):
    """series' noiseless records and midlines against the pixels that images()
    gives for its steps (returned, at its exposure); with rtol, also its
    midlines and its assignment_probability contamination within rtol of the
    rows' centroids and of their beyond-guard share of the flux."""
    optics = instrument._ScanOptics(field, geom, series.config, det, table)
    rows = optics.images(series.records.slit_position) * series.config.exposure
    assert rows.shape == (series.config.n_steps, det.n_pixels)
    signals = [series.records[name] for name in ("left_signal", "right_signal", "beyond_guard")]
    centroids, expected = _assert_sums_match_the_pixels(
        rows, series.midlines, [*signals, series.records.total_flux], tol, midline_tol
    )
    if rtol is not None:
        assert np.allclose(series.midlines, centroids, rtol=rtol, atol=0)
        beyond, total = expected[:, 2:].sum(axis=0)
        assert ww.assignment_probability(series)[0] == pytest.approx(beyond / total, rel=rtol)
    return rows


def test_run_scan_sums_the_pixels_of_images(quiet_cfg, quiet_series, source, small_source):
    geom, det = quiet_cfg.geometry, quiet_cfg.detector

    def scan(**kwargs):
        return ww.run_scan(small_source, geom, ww.ScanConfig(aperture_width=4e-3, **kwargs), det)

    # the default scans, and 40 steps, which fill their one block (301 leave
    # a part block): midlines and contamination within 1e-12 of the pixels'
    # (they read at most 6.9e-15 and 1.6e-14), tighter than MIDLINE_TOL_PX
    for series, field in [*zip(quiet_series, [source] * 2), (scan(n_steps=40), small_source)]:
        _check_scan_sums(series, field, geom, det, rtol=1e-12)
    # a camera that sees only the image's far tail, on 2.5 um cells
    far = scan(step=1e-3, n_steps=29, s_start=-38e-3, stage_ratio=0.2)
    _check_scan_sums(far, small_source, geom, det, None, FAR_TAIL_SUMS_TOL, FAR_TAIL_MIDLINE_TOL_PX)
    _check_scan_sums(scan(n_steps=1, s_start=1e-3), small_source, geom, det)
    # a camera at stage ratio 0.2, which the image outruns: midlines within
    # GUARD_PX of either detector end
    drift = scan(step=2e-4, n_steps=77, s_start=-7.6e-3, stage_ratio=0.2)
    assert drift.midlines.min() < GUARD_PX < det.n_pixels - 1 - GUARD_PX < drift.midlines.max()
    _check_scan_sums(drift, small_source, geom, det)
    # steps off the table's positions, and lit steps whose midline is forced
    # to pixel 0, an integral midline at the detector's end
    base = ww.ScanConfig(aperture_width=4e-3, n_steps=21, s_start=-1e-3)
    optics = instrument._ScanOptics(small_source, geom, base, det)
    positions = base.s_start + base.step * np.arange(base.n_steps) + instrument.SUPPORT_PITCH / 3
    for midline_tol in (MIDLINE_TOL_PX, math.inf):
        if midline_tol == math.inf:
            optics.functionals[1] = 0.0  # the first moment of every step
        midlines, cuts, flux = optics.sums(positions)
        signals = [flux[:, 2], flux[:, 4] - flux[:, 2], flux[:, 1] + flux[:, 4] - flux[:, 3], flux[:, 4]]
        _assert_sums_match_the_pixels(optics.images(positions), midlines, signals, SUMS_TOL, midline_tol)
    assert midlines.tolist() == [0.0] * 21
    assert cuts.tolist() == [[0, 0, 0, GUARD_PX + 1, det.n_pixels]] * 21


def test_a_row_without_flux_is_split_at_the_detector_center(quiet_cfg, small_source):
    # step 10 reads an all-zero pupil in a lit scan: it falls back to the
    # center, which on 1,025 pixels is integral, so its right guard edge lies
    # 21 pixels on; its noisy twin draws readout noise for each set's pixel count
    geom, det = quiet_cfg.geometry, replace(quiet_cfg.detector, n_pixels=1025)
    scan = ww.ScanConfig(aperture_width=4e-3, n_steps=21, s_start=-1e-3, exposure=1.0)
    pupil = instrument._ScanPupil(small_source, geom, scan, det)
    table = pupil.tabulate().copy()
    table[pupil.last // 2 : pupil.last // 2 + pupil.u.size] = 0  # the edges step 10 reads
    dark = ww.run_scan(small_source, geom, scan, det, table)
    assert dark.midlines[10] == 512.0 and not any(dark.records[name][10] for name in SIGNALS)
    rows = _check_scan_sums(dark, small_source, geom, det, table)
    noisy = replace(det, noise_enabled=True, rng_seed=2)
    _assert_scan_equals_expected(ww.run_scan(small_source, geom, scan, noisy, table), 1.0,
                                 _expected_scan(rows, dark.midlines, scan, noisy))


# images' and run_scan's scratch beyond their outputs: SCAN_BLOCK rows of the
# longer transform (3.3 MB at 64 rows for a 4 mm scan on 2.5 um cells, 0.8 MB
# on 10 um cells; run_scan's lag sums share their rows with the steps' edge
# rows), and the optics' own arrays; no edge table may grow with the pixel
# edges that a scan's midlines visit
IMAGES_SCRATCH_CAP = 4 * 2**20


def test_the_scan_optics_scratch_does_not_grow_with_the_scan(quiet_cfg, source, traced_peak):
    # the pupil table grows with the scan; nothing else the optics allocate
    # may, and imaging a scan needs no more than its pixels and one block's
    # buffers, nor scanning it more than its records: on 10 um cells, and on
    # the 2.5 um cells of a camera that lags the image (stage ratio 0.2, s
    # from -38 mm) and fails the guard at 10 um
    def scratch(n_steps, h, **kwargs):
        scan = ww.ScanConfig(aperture_width=4e-3, n_steps=n_steps, **kwargs)
        geom, det = quiet_cfg.geometry, quiet_cfg.detector
        build = partial(instrument._ScanOptics, source, geom, scan, det)
        build()
        optics, peak = traced_peak(build)
        assert optics.h == pytest.approx(h, rel=1e-12)
        positions = scan.s_start + scan.step * np.arange(n_steps)
        optics.images(positions[:1])  # numpy keeps each transform length's plan
        pixels, imaged = traced_peak(partial(optics.images, positions))
        run = partial(ww.run_scan, source, geom, scan, det, optics.table)
        run()
        series, scanned = traced_peak(run)
        scanned -= series.records.nbytes + series.midlines.nbytes
        return peak - optics.table.nbytes, imaged - pixels.nbytes, scanned

    for h, kwargs in [
        (10e-6, lambda n: dict(s_start=-(n // 2) * 1e-4)),
        (2.5e-6, lambda n: dict(step=2e-5, s_start=-38e-3, stage_ratio=0.2)),
    ]:
        short, long = (scratch(n, h, **kwargs(n)) for n in (101, 1001))
        for kept, grown in zip(short, long):
            assert grown == pytest.approx(kept, rel=0.1)
        assert max(long[1:]) < IMAGES_SCRATCH_CAP


def test_scan_series_needs_a_midline_per_step(quiet_series):
    series = quiet_series[0]
    with pytest.raises(ww.ConfigurationError, match="record and midline counts"):
        ww.ScanSeries(series.config, series.records, series.midlines[1:])
    with pytest.raises(ww.ConfigurationError, match="record and midline counts"):
        ww.ScanSeries(series.config, series.records[1:], series.midlines)


def test_next_fast_len_matches_scipy():
    assert [_next_fast_len(n) for n in range(1, 20_000)] == [
        scipy.fft.next_fast_len(n) for n in range(1, 20_000)
    ]


def test_run_scan_resolves_the_exposure(quiet_series):
    for series in quiet_series:
        assert series.config.exposure is not None
        assert series.config.exposure > 0


def test_run_scan_record_structure(quiet_series):
    series = quiet_series[0]
    records, table = series.records, series.table()
    assert len(records) == series.config.n_steps
    for key, field in [("step", "step_index"), ("s", "slit_position"), ("F", "total_flux"),
                       ("left", "left_signal"), ("right", "right_signal")]:
        assert np.array_equal(table[key], records[field])
    assert np.array_equal(records.step_index, np.arange(series.config.n_steps))
    assert np.array_equal(records.total_flux, records.left_signal + records.right_signal)
    s = table["s"]
    assert s[0] == pytest.approx(series.config.s_start)
    assert np.allclose(np.diff(s), series.config.step)


def test_flux_vector_is_the_reversed_step_order(quiet_series):
    series = quiet_series[0]
    offsets, flux = ww.flux_vector(series.table())
    assert np.all(np.diff(offsets) > 0)
    assert flux[0] == series.records[-1].total_flux
    assert flux[-1] == series.records[0].total_flux
    _, right = ww.flux_vector(series.table(), "right")
    assert right[0] == series.records[-1].right_signal
    with pytest.raises(ww.ConfigurationError):
        ww.flux_vector(series.table(), "sideways")


def test_scan_csv_roundtrip(tmp_path, quiet_series):
    series = quiet_series[0]
    path = tmp_path / "scan.csv"
    series.to_csv(path)
    table = ww.load_scan_csv(path)
    assert table["step"].size == series.config.n_steps
    off_a, flux_a = ww.flux_vector(series.table())
    off_b, flux_b = ww.flux_vector(table)
    assert np.allclose(off_a, off_b, atol=1e-12)
    assert np.allclose(flux_a, flux_b, rtol=1e-8)


def test_load_scan_csv_rejects_bad_files(tmp_path):
    bad_header = tmp_path / "h.csv"
    bad_header.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ww.DataError, match="header"):
        ww.load_scan_csv(bad_header)

    corrupt = tmp_path / "c.csv"
    corrupt.write_text("step,s_mm,F,left,right\n0,0.0,1.0,0.5,0.5\n1,oops,2.0,1,1\n")
    with pytest.raises(ww.DataError, match="line 3"):
        ww.load_scan_csv(corrupt)

    empty = tmp_path / "e.csv"
    empty.write_text("step,s_mm,F,left,right\n")
    with pytest.raises(ww.DataError, match="no data"):
        ww.load_scan_csv(empty)

    non_finite = tmp_path / "n.csv"
    non_finite.write_text("step,s_mm,F,left,right\n0,0.0,1.0,0.5,0.5\n1,0.1,nan,1,1\n")
    with pytest.raises(ww.DataError, match="non-finite value at line 3"):
        ww.load_scan_csv(non_finite)

    with pytest.raises(ww.DataError, match="cannot read"):
        ww.load_scan_csv(tmp_path / "missing.csv")


def test_load_scan_csv_holds_f_to_left_plus_right(tmp_path):
    # each cell keeps 10 significant digits: F may differ from left + right
    # by the rounding of the three cells, and is rejected beyond that
    rng = np.random.default_rng(5)
    left, right = rng.normal(size=(2, 500)) * 10.0 ** rng.integers(-3, 8, (2, 500))
    flux = left + right
    path = tmp_path / "scan.csv"

    def write(f):
        columns = [np.arange(500), 0.1 * np.arange(500), f, left, right]
        write_csv(path, instrument._CSV_HEADER, instrument._CSV_FORMATS, columns)

    write(flux)
    assert np.array_equal(ww.load_scan_csv(path)["step"], np.arange(500))
    flux[123] += 3e-9 * (abs(flux[123]) + abs(left[123]) + abs(right[123]))
    write(flux)
    with pytest.raises(ww.DataError, match=r"F differs from left \+ right at line 125$"):
        ww.load_scan_csv(path)


# the signals of a step, one column each
SIGNALS = ["total_flux", "left_signal", "right_signal", "beyond_guard"]


def _signals(series):
    return np.column_stack([series.records[name] for name in SIGNALS])


def test_run_scan_noise_reproducible(quiet_cfg, source):
    geom = quiet_cfg.geometry
    scan = ww.ScanConfig(aperture_width=4e-3, n_steps=3, s_start=-1e-4)
    det = ww.DetectorConfig(noise_enabled=True, rng_seed=5)
    one = ww.run_scan(source, geom, scan, det)
    two = ww.run_scan(source, geom, scan, det)
    assert one.records.tobytes() == two.records.tobytes()
    other = ww.run_scan(source, geom, scan, ww.DetectorConfig(noise_enabled=True, rng_seed=6))
    assert not (_signals(one)[0] == _signals(other)[0]).any()


def test_noise_has_the_moments_of_the_frame_mean(quiet_cfg, source, quiet_series):
    # each signal is the mean of K frames of Poisson(g E) electrons for its
    # expected flux E plus N(0, n sigma^2) readout for its n pixels, divided
    # by the gain g: variance E / (K g) + n sigma^2 / (K g^2)
    quiet = quiet_series[0]
    det = replace(quiet_cfg.detector, noise_enabled=True)
    g, frames = det.gain, quiet.config.frames_per_step
    n = det.n_pixels
    offset = np.arange(n) - quiet.midlines[:, np.newaxis]
    pixels = np.column_stack([np.full(len(offset), n), (offset < 0).sum(axis=1),
                              (offset >= 0).sum(axis=1), (np.abs(offset) > GUARD_PX).sum(axis=1)])
    expected = _signals(quiet)
    var = expected / (frames * g) + pixels * det.readout_noise**2 / (frames * g**2)
    z = np.stack([
        (_signals(ww.run_scan(source, quiet_cfg.geometry, quiet.config, replace(det, rng_seed=seed)))
         - expected) / np.sqrt(var)
        for seed in range(20)
    ])
    # 6,020 draws of each signal: the mean's sd is 0.013, the variance's 0.018
    assert np.all(np.abs(z.mean(axis=(0, 1))) < 0.05)
    assert np.all(np.abs(z.var(axis=(0, 1)) - 1) < 0.08)


def test_a_billion_frames_average_the_noise_away(quiet_cfg, source):
    scan = ww.ScanConfig(aperture_width=4e-3, n_steps=3, s_start=-1e-4, frames_per_step=10**9)
    det = replace(quiet_cfg.detector, noise_enabled=True)
    noisy = ww.run_scan(source, quiet_cfg.geometry, scan, det)
    quiet = ww.run_scan(source, quiet_cfg.geometry, scan, quiet_cfg.detector)
    assert np.allclose(_signals(noisy), _signals(quiet), rtol=1e-6, atol=0.1)
    assert not np.array_equal(_signals(noisy), _signals(quiet))


def test_the_scans_of_a_run_draw_independent_noise():
    # at this exposure the readout noise swamps the light, so scans drawn
    # from one stream would repeat each other's noise step for step
    cfg = load_config()
    cfg = replace(cfg, scans=tuple(replace(scan, exposure=1e-3) for scan in cfg.scans))
    quiet = replace(cfg, detector=replace(cfg.detector, noise_enabled=False))
    four, five = (
        _signals(noisy) - _signals(expected)
        for noisy, expected in zip(pipeline.run_all_scans(cfg), pipeline.run_all_scans(quiet))
    )
    assert not any(np.array_equal(a, b) for a, b in zip(four, five))
    # 1,204 signals a scan: independent draws correlate by about 0.03
    assert abs(np.corrcoef(four.ravel(), five.ravel())[0, 1]) < 0.1


def test_a_hundredth_of_the_light_keeps_the_pooled_d():
    # the midline is the centroid of the expected image, so readout noise
    # cannot move the guard band: at 1% of each scan's auto exposure, seeds
    # 0-3, D read 0.8949 +- 0.0031 against 0.8962 at full light (0.6729 with
    # the centroid of the noisy row)
    auto = [series.config.exposure for series in pipeline.run_all_scans(load_config(no_noise=True))]

    def pooled_d(cfg):
        series = pipeline.run_all_scans(cfg)
        return ww.pooled_assignment(
            [(ww.assignment_probability(s)[0], s.total_flux_sum) for s in series]
        )[2]

    for seed in range(4):
        cfg = load_config(seed=seed)
        dim = tuple(replace(scan, exposure=0.01 * e) for scan, e in zip(cfg.scans, auto))
        assert pooled_d(replace(cfg, scans=dim)) == pytest.approx(pooled_d(cfg), abs=0.01)


# the noise of a scan's sets of pixels takes a few arrays of n_steps x 4
# values; a pixel matrix of the default scan would take 2.4 MB
NOISE_PEAK_CAP = 2**19


def test_noise_takes_no_pixel_matrix(quiet_cfg, source, traced_peak):
    scan, det = quiet_cfg.scans[0], quiet_cfg.detector
    run = partial(ww.run_scan, source, quiet_cfg.geometry, scan)
    run(det)  # numpy keeps each transform length's plan
    _, quiet = traced_peak(partial(run, det))
    _, noisy = traced_peak(partial(run, replace(det, noise_enabled=True)))
    assert noisy - quiet < NOISE_PEAK_CAP


# (aperture width, stage ratio) of three scans, and how many pupil tables
# they read: the 3-5 mm apertures share their left edge, the 1 mm one (10
# steps, below the anchor) has its own, and a stage ratio has its own chirp
TABLE_GROUPS = [
    (((3e-3, 1.07), (4e-3, 1.07), (5e-3, 1.07)), 1),
    (((1e-3, 1.07), (4e-3, 1.07), (5e-3, 1.08)), 3),
]


@pytest.mark.parametrize("cpus", [None, 1, 8], ids=["every-cpu", "one-cpu", "a-thread-per-scan"])
@pytest.mark.parametrize("noise", [False, True], ids=["noiseless", "noisy"])
def test_run_all_scans_equals_run_scan_per_scan_in_order(monkeypatch, noise, cpus):
    # three scans, so that with two threads one of them runs two; eight
    # CPUs give each scan its own thread, whatever the cores
    if cpus is not None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    threads, tables = [], []

    def recorded(*args):
        threads.append(threading.get_ident())
        tables.append(args[4])
        return ww.run_scan(*args)

    monkeypatch.setattr(pipeline, "run_scan", recorded)
    for groups, n_tables in TABLE_GROUPS:
        cfg = load_config(seed=3, no_noise=not noise)
        scans = tuple(
            replace(cfg.scans[0], aperture_width=w, stage_ratio=r, n_steps=51, s_start=-2e-3)
            for w, r in groups
        )
        cfg = replace(cfg, scans=scans)
        source = pipeline.make_source(cfg)
        expected = [ww.run_scan(source, cfg.geometry, scan, cfg.detector) for scan in scans]
        threads.clear()
        tables.clear()
        got = pipeline.run_all_scans(cfg)
        # the calling thread takes a share, and each usable CPU runs one thread
        assert threading.get_ident() in threads
        assert len(set(threads)) == min(len(scans), len(os.sched_getaffinity(0)))
        assert len({id(table) for table in tables}) == n_tables
        assert len(got) == len(expected)
        for series, reference in zip(got, expected):
            assert series.config == reference.config  # the resolved exposure included
            assert series.records.tobytes() == reference.records.tobytes()
            assert series.midlines.tobytes() == reference.midlines.tobytes()


def test_the_default_run_tabulates_the_pupil_once(monkeypatch):
    # the 4 mm scan reads the first 3,401 entries of the 5 mm scan's 3,501
    positions = []

    def counted(steps, distance, wavelength, x):
        positions.append(np.size(x))
        return fresnel_field(steps, distance, wavelength, x)

    monkeypatch.setattr(instrument, "fresnel_field", counted)
    pipeline.run_all_scans(load_config(seed=0))
    assert sum(positions) == 300 * 10 + 50 * 10 + 1 == 3_501


def test_a_table_that_fails_leaves_each_scan_its_own(monkeypatch, quiet_cfg):
    # the 4 and 5 mm scans share a table, the 3 mm one at another stage ratio
    # has its own; every table fails, then only the 3 mm one's
    scans = tuple(
        replace(quiet_cfg.scans[0], aperture_width=w, stage_ratio=r, n_steps=51, s_start=-2e-3)
        for w, r in ((4e-3, 1.07), (5e-3, 1.07), (3e-3, 1.08))
    )
    cfg = replace(quiet_cfg, scans=scans)
    source = pipeline.make_source(cfg)
    expected = [ww.run_scan(source, cfg.geometry, scan, cfg.detector) for scan in scans]
    tables = {}

    def recorded(*args):
        tables[args[2].aperture_width] = args[4]
        return ww.run_scan(*args)

    monkeypatch.setattr(pipeline, "run_scan", recorded)
    for failing in ((1.07, 1.08), (1.08,)):

        class Fails(instrument._ScanPupil):
            def tabulate(self):
                if self.key[1] in failing:  # the stage ratio
                    raise MemoryError
                return super().tabulate()

        monkeypatch.setattr(pipeline, "_ScanPupil", Fails)
        tables.clear()
        for series, reference in zip(pipeline.run_all_scans(cfg), expected, strict=True):
            assert series.records.tobytes() == reference.records.tobytes()
            assert series.midlines.tobytes() == reference.midlines.tobytes()
        assert tables[3e-3] is None
        assert (tables[4e-3] is None) == (1.07 in failing)
        assert tables[4e-3] is tables[5e-3]


def test_the_pupil_table_is_the_scan_optics_table(quiet_cfg, small_source):
    geom, det = quiet_cfg.geometry, quiet_cfg.detector
    wide, narrow = (ww.ScanConfig(aperture_width=w, n_steps=21, s_start=-1e-3) for w in (5e-3, 4e-3))
    table = instrument._ScanPupil(small_source, geom, wide, det).tabulate()
    assert table.tobytes() == instrument._ScanOptics(small_source, geom, wide, det).table.tobytes()
    # a narrower aperture of the same left edge reads the first entries
    own = instrument._ScanOptics(small_source, geom, narrow, det).table
    shared = instrument._ScanOptics(small_source, geom, narrow, det, table).table
    assert own.size == table.size - 10 * 10 and shared.tobytes() == own.tobytes()


def test_a_shared_pupil_table_cannot_be_written(quiet_cfg, small_source):
    scan = ww.ScanConfig(aperture_width=4e-3, n_steps=3, s_start=-1e-3)
    table = instrument._ScanPupil(small_source, quiet_cfg.geometry, scan, quiet_cfg.detector).tabulate()
    optics = instrument._ScanOptics(small_source, quiet_cfg.geometry, scan, quiet_cfg.detector, table)
    for array in (table, optics.table):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


def _single_step_series(values, midline=50.0):
    """A one-step noiseless scan of values split at midline, a pixel number
    (default the center of 101 pixels), with run_scan's signals."""
    values = np.asarray(values, dtype=float)
    left = float(values[: math.ceil(midline)].sum())
    right = float(values.sum()) - left
    beyond = float(values[np.abs(np.arange(values.size) - midline) > GUARD_PX].sum())
    records = np.rec.fromarrays(
        [[0], [0.0], [left + right], [left], [right], [beyond]],
        names="step_index,slit_position,total_flux,left_signal,right_signal,beyond_guard",
    )
    cfg = ww.ScanConfig(aperture_width=4e-3, n_steps=1)
    return ww.ScanSeries(cfg, records, np.array([midline]))


def test_ordered_sum_adds_left_to_right():
    # Python 3.12's compensated sum() gives 2.0
    assert ordered_sum([0.1] * 10 + [1e16, 1.0, -1e16]) == 0.0
    assert ordered_sum(np.array([1e16, 1.0, 1.0, -1e16])) == 0.0
    assert ordered_sum([]) == 0.0
    assert type(ordered_sum(np.ones(3, np.float32))) is float


class TestAssignmentProbability:
    def test_concentrated_flux_gives_perfect_assignment(self):
        values = np.zeros(101)
        values[50] = 10.0
        c, p, d = ww.assignment_probability(_single_step_series(values))
        assert c == 0.0 and p == 1.0 and d == 1.0

    def test_guard_exceeding_flux_counts_as_contamination(self):
        values = np.zeros(101)
        values[50] = 9.0
        values[90] = 1.0  # 40 px out: beyond the guard band
        c, p, d = ww.assignment_probability(_single_step_series(values))
        assert c == pytest.approx(0.1)
        assert d == pytest.approx(2 * (0.9 - 0.5))

    def test_centroid_midline_follows_the_image(self):
        values = np.zeros(101)
        values[80] = 10.0  # far off center, but tight around its own centroid
        (centroid,) = _midlines_row_by_row(values[np.newaxis])
        assert centroid == 80.0
        series = _single_step_series(values, centroid)
        c, _, d = ww.assignment_probability(series)
        assert c == 0.0 and d == 1.0

    def test_majority_contamination_is_a_data_error(self):
        values = np.zeros(101)
        values[50] = 4.0
        values[95] = 6.0  # most flux beyond the guard band: p < 1/2
        with pytest.raises(ww.DataError):
            ww.assignment_probability(_single_step_series(values))

    def test_zero_flux_raises(self):
        with pytest.raises(ww.NumericalError):
            ww.assignment_probability(_single_step_series(np.zeros(101)))


def test_pooled_assignment_matches_flux_weighted_average():
    bright = _single_step_series(np.concatenate(([0.0] * 50, [9.0], [0.0] * 50)))
    values = np.zeros(101)
    values[50] = 8.0
    values[5] = 2.0
    dim = _single_step_series(values)
    pairs = [
        (ww.assignment_probability(series)[0], series.total_flux_sum)
        for series in (bright, dim)
    ]
    c_pool, p, d = ww.pooled_assignment(pairs)
    assert c_pool == pytest.approx(2.0 / 19.0)
    assert d == pytest.approx(2 * (p - 0.5))
    with pytest.raises(ww.NumericalError):
        ww.pooled_assignment([(0.0, 0.0)])
