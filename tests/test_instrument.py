import math
import operator
import os
import threading
from dataclasses import replace
from functools import partial, reduce

import numpy as np
import pytest
import scipy.fft
from scipy.signal import CZT

import whichway as ww
from whichway import instrument, pipeline
from whichway.artifacts import write_csv
from whichway.config import load_config
from whichway.instrument import (
    AUTO_EXPOSURE_FRACTION,
    FULL_WELL,
    _bin_intensity,
    _midlines,
    _next_fast_len,
    ordered_sum,
    scan_tag,
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
# nodes each (mean node spacing 2 um, finer than the engine's 2.5 um
# cells), which end exactly at the aperture edges.  The pupil at each node
# is the Fresnel-integral field, itself checked against quadrature of the
# Fresnel kernel in test_optics.  Each pixel integrates |V|^2 over 8
# Gauss-Legendre points.
ORACLE_PANEL = 10e-6
ORACLE_PANEL_NODES = 5
ORACLE_PIXEL_NODES = 8
# the scan engine must match the oracle to these fractions of each step's
# peak pixel and of its flux
ORACLE_PEAK_TOL = 1e-3
ORACLE_FLUX_TOL = 1e-3


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


def _assert_within_oracle(rows, oracle):
    """Per row: the largest pixel error over the peak pixel, and the flux error."""
    peak = np.abs(rows - oracle).max(axis=1) / oracle.max(axis=1)
    flux = np.abs(rows.sum(axis=1) / oracle.sum(axis=1) - 1)
    assert peak.max() <= ORACLE_PEAK_TOL, f"peak-pixel errors {peak}"
    assert flux.max() <= ORACLE_FLUX_TOL, f"flux errors {flux}"


@pytest.fixture(scope="module")
def small_source(quiet_cfg):
    return double_slit_field(
        quiet_cfg.geometry, GridSpec(2**16, quiet_cfg.grid.half_span), quiet_cfg.illumination_tilt
    )


@pytest.mark.parametrize("width", [2e-3, 4e-3, 8e-3])
def test_scan_engine_matches_the_oracle(quiet_cfg, width):
    geom, det = quiet_cfg.geometry, quiet_cfg.detector
    scan = ww.ScanConfig(aperture_width=width)  # the default 301-step scan
    positions = [scan.s_start + k * scan.step for k in (0, 75, 150, 225, 300)]
    rows, steps = [], []
    for grid_n in (2**16, 2**17, 2**18):
        source = double_slit_field(
            geom, GridSpec(grid_n, quiet_cfg.grid.half_span), quiet_cfg.illumination_tilt
        )
        optics = instrument._ScanOptics(source, geom, scan, det)
        rows += [optics.step(s) for s in positions]
        steps += [(source, s) for s in positions]
    _assert_within_oracle(np.array(rows), _oracle_profiles(geom, scan, det, steps))


def test_auto_exposure_targets_the_full_well_fraction(quiet_cfg, source):
    geom = quiet_cfg.geometry
    scan = quiet_cfg.scans[0]
    det = quiet_cfg.detector
    exposure = ww.auto_exposure(source, geom, scan, det)
    peak = instrument._ScanOptics(source, geom, scan, det).step(0.0).max()
    target = AUTO_EXPOSURE_FRACTION * FULL_WELL
    assert peak * exposure * det.gain == pytest.approx(target, rel=1e-12)
    (oracle,) = _oracle_profiles(geom, scan, det, [(source, 0.0)])
    assert peak == pytest.approx(oracle.max(), rel=ORACLE_PEAK_TOL)


def test_steps_off_the_scan_positions_evaluate_the_pupil_directly(quiet_cfg, small_source):
    geom, det = quiet_cfg.geometry, quiet_cfg.detector
    scan = ww.ScanConfig(aperture_width=4e-3, n_steps=3, s_start=-1e-3)
    s = scan.s_start + scan.step
    tabulated = instrument._ScanOptics(small_source, geom, scan, det).step(s)
    # a scan shifted by a third of an aperture cell has no position at s
    shifted = replace(scan, s_start=scan.s_start + instrument.SUPPORT_PITCH / 3)
    direct = instrument._ScanOptics(small_source, geom, shifted, det).step(s)
    assert np.allclose(direct, tabulated, rtol=1e-9, atol=1e-12 * tabulated.max())


# The engine before the detector tilt and the chirps were folded into
# per-scan weights: each step's cells times the pupil, the thin lens, the
# L_C chirp and the detector-offset tilt exp(i s tilt), through
# scipy.signal.CZT onto SUBSAMPLES points per pixel and one beyond each end.
# Only the rounding differs from the engine, so rows must agree to
# OLD_PATH_TOL of each step's peak.
OLD_PATH_TOL = 1e-12


def _old_path(source, geom, scan, det, positions):
    """Noiseless unit-exposure pixel rows at positions, and the CZT used."""
    lam, l_s, l_c = geom.wavelength, geom.dist_slits_lens, geom.dist_lens_detector
    per_step = math.ceil(scan.step / instrument.SUPPORT_PITCH * (1 - 1e-12))
    h = scan.step / per_step
    u = scan.aperture_left_edge() + h * (np.arange(scan.width_elems() * per_step) + 0.5)
    sub = det.pixel_pitch / instrument.SUBSAMPLES
    weights = np.exp(-1j * np.pi * u**2 / (lam * geom.focal_length))
    weights *= np.exp(1j * np.pi * u**2 / (lam * l_c)) * h * np.sqrt(sub / (lam * l_c))
    tilt = 2 * np.pi * scan.stage_ratio / (lam * l_c) * u
    first = -det.n_pixels * det.pixel_pitch / 2 - sub / 2
    k = 2 * np.pi * h / (lam * l_c)
    czt = CZT(u.size, det.n_pixels * instrument.SUBSAMPLES + 2,
              w=np.exp(-1j * k * sub), a=np.exp(1j * k * first))
    s = np.asarray(positions, dtype=float)[:, np.newaxis]
    pupil = fresnel_field(amplitude_steps(source), l_s, lam, u - s)
    points = czt(pupil * weights * np.exp(1j * s * tilt))
    power = points.real**2 + points.imag**2
    pixels = power[:, 1:-1].reshape(s.size, det.n_pixels, instrument.SUBSAMPLES).sum(axis=2)
    pixels += np.diff(np.diff(power)[:, :: instrument.SUBSAMPLES]) / 24
    return np.maximum(pixels, 0.0), czt


class _OldPathOptics(instrument._ScanOptics):
    """_ScanOptics whose images come from the old path."""

    def __init__(self, source, geom, scan, det, table=None):
        super().__init__(source, geom, scan, det, table)
        self.setup = source, geom, scan, det

    def images(self, positions):
        return _old_path(*self.setup, positions)[0]


@pytest.mark.parametrize("index, n, nfft", [(0, 1600, 5760), (1, 2000, 6125)])
def test_run_scan_matches_the_old_path(quiet_cfg, source, quiet_series, index, n, nfft):
    # every step of the default 4 and 5 mm scans, the exposure step included
    geom, det = quiet_cfg.geometry, quiet_cfg.detector
    series = quiet_series[index]
    scan = series.config
    old, czt = _old_path(source, geom, scan, det, [0.0, *series.records.slit_position])
    optics = instrument._ScanOptics(source, geom, scan, det)
    m = det.n_pixels * instrument.SUBSAMPLES + 2
    assert (czt.n, czt.m, czt._nfft) == (optics.u.size, optics.m, optics.nfft) == (n, m, nfft)
    assert scan.exposure * old[0].max() == pytest.approx(
        AUTO_EXPOSURE_FRACTION * FULL_WELL, rel=OLD_PATH_TOL
    )
    rows = series.profiles / scan.exposure
    error = np.abs(rows - old[1:]).max(axis=1) / old[1:].max(axis=1)
    assert error.max() <= OLD_PATH_TOL, f"largest error {error.max():.3g} of a step's peak"


# The chirps come from one complex log per base, where numpy's power takes
# the log per element.  With glibc the two agree to the bit, but where the
# power multiplies out a small integer exponent (|b| < 100: 7 entries of
# w^(j^2/2), 98 of a^-j) it drifts from the exact power by up to 14 ulp,
# and the log form by under 9.  A libm whose clog or cexp differs fails
# here before it fails the old-path test.
CHIRP_ULP = 32


@pytest.mark.parametrize("width", [2e-3, 4e-3, 5e-3, 8e-3])
def test_the_chirps_equal_numpys_complex_power(quiet_cfg, small_source, width):
    # apertures of 800 to 3200 cells at the default scan step
    geom, det = quiet_cfg.geometry, quiet_cfg.detector
    optics = instrument._ScanOptics(small_source, geom, ww.ScanConfig(aperture_width=width), det)
    lam, l_c = geom.wavelength, geom.dist_lens_detector
    sub = det.pixel_pitch / instrument.SUBSAMPLES
    first = -det.n_pixels * det.pixel_pitch / 2 - sub / 2
    k = 2 * np.pi * optics.h / (lam * l_c)
    w, a = np.exp(-1j * k * sub), np.exp(1j * k * first)
    n = optics.u.size
    j = np.arange(max(optics.m, n))
    wk2 = w ** (j**2 / 2.0)
    eps = np.finfo(float).eps
    assert np.abs(optics.wk2 - wk2[: optics.m]).max() <= CHIRP_ULP * eps
    weights = instrument._lens_phase(optics.u, geom)
    weights *= np.exp(1j * (np.pi / (lam * l_c) + optics.chirp) * optics.u**2)
    weights *= optics.h * np.sqrt(sub / (lam * l_c)) * a ** -j[:n] * wk2[:n]
    assert np.all(np.abs(optics.weights - weights) <= CHIRP_ULP * eps * np.abs(weights))


def test_seed_0_scan_csvs_equal_the_old_path_bytes(cli_run, tmp_path, monkeypatch):
    monkeypatch.setattr(instrument, "_ScanOptics", _OldPathOptics)
    cfg = load_config(seed=0)
    for scan, series in zip(cfg.scans, pipeline.run_all_scans(cfg)):
        name = f"scan_{scan_tag(scan.aperture_width)}.csv"
        series.to_csv(tmp_path / name)
        assert (tmp_path / name).read_bytes() == (cli_run / name).read_bytes(), name


@pytest.mark.parametrize("block", [1, 7, instrument.SCAN_BLOCK, 301])
def test_scan_rows_do_not_depend_on_the_block(quiet_cfg, small_source, monkeypatch, block):
    geom, det = quiet_cfg.geometry, quiet_cfg.detector
    n_steps = 2 * instrument.SCAN_BLOCK + 5  # not a multiple of any block but 1
    scan = ww.ScanConfig(aperture_width=5e-3, n_steps=n_steps, s_start=-3e-3, exposure=1.0)
    monkeypatch.setattr(instrument, "SCAN_BLOCK", block)
    series = ww.run_scan(small_source, geom, scan, det)
    monkeypatch.undo()
    optics = instrument._ScanOptics(small_source, geom, scan, det)
    single = [optics.step(s) for s in series.records.slit_position]
    assert np.array_equal(series.profiles, single)


def _expected_scan(quiet_profiles, scan, det):
    """run_scan's pixel matrix and signals, rebuilt from its noiseless rows."""
    rows = quiet_profiles
    if det.noise_enabled:
        # the K-frame sum: one Poisson and one readout draw per pixel, from
        # the scan's (seed, width) stream
        frames, scale = scan.frames_per_step, scan.frames_per_step * det.gain
        rng = np.random.default_rng((det.rng_seed, scan.width_elems()))
        counts = rng.poisson(quiet_profiles * scale).astype(float)
        counts += rng.normal(0.0, det.readout_noise * np.sqrt(frames), rows.shape)
        rows = counts / scale
    signals = [ww.split_signals(row, m) for row, m in zip(rows, _midlines(rows))]
    return rows, signals


def _assert_scan_equals_expected(series, exposure, rows, signals):
    scan = series.config
    assert scan.exposure == exposure
    assert np.array_equal(series.records.step_index, np.arange(scan.n_steps))
    assert series.records.slit_position.tolist() == [
        scan.s_start + k * scan.step for k in range(scan.n_steps)
    ]
    assert np.array_equal(series.profiles, rows)
    left, right = np.array(signals).T
    assert np.array_equal(series.records.left_signal, left)
    assert np.array_equal(series.records.right_signal, right)
    assert np.array_equal(series.records.total_flux, left + right)


# widths of 1, 4, 8, 16, 20 and 24 steps: below, at and beyond the anchor of 20
@pytest.mark.parametrize("width", [5e-4, 2e-3, 4e-3, 8e-3, 10e-3, 12e-3])
def test_run_scan_matches_the_oracle(quiet_cfg, small_source, width):
    geom = quiet_cfg.geometry
    base = ww.ScanConfig(width, step=5e-4, n_steps=12, s_start=-3e-3)
    quiet_det = ww.DetectorConfig()
    quiet = ww.run_scan(small_source, geom, base, quiet_det)
    exposure = quiet.config.exposure
    checked = [0, 5, 11]
    positions = [0.0, *(base.s_start + k * base.step for k in checked)]
    oracle = _oracle_profiles(geom, base, quiet_det, [(small_source, s) for s in positions])
    assert exposure * oracle[0].max() == pytest.approx(
        AUTO_EXPOSURE_FRACTION * FULL_WELL, rel=ORACLE_PEAK_TOL
    )
    _assert_within_oracle(quiet.profiles[checked] / exposure, oracle[1:])
    # exposure, noise, midline and split on top of the noiseless rows
    for noise in (False, True):
        det = ww.DetectorConfig(noise_enabled=noise, rng_seed=11)
        series = ww.run_scan(small_source, geom, base, det)
        expected = _expected_scan(quiet.profiles, base, det)
        _assert_scan_equals_expected(series, exposure, *expected)


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
        ww.ConfigurationError, match=r"^scan step 3 \(s = 0\.039 m\): imaging sampling bound"
    ):
        ww.run_scan(small_source, quiet_cfg.geometry, scan, quiet_cfg.detector)
    # every position is checked before any is imaged: no step was imaged
    assert calls == []


def test_centroid_midline_off_the_detector_falls_back_to_the_center(quiet_cfg, small_source):
    # at this exposure readout noise swamps the light: some rows sum to a
    # small positive total whose centroid lies far off the detector
    scan = ww.ScanConfig(aperture_width=4e-3, n_steps=20, exposure=1e-9, midline="centroid")
    det = ww.DetectorConfig(noise_enabled=True)
    series = ww.run_scan(small_source, quiet_cfg.geometry, scan, det)
    idx = np.arange(det.n_pixels)
    totals = series.profiles.sum(axis=1)
    centroids = series.profiles @ idx / totals
    off = (totals > 0) & ((centroids < 0) | (centroids > idx[-1]))
    on = (totals > 0) & ~off
    assert off.any() and on.any()
    midlines = series.midlines
    assert np.array_equal(midlines, _midlines(series.profiles))
    assert np.all(midlines[off] == det.center_index)
    assert np.allclose(midlines[on], centroids[on], rtol=1e-12)


def _midlines_row_by_row(profiles):
    """The midline rule one row at a time."""
    n = profiles.shape[1]
    midlines = np.full(len(profiles), (n - 1) / 2)
    for k, row in enumerate(profiles):
        total = row.sum()
        if total > 0 and 0 <= (centroid := np.sum(np.arange(n) * row) / total) <= n - 1:
            midlines[k] = centroid
    return midlines


def _contamination_row_by_row(profiles, midlines, guard_px):
    idx = np.arange(profiles.shape[1])
    wrong = total = 0.0
    for row, midline in zip(profiles, midlines):
        wrong += row[np.abs(idx - midline) > guard_px].sum()
        total += row.sum()
    return wrong / total


def test_midlines_and_contamination_match_a_row_by_row_loop(quiet_cfg, quiet_series, small_source):
    # the default noiseless scans, a noisy one, and a dim noisy one with
    # centroids off the detector (the centre is their midline) whose
    # contamination is above 1/2
    def noisy(exposure):
        scan = ww.ScanConfig(aperture_width=4e-3, n_steps=40, exposure=exposure, midline="centroid")
        det = ww.DetectorConfig(noise_enabled=True, rng_seed=3)
        return ww.run_scan(small_source, quiet_cfg.geometry, scan, det)

    bright, dim = noisy(None), noisy(1e-9)
    for series in (*quiet_series, bright, dim):
        expected = _midlines_row_by_row(series.profiles)
        assert np.allclose(series.midlines, expected, rtol=1e-12, atol=0)
        assert np.array_equal(series.midlines, _midlines(series.profiles))
    for series in (*quiet_series, bright):
        for guard_px in (20, 100):
            expected = _contamination_row_by_row(series.profiles, series.midlines, guard_px)
            got = ww.assignment_probability(series, guard_px)[0]
            assert got == pytest.approx(expected, rel=1e-12)


def test_assignment_probability_equals_the_whole_matrix_masked_sum(quiet_cfg, quiet_series, small_source):
    # 301 rows are not a whole number of blocks; a noisy centroid scan of 40 are
    scan = ww.ScanConfig(aperture_width=4e-3, n_steps=40, midline="centroid")
    noisy = ww.run_scan(small_source, quiet_cfg.geometry, scan, ww.DetectorConfig(noise_enabled=True))
    for series in (*quiet_series, noisy):
        profiles = series.profiles
        for guard_px in (20, 100):
            beyond = np.abs(np.arange(profiles.shape[1]) - series.midlines[:, np.newaxis]) > guard_px
            # left-to-right folds: Python 3.12's built-in sum() is compensated
            wrong = reduce(operator.add, np.sum(profiles, axis=1, where=beyond).tolist(), 0.0)
            contamination = wrong / reduce(operator.add, profiles.sum(axis=1).tolist(), 0.0)
            assert ww.assignment_probability(series, guard_px)[0] == contamination


def test_the_scan_optics_scratch_does_not_grow_with_the_scan(quiet_cfg, source, traced_peak):
    # the pupil table grows with the scan; nothing else the optics allocate may
    def scratch(n_steps):
        scan = ww.ScanConfig(aperture_width=4e-3, n_steps=n_steps, s_start=-(n_steps // 2) * 1e-4)
        build = partial(instrument._ScanOptics, source, quiet_cfg.geometry, scan, quiet_cfg.detector)
        build()
        optics, peak = traced_peak(build)
        return peak - optics.table.nbytes

    assert scratch(1001) == pytest.approx(scratch(101), rel=0.1)


def test_scan_series_needs_a_midline_per_step(quiet_series):
    series = quiet_series[0]
    with pytest.raises(ww.ConfigurationError, match="midline counts"):
        ww.ScanSeries(series.config, series.records, series.profiles, series.midlines[1:])


def test_next_fast_len_matches_scipy():
    assert [_next_fast_len(n) for n in range(1, 20_000)] == [
        scipy.fft.next_fast_len(n) for n in range(1, 20_000)
    ]


def test_run_scan_resolves_the_exposure(quiet_series):
    for series in quiet_series:
        assert series.config.exposure is not None
        assert series.config.exposure > 0


def test_run_scan_record_structure(quiet_series, quiet_cfg):
    series = quiet_series[0]
    records, table = series.records, series.table()
    assert len(records) == series.config.n_steps
    for key, field in [("step", "step_index"), ("s", "slit_position"), ("F", "total_flux"),
                       ("left", "left_signal"), ("right", "right_signal")]:
        assert np.array_equal(table[key], records[field])
    assert np.array_equal(records.step_index, np.arange(series.config.n_steps))
    assert np.array_equal(records.total_flux, records.left_signal + records.right_signal)
    assert series.profiles.shape == (series.config.n_steps, quiet_cfg.detector.n_pixels)
    assert np.allclose(series.profiles.sum(axis=1), records.total_flux, rtol=1e-12, atol=0)
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


def test_run_scan_noise_reproducible(quiet_cfg, source):
    geom = quiet_cfg.geometry
    scan = ww.ScanConfig(aperture_width=4e-3, n_steps=3, s_start=-1e-4)
    det = ww.DetectorConfig(noise_enabled=True, rng_seed=5)
    one = ww.run_scan(source, geom, scan, det)
    two = ww.run_scan(source, geom, scan, det)
    assert np.array_equal(one.profiles, two.profiles)
    other = ww.run_scan(source, geom, scan, ww.DetectorConfig(noise_enabled=True, rng_seed=6))
    assert not np.array_equal(one.profiles[0], other.profiles[0])


def test_noise_has_the_moments_of_the_frame_mean(quiet_cfg, source, quiet_series):
    # each pixel is the mean of K frames of Poisson(g P) electrons plus
    # N(0, sigma^2) readout, divided by the gain g
    quiet = quiet_series[0]
    det = replace(quiet_cfg.detector, noise_enabled=True)
    noisy = ww.run_scan(source, quiet_cfg.geometry, quiet.config, det)
    g, frames = det.gain, quiet.config.frames_per_step
    var = (g * quiet.profiles + det.readout_noise**2) / (frames * g**2)
    z = (noisy.profiles - quiet.profiles) / np.sqrt(var)
    assert abs(z.mean()) < 0.01
    assert 0.985 <= z.var() <= 1.015


def test_a_billion_frames_average_the_noise_away(quiet_cfg, source):
    scan = ww.ScanConfig(aperture_width=4e-3, n_steps=3, s_start=-1e-4, frames_per_step=10**9)
    det = replace(quiet_cfg.detector, noise_enabled=True)
    noisy = ww.run_scan(source, quiet_cfg.geometry, scan, det)
    quiet = ww.run_scan(source, quiet_cfg.geometry, scan, quiet_cfg.detector)
    assert np.allclose(noisy.profiles, quiet.profiles, rtol=1e-3, atol=1e-2)


def test_the_scans_of_a_run_draw_independent_noise():
    # at this exposure the readout noise swamps the light, so scans drawn
    # from one stream would repeat each other row for row
    cfg = load_config()
    cfg = replace(cfg, scans=tuple(replace(scan, exposure=1e-3) for scan in cfg.scans))
    four, five = (series.profiles for series in pipeline.run_all_scans(cfg))
    assert not any(np.array_equal(a, b) for a, b in zip(four, five))
    assert abs(np.corrcoef(four.ravel(), five.ravel())[0, 1]) < 0.01


def test_noise_drawn_in_row_chunks_equals_a_whole_matrix_draw(quiet_cfg, small_source):
    # two whole chunks and a short one; _expected_scan draws every shot-noise
    # value, then every readout value, in one call each
    geom = quiet_cfg.geometry
    scan = ww.ScanConfig(aperture_width=4e-3, n_steps=2 * instrument.SCAN_BLOCK + 5, s_start=-3e-3)
    quiet = ww.run_scan(small_source, geom, scan, ww.DetectorConfig())
    det = ww.DetectorConfig(noise_enabled=True, rng_seed=7)
    series = ww.run_scan(small_source, geom, scan, det)
    expected = _expected_scan(quiet.profiles, quiet.config, det)
    _assert_scan_equals_expected(series, quiet.config.exposure, *expected)


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
            assert series.profiles.tobytes() == reference.profiles.tobytes()
            assert series.midlines.tobytes() == reference.midlines.tobytes()


def test_the_default_run_tabulates_the_pupil_once(monkeypatch):
    # the 4 mm scan reads the first 13,600 entries of the 5 mm scan's 14,000
    positions = []

    def counted(steps, distance, wavelength, x):
        positions.append(np.size(x))
        return fresnel_field(steps, distance, wavelength, x)

    monkeypatch.setattr(instrument, "fresnel_field", counted)
    pipeline.run_all_scans(load_config(seed=0))
    assert sum(positions) == 300 * 40 + 50 * 40 == 14_000


def test_a_table_that_fails_leaves_each_scan_its_own(monkeypatch, quiet_cfg):
    scans = tuple(replace(scan, n_steps=51, s_start=-2e-3) for scan in quiet_cfg.scans)
    cfg = replace(quiet_cfg, scans=scans)
    source = pipeline.make_source(cfg)
    expected = [ww.run_scan(source, cfg.geometry, scan, cfg.detector) for scan in scans]

    def fails(*args):
        raise MemoryError

    monkeypatch.setattr(pipeline, "pupil_table", fails)
    for series, reference in zip(pipeline.run_all_scans(cfg), expected, strict=True):
        assert series.profiles.tobytes() == reference.profiles.tobytes()


def test_the_pupil_table_is_the_scan_optics_table(quiet_cfg, small_source):
    geom, det = quiet_cfg.geometry, quiet_cfg.detector
    wide, narrow = (ww.ScanConfig(aperture_width=w, n_steps=21, s_start=-1e-3) for w in (5e-3, 4e-3))
    table = instrument.pupil_table(small_source, geom, wide)
    assert table.tobytes() == instrument._ScanOptics(small_source, geom, wide, det).table.tobytes()
    # a narrower aperture of the same left edge reads the first entries
    own = instrument._ScanOptics(small_source, geom, narrow, det).table
    shared = instrument._ScanOptics(small_source, geom, narrow, det, table).table
    assert own.size == table.size - 10 * 40 and shared.tobytes() == own.tobytes()


def test_a_shared_pupil_table_cannot_be_written(quiet_cfg, small_source):
    scan = ww.ScanConfig(aperture_width=4e-3, n_steps=3, s_start=-1e-3)
    table = instrument.pupil_table(small_source, quiet_cfg.geometry, scan)
    optics = instrument._ScanOptics(small_source, quiet_cfg.geometry, scan, quiet_cfg.detector, table)
    for array in (table, optics.table):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


def _single_step_series(values, midline=50.0):
    """A one-step scan of values split at midline, a pixel number (default the
    center of 101 pixels)."""
    values = np.asarray(values, dtype=float)
    total = values.sum()
    records = np.rec.fromarrays(
        [[0], [0.0], [total], [0.0], [total]],
        names="step_index,slit_position,total_flux,left_signal,right_signal",
    )
    cfg = ww.ScanConfig(aperture_width=4e-3, n_steps=1)
    return ww.ScanSeries(cfg, records, values[np.newaxis], np.array([midline]))


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
        c, p, d = ww.assignment_probability(_single_step_series(values), guard_px=20)
        assert c == 0.0 and p == 1.0 and d == 1.0

    def test_guard_exceeding_flux_counts_as_contamination(self):
        values = np.zeros(101)
        values[50] = 9.0
        values[90] = 1.0  # 40 px out: beyond the guard band
        c, p, d = ww.assignment_probability(_single_step_series(values), guard_px=20)
        assert c == pytest.approx(0.1)
        assert d == pytest.approx(2 * (0.9 - 0.5))

    def test_centroid_midline_follows_the_image(self):
        values = np.zeros(101)
        values[80] = 10.0  # far off center, but tight around its own centroid
        (centroid,) = _midlines(values[np.newaxis])
        assert centroid == 80.0
        series = _single_step_series(values, centroid)
        c, _, d = ww.assignment_probability(series, guard_px=20)
        assert c == 0.0 and d == 1.0

    def test_majority_contamination_is_a_data_error(self):
        values = np.zeros(101)
        values[50] = 4.0
        values[95] = 6.0  # most flux beyond the guard band: p < 1/2
        with pytest.raises(ww.DataError):
            ww.assignment_probability(_single_step_series(values), guard_px=20)

    def test_zero_flux_raises(self):
        with pytest.raises(ww.NumericalError):
            ww.assignment_probability(_single_step_series(np.zeros(101)), 20)

    def test_negative_guard_raises(self):
        with pytest.raises(ww.ConfigurationError):
            ww.assignment_probability(_single_step_series(np.ones(101)), -1)


def test_pooled_assignment_matches_flux_weighted_average():
    bright = _single_step_series(np.concatenate(([0.0] * 50, [9.0], [0.0] * 50)))
    values = np.zeros(101)
    values[50] = 8.0
    values[5] = 2.0
    dim = _single_step_series(values)
    pairs = [
        (ww.assignment_probability(series, 20)[0], series.profiles.sum())
        for series in (bright, dim)
    ]
    c_pool, p, d = ww.pooled_assignment(pairs)
    assert c_pool == pytest.approx(2.0 / 19.0)
    assert d == pytest.approx(2 * (p - 0.5))
    with pytest.raises(ww.NumericalError):
        ww.pooled_assignment([(0.0, 0.0)])
