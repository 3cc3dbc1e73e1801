import os
import sys
import time
from dataclasses import replace

import numpy as np
import pytest
from numpy.fft import ifft

import whichway as ww
from whichway import instrument
from whichway.instrument import (
    AUTO_EXPOSURE_FRACTION,
    FULL_WELL,
    _bin_intensity,
    _midlines,
    _noisy_average,
    _step_rng,
)
from whichway.optics import GridSpec, fresnel_spectrum
from whichway.reconstruct import OPENINGS


def _flat_field(n=2048, half=2e-3):
    grid = GridSpec(n, half)
    return ww.SampledField(grid.origin, grid.pitch, np.ones(n))


class TestApplyAperture:
    WIDTH = 0.7345e-3  # deliberately not a multiple of the pitch

    # the interval lies right of, left of, or centred on 0.11 mm
    @pytest.mark.parametrize(
        "left_edge",
        [0.11e-3, 0.11e-3 - WIDTH, 0.11e-3 - WIDTH / 2],
        ids=["rightward", "leftward", "centered"],
    )
    def test_transmitted_power_equals_window_width(self, left_edge):
        out = ww.apply_aperture(_flat_field(), left_edge, self.WIDTH)
        assert out.power == pytest.approx(self.WIDTH, rel=1e-12)

    def test_rightward_fixes_the_left_edge(self):
        field = _flat_field()
        out = ww.apply_aperture(field, 0.5e-3, 1e-3)
        x = out.positions[np.abs(out.amplitudes) > 0.5]
        assert x.min() > 0.5e-3 - out.pitch
        assert x.max() < 1.5e-3 + out.pitch

    def test_outside_grid_warns_and_zeroes(self):
        field = _flat_field()
        with pytest.warns(UserWarning, match="outside"):
            out = ww.apply_aperture(field, 1.0, 1e-3)
        assert out.power == 0.0


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
        with pytest.raises(ww.ConfigurationError):
            ww.ScanConfig(aperture_width=4e-3, midline="median")
        with pytest.raises(ww.ConfigurationError):
            ww.ScanConfig(aperture_width=-1e-3)
        with pytest.raises(ww.ConfigurationError):
            ww.ScanConfig(aperture_width=4e-3, opening="diagonal")


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


def _reference_profiles(source, geom, scan, det, positions):
    """Noiseless unit-exposure profiles composed from the public layers."""
    spectrum, f = fresnel_spectrum(source, geom.dist_slits_lens, geom.wavelength)
    profiles = []
    for s in positions:
        pupil = replace(source, amplitudes=ifft(spectrum * np.exp(-2j * np.pi * f * s)))
        masked = ww.apply_aperture(pupil, scan.aperture_left_edge(), scan.aperture_width)
        profiles.append(ww.image_slits(masked, geom, det, -scan.stage_ratio * s))
    return profiles


def _reference_scan(profiles, scan, det):
    """run_scan's exposure, pixel matrix and signals, rebuilt from the reference profiles.

    profiles[0] is the profile at s = 0, profiles[1 + k] that of step k.
    """
    exposure = AUTO_EXPOSURE_FRACTION * FULL_WELL / (profiles[0].values.max() * det.gain)
    rows = []
    for k, profile in enumerate(profiles[1:]):
        values = profile.values * exposure
        if det.noise_enabled:
            values = _noisy_average(values, det, scan.frames_per_step, _step_rng(det.rng_seed, k))
        rows.append(values)
    rows = np.array(rows)
    signals = [ww.split_signals(row, m) for row, m in zip(rows, _midlines(rows, scan.midline))]
    return exposure, rows, signals


def test_auto_exposure_targets_the_full_well_fraction(quiet_cfg, source):
    geom = quiet_cfg.geometry
    scan = quiet_cfg.scans[0]
    det = quiet_cfg.detector
    exposure = ww.auto_exposure(source, geom, scan, det)
    (profile,) = _reference_profiles(source, geom, scan, det, [0.0])
    assert profile.values.max() * exposure * det.gain == pytest.approx(
        AUTO_EXPOSURE_FRACTION * FULL_WELL, rel=1e-9
    )


@pytest.fixture(scope="module")
def small_source(quiet_cfg):
    return ww.double_slit_field(
        quiet_cfg.geometry, GridSpec(2**16, quiet_cfg.grid.half_span), quiet_cfg.illumination_tilt
    )


def _assert_scan_equals_reference(series, exposure, rows, signals):
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


@pytest.mark.parametrize("opening", OPENINGS)
@pytest.mark.parametrize("width", [2e-3, 4e-3, 8e-3])
def test_run_scan_matches_the_public_layers_bit_for_bit(quiet_cfg, small_source, width, opening):
    geom = quiet_cfg.geometry
    base = ww.ScanConfig(aperture_width=width, step=5e-4, n_steps=12, s_start=-3e-3, opening=opening)
    positions = [0.0, *(base.s_start + k * base.step for k in range(base.n_steps))]
    profiles = _reference_profiles(small_source, geom, base, quiet_cfg.detector, positions)
    for midline in ("center", "centroid"):
        for noise in (False, True):
            scan = replace(base, midline=midline)
            det = ww.DetectorConfig(noise_enabled=noise, rng_seed=11)
            series = ww.run_scan(small_source, geom, scan, det)
            _assert_scan_equals_reference(series, *_reference_scan(profiles, scan, det))


def test_run_scan_does_not_depend_on_the_worker_count(quiet_cfg, small_source, monkeypatch):
    geom = quiet_cfg.geometry
    scan = ww.ScanConfig(aperture_width=4e-3, n_steps=8, s_start=-4e-4, midline="centroid")
    det = ww.DetectorConfig(noise_enabled=True, rng_seed=3)
    series = {}
    for cpus in (1, 8):  # one worker, and more workers than this machine has cores
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        assert instrument._worker_count() == cpus
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, mid-step
        try:
            series[cpus] = ww.run_scan(small_source, geom, scan, det)
        finally:
            sys.setswitchinterval(interval)
    assert series[1].config == series[8].config
    assert np.array_equal(series[1].profiles, series[8].profiles)
    assert np.array_equal(series[1].records, series[8].records)


def test_scan_step_leaving_the_grid_names_the_first_such_step(quiet_cfg, small_source, monkeypatch):
    # the 13.3 mm camera window rides at -1.07 s and leaves the +-40 mm grid
    # from s = 31.5 mm on, which is step 3 of this scan
    scan = ww.ScanConfig(aperture_width=4e-3, step=5e-4, n_steps=200, s_start=30e-3, exposure=1.0)
    calls = []
    step = instrument._ScanOptics.step

    def counted(self, s):
        calls.append(s)
        time.sleep(0.005)  # a failing step returns at once; keep steps pending
        return step(self, s)

    monkeypatch.setattr(instrument._ScanOptics, "step", counted)
    with pytest.raises(ww.ConfigurationError, match=r"^scan step 3 \(s = 0\.0315 m\): requested bins"):
        ww.run_scan(small_source, quiet_cfg.geometry, scan, quiet_cfg.detector)
    # the steps still pending when step 3 failed were cancelled
    assert len(calls) < 50


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


def test_run_scan_noise_reproducible(quiet_cfg, source):
    geom = quiet_cfg.geometry
    scan = ww.ScanConfig(aperture_width=4e-3, n_steps=3, s_start=-1e-4)
    det = ww.DetectorConfig(noise_enabled=True, rng_seed=5)
    one = ww.run_scan(source, geom, scan, det)
    two = ww.run_scan(source, geom, scan, det)
    assert np.array_equal(one.profiles, two.profiles)
    other = ww.run_scan(source, geom, scan, ww.DetectorConfig(noise_enabled=True, rng_seed=6))
    assert not np.array_equal(one.profiles[0], other.profiles[0])


def _single_step_series(values, midline="center"):
    values = np.asarray(values, dtype=float)
    total = values.sum()
    records = np.rec.fromarrays(
        [[0], [0.0], [total], [0.0], [total]],
        names="step_index,slit_position,total_flux,left_signal,right_signal",
    )
    cfg = ww.ScanConfig(aperture_width=4e-3, n_steps=1, midline=midline)
    return ww.ScanSeries(cfg, records, values[np.newaxis])


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
        series = _single_step_series(values, midline="centroid")
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
