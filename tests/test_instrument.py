from dataclasses import replace

import numpy as np
import pytest
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
)
from whichway.optics import GridSpec, amplitude_steps, fresnel_field
from whichway.reconstruct import OPENINGS


def _power(field):
    """Total power of a grid field, sum |a|^2 * pitch."""
    return float(np.sum(np.abs(field.amplitudes) ** 2) * field.pitch)


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
        assert _power(out) == pytest.approx(self.WIDTH, rel=1e-12)

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
    return ww.double_slit_field(
        quiet_cfg.geometry, GridSpec(2**16, quiet_cfg.grid.half_span), quiet_cfg.illumination_tilt
    )


@pytest.mark.parametrize("width", [2e-3, 4e-3, 8e-3])
def test_scan_engine_matches_the_oracle(quiet_cfg, width):
    geom, det = quiet_cfg.geometry, quiet_cfg.detector
    scan = ww.ScanConfig(aperture_width=width)  # the default 301-step scan
    positions = [scan.s_start + k * scan.step for k in (0, 75, 150, 225, 300)]
    rows, steps = [], []
    for grid_n in (2**16, 2**17, 2**18):
        source = ww.double_slit_field(
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


@pytest.mark.parametrize("index, n, nfft", [(0, 1600, 5760), (1, 2000, 6125)])
def test_chirp_z_matches_scipy_bit_for_bit(quiet_cfg, source, monkeypatch, index, n, nfft):
    # every step of the default 4 and 5 mm scans, the exposure step included
    scan = quiet_cfg.scans[index]
    chirp_z, made, calls = instrument._chirp_z, [], []

    def checked(*args, **kwargs):
        ours, theirs = chirp_z(*args, **kwargs), CZT(*args, **kwargs)
        made.append(theirs)

        def transform(x):
            calls.append(x.size)
            y = ours(x)
            assert np.array_equal(y, theirs(x))
            return y

        return transform

    monkeypatch.setattr(instrument, "_chirp_z", checked)
    ww.run_scan(source, quiet_cfg.geometry, scan, quiet_cfg.detector)
    (czt,) = made
    m = quiet_cfg.detector.n_pixels * instrument.SUBSAMPLES + 2
    assert (czt.n, czt.m, czt._nfft) == (n, m, nfft)
    assert calls == [n] * (scan.n_steps + 1)


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
    signals = [ww.split_signals(row, m) for row, m in zip(rows, _midlines(rows, scan.midline))]
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


@pytest.mark.parametrize("opening", OPENINGS)
@pytest.mark.parametrize("width", [2e-3, 4e-3, 8e-3])
def test_run_scan_matches_the_oracle(quiet_cfg, small_source, width, opening):
    geom = quiet_cfg.geometry
    base = ww.ScanConfig(aperture_width=width, step=5e-4, n_steps=12, s_start=-3e-3, opening=opening)
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
    for midline in ("center", "centroid"):
        for noise in (False, True):
            scan = replace(base, midline=midline)
            det = ww.DetectorConfig(noise_enabled=noise, rng_seed=11)
            series = ww.run_scan(small_source, geom, scan, det)
            expected = _expected_scan(quiet.profiles, scan, det)
            _assert_scan_equals_expected(series, exposure, *expected)


def test_scan_step_leaving_the_grid_names_the_first_such_step(quiet_cfg, small_source, monkeypatch):
    # a stage ratio of 0.2 leaves the camera behind the slit image, which
    # rides at about -1.09 s: from s = 38.5 mm on, the camera window leaves
    # the span the aperture cells resolve (the integrand turns more than a
    # quarter cycle per cell), so step 3 (s = 39 mm) fails the guard first
    scan = ww.ScanConfig(
        aperture_width=4e-3, step=1e-3, n_steps=200, s_start=36e-3, exposure=1.0, stage_ratio=0.2
    )
    calls = []
    step = instrument._ScanOptics.step

    def counted(self, s):
        calls.append(s)
        return step(self, s)

    monkeypatch.setattr(instrument._ScanOptics, "step", counted)
    with pytest.raises(
        ww.ConfigurationError, match=r"^scan step 3 \(s = 0\.039 m\): imaging sampling bound"
    ):
        ww.run_scan(small_source, quiet_cfg.geometry, scan, quiet_cfg.detector)
    # the scan stops at the failing step: steps 0-3 were evaluated, in order
    assert calls == [scan.s_start + k * scan.step for k in range(4)]


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
    midlines = _midlines(series.profiles, "centroid")
    assert np.all(midlines[off] == det.center_index)
    assert np.allclose(midlines[on], centroids[on], rtol=1e-12)


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


def test_the_scans_of_a_run_draw_independent_noise(source):
    # at this exposure the readout noise swamps the light, so scans drawn
    # from one stream would repeat each other row for row
    cfg = load_config()
    cfg = replace(cfg, scans=tuple(replace(scan, exposure=1e-3) for scan in cfg.scans))
    four, five = (series.profiles for series in pipeline.run_all_scans(cfg, source))
    assert not any(np.array_equal(a, b) for a, b in zip(four, five))
    assert abs(np.corrcoef(four.ravel(), five.ravel())[0, 1]) < 0.01


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
