import json
import re

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.signal import find_peaks

import whichway as ww
from whichway import pipeline
from whichway.config import load_config
from whichway.optics import GridSpec, amplitude_steps, check_wraparound, fresnel_field


def _power(field):
    """Total power of a grid field, sum |a|^2 * pitch."""
    return float(np.sum(np.abs(field.amplitudes) ** 2) * field.pitch)


def test_geometry_defaults():
    g = ww.Geometry()
    assert g.wavelength == 650e-9
    assert g.slit_width == 89e-6
    assert g.slit_sep == 248e-6
    expected_defect = abs(1 / 0.58 + 1 / 0.63 - 1 / 0.30) * 0.30
    assert g.lens_defect == pytest.approx(expected_defect, rel=1e-12)


def test_geometry_validation():
    with pytest.raises(ww.ConfigurationError):
        ww.Geometry(wavelength=0.0)
    with pytest.raises(ww.ConfigurationError):
        ww.Geometry(slit_sep=50e-6)  # slits would overlap


def test_geometry_config_block(tmp_path):
    assert load_config().geometry == ww.Geometry()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"geometry": {"focal_m": 0.25}}))
    assert load_config(str(path)).geometry == ww.Geometry(focal_length=0.25)
    path.write_text(json.dumps({"geometry": {"banana_m": 1.0}}))
    with pytest.raises(ww.ConfigurationError, match="banana_m"):
        load_config(str(path))


def test_fringe_scale_value():
    # lambda L_S / d with the default layout
    assert ww.fringe_scale(ww.Geometry()) == pytest.approx(1.520e-3, rel=1e-3)


def test_fresnel_number_is_small_at_the_lens():
    n = ww.fresnel_number(ww.Geometry(), 0.58)
    assert n == pytest.approx(((248e-6 + 89e-6) / 2) ** 2 / (650e-9 * 0.58))
    assert n < 0.1


def test_grid_positions_cell_centered():
    grid = GridSpec(8, 4e-3)
    x = grid.positions()
    assert x.size == 8
    assert abs(x.mean()) < 1e-18
    assert np.allclose(np.diff(x), grid.pitch)


def test_double_slit_field_power():
    geom = ww.Geometry()
    grid = GridSpec(2**14, 5e-3)
    tilt = 0.1
    f = ww.double_slit_field(geom, grid, tilt)
    expected = geom.slit_width * ((1 + tilt / 2) ** 2 + (1 - tilt / 2) ** 2)
    # slit edges are quantized to whole cells
    assert _power(f) == pytest.approx(expected, rel=4 * grid.pitch / geom.slit_width)


def test_double_slit_field_tilt_ratio():
    f = ww.double_slit_field(ww.Geometry(), GridSpec(2**14, 5e-3), 0.1)
    amp = f.amplitudes.real
    assert amp.max() == pytest.approx(1.05)
    assert amp[amp > 0].min() == pytest.approx(0.95)


def test_double_slit_field_grid_preconditions():
    geom = ww.Geometry()
    with pytest.raises(ww.ConfigurationError):
        ww.double_slit_field(geom, GridSpec(64, 5e-3))  # too coarse
    with pytest.raises(ww.ConfigurationError):
        ww.double_slit_field(geom, GridSpec(2**12, 100e-6))  # misses the slits


def test_propagation_conserves_power():
    grid = GridSpec(2**12, 2e-3)
    x = grid.positions()
    rng = np.random.default_rng(7)
    amps = np.exp(-((x / 3e-4) ** 2)) * (rng.normal(size=x.size) + 1j)
    f = ww.SampledField(grid.origin, grid.pitch, amps)
    out = ww.propagate_fresnel(f, 0.01, 650e-9)
    assert _power(out) == pytest.approx(_power(f), rel=1e-12)


def test_propagation_zero_distance_is_identity():
    grid = GridSpec(256, 1e-3)
    f = ww.SampledField(grid.origin, grid.pitch, np.ones(256))
    out = ww.propagate_fresnel(f, 0.0, 650e-9)
    assert np.array_equal(out.amplitudes, f.amplitudes)
    assert out.amplitudes is not f.amplitudes


def test_wraparound_guard_names_a_sufficient_grid_size():
    geom = ww.Geometry()
    pitch = 5e-3 / 4096
    small = ww.double_slit_field(geom, GridSpec(4096, 4096 * pitch / 2))
    with pytest.raises(ww.ConfigurationError) as err:
        ww.propagate_fresnel(small, geom.dist_slits_lens, geom.wavelength)
    match = re.search(r"at least (\d+) samples", str(err.value))
    assert match is not None
    n_min = int(match.group(1))
    # the suggested size (rounded up to a power of two) must actually pass
    n_ok = 2 ** int(np.ceil(np.log2(n_min)))
    big = ww.double_slit_field(geom, GridSpec(n_ok, n_ok * pitch / 2))
    ww.propagate_fresnel(big, geom.dist_slits_lens, geom.wavelength)


def test_check_wraparound_ignores_empty_spectrum():
    check_wraparound(np.zeros(64, dtype=complex), 1e-6, 1.0, 650e-9)


def test_amplitude_steps_are_the_slit_edges(quiet_cfg, source):
    geom, tilt = quiet_cfg.geometry, quiet_cfg.illumination_tilt
    edges, jumps = amplitude_steps(source)
    centres = np.array([-1, -1, 1, 1]) * geom.slit_sep / 2
    nominal = centres + np.array([-1, 1, -1, 1]) * geom.slit_width / 2
    # each edge lies on a cell edge of the grid, within a cell of its nominal place
    assert np.abs(edges - nominal).max() <= source.pitch
    cells = (edges - source.origin) / source.pitch + 0.5
    assert np.allclose(cells, np.round(cells), rtol=0, atol=1e-6)
    # left minus right value: a slit opens with a drop and closes with a rise
    left, right = 1 - tilt / 2, 1 + tilt / 2
    assert np.array_equal(jumps, [-left, left, -right, right])


def test_fresnel_field_matches_quadrature_of_the_kernel():
    geom = ww.Geometry()
    lam, z = geom.wavelength, geom.dist_slits_lens
    source = ww.double_slit_field(geom, GridSpec(2**14, 5e-3), illumination_tilt=0.1)
    # each slit is a run of lit cells
    lit = np.flatnonzero(source.amplitudes)
    split = int(np.flatnonzero(np.diff(lit) > 1)[0])
    slits = [
        (source.positions[first] - source.pitch / 2, source.positions[last] + source.pitch / 2,
         source.amplitudes[first].real)
        for first, last in ((lit[0], lit[split]), (lit[split + 1], lit[-1]))
    ]

    def by_quadrature(x):
        # exp(i pi (x - t)^2 / (lambda z)) / sqrt(i lambda z) over each slit
        def kernel(t, trig):
            return trig(np.pi * (x - t) ** 2 / (lam * z))

        field = 0j
        for a, b, amp in slits:
            re, im = (quad(kernel, a, b, (trig,), epsabs=0)[0] for trig in (np.cos, np.sin))
            field += amp * (re + 1j * im)
        return field / np.sqrt(1j * lam * z)

    x = np.array([0.0, 0.7e-3, -3.1e-3, 9e-3, -17e-3])
    expected = np.array([by_quadrature(xi) for xi in x])
    got = fresnel_field(amplitude_steps(source), z, lam, x)
    assert np.abs(got - expected).max() <= 1e-10 * np.abs(expected).max()


def test_pupil_truth_integrates_the_fresnel_pupil_over_each_bin(quiet_cfg, source):
    geom = quiet_cfg.geometry
    positions, step = np.array([-12.3e-3, -0.1e-3, 0.0, 2.2e-3, 7.5e-3]), 0.1e-3
    truth = pipeline.pupil_truth(geom, source, positions, step)
    steps = amplitude_steps(source)

    def intensity(u):
        field = fresnel_field(steps, geom.dist_slits_lens, geom.wavelength, u)
        return abs(field) ** 2

    expected = [
        quad(intensity, p - step / 2, p + step / 2, epsabs=0, epsrel=1e-12)[0] for p in positions
    ]
    assert np.allclose(truth, expected, rtol=1e-10, atol=0)


def test_fresnel_field_rejects_fields_of_many_amplitude_steps():
    grid = GridSpec(256, 1e-3)
    ramp = ww.SampledField(grid.origin, grid.pitch, np.arange(256.0))
    with pytest.raises(ww.ConfigurationError, match="256 amplitude steps"):
        fresnel_field(amplitude_steps(ramp), 0.5, 650e-9, np.zeros(3))


def test_pupil_fringe_peaks_match_the_analytic_pattern(quiet_cfg, source):
    geom = quiet_cfg.geometry
    w_scale = ww.fringe_scale(geom)
    # the pupil at the lens on a 1 um pitch over the central fringes, away
    # from the envelope null
    pitch = 1e-6
    x = pitch * np.arange(-3200, 3201)
    field = fresnel_field(amplitude_steps(source), geom.dist_slits_lens, geom.wavelength, x)
    intensity = np.abs(field) ** 2
    min_dist = int(0.5 * w_scale / pitch)
    peaks, _ = find_peaks(
        intensity, prominence=0.05 * intensity.max(), distance=min_dist
    )
    analytic = ww.fraunhofer_intensity(geom, geom.dist_slits_lens, x)
    expected, _ = find_peaks(
        analytic, prominence=0.05 * analytic.max(), distance=min_dist
    )
    assert peaks.size == expected.size >= 5
    # the envelope pulls the side peaks slightly inside multiples of W;
    # the propagated field must reproduce the analytic positions
    assert np.allclose(x[peaks], x[expected], atol=0.05e-3)
    spacing = np.median(np.diff(x[peaks]))
    assert spacing == pytest.approx(w_scale, rel=0.1)


def test_fraunhofer_on_axis_and_first_null():
    geom = ww.Geometry()
    vals = ww.fraunhofer_intensity(geom, 0.58, np.array([0.0]))
    assert vals[0] == pytest.approx(1.0)
    half_period = ww.fringe_scale(geom) / 2
    null = ww.fraunhofer_intensity(geom, 0.58, np.array([half_period]))
    assert null[0] < 1e-3


def test_fraunhofer_warns_in_the_near_field():
    geom = ww.Geometry()
    with pytest.warns(UserWarning, match="far-field"):
        ww.fraunhofer_intensity(geom, 0.02, np.array([0.0]))
