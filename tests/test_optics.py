import json
import re
import warnings

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.signal import find_peaks

import whichway as ww
from whichway import pipeline
from whichway.config import load_config
from whichway.optics import (
    GridSpec,
    SampledField,
    amplitude_steps,
    check_wraparound,
    double_slit_field,
    fresnel,
    fresnel_field,
    propagate_fresnel,
)


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
    f = double_slit_field(geom, grid, tilt)
    expected = geom.slit_width * ((1 + tilt / 2) ** 2 + (1 - tilt / 2) ** 2)
    # slit edges are quantized to whole cells
    assert _power(f) == pytest.approx(expected, rel=4 * grid.pitch / geom.slit_width)


def test_double_slit_field_tilt_ratio():
    f = double_slit_field(ww.Geometry(), GridSpec(2**14, 5e-3), 0.1)
    amp = f.amplitudes.real
    assert amp.max() == pytest.approx(1.05)
    assert amp[amp > 0].min() == pytest.approx(0.95)


def test_double_slit_field_grid_preconditions():
    geom = ww.Geometry()
    with pytest.raises(ww.ConfigurationError):
        double_slit_field(geom, GridSpec(64, 5e-3))  # too coarse
    with pytest.raises(ww.ConfigurationError):
        double_slit_field(geom, GridSpec(2**12, 100e-6))  # misses the slits


def _double_slit_field_on_the_whole_grid(geom, grid, tilt):
    """double_slit_field's expressions evaluated at every grid sample."""
    x = grid.positions()
    amp = np.zeros(grid.n)
    half = geom.slit_width / 2
    amp[np.abs(x - geom.slit_sep / 2) <= half] = 1.0 + tilt / 2
    amp[np.abs(x + geom.slit_sep / 2) <= half] = 1.0 - tilt / 2
    return amp.astype(complex)


@pytest.mark.parametrize("tilt", [0.0, 0.1, 2.0, -2.0])
@pytest.mark.parametrize("n", [2**16, 2**17, 2**18, 2**17 + 1])
def test_double_slit_field_sets_the_samples_of_the_whole_grid_masks(n, tilt):
    geom = ww.Geometry()
    for grid in (GridSpec(n), GridSpec(n, 5e-3)):
        got = double_slit_field(geom, grid, tilt).amplitudes
        assert got.dtype == complex
        assert np.array_equal(got, _double_slit_field_on_the_whole_grid(geom, grid, tilt))


def test_double_slit_field_sets_the_samples_on_the_slit_edges():
    # samples at odd multiples of 2^-23 m, and slit edges at +-1441 * 2^-23 m
    # and +-639 * 2^-23 m: |x - c| equals the half width exactly there
    unit = 2.0**-22
    geom = ww.Geometry(slit_width=401 * unit, slit_sep=1040 * unit)
    grid = GridSpec(2**16, 2.0**-7)
    x = grid.positions()
    for tilt in (0.0, 0.1):
        amps = double_slit_field(geom, grid, tilt).amplitudes
        assert np.array_equal(amps, _double_slit_field_on_the_whole_grid(geom, grid, tilt))
        for centre, value in ((geom.slit_sep / 2, 1 + tilt / 2), (-geom.slit_sep / 2, 1 - tilt / 2)):
            on_edge = np.flatnonzero(np.abs(x - centre) == geom.slit_width / 2)
            assert on_edge.size == 2
            assert np.all(amps[on_edge] == value)
            assert np.all(amps[on_edge + [-1, 1]] == 0)


@pytest.mark.parametrize("n", [2**12, 2**12 + 1])
def test_double_slit_field_with_slits_touching_the_grid_span(n):
    geom = ww.Geometry()
    grid = GridSpec(n, geom.slit_sep / 2 + geom.slit_width / 2)
    amps = double_slit_field(geom, grid, 0.1).amplitudes
    assert np.array_equal(amps, _double_slit_field_on_the_whole_grid(geom, grid, 0.1))
    assert amps[0] == 0.95 and amps[-1] == 1.05


def test_double_slit_field_allocates_little_beyond_its_result(traced_peak):
    geom, grid = ww.Geometry(), GridSpec(2**18)
    double_slit_field(geom, grid)
    field, peak = traced_peak(lambda: double_slit_field(geom, grid, 0.1))
    assert peak <= 1.1 * field.amplitudes.nbytes


def _assert_steps_of_the_dense_copy(field):
    dense = SampledField(field.origin, field.pitch, field.amplitudes)
    for got, expected in zip(amplitude_steps(field), amplitude_steps(dense)):
        assert np.array_equal(got, expected)


@pytest.mark.parametrize("tilt", [0.0, 0.1, 2.0, -2.0])
@pytest.mark.parametrize("n", [2**16, 2**17, 2**18, 2**17 + 1])
def test_double_slit_field_keeps_the_window_of_its_slits(n, tilt):
    geom = ww.Geometry()
    for grid in (GridSpec(n), GridSpec(n, 5e-3)):
        field = double_slit_field(geom, grid, tilt)
        assert field.n == n
        lit = (geom.slit_sep + geom.slit_width) / grid.pitch
        assert lit < field.values.size <= lit + 8
        _assert_steps_of_the_dense_copy(field)


def test_the_window_of_slits_with_samples_on_their_edges():
    unit = 2.0**-22
    geom = ww.Geometry(slit_width=401 * unit, slit_sep=1040 * unit)
    for tilt in (0.0, 0.1):
        _assert_steps_of_the_dense_copy(double_slit_field(geom, GridSpec(2**16, 2.0**-7), tilt))


@pytest.mark.parametrize("n", [2**12, 2**12 + 1])
def test_the_window_of_slits_touching_the_grid_span(n):
    geom = ww.Geometry()
    grid = GridSpec(n, geom.slit_sep / 2 + geom.slit_width / 2)
    field = double_slit_field(geom, grid, 0.1)
    assert field.start == 0 and field.values.size == n
    _assert_steps_of_the_dense_copy(field)


@pytest.mark.parametrize("tilt", [0.0, 0.1])
def test_the_window_of_slits_one_sample_apart(tilt):
    # an odd grid has a sample at x = 0, the one sample between the slits
    grid = GridSpec(2**16 + 1, 5e-3)
    geom = ww.Geometry(slit_width=89e-6, slit_sep=89e-6 + grid.pitch)
    field = double_slit_field(geom, grid, tilt)
    lit = np.flatnonzero(field.amplitudes)
    gaps = np.flatnonzero(np.diff(lit) > 1)
    assert gaps.size == 1 and lit[gaps[0] + 1] - lit[gaps[0]] == 2
    assert lit[gaps[0]] + 1 == grid.n // 2
    edges, _ = amplitude_steps(field)
    assert edges.size == 4 and edges[2] - edges[1] == pytest.approx(grid.pitch)
    _assert_steps_of_the_dense_copy(field)


def test_the_source_allocates_nothing_that_grows_with_the_grid(traced_peak):
    # at one pitch, a grid 64 times longer holds the same slit window
    geom, pitch = ww.Geometry(), GridSpec().pitch
    grids = [GridSpec(n, n * pitch / 2) for n in (2**16, 2**22)]
    for grid in grids:
        amplitude_steps(double_slit_field(geom, grid, 0.1))
    peaks = [
        traced_peak(lambda: amplitude_steps(double_slit_field(geom, grid, 0.1)))[1] for grid in grids
    ]
    assert peaks[1] < 64 * 1024
    assert peaks[1] <= 1.1 * peaks[0]


def test_sampled_field_holds_a_window_of_its_grid():
    field = SampledField(-1.0, 0.5, [2.0, 3j], start=3, n=7)
    assert field.n == 7
    assert np.array_equal(field.amplitudes, [0, 0, 0, 2.0, 3j, 0, 0])
    assert np.array_equal(field.positions, -1.0 + 0.5 * np.arange(7))
    dense = SampledField(-1.0, 0.5, np.arange(4.0) + 0j)
    assert dense.n == 4 and dense.amplitudes is dense.values


@pytest.mark.parametrize(
    "start, size, n, message",
    [(-1, 3, 10, "does not lie on its grid"), (8, 3, 10, "does not lie on its grid"),
     (0, 1, 1, ">= 2 samples"), (0, 1, None, ">= 2 samples")],
)
def test_sampled_field_rejects_a_window_off_its_grid(start, size, n, message):
    with pytest.raises(ww.ConfigurationError, match=message):
        SampledField(0.0, 1e-6, np.ones(size), start=start, n=n)


def test_the_grid_layers_read_a_window_as_its_dense_copy():
    geom = ww.Geometry()
    field = double_slit_field(geom, GridSpec(2**16), 0.1)
    dense = SampledField(field.origin, field.pitch, field.amplitudes)
    for distance in (0.0, geom.dist_slits_lens):
        got, expected = (propagate_fresnel(f, distance, geom.wavelength) for f in (field, dense))
        assert (got.origin, got.pitch, got.n) == (expected.origin, expected.pitch, expected.n)
        assert np.array_equal(got.amplitudes, expected.amplitudes)
    got, expected = (ww.instrument.apply_aperture(f, -0.1e-3, 0.23e-3) for f in (field, dense))
    assert (got.origin, got.pitch, got.n) == (expected.origin, expected.pitch, expected.n)
    assert np.array_equal(got.amplitudes, expected.amplitudes)
    assert np.count_nonzero(got.amplitudes)


def test_propagation_conserves_power():
    grid = GridSpec(2**12, 2e-3)
    x = grid.positions()
    rng = np.random.default_rng(7)
    amps = np.exp(-((x / 3e-4) ** 2)) * (rng.normal(size=x.size) + 1j)
    f = SampledField(grid.origin, grid.pitch, amps)
    out = propagate_fresnel(f, 0.01, 650e-9)
    assert _power(out) == pytest.approx(_power(f), rel=1e-12)


def test_propagation_zero_distance_is_identity():
    grid = GridSpec(256, 1e-3)
    f = SampledField(grid.origin, grid.pitch, np.ones(256))
    out = propagate_fresnel(f, 0.0, 650e-9)
    assert np.array_equal(out.amplitudes, f.amplitudes)
    assert out.amplitudes is not f.amplitudes


def test_wraparound_guard_names_a_sufficient_grid_size():
    geom = ww.Geometry()
    pitch = 5e-3 / 4096
    small = double_slit_field(geom, GridSpec(4096, 4096 * pitch / 2))
    with pytest.raises(ww.ConfigurationError) as err:
        propagate_fresnel(small, geom.dist_slits_lens, geom.wavelength)
    match = re.search(r"at least (\d+) samples", str(err.value))
    assert match is not None
    n_min = int(match.group(1))
    # the suggested size (rounded up to a power of two) must actually pass
    n_ok = 2 ** int(np.ceil(np.log2(n_min)))
    big = double_slit_field(geom, GridSpec(n_ok, n_ok * pitch / 2))
    propagate_fresnel(big, geom.dist_slits_lens, geom.wavelength)


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


# the numpy Fresnel integrals against scipy.special.fresnel, absolute
FRESNEL_TOL = 1e-14


def _assert_fresnel_matches_scipy(t):
    s, c = fresnel(t)
    expected_s, expected_c = scipy.special.fresnel(t)
    assert s.shape == c.shape == np.shape(t)
    assert np.abs(s - expected_s).max() <= FRESNEL_TOL
    assert np.abs(c - expected_c).max() <= FRESNEL_TOL


def test_fresnel_matches_scipy_on_a_dense_grid():
    # steps of 1e-4 across the series, the fit and the asymptotic pieces and
    # the joins at |t| = 1.6 and 6, as a (n, 4) array like fresnel_field's
    _assert_fresnel_matches_scipy(np.linspace(-100, 100, 2_000_001)[:-1].reshape(-1, 4))


@given(st.lists(st.floats(-100, 100), min_size=1, max_size=50))
@settings(max_examples=300, deadline=None)
def test_fresnel_matches_scipy_at_any_point(values):
    _assert_fresnel_matches_scipy(np.array(values))


def test_fresnel_is_odd_and_zero_at_zero():
    t = np.linspace(0, 100, 100_001)
    s, c = fresnel(t)
    s_neg, c_neg = fresnel(-t)
    assert np.array_equal(s_neg, -s) and np.array_equal(c_neg, -c)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert fresnel(0.0) == (0.0, 0.0)
        assert fresnel(np.zeros(3))[0].tolist() == [0.0, 0.0, 0.0]


def test_fresnel_tends_to_one_half():
    # C and S approach 1/2 within 1/(pi t)
    t = np.array([1e3, 3.7e4, 1e6, 1e10, 1e100, np.inf])
    for values in (*fresnel(t), *(-v for v in fresnel(-t))):
        assert np.all(np.abs(values - 0.5) <= 1 / (np.pi * t))


def test_amplitude_steps_match_the_differences_of_the_zero_padded_field():
    rng = np.random.default_rng(5)
    for n in (2, 3, 7, 40, 1000):
        for _ in range(20):
            # runs of a few levels, so cells repeat their neighbours
            levels = rng.choice(np.array([0, 0, 1, 2.5, -1 + 0.5j]), size=n)
            field = SampledField(-0.3, 0.01, np.repeat(levels, rng.integers(1, 9, n))[:n])
            padded = np.concatenate(([0], field.amplitudes, [0]))
            at = np.flatnonzero(np.diff(padded))
            if at.size > ww.optics.MAX_AMPLITUDE_STEPS:
                continue
            edges, jumps = amplitude_steps(field)
            assert np.array_equal(edges, field.origin + (at - 0.5) * field.pitch)
            assert np.array_equal(jumps, padded[at] - padded[at + 1])


def test_fresnel_field_matches_quadrature_of_the_kernel():
    geom = ww.Geometry()
    lam, z = geom.wavelength, geom.dist_slits_lens
    source = double_slit_field(geom, GridSpec(2**14, 5e-3), illumination_tilt=0.1)
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


def _fresnel_field_at_once(steps, distance, wavelength, x):
    """fresnel_field's expressions evaluated at every position at once."""
    edges, jumps = steps
    t = np.sqrt(2.0 / (wavelength * distance)) * (edges - np.asarray(x, dtype=float)[..., np.newaxis])
    s, c = fresnel(t)
    return np.einsum("...j,j->...", c + 1j * s, jumps) * (np.exp(-0.25j * np.pi) / np.sqrt(2.0))


BLOCK = ww.optics.FRESNEL_BLOCK


@pytest.mark.parametrize(
    "shape", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5, (301, 8), (3, BLOCK + 1)]
)
def test_fresnel_field_in_blocks_equals_one_evaluation(quiet_cfg, source, shape):
    geom = quiet_cfg.geometry
    steps = amplitude_steps(source)
    x = np.random.default_rng(7).uniform(-20e-3, 20e-3, shape)
    for distance in (geom.dist_slits_lens, geom.dist_slits_direct):
        got = fresnel_field(steps, distance, geom.wavelength, x)
        assert got.shape == x.shape
        assert np.array_equal(got, _fresnel_field_at_once(steps, distance, geom.wavelength, x))


def test_fresnel_field_rejects_fields_of_many_amplitude_steps():
    grid = GridSpec(256, 1e-3)
    ramp = SampledField(grid.origin, grid.pitch, np.arange(256.0))
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
