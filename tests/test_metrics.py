import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import find_peaks

import whichway as ww
from whichway.artifacts import read_csv
from whichway.config import load_config
from whichway.metrics import PEAK_PROMINENCE_FRACTION, PEAK_SELECTOR, _find_peaks


def _fringe_profile(contrast, n=600, period=40.0, phase=0.0, origin=0.0, pitch=1.0):
    x = np.arange(n)
    values = 1.0 + contrast * np.cos(2 * np.pi * x / period + phase)
    return ww.IntensityProfile(origin, pitch, values)


class TestVisibility:
    def test_recovers_the_contrast_of_a_pure_fringe(self):
        for contrast in (0.3, 0.6, 0.9):
            prof = _fringe_profile(contrast)
            v = ww.visibility(prof, "second_third")
            assert v.value == pytest.approx(contrast, abs=1e-3)
            assert v.method == "second_third"

    def test_the_default_rule_is_the_reports(self):
        prof = _fringe_profile(0.6, phase=1.0)
        assert ww.visibility(prof) == ww.visibility(prof, PEAK_SELECTOR)

    def test_negative_troughs_are_clamped(self):
        x = np.arange(500)
        values = np.cos(2 * np.pi * x / 50.0) + 0.98  # dips slightly below zero
        prof = ww.IntensityProfile(0.0, 1.0, values)
        v = ww.visibility(prof, "second_third")
        assert v.i_min == 0.0
        assert v.value == 1.0

    def test_side_peaks_with_no_trough_between_take_the_lowest_sample(self):
        # the dip between the two side peaks is under 2% of the maximum, so
        # it is no trough, and I_min is the lowest sample between the peaks
        values = np.array([0.0, 10.0, 0.0, 5.0, 4.99, 5.0, 0.0])
        v = ww.visibility(ww.IntensityProfile(0.0, 1.0, values))
        assert (v.i_max, v.i_min) == (5.0, 4.99)
        assert v.value == (5.0 - 4.99) / (5.0 + 4.99)

    def test_too_few_extrema_raises(self):
        flat = ww.IntensityProfile(0.0, 1.0, np.linspace(0, 1, 50))
        with pytest.raises(ww.NumericalError):
            ww.visibility(flat, "second_third")

    def test_second_third_needs_two_side_peaks(self):
        x = np.arange(200)
        values = np.exp(-((x - 100.0) ** 2) / 300.0)
        values += 0.5 * np.exp(-((x - 140.0) ** 2) / 80.0)  # one side peak only
        with pytest.raises(ww.NumericalError):
            ww.visibility(ww.IntensityProfile(0.0, 1.0, values), "second_third")

    def test_unknown_selector(self):
        with pytest.raises(ww.ConfigurationError):
            ww.visibility(_fringe_profile(0.5), "fourth")

    def test_the_central_rule_is_gone(self):
        with pytest.raises(ww.ConfigurationError, match="'central'"):
            ww.visibility(_fringe_profile(0.5), "central")

    @given(
        contrast=st.floats(0.15, 0.95),
        scale=st.floats(1e-3, 1e3),
        shift=st.floats(-1e3, 1e3),
        phase=st.floats(0, 2 * np.pi),
    )
    @settings(max_examples=100, deadline=None)
    def test_invariance_under_scaling_and_translation(self, contrast, scale, shift, phase):
        base = _fringe_profile(contrast, phase=phase)
        moved = ww.IntensityProfile(
            base.origin + shift, base.pitch, scale * base.values
        )
        v0 = ww.visibility(base).value
        v1 = ww.visibility(moved).value
        assert v1 == pytest.approx(v0, rel=1e-9, abs=1e-12)


class TestFindPeaks:
    """The peak finder against scipy.signal.find_peaks with a prominence."""

    @staticmethod
    def _assert_matches_scipy(x, prominence):
        x = np.asarray(x, dtype=float)
        expected = find_peaks(x, prominence=prominence)[0]
        assert np.array_equal(_find_peaks(x, prominence), expected), (x, prominence)

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(0, 200),
        prominence=st.sampled_from([0.0, 0.1, 0.5, 1.0, 3.0]),
    )
    @settings(max_examples=300, deadline=None)
    def test_normal_noise(self, seed, n, prominence):
        self._assert_matches_scipy(np.random.default_rng(seed).normal(size=n), prominence)

    # a handful of levels makes many flat tops and flat bottoms, at the ends too
    @given(
        values=st.lists(st.integers(0, 3), max_size=40),
        prominence=st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0]),
    )
    @settings(max_examples=500, deadline=None)
    def test_small_integer_profiles(self, values, prominence):
        self._assert_matches_scipy(values, prominence)

    @pytest.mark.parametrize(
        "values", [[], [1.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 1.0], [1.0, 0.0, 1.0]]
    )
    def test_short_profiles(self, values):
        for prominence in (0.0, 0.5, 2.0):
            self._assert_matches_scipy(values, prominence)

    def test_the_seed_0_reconstruction(self, cli_run):
        values = read_csv(cli_run / "reconstruction.csv", ("position_mm", "P_hat"))["P_hat"]
        prominence = PEAK_PROMINENCE_FRACTION * values.max()
        for x in (values, -values):
            assert _find_peaks(x, prominence).size >= 5
            self._assert_matches_scipy(x, prominence)


class TestDistinguishability:
    def test_paper_values(self):
        assert ww.distinguishability(0.95) == pytest.approx(0.90, abs=1e-15)
        assert ww.distinguishability(1.0) == 1.0
        assert ww.distinguishability(0.5) == 0.0

    def test_out_of_range(self):
        with pytest.raises(ww.DataError):
            ww.distinguishability(0.4)
        with pytest.raises(ww.DataError):
            ww.distinguishability(1.1)

    @given(st.floats(0.5, 1.0), st.floats(0.5, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_affine_and_order_preserving(self, p1, p2):
        d1, d2 = ww.distinguishability(p1), ww.distinguishability(p2)
        if p1 < p2:
            assert d1 < d2
        assert d1 == pytest.approx(2 * p1 - 1, abs=1e-12)


class TestDualityCheck:
    def test_reference_point(self):
        report = ww.duality_check(0.69, 0.90)
        assert report.duality == pytest.approx(1.2861, abs=1e-4)
        assert report.violated

    def test_within_the_bound(self):
        report = ww.duality_check(0.6, 0.6)
        assert report.duality == pytest.approx(0.72)
        assert not report.violated

    def test_input_validation(self):
        with pytest.raises(ww.DataError):
            ww.duality_check(1.2, 0.5)
        with pytest.raises(ww.DataError):
            ww.duality_check(0.5, -0.1)

    def test_json_dict_keys(self):
        d = ww.duality_check(0.5, 0.5, v_method="m1", d_method="m2").to_json_dict()
        assert set(d) == {"V", "D", "duality", "violated", "V_method", "D_method"}
        assert d["V_method"] == "m1"


class TestMatchProfiles:
    def _reference(self):
        x = np.linspace(-8e-3, 8e-3, 801)
        values = np.exp(-((x / 3e-3) ** 2)) * (1 + 0.8 * np.cos(2 * np.pi * x / 1.5e-3))
        return ww.IntensityProfile(x[0], x[1] - x[0], values)

    def test_recovers_a_known_shift_and_scale(self):
        ref = self._reference()
        shift, scale = 0.35e-3, 2.0
        x = ref.positions
        moved = ww.IntensityProfile(
            ref.origin,
            ref.pitch,
            scale * np.interp(x - shift, x, ref.values, left=0.0, right=0.0),
        )
        m = ww.match_profiles(moved, ref, h_scale=1.0, half_window=5e-3)
        assert m.shift == pytest.approx(shift, abs=ref.pitch)
        assert m.v_scale == pytest.approx(scale, rel=1e-2)
        assert m.rms_residual < 1e-3

    def test_h_scale_converts_the_reference_abscissa(self):
        ref = self._reference()
        # express the reference in fake pixel units; h_scale restores meters
        pix = 10e-6
        in_pixels = ww.IntensityProfile(
            ref.origin / pix, ref.pitch / pix, ref.values
        )
        m = ww.match_profiles(ref, in_pixels, h_scale=pix, half_window=5e-3)
        assert abs(m.shift) < ref.pitch
        assert m.rms_residual < 1e-6

    def _assert_on_the_dense_minimum(self, reconstructed, reference, h_scale, half_window):
        # the same residual, one shift at a time: the coarse grid's best,
        # then every 0.01 um over one coarse step either side of it
        m = ww.match_profiles(reconstructed, reference, h_scale, half_window)
        x = reconstructed.positions
        window = np.abs(x) <= half_window
        target = reconstructed.values[window]

        def residual(shift):
            model = m.v_scale * np.interp(
                x[window] - shift, reference.positions * h_scale, reference.values, 0.0, 0.0
            )
            return np.sqrt(np.mean((target - model) ** 2)) / target.max()

        coarse = np.linspace(-half_window, half_window, 201)
        best = coarse[np.argmin([residual(s) for s in coarse])]
        dense = best + np.arange(-5000, 5001) * (half_window / 100 / 5000)
        rms = [residual(s) for s in dense]
        k = int(np.argmin(rms))
        assert abs(m.shift - dense[k]) <= 0.5e-6
        assert rms[k] <= m.rms_residual <= rms[k] * (1 + 1e-5)

    def test_lands_on_the_dense_minimum_of_the_residual(self):
        # a moved, rescaled and tilted copy leaves a residual at every shift
        ref = self._reference()
        x = ref.positions
        moved = np.interp(x - 0.3337e-3, x, ref.values, left=0.0, right=0.0)
        tilted = ww.IntensityProfile(ref.origin, ref.pitch, 2.0 * moved * (1 + 20 * x))
        self._assert_on_the_dense_minimum(tilted, ref, 1.0, 5e-3)

    def test_lands_on_the_dense_minimum_for_the_seed_0_run(self, cli_run):
        cfg = load_config()
        x_mm, p_hat = read_csv(cli_run / "reconstruction.csv", ("position_mm", "P_hat")).values()
        recon = ww.IntensityProfile(x_mm[0] * 1e-3, (x_mm[1] - x_mm[0]) * 1e-3, np.clip(p_hat, 0, None))
        x, values = read_csv(cli_run / "fringes.csv", ("position_m", "value")).values()
        fringes = ww.IntensityProfile(x[0], x[1] - x[0], np.clip(values, 0, None))
        self._assert_on_the_dense_minimum(recon, fringes, cfg.h_scale, cfg.window_half)
        # the report matches the same two profiles in metres
        m = ww.match_profiles(recon, fringes, cfg.h_scale, cfg.window_half)
        assert (
            f"shift = {m.shift * 1e3:+.3f} mm, v_scale = {m.v_scale:.4g}, "
            f"normalized RMS = {m.rms_residual:.4f}\n"
        ) in (cli_run / "summary.txt").read_text()

    def _assert_residuals_equal_the_old_expression(self, monkeypatch, reconstructed, reference,
                                                  h_scale, half_window):
        # the residuals of both shift grids, as match_profiles takes their
        # square roots, against the out-of-place expression at those shifts
        seen = []

        class Recorder:
            def __getattr__(self, name):
                return getattr(np, name)

            def sqrt(self, values):
                seen.append(np.sqrt(values))
                return seen[-1]

        monkeypatch.setattr(ww.metrics, "np", Recorder())
        m = ww.match_profiles(reconstructed, reference, h_scale, half_window)
        monkeypatch.undo()
        x = reconstructed.positions
        window = np.abs(x) <= half_window
        xw, target = x[window], reconstructed.values[window]
        ref_x = reference.positions * h_scale

        def residuals(shifts):
            model = m.v_scale * np.interp(xw - shifts[:, None], ref_x, reference.values, 0.0, 0.0)
            return np.sqrt(np.mean((target - model) ** 2, axis=1))

        coarse = np.linspace(-half_window, half_window, 201)
        fine = coarse[np.argmin(seen[0])] + half_window / 100**2 * np.arange(-100, 101)
        assert len(seen) == 2
        assert np.array_equal(seen[0], residuals(coarse))
        assert np.array_equal(seen[1], residuals(fine))
        assert m.rms_residual == seen[1].min() / target.max()

    def test_residuals_equal_the_old_expression(self, monkeypatch, cli_run):
        ref = self._reference()
        x = ref.positions
        moved = np.interp(x - 0.3337e-3, x, ref.values, left=0.0, right=0.0)
        tilted = ww.IntensityProfile(ref.origin, ref.pitch, 2.0 * moved * (1 + 20 * x))
        self._assert_residuals_equal_the_old_expression(monkeypatch, tilted, ref, 1.0, 5e-3)
        cfg = load_config()
        x_mm, p_hat = read_csv(cli_run / "reconstruction.csv", ("position_mm", "P_hat")).values()
        recon = ww.IntensityProfile(x_mm[0] * 1e-3, (x_mm[1] - x_mm[0]) * 1e-3, np.clip(p_hat, 0, None))
        x, values = read_csv(cli_run / "fringes.csv", ("position_m", "value")).values()
        fringes = ww.IntensityProfile(x[0], x[1] - x[0], np.clip(values, 0, None))
        self._assert_residuals_equal_the_old_expression(
            monkeypatch, recon, fringes, cfg.h_scale, cfg.window_half
        )

    def _tilted(self):
        ref = self._reference()
        x = ref.positions
        moved = np.interp(x - 0.3337e-3, x, ref.values, left=0.0, right=0.0)
        return ww.IntensityProfile(ref.origin, ref.pitch, 2.0 * moved * (1 + 20 * x))

    @staticmethod
    def _seed_0_profiles(cli_run):
        x_mm, p_hat = read_csv(cli_run / "reconstruction.csv", ("position_mm", "P_hat")).values()
        recon = ww.IntensityProfile(x_mm[0] * 1e-3, (x_mm[1] - x_mm[0]) * 1e-3, np.clip(p_hat, 0, None))
        x, values = read_csv(cli_run / "fringes.csv", ("position_m", "value")).values()
        return recon, ww.IntensityProfile(x[0], x[1] - x[0], np.clip(values, 0, None))

    @staticmethod
    def _fresh(monkeypatch, *args):
        """match_profiles(*args) with its slot of model rows emptied first."""
        monkeypatch.setattr(ww.metrics, "_ROWS", None)
        return ww.match_profiles(*args)

    @staticmethod
    def _kept_rows():
        return [a for a in ww.metrics._ROWS if isinstance(a, np.ndarray) and a.ndim == 2]

    def test_a_kept_match_equals_a_fresh_one(self, monkeypatch, cli_run):
        cfg = load_config()
        recon, fringes = self._seed_0_profiles(cli_run)
        for args in ((self._tilted(), self._reference(), 1.0, 5e-3),
                     (recon, fringes, cfg.h_scale, cfg.window_half)):
            ww.match_profiles(*args)
            rows = self._kept_rows()
            kept = ww.match_profiles(*args)
            # the second call read both grids' rows from the slot
            assert all(a is b for a, b in zip(self._kept_rows(), rows))
            assert kept == self._fresh(monkeypatch, *args)

    def test_a_changed_reference_or_window_is_interpolated_again(self, monkeypatch):
        reference, tilted = self._reference(), self._tilted()
        base = (tilted, reference, 1.0, 5e-3)
        shifted = ww.IntensityProfile(tilted.origin + tilted.pitch / 3, tilted.pitch, tilted.values)
        # the same grid with its fringes moved: another fine shift grid
        moved = ww.IntensityProfile(tilted.origin, tilted.pitch, np.roll(tilted.values, 40))
        # samples that both half windows hold whole: the same window positions
        narrow = ww.IntensityProfile(-3e-3, tilted.pitch, tilted.values[250:551])
        for first, then in ((base, (tilted, reference, 1.02, 5e-3)),
                            (base, (tilted, reference, 1.0, 4e-3)),
                            (base, (shifted, reference, 1.0, 5e-3)),
                            (base, (moved, reference, 1.0, 5e-3)),
                            ((narrow, reference, 1.0, 5e-3), (narrow, reference, 1.0, 4e-3))):
            before = ww.match_profiles(*first)
            changed = ww.match_profiles(*then)
            assert changed != before
            assert changed == self._fresh(monkeypatch, *then)
        before = ww.match_profiles(*base)
        reference.values[::7] *= 1.3
        edited = ww.match_profiles(*base)
        assert edited != before
        assert edited == self._fresh(monkeypatch, *base)

    def test_every_number_that_fixes_the_rows_is_keyed(self, monkeypatch):
        # each change moves the window positions, the scaled reference abscissa
        # or the coarse grid, so the kept rows cannot serve it
        reference, tilted = self._reference(), self._tilted()

        def moved(p, by=0.0, scale=1.0):
            return ww.IntensityProfile(p.origin + by * p.pitch, p.pitch * scale, p.values)

        base = (tilted, reference, 1.0, 5e-3)
        for then in ((moved(tilted, by=1 / 3), reference, 1.0, 5e-3),
                     (moved(tilted, scale=1.001), reference, 1.0, 5e-3),
                     (tilted, moved(reference, by=1 / 3), 1.0, 5e-3),
                     (tilted, moved(reference, scale=1.001), 1.0, 5e-3),
                     (tilted, reference, 1.001, 5e-3),
                     (tilted, reference, 1.0, 4.9e-3)):
            ww.match_profiles(*base)
            rows = self._kept_rows()
            changed = ww.match_profiles(*then)
            assert not any(a is b for a, b in zip(self._kept_rows(), rows))
            assert changed == self._fresh(monkeypatch, *then)

    def test_the_kept_rows_are_read_only(self):
        ww.match_profiles(self._tilted(), self._reference(), 1.0, 5e-3)
        rows = self._kept_rows()
        assert len(rows) == 2
        for r in rows:
            assert not r.flags.writeable
            with pytest.raises(ValueError):
                r[0, 0] = 1.0

    def test_two_references_used_alternately(self, monkeypatch):
        tilted, reference = self._tilted(), self._reference()
        other = ww.IntensityProfile(reference.origin, reference.pitch, reference.values ** 2)
        expected = [self._fresh(monkeypatch, tilted, r, 1.0, 5e-3) for r in (reference, other)]
        assert expected[0] != expected[1]
        for _ in range(3):
            for r, want in zip((reference, other), expected):
                assert ww.match_profiles(tilted, r, 1.0, 5e-3) == want

    def test_validation(self):
        ref = self._reference()
        with pytest.raises(ww.ConfigurationError):
            ww.match_profiles(ref, ref, h_scale=0.0)
        far = ww.IntensityProfile(5.0, 1e-3, np.ones(10))
        with pytest.raises(ww.ConfigurationError):
            ww.match_profiles(ref, far, h_scale=1.0)

    def test_profiles_without_light_raise(self):
        ref = self._reference()
        dark = ww.IntensityProfile(ref.origin, ref.pitch, np.zeros(ref.n))
        with pytest.raises(ww.NumericalError, match="reconstructed profile has no positive peak"):
            ww.match_profiles(dark, ref, h_scale=1.0)
        with pytest.raises(ww.NumericalError, match="reference profile has no positive value"):
            ww.match_profiles(ref, dark, h_scale=1.0)
