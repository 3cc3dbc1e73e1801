import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import whichway as ww


def _row_columns(matrix, i):
    """1-based columns holding a 1 in 1-based row i of the matrix."""
    return list(np.flatnonzero(matrix[i - 1]) + 1)


# (n, width_elems, opening, anchor, band_left, band_right): 1-based row i of
# the matrix holds ones at i - band_left < j <= i + band_right, clipped to [1, n]
BANDS = [
    (301, 50, "rightward", 20, 20, 30),
    (10, 3, "rightward", 0, 0, 3),
    (7, 7, "leftward", 0, 7, 0),
    (1, 1, "rightward", 20, 1, 0),
    (10, 8, "rightward", 5, 5, 3),
    (301, 50, "leftward", 20, 30, 20),
    (10, 8, "leftward", 5, 3, 5),
    (50, 8, "leftward", 20, 0, 8),
    (100, 6, "centered", 20, 3, 3),
    (7, 7, "centered", 0, 3, 4),
]


class TestApertureMatrix:
    def test_forty_element_band(self):
        a = ww.build_aperture_matrix(301, 40)
        assert isinstance(a, np.ndarray) and a.shape == (301, 301)
        # 1-based row i holds ones at i - 20 < j <= i + 20
        assert _row_columns(a, 150) == list(range(131, 171))
        assert _row_columns(a, 1) == list(range(1, 22))  # clipped at the edge
        assert _row_columns(a, 301) == list(range(282, 302))

    def test_fifty_element_band_shares_the_fixed_edge(self):
        a = ww.build_aperture_matrix(301, 50)
        assert _row_columns(a, 150) == list(range(131, 181))

    def test_centered_opening(self):
        a = ww.build_aperture_matrix(100, 6, opening="centered")
        assert _row_columns(a, 50) == list(range(48, 54))

    def test_narrow_aperture_clips_the_anchor(self):
        a = ww.build_aperture_matrix(50, 8)
        assert _row_columns(a, 20) == list(range(13, 21))

    def test_validation(self):
        with pytest.raises(ww.ConfigurationError, match="width_elems"):
            ww.build_aperture_matrix(10, 0)
        with pytest.raises(ww.ConfigurationError, match="width_elems"):
            ww.build_aperture_matrix(10, 11)
        with pytest.raises(ww.ConfigurationError, match="opening"):
            ww.build_aperture_matrix(10, 5, opening="diagonal")
        with pytest.raises(ww.ConfigurationError, match="anchor"):
            ww.build_aperture_matrix(10, 5, anchor=-1)

    def test_dense_rows_sum_to_the_width_in_the_interior(self):
        a = ww.build_aperture_matrix(301, 40)
        assert np.all(a.sum(axis=1)[20:281] == 40)

    @pytest.mark.parametrize(
        "n, width, opening, anchor, band_left, band_right",
        BANDS,
        ids=[f"{n}-{left}-{right}" for n, _, _, _, left, right in BANDS],
    )
    def test_dense_matches_the_defining_loop(self, n, width, opening, anchor, band_left, band_right):
        reference = np.zeros((n, n))
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                reference[i - 1, j - 1] = i - band_left < j <= i + band_right
        assert np.array_equal(ww.build_aperture_matrix(n, width, opening, anchor), reference)


class TestRank:
    @given(n=st.integers(3, 40), width=st.integers(1, 12))
    @settings(max_examples=40, deadline=None)
    def test_rank_matches_numpy(self, n, width):
        if width > n:
            width = n
        a = ww.build_aperture_matrix(n, width)
        assert ww.rank_of(a) == np.linalg.matrix_rank(a)

    def test_full_rank_dims_is_consistent_with_rank_of(self):
        dims = ww.full_rank_dims(5, 30)
        for n in range(5, 31):
            expected = ww.rank_of(ww.build_aperture_matrix(n, 5)) == n
            assert (n in dims) == expected

    def test_full_rank_dims_validation(self):
        with pytest.raises(ww.ConfigurationError):
            ww.full_rank_dims(10, 5)


class TestSolveStacked:
    def test_small_roundtrip(self):
        n = 60
        rng = np.random.default_rng(0)
        truth = rng.random(n)
        mats = [ww.build_aperture_matrix(n, w) for w in (7, 9)]
        fluxes = [m @ truth for m in mats]
        res = ww.solve_stacked(mats, fluxes)
        assert res.effective_rank == n
        assert np.allclose(res.p_hat, truth, atol=1e-9)
        assert res.residual_norm < 1e-9

    def test_exposure_scaling(self):
        n = 40
        truth = np.linspace(0.0, 1.0, n)
        mats = [ww.build_aperture_matrix(n, w) for w in (5, 6)]
        fluxes = [2.5 * m @ truth for m in mats]
        res = ww.solve_stacked(mats, fluxes, exposures=[2.5, 2.5])
        assert np.allclose(res.p_hat, truth, atol=1e-9)

    def test_minimum_norm_on_a_deficient_system(self):
        n = 60
        truth = np.random.default_rng(1).random(n)
        mat = ww.build_aperture_matrix(n, 40)
        flux = mat @ truth
        res = ww.solve_stacked([mat], [flux])
        assert res.effective_rank < n
        # consistent system: the minimum-norm solution still fits the data
        assert np.allclose(mat @ res.p_hat, flux, atol=1e-8)
        assert np.linalg.norm(res.p_hat) <= np.linalg.norm(truth) + 1e-8

    def test_validation(self):
        m = ww.build_aperture_matrix(10, 3)
        with pytest.raises(ww.ConfigurationError):
            ww.solve_stacked([m], [])
        with pytest.raises(ww.ConfigurationError):
            ww.solve_stacked([m], [np.ones(9)])
        with pytest.raises(ww.ConfigurationError):
            ww.solve_stacked([m, ww.build_aperture_matrix(11, 3)], [np.ones(10), np.ones(11)])
        with pytest.raises(ww.ConfigurationError):
            ww.solve_stacked([m], [np.ones(10)], exposures=[1.0, 2.0])
        with pytest.raises(ww.ConfigurationError):
            ww.solve_stacked([m], [np.ones(10)], exposures=[0.0])
        with pytest.raises(ww.NumericalError):
            ww.solve_stacked([m], [np.zeros(10)])


class TestGaussianSmooth:
    def _result(self, values, pitch=1e-4):
        grid = np.arange(values.size) * pitch
        return ww.ReconstructionResult(grid, values, 0.0, values.size, 1e-10)

    def test_preserves_the_sum_for_interior_support(self):
        values = np.zeros(400)
        values[180:220] = np.random.default_rng(2).random(40)
        out = ww.gaussian_smooth(self._result(values), 3e-4)
        assert out.p_hat.sum() == pytest.approx(values.sum(), rel=1e-9)

    def test_constant_stays_constant_away_from_the_edges(self):
        out = ww.gaussian_smooth(self._result(np.ones(200)), 2e-4)
        assert np.allclose(out.p_hat[50:150], 1.0, atol=1e-12)

    def test_zero_rms_is_identity_and_widths_accumulate_in_quadrature(self):
        res = self._result(np.random.default_rng(3).random(100))
        assert ww.gaussian_smooth(res, 0.0) is res
        once = ww.gaussian_smooth(res, 3e-4)
        twice = ww.gaussian_smooth(once, 4e-4)
        assert twice.smoothing_rms == pytest.approx(5e-4)

    def test_negative_rms_raises(self):
        with pytest.raises(ww.ConfigurationError):
            ww.gaussian_smooth(self._result(np.ones(10)), -1.0)
        # a kernel wider than the grid names the rms and the grid size; at
        # rms = pitch the kernel has 11 elements
        assert ww.gaussian_smooth(self._result(np.ones(11)), 1e-4).p_hat.size == 11
        with pytest.raises(ww.ConfigurationError, match=r"rms 0\.0001 .* 10-element grid"):
            ww.gaussian_smooth(self._result(np.ones(10)), 1e-4)
        with pytest.raises(ww.ConfigurationError, match=r"rms 1 .* 10-element grid"):
            ww.gaussian_smooth(self._result(np.ones(10)), 1.0)
