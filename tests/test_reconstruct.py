import itertools
import shutil
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lstsq

import whichway as ww


def _row_columns(matrix, i):
    """1-based columns holding a 1 in 1-based row i of the matrix."""
    return list(np.flatnonzero(matrix[i - 1]) + 1)


def _intervals_connected(n, widths):
    """Reference union-find: whether the rows' interval edges (lo, hi) of the
    stacked bands of the given widths join 0..n."""
    parent = list(range(n + 1))

    def root(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]  # path halving
            v = parent[v]
        return v

    components = n + 1
    for width in widths:
        left = min(ww.reconstruct.ANCHOR_ELEMS, width)
        for i in range(1, n + 1):
            lo = root(max(i - left, 0))
            hi = root(min(i - left + width, n))
            if lo != hi:
                parent[lo] = hi
                components -= 1
    return components == 1


# (n, width_elems, band_left, band_right): 1-based row i of the matrix holds
# ones at i - band_left < j <= i + band_right, clipped to [1, n]; the band
# offset band_left = min(20, width_elems), 20 being the fixed anchor
BANDS = [
    (301, 50, 20, 30),
    (301, 40, 20, 20),
    (7, 7, 7, 0),
    (1, 1, 1, 0),
    (10, 8, 8, 0),
    (50, 19, 19, 0),
    (50, 20, 20, 0),
    (50, 21, 20, 1),
    (30, 25, 20, 5),
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

    def test_narrow_aperture_clips_the_anchor(self):
        a = ww.build_aperture_matrix(50, 8)
        assert _row_columns(a, 20) == list(range(13, 21))

    def test_validation(self):
        with pytest.raises(ww.ConfigurationError, match="width_elems"):
            ww.build_aperture_matrix(10, 0)
        with pytest.raises(ww.ConfigurationError, match="width_elems"):
            ww.build_aperture_matrix(10, 11)

    def test_equal_bands_however_spelled_are_one_object(self):
        a = ww.build_aperture_matrix(301, 40)
        for spelling in [(np.int64(301), 40), (301, np.int64(40))]:
            assert ww.build_aperture_matrix(*spelling) is a
        for other in [(300, 40), (301, 41)]:
            b = ww.build_aperture_matrix(*other)
            assert b is not a and b is ww.build_aperture_matrix(*other)

    def test_neither_the_matrix_nor_its_base_can_be_made_writeable(self):
        a = ww.build_aperture_matrix(301, 40)
        assert isinstance(a.base.base, bytes)
        for array in (a, a.base):
            with pytest.raises(ValueError, match="WRITEABLE"):
                array.flags.writeable = True
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = 2.0
        assert a.flags.aligned and a.flags.c_contiguous and a.dtype == np.float64

    def test_dense_rows_sum_to_the_width_in_the_interior(self):
        a = ww.build_aperture_matrix(301, 40)
        assert np.all(a.sum(axis=1)[20:281] == 40)

    @pytest.mark.parametrize(
        "n, width, band_left, band_right",
        BANDS,
        ids=[f"{n}-{left}-{right}" for n, _, left, right in BANDS],
    )
    def test_dense_matches_the_defining_loop(self, n, width, band_left, band_right):
        reference = np.zeros((n, n))
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                reference[i - 1, j - 1] = i - band_left < j <= i + band_right
        assert np.array_equal(ww.build_aperture_matrix(n, width), reference)


@pytest.mark.parametrize("n", [7, 50, 241, 301])
def test_aperture_matrix_equals_the_lag_matrix_masks(n):
    idx = np.arange(n)
    lag = idx[:, None] - idx  # row index minus column index
    # widths on each side of the anchor of 20 and at it
    for width in sorted({1, 3, 19, 20, 21, 40, 50, n} & set(range(1, n + 1))):
        left = min(20, width)
        expected = ((lag < left) & (lag >= left - width)).astype(float)
        got = ww.build_aperture_matrix(n, width)
        assert got.dtype == expected.dtype and np.array_equal(got, expected)


class TestRank:
    @given(n=st.integers(3, 40), width=st.integers(1, 30))
    @settings(max_examples=40, deadline=None)
    def test_rank_matches_numpy(self, n, width):
        if width > n:
            width = n
        a = ww.build_aperture_matrix(n, width)
        assert ww.rank_of(a) == np.linalg.matrix_rank(a)

    def test_full_rank_dims_is_consistent_with_rank_of(self):
        # the exact interval-graph test against the SVD rank of every matrix
        n_max = 60
        for width in (*range(1, 13), 19, 20, 21, 22, 29):
            expected = [
                n
                for n in range(width, n_max + 1)
                if ww.rank_of(ww.build_aperture_matrix(n, width)) == n
            ]
            assert ww.full_rank_dims(width, n_max) == expected, width

    def test_full_rank_dims_reaches_every_branch_of_the_closed_form(self):
        # every n up to the anchor of 20 elements, and n mod w <= 1 beyond it;
        # rank_of is the oracle
        n_max = 64
        for width in (1, 19, 20, 21, 31):
            every = list(range(width, n_max + 1))
            expected = [n for n in every if ww.rank_of(ww.build_aperture_matrix(n, width)) == n]
            assert ww.full_rank_dims(width, n_max) == expected, width
            assert (expected == every) == (width <= 20), width

    def test_full_rank_dims_matches_the_union_find(self):
        # every width up to 60 at n < 200, at least three periods of n mod w
        n_max = 199
        for width in range(1, 61):
            expected = [
                n for n in range(width, n_max + 1) if _intervals_connected(n, [width])
            ]
            assert ww.full_rank_dims(width, n_max) == expected, width

    def test_every_stack_of_two_widths_is_full_rank(self):
        # so a rank-deficient solve has a single width, the case reconstruct
        # warns about; every pair of distinct widths up to 60, at the eight
        # smallest sizes, where the stack has the fewest rows
        for narrow, wide in itertools.combinations(range(1, 61), 2):
            for n in range(wide, wide + 8):
                assert _intervals_connected(n, [narrow, wide]), (n, narrow, wide)

    def test_full_rank_dims_validation(self):
        with pytest.raises(ww.ConfigurationError, match="n_max"):
            ww.full_rank_dims(10, 5)
        with pytest.raises(ww.ConfigurationError, match="width_elems"):
            ww.full_rank_dims(0, 5)


def _assert_matches_gelsd(res, matrices, fluxes, cutoff=1e-10):
    """The solve against LAPACK's gelsd on the same stacked system."""
    a = np.vstack(matrices)
    b = np.concatenate(fluxes)
    x, _, rank, _ = lstsq(a, b, cond=cutoff, lapack_driver="gelsd")
    assert res.effective_rank == rank
    assert np.max(np.abs(res.p_hat - x)) <= 1e-12 * np.max(np.abs(x))
    assert abs(res.residual_norm - np.linalg.norm(a @ x - b)) <= 1e-12 * np.linalg.norm(b)


def _noisy_fluxes(matrices, seed, peak=1e6):
    """Poisson fluxes of a fringed pattern, peak electrons per step."""
    n = matrices[0].shape[1]
    k = np.arange(n)
    truth = np.exp(-(((k - n / 2) / (n / 6)) ** 2)) * (1 + np.cos(k / 2.5))
    rng = np.random.default_rng(seed)
    clean = [m @ truth for m in matrices]
    return [rng.poisson(peak * c / c.max()) / peak * c.max() for c in clean]


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_raises_numerical_error(self, bad):
        mats = [ww.build_aperture_matrix(30, w) for w in (4, 5)]
        fluxes = [np.ones(30), np.ones(30)]
        ww.solve_stacked(mats, fluxes)
        cached = ww.reconstruct._FACTORED
        edited = [m.copy() for m in mats]
        edited[1][7, 3] = bad
        with pytest.raises(ww.NumericalError, match="aperture matrices hold non-finite"):
            ww.solve_stacked(edited, fluxes)
        assert ww.reconstruct._FACTORED is cached

    @pytest.mark.parametrize("cutoff", [np.nan, 0.0, 1.0, 1.5, -1.0])
    def test_a_cutoff_outside_0_1_is_rejected(self, cutoff):
        # such a cutoff used to return an all-zero p_hat of effective rank 0
        mats = [ww.build_aperture_matrix(31, w) for w in (4, 5)]
        fluxes = _noisy_fluxes(mats, 4)
        ww.solve_stacked(mats, fluxes)
        cached = ww.reconstruct._FACTORED
        with pytest.raises(ww.ConfigurationError, match=r"cutoff must lie in \(0, 1\)"):
            ww.solve_stacked(mats, fluxes, cutoff=cutoff)
        assert ww.reconstruct._FACTORED is cached
        with pytest.raises(ww.ConfigurationError, match=r"cutoff must lie in \(0, 1\)"):
            ww.rank_of(mats[0], cutoff)

    def test_matches_the_gelsd_oracle_on_noisy_default_stacks(self):
        mats = [ww.build_aperture_matrix(301, w) for w in (40, 50)]
        for seed in range(10):
            fluxes = _noisy_fluxes(mats, seed)
            _assert_matches_gelsd(ww.solve_stacked(mats, fluxes), mats, fluxes)

    def test_matches_the_gelsd_oracle_on_a_rank_deficient_width(self):
        mats = [ww.build_aperture_matrix(301, 40)]
        fluxes = _noisy_fluxes(mats, 0)
        res = ww.solve_stacked(mats, fluxes)
        assert res.effective_rank < 301
        _assert_matches_gelsd(res, mats, fluxes)

    @given(
        n=st.integers(2, 40),
        widths=st.lists(st.integers(1, 30), min_size=1, max_size=2),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_the_gelsd_oracle_on_small_systems(self, n, widths, seed):
        # widths on each side of the anchor of 20, so stacked bands may take
        # different offsets
        mats = [ww.build_aperture_matrix(n, min(w, n)) for w in widths]
        rng = np.random.default_rng(seed)
        fluxes = [rng.random(n) + 0.1 for _ in mats]
        _assert_matches_gelsd(ww.solve_stacked(mats, fluxes), mats, fluxes)

    def test_a_repeated_solve_is_bit_identical(self):
        mats = [ww.build_aperture_matrix(301, w) for w in (40, 50)]
        fluxes = _noisy_fluxes(mats, 1)
        first = ww.solve_stacked(mats, fluxes)
        again = ww.solve_stacked(mats, fluxes)
        assert np.array_equal(first.p_hat, again.p_hat)
        assert first.residual_norm == again.residual_norm
        assert first.effective_rank == again.effective_rank

    def test_a_matrix_edited_in_place_is_factored_again(self):
        mats = [ww.build_aperture_matrix(120, w) for w in (8, 11)]
        fluxes = _noisy_fluxes(mats, 2)
        _assert_matches_gelsd(ww.solve_stacked(mats, fluxes), mats, fluxes)
        with pytest.raises(ValueError, match="read-only"):
            mats[0][60, 60] = 0.0
        copies = [m.copy() for m in mats]
        _assert_matches_gelsd(ww.solve_stacked(copies, fluxes), copies, fluxes)
        copies[0][60, 60] = 1.0 - copies[0][60, 60]
        _assert_matches_gelsd(ww.solve_stacked(copies, fluxes), copies, fluxes)
        _assert_matches_gelsd(ww.solve_stacked(mats, fluxes), mats, fluxes)

    def test_the_cutoff_selects_the_rank(self):
        mats = [ww.build_aperture_matrix(301, 40)]
        fluxes = _noisy_fluxes(mats, 3)
        default = ww.solve_stacked(mats, fluxes)
        coarse = ww.solve_stacked(mats, fluxes, cutoff=0.01)
        assert coarse.effective_rank < default.effective_rank
        _assert_matches_gelsd(default, mats, fluxes)
        _assert_matches_gelsd(coarse, mats, fluxes, cutoff=0.01)

    def test_the_cache_holds_the_last_system_factored(self, monkeypatch):
        calls = self._count_factorizations(monkeypatch)
        a = [ww.build_aperture_matrix(50, w) for w in (3, 4)]
        b = [ww.build_aperture_matrix(50, w) for w in (5, 6)]
        fluxes = [np.ones(50), np.ones(50)]
        for count, mats in enumerate((a, b, a), start=1):
            ww.solve_stacked(mats, fluxes)
            assert len(calls) == count
        ww.solve_stacked(a, fluxes)
        assert len(calls) == 3
        ww.solve_stacked(a, fluxes, cutoff=1e-6)
        assert len(calls) == 4

    @staticmethod
    def _count_factorizations(monkeypatch):
        """An empty factor cache and a list that grows by one per SVD taken."""
        calls, svd = [], np.linalg.svd
        monkeypatch.setattr(ww.reconstruct, "_FACTORED", None)
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        return calls

    def test_one_system_is_factored_once(self, monkeypatch):
        calls = self._count_factorizations(monkeypatch)
        mats = [ww.build_aperture_matrix(301, w) for w in (40, 50)]
        for seed in range(10):
            fluxes = _noisy_fluxes(mats, seed)
            _assert_matches_gelsd(ww.solve_stacked(mats, fluxes), mats, fluxes)
        assert len(calls) == 1

    def test_same_shape_systems_with_different_entries_each_miss(self, monkeypatch):
        calls = self._count_factorizations(monkeypatch)
        for count, first in enumerate((40, 41), start=1):
            mats = [ww.build_aperture_matrix(301, w) for w in (first, 50)]
            fluxes = _noisy_fluxes(mats, 4)
            _assert_matches_gelsd(ww.solve_stacked(mats, fluxes), mats, fluxes)
            assert len(calls) == count
        ww.solve_stacked(mats, fluxes)
        assert len(calls) == 2

    def test_a_writeable_system_is_factored_on_every_call(self, monkeypatch):
        calls = self._count_factorizations(monkeypatch)
        halves = [0.5 * ww.build_aperture_matrix(120, w) for w in (8, 11)]
        fluxes = _noisy_fluxes(halves, 6)
        for count in (1, 2):
            _assert_matches_gelsd(ww.solve_stacked(halves, fluxes), halves, fluxes)
            assert len(calls) == count
        halves[0] *= 2
        _assert_matches_gelsd(ww.solve_stacked(halves, fluxes), halves, fluxes)
        # a read-only view of writeable memory is not immutable either
        views = [m.view() for m in halves]
        for view in views:
            view.flags.writeable = False
        _assert_matches_gelsd(ww.solve_stacked(views, fluxes), views, fluxes)
        halves[1] *= 2
        _assert_matches_gelsd(ww.solve_stacked(views, fluxes), views, fluxes)
        assert len(calls) == 5
        assert ww.reconstruct._FACTORED is None

    def test_threads_alternating_same_shape_systems_get_their_own_factors(self):
        systems = [
            [ww.build_aperture_matrix(60, w) for w in (first, 9)]
            for first in (7, 8)
        ]
        fluxes = _noisy_fluxes(systems[0], 7)
        expected = [ww.solve_stacked(mats, fluxes).p_hat for mats in systems]
        scale = np.max(np.abs(expected[0]))
        assert not np.allclose(expected[0], expected[1], rtol=0, atol=1e-3 * scale)
        wrong = []

        def worker(first):
            for k in range(16):
                j = (first + k) % 2
                got = ww.solve_stacked(systems[j], fluxes).p_hat
                if not np.allclose(got, expected[j], rtol=0, atol=1e-9 * scale):
                    wrong.append(j)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []

    @pytest.mark.parametrize("dtype", [int, bool])
    def test_an_equal_matrix_of_another_dtype_solves_alike(self, monkeypatch, dtype):
        calls = self._count_factorizations(monkeypatch)
        mats = [ww.build_aperture_matrix(120, w) for w in (8, 11)]
        fluxes = _noisy_fluxes(mats, 5)
        first = ww.solve_stacked(mats, fluxes)
        others = [m.astype(dtype) for m in mats]
        for count in (2, 3):
            again = ww.solve_stacked(others, fluxes)
            assert len(calls) == count
            _assert_matches_gelsd(again, mats, fluxes)
            assert np.array_equal(first.p_hat, again.p_hat)
            assert first.residual_norm == again.residual_norm
            assert first.effective_rank == again.effective_rank
        # the writeable solves leave the read-only system's factor in place
        assert np.array_equal(ww.solve_stacked(mats, fluxes).p_hat, first.p_hat)
        assert len(calls) == 3

    def test_reconstruct_then_report_take_one_factorization(self, monkeypatch, cli_run, tmp_path):
        from whichway.cli import main

        calls = self._count_factorizations(monkeypatch)
        solves, solve = [], ww.pipeline.solve_stacked
        monkeypatch.setattr(
            ww.pipeline, "solve_stacked", lambda *a, **k: solves.append(1) or solve(*a, **k)
        )
        out = tmp_path / "run"
        shutil.copytree(cli_run, out)
        for cmd in ("reconstruct", "report"):
            assert main([cmd, "--out", str(out), "--seed", "0"]) == 0
        # reconstruct solves F; report solves F, left and right
        assert (len(solves), len(calls)) == (4, 1)
        for name in ("reconstruction.csv", "duality.json", "summary.txt"):
            assert (out / name).read_bytes() == (cli_run / name).read_bytes()


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

    @pytest.mark.parametrize("rms", [np.nan, np.inf, -np.inf])
    def test_non_finite_rms_raises(self, rms):
        # nan once raised math.ceil's ValueError and inf its OverflowError
        with pytest.raises(ww.ConfigurationError, match="smoothing rms must be finite"):
            ww.gaussian_smooth(self._result(np.ones(100)), rms)
