"""Scan-window estimators against exhaustive enumeration oracles."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from percopick import (
    Micrograph,
    WindowStats,
    build_integral,
    estimate_intensities,
    estimate_lower,
    naive_mean,
    scan_max_window,
    scan_min_window,
)
from percopick import scan
from percopick.image import window_sums


def exhaustive_extremum(pixels, side, take_max):
    """Enumerate every window position, summing directly; lexicographic tie-break."""
    h, w = pixels.shape
    best = None
    best_pos = None
    for r in range(h - side + 1):
        for c in range(w - side + 1):
            s = float(pixels[r : r + side, c : c + side].sum())
            better = best is None or (s > best if take_max else s < best)
            if better:
                best, best_pos = s, (r, c)
    return best_pos, best


class TestScanWindows:
    def test_constant_image_ties_break_to_origin(self):
        win = scan_min_window(build_integral(Micrograph(np.full((6, 6), 3.0))), 3)
        assert (win.row, win.col) == (0, 0)
        assert win.mean == 3.0
        win = scan_max_window(build_integral(Micrograph(np.full((6, 6), 3.0))), 3)
        assert (win.row, win.col) == (0, 0)

    def test_single_dark_pixel_found(self):
        pixels = np.ones((4, 4))
        pixels[3, 3] = 0.0
        win = scan_min_window(build_integral(Micrograph(pixels)), 1)
        assert (win.row, win.col) == (3, 3)
        assert win.mean == 0.0

    def test_bright_block_found(self):
        pixels = np.zeros((10, 10))
        pixels[4:7, 2:5] = 1.0
        win = scan_max_window(build_integral(Micrograph(pixels)), 3)
        assert (win.row, win.col) == (4, 2)
        assert win.mean == 1.0

    @pytest.mark.parametrize("seed", range(5))
    def test_random_12x12_matches_exhaustive_argmin_argmax(self, seed):
        rng = np.random.default_rng(100 + seed)
        pixels = rng.random((12, 12))
        table = build_integral(Micrograph(pixels))
        for take_max, scan_window in ((False, scan_min_window), (True, scan_max_window)):
            pos, total = exhaustive_extremum(pixels, 4, take_max)
            win = scan_window(table, 4)
            assert (win.row, win.col) == pos
            assert win.sum == pytest.approx(total, abs=1e-9)
            assert win.mean == pytest.approx(total / 16, abs=1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_quantized_images_exercise_exact_ties(self, seed):
        # eighths are exact in binary, so equal window sums are bit-equal and
        # the lexicographic tie-break is genuinely exercised
        rng = np.random.default_rng(200 + seed)
        pixels = rng.integers(0, 3, size=(10, 10)) / 8.0
        table = build_integral(Micrograph(pixels))
        for take_max, scan_window in ((False, scan_min_window), (True, scan_max_window)):
            pos, _ = exhaustive_extremum(pixels, 3, take_max)
            win = scan_window(table, 3)
            assert (win.row, win.col) == pos

    def test_window_stats_invariants(self):
        rng = np.random.default_rng(7)
        img = Micrograph(rng.random((9, 13)))
        win = scan_min_window(build_integral(img), 4)
        assert win.mean == win.sum / 16
        assert 0 <= win.row <= img.height - 4
        assert 0 <= win.col <= img.width - 4

    @pytest.mark.parametrize("side", [0, -1, 13])
    def test_side_out_of_range(self, side):
        table = build_integral(Micrograph(np.zeros((12, 12))))
        with pytest.raises(ValueError):
            scan_min_window(table, side)

    def test_side_equal_to_min_dimension(self):
        rng = np.random.default_rng(31)
        pixels = rng.random((5, 8))
        win = scan_min_window(build_integral(Micrograph(pixels)), 5)
        pos, _ = exhaustive_extremum(pixels, 5, take_max=False)
        assert (win.row, win.col) == pos


def whole_table_window(table, side, take_max):
    """The window of one argmin/argmax over the window sums of the whole
    table, with no strips: row-major order is the (row, col) tie-break."""
    sums = window_sums(table, side)
    row, col = divmod(int(np.argmax(sums) if take_max else np.argmin(sums)), sums.shape[1])
    total = float(sums[row, col])
    return WindowStats(row=row, col=col, side=side, sum=total, mean=total / (side * side))


STRIPS = [1, 2, 3, scan._STRIP_ROWS]


class TestStripScan:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(strip=st.sampled_from(STRIPS), height=st.integers(1, 150),
           width=st.integers(1, 90), levels=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_strips_give_the_whole_table_window(self, strip, height, width, levels, seed,
                                                data):
        # quarters are exact in binary, so equal window sums are bit-equal and
        # ties between windows of different strips really occur
        pixels = np.random.default_rng(seed).integers(0, levels + 1, (height, width)) / 4
        side = data.draw(st.integers(1, min(40, height, width)), label="side")
        table = build_integral(Micrograph(pixels))
        with mock.patch.object(scan, "_STRIP_ROWS", strip):
            for take_max, scan_window in ((False, scan_min_window), (True, scan_max_window)):
                got, expected = scan_window(table, side), whole_table_window(table, side, take_max)
                assert got == expected and repr(got) == repr(expected)

    @pytest.mark.parametrize("strip", STRIPS)
    def test_equal_extrema_in_two_strips_go_to_the_earlier(self, strip):
        # the later extremum sits further left, so only the row decides
        pixels = np.full((2 * scan._STRIP_ROWS + 5, 9), 0.5)
        pixels[1, 7] = pixels[scan._STRIP_ROWS + 3, 2] = 0.0
        pixels[0, 6] = pixels[2 * scan._STRIP_ROWS + 1, 1] = 1.0
        table = build_integral(Micrograph(pixels))
        with mock.patch.object(scan, "_STRIP_ROWS", strip):
            low, high = scan_min_window(table, 1), scan_max_window(table, 1)
        assert (low.row, low.col, low.sum) == (1, 7, 0.0)
        assert (high.row, high.col, high.sum) == (0, 6, 1.0)

    def test_scan_makes_no_frame_size_array(self):
        table = build_integral(Micrograph(np.random.default_rng(16).random((1024, 1024))))
        tracemalloc.start()
        try:
            win = scan_min_window(table, 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert win == whole_table_window(table, 16, take_max=False)
        # 1.1 MiB in strips; the window sums of the whole table took 7.9 MiB
        assert peak < 3 * 2**20, f"{peak / 2**20:.1f} MiB traced"


class TestEstimates:
    def test_noiseless_scene_recovers_both_levels_exactly(self):
        pixels = np.full((32, 32), 0.25)
        pixels[4:14, 18:28] = 0.75  # a 10x10 particle
        img = Micrograph(pixels)
        assert estimate_lower(img, 8) == [0.25]
        assert scan_max_window(build_integral(img), 8).mean == 0.75

    def test_estimates_bundle_consistency(self):
        rng = np.random.default_rng(17)
        img = Micrograph(rng.random((20, 20)))
        est = estimate_intensities(img, 6, 3)
        assert est.a_hat == est.k_hat_low.mean
        assert est.b_hat == est.k_hat_high.mean
        assert est.k_hat_low.side == 6 and est.k_hat_high.side == 3

    def test_one_integral_table_per_estimate_call(self, monkeypatch):
        builds = []
        build = scan.build_integral
        monkeypatch.setattr(scan, "build_integral", lambda img: builds.append(img) or build(img))
        img = Micrograph(np.random.default_rng(29).random((12, 12)))
        est = estimate_intensities(img, 4, 2)
        assert builds == [img]
        lows = estimate_lower(img, 6, 4)
        assert builds == [img, img]
        assert lows[1] == est.a_hat
        table = build(img)
        assert lows == [scan_min_window(table, 6).mean, scan_min_window(table, 4).mean]

    def test_min_leq_max_for_equal_sides(self):
        rng = np.random.default_rng(23)
        img = Micrograph(rng.random((16, 16)))
        est = estimate_intensities(img, 5, 5)
        assert est.a_hat <= est.b_hat

    def test_monte_carlo_recovery_of_background(self):
        # known ground truth: a = 0.3, uniform noise, a guaranteed clear square
        rng = np.random.default_rng(0)
        hits = 0
        trials = 40
        for _ in range(trials):
            pixels = np.full((128, 128), 0.3) + rng.uniform(-0.2, 0.2, (128, 128))
            pixels[:40, :40] += 0.4  # contamination away from the lower-right half
            [a_hat] = estimate_lower(Micrograph(pixels), 48)
            if abs(a_hat - 0.3) < 0.02:
                hits += 1
        assert hits >= trials * 0.9


class TestScanInvariances:
    def test_min_mean_leq_naive_leq_max_mean(self):
        rng = np.random.default_rng(5)
        img = Micrograph(rng.random((24, 24)))
        table = build_integral(img)
        for side in (1, 4, 9, 24):
            assert scan_min_window(table, side).mean <= naive_mean(img) + 1e-12
            assert scan_max_window(table, side).mean >= naive_mean(img) - 1e-12

    def test_shift_moves_estimates_not_windows(self):
        rng = np.random.default_rng(6)
        pixels = rng.random((18, 18))
        table = build_integral(Micrograph(pixels))
        shifted = build_integral(Micrograph(pixels + 2.5))
        for scan_window in (scan_min_window, scan_max_window):
            w0, w1 = scan_window(table, 5), scan_window(shifted, 5)
            assert (w0.row, w0.col) == (w1.row, w1.col)
            assert w1.mean == pytest.approx(w0.mean + 2.5, abs=1e-12)

    def test_scale_multiplies_estimates_not_windows(self):
        rng = np.random.default_rng(8)
        pixels = rng.random((18, 18))
        table = build_integral(Micrograph(pixels))
        scaled = build_integral(Micrograph(pixels * 3.0))
        for scan_window in (scan_min_window, scan_max_window):
            w0, w1 = scan_window(table, 4), scan_window(scaled, 4)
            assert (w0.row, w0.col) == (w1.row, w1.col)
            assert w1.mean == pytest.approx(3.0 * w0.mean, rel=1e-12)


class TestNaiveMean:
    def test_small_example(self):
        assert naive_mean(Micrograph([[1, 2], [3, 4]])) == 2.5

    def test_pure_noise_approaches_background(self):
        rng = np.random.default_rng(77)
        img = Micrograph(rng.uniform(-0.2, 0.2, (512, 512)))
        assert abs(naive_mean(img)) < 0.005

    def test_half_covered_scene_is_biased(self):
        # particles on half the pixels pull the mean to (a + b) / 2, not a
        pixels = np.zeros((16, 16))
        pixels[:, 8:] = 1.0
        assert naive_mean(Micrograph(pixels)) == 0.5
