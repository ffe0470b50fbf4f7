"""Core pixel-grid types, integral images, and window arithmetic."""

from itertools import accumulate
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import percopick.image as image_module
from percopick import (
    Micrograph,
    build_integral,
    downsample2x,
    normalize_max1,
)
from percopick.image import downsample_rows, window_sums


def brute_partial_sum(pixels, r, c):
    """Direct double-loop sum over rows [0, r), cols [0, c)."""
    total = 0.0
    for i in range(r):
        for j in range(c):
            total += pixels[i][j]
    return total


class TestMicrograph:
    def test_dimensions(self):
        img = Micrograph(np.zeros((3, 5)))
        assert img.height == 3
        assert img.width == 5

    def test_rejects_nan_and_inf(self):
        with pytest.raises(ValueError):
            Micrograph(np.array([[1.0, np.nan]]))
        with pytest.raises(ValueError):
            Micrograph(np.array([[np.inf, 0.0]]))

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            Micrograph(np.zeros(4))
        with pytest.raises(ValueError):
            Micrograph(np.zeros((2, 2, 2)))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Micrograph(np.zeros((0, 3)))

    def test_pixels_read_only(self):
        img = Micrograph(np.ones((2, 2)))
        with pytest.raises(ValueError):
            img.pixels[0, 0] = 7.0

    def test_source_array_not_aliased(self):
        src = np.ones((2, 2))
        img = Micrograph(src)
        src[0, 0] = 99.0
        assert img.pixels[0, 0] == 1.0

    def test_read_only_view_of_writeable_array_is_copied(self):
        src = np.ones((2, 2))
        view = src.view()
        view.setflags(write=False)
        img = Micrograph(view)
        src[0, 0] = 99.0
        assert img.pixels[0, 0] == 1.0

    def test_own_read_only_pixels_are_shared(self):
        m = Micrograph(np.ones((2, 2)))
        assert Micrograph(m.pixels).pixels is m.pixels
        assert downsample2x(m).pixels.base is None  # a fresh array, adopted as is


class TestIntegralImage:
    def test_2x2_full_sum(self):
        ii = build_integral(Micrograph([[1, 2], [3, 4]]))
        assert ii[2][2] == 10

    def test_1x1(self):
        ii = build_integral(Micrograph([[5]]))
        assert ii[1][1] == 5

    def test_zero_row_and_column(self):
        ii = build_integral(Micrograph(np.arange(12.0).reshape(3, 4)))
        assert np.all(ii[0, :] == 0)
        assert np.all(ii[:, 0] == 0)

    def test_table_is_read_only(self):
        ii = build_integral(Micrograph(np.arange(12.0).reshape(3, 4)))
        assert not ii.flags.writeable

    def test_matches_brute_force_partial_sums(self):
        rng = np.random.default_rng(20160)
        pixels = rng.random((16, 16))
        ii = build_integral(Micrograph(pixels))
        for r in range(17):
            for c in range(17):
                assert ii[r, c] == pytest.approx(
                    brute_partial_sum(pixels, r, c), abs=1e-9
                )

    @pytest.mark.parametrize("shape", [(1, 1), (1, 37), (37, 1), (23, 61), (61, 23),
                                       (40, 1024)])
    def test_bit_identical_to_numpy_cumsums(self, shape):
        # thirds plus uniform noise round in every addition, so a table that
        # added in another order would differ in its last bits
        rng = np.random.default_rng(sum(shape))
        pixels = rng.integers(0, 4, shape) / 3 + rng.random(shape)
        pixels[0, 0] = -0.0  # numpy's running sum keeps a leading negative zero
        table = build_integral(Micrograph(pixels))
        expected = np.zeros((shape[0] + 1, shape[1] + 1))
        expected[1:, 1:] = np.cumsum(np.cumsum(pixels, axis=0), axis=1)
        assert table.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("held", ["another table", "nan"])
    def test_builds_into_a_given_table(self, held):
        rng = np.random.default_rng(61)
        first, second = (Micrograph(rng.integers(0, 4, (23, 61)) / 3 + rng.random((23, 61)))
                         for _ in range(2))
        table = build_integral(first) if held == "another table" else np.full((24, 62), np.nan)
        out = build_integral(second, out=table)
        assert out is table and not out.flags.writeable
        assert out.tobytes() == build_integral(second).tobytes()

    @pytest.mark.parametrize("out", [np.empty((4, 4)), np.empty((4, 5), np.float32)],
                             ids=["shape", "dtype"])
    def test_given_table_must_fit(self, out):
        with pytest.raises(ValueError, match=r"integral table must be float64 of shape \(4, 5\)"):
            build_integral(Micrograph(np.ones((3, 4))), out=out)

    @pytest.mark.parametrize("pixels", [
        [[1e308, 1e308], [-1e308, -1e308]],  # a row sum overflows, yet table[-1, -1] is 0.0
        [[1e308], [1e308]],  # a column sum overflows
    ], ids=["row", "column"])
    def test_overflowing_sums_rejected(self, pixels):
        with pytest.raises(ValueError, match=r"^image values out of range: their sums "
                                             r"overflow float64$"):
            build_integral(Micrograph(pixels))


class TestWindowSum:
    def test_full_window(self):
        ii = build_integral(Micrograph([[1, 2], [3, 4]]))
        assert window_sums(ii, 2).tolist() == [[10]]

    def test_single_pixel_window(self):
        ii = build_integral(Micrograph([[1, 2], [3, 4]]))
        assert window_sums(ii, 1)[1, 1] == 4

    @pytest.mark.parametrize("side", [1, 4, 20])
    def test_sums_into_a_given_array_in_the_four_corner_order(self, side):
        rng = np.random.default_rng(side)
        t = build_integral(Micrograph(rng.integers(0, 4, (20, 30)) / 3 + rng.random((20, 30))))
        out = np.full((21 - side, 31 - side), np.nan)
        assert window_sums(t, side, out=out) is out
        expected = t[side:, side:] - t[:-side, side:] - t[side:, :-side] + t[:-side, :-side]
        assert out.tobytes() == window_sums(t, side).tobytes() == expected.tobytes()

    def test_all_side3_windows_match_direct_summation(self):
        rng = np.random.default_rng(88)
        pixels = rng.random((8, 8))
        sums = window_sums(build_integral(Micrograph(pixels)), 3)
        assert sums.shape == (6, 6)
        for r in range(6):
            for c in range(6):
                direct = float(pixels[r : r + 3, c : c + 3].sum())
                assert sums[r, c] == pytest.approx(direct, abs=1e-9)

    def test_equals_total_pixel_sum_over_full_image(self):
        rng = np.random.default_rng(3)
        pixels = rng.random((7, 11))
        sums = window_sums(build_integral(Micrograph(pixels)), 7)
        assert sums[0, 0] == pytest.approx(float(pixels[:, :7].sum()), abs=1e-9)

    def test_window_sums_match_brute_force_for_every_side(self):
        rng = np.random.default_rng(711)
        pixels = rng.random((7, 11))
        table = build_integral(Micrograph(pixels))
        for side in range(1, 8):
            sums = window_sums(table, side)
            assert sums.shape == (8 - side, 12 - side)
            for r in range(8 - side):
                for c in range(12 - side):
                    direct = float(pixels[r : r + side, c : c + side].sum())
                    assert sums[r, c] == pytest.approx(direct, abs=1e-9)


class TestDownsample:
    def test_2x2_block_mean(self):
        out = downsample2x(Micrograph([[1, 2], [3, 4]]))
        assert out.pixels.tolist() == [[2.5]]

    def test_constant_image_stays_constant(self):
        out = downsample2x(Micrograph(np.full((4, 4), 0.7)))
        assert out.height == 2 and out.width == 2
        assert np.all(out.pixels == 0.7)

    def test_odd_trailing_dropped_matches_manual_means(self):
        rng = np.random.default_rng(55)
        pixels = rng.random((5, 5))
        out = downsample2x(Micrograph(pixels))
        assert out.height == 2 and out.width == 2
        for r in range(2):
            for c in range(2):
                manual = pixels[2 * r : 2 * r + 2, 2 * c : 2 * c + 2].mean()
                assert out.pixels[r, c] == pytest.approx(manual, rel=1e-15)

    @pytest.mark.parametrize(
        "shape", [(2, 2), (3, 2), (2, 3), (3, 3), (5, 7), (40, 2), (2, 41), (301, 257)]
    )
    def test_bit_identical_to_reshape_mean(self, shape):
        # non-integer values, so any other order of the four additions shows
        pixels = np.random.default_rng(sum(shape)).random(shape) * 1000.0 + 0.1
        h2, w2 = shape[0] // 2, shape[1] // 2
        reference = pixels[: 2 * h2, : 2 * w2].reshape(h2, 2, w2, 2).mean(axis=(1, 3))
        out = downsample2x(Micrograph(pixels)).pixels
        assert out.shape == reference.shape
        assert out.tobytes() == reference.tobytes()

    def test_preserves_global_mean_for_even_dims(self):
        # dyadic values make every block mean exact, so equality is exact
        rng = np.random.default_rng(9)
        pixels = rng.integers(0, 256, size=(8, 12)) / 256.0
        out = downsample2x(Micrograph(pixels))
        assert out.pixels.mean() == pixels.mean()

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            downsample2x(Micrograph([[1.0, 2.0]]))


def downsample_samples(samples, passes, calls=None):
    """downsample_rows over an array in memory, through a reader that appends
    each (r, n) it is asked for to calls."""
    calls = [] if calls is None else calls

    def read(r, n):
        calls.append((r, n))
        return samples[r : r + n]

    return downsample_rows(read, samples.shape, passes)


class TestDownsampleSamples:
    @pytest.mark.parametrize("dtype", [np.uint8, ">u2", np.uint16, np.int64])
    @pytest.mark.parametrize("passes", [0, 1, 2, 3])
    def test_matches_float_passes(self, dtype, passes):
        high = 255 if dtype == np.uint8 else 65535
        samples = np.random.default_rng(passes).integers(0, high + 1, (37, 29)).astype(dtype)
        want = Micrograph(samples.astype(np.float64))
        for _ in range(passes):
            want = downsample2x(want)
        got = downsample_samples(samples, passes)
        assert got.pixels.shape == want.pixels.shape
        assert got.pixels.tobytes() == want.pixels.tobytes()

    @pytest.mark.parametrize("dtype", [">u2", np.uint16])
    @pytest.mark.parametrize("passes", [4, 5, 6, 7, 8])
    def test_deep_passes_on_an_odd_frame_match_float_passes(self, dtype, passes):
        # 517x389 drops a trailing odd row or column at most passes; a block's
        # rows are added phase by phase up to 3 passes, then halved in place
        samples = np.random.default_rng(passes).integers(0, 65536, (389, 517)).astype(dtype)
        want = Micrograph(samples.astype(np.float64))
        for _ in range(passes):
            want = downsample2x(want)
        got = downsample_samples(samples, passes)
        assert got.pixels.shape == want.pixels.shape == (389 >> passes, 517 >> passes)
        assert got.pixels.tobytes() == want.pixels.tobytes()

    @pytest.mark.parametrize("passes", [8, 9])  # the last uint32 pass count, then uint64
    def test_largest_sums_stay_exact(self, passes):
        side = 2**passes
        out = downsample_samples(np.full((side, side), 65535, np.uint16), passes)
        assert out.pixels.tolist() == [[65535.0]]

    def test_too_small_fails_at_the_same_pass(self):
        samples = np.zeros((5, 9), np.uint8)  # 9x5, then 4x2, then 2x1
        assert downsample_samples(samples, 2).pixels.shape == (1, 2)
        with pytest.raises(ValueError, match=r"^need at least a 2x2 image to downsample, "
                                             r"got 2x1$"):
            downsample_samples(samples, 3)

    def test_negative_passes_rejected(self):
        with pytest.raises(ValueError, match=r"^downsample passes must be >= 0, got -1$"):
            downsample_samples(np.zeros((4, 4), np.uint8), -1)

    def test_result_is_a_fresh_read_only_image(self):
        samples = np.arange(16, dtype=np.uint8).reshape(4, 4)
        out = downsample_samples(samples, 0)
        assert out.pixels.base is None and not out.pixels.flags.writeable
        assert out.pixels.tolist() == samples.tolist()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(strip=st.sampled_from([1, 3, 8]), passes=st.integers(0, 3),
           height=st.integers(1, 40), width=st.integers(1, 12))
    def test_strips_cover_every_row_once_in_whole_blocks(self, strip, passes, height, width):
        calls = []
        too_small = height >> passes == 0 or width >> passes == 0
        with mock.patch.object(image_module, "_STRIP_ROWS", strip):
            try:
                downsample_samples(np.zeros((height, width), np.uint8), passes, calls)
                assert not too_small
            except ValueError:
                assert too_small  # raised only once every row was read, as below
        starts, counts = [r for r, _ in calls], [n for _, n in calls]
        assert starts == list(accumulate(counts[:-1], initial=0))  # from 0, in order, no gap
        assert sum(counts) == height  # so every row exactly once
        assert all(n % 2**passes == 0 for n in counts[:-1])


class TestNormalize:
    def test_divides_by_maximum(self):
        out = normalize_max1(Micrograph([[0, 2], [4, 1]]))
        assert out.pixels.tolist() == [[0, 0.5], [1, 0.25]]

    def test_identity_when_max_is_one(self):
        out = normalize_max1(Micrograph(np.ones((3, 3))))
        assert np.all(out.pixels == 1.0)

    def test_output_max_is_exactly_one(self):
        rng = np.random.default_rng(12)
        out = normalize_max1(Micrograph(rng.random((9, 9)) + 0.01))
        assert out.pixels.max() == 1.0

    def test_nonpositive_max_rejected(self):
        with pytest.raises(ValueError):
            normalize_max1(Micrograph(np.zeros((2, 2))))
        with pytest.raises(ValueError):
            normalize_max1(Micrograph(-np.ones((2, 2))))
