"""Noise models, scene generation, shapes, the selection bound, and the
Monte Carlo harnesses at quick desk scale."""

import contextlib
import json
import math
import multiprocessing
import os
import signal
import time
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from percopick import synth
from percopick import (
    DegenerateEstimatesError,
    DetectParams,
    DetectionStats,
    SceneSpec,
    TruncatedGaussianNoise,
    UniformNoise,
    annulus_gap_mask,
    binarize,
    black_clusters,
    disc_mask,
    filter_clusters,
    find_clear_square,
    generate_scene,
    l_shape_mask,
    load_scene,
    mask_contains_square,
    match_clusters,
    mc_consistency,
    mc_detection,
    percolation_phase,
    place_shape,
    scene_from_dict,
    shape_library,
    square_mask,
    window_selection_bound,
)


def simple_scene(n=128, a=0.3, b=0.7, phi0=32, phi1=8, boxes=((70, 70, 20),)):
    """Square particles plus a guaranteed clear square in the top-left corner."""
    masks = tuple(place_shape(n, square_mask(side), r, c) for r, c, side in boxes)
    return SceneSpec(
        n=n, a=a, b=b, particles=masks,
        noise_square=(0, 0), noise_square_side=phi0, min_particle_square=phi1,
    )


class TestNoiseModels:
    def test_uniform_moments(self):
        variance = 0.2**2 / 3  # of the uniform law on [-0.2, 0.2]
        x = UniformNoise(half_width=0.2).sample(np.random.default_rng(1), (400, 400))
        assert abs(x.mean()) < 4 * math.sqrt(variance) / 400
        assert x.var() == pytest.approx(variance, rel=0.05)

    def test_uniform_bounded_exactly(self):
        x = UniformNoise(0.2).sample(np.random.default_rng(2), 10**5)
        assert np.all(np.abs(x) <= 0.2)

    def test_uniform_symmetry(self):
        x = UniformNoise(0.2).sample(np.random.default_rng(3), 10**5)
        n = x.size
        assert abs((x >= 0).mean() - 0.5) < 4 / math.sqrt(n)

    def test_zero_width_uniform_is_silent(self):
        x = UniformNoise(0.0).sample(np.random.default_rng(4), (8, 8))
        assert np.all(x == 0.0)

    def test_truncated_gaussian_bounded_exactly(self):
        noise = TruncatedGaussianNoise(sigma_raw=1.0, bound=1.0)
        x = noise.sample(np.random.default_rng(5), 10**5)
        assert np.all(np.abs(x) <= 1.0)

    def test_truncated_gaussian_variance_formula(self):
        # variance of N(0,1) truncated to [-1, 1] is 1 - 2*pdf(1)/erf(1/sqrt(2))
        pdf1 = math.exp(-0.5) / math.sqrt(2 * math.pi)
        variance = 1.0 - 2.0 * pdf1 / math.erf(1 / math.sqrt(2))
        x = TruncatedGaussianNoise(sigma_raw=1.0, bound=1.0).sample(np.random.default_rng(6), 10**6)
        assert x.var() == pytest.approx(variance, rel=0.05)
        assert abs(x.mean()) < 4 * math.sqrt(variance) / 1000

    def test_wide_truncation_approaches_raw_variance(self):
        x = TruncatedGaussianNoise(sigma_raw=1.0, bound=8.0).sample(np.random.default_rng(7), 10**5)
        assert x.var() == pytest.approx(1.0, rel=0.05)  # sigma_raw**2

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            UniformNoise(half_width=-0.1)
        with pytest.raises(ValueError):
            TruncatedGaussianNoise(sigma_raw=0.0, bound=1.0)
        with pytest.raises(ValueError):
            TruncatedGaussianNoise(sigma_raw=1.0, bound=0.0)


class TestShapes:
    def test_square_pixel_count(self):
        assert square_mask(10).sum() == 100

    def test_l_shape_count_and_contained_square(self):
        mask = l_shape_mask(12, 6)
        assert mask.sum() == 6 * 12 + 6 * 6
        assert mask_contains_square(mask, 6)
        assert not mask_contains_square(mask, 7)

    def test_l_shape_is_nonconvex(self):
        mask = l_shape_mask(12, 6)
        # midpoint of two mask pixels falls outside the mask
        assert mask[0, 0] and mask[0, 11] is not None
        assert mask[0, 0] and mask[11, 11]
        assert not mask[0, 11]

    def test_disc_count_matches_enumeration(self):
        for radius in (3, 5, 8):
            mask = disc_mask(radius)
            count = 0
            for i in range(2 * radius + 1):
                for j in range(2 * radius + 1):
                    if (i - radius) ** 2 + (j - radius) ** 2 <= radius**2:
                        count += 1
            assert mask.sum() == count

    def test_contains_square_on_non_square_mask(self):
        mask = np.zeros((5, 40), dtype=bool)
        mask[:, 12:17] = True
        assert mask_contains_square(mask, 5)
        assert not mask_contains_square(mask, 6)
        assert mask_contains_square(mask.T, 5)
        assert not mask_contains_square(mask.T, 6)

    def test_annulus_gap_nonconvex_and_holds_square(self):
        mask = annulus_gap_mask(24, 8, 4)
        assert not mask[24, 24]            # center hollow
        assert not mask[40, 24]            # gap channel below center
        assert mask_contains_square(mask, 12)

    def test_shape_library_dispatch(self):
        assert shape_library("square", 4).shape == (4, 4)
        assert shape_library("disc", 5).shape == (11, 11)
        assert shape_library("l_shape", 12).sum() == l_shape_mask(12, 6).sum()
        assert shape_library("annulus_gap", 24).any()
        with pytest.raises(ValueError):
            shape_library("pentagon", 5)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            l_shape_mask(4, 4)
        with pytest.raises(ValueError):
            annulus_gap_mask(5, 5, 1)
        with pytest.raises(ValueError, match="gap_half_width must be >= 1, got 0"):
            annulus_gap_mask(12, 4, gap_half_width=0)
        with pytest.raises(ValueError):
            disc_mask(0)
        with pytest.raises(ValueError, match="square side must be >= 1, got 0"):
            square_mask(0)

    def test_place_shape_bounds(self):
        with pytest.raises(ValueError):
            place_shape(16, square_mask(8), 10, 0)


class TestSceneSpec:
    def test_valid_scene(self):
        spec = simple_scene()
        assert spec.truth.max() == 1
        assert spec.truth[0, 0] == 0
        assert spec.truth[75, 75] == 1

    def test_overlapping_particles_rejected(self):
        masks = (
            place_shape(64, square_mask(10), 40, 40),
            place_shape(64, square_mask(10), 45, 45),
        )
        with pytest.raises(ValueError, match="overlap"):
            SceneSpec(n=64, a=0.0, b=1.0, particles=masks,
                      noise_square=(0, 0), noise_square_side=16, min_particle_square=4)

    def test_particle_on_noise_square_rejected(self):
        masks = (place_shape(64, square_mask(10), 2, 2),)
        with pytest.raises(ValueError, match="noise square"):
            SceneSpec(n=64, a=0.0, b=1.0, particles=masks,
                      noise_square=(0, 0), noise_square_side=16, min_particle_square=4)

    def test_mask_without_full_square_rejected(self):
        sparse = np.zeros((64, 64), dtype=bool)
        sparse[40, ::2] = True
        with pytest.raises(ValueError, match="no full"):
            SceneSpec(n=64, a=0.0, b=1.0, particles=(sparse,),
                      noise_square=(0, 0), noise_square_side=16, min_particle_square=4)

    def test_truth_is_the_one_label_image(self):
        spec = simple_scene(boxes=((70, 70, 20), (40, 70, 10)))
        assert spec.truth.dtype == np.int32 and not spec.truth.flags.writeable
        assert spec.truth[75, 75] == 1 and spec.truth[45, 75] == 2 and spec.truth[0, 0] == 0
        assert np.bincount(spec.truth.ravel()).tolist()[1:] == [400, 100]
        assert not hasattr(spec, "particles")
        arrays = [k for k, v in vars(spec).items() if isinstance(v, np.ndarray)]
        assert arrays == ["truth"]

    def test_square_check_reads_only_the_particles_own_pixels(self):
        # a thin ring holds no 4x4 square; the square inside its hole, in the
        # ring's bounding box, must not lend it one
        ring = annulus_gap_mask(10, 7, 1)
        assert not mask_contains_square(ring, 4)
        masks = (place_shape(48, ring, 10, 10), place_shape(48, square_mask(6), 17, 17))
        with pytest.raises(ValueError, match="particle mask 0 contains no full 4x4"):
            SceneSpec(n=48, a=0.0, b=1.0, particles=masks,
                      noise_square=(0, 0), noise_square_side=8, min_particle_square=4)

    def test_particle_inside_another_particles_box(self):
        masks = (place_shape(48, annulus_gap_mask(12, 4, 1), 10, 10),
                 place_shape(48, square_mask(4), 20, 20))
        spec = SceneSpec(n=48, a=0.0, b=1.0, particles=masks,
                         noise_square=(0, 0), noise_square_side=8, min_particle_square=4)
        assert np.array_equal(spec.truth, masks[0] + 2 * masks[1])

    def test_empty_or_misshapen_mask_rejected(self):
        kwargs = dict(n=32, a=0.0, b=1.0, noise_square=(0, 0), noise_square_side=8,
                      min_particle_square=2)
        with pytest.raises(ValueError, match="particle mask 0 contains no full"):
            SceneSpec(particles=(np.zeros((32, 32), dtype=bool),), **kwargs)
        with pytest.raises(ValueError, match=r"particle mask 0 has shape \(16, 16\)"):
            SceneSpec(particles=(square_mask(16),), **kwargs)

    def test_b_not_above_a_rejected(self):
        with pytest.raises(ValueError):
            SceneSpec(n=16, a=0.5, b=0.5, particles=(),
                      noise_square=(0, 0), noise_square_side=4, min_particle_square=2)

    def test_particles_read_once_from_a_generator(self):
        boxes = ((70, 70, 20), (40, 70, 10))
        masks = (place_shape(128, square_mask(side), r, c) for r, c, side in boxes)
        spec = SceneSpec(n=128, a=0.3, b=0.7, particles=masks,
                         noise_square=(0, 0), noise_square_side=32, min_particle_square=8)
        assert np.array_equal(spec.truth, simple_scene(boxes=boxes).truth)
        assert next(masks, None) is None

    def test_auto_placed_noise_square_is_the_first_accepted_corner(self):
        masks = (place_shape(64, square_mask(10), 4, 4), place_shape(64, square_mask(10), 30, 2))
        kwargs = dict(n=64, a=0.0, b=1.0, particles=masks, noise_square_side=16,
                      min_particle_square=4)
        spec = SceneSpec(noise_square=None, **kwargs)
        assert spec.noise_square == (0, 14)
        assert np.array_equal(SceneSpec(noise_square=(0, 14), **kwargs).truth, spec.truth)
        for corner in [(0, c) for c in range(14)]:
            with pytest.raises(ValueError, match="intersects a particle"):
                SceneSpec(noise_square=corner, **kwargs)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(n=0), "scene side must be >= 1, got 0"),
        (dict(min_particle_square=0), "window sides must be >= 1"),
    ], ids=["empty_frame", "no_particle_square"])
    def test_non_positive_sides_rejected(self, kwargs, message):
        full = dict(n=16, a=0.0, b=1.0, particles=(), noise_square=(0, 0),
                    noise_square_side=8, min_particle_square=2)
        with pytest.raises(ValueError, match=message):
            SceneSpec(**{**full, **kwargs})

    def test_noise_square_outside_frame_rejected(self):
        with pytest.raises(ValueError):
            SceneSpec(n=16, a=0.0, b=1.0, particles=(),
                      noise_square=(10, 10), noise_square_side=8, min_particle_square=2)


class TestGenerateScene:
    def test_no_particles_no_noise_is_constant(self):
        spec = SceneSpec(n=32, a=0.4, b=1.0, particles=(),
                         noise_square=(0, 0), noise_square_side=8, min_particle_square=2)
        img, truth = generate_scene(spec, UniformNoise(0.0), 0)
        assert np.all(img.pixels == 0.4)
        assert truth.shape == (32, 32) and not truth.any()

    def test_noiseless_two_level(self):
        spec = simple_scene(boxes=((60, 60, 10),))
        img, _ = generate_scene(spec, UniformNoise(0.0), 0)
        values = np.unique(img.pixels)
        assert values.tolist() == [0.3, 0.7]
        assert img.pixels[65, 65] == 0.7

    def test_reproducible_and_seed_sensitive(self):
        spec = simple_scene()
        noise = UniformNoise(0.2)
        img1, _ = generate_scene(spec, noise, 42)
        img2, _ = generate_scene(spec, noise, 42)
        img3, _ = generate_scene(spec, noise, 43)
        assert np.array_equal(img1.pixels, img2.pixels)
        assert not np.array_equal(img1.pixels, img3.pixels)

    def test_off_mask_noise_moments(self):
        spec = simple_scene(n=256, phi0=64, boxes=((100, 100, 40),))
        img, truth = generate_scene(spec, UniformNoise(0.2), 7)
        off = img.pixels[truth == 0] - 0.3
        assert abs(off.mean()) < 0.005
        assert off.var() == pytest.approx(0.04 / 3, rel=0.05)

    def test_midpoint_threshold_straddles_criticality(self):
        # with theta = (a+b)/2 and symmetric noise, the background black
        # fraction sits below 1/2 and the particle fraction above, each by a
        # clear margin even at contrast 0.1 under +/-0.25 noise
        spec = simple_scene(n=256, a=0.45, b=0.55, phi0=64, boxes=((100, 100, 80),))
        img, truth = generate_scene(spec, UniformNoise(0.25), 11)
        theta = (0.45 + 0.55) / 2
        black = img.pixels >= theta
        p_background = black[truth == 0].mean()
        p_particle = black[truth == 1].mean()
        assert p_background <= 0.5 - 0.02
        assert p_particle >= 0.5 + 0.02


class TestSceneJson:
    DOC = {
        "n": 96,
        "a": 0.2,
        "b": 0.8,
        "phi0": 24,
        "phi1": 6,
        "shapes": [
            {"kind": "l_shape", "size": 16, "row": 50, "col": 10},
            {"kind": "disc", "size": 8, "row": 50, "col": 60},
        ],
        "noise": {"kind": "uniform", "half_width": 0.15},
    }

    def test_round_trip_from_file(self, tmp_path):
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(self.DOC))
        spec, noise = load_scene(path)
        assert spec.n == 96
        assert spec.truth.max() == 2
        assert noise == UniformNoise(0.15)

    def test_auto_placed_noise_square_is_clear(self):
        spec, _ = scene_from_dict(self.DOC)
        r, c = spec.noise_square
        assert not spec.truth[r : r + 24, c : c + 24].any()

    def test_explicit_noise_square(self):
        doc = dict(self.DOC, noise_square=[0, 40])
        spec, _ = scene_from_dict(doc)
        assert spec.noise_square == (0, 40)

    def test_integral_floats_read_as_ints(self):
        doc = dict(self.DOC, n=96.0, phi0=24.0, noise_square=[0.0, 40.0])
        spec, _ = scene_from_dict(doc)
        assert (spec.n, spec.noise_square_side, spec.noise_square) == (96, 24, (0, 40))
        assert type(spec.n) is int and type(spec.noise_square[0]) is int

    def test_truncated_gaussian_noise_doc(self):
        doc = dict(self.DOC, noise={"kind": "truncated_gaussian", "sigma_raw": 0.1, "bound": 0.2})
        _, noise = scene_from_dict(doc)
        assert noise == TruncatedGaussianNoise(sigma_raw=0.1, bound=0.2)

    def test_unknown_noise_kind(self):
        with pytest.raises(ValueError, match="noise kind"):
            scene_from_dict(dict(self.DOC, noise={"kind": "cauchy"}))

    def test_peak_memory_does_not_grow_with_shape_count(self):
        # one full-frame mask at a time, and no union of the masks
        n = 600

        def peak(count):
            shapes = [{"kind": "square", "size": 20, "row": 300 + 30 * (k // 10),
                       "col": 30 * (k % 10)} for k in range(count)]
            tracemalloc.start()
            try:
                spec, _ = scene_from_dict(dict(self.DOC, n=n, phi0=100, shapes=shapes))
                traced = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert spec.truth.max() == count and spec.noise_square == (0, 0)
            return traced

        assert peak(60) <= peak(10) + 2 * n * n

    def test_explicit_corner_holds_one_mask_at_a_time(self):
        # 30 discs at 1200^2: the int32 truth (4 bytes per pixel) plus one bool
        # mask; two live masks and their flatnonzero indices would reach 6
        n = 1200
        shapes = [{"kind": "disc", "size": 40, "row": i * 150 + 35, "col": j * 150 + 35}
                  for i in range(8) for j in range(8)
                  if (i + j) % 2 == 0 and not (i < 2 and j < 2)]
        doc = dict(self.DOC, n=n, phi0=300, phi1=36, shapes=shapes, noise_square=[0, 0])
        tracemalloc.start()
        try:
            spec, _ = scene_from_dict(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert spec.truth.max() == 30
        assert peak <= 5.5 * n * n

    def test_no_room_for_noise_square(self):
        doc = dict(self.DOC, n=20, phi0=20,
                   shapes=[{"kind": "square", "size": 8, "row": 6, "col": 6}])
        with pytest.raises(ValueError, match="no noise-only square"):
            scene_from_dict(doc)


SCENE_FIELDS = {
    None: ["n", "a", "b", "phi0", "phi1", "shapes", "noise", "noise_square"],
    "shape": ["kind", "size", "row", "col"],
    "noise": ["kind", "half_width", "sigma_raw", "bound"],
}
BAD_VALUES = [None, "x", "12", [1], [1, 2, 3], 1e400, -1e400, math.nan]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(noise=st.sampled_from([{"kind": "uniform", "half_width": 0.15},
                              {"kind": "truncated_gaussian", "sigma_raw": 0.1, "bound": 0.2}]),
       noise_square=st.sampled_from([None, [0, 40]]),
       edits=st.lists(st.tuples(st.sampled_from([(where, key) for where, keys in SCENE_FIELDS.items()
                                                 for key in keys]),
                                st.sampled_from(["drop"] + BAD_VALUES)),
                      min_size=1, max_size=3))
@example(noise={"kind": "uniform", "half_width": 0.15}, noise_square=None,
         edits=[((None, "n"), 1e400)])
def test_scene_documents_build_or_raise_value_error(noise, noise_square, edits):
    shape, noise = dict(TestSceneJson.DOC["shapes"][0]), dict(noise)
    doc = dict(TestSceneJson.DOC, shapes=[shape], noise=noise)
    if noise_square is not None:
        doc["noise_square"] = noise_square
    targets = {None: doc, "shape": shape, "noise": noise}
    for (where, key), value in edits:
        if value == "drop":
            targets[where].pop(key, None)
        else:
            targets[where][key] = value
    try:
        spec, noise_model = scene_from_dict(doc)
    except ValueError:
        return
    assert isinstance(spec, SceneSpec) and noise_model is not None


class TestFindClearSquare:
    def test_first_row_major_position(self):
        truth = place_shape(32, square_mask(8), 0, 0).astype(np.int32)
        assert find_clear_square(truth, 8) == (0, 8)

    def test_no_particles_gives_origin(self):
        assert find_clear_square(np.zeros((32, 32), dtype=np.int32), 8) == (0, 0)

    @pytest.mark.parametrize("side", [0, -3, 33])
    def test_side_outside_frame_rejected(self, side):
        with pytest.raises(ValueError, match=r"square side -?\d+ outside 1\.\.32"):
            find_clear_square(np.zeros((32, 32), dtype=np.int32), side)


    def test_peak_memory_is_two_bytes_per_pixel(self):
        n = 1200
        truth = np.zeros((n, n), dtype=np.int32)
        truth[:100, :100] = 1
        tracemalloc.start()
        try:
            corner = find_clear_square(truth, 150)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert corner == (0, 100)
        assert peak <= 4 * n * n  # a float64 count table would be 17 bytes per pixel


def brute_force_corners(mask, side):
    """Row-major top-left corners whose side x side window lies inside mask."""
    h, w = mask.shape
    return [(r, c) for r in range(h - side + 1) for c in range(w - side + 1)
            if mask[r : r + side, c : c + side].all()]


def test_square_search_matches_brute_force_on_random_masks():
    rng = np.random.default_rng(13)
    for _ in range(100):
        h = int(rng.integers(1, 12))
        w = h + int(rng.integers(1, 6))
        mask = rng.random((h, w)) < rng.uniform(0.5, 1.0)
        if rng.random() < 0.5:
            mask, h, w = mask.T, w, h
        truth = (~mask).astype(np.int32)  # a particle wherever the mask is off
        for side in range(1, max(h, w) + 2):  # 1, both frame sides, and past either of them
            corners = brute_force_corners(mask, side)
            assert mask_contains_square(mask, side) == bool(corners)
            if side > min(h, w):
                continue
            if corners:
                assert find_clear_square(truth, side) == corners[0]
            else:
                with pytest.raises(ValueError, match="no noise-only square"):
                    find_clear_square(truth, side)


class TestWindowSelectionBound:
    def test_zero_s1_is_vacuous(self):
        result = window_selection_bound([0], [100], b_minus_a=1, sigma=1, bound_m=1)
        assert result.raw_sum == 1.0
        assert result.clipped == 1.0

    def test_direct_evaluation(self):
        # exp(-3*100^2 / (12*100 + 4*100)) = exp(-18.75)
        result = window_selection_bound([100], [100], b_minus_a=1.0, sigma=1.0, bound_m=1.0)
        assert result.raw_sum == pytest.approx(math.exp(-18.75), rel=1e-12)
        assert result.clipped == result.raw_sum

    def test_doubling_s1_strictly_decreases_term(self):
        small = window_selection_bound([50], [100], 1.0, 1.0, 1.0).raw_sum
        large = window_selection_bound([100], [100], 1.0, 1.0, 1.0).raw_sum
        assert large < small

    def test_monotone_in_excess_and_sigma(self):
        base = window_selection_bound([50], [100], 1.0, 1.0, 1.0).raw_sum
        assert window_selection_bound([50], [200], 1.0, 1.0, 1.0).raw_sum >= base
        assert window_selection_bound([50], [100], 1.0, 2.0, 1.0).raw_sum >= base

    def test_sum_over_windows_and_clipping(self):
        result = window_selection_bound([0, 0, 100], [0, 50, 100], 1.0, 1.0, 1.0)
        assert result.raw_sum == pytest.approx(2.0 + math.exp(-18.75), rel=1e-12)
        assert result.clipped == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(s1_list=[-1], excess_list=[0]),
            dict(s1_list=[1], excess_list=[-2]),
            dict(s1_list=[1, 2], excess_list=[1]),
            dict(s1_list=[1], excess_list=[1], b_minus_a=0.0),
            dict(s1_list=[1], excess_list=[1], sigma=0.0),
            dict(s1_list=[1], excess_list=[1], bound_m=-1.0),
            dict(s1_list=[math.inf], excess_list=[1]),
            dict(s1_list=[1], excess_list=[math.inf]),
            dict(s1_list=[math.nan], excess_list=[1]),
            dict(s1_list=[1], excess_list=[1], b_minus_a=math.inf),
            dict(s1_list=[1], excess_list=[1], sigma=math.inf),
            dict(s1_list=[1], excess_list=[1], bound_m=math.inf),
            dict(s1_list=[], excess_list=[]),
        ],
    )
    def test_invalid_inputs(self, kwargs):
        full = dict(s1_list=[1], excess_list=[1], b_minus_a=1.0, sigma=1.0, bound_m=1.0)
        full.update(kwargs)
        with pytest.raises(ValueError):
            window_selection_bound(**full)


class TestMcConsistency:
    def test_noiseless_family_has_zero_error(self):
        # dyadic intensities keep the cumulative sums exact
        spec = simple_scene(a=0.25, b=0.75, boxes=((70, 70, 20),))
        table = mc_consistency(spec, UniformNoise(0.0), [8, 16, 32], trials=3, seed=0)
        for row in table.rows:
            assert row.median_abs_err == 0.0
        assert table.naive_median_abs_err > 0.0  # particle bias never vanishes

    def test_naive_mean_dominated_by_scan(self):
        # particles cover ~39% of the frame, so the naive mean is far off
        boxes = ((40, 40, 40), (40, 90, 30), (90, 40, 30), (88, 80, 40))
        spec = simple_scene(n=128, phi0=32, boxes=boxes)
        table = mc_consistency(spec, UniformNoise(0.2), [32], trials=20, seed=1)
        assert table.naive_median_abs_err > 10 * table.rows[0].median_abs_err

    def test_error_decreases_with_window_side(self):
        spec = simple_scene(n=128, phi0=32, boxes=((70, 70, 30),))
        table = mc_consistency(spec, UniformNoise(0.2), [8, 16, 32], trials=30, seed=2)
        errs = [row.median_abs_err for row in table.rows]
        assert errs[0] > errs[1] > errs[2]

    def test_csv_shape(self):
        spec = simple_scene()
        table = mc_consistency(spec, UniformNoise(0.1), [8, 16], trials=4, seed=3)
        lines = table.to_csv().strip().splitlines()
        assert lines[0] == "phi0,trials,median_abs_err,q25_abs_err,q75_abs_err,naive_median_abs_err"
        assert len(lines) == 3
        assert lines[1].startswith("8,4,")

    def test_parallel_jobs_match_serial(self):
        spec = simple_scene()
        noise = UniformNoise(0.2)
        serial = mc_consistency(spec, noise, [8, 16], trials=8, seed=5, jobs=1)
        parallel = mc_consistency(spec, noise, [8, 16], trials=8, seed=5, jobs=2)
        assert serial == parallel


class TestMcDetection:
    PARAMS = DetectParams(
        phi0=32, phi1=8, min_cluster_pixels=30, downsample_passes=0, normalize=False
    )

    def test_zero_noise_perfect_detection(self):
        spec = simple_scene(boxes=((70, 70, 20),))
        stats = mc_detection(spec, UniformNoise(0.0), self.PARAMS, trials=3, seed=0)
        assert stats.all_detected_fraction == 1.0
        assert stats.any_false_fraction == 0.0
        assert stats.mean_false_clusters == 0.0

    def test_moderate_noise_detection(self):
        spec = simple_scene(n=128, phi0=32, boxes=((60, 60, 30),))
        stats = mc_detection(spec, UniformNoise(0.15), self.PARAMS, trials=20, seed=1)
        assert stats.all_detected_fraction >= 0.95

    def test_forced_theta_above_noise_ceiling_never_alarms(self):
        # pure noise: background 0.3, bound 0.2, threshold 0.65 is unreachable
        spec = SceneSpec(n=256, a=0.3, b=1.0, particles=(),
                         noise_square=(0, 0), noise_square_side=64, min_particle_square=2)
        stats = mc_detection(
            spec, UniformNoise(0.2), self.PARAMS, trials=50, seed=2, theta=0.65
        )
        assert math.isnan(stats.all_detected_fraction)
        assert stats.any_false_fraction == 0.0

    def test_false_positive_rate_nonincreasing_with_size_scaled_cutoff(self):
        # the decay mechanism needs the significance cutoff to grow with n;
        # with cutoff side-proportional the rate cannot rise
        rates = []
        for n, cutoff in ((64, 30), (128, 60), (256, 120)):
            spec = SceneSpec(n=n, a=0.3, b=1.0, particles=(),
                             noise_square=(0, 0), noise_square_side=16,
                             min_particle_square=2)
            params = DetectParams(phi0=16, phi1=4, min_cluster_pixels=cutoff,
                                  downsample_passes=0, normalize=False)
            stats = mc_detection(spec, UniformNoise(0.2), params,
                                 trials=40, seed=3, theta=0.4)
            rates.append(stats.any_false_fraction)
        assert all(r2 <= r1 for r1, r2 in zip(rates, rates[1:]))

    def test_csv_shape(self):
        spec = simple_scene()
        stats = mc_detection(spec, UniformNoise(0.0), self.PARAMS, trials=2, seed=0)
        lines = stats.to_csv().strip().splitlines()
        assert lines[0].startswith("trials,n_particles,")
        assert lines[1].startswith("2,1,")

    def test_parallel_jobs_match_serial(self):
        spec = simple_scene(boxes=((70, 70, 20),))
        noise = UniformNoise(0.15)
        serial = mc_detection(spec, noise, self.PARAMS, trials=8, seed=4, jobs=1)
        parallel = mc_detection(spec, noise, self.PARAMS, trials=8, seed=4, jobs=2)
        assert serial == parallel

    def test_fixed_theta_on_particles_matches_a_direct_loop(self):
        # the fixed-threshold path that matches clusters to the truth
        spec = simple_scene(boxes=((70, 70, 20), (20, 90, 24)))
        noise, theta, trials = UniformNoise(0.25), 0.41, 6
        serial = mc_detection(spec, noise, self.PARAMS, trials=trials, seed=9, theta=theta)
        parallel = mc_detection(spec, noise, self.PARAMS, trials=trials, seed=9, theta=theta,
                                jobs=2)
        assert serial.to_csv() == parallel.to_csv()
        detected, false = [], []
        for t in range(trials):
            img, truth = generate_scene(spec, noise, [9, t])
            kept = filter_clusters(black_clusters(binarize(img, theta)), 30)
            summary = match_clusters(kept, truth)
            detected.append(summary.all_detected)
            false.append(summary.false_clusters)
        assert serial == DetectionStats(
            trials=trials, n_particles=2, all_detected_fraction=float(np.mean(detected)),
            any_false_fraction=float(np.mean(np.array(false) > 0)),
            mean_false_clusters=float(np.mean(false)))
        assert 0 < serial.any_false_fraction < 1  # false clusters in some trials only

    @pytest.mark.parametrize("theta, particles", [(None, True), (0.5, True), (None, False)])
    def test_downsampling_with_truth_matching_fails_before_any_pool(
            self, monkeypatch, theta, particles):
        def no_process(*args, **kwargs):
            raise AssertionError("a trial process was made")

        monkeypatch.setattr(synth, "Process", no_process)
        spec = simple_scene(boxes=((70, 70, 20),) if particles else ())
        params = DetectParams(phi0=16, phi1=4, min_cluster_pixels=30,
                              downsample_passes=1, normalize=False)
        with pytest.raises(ValueError, match=r"^downsample_passes must be 0 .* got 1$"):
            mc_detection(spec, UniformNoise(0.1), params, trials=4, seed=0, theta=theta,
                         jobs=2)

    def test_downsampled_pure_noise_at_fixed_theta_still_runs(self):
        spec = simple_scene(boxes=())
        params = DetectParams(phi0=16, phi1=4, min_cluster_pixels=30,
                              downsample_passes=1, normalize=False)
        stats = mc_detection(spec, UniformNoise(0.2), params, trials=3, seed=0, theta=0.65)
        assert stats.n_particles == 0 and stats.any_false_fraction == 0.0


class FakeProcess:
    """Stands in for multiprocessing.Process: records the trial range it was
    given, and runs it in this process when started."""

    made = []

    def __init__(self, target, args, daemon):
        self.target, self.args, self.daemon = target, args, daemon
        FakeProcess.made.append(self)

    def start(self):
        handler = signal.getsignal(signal.SIGINT)
        try:
            self.target(*self.args)  # which ignores Ctrl-C, as a child should
        finally:
            signal.signal(signal.SIGINT, handler)

    def join(self, timeout=None):
        pass

    def terminate(self):
        pass


def _pid(trial):
    return os.getpid()


@contextlib.contextmanager
def deadline(seconds):
    """Fail a call that hangs instead of stalling the suite: SIGALRM raises
    TimeoutError after `seconds`; then check the wall time the call took."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    start = time.monotonic()
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    assert time.monotonic() - start < seconds


def _in_child(caller):
    return os.getpid() != caller


def _caller_fails_while_child_runs(caller, started, trial):
    """The child marks `started` and sleeps; the caller waits for the mark, then raises."""
    if _in_child(caller):
        started.touch()
        time.sleep(60)
    for _ in range(1000):
        if started.exists():
            break
        time.sleep(0.01)
    raise ValueError("the caller's range failed")


def _big(trial):
    return bytes([trial]) * 200_000


def _child_exits(caller, trial):
    if _in_child(caller):
        os._exit(3)
    return trial


def _ranges_fail(size, failing, trial):
    """Range trial // size raises when it is in `failing`; the first failing range
    is the slowest to fail, so its exception is not the first to arrive."""
    r = trial // size
    if r in failing:
        if r == min(failing):
            time.sleep(0.3)
        raise ValueError(f"range {r} failed")
    return trial


class TwoArgError(Exception):
    """Pickles, but cannot be unpickled: loads calls TwoArgError(message)."""

    def __init__(self, what, why):
        super().__init__(f"{what} failed: {why}")


def _child_raises(caller, exc, trial):
    if _in_child(caller):
        raise exc
    return trial


def _caller_interrupted(caller, exc_type, trial):
    if _in_child(caller):
        time.sleep(60)
    raise exc_type()


class TestRunTrials:
    @pytest.fixture
    def fake_processes(self, monkeypatch):
        FakeProcess.made = []
        monkeypatch.setattr(synth, "Process", FakeProcess)
        return FakeProcess.made

    @pytest.mark.parametrize("jobs,trials,workers,size",
                             [(64, 3, 3, 1), (2, 5, 2, 3), (2, 4, 2, 2), (3, 7, 3, 3)])
    def test_one_contiguous_range_per_worker(self, fake_processes, jobs, trials, workers, size):
        ran = []
        assert synth._run_trials(lambda t: ran.append(t) or t * t, trials, jobs) == [
            t * t for t in range(trials)]
        # one daemon process per range after the first, started before the
        # caller runs the first range itself
        assert [p.args[1:3] for p in fake_processes] == [
            (start, min(start + size, trials)) for start in range(size, trials, size)]
        assert len(fake_processes) == workers - 1
        assert all(p.daemon for p in fake_processes)
        assert ran == list(range(size, trials)) + list(range(size))

    @pytest.mark.parametrize("jobs,trials", [(1, 5), (4, 1)])
    def test_one_worker_runs_in_process(self, fake_processes, jobs, trials):
        assert synth._run_trials(lambda t: t, trials, jobs) == list(range(trials))
        assert fake_processes == []

    @pytest.mark.parametrize("jobs", [0, -4])
    def test_jobs_checked_before_any_work(self, fake_processes, jobs):
        with pytest.raises(ValueError, match=f"jobs must be >= 1, got {jobs}"):
            synth._run_trials(_pid, 5, jobs)
        assert fake_processes == []

    @pytest.mark.parametrize("trials", [0, -1])
    def test_trials_checked_before_any_work(self, fake_processes, trials):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            synth._run_trials(_pid, trials, 2)
        assert fake_processes == []

    def test_each_range_runs_in_one_process(self):
        # the caller runs the first range itself, one other process each later range
        pids = synth._run_trials(_pid, 7, 3)
        assert pids[:3] == [os.getpid()] * 3
        assert len(set(pids[3:6])) == 1 and len(set(pids[6:])) == 1
        assert len({os.getpid(), pids[3], pids[6]}) == 3
        assert multiprocessing.active_children() == []

    def test_harnesses_check_trials(self):
        spec = simple_scene()
        with pytest.raises(ValueError, match="trials must be >= 1"):
            mc_consistency(spec, UniformNoise(0.1), [8], trials=0, seed=0, jobs=2)
        with pytest.raises(ValueError, match="trials must be >= 1"):
            mc_detection(spec, UniformNoise(0.1), TestMcDetection.PARAMS, trials=0, seed=0)

    def test_failed_parallel_trial_leaves_no_worker(self):
        spec = simple_scene(n=64, phi0=16, boxes=((40, 40, 12),))
        params = DetectParams(phi0=128, phi1=8, min_cluster_pixels=30,
                              downsample_passes=0, normalize=False)
        with pytest.raises(ValueError, match="smaller than the largest scan window"):
            mc_detection(spec, UniformNoise(0.1), params, trials=4, seed=0, jobs=2)
        assert multiprocessing.active_children() == []

    def test_caller_failure_stops_a_running_child(self, tmp_path):
        trial = partial(_caller_fails_while_child_runs, os.getpid(), tmp_path / "started")
        with deadline(20), pytest.raises(ValueError, match="the caller's range failed"):
            synth._run_trials(trial, 2, 2)  # the child would sleep for 60 s
        assert (tmp_path / "started").exists()
        assert multiprocessing.active_children() == []

    def test_results_larger_than_a_pipe_buffer_come_back(self):
        with deadline(20):
            assert synth._run_trials(_big, 4, 2) == [_big(t) for t in range(4)]
        assert multiprocessing.active_children() == []

    def test_child_that_exits_without_results_names_its_code(self):
        with deadline(20), pytest.raises(RuntimeError, match="exited with code 3 "):
            synth._run_trials(partial(_child_exits, os.getpid()), 4, 2)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("failing", [(1, 2), (0, 2), (0, 1)])
    def test_first_failing_range_wins(self, failing):
        with deadline(20), pytest.raises(ValueError) as info:
            synth._run_trials(partial(_ranges_fail, 2, failing), 6, 3)
        assert type(info.value) is ValueError
        assert str(info.value) == f"range {min(failing)} failed"
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("exc, text", [
        (ValueError(lambda: 0), r"ValueError: <function .*cannot be sent back"),
        (TwoArgError("trial", "bad"), r"TwoArgError: trial failed: bad \(cannot be sent back"),
    ], ids=["cannot_pickle", "cannot_unpickle"])
    def test_child_exception_that_cannot_travel_still_returns(self, exc, text):
        with deadline(20), pytest.raises(RuntimeError, match=text):
            synth._run_trials(partial(_child_raises, os.getpid(), exc), 4, 2)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("exc_type", [KeyboardInterrupt, SystemExit])
    def test_interrupt_in_caller_stops_every_child(self, exc_type):
        # SystemExit is what the benchmark's SIGTERM handler raises
        with deadline(20), pytest.raises(exc_type):
            synth._run_trials(partial(_caller_interrupted, os.getpid(), exc_type), 6, 3)
        assert multiprocessing.active_children() == []

    def test_child_failure_keeps_its_type(self):
        with deadline(20), pytest.raises(DegenerateEstimatesError, match="^flat$"):
            synth._run_trials(partial(_child_raises, os.getpid(),
                                      DegenerateEstimatesError("flat")), 4, 2)
        assert multiprocessing.active_children() == []


class TestPercolationPhase:
    def test_rows_and_reproducibility(self):
        table = percolation_phase(64, [0.4, 0.6], trials=5, seed=0)
        assert len(table.rows) == 10
        again = percolation_phase(64, [0.4, 0.6], trials=5, seed=0)
        assert table == again
        high = [r.largest_fraction for r in table.rows if r.p == 0.6]
        low = [r.largest_fraction for r in table.rows if r.p == 0.4]
        assert min(high) > max(low)

    def test_csv_header(self):
        table = percolation_phase(16, [0.5], trials=2, seed=1)
        lines = table.to_csv().strip().splitlines()
        assert lines[0] == "p,trial,largest_cluster,largest_fraction,n_clusters"
        assert len(lines) == 3
