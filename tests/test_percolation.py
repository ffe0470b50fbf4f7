"""Thresholding, triangular adjacency, and cluster extraction.

The labeling engine is checked against an independent reference: an
explicit-stack depth-first search over tri_neighbors, seeded in row-major
order. The two must produce identical partitions and identical ids. A
cluster's pixels are read from the label image of the sequence that holds it.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from percopick import (
    TRI_OFFSETS,
    BinaryImage,
    Micrograph,
    bernoulli_field,
    binarize,
    black_clusters,
    cluster_sizes,
    filter_clusters,
    label_black,
)


def tri_neighbors(row, col, width, height):
    """In-bounds triangular-lattice neighbors of (row, col): the oracle's walk."""
    if not (0 <= row < height and 0 <= col < width):
        raise ValueError(
            f"pixel (row={row}, col={col}) not inside a {width}x{height} image"
        )
    out = []
    for dr, dc in TRI_OFFSETS:
        r, c = row + dr, col + dc
        if 0 <= r < height and 0 <= c < width:
            out.append((r, c))
    return out


def pixels_of(clusters, i):
    """Row-major (row, col) pixels of the i-th cluster of a ClusterSequence."""
    return np.argwhere(clusters.labels == i + 1)


def dfs_labels(bits):
    """Reference labeling: iterative DFS, row-major seeds, ids from 0."""
    h, w = bits.shape
    labels = np.full((h, w), -1, dtype=np.int64)
    next_id = 0
    for sr in range(h):
        for sc in range(w):
            if not bits[sr, sc] or labels[sr, sc] >= 0:
                continue
            stack = [(sr, sc)]
            labels[sr, sc] = next_id
            while stack:
                r, c = stack.pop()
                for nr, nc in tri_neighbors(r, c, w, h):
                    if bits[nr, nc] and labels[nr, nc] < 0:
                        labels[nr, nc] = next_id
                        stack.append((nr, nc))
            next_id += 1
    return labels, next_id


def brute_force_kept(bits, min_pixels):
    """(id, pixel_count, bbox, row-major pixels) of every DFS cluster of at
    least min_pixels pixels, in id order."""
    ref_labels, ref_count = dfs_labels(bits)
    expected = []
    for cid in range(ref_count):
        pixels = np.argwhere(ref_labels == cid)  # row-major
        if len(pixels) >= min_pixels:
            (r0, c0), (r1, c1) = pixels.min(axis=0), pixels.max(axis=0)
            expected.append((cid, len(pixels), (r0, c0, r1, c1), pixels.tolist()))
    return expected


class TestBinaryImage:
    def test_source_array_not_aliased(self):
        src = np.zeros((2, 2), dtype=bool)
        img = BinaryImage(src)
        src[0, 0] = True
        assert not img.bits[0, 0]

    def test_read_only_view_of_writeable_array_is_copied(self):
        src = np.zeros((2, 2), dtype=bool)
        view = src.view()
        view.setflags(write=False)
        img = BinaryImage(view)
        src[0, 0] = True
        assert not img.bits[0, 0]

    def test_own_read_only_bits_are_shared(self):
        field = BinaryImage(np.zeros((2, 2), dtype=bool))
        assert BinaryImage(field.bits).bits is field.bits
        assert binarize(Micrograph([[0.1, 0.9]]), 0.5).bits.base is None  # adopted as is

    @pytest.mark.parametrize("shape", [(3,), (0, 3), (3, 0), ()])
    def test_not_a_non_empty_grid_rejected(self, shape):
        with pytest.raises(ValueError, match="non-empty 2D grid"):
            BinaryImage(np.zeros(shape, dtype=bool))

    def test_bits_read_only(self):
        with pytest.raises(ValueError):
            binarize(Micrograph([[0.1, 0.9]]), 0.5).bits[0, 0] = True


class TestBinarize:
    def test_boundary_is_greater_or_equal(self):
        img = Micrograph([[0.3, 0.5], [0.386, 0.2]])
        out = binarize(img, 0.386)
        assert out.bits.tolist() == [[False, True], [True, False]]

    def test_threshold_below_min_gives_all_black(self):
        img = Micrograph([[0.1, 0.9], [0.5, 0.3]])
        assert binarize(img, -1e9).bits.all()

    def test_threshold_above_max_gives_all_white(self):
        img = Micrograph([[0.1, 0.9], [0.5, 0.3]])
        assert not binarize(img, 1e9).bits.any()

    def test_non_finite_threshold_rejected(self):
        with pytest.raises(ValueError):
            binarize(Micrograph([[1.0]]), float("nan"))


class TestTriNeighbors:
    def test_interior_has_six(self):
        got = set(tri_neighbors(5, 5, 10, 10))
        assert got == {(4, 5), (6, 5), (5, 4), (5, 6), (4, 6), (6, 4)}

    def test_top_left_corner(self):
        assert set(tri_neighbors(0, 0, 10, 10)) == {(1, 0), (0, 1)}

    def test_top_right_corner_keeps_down_left_diagonal(self):
        got = set(tri_neighbors(0, 9, 10, 10))
        assert got == {(0, 8), (1, 9), (1, 8)}

    def test_bottom_left_corner_keeps_up_right_diagonal(self):
        got = set(tri_neighbors(9, 0, 10, 10))
        assert got == {(8, 0), (9, 1), (8, 1)}

    def test_out_of_bounds_center_rejected(self):
        with pytest.raises(ValueError):
            tri_neighbors(10, 0, 10, 10)

    def test_adjacency_is_symmetric(self):
        w = h = 7
        for r in range(h):
            for c in range(w):
                for nr, nc in tri_neighbors(r, c, w, h):
                    assert (r, c) in tri_neighbors(nr, nc, w, h)


class TestBlackClusters:
    def test_all_white_empty(self):
        assert black_clusters(BinaryImage(np.zeros((5, 5), dtype=bool))) == []

    def test_not_equal_to_a_non_sequence(self):
        assert black_clusters(BinaryImage(np.ones((2, 2), dtype=bool))) != 5

    def test_single_pixel(self):
        bits = np.zeros((4, 4), dtype=bool)
        bits[2, 1] = True
        clusters = black_clusters(BinaryImage(bits))
        (cluster,) = clusters
        assert cluster.id == 0
        assert cluster.pixel_count == 1
        assert pixels_of(clusters, 0).tolist() == [[2, 1]]
        assert cluster.bbox == (2, 1, 2, 1)

    def test_main_diagonal_is_not_an_edge(self):
        bits = np.zeros((3, 3), dtype=bool)
        bits[0, 0] = bits[1, 1] = True
        assert len(black_clusters(BinaryImage(bits))) == 2

    def test_anti_diagonal_is_an_edge(self):
        bits = np.zeros((3, 3), dtype=bool)
        bits[0, 1] = bits[1, 0] = True
        assert len(black_clusters(BinaryImage(bits))) == 1

    def test_discovery_order_and_consecutive_ids(self):
        bits = np.zeros((6, 6), dtype=bool)
        bits[0, 4] = True          # first by row-major scan
        bits[2, 0:2] = True        # second
        bits[5, 5] = True          # third
        clusters = black_clusters(BinaryImage(bits))
        assert [c.id for c in clusters] == [0, 1, 2]
        assert pixels_of(clusters, 0).tolist() == [[0, 4]]
        assert clusters[1].pixel_count == 2
        assert pixels_of(clusters, 2).tolist() == [[5, 5]]

    @pytest.mark.parametrize("seed", range(8))
    def test_partition_identical_to_dfs_reference(self, seed):
        rng = np.random.default_rng(400 + seed)
        bits = rng.random((24, 31)) < 0.45
        labels, count = label_black(BinaryImage(bits))
        ref_labels, ref_count = dfs_labels(bits)
        assert count == ref_count
        assert np.array_equal(labels, ref_labels + 1)

    def test_partition_identical_to_dfs_near_critical(self):
        bits = (np.random.default_rng(99).random((60, 60)) < 0.5)
        labels, count = label_black(BinaryImage(bits))
        ref_labels, ref_count = dfs_labels(bits)
        assert count == ref_count
        assert np.array_equal(labels, ref_labels + 1)

    def test_clusters_partition_black_pixels(self):
        rng = np.random.default_rng(11)
        bits = rng.random((20, 20)) < 0.5
        clusters = black_clusters(BinaryImage(bits))
        total = sum(c.pixel_count for c in clusters)
        assert total == int(bits.sum())
        seen = set()
        for i in range(len(clusters)):
            for r, col in pixels_of(clusters, i):
                assert bits[r, col]
                assert (r, col) not in seen
                seen.add((r, col))

    @pytest.mark.parametrize("p", [0.4, 0.5, 0.6])
    def test_scipy_labels_in_discovery_order_at_scale(self, p):
        # label_black relies on scipy numbering components by first raster
        # appearance; a scipy release that changes this must fail here.
        bits = np.random.default_rng([500, int(p * 10)]).random((128, 160)) < p
        labels, count = label_black(BinaryImage(bits))
        ref_labels, ref_count = dfs_labels(bits)
        assert count == ref_count
        assert np.array_equal(labels, ref_labels + 1)

    def test_cluster_maximality(self):
        rng = np.random.default_rng(13)
        bits = rng.random((15, 15)) < 0.5
        labels, _ = label_black(BinaryImage(bits))
        for r in range(15):
            for c in range(15):
                if not bits[r, c]:
                    continue
                for nr, nc in tri_neighbors(r, c, 15, 15):
                    if bits[nr, nc]:
                        assert labels[nr, nc] == labels[r, c]

    def test_cluster_sizes_matches_clusters(self):
        rng = np.random.default_rng(14)
        bits = rng.random((25, 25)) < 0.4
        clusters = black_clusters(BinaryImage(bits))
        sizes = cluster_sizes(BinaryImage(bits))
        assert sizes.tolist() == [c.pixel_count for c in clusters]

    def test_sizes_counted_without_copying_the_labels(self):
        # the 8-byte label image itself, and no second frame-size array to count it
        field = bernoulli_field(512, 512, 0.45, 15)
        tracemalloc.start()
        try:
            black_clusters(field)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.3 * 8 * 512 * 512


class TestFilterClusters:
    def test_keeps_only_large_enough(self):
        bits = np.zeros((40, 40), dtype=bool)
        bits[0, 0:5] = True            # 5 pixels
        bits[10:15, 10:16] = True      # 30 pixels
        bits[20:30, 20:40] = True      # 200 pixels
        clusters = black_clusters(BinaryImage(bits))
        assert sorted(c.pixel_count for c in clusters) == [5, 30, 200]
        kept = filter_clusters(clusters, 30)
        assert sorted(c.pixel_count for c in kept) == [30, 200]

    def test_min_one_is_identity(self):
        bits = np.random.default_rng(2).random((10, 10)) < 0.5
        clusters = black_clusters(BinaryImage(bits))
        assert filter_clusters(clusters, 1) == clusters

    @pytest.mark.parametrize("min_pixels", [1, 2, 30])
    @pytest.mark.parametrize("seed, p", [(0, 0.45), (1, 0.5), (2, 0.55)])
    def test_matches_brute_force_from_dfs(self, seed, p, min_pixels):
        bits = np.random.default_rng([600, seed]).random((70, 90)) < p
        ref_labels, ref_count = dfs_labels(bits)
        expected = []
        for cid in range(ref_count):
            pixels = np.argwhere(ref_labels == cid)  # row-major
            if len(pixels) >= min_pixels:
                (r0, c0), (r1, c1) = pixels.min(axis=0), pixels.max(axis=0)
                expected.append((cid, len(pixels), (r0, c0, r1, c1), pixels.tolist()))
        clusters = black_clusters(BinaryImage(bits))
        assert len(clusters) == ref_count
        assert cluster_sizes(BinaryImage(bits)).tolist() == np.bincount(
            ref_labels[ref_labels >= 0], minlength=ref_count).tolist()
        kept = filter_clusters(clusters, min_pixels)
        assert [(c.id, c.pixel_count, c.bbox, pixels_of(kept, i).tolist())
                for i, c in enumerate(kept)] == expected

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(height=st.integers(1, 64), width=st.integers(1, 64),
           p=st.floats(0.3, 0.7), min_pixels=st.integers(1, 40),
           seed=st.integers(0, 2**32 - 1))
    def test_kept_clusters_match_brute_force_property(self, height, width, p, min_pixels, seed):
        bits = np.random.default_rng(seed).random((height, width)) < p
        kept = filter_clusters(black_clusters(BinaryImage(bits)), min_pixels)
        expected = brute_force_kept(bits, min_pixels)
        assert [(c.id, c.pixel_count, c.bbox, pixels_of(kept, i).tolist())
                for i, c in enumerate(kept)] == expected
        # the label image holds i + 1 on the i-th kept cluster and 0 elsewhere
        painted = np.zeros((height, width), dtype=np.int64)
        for i, (_, _, _, pixels) in enumerate(expected, 1):
            painted[tuple(np.array(pixels).T)] = i
        assert np.array_equal(kept.labels, painted)

    def test_built_clusters_are_memoized(self):
        bits = np.random.default_rng(3).random((20, 20)) < 0.5
        clusters = black_clusters(BinaryImage(bits))
        assert clusters[-1] is clusters[len(clusters) - 1]
        assert clusters[1:3] == [clusters[1], clusters[2]]
        with pytest.raises(IndexError):
            clusters[len(clusters)]

    def test_empty_input(self):
        empty = black_clusters(BinaryImage(np.zeros((5, 5), dtype=bool)))
        assert filter_clusters(empty, 30) == []

    def test_invalid_min_pixels(self):
        with pytest.raises(ValueError):
            filter_clusters([], 0)


class TestBernoulliField:
    def test_p_zero_all_white(self):
        assert not bernoulli_field(16, 16, 0.0, 1).bits.any()

    def test_p_one_single_full_cluster(self):
        field = bernoulli_field(8, 8, 1.0, 1)
        assert field.bits.all()
        (cluster,) = black_clusters(field)
        assert cluster.pixel_count == 64

    def test_reproducible_from_seed(self):
        a = bernoulli_field(32, 32, 0.3, 123)
        b = bernoulli_field(32, 32, 0.3, 123)
        assert np.array_equal(a.bits, b.bits)

    def test_black_fraction_concentrates(self):
        # per-trial fraction has sd 0.5/256, so 0.01 is a >5 sigma margin
        for t in range(50):
            field = bernoulli_field(256, 256, 0.5, [60, t])
            frac = field.bits.mean()
            assert abs(frac - 0.5) < 0.01

    def test_p_out_of_range(self):
        with pytest.raises(ValueError):
            bernoulli_field(4, 4, 1.5, 0)
        with pytest.raises(ValueError):
            bernoulli_field(4, 4, -0.1, 0)

    def test_empty_field_rejected(self):
        with pytest.raises(ValueError, match="at least 1x1, got 0x0"):
            bernoulli_field(0, 0, 0.5, 0)
