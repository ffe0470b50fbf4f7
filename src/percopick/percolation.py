"""Thresholding and black-cluster extraction on a triangular-lattice pixel graph.

Square pixel grids are mapped onto the triangular lattice with the standard
sheared embedding: each site neighbors the four axis moves plus the
(up, right) and (down, left) diagonals. This keeps the site-percolation
critical probability at exactly 1/2, which is what separates clusters grown
inside particles from clusters grown in background noise.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .image import Micrograph

# Neighbor offsets of the sheared triangular-lattice embedding.
TRI_OFFSETS = ((-1, 0), (1, 0), (0, -1), (0, 1), (-1, 1), (1, -1))

# Same adjacency as a 3x3 structuring element for connected-component labeling.
_TRI_STRUCTURE = np.zeros((3, 3), dtype=bool)
_TRI_STRUCTURE[1, 1] = True
for _dr, _dc in TRI_OFFSETS:
    _TRI_STRUCTURE[1 + _dr, 1 + _dc] = True


@dataclass(frozen=True, eq=False)
class BinaryImage:
    """A thresholded picture: True = black."""

    bits: np.ndarray

    def __post_init__(self):
        b = np.array(self.bits, dtype=bool, copy=True, order="C")
        if b.ndim != 2 or b.shape[0] < 1 or b.shape[1] < 1:
            raise ValueError(f"bits must be a non-empty 2D grid, got shape {b.shape}")
        b.setflags(write=False)
        object.__setattr__(self, "bits", b)

    @property
    def height(self) -> int:
        return self.bits.shape[0]

    @property
    def width(self) -> int:
        return self.bits.shape[1]


@dataclass(frozen=True, eq=False)
class Cluster:
    """A maximal black connected component.

    pixels is an (n, 2) array of (row, col) pairs in row-major scan order;
    bbox is (min_row, min_col, max_row, max_col).
    """

    id: int
    pixel_count: int
    pixels: np.ndarray
    bbox: tuple[int, int, int, int]


def binarize(img: Micrograph, theta: float) -> BinaryImage:
    """Threshold at level theta: a pixel is black iff its value is >= theta."""
    theta = float(theta)
    if not np.isfinite(theta):
        raise ValueError(f"threshold must be finite, got {theta}")
    return BinaryImage(img.pixels >= theta)


def tri_neighbors(row: int, col: int, width: int, height: int) -> list[tuple[int, int]]:
    """In-bounds triangular-lattice neighbors of (row, col)."""
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


def label_black(image: BinaryImage) -> tuple[np.ndarray, int]:
    """Label black connected components under triangular adjacency.

    Returns (labels, count) where labels holds -1 on white pixels and cluster
    ids 0..count-1 on black ones. Ids follow discovery order of a row-major
    scan: the cluster whose first pixel appears earliest gets id 0.
    scipy.ndimage.label already numbers components in that order (a test pins
    it against a depth-first reference), so its labels need only the shift.
    """
    raw, count = ndimage.label(image.bits, structure=_TRI_STRUCTURE)
    return np.subtract(raw, 1, dtype=np.int64), count


class ClusterSequence(Sequence):
    """All black clusters of one picture, in discovery order, built on demand.

    Only the label image and the size of every cluster are computed up front.
    A Cluster is built the first time it is read, from its bounding box, and
    kept, so repeated reads return the same object. The boxes themselves are
    found on the first read, so size-only callers never pay for them.

    sizes is the read-only array of pixel counts indexed by cluster id.
    """

    def __init__(self, labels: np.ndarray, count: int):
        # labels: scipy's numbering, 0 on white pixels and id + 1 on black ones
        labels.setflags(write=False)
        self._labels = labels
        self._boxes = None
        self._built: dict[int, Cluster] = {}
        self.sizes = np.bincount(labels.ravel(), minlength=count + 1)[1:]
        self.sizes.setflags(write=False)

    def __len__(self) -> int:
        return self.sizes.size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        cid = range(len(self))[index]  # normalizes negatives, raises IndexError
        cluster = self._built.get(cid)
        if cluster is None:
            cluster = self._built.setdefault(cid, self._build(cid))
        return cluster

    def _build(self, cid: int) -> Cluster:
        if self._boxes is None:
            self._boxes = ndimage.find_objects(self._labels, max_label=len(self))
        rows, cols = self._boxes[cid]
        rr, cc = np.nonzero(self._labels[rows, cols] == cid + 1)  # row-major
        return Cluster(
            id=cid,
            pixel_count=int(self.sizes[cid]),
            pixels=np.column_stack((rr + rows.start, cc + cols.start)),
            bbox=(rows.start, cols.start, rows.stop - 1, cols.stop - 1),
        )

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))


def black_clusters(image: BinaryImage) -> ClusterSequence:
    """All maximal black clusters, ordered by discovery, ids consecutive from 0.

    One labelling pass and one size count; a cluster is built only when read.
    """
    labels, count = label_black(image)
    labels += 1  # back to scipy's numbering, which bincount and find_objects take
    return ClusterSequence(labels, count)


def cluster_sizes(image: BinaryImage) -> np.ndarray:
    """Pixel counts of all black clusters in discovery order; builds no cluster."""
    return black_clusters(image).sizes


def filter_clusters(clusters: Sequence[Cluster], min_pixels: int) -> list[Cluster]:
    """Keep clusters with at least min_pixels pixels, preserving order and ids.

    From a ClusterSequence the survivors are picked by size and only they are
    built.
    """
    if min_pixels < 1:
        raise ValueError(f"min_pixels must be >= 1, got {min_pixels}")
    if isinstance(clusters, ClusterSequence):
        return [clusters[cid] for cid in np.flatnonzero(clusters.sizes >= min_pixels)]
    return [c for c in clusters if c.pixel_count >= min_pixels]


def bernoulli_field(width: int, height: int, p: float, seed) -> BinaryImage:
    """I.i.d. site field: each pixel black with probability p, seeded."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"site probability must be in [0, 1], got {p}")
    if width < 1 or height < 1:
        raise ValueError(f"field must be at least 1x1, got {width}x{height}")
    rng = np.random.default_rng(seed)
    return BinaryImage(rng.random((height, width)) < p)
