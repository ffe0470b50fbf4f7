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

from .image import Micrograph, _owned

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
        b = _owned(self.bits, np.bool_)
        if b.ndim != 2 or b.shape[0] < 1 or b.shape[1] < 1:
            raise ValueError(f"bits must be a non-empty 2D grid, got shape {b.shape}")
        b.setflags(write=False)
        object.__setattr__(self, "bits", b)


def _adopt_bits(bits: np.ndarray) -> BinaryImage:
    """Wrap a bool array just computed and held by no one else, without a copy."""
    bits.setflags(write=False)
    return BinaryImage(bits)


@dataclass(frozen=True)
class Cluster:
    """A maximal black connected component. bbox is (min_row, min_col,
    max_row, max_col); the pixels of the i-th cluster of a ClusterSequence
    are where its label image equals i + 1.
    """

    id: int
    pixel_count: int
    bbox: tuple[int, int, int, int]


def binarize(img: Micrograph, theta: float) -> BinaryImage:
    """Threshold at level theta: a pixel is black iff its value is >= theta."""
    theta = float(theta)
    if not np.isfinite(theta):
        raise ValueError(f"threshold must be finite, got {theta}")
    return _adopt_bits(img.pixels >= theta)


def label_black(image: BinaryImage) -> tuple[np.ndarray, int]:
    """Label black connected components under triangular adjacency.

    Returns (labels, count) where labels holds 0 on white pixels and k on the
    pixels of cluster k - 1, for k in 1..count: scipy.ndimage.label's
    numbering, the one numbering of every label image in the package. Ids
    follow discovery order of a row-major scan: the cluster whose first pixel
    appears earliest gets id 0 and label 1 (a test pins scipy's order against
    a depth-first reference). labels is intp, so counting sizes with
    np.bincount needs no copy.
    """
    return ndimage.label(image.bits, structure=_TRI_STRUCTURE, output=np.intp)


class ClusterSequence(Sequence):
    """Black clusters of one picture in discovery order, carried by a label
    image: the package's one cluster format.

    labels is a read-only grid in label_black's numbering: i + 1 on the pixels
    of the i-th cluster of the sequence, 0 elsewhere; ids[i] and sizes[i] are
    that cluster's id and pixel count. black_clusters gives the sequence of all
    clusters, over label_black's own image (ids[i] == i), and filter_clusters a
    shorter one over a relabelled image. The Cluster objects are built on the
    first read, from their boxes in labels, and kept, so repeated reads return
    the same object.
    """

    def __init__(self, labels: np.ndarray, ids: np.ndarray, sizes: np.ndarray):
        for a in (labels, ids, sizes):
            a.setflags(write=False)
        self.labels, self.ids, self.sizes = labels, ids, sizes
        self._built = None

    def __len__(self) -> int:
        return self.sizes.size

    def __getitem__(self, index):
        if self._built is None:
            boxes = ndimage.find_objects(self.labels, max_label=len(self))
            self._built = tuple(
                Cluster(cid, size, (rows.start, cols.start, rows.stop - 1, cols.stop - 1))
                for cid, size, (rows, cols) in zip(self.ids.tolist(), self.sizes.tolist(), boxes))
        return list(self._built[index]) if isinstance(index, slice) else self._built[index]

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))


def black_clusters(image: BinaryImage) -> ClusterSequence:
    """All maximal black clusters, ordered by discovery, ids consecutive from 0.

    One labelling pass and one size count; a cluster is built only when read.
    """
    labels, count = label_black(image)
    sizes = np.bincount(labels.ravel(), minlength=count + 1)[1:]
    return ClusterSequence(labels, np.arange(count), sizes)


def cluster_sizes(image: BinaryImage) -> np.ndarray:
    """Pixel counts of all black clusters in discovery order; builds no cluster."""
    return black_clusters(image).sizes


def filter_clusters(clusters: ClusterSequence, min_pixels: int) -> ClusterSequence:
    """Keep clusters with at least min_pixels pixels, preserving order and ids.

    The result's label image, a lookup table applied to the input's, holds only
    the kept clusters (or the result is the input itself if all are kept); so
    no dropped cluster is ever boxed.
    """
    if min_pixels < 1:
        raise ValueError(f"min_pixels must be >= 1, got {min_pixels}")
    keep = clusters.sizes >= min_pixels
    if keep.all():
        return clusters
    lut = np.zeros(len(clusters) + 1, dtype=np.int32)
    lut[1:][keep] = np.arange(1, np.count_nonzero(keep) + 1)
    return ClusterSequence(lut[clusters.labels], clusters.ids[keep], clusters.sizes[keep])


def bernoulli_field(width: int, height: int, p: float, seed) -> BinaryImage:
    """I.i.d. site field: each pixel black with probability p, seeded."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"site probability must be in [0, 1], got {p}")
    if width < 1 or height < 1:
        raise ValueError(f"field must be at least 1x1, got {width}x{height}")
    rng = np.random.default_rng(seed)
    return _adopt_bits(rng.random((height, width)) < p)
