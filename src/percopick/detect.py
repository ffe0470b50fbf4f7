"""End-to-end detection: estimate intensities, threshold at the midpoint,
extract black clusters, filter small ones, and report.

The pipeline preprocesses (downsample passes, then optional normalization),
estimates the background and particle intensities with the scan windows, and
thresholds at their midpoint. Clusters that survive the pixel-count filter
are reported as particles.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from enum import Enum

import numpy as np

from .image import Micrograph, downsample2x, normalize_max1
from .percolation import (BinaryImage, ClusterSequence, _adopt_bits, binarize, black_clusters,
                          filter_clusters)
from .scan import IntensityEstimates, estimate_intensities


class DegenerateEstimatesError(ValueError):
    """Raised when the estimated background is not below the estimated particle
    intensity, so the midpoint threshold would be meaningless."""


class Decision(str, Enum):
    PARTICLES_FOUND = "ParticlesFound"
    NO_PARTICLES = "NoParticles"


@dataclass(frozen=True)
class DetectParams:
    """Pipeline parameters. Defaults follow the reference cryo-EM workflow:
    downsample twice, normalize to peak 1, windows 65 and 9, keep clusters of
    at least 30 pixels."""

    phi0: int = 65
    phi1: int = 9
    min_cluster_pixels: int = 30
    downsample_passes: int = 2
    normalize: bool = True

    def __post_init__(self):
        if self.phi0 < 1 or self.phi1 < 1:
            raise ValueError(f"window sides must be >= 1, got {self.phi0}, {self.phi1}")
        if self.min_cluster_pixels < 1:
            raise ValueError(f"min_cluster_pixels must be >= 1, got {self.min_cluster_pixels}")
        if self.downsample_passes < 0:
            raise ValueError(f"downsample_passes must be >= 0, got {self.downsample_passes}")


@dataclass(frozen=True, eq=False)
class DetectionReport:
    estimates: IntensityEstimates
    theta: float
    clusters_kept: ClusterSequence
    clusters_total: int
    decision: Decision
    params: DetectParams


@dataclass(frozen=True, eq=False)
class DetectionArtifacts:
    """A report plus the thresholded picture the report was computed from."""

    report: DetectionReport
    binary: BinaryImage

    @property
    def kept_binary(self) -> BinaryImage:
        """The kept clusters as a picture, built on each read."""
        return _adopt_bits(self.report.clusters_kept.labels > 0)


@dataclass(frozen=True)
class MatchSummary:
    """Ground-truth comparison: which particles were hit, how many kept
    clusters hit nothing."""

    detected: tuple[bool, ...]
    false_clusters: int

    @property
    def all_detected(self) -> bool:
        return all(self.detected)


def compute_threshold(a_hat: float, b_hat: float) -> float:
    """Midpoint threshold between the two intensity estimates."""
    if not a_hat < b_hat:
        raise DegenerateEstimatesError(
            f"degenerate estimates: a_hat={a_hat!r} is not below b_hat={b_hat!r}"
        )
    return (a_hat + b_hat) / 2.0


def preprocess(img: Micrograph, params: DetectParams, *, passes_done: int = 0) -> Micrograph:
    """Apply downsample passes, then optional normalization; verify the result
    is still large enough for both scan windows.

    passes_done says how many of params.downsample_passes img has had already,
    as read_image(path, downsample_passes=...) applies them.
    """
    if not 0 <= passes_done <= params.downsample_passes:
        raise ValueError(f"passes_done must be in 0..{params.downsample_passes}, "
                         f"got {passes_done}")
    out = img
    for _ in range(params.downsample_passes - passes_done):
        out = downsample2x(out)
    if params.normalize:
        out = normalize_max1(out)
    need = max(params.phi0, params.phi1)
    if min(out.width, out.height) < need:
        raise ValueError(
            f"image is {out.width}x{out.height} after preprocessing, "
            f"smaller than the largest scan window ({need})"
        )
    return out


def run_detection_artifacts(img: Micrograph, params: DetectParams, *,
                            passes_done: int = 0) -> DetectionArtifacts:
    """Full pipeline, returning the report together with the thresholded
    picture; passes_done is as in preprocess."""
    pre = preprocess(img, params, passes_done=passes_done)
    del img  # the raw frame is freed here unless the caller still holds it
    estimates = estimate_intensities(pre, params.phi0, params.phi1)
    theta = compute_threshold(estimates.a_hat, estimates.b_hat)
    binary = binarize(pre, theta)
    del pre  # every later step reads the thresholded picture alone
    clusters = black_clusters(binary)
    kept = filter_clusters(clusters, params.min_cluster_pixels)
    decision = Decision.PARTICLES_FOUND if kept else Decision.NO_PARTICLES
    report = DetectionReport(estimates=estimates, theta=theta, clusters_kept=kept,
                             clusters_total=len(clusters), decision=decision, params=params)
    return DetectionArtifacts(report=report, binary=binary)


def run_detection(img: Micrograph, params: DetectParams) -> DetectionReport:
    """Full pipeline: preprocess, estimate, threshold, cluster, filter, decide."""
    return run_detection_artifacts(img, params).report


def match_clusters(clusters: ClusterSequence, truth) -> MatchSummary:
    """Match kept clusters against a ground-truth label image.

    truth holds i + 1 on the pixels of particle i and 0 elsewhere, as
    SceneSpec.truth does, so there are truth.max() particles; its shape must
    be that of the clusters' label image. A particle counts as detected when
    some kept cluster intersects it; clusters can legitimately merge over
    several particles. A kept cluster intersecting no particle is a false
    cluster. The overlaps are one count of (cluster label, truth label) pairs.
    """
    kept, truth = clusters.labels, np.asarray(truth)
    if truth.shape != kept.shape:
        raise ValueError(f"truth image has shape {truth.shape}, expected {kept.shape}")
    on = np.flatnonzero(kept)  # pixels off the kept clusters make no pair that counts
    t = int(truth.max(initial=0)) + 1
    pairs = np.bincount(kept.ravel()[on].astype(np.intp) * t + truth.ravel()[on],
                        minlength=(len(clusters) + 1) * t)
    hits = pairs.reshape(-1, t)[1:, 1:] > 0  # row: kept cluster, column: particle
    return MatchSummary(detected=tuple(hits.any(axis=0).tolist()),
                        false_clusters=int(np.count_nonzero(~hits.any(axis=1))))


def match_detections(report: DetectionReport, truth) -> MatchSummary:
    """Match a report's kept clusters against a truth label image (see match_clusters)."""
    return match_clusters(report.clusters_kept, truth)


def fmt6(x: float) -> str:
    """6 significant digits: the one float format of reports, CSVs and printouts."""
    return f"{x:.6g}"


def report_to_dict(report: DetectionReport) -> dict:
    return {
        "a_hat": float(fmt6(report.estimates.a_hat)),
        "b_hat": float(fmt6(report.estimates.b_hat)),
        "theta": float(fmt6(report.theta)),
        "clusters": [
            {"id": c.id, "pixel_count": c.pixel_count, "bbox": list(c.bbox)}
            for c in report.clusters_kept
        ],
        "clusters_total": report.clusters_total,
        "decision": report.decision.value,
        "params": asdict(report.params),  # field order is the key order
        "dims": list(report.clusters_kept.labels.shape[::-1]),  # (width, height)
    }


# One cluster of the report's "clusters" list as json.dumps(indent=2) lays it
# out there; its fields are ints, which json writes as %d does.
_CLUSTER_JSON = """    {
      "id": %d,
      "pixel_count": %d,
      "bbox": [
        %d,
        %d,
        %d,
        %d
      ]
    }"""


def report_to_json(report: DetectionReport) -> str:
    """Serialize a report with fixed key order and 6-significant-digit floats,
    so identical runs produce byte-identical documents."""
    return _report_json(report_to_dict(report))


def _report_json(doc: dict) -> str:
    """json.dumps(doc, indent=2) + "\n" of a report_to_dict document. The
    clusters, which can number thousands, are laid out here rather than by
    json's pure-Python indenting encoder, which costs about 5 us a cluster."""
    clusters = doc["clusters"]
    text = json.dumps({**doc, "clusters": []}, indent=2)
    if clusters:  # only numbers precede the clusters, so the first match is their key
        body = ",\n".join(_CLUSTER_JSON % (c["id"], c["pixel_count"], *c["bbox"])
                          for c in clusters)
        text = text.replace('"clusters": []', f'"clusters": [\n{body}\n  ]', 1)
    return text + "\n"
