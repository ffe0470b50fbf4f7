"""Spatial scan estimators for the unknown background and particle intensities.

The background estimate is the mean of the minimum-sum square window over all
positions (stride 1); the particle estimate mirrors it with the maximum-sum
window. A whole-image mean is provided as the inconsistent baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .image import Micrograph, WindowStats, build_integral, window_sums


@dataclass(frozen=True)
class IntensityEstimates:
    """Paired low/high intensity estimates and the windows that produced them."""

    a_hat: float
    b_hat: float
    phi0: int
    phi1: int
    k_hat_low: WindowStats
    k_hat_high: WindowStats


def _check_side(img: Micrograph, side: int) -> None:
    limit = min(img.width, img.height)
    if side < 1 or side > limit:
        raise ValueError(
            f"window side {side} out of range 1..{limit} for a "
            f"{img.width}x{img.height} image"
        )


def _extremal_window(img: Micrograph, side: int, take_max: bool) -> WindowStats:
    _check_side(img, side)
    sums = window_sums(build_integral(img), side)
    # np.argmin/argmax return the first extremum in row-major order, which is
    # exactly the lexicographic (row, col) tie-break.
    flat = int(np.argmax(sums) if take_max else np.argmin(sums))
    row, col = divmod(flat, sums.shape[1])
    total = float(sums[row, col])
    return WindowStats(row=row, col=col, side=side, sum=total, mean=total / (side * side))


def scan_min_window(img: Micrograph, side: int) -> WindowStats:
    """The window of the given side with minimal sum; ties go to the smallest (row, col)."""
    return _extremal_window(img, side, take_max=False)


def scan_max_window(img: Micrograph, side: int) -> WindowStats:
    """The window of the given side with maximal sum; ties go to the smallest (row, col)."""
    return _extremal_window(img, side, take_max=True)


def estimate_lower(img: Micrograph, phi0: int) -> float:
    """Background intensity estimate: mean of the minimum-sum phi0 window."""
    return scan_min_window(img, phi0).mean


def estimate_intensities(img: Micrograph, phi0: int, phi1: int) -> IntensityEstimates:
    """Run both scans and bundle the results."""
    low = scan_min_window(img, phi0)
    high = scan_max_window(img, phi1)
    return IntensityEstimates(
        a_hat=low.mean,
        b_hat=high.mean,
        phi0=phi0,
        phi1=phi1,
        k_hat_low=low,
        k_hat_high=high,
    )


def naive_mean(img: Micrograph) -> float:
    """Whole-image mean: the baseline that is inconsistent once particles cover
    a non-negligible fraction of the screen."""
    return float(img.pixels.mean())
