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
    k_hat_low: WindowStats
    k_hat_high: WindowStats


def _check_side(table: np.ndarray, side: int) -> None:
    height, width = table.shape[0] - 1, table.shape[1] - 1
    limit = min(width, height)
    if side < 1 or side > limit:
        raise ValueError(
            f"window side {side} out of range 1..{limit} for a {width}x{height} image"
        )


_STRIP_ROWS = 64  # window rows per strip: the fastest of 16..256 on 600² and 1024² tables


def _extremal_window(table: np.ndarray, side: int, take_max: bool) -> WindowStats:
    _check_side(table, side)
    # np.argmin/argmax return the first extremum in row-major order: the
    # lexicographic (row, col) tie-break. They run on each strip of window rows,
    # so no frame-size array is made, then on the strips' extrema in row order.
    # Every strip's sums go into one buffer, made once per scan.
    pick = np.argmax if take_max else np.argmin
    rows = table.shape[0] - side  # window rows
    buffer = np.empty((min(rows, _STRIP_ROWS), table.shape[1] - side))
    hits = []
    # a difference of finite table entries can overflow; the chosen sum is checked
    with np.errstate(over="ignore", invalid="ignore"):
        for r in range(0, rows, _STRIP_ROWS):
            strip = table[r : r + _STRIP_ROWS + side]
            sums = window_sums(strip, side, out=buffer[: len(strip) - side])
            row, col = divmod(int(pick(sums)), sums.shape[1])
            hits.append((float(sums[row, col]), r + row, col))
    total, row, col = hits[int(pick([hit[0] for hit in hits]))]
    if not np.isfinite(total):
        raise ValueError(f"image values out of range: a {side}x{side} window sum "
                         "overflows float64")
    return WindowStats(row=row, col=col, side=side, sum=total, mean=total / (side * side))


def scan_min_window(table: np.ndarray, side: int) -> WindowStats:
    """The window of the given side with minimal sum in an image's integral
    table (build_integral); ties go to the smallest (row, col)."""
    return _extremal_window(table, side, take_max=False)


def scan_max_window(table: np.ndarray, side: int) -> WindowStats:
    """The window of the given side with maximal sum in an image's integral
    table (build_integral); ties go to the smallest (row, col)."""
    return _extremal_window(table, side, take_max=True)


def estimate_lower(img: Micrograph, *phi0s: int, table: np.ndarray | None = None) -> list[float]:
    """Background intensity estimates, one per window side: the mean of the
    minimum-sum phi0 window, every side read from one integral table. The
    table is built into `table` when one is given (see build_integral)."""
    table = build_integral(img) if table is None else build_integral(img, out=table)
    return [scan_min_window(table, phi0).mean for phi0 in phi0s]


def estimate_intensities(img: Micrograph, phi0: int, phi1: int) -> IntensityEstimates:
    """Run both scans on one integral table and bundle the results."""
    table = build_integral(img)
    low = scan_min_window(table, phi0)
    high = scan_max_window(table, phi1)
    return IntensityEstimates(a_hat=low.mean, b_hat=high.mean, k_hat_low=low, k_hat_high=high)


def naive_mean(img: Micrograph) -> float:
    """Whole-image mean: the baseline that is inconsistent once particles cover
    a non-negligible fraction of the screen."""
    return float(img.pixels.mean())
