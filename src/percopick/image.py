"""Pixel-grid primitives: micrographs, integral tables, window sums.

All pixel data is 64-bit float. Pixel arrays are read-only, and every image
operation returns a new image. An image holds nothing but its pixels: its
integral table is a plain read-only float64 array that build_integral makes,
or writes into a table the caller gives it, so a caller builds it where the
scans read it and drops it with them. A caller that hands build_integral or
window_sums an `out` array owns it, and no earlier result may still be read
from it.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class Micrograph:
    """A rectangular grid of real-valued pixel intensities (row-major)."""

    pixels: np.ndarray

    def __post_init__(self):
        px = _owned(self.pixels, np.float64)
        if px.ndim != 2:
            raise ValueError(f"pixels must be a 2D grid, got {px.ndim} dimension(s)")
        if px.shape[0] < 1 or px.shape[1] < 1:
            raise ValueError(f"image must be at least 1x1, got shape {px.shape}")
        if not np.all(np.isfinite(px)):
            raise ValueError("pixel values must be finite (no NaN or infinity)")
        px.setflags(write=False)
        object.__setattr__(self, "pixels", px)

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


def _owned(a, dtype) -> np.ndarray:
    """a itself if it is a read-only, C-contiguous ndarray of dtype that owns its
    data, so nobody can change it; otherwise a fresh C-ordered copy."""
    if (type(a) is np.ndarray and a.dtype == dtype and a.flags.c_contiguous
            and a.flags.owndata and not a.flags.writeable):
        return a
    return np.array(a, dtype=dtype, copy=True, order="C")


def _adopt(px: np.ndarray) -> Micrograph:
    """Wrap a float64 array just computed and held by no one else, without a copy."""
    px.setflags(write=False)
    return Micrograph(px)


@dataclass(frozen=True)
class WindowStats:
    """A square window's position, side length, pixel sum, and mean."""

    row: int
    col: int
    side: int
    sum: float
    mean: float


def build_integral(img: Micrograph, out: np.ndarray | None = None) -> np.ndarray:
    """A read-only float64 table with table[r, c] = sum of img.pixels[:r, :c],
    summed down the columns row by row, then along each row. The first row and
    column are zero, so any axis-aligned window sum is four table lookups.

    The table is new, or out, a float64 array of shape (height + 1, width + 1)
    whose earlier contents are overwritten, write flag included."""
    shape = (img.height + 1, img.width + 1)
    if out is None:
        table = np.empty(shape)
    elif out.shape != shape or out.dtype != np.float64:
        raise ValueError(f"integral table must be float64 of shape {shape}, "
                         f"got {out.dtype} of shape {out.shape}")
    else:
        table = out
        table.setflags(write=True)
    table[0] = 0.0
    table[1:, 0] = 0.0
    inner = table[1:, 1:]  # both running sums go straight into the table, no temporaries
    # cumsum(axis=0)'s additions in its order, a row at a time: numpy's column
    # pass strides across rows and is about 3x slower on 1024² and larger frames
    inner[0] = img.pixels[0]
    for r in range(1, img.height):
        np.add(inner[r - 1], img.pixels[r], out=inner[r])
    np.cumsum(inner, axis=1, out=inner)
    table.setflags(write=False)
    return table


def window_sums(table: np.ndarray, side: int, out: np.ndarray | None = None) -> np.ndarray:
    """Sums of every side x side window of a cumulative-sum table, indexed by
    top-left corner, as ((A - B) - C) + D of its four corners: the one
    four-corner formula of the package. The sums go into out when it is given."""
    t = table
    sums = np.subtract(t[side:, side:], t[:-side, side:], out=out)
    sums -= t[side:, :-side]
    sums += t[:-side, :-side]
    return sums


_STRIP_ROWS = 128  # rows per strip: output rows in downsample2x, source rows in downsample_rows


def _halved(height: int, width: int) -> tuple[int, int]:
    """The block grid of one 2x2 pass over a height x width image, whose
    trailing odd row or column is dropped; an image without a full block fails."""
    if height < 2 or width < 2:
        raise ValueError(f"need at least a 2x2 image to downsample, got {width}x{height}")
    return height // 2, width // 2


def downsample2x(img: Micrograph) -> Micrograph:
    """Halve both dimensions by averaging 2x2 blocks.

    A trailing odd row or column is dropped rather than padded.
    """
    h2, w2 = _halved(img.height, img.width)
    px = img.pixels[: 2 * h2, : 2 * w2]
    if w2 == 1:  # one block wide: numpy's mean adds the four pixels in plain sequence
        return _adopt(px.reshape(h2, 2, 1, 2).mean(axis=(1, 3)))
    # Wider frames: reshape(h2, 2, w2, 2).mean(axis=(1, 3)) adds
    # (top-left + top-right) + (bottom-left + bottom-right), then divides by 4;
    # keeping that order keeps every block mean bit-identical to it. The bottom
    # pair goes in by row strips, so no second frame-size temporary exists.
    top, bottom = px[0::2], px[1::2]
    out = top[:, 0::2] + top[:, 1::2]
    for r in range(0, h2, _STRIP_ROWS):
        strip = bottom[r : r + _STRIP_ROWS]
        out[r : r + _STRIP_ROWS] += strip[:, 0::2] + strip[:, 1::2]
    out /= 4
    return _adopt(out)


def downsample_rows(read: Callable[[int, int], np.ndarray], shape: tuple[int, int],
                    passes: int) -> Micrograph:
    """The image that `passes` downsample2x calls give on a height x width grid
    of integer samples in 0..65535, read in row strips: read(r, n) returns
    rows r..r+n-1, and is called for every row in order, a whole number of
    2**passes blocks of rows at a time but the last. No strip is kept past
    the next call.

    Each 2**passes x 2**passes block of a strip is summed in integers wide
    enough for the strip's dtype and the pass count: first its rows, added
    into one array in place, then its columns, pair by pair, a pass at a time,
    dropping a trailing odd column each time. The sums of every strip go
    straight into the float64 result, which is divided once by 4**passes. The
    result is bit-identical to the float passes: integer sums do not depend on
    their order, a sum of at most 4**passes samples is an exact float64, and
    so is its quotient by a power of two. An image too small for the passes
    raises ValueError once every row has been read.
    """
    if passes < 0:
        raise ValueError(f"downsample passes must be >= 0, got {passes}")
    height, width = shape
    out = np.empty((height >> passes, width >> passes))
    used = len(out) << passes  # source rows the passes read
    block = 1 << min(passes, height.bit_length())  # no larger block fits in the rows
    step = -(-_STRIP_ROWS // block) * block  # whole blocks of rows per strip
    for r in range(0, height, step):
        a = read(r, min(step, height - r))
        if r >= used:  # rows that only the reader checks
            continue
        a = a[: used - r]
        # signed samples do not cast into unsigned sums; 4**8 * 65535 < 2**32
        acc = np.int64 if a.dtype.kind == "i" else np.uint32 if passes <= 8 else np.uint64
        if passes:
            # The rows first, so the strided column sums read 2**-passes of the
            # strip's rows. Up to 8 row phases are added into one small array,
            # which stays in cache; larger blocks then halve it in place, so a
            # strip costs O(passes) numpy calls.
            phases = 1 << min(passes, 3)
            rows = np.add(a[0::phases], a[1::phases], dtype=acc)
            for i in range(2, phases):
                rows += a[i::phases]
            for _ in range(passes - 3):
                top = rows[0::2]
                top += rows[1::2]
                rows = top
            for _ in range(passes):
                w2 = rows.shape[1] // 2
                rows = rows[:, 0 : 2 * w2 : 2] + rows[:, 1 : 2 * w2 : 2]
            a = rows
        out[r // block : r // block + len(a)] = a
    for _ in range(passes):  # too small by pass height.bit_length() at the latest
        shape = _halved(*shape)
    if passes:
        out /= 4**passes
    return _adopt(out)


def normalize_max1(img: Micrograph) -> Micrograph:
    """Divide every pixel by the maximum so the output peaks at exactly 1."""
    peak = float(img.pixels.max())
    if peak <= 0.0:
        raise ValueError(f"maximum pixel value must be positive, got {peak}")
    return _adopt(img.pixels / peak)
