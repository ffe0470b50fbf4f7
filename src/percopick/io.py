"""Image file I/O: PGM (P2 ASCII, P5 binary) and CSV float grids.

PGM payloads are raw integer samples in [0, maxval]. Both PGM readers parse
them with _read_pgm and both writers encode them with _encode_pgm; samples
become float64 pixels once (read_image, no rescaling) and float pixels become
samples once (write_image). read_image can apply downsample passes while it
reads; on PGM samples they are exact integer block sums, so only the reduced
image is ever float64. CSV stores decimal floats and round-trips exactly.
Writers are atomic (temp file + rename).
"""

from __future__ import annotations

import os
import re
import tempfile
from pathlib import Path

import numpy as np

from .image import Micrograph, _adopt, downsample2x, downsample_samples
from .percolation import BinaryImage, _adopt_bits

_WHITESPACE = b" \t\r\n\x0b\x0c"
_IS_WHITESPACE = np.isin(np.arange(256), list(_WHITESPACE))  # indexed by byte value
# separators (whitespace, or a comment from '#' to the end of its line), then a token
_TOKEN = re.compile(rb"(?:[ \t\r\n\x0b\x0c]|#[^\n]*\n?)*([^ \t\r\n\x0b\x0c#]*)")
_FORMATS = ("pgm", "csv")


class ImageParseError(ValueError):
    """Malformed image file; carries byte offset and (for text formats) line."""

    def __init__(self, message: str, offset: int | None = None, line: int | None = None):
        loc = []
        if line is not None:
            loc.append(f"line {line}")
        if offset is not None:
            loc.append(f"byte {offset}")
        super().__init__(message + (f" ({', '.join(loc)})" if loc else ""))
        self.offset = offset
        self.line = line


class _PgmScanner:
    """Token scanner over a PGM header/body, tracking byte offsets."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def error(self, message: str, offset: int) -> ImageParseError:
        """A parse error at a byte offset, located by line as well."""
        return ImageParseError(message, offset=offset, line=self.data.count(b"\n", 0, offset) + 1)

    def next_token(self, what: str) -> tuple[bytes, int]:
        start, self.pos = _TOKEN.match(self.data, self.pos).span(1)
        if start == self.pos:  # only separators were left
            raise self.error(f"unexpected end of file while reading {what}", start)
        return self.data[start : self.pos], start

    def next_int(self, what: str, low: int, high: int) -> int:
        tok, start = self.next_token(what)
        try:
            value = int(tok)
        except ValueError:
            raise self.error(f"non-numeric token {tok!r} for {what}", start) from None
        if not low <= value <= high:
            raise self.error(f"{what} {value} outside allowed range {low}..{high}", start)
        return value


def _blank_comments(body: bytes) -> bytes:
    """body with every comment ('#' to the end of its line) overwritten by
    spaces, so it splits into the tokens _PgmScanner reads, at the same offsets."""
    return re.sub(rb"#[^\n]*", lambda m: b" " * (m.end() - m.start()), body)


def _token_start(body: bytes, index: int) -> int:
    """Offset of token `index` in a body whose comments are already blanked."""
    sep = _IS_WHITESPACE[np.frombuffer(body, np.uint8)]
    return int(np.flatnonzero(~sep & np.r_[True, sep[:-1]])[index])


def _first_rejected(tokens: list[bytes], count: int, maxval: int) -> tuple[int, str]:
    """(index, message) of the first token that is not one of `count` pixel
    values in 0..maxval; the caller knows that such a token exists."""
    if len(tokens) > count:
        return count, "trailing data after pixel values"
    for i, tok in enumerate(tokens):
        try:
            if not 0 <= int(tok) <= maxval:
                return i, f"pixel value {tok.decode('ascii', 'replace')} outside 0..{maxval}"
        except ValueError:
            return i, f"non-numeric token {tok!r} for pixel value"


def _sample_dtype(maxval: int) -> np.dtype:
    """PGM samples are 1 byte, or 2 bytes big-endian when maxval > 255."""
    return np.dtype(">u2" if maxval > 255 else np.uint8)


def _read_pgm(data: bytes) -> np.ndarray:
    """The integer samples of a P2 or P5 file as a height x width array; for
    P5 a read-only view of data."""
    sc = _PgmScanner(data)
    magic, start = sc.next_token("magic number")
    if magic not in (b"P2", b"P5"):
        raise sc.error(f"unsupported magic {magic[:8]!r}, expected P2 or P5", start)
    width = sc.next_int("width", 1, 10**9)
    height = sc.next_int("height", 1, 10**9)
    maxval = sc.next_int("maxval", 1, 65535)
    count = width * height

    if magic == b"P2":
        body = _blank_comments(data[sc.pos :])
        tokens = body.split()  # the tokens _PgmScanner reads
        if len(tokens) < count:
            raise ImageParseError(
                f"expected {count} pixel values, found {len(tokens)}",
                offset=len(data),
                line=data.count(b"\n", 0, len(data) - 1) + 1,  # line of the last byte
            )
        try:
            values = np.array(tokens, dtype=np.int64)
            if len(tokens) == count and values.min() >= 0 and values.max() <= maxval:
                return values.reshape(height, width)
        except (ValueError, OverflowError):  # a token that is no int64
            pass
        index, message = _first_rejected(tokens, count, maxval)
        raise sc.error(message, sc.pos + _token_start(body, index))

    # P5: exactly one separator byte between maxval and the payload
    if sc.pos >= len(data) or data[sc.pos : sc.pos + 1] not in _WHITESPACE:
        raise sc.error("missing whitespace after maxval in P5 header", sc.pos)
    start = sc.pos + 1
    dtype = _sample_dtype(maxval)
    needed, found = count * dtype.itemsize, len(data) - start
    if found < needed:
        raise ImageParseError(
            f"truncated P5 payload: expected {needed} bytes, found {found}", offset=len(data)
        )
    if found > needed:
        raise ImageParseError("trailing bytes after P5 payload", offset=start + needed)
    values = np.frombuffer(data, dtype, count, start)
    # at the largest maxval of the sample width no sample can exceed it
    if maxval != np.iinfo(dtype).max and values.max(initial=0) > maxval:
        bad = int(np.argmax(values > maxval))
        raise ImageParseError(
            f"pixel value {int(values[bad])} exceeds maxval {maxval}",
            offset=start + bad * dtype.itemsize,
        )
    return values.reshape(height, width)


def _read_csv(data: bytes) -> Micrograph:
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ImageParseError(f"CSV is not valid UTF-8: {exc}", offset=exc.start) from None
    rows = []
    width = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if raw.strip() == "":
            raise ImageParseError("empty row", line=lineno)
        cells = raw.split(",")
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise ImageParseError(
                f"row has {len(cells)} values, expected {width}", line=lineno
            )
        row = []
        for cell in cells:
            try:
                value = float(cell)
            except ValueError:
                raise ImageParseError(
                    f"non-numeric token {cell.strip()!r}", line=lineno
                ) from None
            if not np.isfinite(value):
                raise ImageParseError(
                    f"non-finite value {cell.strip()!r}", line=lineno
                )
            row.append(value)
        rows.append(row)
    if not rows:
        raise ImageParseError("empty file", line=1)
    return _adopt(np.array(rows, dtype=np.float64))


def _resolve_format(path: str | Path, format: str | None) -> str:
    if format is not None:
        fmt = format.lower()
        if fmt not in _FORMATS:
            raise ValueError(f"unknown image format {format!r}, expected one of {_FORMATS}")
        return fmt
    suffix = Path(path).suffix.lower()
    if suffix in (".pgm", ".pnm"):
        return "pgm"
    if suffix == ".csv":
        return "csv"
    raise ValueError(
        f"cannot infer image format from {path!r}; pass format='pgm' or 'csv'"
    )


def read_image(
    path: str | Path, format: str | None = None, *, downsample_passes: int = 0
) -> Micrograph:
    """Read a PGM or CSV image; format inferred from the suffix when omitted.

    The result is the image after `downsample_passes` downsample2x passes,
    bit for bit. PGM samples are block-summed as integers and become float64
    only at the reduced size (downsample_samples).
    """
    if downsample_passes < 0:
        raise ValueError(f"downsample passes must be >= 0, got {downsample_passes}")
    fmt = _resolve_format(path, format)
    data = Path(path).read_bytes()
    if fmt == "pgm":
        return downsample_samples(_read_pgm(data), downsample_passes)
    img = _read_csv(data)
    for _ in range(downsample_passes):
        img = downsample2x(img)
    return img


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Write a file atomically: temp file in the same directory, then rename."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _encode_pgm(samples: np.ndarray, maxval: int, binary: bool) -> bytes:
    """The PGM file of a height x width array of integer samples in 0..maxval."""
    height, width = samples.shape
    header = f"{'P5' if binary else 'P2'}\n{width} {height}\n{maxval}\n".encode("ascii")
    if binary:
        return header + samples.astype(_sample_dtype(maxval), copy=False).tobytes()
    body = "\n".join(" ".join(map(str, row)) for row in samples.tolist())
    return header + (body + "\n").encode("ascii")


def _encode_csv(img: Micrograph) -> bytes:
    # repr() round-trips float64 exactly
    lines = (",".join(repr(v) for v in row) for row in img.pixels.tolist())
    return ("\n".join(lines) + "\n").encode("ascii")


def write_image(
    img: Micrograph,
    path: str | Path,
    format: str | None = None,
    *,
    maxval: int = 255,
    binary: bool = True,
) -> None:
    """Write an image as PGM or CSV.

    PGM quantizes by rounding to the nearest integer; values must already lie
    in [0, maxval] (the caller scales). Samples are 16-bit big-endian when
    maxval > 255. CSV writes exact decimal floats.
    """
    if _resolve_format(path, format) == "csv":
        atomic_write_bytes(path, _encode_csv(img))
        return
    if not 1 <= maxval <= 65535:
        raise ValueError(f"maxval must be in 1..65535, got {maxval}")
    rounded = np.rint(img.pixels)
    low, high = int(rounded.min()), int(rounded.max())
    if low < 0 or high > maxval:
        raise ValueError(f"pixel values round to {low}..{high}, "
                         f"outside the declared range 0..{maxval}")
    samples = rounded.astype(_sample_dtype(maxval))
    del rounded  # free the float frame before the encoder copies the samples
    atomic_write_bytes(path, _encode_pgm(samples, maxval, binary))


def write_binary_image(img: BinaryImage, path: str | Path) -> None:
    """Write a thresholded picture as PGM with maxval 1: 0 = white, 1 = black."""
    atomic_write_bytes(path, _encode_pgm(img.bits.view(np.uint8), 1, True))


def read_binary_image(path: str | Path) -> BinaryImage:
    """Read a maxval-1 PGM written by write_binary_image; 1 = black."""
    samples = _read_pgm(Path(path).read_bytes())
    if samples.max(initial=0) > 1:
        values = np.unique(samples)[:5].astype(np.float64)
        raise ImageParseError(f"expected only 0/1 samples, found values {values}")
    return _adopt_bits(samples == 1)
