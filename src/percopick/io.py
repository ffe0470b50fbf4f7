"""Image file I/O: PGM (read P2 ASCII and P5 binary, write P5) and CSV float grids.

PGM payloads are raw integer samples in [0, maxval]. Both PGM readers open the
file through _pgm_rows: the header is parsed from a first read, and where a
comment or a short token meets the end of the bytes read so far, the scanner
reads on from where it stopped, dropping the comments and whitespace it reads
past once it holds a first read's worth of bytes. A P5 payload's length is
checked against the file's size before any of it is read. The payload is then
read in row strips, each a new array of the file's samples, and range-checked
strip by strip; P2 text is parsed whole. read_image block-sums the strips as
integers as they arrive (image.downsample_rows), so the file's bytes are never
held whole and only the reduced image is ever float64; read_binary_image reads
the samples into one array. A pipe or other file that cannot tell its size is read into
memory first and then goes through the same code. CSV stores decimal floats
and round-trips exactly. Both writers emit samples with _pgm_chunks, and
write_image rounds float pixels straight into them. Writers are atomic (temp
file + rename over the file the path resolves to) and stream the file as it
is encoded: a header and the samples, or one CSV row at a time.
"""

from __future__ import annotations

import io
import math
import os
import re
import secrets
import stat
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .image import Micrograph, _adopt, downsample2x, downsample_rows
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
    """Token scanner over a PGM header/body, tracking byte offsets; given the
    file's `read`, a token or comment that meets the end of data reads on.

    data holds the file's bytes from offset base on, pos indexes data, and
    lines counts the newlines before base. Once data holds _HEADER_BYTES,
    separators that meet its end are dropped before it reads on, so a long
    comment or run of whitespace is not kept."""

    def __init__(self, data: bytes, read: Callable[[int], bytes] | None = None):
        self.data = data
        self.pos = 0
        self.read = read
        self.base = self.lines = 0

    def error(self, message: str, offset: int) -> ImageParseError:
        """A parse error at a byte offset of the file, at or after base, located
        by line as well."""
        line = self.lines + self.data.count(b"\n", 0, offset - self.base) + 1
        return ImageParseError(message, offset=offset, line=line)

    def next_token(self, what: str) -> tuple[bytes, int]:
        match = _TOKEN.match(self.data, self.pos)
        # one more byte could lengthen the token or comment; a token already
        # over _TOKEN_BYTES fails as it is, so it is not read to its end
        while (match.end() == len(self.data) and match.end(1) - match.start(1) <= _TOKEN_BYTES
               and self.read and (more := self.read(max(len(self.data), _HEADER_BYTES)))):
            if match.start(1) == len(self.data) >= _HEADER_BYTES:  # no token yet
                self._drop_separators()
            self.data += more
            match = _TOKEN.match(self.data, self.pos)
        start, self.pos = match.span(1)
        if start == self.pos:  # only separators were left
            raise self.error(f"unexpected end of file while reading {what}", self.base + start)
        return self.data[start : self.pos], self.base + start

    def _drop_separators(self) -> None:
        """Forget data, whose bytes from pos on are all separators, keeping one
        '#' in place of its last byte if that ends an unfinished comment."""
        data = self.data
        in_comment = data.find(b"#", max(self.pos, data.rfind(b"\n") + 1)) >= 0
        keep = b"#" if in_comment else b""
        self.lines += data.count(b"\n")
        self.base += len(data) - len(keep)
        self.data, self.pos = keep, 0

    def next_int(self, what: str, low: int, high: int) -> int:
        tok, start = self.next_token(what)
        if message := _too_long(tok, what):  # also before int() reads thousands of digits
            raise self.error(message, start)
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
            if 0 <= int(tok) <= maxval:
                continue
        except ValueError:
            return i, _too_long(tok, "pixel value") or f"non-numeric token {tok!r} for pixel value"
        return i, (_too_long(tok, "pixel value")
                   or f"pixel value {tok.decode('ascii', 'replace')} outside 0..{maxval}")


def _sample_dtype(maxval: int) -> np.dtype:
    """PGM samples are 1 byte, or 2 bytes big-endian when maxval > 255."""
    return np.dtype(">u2" if maxval > 255 else np.uint8)


_HEADER_BYTES = 4096  # the first read of a PGM file, enough for any usual header
_TOKEN_BYTES = 64  # a longer header number is rejected, a failed token not read to its end


def _too_long(tok: bytes | str, what: str) -> str | None:
    """The message for a token over _TOKEN_BYTES bytes, which is named instead
    of echoed, or None: every message that quotes a token asks here first, so
    none grows with its token."""
    if len(tok if isinstance(tok, bytes) else tok.encode()) > _TOKEN_BYTES:
        return f"{what} token is longer than {_TOKEN_BYTES} bytes"


def _parse_header(sc: _PgmScanner) -> tuple[bytes, int, int, int]:
    """(magic, width, height, maxval) of a PGM header; sc.pos ends at maxval."""
    magic, start = sc.next_token("magic number")
    if magic not in (b"P2", b"P5"):
        raise sc.error(f"unsupported magic {magic[:8]!r}, expected P2 or P5", start)
    width = sc.next_int("width", 1, 10**9)
    height = sc.next_int("height", 1, 10**9)
    maxval = sc.next_int("maxval", 1, 65535)
    # P5: exactly one separator byte between maxval and the payload
    separator = sc.data[sc.pos : sc.pos + 1]
    if magic == b"P5" and (not separator or separator not in _WHITESPACE):
        raise sc.error("missing whitespace after maxval in P5 header", sc.base + sc.pos)
    return magic, width, height, maxval


def _p2_samples(sc: _PgmScanner, width: int, height: int, maxval: int) -> np.ndarray:
    """The int64 samples of a P2 file whose bytes from sc.base on are sc.data,
    after a header that ends at sc.pos."""
    data, count = sc.data, width * height
    body = _blank_comments(data[sc.pos :])
    tokens = body.split()  # the tokens _PgmScanner reads
    if len(tokens) < count:
        raise ImageParseError(
            f"expected {count} pixel values, found {len(tokens)}",
            offset=sc.base + len(data),
            line=sc.lines + data.count(b"\n", 0, len(data) - 1) + 1,  # line of the last byte
        )
    try:
        values = np.array(tokens, dtype=np.int64)
        if len(tokens) == count and values.min() >= 0 and values.max() <= maxval:
            return values.reshape(height, width)
    except (ValueError, OverflowError):  # a token that is no int64
        pass
    index, message = _first_rejected(tokens, count, maxval)
    raise sc.error(message, sc.base + sc.pos + _token_start(body, index))


def _p5_rows(fh: BinaryIO, start: int, width: int, maxval: int) -> Callable[[int, int], np.ndarray]:
    """read(r, n): the next n rows of the P5 payload that starts at byte
    `start` of fh, r being the index of the first, as a new array of the
    file's samples (2-byte ones stay big-endian). A sample above maxval is
    reported at its offset before the rows are returned."""
    dtype = _sample_dtype(maxval)
    check = maxval != np.iinfo(dtype).max  # else no sample can exceed it

    def read(r: int, n: int) -> np.ndarray:
        rows = np.empty((n, width), dtype)
        got = fh.readinto(rows)
        if got < rows.nbytes:  # the file shrank after its size was taken
            raise ImageParseError("truncated P5 payload: the file shrank while it was read",
                                  offset=start + r * width * dtype.itemsize + got)
        if check and rows.max() > maxval:
            bad = int(np.argmax(rows > maxval))
            raise ImageParseError(f"pixel value {int(rows.flat[bad])} exceeds maxval {maxval}",
                                  offset=start + (r * width + bad) * dtype.itemsize)
        return rows

    return read


@contextmanager
def _pgm_rows(path: str | Path) -> Iterator[tuple[Callable[[int, int], np.ndarray],
                                                  tuple[int, int]]]:
    """(read, (height, width)) of a P2 or P5 file: read(r, n) returns rows
    r..r+n-1 as an array of the file's samples, called with the rows in order.
    The header is parsed and a P5 payload's length checked on entry; a P5
    payload is then read strip by strip, so its bytes are never held whole.
    A file that is not a regular one, such as a pipe, is read whole first,
    since only a regular file tells its size up front."""
    with open(path, "rb") as fh:
        info = os.fstat(fh.fileno())
        if stat.S_ISREG(info.st_mode):
            src, size = fh, info.st_size
        else:
            data = fh.read()
            src, size = io.BytesIO(data), len(data)
        sc = _PgmScanner(src.read(_HEADER_BYTES), src.read)
        magic, width, height, maxval = _parse_header(sc)
        if magic == b"P2":
            sc.data += src.read()
            samples = _p2_samples(sc, width, height, maxval)
            yield (lambda r, n: samples[r : r + n]), samples.shape
            return
        start = sc.base + sc.pos + 1
        needed, found = width * height * _sample_dtype(maxval).itemsize, size - start
        if found < needed:
            raise ImageParseError(
                f"truncated P5 payload: expected {needed} bytes, found {found}", offset=size
            )
        if found > needed:
            raise ImageParseError("trailing bytes after P5 payload", offset=start + needed)
        src.seek(start)
        yield _p5_rows(src, start, width, maxval), (height, width)


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
                value = None
            if value is None or not math.isfinite(value):
                kind = "non-numeric token" if value is None else "non-finite value"
                raise ImageParseError(_too_long(cell.strip(), "CSV value")
                                      or f"{kind} {cell.strip()!r}", line=lineno)
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
    bit for bit. A P5 payload is read in row strips, each range-checked and
    block-summed as integers as it arrives (downsample_rows); P2 samples are
    parsed whole and summed the same way. Either way only the reduced image
    is ever float64. A CSV is read whole and downsampled as floats.
    """
    if downsample_passes < 0:
        raise ValueError(f"downsample passes must be >= 0, got {downsample_passes}")
    if _resolve_format(path, format) == "pgm":
        with _pgm_rows(path) as (read, shape):
            return downsample_rows(read, shape, downsample_passes)
    img = _read_csv(Path(path).read_bytes())
    for _ in range(downsample_passes):
        img = downsample2x(img)
    return img


def atomic_write_bytes(path: str | Path, chunks: Iterable[bytes]) -> None:
    """Write bytes-like chunks to a file atomically: a new temp file in the
    directory of the file the path resolves to, then rename over that file, so
    a symlink is written through as open() would. An existing file keeps its
    permission bits; a new one gets 0o666 less the umask, as open() would give
    it. On any error the temp file is removed."""
    path = Path(os.path.realpath(path))
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        mode = None
    # O_EXCL refuses an existing file; a clash of 64 random bits is not retried
    tmp = path.with_name(f"{path.name}.{secrets.token_hex(8)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            if mode is not None:
                os.fchmod(fh.fileno(), mode)
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _pgm_chunks(samples: np.ndarray, maxval: int) -> tuple[bytes, np.ndarray]:
    """The P5 header and payload of C-ordered _sample_dtype(maxval) samples."""
    height, width = samples.shape
    return f"P5\n{width} {height}\n{maxval}\n".encode("ascii"), samples


def write_image(
    img: Micrograph, path: str | Path, format: str | None = None, *, maxval: int = 255
) -> None:
    """Write an image as binary PGM (P5) or CSV, streaming it to the file.

    PGM quantizes by rounding to the nearest integer; values must already lie
    in [0, maxval] (the caller scales), and maxval is an integer. The pixels
    are rounded straight into 1-byte samples, or 2-byte big-endian ones when
    maxval > 255, with no float frame between. CSV writes exact decimal
    floats one row at a time.
    """
    px = img.pixels
    if _resolve_format(path, format) == "csv":
        # repr() round-trips float64 exactly
        atomic_write_bytes(path, ((",".join(map(repr, row.tolist())) + "\n").encode("ascii")
                                  for row in px))
        return
    if isinstance(maxval, bool) or not isinstance(maxval, (int, np.integer)):
        raise ValueError(f"maxval must be an integer, got {maxval!r}")
    if not 1 <= maxval <= 65535:
        raise ValueError(f"maxval must be in 1..65535, got {maxval}")
    # rint is monotone, so these are the least and greatest rounded pixels
    low, high = int(np.rint(px.min())), int(np.rint(px.max()))
    if low < 0 or high > maxval:
        raise ValueError(f"pixel values round to {low}..{high}, "
                         f"outside the declared range 0..{maxval}")
    samples = np.empty(px.shape, _sample_dtype(maxval))
    np.rint(px, out=samples, casting="unsafe")  # exact: whole numbers in 0..maxval
    atomic_write_bytes(path, _pgm_chunks(samples, maxval))


def write_binary_image(img: BinaryImage, path: str | Path) -> None:
    """Write a thresholded picture as PGM with maxval 1: 0 = white, 1 = black."""
    atomic_write_bytes(path, _pgm_chunks(img.bits.view(np.uint8), 1))


def read_binary_image(path: str | Path) -> BinaryImage:
    """Read a maxval-1 PGM written by write_binary_image; 1 = black."""
    with _pgm_rows(path) as (read, (height, _)):
        samples = read(0, height)
    if samples.max(initial=0) > 1:
        values = np.unique(samples)[:5].astype(np.float64)
        raise ImageParseError(f"expected only 0/1 samples, found values {values}")
    return _adopt_bits(samples == 1)
