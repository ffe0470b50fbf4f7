"""PGM and CSV readers/writers: format handling, round-trips, error paths."""

import os
import stat
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from percopick import ImageParseError, Micrograph, downsample2x, read_image, write_image
from percopick.io import atomic_write_bytes


def write_pgm(path, samples, maxval, binary=True):
    """A PGM file of integer samples: P5 through write_image, or P2 text
    written here, since write_image writes only P5."""
    if binary:
        write_image(Micrograph(np.asarray(samples, np.float64)), path, maxval=maxval)
        return
    rows = "\n".join(" ".join(map(str, row)) for row in np.asarray(samples, np.int64).tolist())
    height, width = np.shape(samples)
    path.write_text(f"P2\n{width} {height}\n{maxval}\n{rows}\n")


def test_p2_ascii_basic(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_bytes(b"P2\n2 2\n255\n0 255 128 64")
    img = read_image(path)
    assert img.pixels.tolist() == [[0, 255], [128, 64]]


def test_p2_with_comments_and_odd_whitespace(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_bytes(b"P2 # magic\n# a comment line\n 2\t2\n255\n0\n255 128\t64\n")
    img = read_image(path)
    assert img.pixels.tolist() == [[0, 255], [128, 64]]


def test_p5_binary_8bit(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_bytes(b"P5\n3 2\n255\n" + bytes([0, 10, 20, 30, 40, 250]))
    img = read_image(path)
    assert img.pixels.tolist() == [[0, 10, 20], [30, 40, 250]]


def test_p5_binary_16bit_big_endian(tmp_path):
    path = tmp_path / "a.pgm"
    payload = (300).to_bytes(2, "big") + (65535).to_bytes(2, "big")
    path.write_bytes(b"P5\n2 1\n65535\n" + payload)
    img = read_image(path)
    assert img.pixels.tolist() == [[300, 65535]]


def test_csv_basic(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("0.5,0.25\n1.0,0.0\n")
    img = read_image(path)
    assert img.pixels.tolist() == [[0.5, 0.25], [1.0, 0.0]]


def test_csv_round_trip_is_lossless(tmp_path):
    rng = np.random.default_rng(41)
    img = Micrograph(rng.standard_normal((13, 7)) * 1e3)
    path = tmp_path / "x.csv"
    write_image(img, path)
    back = read_image(path)
    assert np.array_equal(back.pixels, img.pixels)


@pytest.mark.parametrize("binary", [True, False])
@pytest.mark.parametrize("maxval", [255, 65535])
def test_pgm_round_trip_after_quantization(tmp_path, binary, maxval):
    rng = np.random.default_rng(19)
    img = Micrograph(rng.random((6, 9)) * maxval)
    path = tmp_path / "x.pgm"
    if binary:
        write_image(img, path, maxval=maxval)
    else:
        write_pgm(path, np.rint(img.pixels), maxval, binary=False)
    back = read_image(path)
    assert np.array_equal(back.pixels, np.rint(img.pixels))


def test_pgm_write_rejects_out_of_range(tmp_path):
    with pytest.raises(ValueError):
        write_image(Micrograph([[-3.0, 5.0]]), tmp_path / "x.pgm", maxval=255)
    with pytest.raises(ValueError):
        write_image(Micrograph([[0.0, 300.0]]), tmp_path / "x.pgm", maxval=255)


@pytest.mark.parametrize("maxval", [255.5, 1.0, True, "255"])
def test_pgm_write_rejects_non_integer_maxval(tmp_path, maxval):
    with pytest.raises(ValueError, match=r"^maxval must be an integer, got "):
        write_image(Micrograph([[0.0, 1.0]]), tmp_path / "x.pgm", maxval=maxval)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("maxval", [np.uint8(255), np.int64(1000)])
def test_pgm_write_accepts_numpy_integer_maxval(tmp_path, maxval):
    img = Micrograph([[0.0, 7.0]])
    write_image(img, tmp_path / "np.pgm", maxval=maxval)
    write_image(img, tmp_path / "int.pgm", maxval=int(maxval))
    assert (tmp_path / "np.pgm").read_bytes() == (tmp_path / "int.pgm").read_bytes()


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
def test_written_files_get_the_mode_open_would_give(tmp_path, umask):
    from percopick import BinaryImage, write_binary_image

    old = os.umask(umask)
    try:
        write_image(Micrograph([[0.0, 1.0]]), tmp_path / "x.pgm")
        write_image(Micrograph([[0.0, 1.0]]), tmp_path / "x.csv")
        write_binary_image(BinaryImage([[True, False]]), tmp_path / "bin.pgm")
        atomic_write_bytes(tmp_path / "report.json", [b"{}\n"])
        (tmp_path / "plain").touch()
    finally:
        os.umask(old)
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
    assert modes == dict.fromkeys(["x.pgm", "x.csv", "bin.pgm", "report.json", "plain"],
                                  0o666 & ~umask)


def test_atomic_write_failing_midway_keeps_the_old_file(tmp_path):
    path = tmp_path / "x.pgm"
    path.write_bytes(b"old")

    def chunks():
        yield b"new"
        raise RuntimeError("encoder failed")

    with pytest.raises(RuntimeError, match="encoder failed"):
        atomic_write_bytes(path, chunks())
    assert list(tmp_path.iterdir()) == [path]  # no temp file left
    assert path.read_bytes() == b"old"


def test_atomic_write_streams_chunks(tmp_path):
    path = tmp_path / "x.bin"
    atomic_write_bytes(path, (bytes([i]) * i for i in range(4)))
    assert path.read_bytes() == b"\x01\x02\x02\x03\x03\x03"
    atomic_write_bytes(path, [])
    assert path.read_bytes() == b""


def test_truncated_p5_payload_is_parse_error(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P5\n4 4\n255\n" + bytes([1, 2, 3]))
    with pytest.raises(ImageParseError, match="truncated"):
        read_image(path)


def test_p2_too_few_values(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P2\n2 2\n255\n1 2 3")
    with pytest.raises(ImageParseError, match="expected 4"):
        read_image(path)


def test_p2_trailing_garbage(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P2\n2 2\n255\n1 2 3 4 5")
    with pytest.raises(ImageParseError, match="trailing"):
        read_image(path)


def test_p2_non_numeric_token_reports_location(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P2\n2 2\nzzz\n1 2 3 4")
    with pytest.raises(ImageParseError) as err:
        read_image(path)
    assert err.value.offset is not None
    assert err.value.line == 3


def test_p2_value_above_maxval(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P2\n2 2\n255\n1 2 999 4")
    with pytest.raises(ImageParseError, match="999"):
        read_image(path)


@pytest.mark.parametrize("last, message", [
    (b"x", "non-numeric token b'x' for pixel value"),
    (b"999", "pixel value 999 outside 0..255"),
])
def test_p2_bad_last_token_located_without_a_token_walk(tmp_path, last, message):
    # 600x600 values, one row per line; only the very last token is bad
    row = b" ".join(b"%d" % (v % 256) for v in range(600)) + b"\n"
    body = row * 599 + row[: row.rindex(b" ") + 1] + last + b"\n"
    data = b"P2\n600 600\n255\n" + body
    path = tmp_path / "bad.pgm"
    path.write_bytes(data)
    start = time.perf_counter()
    with pytest.raises(ImageParseError) as err:
        read_image(path)
    elapsed = time.perf_counter() - start
    offset = len(data) - len(last) - 1
    assert str(err.value) == f"{message} (line 603, byte {offset})"
    assert (err.value.offset, err.value.line) == (offset, 603)
    assert elapsed < 0.3, f"reporting the bad token took {elapsed:.2f} s"


def test_p2_error_location_follows_comments(tmp_path):
    path = tmp_path / "bad.pgm"
    # a comment among the values is skipped, as in the header
    path.write_bytes(b"P2\n2 2\n255\n1 2 #c\n3 4")
    assert read_image(path).pixels.tolist() == [[1, 2], [3, 4]]
    path.write_bytes(b"P2 2 1 255 5#c\n6")
    assert read_image(path).pixels.tolist() == [[5, 6]]
    path.write_bytes(b"P2\n3 1\n255\n1#\n#\n2 3 x")
    with pytest.raises(ImageParseError, match="trailing data") as err:
        read_image(path)
    assert (err.value.offset, err.value.line) == (20, 6)


@pytest.mark.parametrize("values, bad", [
    (b"%s 7" % (b"9" * 23), b"9" * 23),
    (b"-%s 7" % (b"9" * 23), b"-" + b"9" * 23),
    (b"300 %s" % (b"9" * 19), b"300"),  # an earlier value out of range comes first
    (b"300 x", b"300"),  # ... also before a token that is no integer
], ids=["huge", "huge-negative", "earlier-out-of-range", "out-of-range-before-non-numeric"])
def test_p2_token_beyond_int64_is_out_of_range(tmp_path, values, bad):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P2 2 1 255\n" + values + b"\n")
    with pytest.raises(ImageParseError) as err:
        read_image(path)
    assert str(err.value) == f"pixel value {bad.decode()} outside 0..255 (line 2, byte 11)"


FUZZ_SEEDS = {
    "pgm": [b"P2\n# c\n3 2\n255\n0 12 255\n7 8 9\n",
            b"P2 3 2 255 0 12 255 # c\n7 8 9",
            b"P5\n3 2\n255\n" + bytes([0, 12, 255, 7, 8, 9]),
            b"P5 2 2 65535\n" + bytes([0, 1, 255, 255, 1, 0, 0, 7])],
    "csv": [b"0.5,1,-2\n3e2,4.25,0\n"],
}


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(fmt_seed=st.sampled_from([(f, i) for f, seeds in FUZZ_SEEDS.items()
                                 for i in range(len(seeds))]),
       edits=st.lists(st.tuples(st.sampled_from("rid"), st.integers(0, 10**6),
                                st.binary(min_size=1, max_size=24)), max_size=4))
@example(fmt_seed=("pgm", 0), edits=[("i", 15, b"9" * 23)])  # a value beyond int64
@example(fmt_seed=("pgm", 0), edits=[("i", 16, b"#c\n")])  # a comment right after a value
def test_mutated_files_parse_or_raise_image_parse_error(tmp_path, fmt_seed, edits):
    fmt, i = fmt_seed
    data = bytearray(FUZZ_SEEDS[fmt][i])
    for op, pos, chunk in edits:  # replace, insert or delete at a position in the file
        pos %= len(data) + 1
        if op == "r":
            data[pos : pos + len(chunk)] = chunk
        elif op == "i":
            data[pos:pos] = chunk
        else:
            del data[pos : pos + len(chunk)]
    path = tmp_path / f"fuzz.{fmt}"
    path.write_bytes(bytes(data))
    try:
        img = read_image(path)
    except ImageParseError:
        return
    assert img.pixels.ndim == 2 and np.isfinite(img.pixels).all()


ROUND_TRIP = settings(max_examples=60, deadline=None, derandomize=True,
                      suppress_health_check=[HealthCheck.function_scoped_fixture])
SHAPES = array_shapes(min_dims=2, max_dims=2, max_side=16)


@ROUND_TRIP
@given(maxval=st.sampled_from([1, 255, 256, 65535]), binary=st.booleans(), data=st.data())
def test_pgm_write_read_round_trip_property(tmp_path, maxval, binary, data):
    pixels = data.draw(arrays(np.float64, SHAPES, elements=st.integers(0, maxval)))
    path = tmp_path / "x.pgm"
    write_pgm(path, pixels, maxval, binary)
    assert np.array_equal(read_image(path).pixels, pixels)


@ROUND_TRIP
@given(pixels=arrays(np.float64, SHAPES, elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_csv_round_trip_is_bit_identical_property(tmp_path, pixels):
    path = tmp_path / "x.csv"
    write_image(Micrograph(pixels), path)
    assert read_image(path).pixels.tobytes() == pixels.tobytes()  # -0.0 stays -0.0


@ROUND_TRIP
@given(bits=arrays(bool, SHAPES))
def test_binary_image_round_trip_property(tmp_path, bits):
    from percopick import BinaryImage, read_binary_image, write_binary_image

    path = tmp_path / "bin.pgm"
    write_binary_image(BinaryImage(bits), path)
    assert np.array_equal(read_binary_image(path).bits, bits)


def reference_pgm(pixels, maxval):
    """write_image's P5 bytes, encoded as one whole-file bytes object: round
    to a float frame, check the range, cast, then header + payload."""
    rounded = np.rint(pixels)
    low, high = int(rounded.min()), int(rounded.max())
    if low < 0 or high > maxval:
        raise ValueError(f"pixel values round to {low}..{high}, "
                         f"outside the declared range 0..{maxval}")
    samples = rounded.astype(">u2" if maxval > 255 else np.uint8)
    height, width = samples.shape
    return f"P5\n{width} {height}\n{maxval}\n".encode("ascii") + samples.tobytes()


def reference_csv(pixels):
    """write_image's CSV bytes, joined into one string."""
    lines = (",".join(repr(v) for v in row) for row in pixels.tolist())
    return ("\n".join(lines) + "\n").encode("ascii")


def _bytes_or_message(call):
    """The bytes call() returns, or the message of its ValueError."""
    try:
        return call()
    except ValueError as exc:
        return str(exc)


SIDES_1_30 = array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=30)


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(maxval=st.sampled_from([1, 255, 256, 1000, 65535]), shape=SIDES_1_30,
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_pgm_bytes_match_whole_file_encoder(tmp_path, maxval, shape, seed, data):
    # a seeded frame that rounds into 0..maxval, with drawn pixels set to ties
    # k + 0.5, to -0.0, or to the ties at and just beyond either end of the range
    pixels = np.random.default_rng(seed).uniform(-0.5, maxval + 0.5, shape)
    edge = st.one_of(st.integers(0, maxval - 1).map(lambda k: k + 0.5),
                     st.sampled_from([-0.0, -0.5, -1.5, maxval + 0.5, maxval + 1.5]))
    for index, value in data.draw(st.lists(st.tuples(st.integers(0, pixels.size - 1), edge),
                                           max_size=8)):
        pixels.flat[index] = value
    path = tmp_path / "x.pgm"

    def written():
        write_image(Micrograph(pixels), path, maxval=maxval)
        return path.read_bytes()

    assert _bytes_or_message(written) == _bytes_or_message(lambda: reference_pgm(pixels, maxval))


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(pixels=arrays(np.float64, SIDES_1_30,
                     elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_csv_bytes_match_joined_encoder(tmp_path, pixels):
    path = tmp_path / "x.csv"
    write_image(Micrograph(pixels), path)
    assert path.read_bytes() == reference_csv(pixels)


def _outcome(read):
    """(shape, bytes) of the pixels read(), or the message of its ValueError."""
    try:
        img = read()
    except ValueError as exc:
        return str(exc)
    return img.pixels.shape, img.pixels.tobytes()


def _read_then_downsample(path, passes):
    img = read_image(path)
    for _ in range(passes):
        img = downsample2x(img)
    return img


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(binary=st.booleans(), maxval=st.sampled_from([1, 255, 1000, 65535]),
       height=st.integers(1, 25), width=st.one_of(st.sampled_from([1, 2, 3]), st.integers(1, 25)),
       passes=st.integers(0, 3), full=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(binary=True, maxval=65535, height=24, width=24, passes=3, full=True, seed=0)
@example(binary=False, maxval=1000, height=3, width=17, passes=2, full=False, seed=1)
def test_downsampling_read_matches_read_then_downsample(tmp_path, binary, maxval, height, width,
                                                       passes, full, seed):
    # full: every sample at maxval, so the block sums are the largest they get
    samples = (np.full((height, width), maxval) if full
               else np.random.default_rng(seed).integers(0, maxval + 1, (height, width)))
    path = tmp_path / "x.pgm"
    write_pgm(path, samples, maxval, binary)
    assert (_outcome(lambda: read_image(path, downsample_passes=passes))
            == _outcome(lambda: _read_then_downsample(path, passes)))


@pytest.mark.parametrize("passes", [0, 1, 2])
def test_downsampling_read_of_csv_matches_read_then_downsample(tmp_path, passes):
    path = tmp_path / "x.csv"
    write_image(Micrograph(np.random.default_rng(passes).random((9, 7))), path)
    assert (_outcome(lambda: read_image(path, downsample_passes=passes))
            == _outcome(lambda: _read_then_downsample(path, passes)))


@pytest.mark.parametrize("name", ["x.pgm", "x.csv"])
def test_negative_downsample_passes_rejected(tmp_path, name):
    path = tmp_path / name
    write_image(Micrograph(np.ones((4, 4))), path)
    with pytest.raises(ValueError, match=r"^downsample passes must be >= 0, got -1$"):
        read_image(path, downsample_passes=-1)


def test_unknown_magic(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
    with pytest.raises(ImageParseError, match="magic"):
        read_image(path)


def test_maxval_above_16bit_rejected(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P2\n1 1\n70000\n1")
    with pytest.raises(ImageParseError, match="maxval"):
        read_image(path)


def test_csv_ragged_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n3,4,5\n")
    with pytest.raises(ImageParseError) as err:
        read_image(path)
    assert err.value.line == 2


def test_csv_non_numeric_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n3,oops\n")
    with pytest.raises(ImageParseError) as err:
        read_image(path)
    assert err.value.line == 2


def test_csv_rejects_nan_token(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,nan\n")
    with pytest.raises(ImageParseError, match="non-finite"):
        read_image(path)


def test_format_inference_and_override(tmp_path):
    path = tmp_path / "grid.dat"
    path.write_text("1,2\n3,4\n")
    with pytest.raises(ValueError, match="infer"):
        read_image(path)
    img = read_image(path, format="csv")
    assert img.pixels.tolist() == [[1, 2], [3, 4]]


def test_unknown_format_name(tmp_path):
    with pytest.raises(ValueError, match="unknown image format"):
        read_image(tmp_path / "x.csv", format="tiff")


def test_binary_image_pgm_round_trip(tmp_path):
    from percopick import BinaryImage, read_binary_image, write_binary_image

    bits = np.random.default_rng(8).random((12, 17)) < 0.4
    path = tmp_path / "bin.pgm"
    write_binary_image(BinaryImage(bits), path)
    assert path.read_bytes().startswith(b"P5\n17 12\n1\n")
    back = read_binary_image(path)
    assert np.array_equal(back.bits, bits)


@pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (12, 17), (64, 64)])
def test_binary_image_bytes_match_grayscale_writer(tmp_path, shape):
    from percopick import BinaryImage, write_binary_image

    bits = np.random.default_rng(shape[1]).random(shape) < 0.5
    fast, slow = tmp_path / "fast.pgm", tmp_path / "slow.pgm"
    write_binary_image(BinaryImage(bits), fast)
    write_image(Micrograph(bits.astype(np.float64)), slow, maxval=1)
    assert fast.read_bytes() == slow.read_bytes()


def test_read_binary_image_rejects_grayscale(tmp_path):
    from percopick import read_binary_image

    path = tmp_path / "gray.pgm"
    path.write_bytes(b"P2\n2 1\n255\n0 7")
    with pytest.raises(ImageParseError, match="0/1"):
        read_binary_image(path)


def test_p5_sample_above_maxval_located(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P5\n2 1\n200\n" + bytes([0, 255]))
    with pytest.raises(ImageParseError) as err:
        read_image(path)
    assert str(err.value) == "pixel value 255 exceeds maxval 200 (byte 12)"
    path.write_bytes(b"P5\n3 1\n300\n" + bytes([0, 1, 1, 44, 1, 45]))  # 1, 300, 301
    with pytest.raises(ImageParseError) as err:
        read_image(path)
    assert str(err.value) == "pixel value 301 exceeds maxval 300 (byte 15)"


@pytest.mark.parametrize("data", [b"P5\n1 1\n255", b"P5\n1 1\n255#c\n\x00"])
def test_p5_needs_whitespace_after_maxval(tmp_path, data):
    path = tmp_path / "bad.pgm"
    path.write_bytes(data)
    with pytest.raises(ImageParseError) as err:
        read_image(path)
    assert str(err.value) == "missing whitespace after maxval in P5 header (line 3, byte 10)"


@pytest.mark.parametrize("text, message", [
    ("1,2\n\n3,4\n", "empty row (line 2)"),
    ("", "empty file (line 1)"),
])
def test_csv_empty_row_or_file(tmp_path, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ImageParseError) as err:
        read_image(path)
    assert str(err.value) == message


def test_long_bad_magic_is_cut_to_eight_bytes(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"0.123456789," * 500 + b"\n")
    with pytest.raises(ImageParseError) as err:
        read_image(path)
    assert str(err.value) == ("unsupported magic b'0.123456', expected P2 or P5 "
                              "(line 1, byte 0)")


def traced_peak(call) -> int:
    """Peak bytes that call() allocates, as tracemalloc counts them."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


PEAK_SIDE = 1200  # the bounds below are in bytes per pixel of this side squared


def test_read_binary_image_builds_no_float_frame(tmp_path):
    from percopick import BinaryImage, read_binary_image, write_binary_image

    n = PEAK_SIDE
    bits = np.random.default_rng(3).random((n, n)) < 0.5
    path = tmp_path / "bin.pgm"
    write_binary_image(BinaryImage(bits), path)
    back = []
    assert traced_peak(lambda: back.append(read_binary_image(path))) <= 3 * n * n
    assert np.array_equal(back[0].bits, bits)


@pytest.mark.parametrize("maxval", [65535, 255])
def test_write_image_peak_memory(tmp_path, maxval):
    n = PEAK_SIDE
    img = Micrograph(np.random.default_rng(4).random((n, n)) * maxval)
    path = tmp_path / "x.pgm"
    # the samples (at most 2 bytes per pixel) only: no float frame, no copy of the payload
    assert traced_peak(lambda: write_image(img, path, maxval=maxval)) <= 2.5 * n * n
    assert np.array_equal(read_image(path).pixels, np.rint(img.pixels))


def test_write_csv_peak_memory(tmp_path):
    n = PEAK_SIDE
    img = Micrograph(np.random.default_rng(7).standard_normal((n, n)))
    # one encoded row at a time, not the whole file as one string
    assert traced_peak(lambda: write_image(img, tmp_path / "x.csv")) <= 2 * 2**20


def test_downsampling_read_of_16bit_p5_peak_memory(tmp_path):
    n = PEAK_SIDE
    samples = np.random.default_rng(6).integers(0, 65536, (n, n)).astype(">u2")
    path = tmp_path / "x.pgm"
    path.write_bytes(b"P5\n%d %d\n65535\n" % (n, n) + samples.tobytes())
    back = []
    # the file's bytes and the integer block sums: no float64 frame at the source size
    assert traced_peak(lambda: back.append(read_image(path, downsample_passes=2))) <= 6.5 * n * n
    want = _read_then_downsample(path, 2).pixels
    assert back[0].pixels.tobytes() == want.tobytes()


def test_read_16bit_p5_peak_memory(tmp_path):
    n = PEAK_SIDE
    samples = np.random.default_rng(5).integers(0, 65536, (n, n)).astype(">u2")
    path = tmp_path / "x.pgm"
    path.write_bytes(b"P5\n%d %d\n65535\n" % (n, n) + samples.tobytes())
    back = []
    # the file's bytes and the float64 pixels, with no copy of the payload
    assert traced_peak(lambda: back.append(read_image(path))) <= 12 * n * n
    assert np.array_equal(back[0].pixels, samples)
