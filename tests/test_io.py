"""PGM and CSV readers/writers: format handling, round-trips, error paths."""

import io
import os
import stat
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import percopick.image as image_module
import percopick.io as io_module
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


def test_atomic_write_goes_through_a_symlink(tmp_path):
    real_dir = tmp_path / "real"
    real_dir.mkdir()
    real = real_dir / "real.json"
    real.write_bytes(b"old\n")
    link = tmp_path / "link.json"
    link.symlink_to(real)
    atomic_write_bytes(link, [b"new\n"])
    assert link.is_symlink() and os.readlink(link) == str(real)
    assert real.read_bytes() == b"new\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "real"]
    assert [p.name for p in real_dir.iterdir()] == ["real.json"]


def test_atomic_write_through_a_dangling_symlink_creates_its_target(tmp_path):
    old = os.umask(0o027)
    try:
        (tmp_path / "out").mkdir()
        link = tmp_path / "link.json"
        link.symlink_to("out/new.json")  # relative, as ln -s makes it
        atomic_write_bytes(link, [b"x"])
    finally:
        os.umask(old)
    target = tmp_path / "out" / "new.json"
    assert link.is_symlink() and target.read_bytes() == b"x"
    assert stat.S_IMODE(target.stat().st_mode) == 0o640  # 0o666 less the umask, as open() gives


@pytest.mark.parametrize("mode", [0o600, 0o640, 0o755], ids=oct)
def test_atomic_write_keeps_the_mode_of_an_existing_file(tmp_path, mode):
    path = tmp_path / "report.json"
    path.write_bytes(b"old")
    path.chmod(mode)
    old = os.umask(0o022)
    try:
        atomic_write_bytes(path, [b"new"])
        write_image(Micrograph([[0.0, 1.0]]), tmp_path / "x.pgm")  # new: the umask's mode
    finally:
        os.umask(old)
    assert path.read_bytes() == b"new"
    assert stat.S_IMODE(path.stat().st_mode) == mode
    assert stat.S_IMODE((tmp_path / "x.pgm").stat().st_mode) == 0o644
    write_image(Micrograph([[0.0, 1.0]]), path, format="pgm")  # a writer keeps it as well
    assert stat.S_IMODE(path.stat().st_mode) == mode


def test_atomic_write_failing_through_a_symlink_keeps_the_target(tmp_path):
    real = tmp_path / "real.json"
    real.write_bytes(b"old")
    real.chmod(0o600)
    link = tmp_path / "link.json"
    link.symlink_to(real)

    def chunks():
        yield b"new"
        raise RuntimeError("encoder failed")

    with pytest.raises(RuntimeError, match="encoder failed"):
        atomic_write_bytes(link, chunks())
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "real.json"]
    assert real.read_bytes() == b"old" and stat.S_IMODE(real.stat().st_mode) == 0o600


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


def test_downsampling_read_of_16bit_p5_streams_in_strips(tmp_path):
    n = PEAK_SIDE
    samples = np.random.default_rng(9).integers(0, 65536, (n, n)).astype(">u2")
    path = tmp_path / "x.pgm"
    path.write_bytes(b"P5\n%d %d\n65535\n" % (n, n) + samples.tobytes())
    back = []
    # one strip of the file's bytes and the reduced sums: never the whole payload
    assert traced_peak(lambda: back.append(read_image(path, downsample_passes=2))) <= 2 * n * n
    assert back[0].pixels.tobytes() == downsampled(samples, 2).pixels.tobytes()


# ---------------------------------------------------------------------------
# P5 payloads are read in row strips: every strip boundary, check and error
# ---------------------------------------------------------------------------


def p5_bytes(samples, maxval):
    """A P5 file of integer samples, encoded here in one piece."""
    height, width = np.shape(samples)
    dtype = ">u2" if maxval > 255 else np.uint8
    header = b"P5\n%d %d\n%d\n" % (width, height, maxval)
    return header + np.asarray(samples).astype(dtype).tobytes()


def downsampled(samples, passes):
    """The samples as float64 pixels after `passes` downsample2x calls."""
    img = Micrograph(np.asarray(samples, np.float64))
    for _ in range(passes):
        img = downsample2x(img)
    return img


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(strip=st.sampled_from([1, 2, 4, 8]), passes=st.integers(0, 3),
       height_at=st.sampled_from(["strip-1", "strip", "strip+1", "several"]),
       width=st.integers(1, 9), binary=st.booleans(),
       maxval=st.sampled_from([1, 255, 1000, 65535]), full=st.booleans(),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_strip_read_matches_whole_frame_downsample(tmp_path, monkeypatch, strip, passes,
                                                   height_at, width, binary, maxval, full,
                                                   seed, data):
    monkeypatch.setattr(image_module, "_STRIP_ROWS", strip)
    step = -(-strip // 2**passes) * 2**passes  # the rows a strip holds
    height = {"strip-1": step - 1, "strip": step, "strip+1": step + 1,
              "several": data.draw(st.integers(2 * step, 4 * step + 1), label="height")}[height_at]
    if height < 1:
        return
    samples = (np.full((height, width), maxval) if full
               else np.random.default_rng(seed).integers(0, maxval + 1, (height, width)))
    path = tmp_path / "x.pgm"
    write_pgm(path, samples, maxval, binary)
    assert (_outcome(lambda: read_image(path, downsample_passes=passes))
            == _outcome(lambda: downsampled(samples, passes)))


@pytest.mark.parametrize("passes", [0, 1, 2])
@pytest.mark.parametrize("maxval", [200, 1000])
@pytest.mark.parametrize("row, col", [(9, 2), (10, 1), (3, 4), (10, 4)],
                         ids=["later-strip", "dropped-row", "dropped-column", "dropped-corner"])
def test_p5_bad_sample_in_any_strip_is_located(tmp_path, monkeypatch, passes, maxval, row, col):
    monkeypatch.setattr(image_module, "_STRIP_ROWS", 4)
    samples = np.random.default_rng(row * 10 + col).integers(0, maxval + 1, (11, 5))
    samples[row, col] = maxval + 7
    samples[10, 4] = maxval + 9  # a later bad sample, in row-major order, is not the one reported
    path = tmp_path / "bad.pgm"
    data = p5_bytes(samples, maxval)
    path.write_bytes(data)
    offset = len(b"P5\n5 11\n%d\n" % maxval) + (row * 5 + col) * (2 if maxval > 255 else 1)
    with pytest.raises(ImageParseError) as err:
        read_image(path, downsample_passes=passes)
    value = samples[row, col]
    assert str(err.value) == f"pixel value {value} exceeds maxval {maxval} (byte {offset})"
    assert err.value.offset == offset


def test_error_precedence_is_kept_across_strips(tmp_path, monkeypatch):
    monkeypatch.setattr(image_module, "_STRIP_ROWS", 2)
    path = tmp_path / "bad.pgm"
    too_small = np.array([[0, 1, 250], [3, 4, 5], [6, 7, 8]])  # 3x3 fails a second pass
    # truncated before too small to downsample
    path.write_bytes(p5_bytes(too_small, 200)[:-1])
    with pytest.raises(ImageParseError, match=r"^truncated P5 payload: expected 9 bytes, found 8 "):
        read_image(path, downsample_passes=2)
    # trailing bytes before a sample above maxval
    path.write_bytes(p5_bytes(too_small, 200) + b"\0")
    with pytest.raises(ImageParseError, match=r"^trailing bytes after P5 payload "):
        read_image(path, downsample_passes=2)
    # a sample above maxval, in the last strip, before too small to downsample
    too_small[2, 2] = 201
    path.write_bytes(p5_bytes(too_small, 200))
    with pytest.raises(ImageParseError) as err:
        read_image(path, downsample_passes=2)
    assert str(err.value) == "pixel value 250 exceeds maxval 200 (byte 13)"
    too_small[0, 2] = 9
    path.write_bytes(p5_bytes(too_small, 200))
    with pytest.raises(ImageParseError, match=r"^pixel value 201 exceeds maxval 200 \(byte 19\)$"):
        read_image(path, downsample_passes=2)
    too_small[2, 2] = 8
    path.write_bytes(p5_bytes(too_small, 200))
    with pytest.raises(ValueError, match=r"^need at least a 2x2 image to downsample, got 1x1$"):
        read_image(path, downsample_passes=2)


def test_truncated_file_too_small_to_downsample_reports_the_truncation(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P5\n3 1\n65535\n" + bytes(4))
    with pytest.raises(ImageParseError) as err:
        read_image(path, downsample_passes=1)
    assert str(err.value) == "truncated P5 payload: expected 6 bytes, found 4 (byte 17)"


def test_p5_file_shrinking_while_read_is_a_parse_error(tmp_path, monkeypatch):
    path = tmp_path / "x.pgm"
    path.write_bytes(p5_bytes(np.arange(40).reshape(10, 4), 255)[:-2])  # 50 bytes
    real_fstat = os.fstat

    def fstat_two_bytes_longer(fd):  # the size taken before the payload is read
        fields = list(real_fstat(fd))
        fields[stat.ST_SIZE] += 2
        return os.stat_result(fields)

    monkeypatch.setattr(io_module.os, "fstat", fstat_two_bytes_longer)
    with pytest.raises(ImageParseError) as err:
        read_image(path)
    assert str(err.value) == "truncated P5 payload: the file shrank while it was read (byte 50)"


HEADER_CUTS = [
    b"P5\n# c\n3 2\n65535\n" + np.array([0, 655, 656, 6553, 6554, 65535], ">u2").tobytes(),
    b"P5 2 1 65535\n" + np.array([700, 65535], ">u2").tobytes(),  # 655 is no maxval here
    b"P5 2 1 255 " + bytes([1, 2]),
    b"P5 2 1 255",
    b"P5 2 1 255#c\n" + bytes([1, 2]),
    b"P5 2 1 655350\n" + bytes(4),
    b"P5 2 x1 255\n" + bytes(2),
    b"P5 2 1 \n#" + b"c" * 40 + b"\n# more\n255\n" + bytes([3, 4]),
    b"P5 2 1 2#" + b"c" * 40,
    b"P2\n2 2\n1000 1 2\n3 1000\n",
    b"P2 2 2 100 1 2 3",
    b"P6 1 1 255\n\0\0\0",
    b"P5P5 1 1 255\n\0",
    b"# only a comment",
    b"",
]


@pytest.mark.parametrize("data", HEADER_CUTS, ids=range(len(HEADER_CUTS)))
def test_header_parse_does_not_depend_on_where_the_first_read_ends(tmp_path, monkeypatch, data):
    path = tmp_path / "x.pgm"
    path.write_bytes(data)
    want = _outcome(lambda: read_image(path))
    for size in range(1, len(data) + 2):  # every first read, ending within every token
        monkeypatch.setattr(io_module, "_HEADER_BYTES", size)
        assert _outcome(lambda: read_image(path)) == want, f"first read of {size} bytes"


def test_maxval_ending_at_the_first_read_is_not_cut_short(tmp_path, monkeypatch):
    data = HEADER_CUTS[1]
    path = tmp_path / "x.pgm"
    path.write_bytes(data)
    for end in (data.index(b"65535") + 3, data.index(b"65535") + 5):  # "655" or all of it
        monkeypatch.setattr(io_module, "_HEADER_BYTES", end)
        assert read_image(path).pixels.tolist() == [[700, 65535]]


def test_header_comment_longer_than_the_first_read(tmp_path):
    comment = b"#" + b"c" * (3 * io_module._HEADER_BYTES) + b"\n"
    path = tmp_path / "x.pgm"
    path.write_bytes(b"P5\n" + comment + b"2 1\n65535\n" + np.array([9, 65535], ">u2").tobytes())
    assert read_image(path).pixels.tolist() == [[9, 65535]]
    path.write_bytes(b"P5\n" + comment + b"2 q\n")
    with pytest.raises(ImageParseError) as err:
        read_image(path)
    assert str(err.value) == f"non-numeric token b'q' for height (line 3, byte {5 + len(comment)})"
    path.write_bytes(b"P5\n2 1 " + comment)
    with pytest.raises(ImageParseError) as err:
        read_image(path)
    assert str(err.value) == (f"unexpected end of file while reading maxval "
                              f"(line 3, byte {7 + len(comment)})")


@pytest.mark.parametrize("head, fill, message", [
    (b"", b"X", r"^unsupported magic b'XXXXXXXX', expected P2 or P5 \(line 1, byte 0\)$"),
    (b"P5 ", b"7", r"^width token is longer than 64 bytes \(line 1, byte 3\)$"),
], ids=["magic", "width"])
def test_overlong_first_header_token_fails_without_reading_the_file(tmp_path, head, fill,
                                                                     message):
    path = tmp_path / "long.pgm"
    path.write_bytes(head + fill * (32 << 20))  # 32 MiB with no separator

    def read():
        with pytest.raises(ImageParseError, match=message):
            read_image(path)

    start = time.perf_counter()
    peak = traced_peak(read)
    elapsed = time.perf_counter() - start
    # reading to the token's end took 0.5-1.5 s and 80-144 MiB traced
    assert peak < 2**20
    assert elapsed < 0.2, f"rejecting the header took {elapsed:.2f} s"


def _scanned(sc):
    """Every (token, offset, line) sc reads, then the (message, offset, line)
    of the error that ends the scan: the end of the bytes, or the first token
    over _TOKEN_BYTES, which a reading scanner does not read to its end."""
    tokens = []
    while True:
        try:
            tok, start = sc.next_token("token")
            if message := io_module._too_long(tok, "token"):
                raise sc.error(message, start)
        except ImageParseError as exc:
            return tokens, (str(exc), exc.offset, exc.line)
        tokens.append((tok, start, sc.error("", start).line))


@pytest.mark.parametrize("header", [
    b"P5\r\n# a comment\r\n12 34\r\n255\r\n",
    b"P2 \t\n#c\n\n#\n  3\x0b2\x0c65535 \t \r\n  ",
    b"P5 1 1 255 # a last comment with no newline",
    b"P5\n#" + b"c" * 200 + b"\r\n4 4\n255\n",
    b"P5 " + b"9" * 64 + b" 1\n255\n",  # 64 bytes: read to its end
    b"P5 " + b"0" * 65 + b" 1\n",  # 65 bytes: rejected
    b"P5\n2 " + b"7" * 300 + b"\n255\n",
    b"X" * 70,
], ids=["crlf_comments", "whitespace_kinds", "comment_at_end", "long_comment",
        "token_64", "token_65", "token_300", "magic_70"])
def test_reading_scanner_scans_as_the_whole_buffer_scanner(header):
    want = _scanned(io_module._PgmScanner(header))
    for first in range(1, len(header) + 1):
        src = io.BytesIO(header)
        sc = io_module._PgmScanner(src.read(first), src.read)
        assert _scanned(sc) == want, f"first chunk of {first} bytes"
        assert header.startswith(sc.data)


@pytest.mark.parametrize("header, outcome", [
    (b"P2 %s 1 255\n" % (b"0" * 63 + b"2"), [[5.0, 6.0]]),  # 64 bytes: leading zeros are legal
    (b"P2 12345678901234567890 1 255\n",
     "width 12345678901234567890 outside allowed range 1..1000000000 (line 1, byte 3)"),
    (b"P2 2 %s 255\n" % (b"q" * 64), f"non-numeric token b'{'q' * 64}' for height (line 1, byte 5)"),
    (b"P2 %s 1 255\n" % (b"0" * 64 + b"2"), "width token is longer than 64 bytes (line 1, byte 3)"),
    (b"P2 2 1\n%s\n" % (b"9" * 65), "maxval token is longer than 64 bytes (line 2, byte 7)"),
    (b"P2 2 %s 255\n" % (b"q" * 65), "height token is longer than 64 bytes (line 1, byte 5)"),
], ids=["64-zeros", "20-digits", "64-letters", "65-digits", "65-digit-maxval", "65-letters"])
def test_header_number_over_64_bytes_is_named_too_long(tmp_path, header, outcome):
    path = tmp_path / "x.pgm"
    path.write_bytes(header + b"5 6\n")
    if isinstance(outcome, str):
        with pytest.raises(ImageParseError) as err:
            read_image(path)
        assert str(err.value) == outcome
    else:
        assert read_image(path).pixels.tolist() == outcome


PIXEL_TOO_LONG = "pixel value token is longer than 64 bytes (line 2, byte {})"
CELL_TOO_LONG = "CSV value token is longer than 64 bytes (line 1)"


@pytest.mark.parametrize("name, data, outcome", [
    ("a.pgm", b"P2 2 1 255\n%s 5\n" % (b"0" * 63 + b"7"), [[7.0, 5.0]]),  # not rejected
    ("b.pgm", b"P2 2 1 255\n%s 5\n" % (b"9" * 64),
     f"pixel value {'9' * 64} outside 0..255 (line 2, byte 11)"),
    ("c.pgm", b"P2 2 1 255\n5 %s\n" % (b"q" * 64),
     f"non-numeric token b'{'q' * 64}' for pixel value (line 2, byte 13)"),
    ("d.pgm", b"P2 2 1 255\n%s 5\n" % (b"9" * 65), PIXEL_TOO_LONG.format(11)),
    ("e.pgm", b"P2 2 1 255\n5 %s\n" % (b"q" * 65), PIXEL_TOO_LONG.format(13)),
    ("f.pgm", b"P2 2 1 255\nx %s\n" % (b"q" * 65),
     "non-numeric token b'x' for pixel value (line 2, byte 11)"),
    ("g.csv", b"1,%s\n" % (b"9" * 300), [[1.0, float("9" * 300)]]),  # not rejected
    ("h.csv", b"1, %s \n" % (b"q" * 64), f"non-numeric token '{'q' * 64}' (line 1)"),
    ("i.csv", b"1,%s\n" % (b"q" * 65), CELL_TOO_LONG),
    ("j.csv", b"1,%s\n" % ("\u00e9" * 33).encode(), CELL_TOO_LONG),  # 33 characters, 66 bytes
], ids=["p2-64-zeros", "p2-64-digits", "p2-64-letters", "p2-65-digits", "p2-65-letters",
        "p2-earlier-short-first", "csv-300-digits", "csv-64-letters", "csv-65-letters",
        "csv-66-utf8"])
def test_rejected_token_over_64_bytes_is_named_too_long(tmp_path, name, data, outcome):
    path = tmp_path / name
    path.write_bytes(data)
    if isinstance(outcome, str):
        with pytest.raises(ImageParseError) as err:
            read_image(path)
        assert str(err.value) == outcome
    else:
        assert read_image(path).pixels.tolist() == outcome


def _read_from_fifo(tmp_path, data, read):
    """read(path) of a named pipe that a writer thread feeds with data."""
    fifo = tmp_path / "pipe.pgm"
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "wb") as fh:
            fh.write(data)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        return _outcome(lambda: read(fifo))
    finally:
        writer.join(timeout=30)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("passes", [0, 2])
@pytest.mark.parametrize("case", ["p5", "p5-8bit", "p2", "truncated", "trailing", "bad-sample"])
def test_read_image_from_a_fifo_matches_a_regular_file(tmp_path, monkeypatch, passes, case):
    monkeypatch.setattr(image_module, "_STRIP_ROWS", 8)
    samples = np.random.default_rng(17).integers(0, 1001, (37, 21))
    data = {"p5": p5_bytes(samples, 65535), "p5-8bit": p5_bytes(samples % 256, 255),
            "p2": b"P2 21 37 1000\n" + " ".join(map(str, samples.ravel())).encode(),
            "truncated": p5_bytes(samples, 65535)[:-3],
            "trailing": p5_bytes(samples, 65535) + b"\n",
            "bad-sample": p5_bytes(samples, 1000)[:-2] + (1001).to_bytes(2, "big")}[case]
    regular = tmp_path / "file.pgm"
    regular.write_bytes(data)
    want = _outcome(lambda: read_image(regular, downsample_passes=passes))
    got = _read_from_fifo(tmp_path, data, lambda p: read_image(p, downsample_passes=passes))
    assert got == want
    if case.startswith("p"):
        assert want == _outcome(lambda: downsampled(samples % 256 if case == "p5-8bit"
                                                    else samples, passes))


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_read_binary_image_from_a_fifo(tmp_path):
    from percopick import read_binary_image

    bits = np.random.default_rng(2).random((9, 13)) < 0.5
    got = _read_from_fifo(tmp_path, p5_bytes(bits, 1),
                          lambda p: Micrograph(read_binary_image(p).bits.astype(float)))
    assert got == (bits.shape, bits.astype(float).tobytes())


def test_huge_downsample_pass_count_fails_fast(tmp_path):
    path = tmp_path / "small.pgm"
    path.write_bytes(p5_bytes(np.arange(16).reshape(4, 4), 65535))

    def read():
        with pytest.raises(ValueError, match=r"^need at least a 2x2 image to downsample, "
                                             r"got 1x1$"):
            read_image(path, downsample_passes=10**8)

    # no integer that grows with the pass count, such as 4**passes
    assert traced_peak(read) < 2**20


# ---------------------------------------------------------------------------
# The streamed reader against the whole-buffer reader it replaced
# ---------------------------------------------------------------------------


def _whole_buffer_samples(data):
    """The integer samples of a P2 or P5 file as a height x width array,
    parsed from all of its bytes at once: the reader before row strips."""
    sc = io_module._PgmScanner(data)
    magic, start = sc.next_token("magic number")
    if magic not in (b"P2", b"P5"):
        raise sc.error(f"unsupported magic {magic[:8]!r}, expected P2 or P5", start)
    width = sc.next_int("width", 1, 10**9)
    height = sc.next_int("height", 1, 10**9)
    maxval = sc.next_int("maxval", 1, 65535)
    count = width * height
    if magic == b"P2":
        body = io_module._blank_comments(data[sc.pos :])
        tokens = body.split()
        if len(tokens) < count:
            raise ImageParseError(f"expected {count} pixel values, found {len(tokens)}",
                                  offset=len(data), line=data.count(b"\n", 0, len(data) - 1) + 1)
        try:
            values = np.array(tokens, dtype=np.int64)
            if len(tokens) == count and values.min() >= 0 and values.max() <= maxval:
                return values.reshape(height, width)
        except (ValueError, OverflowError):
            pass
        index, message = io_module._first_rejected(tokens, count, maxval)
        raise sc.error(message, sc.pos + io_module._token_start(body, index))
    if sc.pos >= len(data) or data[sc.pos : sc.pos + 1] not in io_module._WHITESPACE:
        raise sc.error("missing whitespace after maxval in P5 header", sc.pos)
    start = sc.pos + 1
    dtype = io_module._sample_dtype(maxval)
    needed, found = count * dtype.itemsize, len(data) - start
    if found < needed:
        raise ImageParseError(f"truncated P5 payload: expected {needed} bytes, found {found}",
                              offset=len(data))
    if found > needed:
        raise ImageParseError("trailing bytes after P5 payload", offset=start + needed)
    values = np.frombuffer(data, dtype, count, start)
    if maxval != np.iinfo(dtype).max and values.max(initial=0) > maxval:
        bad = int(np.argmax(values > maxval))
        raise ImageParseError(f"pixel value {int(values[bad])} exceeds maxval {maxval}",
                              offset=start + bad * dtype.itemsize)
    return values.reshape(height, width)


def _whole_buffer_binary(data):
    """read_binary_image on _whole_buffer_samples, as a float64 0/1 image."""
    samples = _whole_buffer_samples(data)
    if samples.max(initial=0) > 1:
        values = np.unique(samples)[:5].astype(np.float64)
        raise ImageParseError(f"expected only 0/1 samples, found values {values}")
    return Micrograph((samples == 1).astype(np.float64))


def _shape_and_bytes_or_error(call):
    """(shape, bytes) of the pixels of call(), or the type and message of its ValueError."""
    try:
        img = call()
    except ValueError as exc:
        return type(exc), str(exc)
    return img.pixels.shape, img.pixels.tobytes()


ORACLE_SEEDS = [
    b"P5\n# 16-bit\n5 6\n65535\n" + np.arange(0, 65535, 2184, dtype=">u2")[:30].tobytes(),
    b"P5 9 8 255\n" + bytes(range(3, 219, 3)),
    b"P5\n6 4\n1000\n" + np.arange(0, 1001, 41, dtype=">u2")[:24].tobytes(),
    b"P2\n# c\n4 5 # size\n255\n0 12 255 3 # row\n7 8 9 10\n11 12 13 14\n15 16 17 18\n1 2 3 4\n",
    b"P5\n8 5\n1\n" + bytes(i * 7 % 3 % 2 for i in range(40)),
]


def _reads_as_the_whole_buffer_reader(tmp_path, monkeypatch, seed, edits, strip, first_read):
    """ORACLE_SEEDS[seed] with the edits made reads as _whole_buffer_samples
    and _whole_buffer_binary read it, or fails with the same error."""
    from percopick import read_binary_image

    # strips and first reads that end within the file, as they do for large files
    monkeypatch.setattr(image_module, "_STRIP_ROWS", strip)
    monkeypatch.setattr(io_module, "_HEADER_BYTES", first_read)

    data = bytearray(ORACLE_SEEDS[seed])
    for op, pos, chunk in edits:  # replace, insert or delete at a position in the file
        pos %= len(data) + 1
        if op == "r":
            data[pos : pos + len(chunk)] = chunk
        elif op == "i":
            data[pos:pos] = chunk
        else:
            del data[pos : pos + len(chunk)]
    data = bytes(data)
    path = tmp_path / "mutated.pgm"
    path.write_bytes(data)
    for passes in range(4):
        assert (_shape_and_bytes_or_error(lambda: read_image(path, downsample_passes=passes))
                == _shape_and_bytes_or_error(lambda: downsampled(_whole_buffer_samples(data),
                                                                 passes)))
    assert (_shape_and_bytes_or_error(
                lambda: Micrograph(read_binary_image(path).bits.astype(np.float64)))
            == _shape_and_bytes_or_error(lambda: _whole_buffer_binary(data)))


@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, len(ORACLE_SEEDS) - 1),
       edits=st.lists(st.tuples(st.sampled_from("rid"), st.integers(0, 10**6),
                                st.binary(min_size=1, max_size=8)), min_size=1, max_size=3),
       strip=st.sampled_from([1, 3, 128]), first_read=st.sampled_from([1, 5, 4096]))
def test_mutated_files_read_as_the_whole_buffer_reader_reads_them(tmp_path, monkeypatch, seed,
                                                                  edits, strip, first_read):
    _reads_as_the_whole_buffer_reader(tmp_path, monkeypatch, seed, edits, strip, first_read)


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, len(ORACLE_SEEDS) - 1),
       edits=st.lists(st.tuples(st.sampled_from("ri"), st.integers(0, 10**6),
                                st.builds(lambda run, n: run * n,
                                          st.sampled_from([b"7", b"0", b"q", b"# ", b"\n"]),
                                          st.integers(60, 5000))), min_size=1, max_size=2),
       strip=st.sampled_from([1, 3, 128]), first_read=st.sampled_from([1, 5, 4096]))
def test_long_tokens_read_as_the_whole_buffer_reader_reads_them(tmp_path, monkeypatch, seed,
                                                                edits, strip, first_read):
    # runs of 60 to 5,000 digits, letters, comment text or newlines: tokens and
    # comments on both sides of 64 bytes, and past the first read
    _reads_as_the_whole_buffer_reader(tmp_path, monkeypatch, seed, edits, strip, first_read)
