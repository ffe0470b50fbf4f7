"""CLI subcommands: outputs, exit codes, determinism."""

import contextlib
import functools
import hashlib
import io
import json
import math
import operator
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from percopick import DetectParams, Micrograph, cli, read_image, write_image
from percopick.cli import main


@pytest.fixture
def two_level_pgm(tmp_path):
    """Noiseless 0/255 image with one 20x20 particle, PGM-encoded."""
    pixels = np.zeros((128, 128))
    pixels[40:60, 60:80] = 255.0
    path = tmp_path / "mic.pgm"
    write_image(Micrograph(pixels), path, maxval=255)
    return path


@pytest.fixture
def scene_json(tmp_path):
    doc = {
        "n": 128,
        "a": 0.3,
        "b": 0.7,
        "phi0": 32,
        "phi1": 8,
        "shapes": [{"kind": "square", "size": 20, "row": 70, "col": 70}],
        "noise": {"kind": "uniform", "half_width": 0.1},
    }
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(doc))
    return path


DETECT_FLAGS = ["--phi0", "32", "--phi1", "8", "--downsample", "0", "--no-normalize"]


def test_detect_writes_report(two_level_pgm, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["detect", "--in", str(two_level_pgm), "--out", str(out), *DETECT_FLAGS])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["decision"] == "ParticlesFound"
    assert doc["clusters"][0]["pixel_count"] == 400
    assert "decision ParticlesFound" in capsys.readouterr().out


def test_detect_stdout_when_no_out(two_level_pgm, capsys):
    code = main(["detect", "--in", str(two_level_pgm), *DETECT_FLAGS])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["decision"] == "ParticlesFound"


def test_detect_byte_identical_reruns(two_level_pgm, tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    main(["detect", "--in", str(two_level_pgm), "--out", str(out1), *DETECT_FLAGS])
    main(["detect", "--in", str(two_level_pgm), "--out", str(out2), *DETECT_FLAGS])
    assert out1.read_bytes() == out2.read_bytes()


def test_detect_binary_outputs(two_level_pgm, tmp_path):
    binary = tmp_path / "binary.pgm"
    filtered = tmp_path / "filtered.pgm"
    code = main([
        "detect", "--in", str(two_level_pgm),
        "--out", str(tmp_path / "r.json"),
        "--binary-out", str(binary), "--filtered-out", str(filtered),
        *DETECT_FLAGS,
    ])
    assert code == 0
    img = read_image(binary)
    assert set(np.unique(img.pixels)) == {0.0, 1.0}
    assert img.pixels.sum() == 400  # 1 = black
    assert read_image(filtered).pixels.sum() == 400


def test_detect_non_square_dims_are_width_then_height(tmp_path):
    pixels = np.zeros((96, 160))  # 96 rows, 160 columns
    pixels[30:60, 100:130] = 255.0
    path, report = tmp_path / "wide.pgm", tmp_path / "r.json"
    write_image(Micrograph(pixels), path, maxval=255)
    binary, filtered = tmp_path / "binary.pgm", tmp_path / "filtered.pgm"
    assert main(["detect", "--in", str(path), "--out", str(report),
                 "--binary-out", str(binary), "--filtered-out", str(filtered),
                 *DETECT_FLAGS]) == 0
    assert json.loads(report.read_text())["dims"] == [160, 96]
    for out in (binary, filtered):
        assert out.read_bytes().startswith(b"P5\n160 96\n1\n")
    assert read_image(filtered).pixels[30:60, 100:130].all()


@pytest.mark.parametrize("command, passes, bytes_per_pixel", [
    # at 0 passes both measure 18.0: detect 22.5 if the preprocessed frame
    # outlives binarize, 38.5 if the raw frame or a table outlives its last
    # reader, and estimate 32.2 if the raw frame outlives preprocess
    ("detect", ["--downsample", "0"], 20),
    ("detect", ["--downsample", "1"], 5.6),  # 5.5; 5.8 with the frame kept
    ("detect", [], 2.7),  # the default two passes: no rise
    ("estimate", ["--downsample", "0"], 20),
    ("estimate", [], 2.7),
], ids=["full-resolution", "one-pass", "default", "estimate-full-resolution",
        "estimate-default"])
def test_detect_traced_peak_per_source_pixel(tmp_path, capsys, command, passes,
                                             bytes_per_pixel):
    # a seeded 640x640 16-bit frame: uniform noise, particles in the lower half
    n = 640
    pixels = np.random.default_rng(640).uniform(0.0, 0.7, (n, n))
    for r in range(320, n, 160):
        for c in range(0, n, 160):
            pixels[r + 40 : r + 120, c + 40 : c + 120] += 0.15
    path = tmp_path / "mic.pgm"
    write_image(Micrograph(pixels / 0.85 * 65535), path, maxval=65535)
    del pixels
    argv = [command, "--in", str(path), *passes]
    if command == "detect":
        argv += ["--out", str(tmp_path / "report.json")]
    assert main(argv) == 0  # the first run pays for one-time allocations
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bytes_per_pixel * n * n, f"{peak / (n * n):.2f} bytes per source pixel"


def test_estimate_prints_values(two_level_pgm, capsys):
    code = main(["estimate", "--in", str(two_level_pgm), *DETECT_FLAGS])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "a_hat 0"
    assert lines[1] == "b_hat 255"
    assert lines[2] == "theta 127.5"


def test_estimate_degenerate_exits_2(tmp_path, capsys):
    path = tmp_path / "flat.pgm"
    write_image(Micrograph(np.full((64, 64), 7.0)), path, maxval=255)
    code = main(["estimate", "--in", str(path), "--phi0", "16", "--phi1", "8",
                 "--downsample", "0", "--no-normalize"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("percopick: error:")
    assert "\n" not in err.strip()


def test_missing_file_exits_1(capsys):
    code = main(["detect", "--in", "/nonexistent/mic.pgm"])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_parameters_are_checked_before_the_image_is_read(tmp_path, capsys):
    code = main(["detect", "--downsample", "-1", "--in", str(tmp_path / "missing.pgm")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "downsample_passes" in err


def test_malformed_image_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P5\n8 8\n255\nshort")
    code = main(["detect", "--in", str(bad)])
    assert code == 1
    assert "truncated" in capsys.readouterr().err


def test_overlong_header_number_gives_one_short_line(tmp_path, capsys):
    bad = tmp_path / "long.pgm"
    bad.write_bytes(b"P5 " + b"7" * (1 << 20))  # one width token of 1 MiB
    assert main(["estimate", "--in", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and len(err) < 200, f"{len(err)} bytes: {err[:80]!r}"


@pytest.mark.parametrize("name, data, message", [
    ("pixel.pgm", b"P2 2 1 255\n5 " + b"7" * (1 << 20) + b"\n",
     "pixel value token is longer than 64 bytes (line 2, byte 13)"),
    ("digits.pgm", b"P2 2 1 255\n" + b"9" * 5000 + b" 5\n",  # more digits than int() reads
     "pixel value token is longer than 64 bytes (line 2, byte 11)"),
    ("cell.csv", b"1," + b"1" * (1 << 20) + b"\n",
     "CSV value token is longer than 64 bytes (line 1)"),
    ("word.csv", b"1," + b"x" * (1 << 20) + b"\n",
     "CSV value token is longer than 64 bytes (line 1)"),
], ids=["p2-1MiB-pixel", "p2-5000-digits", "csv-1MiB-number", "csv-1MiB-word"])
def test_overlong_token_gives_one_short_line(tmp_path, capsys, name, data, message):
    bad = tmp_path / name
    bad.write_bytes(data)
    assert main(["estimate", "--in", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err == f"percopick: error: {message}\n", f"{len(err)} bytes: {err[:80]!r}"


SCENE_DOC = {
    "n": 64, "a": 0.3, "b": 0.7, "phi0": 16, "phi1": 8,
    "shapes": [{"kind": "square", "size": 10, "row": 40, "col": 40}],
    "noise": {"kind": "uniform", "half_width": 0.1},
}


@pytest.mark.parametrize("doc,named", [
    ([1, 2], "scene document"),
    (dict(SCENE_DOC, shapes=5), "'shapes'"),
    (dict(SCENE_DOC, shapes=[7]), "shapes[0]"),
    (dict(SCENE_DOC, noise="uniform"), "noise"),
    (dict(SCENE_DOC, noise_square=3), "'noise_square'"),
    (dict(SCENE_DOC, noise={"kind": "uniform", "half_width": None}), "'half_width'"),
    (dict(SCENE_DOC, phi0=0), "square side 0 outside 1..64"),
    ({k: v for k, v in SCENE_DOC.items() if k != "n"}, "scene field 'n' is missing"),
    (dict(SCENE_DOC, n="abc"), "scene field 'n' is malformed"),
    (dict(SCENE_DOC, noise_square=[1]), "scene field 'noise_square' is malformed"),
    (dict(SCENE_DOC, n=1e400), "scene field 'n' is malformed"),
    (dict(SCENE_DOC, noise={"half_width": 0.1}), "scene field 'kind' is missing"),
    ("{not json", "Expecting property name"),
    (dict(SCENE_DOC, n=64.5), "scene field 'n' is malformed"),
    (dict(SCENE_DOC, phi1=True), "scene field 'phi1' is malformed"),
    (dict(SCENE_DOC, shapes=[dict(SCENE_DOC["shapes"][0], size=10.9)]),
     "scene field 'size' is malformed"),
    (dict(SCENE_DOC, shapes=[dict(SCENE_DOC["shapes"][0], row="30")]),
     "scene field 'row' is malformed"),
    (dict(SCENE_DOC, noise_square=[0.7, 0]), "scene field 'noise_square' is malformed"),
], ids=["top_level_list", "shapes_int", "shape_int", "noise_str", "noise_square_int",
        "half_width_null", "phi0_zero", "n_missing", "n_str", "noise_square_short",
        "n_overflow", "noise_kind_missing", "not_json", "n_fraction", "phi1_bool",
        "size_fraction", "row_str", "noise_square_fraction"])
def test_malformed_scene_exits_1_with_one_line(doc, named, tmp_path, capsys):
    scene = tmp_path / "scene.json"
    scene.write_text(doc if isinstance(doc, str) else json.dumps(doc))  # a str is raw text
    code = main(["synth", "--scene", str(scene), "--out", str(tmp_path / "out.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("percopick: error:") and named in err
    assert err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", [
    ["synth", "--out", "{tmp}/out.csv"],
    ["mc-consistency", "--trials", "2", "--phi0-grid", "16"],
], ids=["synth", "mc-consistency"])
def test_deeply_nested_scene_exits_1_with_one_line(command, tmp_path, capsys, monkeypatch):
    # the parser recurses once per '[': the depth is checked before it runs
    monkeypatch.setattr(json, "loads", lambda text: pytest.fail("the document was parsed"))
    scene = tmp_path / "scene.json"
    scene.write_text("[" * 100_000)
    argv = [command[0], "--scene", str(scene), *command[1:]]
    code = main([arg.format(tmp=tmp_path) for arg in argv])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "percopick: error: scene document is nested too deeply to parse\n"
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("command", [
    ["synth", "--out", "{tmp}/out.csv"],
    ["mc-consistency", "--trials", "2", "--phi0-grid", "16"],
], ids=["synth", "mc-consistency"])
def test_uniform_draw_width_overflow_exits_1_with_one_line(command, tmp_path, capsys):
    # 1e308 is finite, but the draw width 2 * half_width is not
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(dict(SCENE_DOC, noise={"kind": "uniform", "half_width": 1e308})))
    argv = [command[0], "--scene", str(scene), *command[1:]]
    code = main([arg.format(tmp=tmp_path) for arg in argv])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == ("percopick: error: half_width is too large: the draw width "
                            "2 * half_width overflows, got 1e+308\n")
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("command", [
    ["synth", "--out", "{tmp}/out.csv"],
    ["mc-consistency", "--trials", "2", "--phi0-grid", "16"],
], ids=["synth", "mc-consistency"])
def test_contrast_overflow_exits_1_with_one_line(command, tmp_path, capsys):
    # a and b are finite, but b - a is not: the scene would draw inf and nan
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(dict(SCENE_DOC, a=-1e308, b=1e308)))
    argv = [command[0], "--scene", str(scene), *command[1:]]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([arg.format(tmp=tmp_path) for arg in argv])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == "" and caught == []
    assert captured.err == ("percopick: error: a and b are too far apart: the contrast "
                            "b - a overflows, got a=-1e+308, b=1e+308\n")
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("flags,named", [
    (["--contrast", "1e200", "--sigma", "0.1", "--bound-m", "0.2"],
     "b_minus_a is too large: C1 = 3 (b-a)^2 overflows"),
    (["--contrast", "1", "--sigma", "1e200", "--bound-m", "0.2"],
     "sigma is too large: C2 = 12 sigma^2 overflows"),
    (["--contrast", "1", "--sigma", "0.1", "--bound-m", "1e308"],
     "bound_m * b_minus_a is too large: C3 = 4 M (b-a) overflows"),
    (["--contrast", "0.1", "--sigma", "0.1", "--bound-m", "5e-324"],
     "bound_m * b_minus_a is too small: C3 = 4 M (b-a) underflows to 0"),
], ids=["contrast", "sigma", "bound_m", "bound_m_underflow"])
def test_bound_coefficient_overflow_exits_1_with_one_line(flags, named, capsys):
    code = main(["bound", "--s1", "4", "--excess", "1", *flags])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"percopick: error: {named}\n"


SCENE_16 = {
    "n": 16, "a": 0.3, "b": 0.7, "phi0": 4, "phi1": 2,
    "shapes": [{"kind": "square", "size": 4, "row": 8, "col": 8}],
    "noise": {"kind": "uniform", "half_width": 0.1},
}
# every value is finite, but a stage's float64 arithmetic overflows on it
HUGE_LEVELS = json.dumps(dict(SCENE_16, a=1e308, b=1.5e308,
                              noise={"kind": "uniform", "half_width": 8e307}))
HUGE_BLOCKS = "".join(",".join("1.7e308" if r % 2 == c % 2 == 0 else "1e308" for c in range(80))
                      + "\n" for r in range(80))
TINY_PEAK = "1e-300" + ",-1e308" * 79 + "\n" + ("-1e308," * 79 + "-1e308\n") * 79
HUGE_FINITE = [  # (argv, the files it reads, the stage named in the error)
    (["mc-consistency", "--scene", "{tmp}/scene.json", "--trials", "2", "--phi0-grid", "16"],
     {"scene.json": json.dumps(dict(SCENE_DOC, a=1e307, b=2e307, phi1=4))}, "their sums"),
    (["estimate", "--in", "{tmp}/x.csv", "--no-normalize", "--downsample", "0",
      "--phi0", "8", "--phi1", "4"], {"x.csv": ("1e308," * 69 + "1e308\n") * 70}, "their sums"),
    (["synth", "--scene", "{tmp}/scene.json", "--out", "{tmp}/x.pgm"],
     {"scene.json": json.dumps(dict(SCENE_16, a=1e304, b=2e304))},
     "their values scaled to --pgm-maxval"),
    (["synth", "--scene", "{tmp}/scene.json", "--out", "{tmp}/x.csv"],
     {"scene.json": HUGE_LEVELS}, "the scene's levels plus noise"),
    (["mc-detection", "--scene", "{tmp}/scene.json", "--trials", "1", "--downsample", "0",
      "--no-normalize"], {"scene.json": HUGE_LEVELS}, "the scene's levels plus noise"),
    (["estimate", "--in", "{tmp}/x.csv", "--downsample", "1", "--phi0", "8", "--phi1", "4"],
     {"x.csv": HUGE_BLOCKS}, "their 2x2 block sums"),
    (["estimate", "--in", "{tmp}/x.csv", "--downsample", "0", "--phi0", "8", "--phi1", "4"],
     {"x.csv": TINY_PEAK}, "their ratios to the peak"),
    (["detect", "--in", "{tmp}/x.csv", "--downsample", "0", "--phi0", "8", "--phi1", "4"],
     {"x.csv": TINY_PEAK}, "their ratios to the peak"),
]


def _run_with_files(argv, files, tmp):
    """main(argv) with files written into tmp first; returns the exit code, the
    captured stdout and stderr, and the warnings raised."""
    for name, text in files.items():
        (tmp / name).write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main([arg.format(tmp=tmp) for arg in argv])
    return code, out.getvalue(), err.getvalue(), caught


@pytest.mark.parametrize("argv,files,stage", HUGE_FINITE,
                         ids=["mc-consistency", "estimate", "synth-pgm", "synth-csv",
                              "mc-detection", "downsample", "normalize-estimate",
                              "normalize-detect"])
def test_huge_finite_values_exit_1_with_one_line(argv, files, stage, tmp_path):
    code, out, err, caught = _run_with_files(argv, files, tmp_path)
    assert (code, out, caught) == (1, "", [])
    assert err == f"percopick: error: image values out of range: {stage} overflow float64\n"
    assert not (tmp_path / "x.pgm").exists()


# Finite numbers at the edges of float64, and values of the wrong type
EDGES = [5e-324, 1e-300, 2.2250738585072014e-308, 1e304, 1.5e304, 2e304, 8e307, 1e308,
         1.5e308, 1.7e308, 1.7976931348623157e308]
EDGE = st.sampled_from([0.0, 0.1, 0.3, 0.7, 1.0, *EDGES, *(-v for v in EDGES)])
WRONG = st.sampled_from([None, True, "x", [], {}, 1.5, -1])


def _scene_text(doc, wrong, depth):
    """The scene document as JSON, its levels as a < b unless equal, with at most
    one field replaced by a value of the wrong type, inside depth nested
    one-element arrays."""
    doc["a"], doc["b"] = doc.pop("levels")
    if wrong is not None:
        (*parents, key), value = wrong
        with contextlib.suppress(IndexError):  # a scene without shapes[0] stays as it is
            functools.reduce(operator.getitem, parents, doc)[key] = value
    return "[" * depth + json.dumps(doc) + "]" * depth


SHAPE = st.fixed_dictionaries({
    "kind": st.sampled_from(["square", "disc", "l_shape", "annulus_gap", "hexagon"]),
    "size": st.integers(0, 16), "row": st.integers(-1, 63), "col": st.integers(-1, 63)})
SCENES = st.builds(
    _scene_text,
    st.fixed_dictionaries({
        # a side of at most 64, or now and then one too large to allocate at all
        "n": st.integers(0, 9).flatmap(lambda i: st.sampled_from([10**12, 10**400, 1e308])
                                       if i == 0 else st.integers(1, 64)),
        "levels": st.tuples(EDGE, EDGE).map(sorted),
        "phi0": st.integers(1, 16), "phi1": st.integers(1, 16),
        "shapes": st.lists(SHAPE, max_size=2),
        "noise": st.fixed_dictionaries({"kind": st.just("uniform"), "half_width": EDGE})
        | st.fixed_dictionaries({"kind": st.just("truncated_gaussian"),
                                 "sigma_raw": EDGE, "bound": EDGE}),
    }, optional={"noise_square": st.tuples(st.integers(-1, 63), st.integers(-1, 63))}),
    st.none() | st.tuples(st.sampled_from([
        ("n",), ("a",), ("b",), ("b",), ("phi0",), ("phi1",), ("shapes",), ("noise",),
        ("noise_square",), ("noise", "kind"), ("noise", "half_width"), ("noise", "bound"),
        ("shapes", 0), ("shapes", 0, "size"), ("shapes", 0, "row")]), WRONG),
    st.sampled_from([0, 0, 0, 1, 100_000]),  # 100,000 levels exceed the parser's recursion
)
SCENE_COMMANDS = st.sampled_from([
    ["synth", "--out", "{tmp}/x.csv", "--truth-out", "{tmp}/t.pgm"],
    ["synth", "--out", "{tmp}/x.pgm"],
    ["synth", "--out", "{tmp}/x.pgm", "--pgm-maxval", "255"],
    ["mc-consistency", "--trials", "2", "--jobs", "1", "--phi0-grid", "1,4"],
    ["mc-consistency", "--trials", "1", "--jobs", "1", "--phi0-grid", "16"],
    ["mc-detection", "--trials", "2", "--jobs", "1", "--downsample", "0",
     "--phi0", "4", "--phi1", "2"],
    ["mc-detection", "--trials", "1", "--jobs", "1", "--downsample", "0", "--no-normalize",
     "--phi0", "2", "--phi1", "1", "--min-cluster", "1"],
    ["mc-detection", "--trials", "1", "--jobs", "1", "--phi0", "1", "--phi1", "1",
     "--theta", "0.5"],
])
IMAGES = st.tuples(st.integers(1, 16), st.integers(1, 16)).flatmap(  # CSV text, h x w
    lambda hw: st.lists(st.lists(EDGE | st.floats(0, 1), min_size=hw[1], max_size=hw[1]),
                        min_size=hw[0], max_size=hw[0]).map(
        lambda rows: "".join(",".join(map(repr, row)) + "\n" for row in rows)))
IMAGE_COMMANDS = st.tuples(
    st.sampled_from(["estimate", "detect"]), st.sampled_from(["0", "1"]),
    st.sampled_from(["--normalize", "--no-normalize"]),
    st.sampled_from([["--phi0", "1", "--phi1", "1"], ["--phi0", "2", "--phi1", "1"],
                     ["--phi0", "4", "--phi1", "2"], ["--phi0", "3", "--phi1", "5"]]),
).map(lambda c: [c[0], "--in", "{tmp}/x.csv", "--downsample", c[1], c[2], *c[3]])
BOUND_COUNTS = st.lists(st.integers(0, 20), max_size=3).map(lambda v: ",".join(map(str, v)))
CASES = (
    st.tuples(SCENE_COMMANDS, SCENES).map(
        lambda c: ([c[0][0], "--scene", "{tmp}/scene.json", *c[0][1:]], {"scene.json": c[1]}))
    | st.tuples(IMAGE_COMMANDS, IMAGES).map(lambda c: (c[0], {"x.csv": c[1]}))
    | st.tuples(BOUND_COUNTS, BOUND_COUNTS, EDGE, EDGE, EDGE).map(
        lambda c: (["bound", "--s1", c[0], "--excess", c[1], f"--contrast={c[2]!r}",
                    f"--sigma={c[3]!r}", f"--bound-m={c[4]!r}"], {}))
)


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=CASES)
@example(case=HUGE_FINITE[2][:2])
@example(case=HUGE_FINITE[3][:2])
@example(case=HUGE_FINITE[4][:2])
@example(case=HUGE_FINITE[5][:2])
@example(case=HUGE_FINITE[7][:2])
@example(case=(["bound", "--s1", str(10**400), "--excess", "1", "--contrast", "1",
                "--sigma", "1", "--bound-m", "1"], {}))  # an int beyond float64
def test_extreme_inputs_keep_the_one_line_contract(case):
    argv, files = case
    with tempfile.TemporaryDirectory() as tmp:
        code, _, err, caught = _run_with_files(argv, files, Path(tmp))
    assert code in (0, 1, 2) and caught == []
    assert "Traceback" not in err and err.count("\n") <= 1


def test_synth_pgm_traced_peak_per_pixel(tmp_path, capsys):
    # 15.2 bytes per pixel, set while the scene is drawn: the frame (8), the
    # truth labels (4), the particle mask and its negation (2) and the
    # finiteness check (1). Scaling a copy of the frame for the PGM costs 8
    # more (22.3); keeping the masks through the write, 1 more.
    n = 600
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps({
        "n": n, "a": 0.3, "b": 0.7, "phi0": 64, "phi1": 16,
        "shapes": [{"kind": "disc", "size": 50, "row": 300, "col": 300}],
        "noise": {"kind": "uniform", "half_width": 0.2}}))
    argv = ["synth", "--scene", str(scene), "--out", str(tmp_path / "x.pgm")]
    assert main(argv) == 0  # the first run pays for one-time allocations
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * n * n, f"{peak / (n * n):.2f} bytes per pixel"


@pytest.mark.parametrize("argv,named", [
    (["percolation-phase", "--n", "16", "--p", ""], "p_values must not be empty"),
    (["mc-consistency", "--scene", "{scene}", "--phi0-grid", ""], "phi0_grid must not be empty"),
    (["bound", "--s1", "", "--excess", "", "--contrast", "1", "--sigma", "1", "--bound-m", "1"],
     "s1_list must not be empty"),
], ids=["phase_no_p", "consistency_no_phi0", "bound_no_s1"])
def test_empty_value_list_exits_1_with_one_line(argv, named, scene_json, capsys):
    code = main([arg.format(scene=scene_json) for arg in argv])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"percopick: error: {named}\n"


def test_unknown_flag_exits_1(capsys):
    code = main(["detect", "--in", "x.pgm", "--frobnicate"])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_unknown_subcommand_exits_1(capsys):
    assert main(["transmogrify"]) == 1


def test_help_available_for_every_subcommand(capsys):
    for sub in ("estimate", "detect", "synth", "mc-consistency",
                "mc-detection", "bound", "percolation-phase"):
        with pytest.raises(SystemExit) as exc:
            main([sub, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--help" in out or "usage" in out


def test_help_documents_defaults(capsys):
    with pytest.raises(SystemExit):
        main(["detect", "--help"])
    out = capsys.readouterr().out
    assert "65" in out and "30" in out  # default window and cluster filter


def test_flag_defaults_match_reference_pipeline():
    from percopick.cli import _params_from_args, build_parser

    args = build_parser().parse_args(["detect", "--in", "x.pgm"])
    assert (args.phi0, args.phi1, args.min_cluster_pixels) == (65, 9, 30)
    assert args.downsample_passes == 2
    assert args.normalize is True
    assert _params_from_args(args) == DetectParams()
    for argv in (["estimate", "--in", "x.pgm"], ["mc-detection", "--scene", "s.json"]):
        assert _params_from_args(build_parser().parse_args(argv)) == DetectParams()


def test_one_parser_serves_many_calls(two_level_pgm, scene_json, monkeypatch, capsys):
    build_parser = cli.build_parser

    def no_new_parser():
        raise AssertionError("main built a parser")

    flags = ["--phi0", "32", "--phi1", "8", "--downsample", "0"]
    calls = [
        ["detect", "--in", str(two_level_pgm), "--no-normalize", *flags],
        ["detect", "--in", str(two_level_pgm), *flags],
        ["detect", "--in", str(two_level_pgm), "--phi0", "x"],
        ["detect", "--in", str(two_level_pgm), *flags],
        ["mc-consistency", "--scene", str(scene_json), "--trials", "2"],
        ["mc-consistency", "--scene", str(scene_json), "--trials", "2"],
    ]
    shared = cli._PARSER
    monkeypatch.setattr(cli, "build_parser", no_new_parser)
    got = []
    for argv in calls:
        got.append((main(argv), *capsys.readouterr()))
    fresh = []
    for argv in calls:
        monkeypatch.setattr(cli, "_PARSER", build_parser())
        fresh.append((main(argv), *capsys.readouterr()))
    assert got == fresh
    assert [code for code, _, _ in got] == [0, 0, 1, 0, 0, 0]
    assert [json.loads(got[i][1])["params"]["normalize"] for i in (0, 1, 3)] == [
        False, True, True]
    assert got[2][2].startswith("percopick: error: argument --phi0: invalid int value")
    assert [line.split(",")[0] for line in got[4][1].splitlines()] == ["phi0", "16", "32", "64"]
    for argv in (calls[1], calls[4], ["percolation-phase"], ["estimate", "--in", "x.pgm"],
                 ["mc-detection", "--scene", "s.json"], ["synth", "--scene", "s", "--out", "o"]):
        assert vars(shared.parse_args(argv)) == vars(build_parser().parse_args(argv))
    assert shared.parse_args(calls[4]).phi0_grid == [16, 32, 64]
    assert shared.parse_args(["percolation-phase"]).p == [0.4, 0.6]


def test_bound_prints_expected_value(capsys):
    code = main(["bound", "--s1", "100", "--excess", "100",
                 "--contrast", "1", "--sigma", "1", "--bound-m", "1"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    raw = float(lines[0].split()[1])
    assert raw == pytest.approx(math.exp(-18.75), rel=1e-5)
    assert lines[0].split()[1] == "7.19413e-09"
    assert lines[1].split()[0] == "clipped"


def test_bound_invalid_inputs_exit_1(capsys):
    assert main(["bound", "--s1", "100", "--excess", "100",
                 "--contrast", "0", "--sigma", "1", "--bound-m", "1"]) == 1
    assert main(["bound", "--s1", "3,4", "--excess", "1,2",
                 "--contrast", "inf", "--sigma", "1", "--bound-m", "1"]) == 1
    assert capsys.readouterr().err.endswith("b_minus_a must be finite and > 0, got inf\n")
    assert main(["bound", "--s1", "1,x", "--excess", "1",
                 "--contrast", "1", "--sigma", "1", "--bound-m", "1"]) == 1
    assert capsys.readouterr().err == ("percopick: error: argument --s1: "
                                       "expected comma-separated integers, got '1,x'\n")


def test_synth_csv_and_truth(scene_json, tmp_path):
    out = tmp_path / "scene.csv"
    truth = tmp_path / "truth.pgm"
    code = main(["synth", "--scene", str(scene_json), "--seed", "5",
                 "--out", str(out), "--truth-out", str(truth)])
    assert code == 0
    img = read_image(out)
    assert img.width == img.height == 128
    mask = read_image(truth)
    assert mask.pixels.sum() == 400

    # deterministic regeneration
    out2 = tmp_path / "scene2.csv"
    main(["synth", "--scene", str(scene_json), "--seed", "5", "--out", str(out2)])
    assert out.read_bytes() == out2.read_bytes()


# sha256 of `percopick synth --seed 3` outputs for the scene below
SYNTH_DOC = {
    "n": 96, "a": 0.2, "b": 0.8, "phi0": 24, "phi1": 6,
    "shapes": [{"kind": "l_shape", "size": 16, "row": 50, "col": 10},
               {"kind": "disc", "size": 8, "row": 50, "col": 60},
               {"kind": "annulus_gap", "size": 12, "row": 4, "col": 60}],
    "noise": {"kind": "uniform", "half_width": 0.15},
}
GOLDEN_SYNTH = {
    "img.pgm": "72e9f45a2b3f1f9f5f61f319abd15d41456685d037fd1a5f2f2d1267b85029bd",
    "truth.pgm": "69509753f3cc1451b2af5567e7ea6e51b0b479dfa953ff0603971787d4d17fcc",
}


def test_synth_outputs_match_golden_hashes(tmp_path, capsys):
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(SYNTH_DOC))
    outs = {name: tmp_path / name for name in GOLDEN_SYNTH}
    code = main(["synth", "--scene", str(scene), "--seed", "3", "--out", str(outs["img.pgm"]),
                 "--truth-out", str(outs["truth.pgm"])])
    assert code == 0
    out = capsys.readouterr().out
    assert out == f"wrote 96x96 scene with 3 particle(s) to {outs['img.pgm']}\n"
    got = {name: hashlib.sha256(p.read_bytes()).hexdigest() for name, p in outs.items()}
    assert got == GOLDEN_SYNTH


def test_synth_pgm_scaled(scene_json, tmp_path):
    out = tmp_path / "scene.pgm"
    code = main(["synth", "--scene", str(scene_json), "--seed", "1", "--out", str(out)])
    assert code == 0
    img = read_image(out)
    assert img.pixels.max() <= 65535


def test_synth_pgm_maxval_out_of_range_exits_1(scene_json, tmp_path, capsys):
    out = tmp_path / "scene.pgm"
    assert main(["synth", "--scene", str(scene_json), "--out", str(out),
                 "--pgm-maxval", "0"]) == 1
    assert capsys.readouterr().err == "percopick: error: maxval must be in 1..65535, got 0\n"
    assert not out.exists()


def test_synth_out_suffix_follows_io(scene_json, tmp_path, capsys):
    pgm, pnm = tmp_path / "scene.pgm", tmp_path / "scene.pnm"
    for out in (pgm, pnm):
        assert main(["synth", "--scene", str(scene_json), "--seed", "2", "--out", str(out)]) == 0
    assert pnm.read_bytes() == pgm.read_bytes()
    capsys.readouterr()
    txt, truth = tmp_path / "scene.txt", tmp_path / "truth.pgm"
    code = main(["synth", "--scene", str(scene_json), "--out", str(txt),
                 "--truth-out", str(truth)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "cannot infer image format" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scene.json", "scene.pgm", "scene.pnm"]


def test_csv_read_as_pgm_gives_a_short_diagnostic(scene_json, tmp_path, capsys):
    out = tmp_path / "scene.csv"
    assert main(["synth", "--scene", str(scene_json), "--out", str(out)]) == 0
    wrong = tmp_path / "scene.pgm"
    wrong.write_bytes(out.read_bytes())
    capsys.readouterr()
    assert main(["detect", "--in", str(wrong)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "unsupported magic" in err and len(err) < 200


def test_mc_detection_downsampling_a_particle_scene_exits_1(scene_json, capsys):
    code = main(["mc-detection", "--scene", str(scene_json), "--trials", "2", "--jobs", "2",
                 "--phi0", "16", "--phi1", "4"])  # the default --downsample 2
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "downsample_passes must be 0" in err


def test_mc_consistency_csv(scene_json, tmp_path):
    out = tmp_path / "table.csv"
    code = main(["mc-consistency", "--scene", str(scene_json),
                 "--phi0-grid", "8,16", "--trials", "5", "--seed", "0",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("phi0,trials,")
    assert len(lines) == 3


def test_mc_detection_stdout(scene_json, capsys):
    code = main(["mc-detection", "--scene", str(scene_json),
                 "--trials", "3", "--seed", "0",
                 "--phi0", "32", "--phi1", "8", "--downsample", "0", "--no-normalize"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("trials,n_particles,")
    assert lines[1].startswith("3,1,")


def test_percolation_phase_csv(tmp_path):
    out = tmp_path / "phase.csv"
    code = main(["percolation-phase", "--n", "64", "--p", "0.4,0.6",
                 "--trials", "3", "--seed", "0", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "p,trial,largest_cluster,largest_fraction,n_clusters"
    assert len(lines) == 7


# Each request below is above 2**48 bytes, more than an x86-64 process can map,
# so it fails at allocation under any overcommit setting and touches no memory.
@pytest.mark.parametrize("argv", [
    ["percolation-phase", "--n", "20000000", "--p", "0.5", "--trials", "1"],  # float64 field
    ["synth", "--scene", "{scene}", "--out", "{out}"],  # int32 truth of an n = 10**7 scene
], ids=["phase_field", "synth_truth"])
def test_unallocatable_frame_exits_1_with_one_line(argv, tmp_path, capsys):
    scene = tmp_path / "huge.json"
    scene.write_text(json.dumps({"n": 10_000_000, "a": 0.3, "b": 0.7, "phi0": 32, "phi1": 8,
                                 "shapes": [], "noise": {"kind": "uniform", "half_width": 0.1}}))
    argv = [a.format(scene=scene, out=tmp_path / "huge.pgm") for a in argv]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Unable to allocate" in err
    assert not (tmp_path / "huge.pgm").exists()


@pytest.mark.parametrize("command, jobs", [("mc-consistency", "-4"), ("mc-detection", "0")])
def test_jobs_below_one_exits_1(command, jobs, scene_json, capsys):
    extra = ["--phi0-grid", "8,16"] if command == "mc-consistency" else ["--downsample", "0"]
    assert main([command, "--scene", str(scene_json), "--trials", "2",
                 "--jobs", jobs, *extra]) == 1
    assert capsys.readouterr().err == f"percopick: error: jobs must be >= 1, got {jobs}\n"


def test_mc_detection_failures_read_the_same_for_any_jobs(tmp_path, capsys):
    # a flat scene with no particles: every trial's estimates are degenerate
    flat = tmp_path / "flat.json"
    flat.write_text(json.dumps({"n": 128, "a": 0.3, "b": 0.7, "phi0": 32, "phi1": 8,
                                "shapes": [], "noise": {"kind": "uniform", "half_width": 0}}))
    errs = []
    for jobs in ("1", "2", "3"):
        assert main(["mc-detection", "--scene", str(flat), "--trials", "3", "--jobs", jobs,
                     "--downsample", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        errs.append(captured.err)
    assert errs[0].startswith("percopick: error: ") and errs[1] == errs[0] == errs[2]
    # every trial fails the scan-window check, in the caller and in the child
    assert main(["mc-detection", "--scene", str(flat), "--trials", "4", "--jobs", "2",
                 "--downsample", "0", "--phi0", "256"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "smaller than the largest scan window" in err
    assert "Traceback" not in err
