"""Golden-bytes regression: detect outputs and Monte Carlo CSVs are pinned.

The expected hashes and the detection CSV were recorded before the cluster
extraction was rewritten to label once and build only the kept clusters, the
consistency CSV before the scans of one image shared one integral table. Any
change to the report, the binary or filtered PGMs, or the Monte Carlo
statistics fails here, at image sizes well beyond the small oracle images of
the unit tests.
"""

import hashlib
import pickle

import pytest

from percopick import (
    DetectParams,
    Micrograph,
    SceneSpec,
    UniformNoise,
    compute_threshold,
    disc_mask,
    generate_scene,
    estimate_intensities,
    mc_consistency,
    mc_detection,
    place_shape,
    preprocess,
    read_image,
    report_to_json,
    run_detection,
    shape_library,
    square_mask,
    write_image,
)
from percopick.detect import fmt6
from percopick.cli import main

# sha256 of the three files `percopick detect` writes for the scene below
GOLDEN_DETECT = {
    "report.json": "77ebcd0b5a200e577693b2ac1bf1b4ddecd8bb7b770032aea144d9a2dedfa1d5",
    "binary.pgm": "b9dbe0097c2e7af7baa66c296f7e900dbd0f9193eab351bc98928ee2d9c8063b",
    "kept.pgm": "e0babd99d772b972bac6d253fc39722452b60327caa64bd3e3cfc6d564cbb28e",
}

GOLDEN_MC_CSV = (
    "trials,n_particles,all_detected_fraction,any_false_fraction,mean_false_clusters\n"
    "4,5,1,1,6\n"
)


GOLDEN_CONSISTENCY_CSV = (
    "phi0,trials,median_abs_err,q25_abs_err,q75_abs_err,naive_median_abs_err\n"
    "16,4,0.0238782,0.0233306,0.0260191,0.117254\n"
    "32,4,0.00991754,0.00957061,0.010587,0.117254\n"
    "64,4,0.00361883,0.00317042,0.00402098,0.117254\n"
)


def _disc_scene(n=1200):
    """A two-level scene of 30 discs at n = 1200, a = 0.3, b = 0.45.

    Discs of radius 40 sit at the centres of alternate 150-pixel tiles; the
    top-left 300x300 block stays particle-free, so after the two default
    downsampling passes it holds the 65-pixel background window.
    """
    disc = disc_mask(40)
    centres = [(i * 150 + 75, j * 150 + 75)
               for i in range(n // 150) for j in range(n // 150)
               if (i + j) % 2 == 0 and not (i < 2 and j < 2)]
    masks = tuple(place_shape(n, disc, r - 40, c - 40) for r, c in centres)
    return SceneSpec(n=n, a=0.3, b=0.45, particles=masks, noise_square=(0, 0),
                     noise_square_side=300, min_particle_square=36)


def _disc_scene_pgm(path, seed=2024):
    """The disc scene, seeded, written as a 16-bit P5."""
    spec, half_width = _disc_scene(), 0.4
    a, b = spec.a, spec.b
    img, _ = generate_scene(spec, UniformNoise(half_width), seed)
    scaled = (img.pixels - (a - half_width)) * (65535.0 / (b - a + 2 * half_width))
    write_image(Micrograph(scaled), path, format="pgm", maxval=65535)


def test_detect_outputs_match_golden_hashes(tmp_path, capsys):
    inp = tmp_path / "scene.pgm"
    _disc_scene_pgm(inp)
    outs = {name: tmp_path / name for name in GOLDEN_DETECT}
    code = main(["detect", "--in", str(inp), "--out", str(outs["report.json"]),
                 "--binary-out", str(outs["binary.pgm"]),
                 "--filtered-out", str(outs["kept.pgm"])])
    assert code == 0
    assert capsys.readouterr().out.startswith("decision ParticlesFound ")
    got = {name: hashlib.sha256(p.read_bytes()).hexdigest() for name, p in outs.items()}
    assert got == GOLDEN_DETECT


@pytest.fixture(scope="module")
def disc_scene_pgm(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "scene.pgm"
    _disc_scene_pgm(path)
    return path


@pytest.mark.parametrize("passes", [0, 1, 2])
def test_estimate_matches_the_library_path(disc_scene_pgm, capsys, passes):
    # the library path reads at full size; the CLI downsamples while reading
    assert main(["estimate", "--in", str(disc_scene_pgm), "--downsample", str(passes)]) == 0
    params = DetectParams(downsample_passes=passes)
    est = estimate_intensities(preprocess(read_image(disc_scene_pgm), params),
                               params.phi0, params.phi1)
    theta = compute_threshold(est.a_hat, est.b_hat)
    assert capsys.readouterr().out.splitlines() == [
        f"a_hat {fmt6(est.a_hat)}", f"b_hat {fmt6(est.b_hat)}", f"theta {fmt6(theta)}"]


def test_detect_report_matches_the_library_path(disc_scene_pgm, tmp_path):
    out = tmp_path / "report.json"
    assert main(["detect", "--in", str(disc_scene_pgm), "--out", str(out)]) == 0
    report = run_detection(read_image(disc_scene_pgm), DetectParams())
    assert out.read_text() == report_to_json(report)


def test_disc_scene_carries_one_label_image():
    # one int32 label image, not 30 full-frame masks (43 MB pickled)
    spec = _disc_scene()
    assert spec.truth.max() == 30
    assert len(pickle.dumps(spec)) <= 4 * spec.n * spec.n + 65536


def _criterion6_scene(n=256):
    shapes = [("l_shape", 24, 8, 80), ("l_shape", 24, 8, 150), ("l_shape", 24, 160, 60),
              ("annulus_gap", 24, 80, 8), ("annulus_gap", 24, 80, 120)]
    masks = tuple(place_shape(n, shape_library(k, s), r, c) for k, s, r, c in shapes)
    return SceneSpec(n=n, a=0.4, b=0.6, particles=masks, noise_square=(0, 0),
                     noise_square_side=64, min_particle_square=12)


@pytest.mark.parametrize("jobs", [1, 2])
def test_mc_detection_csv_matches_golden(jobs):
    params = DetectParams(phi0=64, phi1=12, min_cluster_pixels=30,
                          downsample_passes=0, normalize=False)
    stats = mc_detection(_criterion6_scene(), UniformNoise(0.25), params,
                         trials=4, seed=[31, 6], jobs=jobs)
    assert stats.to_csv() == GOLDEN_MC_CSV


@pytest.mark.parametrize("jobs", [1, 2])
def test_mc_consistency_csv_matches_golden(jobs):
    # the criteria 2-4 scene of the acceptance suite
    n = 256
    boxes = [(4, 104), (90, 170), (172, 104)]
    masks = tuple(place_shape(n, square_mask(80), r, c) for r, c in boxes)
    spec = SceneSpec(n=n, a=0.3, b=0.7, particles=masks, noise_square=(0, 0),
                     noise_square_side=64, min_particle_square=16)
    table = mc_consistency(spec, UniformNoise(0.2), [16, 32, 64], trials=4,
                           seed=[41, 5], jobs=jobs)
    assert table.to_csv() == GOLDEN_CONSISTENCY_CSV
