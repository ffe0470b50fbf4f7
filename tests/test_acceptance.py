"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line (visible with
pytest -s, or on failure). Every tolerance is fixed here, and the seeds are
frozen so reruns are deterministic.

Run with: pytest tests/test_acceptance.py -v -s
"""

import math
import time

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from percopick import (
    DetectParams,
    Micrograph,
    SceneSpec,
    UniformNoise,
    bernoulli_field,
    build_integral,
    cluster_sizes,
    estimate_lower,
    generate_scene,
    mc_detection,
    naive_mean,
    place_shape,
    window_selection_bound,
    report_to_json,
    run_detection_artifacts,
    scan_max_window,
    scan_min_window,
    shape_library,
    square_mask,
)
from percopick.image import window_sums

SEED = 113355


def check(criterion: str, ok: bool, detail: str):
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{criterion}: {detail}"


# ---------------------------------------------------------------------------
# Criterion 1: integral-image window sums and scan argmin/argmax vs brute force
# ---------------------------------------------------------------------------

def test_criterion_1_oracle_equivalence():
    start = time.time()
    rng_master = np.random.default_rng([SEED, 1])
    max_sum_err = 0.0
    images = 200
    for i in range(images):
        h = int(rng_master.integers(8, 33))
        w = int(rng_master.integers(8, 33))
        pixels = rng_master.random((h, w))
        if i % 2 == 1:
            # quantize to eighths: still in [0, 1], sums exact, forcing real ties
            pixels = np.floor(pixels * 9) / 8.0
        img = Micrograph(pixels)
        ii = build_integral(img)
        for side in range(1, min(h, w) + 1):
            brute = sliding_window_view(pixels, (side, side)).sum(axis=(2, 3))
            via_table = window_sums(ii, side)
            max_sum_err = max(max_sum_err, float(np.abs(via_table - brute).max()))
            # exhaustive argmin/argmax on the directly-summed grid,
            # first occurrence in row-major order = lexicographic tie-break
            lo = divmod(int(np.argmin(brute)), brute.shape[1])
            hi = divmod(int(np.argmax(brute)), brute.shape[1])
            wlo = scan_min_window(ii, side)
            whi = scan_max_window(ii, side)
            assert (wlo.row, wlo.col) == lo, f"argmin mismatch image {i} side {side}"
            assert (whi.row, whi.col) == hi, f"argmax mismatch image {i} side {side}"
    elapsed = time.time() - start
    ok = max_sum_err <= 1e-9 and elapsed < 10
    check(
        "criterion 1",
        ok,
        f"{images} images, max window-sum deviation {max_sum_err:.2e} (<= 1e-9), "
        f"all scan locations match exhaustive enumeration, {elapsed:.1f}s (< 10s)",
    )


# ---------------------------------------------------------------------------
# Criteria 2-4 share one scene family:
# N=256, a=0.3, b=0.7, uniform +/-0.2, guaranteed 64x64 noise square,
# three 80x80 particles covering 29.3% of pixels.
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def estimator_family():
    n = 256
    boxes = [(4, 104, 80), (90, 170, 80), (172, 104, 80)]
    masks = tuple(place_shape(n, square_mask(s), r, c) for r, c, s in boxes)
    spec = SceneSpec(
        n=n, a=0.3, b=0.7, particles=masks,
        noise_square=(0, 0), noise_square_side=64, min_particle_square=16,
    )
    noise = UniformNoise(0.2)
    start = time.time()
    errs_a = {16: [], 32: [], 64: []}
    errs_b = []
    errs_naive = []
    for trial in range(100):
        img, _ = generate_scene(spec, noise, [SEED, 20, trial])
        for phi0, a_hat in zip((16, 32, 64), estimate_lower(img, 16, 32, 64)):
            errs_a[phi0].append(abs(a_hat - spec.a))
        errs_b.append(abs(scan_max_window(build_integral(img), 16).mean - spec.b))
        errs_naive.append(abs(naive_mean(img) - spec.a))
    return {
        "median_a": {k: float(np.median(v)) for k, v in errs_a.items()},
        "median_b": float(np.median(errs_b)),
        "median_naive": float(np.median(errs_naive)),
        "elapsed": time.time() - start,
    }


def test_criterion_2_estimator_consistency(estimator_family):
    med_a = estimator_family["median_a"][64]
    med_b = estimator_family["median_b"]
    elapsed = estimator_family["elapsed"]
    ok = med_a < 0.02 and med_b < 0.05 and elapsed < 60
    check(
        "criterion 2",
        ok,
        f"median |a_hat - a| = {med_a:.4f} (< 0.02), "
        f"median |b_hat - b| = {med_b:.4f} (< 0.05), {elapsed:.1f}s (< 60s)",
    )


def test_criterion_3_rate_trend(estimator_family):
    med = estimator_family["median_a"]
    ratio = med[32] / med[64]
    elapsed = estimator_family["elapsed"]
    ok = med[16] > med[32] > med[64] and 1.5 <= ratio <= 3.0 and elapsed < 120
    check(
        "criterion 3",
        ok,
        f"median errors phi0=16/32/64: {med[16]:.4f} > {med[32]:.4f} > {med[64]:.4f}, "
        f"32->64 improvement ratio {ratio:.2f} in [1.5, 3]",
    )


def test_criterion_4_naive_mean_inconsistency(estimator_family):
    naive = estimator_family["median_naive"]
    scan = estimator_family["median_a"][64]
    ok = naive > 0.1 and scan < 0.02 and naive >= 5 * scan
    check(
        "criterion 4",
        ok,
        f"naive median error {naive:.4f} (> 0.1) vs scan {scan:.4f} (< 0.02), "
        f"separation {naive / scan:.1f}x (>= 5x)",
    )


# ---------------------------------------------------------------------------
# Criterion 5: percolation phase behavior around p_c = 1/2
# ---------------------------------------------------------------------------

def test_criterion_5_percolation_phase():
    start = time.time()
    n, sites, trials = 256, 256 * 256, 200
    giant = 0
    for t in range(trials):
        sizes = cluster_sizes(bernoulli_field(n, n, 0.6, [SEED, 5, 0, t]))
        if sizes.max() >= 0.10 * sites:
            giant += 1
    small = 0
    for t in range(trials):
        sizes = cluster_sizes(bernoulli_field(n, n, 0.4, [SEED, 5, 1, t]))
        if sizes.max() < 0.05 * sites:
            small += 1
    elapsed = time.time() - start
    ok = giant >= 0.99 * trials and small >= 0.99 * trials and elapsed < 60
    check(
        "criterion 5",
        ok,
        f"p=0.6 giant cluster (>=10% of sites) in {giant}/{trials}, "
        f"p=0.4 largest below 5% in {small}/{trials} (both >= 99%), "
        f"{elapsed:.1f}s (< 60s)",
    )


# ---------------------------------------------------------------------------
# Criterion 6: detection power with nonconvex particles
# ---------------------------------------------------------------------------

def test_criterion_6_detection_power():
    start = time.time()
    n = 256
    shapes = [
        ("l_shape", 24, 8, 80),
        ("l_shape", 24, 8, 150),
        ("l_shape", 24, 160, 60),
        ("annulus_gap", 24, 80, 8),
        ("annulus_gap", 24, 80, 120),
    ]
    masks = tuple(place_shape(n, shape_library(k, s), r, c) for k, s, r, c in shapes)
    spec = SceneSpec(
        n=n, a=0.4, b=0.6, particles=masks,
        noise_square=(0, 0), noise_square_side=64, min_particle_square=12,
    )
    params = DetectParams(
        phi0=64, phi1=12, min_cluster_pixels=30, downsample_passes=0, normalize=False
    )
    stats = mc_detection(spec, UniformNoise(0.25), params, trials=100, seed=[SEED, 6])
    elapsed = time.time() - start
    ok = stats.all_detected_fraction >= 0.95 and elapsed < 120
    check(
        "criterion 6",
        ok,
        f"all 5 nonconvex particles detected in {stats.all_detected_fraction:.0%} "
        f"of 100 trials (>= 95%), {elapsed:.1f}s (< 120s)",
    )


# ---------------------------------------------------------------------------
# Criterion 7: false-alarm behavior on pure noise at black fraction 0.25
# ---------------------------------------------------------------------------

def test_criterion_7_false_alarm_decay():
    """Pure-noise fields thresholded to a black fraction of exactly 0.25,
    absolute 30-pixel cluster cutoff, 200 trials per size: requires a
    false-alarm rate of at most 1% at every size, non-increasing in size."""
    start = time.time()
    rates = {}
    for n in (128, 256, 512):
        spec = SceneSpec(
            n=n, a=0.3, b=1.0, particles=(),
            noise_square=(0, 0), noise_square_side=64, min_particle_square=2,
        )
        params = DetectParams(
            phi0=64, phi1=9, min_cluster_pixels=30, downsample_passes=0, normalize=False
        )
        # theta = a + half_width/2 puts the black fraction at exactly 0.25
        stats = mc_detection(
            spec, UniformNoise(0.2), params, trials=200, seed=[SEED, 7, n], theta=0.4
        )
        rates[n] = stats.any_false_fraction
    elapsed = time.time() - start
    ordered = [rates[n] for n in (128, 256, 512)]
    ok = (
        all(r <= 0.01 for r in ordered)
        and all(b <= a for a, b in zip(ordered, ordered[1:]))
        and elapsed < 180
    )
    check(
        "criterion 7",
        ok,
        f"false-alarm fraction by size: "
        f"{', '.join(f'N={n}: {rates[n]:.1%}' for n in (128, 256, 512))} "
        f"(each must be <= 1% and non-increasing), {elapsed:.1f}s (< 180s)",
    )


# ---------------------------------------------------------------------------
# Criterion 8: the window-selection bound evaluator
# ---------------------------------------------------------------------------

def test_criterion_8_bound_evaluator():
    target = math.exp(-18.75)
    got = window_selection_bound([100], [100], b_minus_a=1.0, sigma=1.0, bound_m=1.0).raw_sum
    rel_err = abs(got - target) / target
    sigmas = [0.5, 1.0, 1.5, 2.0, 2.5]
    excesses = [50, 100, 150, 200, 250]
    grid = np.array(
        [
            [window_selection_bound([100], [e], 1.0, s, 1.0).raw_sum for e in excesses]
            for s in sigmas
        ]
    )
    monotone_sigma = bool(np.all(np.diff(grid, axis=0) >= 0))
    monotone_excess = bool(np.all(np.diff(grid, axis=1) >= 0))
    ok = rel_err <= 1e-12 and monotone_sigma and monotone_excess
    check(
        "criterion 8",
        ok,
        f"exp(-18.75) reproduced with relative error {rel_err:.1e} (<= 1e-12), "
        f"monotone in sigma: {monotone_sigma}, monotone in excess: {monotone_excess} "
        f"on a 5x5 grid",
    )


# ---------------------------------------------------------------------------
# Criterion 9: pipeline invariants
# ---------------------------------------------------------------------------

def test_criterion_9_pipeline_invariants():
    n = 128
    masks = (place_shape(n, square_mask(30), 20, 70),)
    spec = SceneSpec(
        n=n, a=0.3, b=0.6, particles=masks,
        noise_square=(0, 0), noise_square_side=32, min_particle_square=8,
    )
    img, _ = generate_scene(spec, UniformNoise(0.2), [SEED, 9])
    params = DetectParams(
        phi0=32, phi1=8, min_cluster_pixels=30, downsample_passes=0, normalize=False
    )
    base = run_detection_artifacts(img, params)
    shifted = run_detection_artifacts(Micrograph(img.pixels + 0.17), params)

    binary_same = bool(np.array_equal(base.binary.bits, shifted.binary.bits))
    kept0, kept1 = base.report.clusters_kept, shifted.report.clusters_kept
    clusters_same = len(kept0) == len(kept1) and np.array_equal(kept0.labels, kept1.labels)
    decision_same = base.report.decision == shifted.report.decision

    est = base.report.estimates
    midpoint_exact = base.report.theta == (est.a_hat + est.b_hat) / 2.0

    docs = {report_to_json(run_detection_artifacts(img, params).report) for _ in range(3)}
    deterministic = len(docs) == 1

    ok = binary_same and clusters_same and decision_same and midpoint_exact and deterministic
    check(
        "criterion 9",
        ok,
        f"shift(+0.17) equivariance: binary={binary_same}, clusters={clusters_same}, "
        f"decision={decision_same}; theta midpoint identity: {midpoint_exact}; "
        f"byte-identical reports: {deterministic}",
    )
