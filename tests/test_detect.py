"""Pipeline behavior: thresholding, reports, ground-truth matching, invariants."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from percopick import (
    BinaryImage,
    Decision,
    DegenerateEstimatesError,
    DetectParams,
    MatchSummary,
    Micrograph,
    black_clusters,
    compute_threshold,
    downsample2x,
    filter_clusters,
    match_clusters,
    match_detections,
    preprocess,
    report_to_dict,
    report_to_json,
    run_detection,
    run_detection_artifacts,
)
from percopick import detect as detect_module

REPORT_INT = st.integers(0, 2**40)
FINITE = st.floats(allow_nan=False, allow_infinity=False)


def two_level_image(n=128, a=0.0, b=1.0, box=(40, 60, 20, 20)):
    """One rectangular particle on a flat background, no noise."""
    pixels = np.full((n, n), a)
    r, c, h, w = box
    pixels[r : r + h, c : c + w] = b
    return Micrograph(pixels)


def reference_match(clusters, truth):
    """Per-pixel reference matcher: (detected, false_clusters) from every
    pixel of every cluster, read from the sequence's label image, looked up
    in the truth label image."""
    detected = [False] * int(truth.max(initial=0))
    false_clusters = 0
    for i in range(len(clusters)):
        hit = False
        for r, col in np.argwhere(clusters.labels == i + 1).tolist():
            if truth[r][col]:
                detected[truth[r][col] - 1] = hit = True
        false_clusters += not hit
    return tuple(detected), false_clusters


def label_image(*masks):
    """Truth label image of disjoint masks: i + 1 on mask i, 0 elsewhere."""
    return sum((i + 1) * np.asarray(m, dtype=np.int32) for i, m in enumerate(masks))


class TestComputeThreshold:
    def test_reference_values(self):
        assert compute_threshold(0.319, 0.453) == pytest.approx(0.386)

    def test_simple_midpoint(self):
        assert compute_threshold(0.0, 1.0) == 0.5

    def test_equal_estimates_degenerate(self):
        with pytest.raises(DegenerateEstimatesError):
            compute_threshold(0.4, 0.4)

    def test_inverted_estimates_degenerate(self):
        with pytest.raises(DegenerateEstimatesError):
            compute_threshold(0.7, 0.3)


class TestDetectParams:
    def test_reference_defaults(self):
        p = DetectParams()
        assert (p.phi0, p.phi1, p.min_cluster_pixels) == (65, 9, 30)
        assert p.downsample_passes == 2
        assert p.normalize is True

    @pytest.mark.parametrize(
        "kwargs",
        [dict(phi0=0), dict(phi1=0), dict(min_cluster_pixels=0), dict(downsample_passes=-1)],
    )
    def test_invalid_params(self, kwargs):
        with pytest.raises(ValueError):
            DetectParams(**kwargs)


class TestRunDetection:
    PARAMS = DetectParams(
        phi0=32, phi1=8, min_cluster_pixels=30, downsample_passes=0, normalize=False
    )

    def test_noiseless_single_particle(self):
        img = two_level_image()
        report = run_detection(img, self.PARAMS)
        assert report.decision is Decision.PARTICLES_FOUND
        assert len(report.clusters_kept) == 1
        assert report.clusters_kept[0].pixel_count == 400
        assert report.estimates.a_hat == 0.0
        assert report.estimates.b_hat == 1.0
        assert report.theta == 0.5
        assert report_to_dict(report)["dims"] == [128, 128]

    def test_report_theta_is_exact_midpoint(self):
        rng = np.random.default_rng(15)
        pixels = np.full((128, 128), 0.3) + rng.uniform(-0.1, 0.1, (128, 128))
        pixels[50:90, 50:90] += 0.4
        report = run_detection(Micrograph(pixels), self.PARAMS)
        est = report.estimates
        assert report.theta == (est.a_hat + est.b_hat) / 2.0

    def test_flat_image_aborts_as_degenerate(self):
        img = Micrograph(np.full((64, 64), 0.5))
        with pytest.raises(DegenerateEstimatesError):
            run_detection(img, self.PARAMS)

    def test_image_too_small_after_downsampling(self):
        img = two_level_image(n=64)
        params = DetectParams(phi0=32, phi1=8, downsample_passes=2, normalize=False)
        with pytest.raises(ValueError, match="smaller than"):
            run_detection(img, params)

    def test_downsample_and_normalize_applied(self):
        img = two_level_image(n=256, a=0.0, b=4.0, box=(80, 120, 40, 40))
        params = DetectParams(
            phi0=32, phi1=8, min_cluster_pixels=30, downsample_passes=1, normalize=True
        )
        report = run_detection(img, params)
        assert report_to_dict(report)["dims"] == [128, 128]
        assert report.estimates.b_hat == 1.0  # normalized peak
        assert report.decision is Decision.PARTICLES_FOUND
        assert report.clusters_kept[0].pixel_count == 400  # 40x40 halved to 20x20

    def test_passes_done_skip_the_first_passes(self):
        img = two_level_image(n=256, a=0.0, b=4.0, box=(80, 120, 40, 40))
        params = DetectParams(phi0=32, phi1=8, downsample_passes=2, normalize=False)
        halved = downsample2x(img)
        report = run_detection(img, params)
        done = run_detection_artifacts(halved, params, passes_done=1).report
        assert report_to_json(done) == report_to_json(report)
        assert done.params.downsample_passes == 2  # the report keeps the caller's count

    @pytest.mark.parametrize("passes_done", [-1, 3])
    def test_passes_done_outside_the_passes_rejected(self, passes_done):
        params = DetectParams(phi0=8, phi1=4, downsample_passes=2, normalize=False)
        with pytest.raises(ValueError, match=r"^passes_done must be in 0\.\.2, got "):
            preprocess(two_level_image(n=64), params, passes_done=passes_done)

    def test_min_cluster_monotonicity(self):
        rng = np.random.default_rng(21)
        pixels = np.full((128, 128), 0.3) + rng.uniform(-0.2, 0.2, (128, 128))
        pixels[20:60, 70:110] += 0.3
        img = Micrograph(pixels)
        kept_counts = []
        for min_pixels in (1, 10, 30, 100, 1000):
            params = DetectParams(
                phi0=32, phi1=8, min_cluster_pixels=min_pixels,
                downsample_passes=0, normalize=False,
            )
            kept_counts.append(len(run_detection(img, params).clusters_kept))
        assert kept_counts == sorted(kept_counts, reverse=True)

    def test_decision_matches_kept_clusters(self):
        rng = np.random.default_rng(27)
        pixels = np.full((128, 128), 0.3) + rng.uniform(-0.2, 0.2, (128, 128))
        pixels[40:80, 40:80] += 0.3
        img = Micrograph(pixels)
        found = run_detection(img, self.PARAMS)
        assert found.clusters_kept and found.decision is Decision.PARTICLES_FOUND
        # an unreachable cluster filter forces the no-particles branch
        none = run_detection(
            img,
            DetectParams(phi0=32, phi1=8, min_cluster_pixels=10**6,
                         downsample_passes=0, normalize=False),
        )
        assert not none.clusters_kept and none.decision is Decision.NO_PARTICLES

    def test_shift_equivariance(self):
        rng = np.random.default_rng(33)
        pixels = np.full((128, 128), 0.3) + rng.uniform(-0.2, 0.2, (128, 128))
        pixels[20:60, 70:110] += 0.3
        base = run_detection_artifacts(Micrograph(pixels), self.PARAMS)
        shifted = run_detection_artifacts(Micrograph(pixels + 0.17), self.PARAMS)
        assert np.array_equal(base.binary.bits, shifted.binary.bits)
        assert base.report.decision == shifted.report.decision
        assert len(base.report.clusters_kept) == len(shifted.report.clusters_kept)
        assert np.array_equal(base.report.clusters_kept.labels, shifted.report.clusters_kept.labels)
        assert shifted.report.estimates.a_hat == pytest.approx(
            base.report.estimates.a_hat + 0.17, abs=1e-12
        )

    def test_artifacts_kept_binary_matches_clusters(self):
        img = two_level_image()
        art = run_detection_artifacts(img, self.PARAMS)
        painted = int(art.kept_binary.bits.sum())
        assert painted == sum(c.pixel_count for c in art.report.clusters_kept)

    def test_artifacts_build_kept_binary_on_first_read(self):
        art = run_detection_artifacts(two_level_image(), self.PARAMS)
        assert not art.kept_binary.bits.flags.writeable
        assert np.array_equal(art.kept_binary.bits, art.kept_binary.bits)


class TestMatchDetections:
    PARAMS = TestRunDetection.PARAMS

    def _mask(self, n, r, c, h, w):
        m = np.zeros((n, n), dtype=bool)
        m[r : r + h, c : c + w] = True
        return m

    def test_single_particle_detected(self):
        img = two_level_image()
        report = run_detection(img, self.PARAMS)
        summary = match_detections(report, label_image(self._mask(128, 40, 60, 20, 20)))
        assert summary.detected == (True,)
        assert summary.false_clusters == 0
        assert summary.all_detected

    def test_merged_cluster_covers_both_particles(self):
        # two adjacent boxes merge into one cluster spanning both masks
        pixels = np.zeros((128, 128))
        pixels[40:60, 30:50] = 1.0
        pixels[40:60, 50:70] = 1.0
        report = run_detection(Micrograph(pixels), self.PARAMS)
        assert len(report.clusters_kept) == 1
        summary = match_detections(
            report,
            label_image(self._mask(128, 40, 30, 20, 20), self._mask(128, 40, 50, 20, 20)),
        )
        assert summary.detected == (True, True)
        assert summary.false_clusters == 0

    def test_undetected_particle_flagged(self):
        img = two_level_image()
        report = run_detection(img, self.PARAMS)
        far_mask = self._mask(128, 0, 0, 10, 10)
        summary = match_detections(report, label_image(far_mask))
        assert summary.detected == (False,)
        assert summary.false_clusters == 1  # the real cluster hits no mask

    def test_dimension_mismatch_rejected(self):
        img = two_level_image()
        report = run_detection(img, self.PARAMS)
        with pytest.raises(ValueError, match="shape"):
            match_detections(report, np.zeros((64, 64), dtype=np.int32))

    def test_list_of_masks_rejected(self):
        # one label image carries the truth; a stack of masks, which could
        # overlap, is not a truth image
        report = run_detection(two_level_image(), self.PARAMS)
        mask = self._mask(128, 40, 60, 20, 20)
        with pytest.raises(ValueError, match="shape"):
            match_detections(report, [mask, mask])


class TestMatchClustersProperty:
    @staticmethod
    def _check(bits, truth, min_pixels):
        kept = filter_clusters(black_clusters(BinaryImage(bits)), min_pixels)
        summary = match_clusters(kept, truth)
        assert (summary.detected, summary.false_clusters) == reference_match(kept, truth)
        return summary

    def test_cluster_spanning_two_masks(self):
        bits = np.zeros((6, 10), dtype=bool)
        bits[2, 1:9] = True
        left, right = np.zeros((2, 6, 10), dtype=bool)
        left[2, 0:3] = right[1:4, 6:8] = True
        summary = self._check(bits, label_image(left, right), 8)
        assert summary == MatchSummary(detected=(True, True), false_clusters=0)

    def test_scene_without_masks(self):
        bits = np.random.default_rng(8).random((20, 20)) < 0.5
        summary = self._check(bits, np.zeros((20, 20), dtype=np.int32), 1)
        assert summary.detected == () and summary.false_clusters > 0

    def test_cluster_of_exactly_min_pixels(self):
        bits = np.zeros((5, 5), dtype=bool)
        bits[1, 1:4] = True  # 3 pixels
        bits[4, 0:2] = True  # 2 pixels, dropped
        mask = np.zeros((5, 5), dtype=bool)
        mask[4, 0] = True
        summary = self._check(bits, label_image(mask), 3)
        assert summary == MatchSummary(detected=(False,), false_clusters=1)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(n=st.integers(1, 48), p=st.floats(0.3, 0.7), min_pixels=st.integers(1, 40),
           n_masks=st.integers(0, 4), seed=st.integers(0, 2**32 - 1))
    @example(n=1, p=0.5, min_pixels=1, n_masks=0, seed=0)
    def test_matches_per_pixel_reference(self, n, p, min_pixels, n_masks, seed):
        rng = np.random.default_rng(seed)
        bits = rng.random((n, n)) < p
        # disjoint random rectangles, as scenes place them
        owner = np.zeros((n, n), dtype=np.int32)
        for i in range(n_masks):
            r0, c0 = rng.integers(0, n, 2)
            r1, c1 = r0 + rng.integers(1, n + 1), c0 + rng.integers(1, n + 1)
            owner[r0:r1, c0:c1] = i + 1
        self._check(bits, owner, min_pixels)


class TestReportJson:
    PARAMS = TestRunDetection.PARAMS

    def test_schema_and_stable_fields(self):
        import json

        report = run_detection(two_level_image(), self.PARAMS)
        doc = json.loads(report_to_json(report))
        assert list(doc) == [
            "a_hat", "b_hat", "theta", "clusters", "clusters_total",
            "decision", "params", "dims",
        ]
        assert doc["decision"] == "ParticlesFound"
        assert doc["dims"] == [128, 128]
        assert doc["clusters"][0]["pixel_count"] == 400
        assert doc["clusters"][0]["bbox"] == [40, 60, 59, 79]
        assert doc["params"]["phi0"] == 32

    def test_byte_determinism(self):
        rng = np.random.default_rng(44)
        pixels = np.full((128, 128), 0.3) + rng.uniform(-0.2, 0.2, (128, 128))
        pixels[30:70, 30:70] += 0.3
        img = Micrograph(pixels)
        docs = {report_to_json(run_detection(img, self.PARAMS)) for _ in range(3)}
        assert len(docs) == 1

    def test_six_significant_digits(self):
        import json

        report = run_detection(two_level_image(a=1 / 3, b=2 / 3), self.PARAMS)
        doc = json.loads(report_to_json(report))
        assert doc["a_hat"] == 0.333333
        assert doc["b_hat"] == 0.666667

    @pytest.mark.parametrize("min_cluster", [1, 30, 10**6], ids=["all", "default", "none_kept"])
    def test_layout_is_json_dumps_of_the_dict(self, min_cluster):
        import json

        rng = np.random.default_rng(45)
        pixels = np.full((128, 128), 0.3) + rng.uniform(-0.2, 0.2, (128, 128))
        pixels[30:70, 30:70] += 0.3
        params = dataclasses.replace(self.PARAMS, min_cluster_pixels=min_cluster)
        report = run_detection(Micrograph(pixels), params)
        assert (len(report.clusters_kept) == 0) == (min_cluster == 10**6)
        assert report_to_json(report) == json.dumps(report_to_dict(report), indent=2) + "\n"

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(doc=st.builds(
        lambda a_hat, b_hat, theta, clusters, total, decision, params, dims: {
            "a_hat": a_hat, "b_hat": b_hat, "theta": theta, "clusters": clusters,
            "clusters_total": total, "decision": decision, "params": params, "dims": dims},
        FINITE, FINITE, FINITE,
        st.integers(0, 300).flatmap(lambda k: st.lists(  # a plain list would stay short
            st.builds(lambda cid, size, bbox: {"id": cid, "pixel_count": size, "bbox": bbox},
                      REPORT_INT, REPORT_INT, st.lists(REPORT_INT, min_size=4, max_size=4)),
            min_size=k, max_size=k)),
        REPORT_INT, st.sampled_from([d.value for d in Decision]),
        st.builds(lambda phi0, phi1, size, passes, normalize: dict(
            phi0=phi0, phi1=phi1, min_cluster_pixels=size, downsample_passes=passes,
            normalize=normalize), REPORT_INT, REPORT_INT, REPORT_INT, REPORT_INT, st.booleans()),
        st.lists(REPORT_INT, min_size=2, max_size=2)))
    def test_layout_matches_json_dumps(self, doc):
        # json.dumps(indent=2) + "\n" is the oracle
        import json

        assert detect_module._report_json(doc) == json.dumps(doc, indent=2) + "\n"
