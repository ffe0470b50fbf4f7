"""Particle detection in noisy 2D images.

Spatial scan estimators recover the unknown background and particle
intensities, the image is thresholded at their midpoint, and black clusters
of the resulting binary picture are extracted under triangular-lattice
adjacency. Small clusters are noise; large ones are reported as particles.
Includes a synthetic-scene Monte Carlo harness and a CLI.
"""

from .detect import (
    Decision,
    DegenerateEstimatesError,
    DetectionArtifacts,
    DetectionReport,
    DetectParams,
    MatchSummary,
    compute_threshold,
    match_clusters,
    match_detections,
    preprocess,
    report_to_dict,
    report_to_json,
    run_detection,
    run_detection_artifacts,
)
from .image import (
    Micrograph,
    WindowStats,
    build_integral,
    downsample2x,
    normalize_max1,
)
from .io import (
    ImageParseError,
    read_binary_image,
    read_image,
    write_binary_image,
    write_image,
)
from .percolation import (
    TRI_OFFSETS,
    BinaryImage,
    ClusterSequence,
    bernoulli_field,
    binarize,
    black_clusters,
    cluster_sizes,
    filter_clusters,
    label_black,
)
from .scan import (
    IntensityEstimates,
    estimate_intensities,
    estimate_lower,
    naive_mean,
    scan_max_window,
    scan_min_window,
)
from .synth import (
    BoundResult,
    ConsistencyTable,
    DetectionStats,
    NoiseModel,
    PhaseTable,
    SceneSpec,
    TruncatedGaussianNoise,
    UniformNoise,
    annulus_gap_mask,
    disc_mask,
    find_clear_square,
    generate_scene,
    l_shape_mask,
    load_scene,
    mask_contains_square,
    mc_consistency,
    mc_detection,
    percolation_phase,
    place_shape,
    scene_from_dict,
    shape_library,
    square_mask,
    window_selection_bound,
)

__version__ = "0.1.0"
