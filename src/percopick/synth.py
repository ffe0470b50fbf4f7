"""Synthetic two-level scenes, bounded noise models, and Monte Carlo harnesses.

Scenes follow the additive model: every pixel is the background intensity a,
or the particle intensity b > a on a particle mask, plus i.i.d. mean-zero
noise bounded by M. Scene construction enforces the model premises up front:
particle masks, any iterable read once, mask by mask, into one truth label
image, are pairwise disjoint, each contains a full phi1 x phi1 square, and
a phi0 x phi0 square is left noise-only (given, or placed at the first clear
corner when noise_square is None).

Monte Carlo trials derive per-trial seeds from (seed, trial_index), so
results do not depend on scheduling and may be computed in parallel: with
jobs > 1 the trials are cut into contiguous ranges of ceil(trials / workers),
workers = min(jobs, trials); the caller runs the first range and one child
process runs each other range, and every child ends before the call returns.
"""

from __future__ import annotations

import abc
import json
import math
import pickle
import signal
from collections.abc import Iterable
from dataclasses import InitVar, dataclass, field
from functools import partial
from multiprocessing import Pipe, Process

import numpy as np
from scipy import ndimage

from .detect import (
    DetectParams,
    fmt6,
    match_clusters,
    match_detections,
    preprocess,
    run_detection_artifacts,
)
from .image import Micrograph, _adopt
from .percolation import binarize, black_clusters, bernoulli_field, cluster_sizes, filter_clusters
from .scan import estimate_lower, naive_mean


# ---------------------------------------------------------------------------
# Noise models
# ---------------------------------------------------------------------------

class NoiseModel(abc.ABC):
    """Mean-zero i.i.d. noise, symmetric about 0 and bounded almost surely.

    A subclass implements a seeded vectorized `sample` that returns a fresh
    float64 array, which generate_scene adds the scene's levels into.
    """

    @abc.abstractmethod
    def sample(self, rng: np.random.Generator, shape) -> np.ndarray:
        ...


@dataclass(frozen=True)
class UniformNoise(NoiseModel):
    """Uniform noise on [-half_width, half_width]."""

    half_width: float

    def __post_init__(self):
        if not (self.half_width >= 0 and math.isfinite(self.half_width)):
            raise ValueError(f"half_width must be finite and >= 0, got {self.half_width}")

    def sample(self, rng, shape):
        return rng.uniform(-self.half_width, self.half_width, size=shape)


@dataclass(frozen=True)
class TruncatedGaussianNoise(NoiseModel):
    """Normal(0, sigma_raw^2) conditioned on |eps| <= bound, by rejection.

    For bound = sigma_raw the acceptance rate is about 68%, so the loop below
    rarely needs more than two rounds.
    """

    sigma_raw: float
    bound: float

    def __post_init__(self):
        if not (self.sigma_raw > 0 and math.isfinite(self.sigma_raw)):
            raise ValueError(f"sigma_raw must be finite and > 0, got {self.sigma_raw}")
        if not (self.bound > 0 and math.isfinite(self.bound)):
            raise ValueError(f"bound must be finite and > 0, got {self.bound}")

    def sample(self, rng, shape):
        n = int(np.prod(shape))
        out = np.empty(n, dtype=np.float64)
        filled = 0
        while filled < n:
            need = n - filled
            draws = rng.normal(0.0, self.sigma_raw, size=int(need * 1.6) + 16)
            keep = draws[np.abs(draws) <= self.bound]
            take = min(keep.size, need)
            out[filled : filled + take] = keep[:take]
            filled += take
        return out.reshape(shape)


# ---------------------------------------------------------------------------
# Particle shapes
# ---------------------------------------------------------------------------

def square_mask(side: int) -> np.ndarray:
    if side < 1:
        raise ValueError(f"square side must be >= 1, got {side}")
    return np.ones((side, side), dtype=bool)


def disc_mask(radius: int) -> np.ndarray:
    """Filled disc: lattice points within Euclidean distance radius of the center."""
    if radius < 1:
        raise ValueError(f"disc radius must be >= 1, got {radius}")
    rr, cc = np.ogrid[-radius : radius + 1, -radius : radius + 1]
    return rr * rr + cc * cc <= radius * radius


def l_shape_mask(arm: int, thickness: int) -> np.ndarray:
    """Nonconvex L: a vertical stroke plus a horizontal stroke along the bottom,
    both `thickness` wide, inside an arm x arm bounding box."""
    if thickness < 1 or arm <= thickness:
        raise ValueError(f"need arm > thickness >= 1, got arm={arm}, thickness={thickness}")
    m = np.zeros((arm, arm), dtype=bool)
    m[:, :thickness] = True
    m[arm - thickness :, :] = True
    return m


def annulus_gap_mask(outer_radius: int, inner_radius: int, gap_half_width: int) -> np.ndarray:
    """Nonconvex C: a ring with a radial channel removed below the center."""
    if inner_radius < 1 or outer_radius <= inner_radius:
        raise ValueError(
            f"need outer_radius > inner_radius >= 1, got {outer_radius}, {inner_radius}"
        )
    if gap_half_width < 1:
        raise ValueError(f"gap_half_width must be >= 1, got {gap_half_width}")
    rr, cc = np.ogrid[-outer_radius : outer_radius + 1, -outer_radius : outer_radius + 1]
    d2 = rr * rr + cc * cc
    ring = (d2 <= outer_radius * outer_radius) & (d2 > inner_radius * inner_radius)
    ring[outer_radius + 1 :, outer_radius - gap_half_width : outer_radius + gap_half_width + 1] = False
    return ring


def shape_library(kind: str, size: int) -> np.ndarray:
    """Deterministic mask by family name, with derived secondary dimensions.

    square: side = size; disc: radius = size; l_shape: arm = size,
    thickness = size // 2; annulus_gap: outer = size, inner = size // 3,
    gap half-width = size // 6.
    """
    if kind == "square":
        return square_mask(size)
    if kind == "disc":
        return disc_mask(size)
    if kind == "l_shape":
        return l_shape_mask(size, max(1, size // 2))
    if kind == "annulus_gap":
        return annulus_gap_mask(size, max(1, size // 3), max(1, size // 6))
    raise ValueError(f"unknown shape kind {kind!r}")


def place_shape(n: int, shape: np.ndarray, row: int, col: int) -> np.ndarray:
    """Full-frame n x n mask with the shape's bounding grid placed at (row, col)."""
    shape = np.asarray(shape, dtype=bool)
    h, w = shape.shape
    if row < 0 or col < 0 or row + h > n or col + w > n:
        raise ValueError(
            f"shape of {h}x{w} at (row={row}, col={col}) does not fit an {n}x{n} frame"
        )
    frame = np.zeros((n, n), dtype=bool)
    frame[row : row + h, col : col + w] = shape
    return frame


def _square_corners(mask: np.ndarray, side: int) -> np.ndarray:
    """True at each top-left corner whose side x side window lies inside the mask, for
    1 <= side <= both mask sides: a sliding minimum, cropped to the windows that fit."""
    h, w = np.shape(mask)
    inside = ndimage.minimum_filter(np.asarray(mask, dtype=bool), side, origin=-(side // 2))
    return inside[: h - side + 1, : w - side + 1]


def mask_contains_square(mask: np.ndarray, side: int) -> bool:
    """True if some side x side window lies entirely inside the mask."""
    return 1 <= side <= min(np.shape(mask)) and bool(_square_corners(mask, side).any())


# ---------------------------------------------------------------------------
# Scenes
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SceneSpec:
    """Ground truth for a synthetic scene.

    particles, any iterable of full-frame boolean masks, is read once, one
    mask at a time, into truth, a read-only int32 label image: i + 1 on
    particle i, 0 off the particles. The masks must be pairwise disjoint, and
    each must contain a full min_particle_square square of its own pixels
    (the premise behind the particle-intensity scan window). noise_square is
    the top-left corner of the guaranteed noise-only square of side
    noise_square_side, a hard model premise: a given corner is validated, and
    None places the square at the first clear row-major corner of truth.
    """

    n: int
    a: float
    b: float
    particles: InitVar[Iterable[np.ndarray]]
    noise_square: tuple[int, int] | None
    noise_square_side: int
    min_particle_square: int
    truth: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, particles):
        if self.n < 1:
            raise ValueError(f"scene side must be >= 1, got {self.n}")
        if not (math.isfinite(self.a) and math.isfinite(self.b) and self.b > self.a):
            raise ValueError(f"need finite intensities with b > a, got a={self.a}, b={self.b}")
        truth = np.zeros((self.n, self.n), dtype=np.int32)
        flat = truth.reshape(-1)
        count = 0
        for mask in particles:  # no enumerate: its cached tuple would keep the last mask
            if np.shape(mask) != truth.shape:
                raise ValueError(f"particle mask {count} has shape {np.shape(mask)}, "
                                 f"expected {truth.shape}")
            count += 1
            on = np.flatnonzero(mask)
            del mask  # so the next mask is built after this one is freed
            if flat[on].any():
                raise ValueError("particle masks overlap")
            flat[on] = count
        if self.noise_square is None:
            object.__setattr__(self, "noise_square",
                               find_clear_square(truth, self.noise_square_side))
        if self.noise_square_side < 1 or self.min_particle_square < 1:
            raise ValueError("window sides must be >= 1")
        r0, c0 = self.noise_square
        s = self.noise_square_side
        if min(r0, c0) < 0 or max(r0, c0) + s > self.n:
            raise ValueError(f"noise square at {self.noise_square} with side {s} "
                             f"does not fit an {self.n}x{self.n} frame")
        side = self.min_particle_square
        for i, box in enumerate(ndimage.find_objects(truth, max_label=count)):
            if box is None or not mask_contains_square(truth[box] == i + 1, side):
                raise ValueError(f"particle mask {i} contains no full {side}x{side} square")
        if truth[r0 : r0 + s, c0 : c0 + s].any():
            raise ValueError(f"guaranteed noise square at {self.noise_square} "
                             "intersects a particle")
        truth.setflags(write=False)
        object.__setattr__(self, "truth", truth)


def generate_scene(spec: SceneSpec, noise: NoiseModel, seed) -> tuple[Micrograph, np.ndarray]:
    """Render the two-level truth image plus i.i.d. noise; reproducible from seed.

    Returns the noisy micrograph and the scene's truth label image, spec.truth.
    The levels are added into the freshly drawn noise in place.
    """
    rng = np.random.default_rng(seed)
    pixels = noise.sample(rng, (spec.n, spec.n))
    on = spec.truth > 0
    np.add(pixels, spec.b, out=pixels, where=on)
    np.add(pixels, spec.a, out=pixels, where=~on)
    return _adopt(pixels), spec.truth


def find_clear_square(truth: np.ndarray, side: int) -> tuple[int, int]:
    """First (row-major) top-left corner of a side x side square with no
    particle pixel of the label image truth; raises if none exists."""
    n = min(truth.shape)
    if not 1 <= side <= n:
        raise ValueError(f"square side {side} outside 1..{n}, the frame side")
    clear = _square_corners(truth == 0, side)
    r, c = divmod(int(np.argmax(clear)), clear.shape[1])  # the first True, if any
    if not clear[r, c]:
        raise ValueError(f"no noise-only square of side {side} fits between the particles")
    return r, c


def _object(doc, what: str) -> dict:
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(doc).__name__}")
    return doc


def _field(doc: dict, key: str, convert=float):
    """convert(doc[key]); a missing or malformed value is a ValueError naming the field."""
    if key not in doc:
        raise ValueError(f"scene field {key!r} is missing")
    try:
        return convert(doc[key])
    except (TypeError, AttributeError, ValueError, OverflowError) as exc:
        raise ValueError(f"scene field {key!r} is malformed: {exc}") from None


def _integral(value) -> int:
    """An integral JSON number (10 or 10.0) as an int; anything else is a ValueError."""
    if type(value) is int or (type(value) is float and value.is_integer()):
        return int(value)
    raise ValueError(f"expected an integral number, got {value!r}")


def _corner(corner) -> tuple[int, int]:
    if not isinstance(corner, (list, tuple)) or len(corner) != 2:
        raise ValueError("expected [row, col]")
    return _integral(corner[0]), _integral(corner[1])


def noise_from_dict(doc: dict) -> NoiseModel:
    kind = _field(_object(doc, "noise"), "kind", str)
    if kind == "uniform":
        return UniformNoise(half_width=_field(doc, "half_width"))
    if kind == "truncated_gaussian":
        sigma_raw, bound = _field(doc, "sigma_raw"), _field(doc, "bound")
        return TruncatedGaussianNoise(sigma_raw=sigma_raw, bound=bound)
    raise ValueError(f"unknown noise kind {kind!r}")


def _shape_masks(n: int, shapes: list):
    """The full-frame mask of each shapes[] entry, built when it is asked for."""
    for i, sh in enumerate(shapes):
        sh = _object(sh, f"shapes[{i}]")
        mask = shape_library(_field(sh, "kind", str), _field(sh, "size", _integral))
        yield place_shape(n, mask, _field(sh, "row", _integral), _field(sh, "col", _integral))


def scene_from_dict(doc: dict) -> tuple[SceneSpec, NoiseModel]:
    """Build a scene and its noise model from a JSON-style document.

    Expected fields: n, a, b, phi0, phi1, shapes: [{kind, size, row, col}],
    noise: {kind, ...}; optional noise_square: [row, col] (when omitted,
    SceneSpec places it at the first clear corner).
    """
    n = _field(_object(doc, "scene document"), "n", _integral)
    spec = SceneSpec(
        n=n,
        a=_field(doc, "a"),
        b=_field(doc, "b"),
        particles=_shape_masks(n, _field(doc, "shapes", list) if "shapes" in doc else []),
        noise_square=_field(doc, "noise_square", _corner) if "noise_square" in doc else None,
        noise_square_side=_field(doc, "phi0", _integral),
        min_particle_square=_field(doc, "phi1", _integral),
    )
    return spec, noise_from_dict(_field(doc, "noise", lambda noise: noise))


def load_scene(path) -> tuple[SceneSpec, NoiseModel]:
    """Read a scene document from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        return scene_from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# Window-selection probability bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundResult:
    """Raw sum of per-window terms and the same sum clipped at 1."""

    raw_sum: float
    clipped: float


def window_selection_bound(
    s1_list, excess_list, b_minus_a: float, sigma: float, bound_m: float
) -> BoundResult:
    """Upper bound on the probability that some contaminated window is chosen
    over a noise-only one.

    Each window K contributes exp(-C1 s1^2 / (C2 excess + C3 s1)) with
    C1 = 3 (b-a)^2, C2 = 12 sigma^2, C3 = 4 M (b-a), where s1 is the number
    of particle pixels in K and excess the number of pixels of K outside the
    noise-only square. A term with s1 = 0 is taken as exp(0) = 1 (the bound
    is vacuous for windows containing no particle pixels). This is a
    diagnostic for hypothetical configurations, not an estimator.
    """
    s1 = [float(v) for v in s1_list]
    excess = [float(v) for v in excess_list]
    if not s1:
        raise ValueError("s1_list must not be empty")
    if len(s1) != len(excess):
        raise ValueError(f"list lengths differ: {len(s1)} vs {len(excess)}")
    if not all(0 <= v < math.inf for v in s1 + excess):
        raise ValueError("s1 and excess values must be finite and >= 0")
    for name, value in (("b_minus_a", b_minus_a), ("sigma", sigma), ("bound_m", bound_m)):
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be finite and > 0, got {value}")
    c1 = 3.0 * b_minus_a ** 2
    c2 = 12.0 * sigma ** 2
    c3 = 4.0 * bound_m * b_minus_a
    total = sum(1.0 if s == 0.0 else math.exp(-c1 * s * s / (c2 * e + c3 * s))
                for s, e in zip(s1, excess))
    return BoundResult(raw_sum=total, clipped=min(total, 1.0))


# ---------------------------------------------------------------------------
# Monte Carlo harnesses
# ---------------------------------------------------------------------------

def _csv(header: str, rows) -> str:
    """The header line, then one line per row: floats through fmt6, ints as is."""
    lines = [header] + [",".join(fmt6(v) if isinstance(v, float) else str(v) for v in row)
                        for row in rows]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ConsistencyRow:
    phi0: int
    median_abs_err: float
    q25_abs_err: float
    q75_abs_err: float


@dataclass(frozen=True)
class ConsistencyTable:
    rows: tuple[ConsistencyRow, ...]
    naive_median_abs_err: float
    trials: int

    def to_csv(self) -> str:
        return _csv("phi0,trials,median_abs_err,q25_abs_err,q75_abs_err,naive_median_abs_err",
                    [(r.phi0, self.trials, r.median_abs_err, r.q25_abs_err, r.q75_abs_err,
                      self.naive_median_abs_err) for r in self.rows])


def _consistency_trial(spec, noise, phi0_grid, seed, trial):
    img, _ = generate_scene(spec, noise, [seed, trial])
    errs = [abs(a_hat - spec.a) for a_hat in estimate_lower(img, *phi0_grid)]
    return errs, abs(naive_mean(img) - spec.a)


def _send_range(trial, start, stop, conn):
    """In a child process: send (True, [trial(t) for t in range(start, stop)]), or
    (False, the exception the range raised) over conn."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the caller's, which stops us
    try:
        reply = (True, [trial(t) for t in range(start, stop)])
    except Exception as exc:
        try:  # an exception the caller could not unpickle would hide this one
            pickle.loads(pickle.dumps(exc))
            reply = (False, exc)
        except Exception as why:
            reply = (False, RuntimeError(f"{type(exc).__name__}: {exc} "
                                         f"(cannot be sent back: {why!r})"))
    conn.send(reply)


def _run_trials(trial, trials: int, jobs: int) -> list:
    """[trial(t) for t in range(trials)] in contiguous ranges of ceil(trials / workers)
    trials, workers = min(jobs, trials). The caller runs the first range; each other
    range runs in one child process, which sends its results back over a pipe. A
    failure raises the exception of the lowest failing range, after every child has
    been stopped."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    size = -(-trials // min(jobs, trials))
    children = []
    try:
        for start in range(size, trials, size):
            recv_end, send_end = Pipe(duplex=False)
            proc = Process(target=_send_range, daemon=True,
                           args=(trial, start, min(start + size, trials), send_end))
            proc.start()
            children.append((proc, recv_end))
            send_end.close()  # so a child that dies leaves the pipe at EOF
        results = [trial(t) for t in range(size)]
        for proc, recv_end in children:  # read before join: a reply can fill the pipe
            try:
                ok, reply = recv_end.recv()
            except EOFError:
                proc.join()
                raise RuntimeError(f"a trial process exited with code {proc.exitcode} "
                                   "before sending its results") from None
            if not ok:
                raise reply
            results.extend(reply)
        return results
    except BaseException:
        for proc, _ in children:
            proc.terminate()
        raise
    finally:
        for proc, recv_end in children:
            proc.join()
            recv_end.close()


def mc_consistency(
    spec: SceneSpec,
    noise: NoiseModel,
    phi0_grid,
    trials: int,
    seed: int,
    jobs: int = 1,
) -> ConsistencyTable:
    """Distribution of the background-estimate error per scan-window side,
    with the whole-image mean as the inconsistent baseline."""
    phi0_grid = [int(p) for p in phi0_grid]
    if not phi0_grid:
        raise ValueError("phi0_grid must not be empty")
    results = _run_trials(partial(_consistency_trial, spec, noise, phi0_grid, seed), trials, jobs)
    errs = np.array([r[0] for r in results])  # (trials, len(grid))
    naive = np.array([r[1] for r in results])
    rows = tuple(
        ConsistencyRow(
            phi0=phi0,
            median_abs_err=float(np.median(errs[:, i])),
            q25_abs_err=float(np.quantile(errs[:, i], 0.25)),
            q75_abs_err=float(np.quantile(errs[:, i], 0.75)),
        )
        for i, phi0 in enumerate(phi0_grid)
    )
    return ConsistencyTable(
        rows=rows, naive_median_abs_err=float(np.median(naive)), trials=trials
    )


@dataclass(frozen=True)
class DetectionStats:
    """Aggregate detection power and false-alarm behavior over seeded trials."""

    trials: int
    n_particles: int
    all_detected_fraction: float
    any_false_fraction: float
    mean_false_clusters: float

    def to_csv(self) -> str:
        return _csv("trials,n_particles,all_detected_fraction,any_false_fraction,"
                    "mean_false_clusters",
                    [(self.trials, self.n_particles, self.all_detected_fraction,
                      self.any_false_fraction, self.mean_false_clusters)])


def _detection_trial(spec, noise, params, theta, pure_noise, seed, trial):
    img, truth = generate_scene(spec, noise, [seed, trial])
    if theta is None:
        summary = match_detections(run_detection_artifacts(img, params).report, truth)
    else:
        pre = preprocess(img, params)
        binary = binarize(pre, theta)
        if pure_noise:  # every kept cluster is false; sizes suffice
            return True, int((cluster_sizes(binary) >= params.min_cluster_pixels).sum())
        kept = filter_clusters(black_clusters(binary), params.min_cluster_pixels)
        summary = match_clusters(kept, truth)
    return summary.all_detected, summary.false_clusters


def mc_detection(
    spec: SceneSpec,
    noise: NoiseModel,
    params: DetectParams,
    trials: int,
    seed: int,
    theta: float | None = None,
    jobs: int = 1,
) -> DetectionStats:
    """Detection power (all particles hit) and false-cluster behavior.

    With theta=None each trial runs the full pipeline including the estimate
    step; passing a fixed theta skips estimation and thresholds directly,
    which is how pure-noise false-alarm experiments pin the black fraction.
    Matching clusters to the truth (theta=None, or a scene with particles)
    needs downsample_passes == 0.
    """
    n_particles = int(spec.truth.max())
    if params.downsample_passes > 0 and (theta is None or n_particles > 0):
        raise ValueError(f"downsample_passes must be 0 to match clusters to the "
                         f"{spec.n}x{spec.n} truth, got {params.downsample_passes}")
    results = _run_trials(partial(_detection_trial, spec, noise, params, theta,
                                  n_particles == 0, seed), trials, jobs)
    all_detected = np.array([r[0] for r in results], dtype=bool)
    false_counts = np.array([r[1] for r in results], dtype=np.int64)
    return DetectionStats(
        trials=trials,
        n_particles=n_particles,
        all_detected_fraction=float(np.mean(all_detected)) if n_particles else float("nan"),
        any_false_fraction=float(np.mean(false_counts > 0)),
        mean_false_clusters=float(np.mean(false_counts)),
    )


@dataclass(frozen=True)
class PhaseRow:
    p: float
    trial: int
    largest_cluster: int
    largest_fraction: float
    n_clusters: int


@dataclass(frozen=True)
class PhaseTable:
    rows: tuple[PhaseRow, ...]

    def to_csv(self) -> str:
        return _csv("p,trial,largest_cluster,largest_fraction,n_clusters",
                    [(r.p, r.trial, r.largest_cluster, r.largest_fraction, r.n_clusters)
                     for r in self.rows])


def _phase_trial(n, p_values, seed, trial):
    """One row per site probability for one trial of percolation_phase."""
    rows = []
    for pi, p in enumerate(p_values):
        sizes = cluster_sizes(bernoulli_field(n, n, p, [seed, pi, trial]))
        largest = int(sizes.max()) if sizes.size else 0
        rows.append(PhaseRow(p=p, trial=trial, largest_cluster=largest,
                             largest_fraction=largest / (n * n), n_clusters=int(sizes.size)))
    return rows


def percolation_phase(n: int, p_values, trials: int, seed: int) -> PhaseTable:
    """Largest-cluster statistics of seeded Bernoulli fields, one row per trial.

    The contrast between p below and above 1/2 is the mechanism that keeps
    noise clusters small while particle interiors grow a giant cluster.
    """
    p_values = [float(p) for p in p_values]
    if not p_values:
        raise ValueError("p_values must not be empty")
    results = _run_trials(partial(_phase_trial, n, p_values, seed), trials, 1)
    return PhaseTable(rows=tuple(row for per_p in zip(*results) for row in per_p))
