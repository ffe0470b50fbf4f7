"""The benchmark's workloads: seeded inputs, one operation each, output checks.

Every workload drives percopick through its public API only. Inputs come from
the seed given on the command line; the program sees only the generated
inputs. A workload object is built once per run, set up (timed, several
times), and then asked for operations until the run's time is spent.

Each operation returns one or more Samples: the wall time of one public call,
its mode (one process or two), the units of work it completed (detects or
Monte Carlo trials), and the first failed check, if any. A workload's
`headline` mode gives its latency and ops_per_s. Exceptions raised by the
program are caught per call and counted as failures, never dropped.
"""

from __future__ import annotations

import io
import json
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import ndimage

from percopick import (
    DetectParams,
    Micrograph,
    SceneSpec,
    UniformNoise,
    cli,
    disc_mask,
    mc_consistency,
    mc_detection,
    place_shape,
    read_binary_image,
    shape_library,
    square_mask,
    write_image,
)

SERIAL = "serial"      # one process (jobs=1)
PARALLEL = "parallel"  # two worker processes (jobs=2)


@dataclass
class Sample:
    mode: str
    seconds: float
    units: int
    error: str | None = None


def timed(mode: str, units: int, call, check) -> tuple[Sample, object]:
    """Time one public call, then check its output outside the timed region.

    Returns the sample and the call's output (None when it raised)."""
    start = time.perf_counter()
    try:
        out = call()
    except Exception as exc:  # the program failed: count it, keep going
        return Sample(mode, time.perf_counter() - start, units,
                      f"{type(exc).__name__}: {exc}"), None
    seconds = time.perf_counter() - start
    try:
        error = check(out)
    except Exception as exc:  # a malformed output can make the check itself raise
        error = f"check raised {type(exc).__name__}: {exc}"
    return Sample(mode, seconds, units, error), out


# ---------------------------------------------------------------------------
# micrograph: `percopick detect` on a seeded 2400x2400 16-bit P5 micrograph
# ---------------------------------------------------------------------------

def write_micrograph(path: Path, seed: int, n: int, particles: int) -> list[tuple[int, int]]:
    """Write a seeded two-level micrograph with disc particles as a 16-bit P5.

    Particles are stamped into one truth image; no full-frame mask per
    particle is built. The frame is cut into 160 x 160 tiles: a seeded 2x2
    block of tiles is kept particle-free (a noise-only square larger than the
    default 65-pixel background window after two downsampling passes), and
    `particles` of the other tiles each get one disc of radius 40 at a seeded
    offset, at least 20 pixels from every tile edge, so discs never touch.
    Intensities are a=0.3 (background) and b=0.45 (particles) plus uniform
    noise of half width 0.4, mapped linearly from [a-0.4, b+0.4] onto 0..65535.
    Returns the particle centres as (row, col) at full resolution.
    """
    a, b, half_width = 0.3, 0.45, 0.4
    radius, cell = 40, 160
    rng = np.random.default_rng([seed, 1])
    tiles = n // cell
    r0, c0 = (int(v) for v in rng.integers(0, tiles - 1, size=2))
    reserved = {(r0 + dr, c0 + dc) for dr in (0, 1) for dc in (0, 1)}
    free = [(i, j) for i in range(tiles) for j in range(tiles) if (i, j) not in reserved]
    if particles > len(free):
        raise ValueError(f"{particles} particles do not fit {len(free)} free tiles")
    disc = disc_mask(radius)
    slack = (cell - 2 * radius - 1) // 2 - 20
    pixels = np.full((n, n), a)
    centres = []
    for k in sorted(rng.choice(len(free), size=particles, replace=False)):
        i, j = free[k]
        row = i * cell + cell // 2 + int(rng.integers(-slack, slack + 1))
        col = j * cell + cell // 2 + int(rng.integers(-slack, slack + 1))
        pixels[row - radius:row + radius + 1, col - radius:col + radius + 1][disc] = b
        centres.append((row, col))
    step = -(-n // 8)
    for top in range(0, n, step):  # row blocks keep the noise temporaries small
        block = pixels[top:top + step]
        block += rng.uniform(-half_width, half_width, size=block.shape)
    pixels -= a - half_width
    pixels *= 65535.0 / (b - a + 2 * half_width)
    img = Micrograph(pixels)
    # Free the truth image before write_image makes its own frame-size
    # temporaries, so the generator peaks below a detect (see peak_mb).
    del pixels, block
    write_image(img, path, format="pgm", maxval=65535)
    return centres


class DetectMicrograph:
    name = "micrograph"
    op_label = "detect"
    headline = SERIAL
    root_span = "cli.main"

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.seed = seed
        self.n, self.particles = (480, 4) if tiny else (2400, 200)
        self.downsample = 2  # the CLI default, kept for the centre check
        self.inp = workdir / "micrograph.pgm"
        self.outs = [workdir / name for name in ("report.json", "binary.pgm", "kept.pgm")]
        self.argv = ["detect", "--in", str(self.inp), "--out", str(self.outs[0]),
                     "--binary-out", str(self.outs[1]), "--filtered-out", str(self.outs[2])]
        self.reference: list[bytes] | None = None
        self.centres: list[tuple[int, int]] = []
        # float64 pixels at full resolution: the largest array a detect holds
        self.working_set_bytes = self.n * self.n * 8

    def setup(self) -> None:
        self.centres = write_micrograph(self.inp, self.seed, self.n, self.particles)
        self.reference = None
        self.op(0)

    def detect(self) -> tuple[int, str]:
        """`percopick detect`, returning its exit code and standard output."""
        with redirect_stdout(io.StringIO()) as out:
            code = cli.main(self.argv)
        return code, out.getvalue()

    def check(self, result) -> str | None:
        code, stdout = result
        if code != 0:
            return f"detect exited {code}"
        if not stdout.startswith("decision ParticlesFound "):
            return f"unexpected summary line {stdout!r}"
        outputs = [p.read_bytes() for p in self.outs]
        if self.reference is None:
            self.reference = outputs
        for path, got, want in zip(self.outs, outputs, self.reference):
            if got != want:
                return f"{path.name} differs from the first output of the run"
        report = json.loads(outputs[0])
        if report["decision"] != "ParticlesFound":
            return f"decision {report['decision']}"
        # Thresholded particle interiors can hold white pixels, so a centre is
        # "in" a kept cluster when it lies in the hole-filled kept mask.
        kept = ndimage.binary_fill_holes(read_binary_image(self.outs[2]).bits)
        scale = 2 ** self.downsample
        missed = [c for c in self.centres if not kept[c[0] // scale, c[1] // scale]]
        if missed:
            return f"{len(missed)} particle centre(s) outside every kept cluster, first {missed[0]}"
        return None

    def op(self, i: int) -> list[Sample]:
        """One detect. The first output after set-up is the reference every
        later output must match byte for byte."""
        sample, _ = timed(SERIAL, 1, self.detect, self.check)
        return [sample]

    def finish(self, samples: list[Sample]) -> str | None:
        return None

    def unit_call(self, i: int):
        """One detect for the traced run, and its check."""
        return self.detect, self.check


# ---------------------------------------------------------------------------
# Monte Carlo workloads
# ---------------------------------------------------------------------------

def _csv_fields(csv: str) -> list[dict]:
    header, *rows = csv.strip().split("\n")
    keys = header.split(",")
    return [dict(zip(keys, row.split(","))) for row in rows]


def _csv_ok(csv: str) -> str | None:
    if not csv.endswith("\n") or len(_csv_fields(csv)) < 1:
        return "malformed CSV"
    return None


class _MonteCarlo:
    """A workload whose operation is one seeded Monte Carlo batch.

    Batch seeds are [seed, 0, i]; the warm-up and the traced run's one-trial
    units use [seed, 1, 0] and [seed, 2, i], so no two coincide."""

    headline = SERIAL
    root_span = "synth.harness"
    check = staticmethod(_csv_ok)
    warm_jobs = (1,)  # the jobs values the measured batches use
    batch: int

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.seed = seed
        self.spec = self.noise = None

    def setup(self) -> None:
        self.spec, self.noise = self.scene()
        # a failed warm-up fails the measured batches too, where it is counted
        for jobs in self.warm_jobs:
            timed(SERIAL, 2, lambda: self.batch_csv([self.seed, 1, 0], 2, jobs), self.check)

    def unit_call(self, i: int):
        """A one-trial batch for the traced run, and its check."""
        return (lambda: self.batch_csv([self.seed, 2, i], 1, 1)), self.check

    def finish(self, samples: list[Sample]) -> str | None:
        return None


def criterion6_scene(n: int = 256) -> SceneSpec:
    shapes = [("l_shape", 24, 8, 80), ("l_shape", 24, 8, 150), ("l_shape", 24, 160, 60),
              ("annulus_gap", 24, 80, 8), ("annulus_gap", 24, 80, 120)]
    masks = tuple(place_shape(n, shape_library(k, s), r, c) for k, s, r, c in shapes)
    return SceneSpec(n=n, a=0.4, b=0.6, particles=masks, noise_square=(0, 0),
                     noise_square_side=64, min_particle_square=12)


class McDetection(_MonteCarlo):
    name = "mc_detection"
    op_label = "mc_detection batch"
    headline = PARALLEL
    warm_jobs = (1, 2)  # the first pool of a process starts cold
    params = DetectParams(phi0=64, phi1=12, min_cluster_pixels=30,
                          downsample_passes=0, normalize=False)

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir, tiny)
        self.batch = 2 if tiny else 4  # small batches give a run ~40 samples per mode
        self.working_set_bytes = 256 * 256 * 8
        self.detected = 0
        self.trials = 0

    def scene(self):
        return criterion6_scene(), UniformNoise(0.25)

    def batch_csv(self, seed, trials, jobs) -> str:
        return mc_detection(self.spec, self.noise, self.params, trials=trials,
                            seed=seed, jobs=jobs).to_csv()

    def op(self, i: int) -> list[Sample]:
        """The same seeded batch at jobs=1 and jobs=2, alternating which runs
        first; the jobs=2 CSV must equal the jobs=1 CSV byte for byte."""
        seed = [self.seed, 0, i]
        outputs = {}
        samples = []
        for jobs in ((1, 2) if i % 2 == 0 else (2, 1)):
            mode = SERIAL if jobs == 1 else PARALLEL
            sample, outputs[jobs] = timed(mode, self.batch,
                                          lambda: self.batch_csv(seed, self.batch, jobs),
                                          self.check)
            samples.append(sample)
        if all(s.error is None for s in samples):
            if outputs[1] != outputs[2]:
                samples[-1].error = "jobs=1 and jobs=2 CSV differ"
            else:
                row = _csv_fields(outputs[1])[0]
                self.detected += round(float(row["all_detected_fraction"]) * self.batch)
                self.trials += self.batch
        return samples

    def finish(self, samples):
        if self.trials and self.detected / self.trials < 0.95:
            return (f"pooled all_detected_fraction {self.detected}/{self.trials} "
                    f"is below 0.95")
        return None


class FalseAlarm(_MonteCarlo):
    name = "false_alarm"
    op_label = "mc_detection batch (theta=0.4)"
    params = DetectParams(phi0=64, phi1=9, min_cluster_pixels=30,
                          downsample_passes=0, normalize=False)
    seed_slots = 4  # batches cycle over this many seeds, so every seed repeats

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir, tiny)
        self.n = 128 if tiny else 512
        self.batch = 2 if tiny else 20
        self.working_set_bytes = self.n * self.n * 8
        self.first: dict[int, str] = {}

    def scene(self):
        spec = SceneSpec(n=self.n, a=0.3, b=1.0, particles=(), noise_square=(0, 0),
                         noise_square_side=64, min_particle_square=2)
        return spec, UniformNoise(0.2)

    def batch_csv(self, seed, trials, jobs) -> str:
        return mc_detection(self.spec, self.noise, self.params, trials=trials,
                            seed=seed, theta=0.4, jobs=jobs).to_csv()

    def op(self, i: int) -> list[Sample]:
        slot = i % self.seed_slots

        def check(csv):
            if self.first.setdefault(slot, csv) != csv:
                return f"seed slot {slot} gave a different CSV than its first batch"
            return self.check(csv)

        sample, _ = timed(SERIAL, self.batch,
                          lambda: self.batch_csv([self.seed, 0, slot], self.batch, 1), check)
        return [sample]


class Consistency(_MonteCarlo):
    name = "consistency"
    op_label = "mc_consistency batch"
    grid = (16, 32, 64, 128, 256)

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir, tiny)
        self.scale = 1 if tiny else 4
        self.batch = 1 if tiny else 4
        n = 256 * self.scale
        self.working_set_bytes = (n + 1) * (n + 1) * 8  # the integral table

    def scene(self):
        # The criteria 2-4 scene, every length multiplied by `scale`.
        s = self.scale
        n = 256 * s
        boxes = [(4, 104), (90, 170), (172, 104)]
        masks = tuple(place_shape(n, square_mask(80 * s), r * s, c * s) for r, c in boxes)
        spec = SceneSpec(n=n, a=0.3, b=0.7, particles=masks, noise_square=(0, 0),
                         noise_square_side=64 * s, min_particle_square=16 * s)
        return spec, UniformNoise(0.2)

    def batch_csv(self, seed, trials, jobs) -> str:
        grid = [g for g in self.grid if g <= 64 * self.scale]
        return mc_consistency(self.spec, self.noise, grid, trials=trials,
                              seed=seed, jobs=jobs).to_csv()

    @staticmethod
    def check(csv) -> str | None:
        last = _csv_fields(csv)[-1]
        if not float(last["median_abs_err"]) < float(last["naive_median_abs_err"]):
            return (f"scan error {last['median_abs_err']} at phi0={last['phi0']} is not "
                    f"below the naive-mean error {last['naive_median_abs_err']}")
        return None

    def op(self, i: int) -> list[Sample]:
        sample, _ = timed(SERIAL, self.batch,
                          lambda: self.batch_csv([self.seed, 0, i], self.batch, 1), self.check)
        return [sample]


WORKLOADS = {w.name: w for w in (DetectMicrograph, McDetection, FalseAlarm, Consistency)}
