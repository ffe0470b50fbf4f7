"""Command-line front end.

Subcommands cover the detection pipeline (estimate, detect), synthetic data
(synth), the Monte Carlo harnesses (mc-consistency, mc-detection,
percolation-phase), and the window-selection bound evaluator (bound).

Exit codes: 0 success, 1 input or parse errors, 2 degenerate estimates
(background estimate not below particle estimate). Errors go to stderr as
single-line diagnostics; analysis output goes to files or stdout. Identical
invocations on identical inputs produce byte-identical outputs. The parser is
built once per process, at import, and serves every main call.
"""

from __future__ import annotations

import argparse
import sys

from .detect import (
    DegenerateEstimatesError,
    DetectParams,
    compute_threshold,
    fmt6,
    preprocess,
    report_to_json,
    run_detection_artifacts,
)
from .image import _adopt
from .io import (
    atomic_write_bytes,
    read_image,
    write_binary_image,
    write_image,
)
from .percolation import _adopt_bits
from .scan import estimate_intensities
from .synth import (
    generate_scene,
    load_scene,
    mc_consistency,
    mc_detection,
    percolation_phase,
    window_selection_bound,
)


class _CliError(Exception):
    """Argument-level error; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _CliError(message)


def _list_of(convert, what: str):
    """An argparse type: comma-separated values, each read by convert."""
    def parse(text: str) -> list:
        try:
            return [convert(tok) for tok in text.split(",") if tok.strip() != ""]
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected comma-separated {what}, got {text!r}")
    return parse


def _flag_parents() -> tuple[argparse.ArgumentParser, ...]:
    """The flag sets that several subcommands share: image input, pipeline
    parameters (defaults from DetectParams) and the Monte Carlo run flags."""
    image_in = argparse.ArgumentParser(add_help=False)
    image_in.add_argument("--in", dest="input", required=True, help="input image (PGM or CSV)")
    image_in.add_argument("--format", choices=("pgm", "csv"), default=None,
                          help="input format (default: inferred from the suffix)")
    pipeline = argparse.ArgumentParser(add_help=False)
    d = DetectParams()
    g = pipeline.add_argument_group("pipeline parameters (defaults match the reference "
                                    "cryo-EM micrograph workflow)")
    g.add_argument("--phi0", type=int, default=d.phi0,
                   help="window side for the background estimate (default: %(default)s)")
    g.add_argument("--phi1", type=int, default=d.phi1,
                   help="window side for the particle estimate (default: %(default)s)")
    g.add_argument("--min-cluster", type=int, default=d.min_cluster_pixels,
                   help="keep clusters of at least this many pixels (default: %(default)s)")
    g.add_argument("--downsample", type=int, default=d.downsample_passes,
                   help="number of 2x downsampling passes (default: %(default)s)")
    g.add_argument("--normalize", action=argparse.BooleanOptionalAction, default=d.normalize,
                   help="rescale to a maximum intensity of 1 before estimating "
                        "(default: %(default)s)")
    mc = argparse.ArgumentParser(add_help=False)
    mc.add_argument("--scene", required=True, help="scene description (JSON)")
    mc.add_argument("--trials", type=int, default=100)
    mc.add_argument("--seed", type=int, default=0)
    mc.add_argument("--jobs", type=int, default=1,
                    help="processes to run trials in, counting this one")
    mc.add_argument("--out", dest="output", default=None, help="CSV path (default: stdout)")
    return image_in, pipeline, mc


def _params_from_args(args) -> DetectParams:
    return DetectParams(
        phi0=args.phi0,
        phi1=args.phi1,
        min_cluster_pixels=args.min_cluster,
        downsample_passes=args.downsample,
        normalize=args.normalize,
    )


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        atomic_write_bytes(path, [text.encode("utf-8")])


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_estimate(args) -> int:
    params = _params_from_args(args)
    pre = preprocess(
        read_image(args.input, args.format, downsample_passes=params.downsample_passes),
        params, passes_done=params.downsample_passes)
    est = estimate_intensities(pre, params.phi0, params.phi1)
    print(f"a_hat {fmt6(est.a_hat)}")
    print(f"b_hat {fmt6(est.b_hat)}")
    theta = compute_threshold(est.a_hat, est.b_hat)
    print(f"theta {fmt6(theta)}")
    return 0


def _cmd_detect(args) -> int:
    params = _params_from_args(args)
    artifacts = run_detection_artifacts(
        read_image(args.input, args.format, downsample_passes=params.downsample_passes),
        params, passes_done=params.downsample_passes)
    report = artifacts.report
    _write_text(args.output, report_to_json(report))
    if args.output is not None:
        print(
            f"decision {report.decision.value} clusters_kept {len(report.clusters_kept)} "
            f"clusters_total {report.clusters_total}"
        )
    if args.binary_out is not None:
        write_binary_image(artifacts.binary, args.binary_out)
    if args.filtered_out is not None:
        write_binary_image(artifacts.kept_binary, args.filtered_out)
    return 0


def _cmd_synth(args) -> int:
    spec, noise = load_scene(args.scene)
    img, truth = generate_scene(spec, noise, args.seed)
    if args.out.lower().endswith(".csv"):
        write_image(img, args.out)
    else:  # PGM, or a suffix write_image rejects before writing anything
        frame = img.pixels
        del img  # nobody reads the frame unscaled, so it is scaled in place
        frame.setflags(write=True)
        frame *= args.pgm_maxval
        write_image(_adopt(frame), args.out, maxval=args.pgm_maxval)
    if args.truth_out is not None:
        write_binary_image(_adopt_bits(truth > 0), args.truth_out)
    print(f"wrote {spec.n}x{spec.n} scene with {truth.max()} particle(s) to {args.out}")
    return 0


def _cmd_mc_consistency(args) -> int:
    spec, noise = load_scene(args.scene)
    table = mc_consistency(
        spec, noise, args.phi0_grid, trials=args.trials, seed=args.seed, jobs=args.jobs
    )
    _write_text(args.output, table.to_csv())
    return 0


def _cmd_mc_detection(args) -> int:
    spec, noise = load_scene(args.scene)
    stats = mc_detection(
        spec,
        noise,
        _params_from_args(args),
        trials=args.trials,
        seed=args.seed,
        theta=args.theta,
        jobs=args.jobs,
    )
    _write_text(args.output, stats.to_csv())
    return 0


def _cmd_bound(args) -> int:
    result = window_selection_bound(
        args.s1, args.excess, b_minus_a=args.contrast, sigma=args.sigma, bound_m=args.bound_m
    )
    print(f"raw_sum {fmt6(result.raw_sum)}")
    print(f"clipped {fmt6(result.clipped)}")
    return 0


def _cmd_percolation_phase(args) -> int:
    table = percolation_phase(args.n, args.p, trials=args.trials, seed=args.seed)
    _write_text(args.output, table.to_csv())
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="percopick",
        description="Particle detection in noisy 2D images: scan-window intensity "
                    "estimates, midpoint thresholding, and percolation clustering "
                    "on the triangular lattice.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)
    image_in, pipeline, mc = _flag_parents()

    p = sub.add_parser("estimate", parents=[image_in, pipeline],
                       help="print a_hat, b_hat, and the midpoint threshold")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("detect", parents=[image_in, pipeline],
                       help="run the full pipeline and emit a JSON report")
    p.add_argument("--out", dest="output", default=None,
                   help="report path (default: print to stdout)")
    p.add_argument("--binary-out", default=None,
                   help="write the thresholded image as PGM (maxval 1, 1 = black)")
    p.add_argument("--filtered-out", default=None,
                   help="write the kept-clusters image as PGM (maxval 1, 1 = black)")
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("synth", help="generate a synthetic scene image")
    p.add_argument("--scene", required=True, help="scene description (JSON)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True,
                   help="output image; .csv is exact, .pgm or .pnm is scaled and quantized")
    p.add_argument("--truth-out", default=None,
                   help="write the union of particle masks as PGM (maxval 1)")
    p.add_argument("--pgm-maxval", type=int, default=65535,
                   help="scale factor and maxval for PGM output (default: %(default)s)")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("mc-consistency", parents=[mc],
                       help="error table of the background estimate over seeded trials")
    p.add_argument("--phi0-grid", type=_list_of(int, "integers"), default=[16, 32, 64],
                   help="comma-separated window sides (default: %(default)s)")
    p.set_defaults(func=_cmd_mc_consistency)

    p = sub.add_parser("mc-detection", parents=[mc, pipeline],
                       help="detection power and false-cluster rates over seeded trials")
    p.add_argument("--theta", type=float, default=None,
                   help="fixed threshold (skips the estimate step; for pure-noise "
                        "false-alarm experiments)")
    p.set_defaults(func=_cmd_mc_detection)

    p = sub.add_parser("bound",
                       help="evaluate the window-selection probability bound")
    p.add_argument("--s1", type=_list_of(int, "integers"), required=True,
                   help="comma-separated particle-pixel counts per window")
    p.add_argument("--excess", type=_list_of(int, "integers"), required=True,
                   help="comma-separated counts of pixels outside the noise-only square")
    p.add_argument("--contrast", type=float, required=True, help="intensity gap b - a")
    p.add_argument("--sigma", type=float, required=True, help="noise standard deviation")
    p.add_argument("--bound-m", type=float, required=True, help="almost-sure noise bound M")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("percolation-phase",
                       help="largest-cluster statistics of Bernoulli site fields")
    p.add_argument("--n", type=int, default=256, help="field side (default: %(default)s)")
    p.add_argument("--p", type=_list_of(float, "numbers"), default=[0.4, 0.6],
                   help="comma-separated site probabilities (default: %(default)s)")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", dest="output", default=None, help="CSV path (default: stdout)")
    p.set_defaults(func=_cmd_percolation_phase)

    return parser


# Every main call parses with this one parser; its list defaults are shared by
# all calls, so nothing may change an args list in place.
_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        return args.func(args)
    except DegenerateEstimatesError as exc:
        print(f"percopick: error: {exc}", file=sys.stderr)
        return 2
    except (_CliError, ValueError, OSError, KeyError, MemoryError) as exc:
        print(f"percopick: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
