"""Command line front end: experiments, single solves, synthetic data, weight maps.

Exit codes: 0 success, 2 unusable input (bad flags, missing files, malformed
manifest), 3 numeric failure of every attempted solve.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import classify, dataio, experiment, solver
from .errors import ConfigError, FaceidError, GeometryError, NumericError
from .model import ImageGeometry, matricize


def _geometry(text: str) -> ImageGeometry:
    try:
        rows, cols = text.lower().split("x")
        return ImageGeometry(int(rows), int(cols))
    except (ValueError, GeometryError) as exc:
        raise argparse.ArgumentTypeError(f"expected ROWSxCOLS, got {text!r}") from exc


def _synthetic(text: str) -> experiment.SyntheticSpec:
    try:
        classes, per_class, size = text.split(",")
        geom = _geometry(size)
        return experiment.SyntheticSpec(
            classes=int(classes), per_class=int(per_class), rows=geom.rows, cols=geom.cols
        )
    except (ValueError, ConfigError, argparse.ArgumentTypeError) as exc:
        raise argparse.ArgumentTypeError(
            f"expected CLASSES,PER_CLASS,ROWSxCOLS (e.g. 10,7,24x21), got {text!r}"
        ) from exc


# (SolverConfig field, type, help) behind each --field-name override flag.
_SOLVER_FLAGS = (
    ("lambda_star", float, "nuclear norm weight"),
    ("lambda_reg", float, "l1/l2 coefficient weight"),
    ("rho1", float, None),
    ("rho2", float, None),
    ("eps1", float, "loosest inner fit tolerance"),
    ("eps2", float, "inner split tolerance"),
    ("eps3", float, "outer weight-change tolerance"),
    ("t_max", int, "outer iteration cap"),
    ("s_max", int, "inner iteration cap"),
)


def _add_solver_flags(p):
    g = p.add_argument_group("solver")
    g.add_argument("--method", default="F-LR-IRNNLS", choices=sorted(solver.METHODS))
    for name, kind, text in _SOLVER_FLAGS:
        g.add_argument("--" + name.replace("_", "-"), type=kind, default=None, help=text)
    g.add_argument(
        "--gamma",
        type=float,
        default=None,
        help="logistic saturation fraction (default 0.6 with corruption flags, else 0.8)",
    )


def _solver_kwargs(args) -> dict:
    values = {name: getattr(args, name) for name, _, _ in _SOLVER_FLAGS}
    return {k: v for k, v in values.items() if v is not None}


def _add_corruption_flags(p):
    g = p.add_argument_group("corruption")
    g.add_argument("--occlusion", type=float, default=None, help="block coverage fraction in (0,1)")
    g.add_argument("--patch", type=Path, default=None, help="occluder PGM (default: built-in texture)")
    g.add_argument(
        "--pixel-corruption", type=float, default=None, help="fraction of pixels replaced by noise"
    )


def _add_experiment_flags(p):
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--manifest", type=Path, help="dataset manifest (split,label,path lines)")
    src.add_argument(
        "--synthetic", type=_synthetic, metavar="C,M,RxK", help="built-in benchmark descriptor"
    )
    p.add_argument("--resize", type=_geometry, metavar="RxC", help="resample manifest images")
    _add_solver_flags(p)
    _add_corruption_flags(p)
    p.add_argument("--seed", type=int, action="append", default=None, help="repeatable run seed")
    p.add_argument("--out", type=Path, default=None, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="faceid", description="Robust face identification under occlusion."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    bench = sub.add_parser("bench", help="run a batch identification experiment")
    _add_experiment_flags(bench)
    bench.add_argument("--export-weights", action="store_true", help="write per-image weight maps")

    one = sub.add_parser("solve", help="identify a single PGM against a manifest dictionary")
    one.add_argument("--manifest", type=Path, required=True)
    one.add_argument("--image", type=Path, required=True)
    one.add_argument("--resize", type=_geometry, metavar="RxC")
    _add_solver_flags(one)
    one.add_argument("--weight-map", type=Path, default=None, help="write the final weight map here")

    synth = sub.add_parser("synth", help="write the synthetic benchmark as PGMs plus a manifest")
    synth.add_argument("--synthetic", type=_synthetic, default=None, metavar="C,M,RxK")
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--out", type=Path, required=True)
    return parser


def _cmd_bench(args) -> int:
    config = experiment.ExperimentConfig(
        method=args.method,
        manifest=args.manifest,
        synthetic=args.synthetic,
        geometry=args.resize,
        occlusion=args.occlusion,
        patch=args.patch,
        pixel_fraction=args.pixel_corruption,
        seeds=tuple(args.seed) if args.seed else (0,),
        out_dir=args.out,
        export_weights=args.export_weights,
        gamma=args.gamma,
        solver_kwargs=_solver_kwargs(args),
    )
    report = experiment.run_experiment(config)
    failed = sum(1 for r in report.rows if r.error)
    converged = sum(1 for r in report.rows if r.converged)
    print(
        f"{report.method}: accuracy {report.accuracy:.4f} over {len(report.rows)} solves "
        f"({failed} failed, {converged}/{len(report.rows)} converged), mean {report.mean_seconds:.3f}s"
    )
    if args.out:
        print(f"report: {Path(args.out) / 'report.csv'}")
    return 0


def _cmd_solve(args) -> int:
    T, _, _ = experiment.enroll(dataio.load_manifest(args.manifest).split("train"), args.resize)
    gamma = experiment.resolve_gamma(args.gamma, corrupted=False)
    config = solver.method_config(args.method, gamma=gamma, **_solver_kwargs(args))
    y = dataio.load_face(args.image, T.geometry).normalized()
    result = solver.solve(y, T, config)
    outcome = classify.identify(y, T, result)
    stop = result.stop
    if not result.converged:
        stop = f"stopped at {stop}={getattr(config, stop)}"
    print(
        f"{args.image}: class {T.class_names[outcome.predicted]} "
        f"(margin {outcome.margin:.6g}, {result.outer_iterations} outer / "
        f"{result.total_inner_iterations} inner iterations, {stop}, {result.wall_seconds:.3f}s)"
    )
    if args.weight_map is not None:
        dataio.export_weight_map(result.w, T.geometry, args.weight_map)
        print(f"weight map: {args.weight_map}")
    return 0


def _cmd_synth(args) -> int:
    spec = args.synthetic or experiment.SyntheticSpec()
    ds = experiment.make_synthetic_benchmark(
        classes=spec.classes,
        per_class=spec.per_class,
        geometry=spec.geometry,
        seed=args.seed,
        extra_tests=spec.extra_tests,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    lines = [f"# synthetic benchmark seed={args.seed} classes={spec.classes}"]
    for split, faces, labels in (("train", ds.train, ds.train_labels), ("test", ds.test, ds.test_labels)):
        (out / split).mkdir(exist_ok=True)
        counter = {}
        for face, label in zip(faces, labels):
            i = counter.get(label, 0)
            counter[label] = i + 1
            rel = f"{split}/c{label:02d}_{i:02d}.pgm"
            dataio.save_pgm(matricize(face), out / rel)
            lines.append(f"{split},{label},{rel}")
    manifest = out / "manifest.txt"
    manifest.write_text("\n".join(lines) + "\n")
    print(f"{len(ds.train)} train / {len(ds.test)} test images under {out}")
    print(f"manifest: {manifest}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "bench":
            return _cmd_bench(args)
        if args.command == "solve":
            return _cmd_solve(args)
        return _cmd_synth(args)
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (FaceidError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
