"""Command-line surface: data generation, pipelines, verification.

Exit codes: 0 success, 1 validation or verification failure (a
`CommandError`, or a `ValueError` from the library), 2 usage error.
Every command is deterministic given --seed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import cech as _cech
from . import dimension as _dimension
from . import forest as _forest
from . import geometry as _geometry
from . import wspd as _wspd
from . import wssd as _wssd


class CommandError(Exception):
    """Validation failure mapped to exit code 1."""


def _load(read, what: str, path: str):
    """`read(path)`, with unreadable or rejected files mapped to CommandError."""
    try:
        return read(path)
    except (OSError, ValueError) as exc:
        raise CommandError(f"cannot read {what} from {path}: {exc}") from exc


def _build_forest_from_args(args, cloud, t: float) -> _forest.NetForest:
    mode = "exact" if args.exact_nn else "lsh"
    return _forest.build_forest(cloud, t, seed=args.seed, nn=mode, rho=args.rho, delta=args.delta)


def cmd_gen_data(args) -> int:
    params = {"n": args.n, "d": args.d, "seed": args.seed}
    if args.kind == "affine":
        params["flat_dim"] = args.flat_dim if args.flat_dim is not None else args.k
        if params["flat_dim"] is None:
            raise CommandError("affine needs --flat-dim (or --k)")
    if args.kind == "curve":
        params["spacing"] = args.spacing
    if args.kind == "clustered":
        params["clusters"] = args.clusters
        params["separation"] = args.separation
        params["spread"] = args.spread
    if args.kind in ("sphere",) and args.noise:
        params["noise"] = args.noise
    cloud = _geometry.generate(args.kind, **params)
    _geometry.write_points(args.output, cloud)
    return 0


def cmd_build_forest(args) -> int:
    cloud = _load(_geometry.read_points, "points", args.input)
    if args.t <= 0:
        raise CommandError("--t must be positive")
    forest = _build_forest_from_args(args, cloud, args.t)
    if args.verify:
        bad = _forest.check_forest(forest, cloud)
        if bad:
            for line in bad[:20]:
                print(f"violation: {line}", file=sys.stderr)
            raise CommandError(f"{len(bad)} forest invariant violations")
    _forest.write_forest(args.output, forest, cloud.dim)
    return 0


def _forest_for(args, cloud, scale: float) -> _forest.NetForest:
    if args.forest:
        forest = _load(_forest.read_forest, "forest", args.forest)
        if abs(forest.t - scale) > 1e-9 * max(forest.t, scale):
            raise CommandError(
                f"forest file built at t={forest.t}, this command needs t={scale}"
            )
        if forest.n != cloud.n:
            raise CommandError("forest and point file disagree on n")
        return forest
    return _build_forest_from_args(args, cloud, scale)


def cmd_wspd(args) -> int:
    cloud = _load(_geometry.read_points, "points", args.input)
    forest = _forest_for(args, cloud, args.t)
    wspd = _wspd.gen_wspd(forest, cloud, args.epsilon)
    if args.verify:
        if cloud.n > 500:
            raise CommandError("--verify is gated to n <= 500 for wspd")
        report = _wspd.verify_wspd(cloud, forest, wspd, args.epsilon, args.t)
        if not report.ok:
            raise CommandError(
                f"wspd verification failed: {len(report.separation_violations)} "
                f"separation, {len(report.coverage_violations)} coverage"
            )
    _wspd.write_wspd(args.output, wspd)
    return 0


def cmd_wssd(args) -> int:
    cloud = _load(_geometry.read_points, "points", args.input)
    forest = _forest_for(args, cloud, 2.0 * args.t)
    wssd = _wssd.gen_wssd(forest, cloud, args.epsilon, args.k, args.t)
    if args.verify:
        if cloud.n > 62:
            raise CommandError("--verify is gated to n <= 62 for wssd")
        report = _wssd.verify_wssd(cloud, forest, wssd, args.epsilon, args.k, args.t)
        if not report.ok:
            raise CommandError(
                f"wssd verification failed: {len(report.coverage_violations)} "
                f"coverage, {len(report.separation_violations)} separation"
            )
    _wssd.write_wssd(args.output, wssd)
    return 0


def cmd_cech(args) -> int:
    cloud = _load(_geometry.read_points, "points", args.input)
    grid = None
    if args.grid:
        try:
            grid = np.array([float(tok) for tok in args.grid.split(",")])
        except ValueError as exc:
            raise CommandError(f"bad --grid: {exc}") from exc
    mode = "exact" if args.exact_nn else "lsh"
    _, _, output = _cech.build_cech_pipeline(
        cloud,
        args.epsilon,
        args.k,
        args.t,
        seed=args.seed,
        nn=mode,
        grid=grid,
        rho=args.rho,
        delta=args.delta,
    )
    if args.verify:
        if cloud.n > 40:
            raise CommandError("--verify is gated to n <= 40 for cech")
        report = _cech.verify_sandwich(cloud, output, args.epsilon, args.k)
        if not report.ok:
            raise CommandError(
                f"sandwich verification failed: {len(report.lower_violations)} "
                f"lower, {len(report.upper_violations)} upper"
            )
    _cech.write_filtration(args.output, output)
    return 0


def cmd_dim_estimate(args) -> int:
    if args.forest:
        forest = _load(_forest.read_forest, "forest", args.forest)
    else:
        if not args.input:
            raise CommandError("dim-estimate needs --forest or --input")
        cloud = _load(_geometry.read_points, "points", args.input)
        forest = _build_forest_from_args(args, cloud, args.t)
    est = _dimension.estimate_dim(forest)
    line = "dim-estimate t=%.17g x=%d log2x=%.17g" % (est.t, est.max_out_degree, est.estimate)
    print(line)
    if args.output:
        Path(args.output).write_text(line + "\n")
    return 0


def _add_common(parser: argparse.ArgumentParser, *, seed_required: bool = True) -> None:
    parser.add_argument("--seed", type=int, required=seed_required, help="64-bit seed")
    parser.add_argument("--rho", type=float, default=0.5, help="LSH exponent in (0,1)")
    parser.add_argument("--delta", type=float, default=0.1, help="LSH failure budget")
    parser.add_argument(
        "--exact-nn",
        action="store_true",
        help="use the exact near-neighbour primitive instead of LSH",
    )


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scalenets",
        description="Scale-restricted metric data structures over point clouds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write a generated point file")
    p.add_argument("--kind", required=True, choices=sorted(_geometry._GENERATORS))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, default=None, help="flat dimension for affine")
    p.add_argument("--flat-dim", type=int, default=None)
    p.add_argument("--spacing", type=float, default=0.05)
    p.add_argument("--clusters", type=int, default=5)
    p.add_argument("--separation", type=float, default=4.0)
    p.add_argument("--spread", type=float, default=0.25)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("build-forest", help="build and write a net-forest")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--verify", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_build_forest)

    p = sub.add_parser("wspd", help="well-separated pair decomposition")
    p.add_argument("--input", required=True)
    p.add_argument("--forest", default=None, help="reuse a forest file (scale t)")
    p.add_argument("--output", required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--verify", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_wspd)

    p = sub.add_parser("wssd", help="well-separated simplicial decomposition")
    p.add_argument("--input", required=True)
    p.add_argument("--forest", default=None, help="reuse a forest file (scale 2t)")
    p.add_argument("--output", required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--verify", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_wssd)

    p = sub.add_parser("cech", help="approximate truncated Cech filtration")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--grid", default=None, help="comma-separated scales in (0,t]")
    p.add_argument("--verify", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_cech)

    p = sub.add_parser("dim-estimate", help="local dimension estimate from a forest")
    p.add_argument("--input", default=None)
    p.add_argument("--forest", default=None)
    p.add_argument("--output", default=None)
    p.add_argument("--t", type=float, default=None)
    _add_common(p, seed_required=False)
    p.set_defaults(func=cmd_dim_estimate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    if getattr(args, "command", None) == "dim-estimate":
        if args.input and args.t is None:
            parser.error("dim-estimate --input needs --t")
        if args.input and args.seed is None:
            parser.error("dim-estimate --input needs --seed")
    try:
        return args.func(args)
    except (CommandError, ValueError) as exc:
        # a library ValueError is a rejected input, reported like a failed check
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
