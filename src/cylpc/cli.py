"""Command-line interface wiring the codec pipeline.

Subcommands: encode, decode, rd-sweep, compare, analyze, synth. Every
command is a pure function of its input bytes, flags and seed; outputs
are printed as machine-readable key=value lines. Exit codes: 0 success,
2 usage or parameter error, 3 unreadable or malformed input, 4 corrupt
bitstream. Two qsteps that print alike (4 and 4.0000001) and --r-min
without --log-radial are parameter errors.
"""

from __future__ import annotations

import argparse
import csv
import sys
import warnings
from pathlib import Path

from .bitstream import Encoder, decode_attributes, decode_cloud, encode_cloud
from .errors import CorruptStreamError, CylpcError, InvalidInputError, MalformedFileError
from .geometry import PointCloud
from .ingest import (INTENSITY_MODELS, SweepSpec, load_kitti_bin, load_ply, synth_sweep,
                     write_ply)
from .metrics import RatePoint, RdCurve, bd_metrics, psnr_attribute
from .voxelizer import CoordinateSystem, VoxelGridConfig, knn_mean_distance, make_config, voxelize

DEFAULT_DEPTH = {CoordinateSystem.CARTESIAN: 16, CoordinateSystem.CYLINDRICAL: 13}
DEFAULT_QSTEPS = (64.0, 32.0, 16.0, 8.0, 4.0, 2.0, 1.0)


def _load_cloud(path: str) -> PointCloud:
    suffix = Path(path).suffix.lower()
    if suffix == ".bin":
        return load_kitti_bin(path)
    if suffix == ".ply":
        return load_ply(path)
    raise MalformedFileError(f"{path}: unsupported input format '{suffix}'")


def _resolve_depth(depth: int | None, system: CoordinateSystem) -> int:
    return DEFAULT_DEPTH[system] if depth is None else depth


def _parse_qsteps(text: str) -> list[float]:
    try:
        steps = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise InvalidInputError(f"cannot parse qstep list '{text}'") from exc
    if len(steps) < 4:
        raise InvalidInputError(f"need >= 4 qsteps for a rate curve, got {len(steps)}")
    for i, q in enumerate(steps):  # compare as printed: rd-sweep keys and CSV rows use :g
        if f"{q:g}" in (f"{p:g}" for p in steps[:i]):
            raise InvalidInputError(f"qstep {q:g} appears more than once in '{text}'")
    return steps


def _emit(pairs, file=None):
    for key, value in pairs:
        if isinstance(value, float):
            value = f"{value:.6g}"
        print(f"{key}={value}", file=file or sys.stdout)


def _write_csv(path, header, rows, preamble=""):
    """``preamble``, then ``header`` and ``rows`` as CSV, floats as ``_emit`` prints them."""
    with open(path, "w", newline="") as f:
        f.write(preamble)
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows([f"{v:.6g}" if isinstance(v, float) else v for v in row]
                         for row in rows)


def _sweep(pc: PointCloud, cfg: VoxelGridConfig, qsteps):
    """Encode ``pc`` on the grid ``cfg`` once per qstep over a shared geometry.

    Returns (rate points ordered by qstep descending, geometry bpp).
    PSNR is measured per original point against its voxel's value, which
    is rebuilt from the coded ints: the decoder recovers exactly those from
    the stream, so a sweep runs no entropy decode of its own.
    """
    encoder = Encoder(pc, cfg)
    points = []
    for qstep in sorted(qsteps, reverse=True):
        _, summary, ints = encoder.encode(qstep)
        decoded = decode_attributes(ints, encoder.schedule, qstep)
        psnr = psnr_attribute(pc.attributes, decoded[encoder.voxels.slots])
        points.append((qstep, RatePoint(bpp=summary.attribute_bpp, psnr_db=psnr)))
    return points, summary.geometry_bpp


def _rd_curve(system: CoordinateSystem, sweep) -> RdCurve:
    """The Bjontegaard curve of one sweep's (qstep, point) pairs: qsteps of
    one attribute rate collapse to the point of best PSNR."""
    groups: dict[float, list] = {}
    for qstep, p in sweep:
        groups.setdefault(p.bpp, []).append((qstep, p))
    if len(groups) < 4:
        shared = ", ".join(f"qsteps {' and '.join(f'{q:g}' for q, _ in g)} share {bpp:.6g} bpp"
                           for bpp, g in groups.items() if len(g) > 1)
        raise InvalidInputError(f"{system.value} RD curve: {shared}; {len(groups)} distinct"
                                " rates remain, and a Bjontegaard fit needs >= 4")
    return RdCurve(tuple(max((p for _, p in g), key=lambda p: p.psnr_db)
                         for g in groups.values()))


def cmd_encode(args) -> int:
    pc = _load_cloud(args.input)
    system = CoordinateSystem(args.coords)
    depth = _resolve_depth(args.depth, system)
    data, summary = encode_cloud(
        pc, system, depth, args.qstep, log_radial=args.log_radial, r_min=args.r_min
    )
    Path(args.out).write_bytes(data)
    _emit(
        [
            ("input", args.input),
            ("coords", system.value),
            ("depth", depth),
            ("qstep", args.qstep),
            ("points", summary.n_points),
            ("voxels", summary.n_voxels),
            ("geometry_bpp", summary.geometry_bpp),
            ("geometry_raw_bpp", summary.geometry_raw_bpp),
            ("attribute_bpp", summary.attribute_bpp),
            ("header_bpp", summary.header_bpp),
            ("total_bpp", summary.total_bpp),
            ("out", args.out),
        ]
    )
    return 0


def cmd_decode(args) -> int:
    data = Path(args.input).read_bytes()
    decoded = decode_cloud(data)
    write_ply(args.out, decoded.cloud, binary=args.binary)
    _emit(
        [
            ("input", args.input),
            ("coords", decoded.config.system.value),
            ("depth", decoded.config.depth),
            ("qstep", decoded.qstep),
            ("voxels", len(decoded.codes)),
            ("source_points", decoded.n_points),
            ("out", args.out),
        ]
    )
    return 0


def cmd_rd_sweep(args) -> int:
    pc = _load_cloud(args.input)
    system = CoordinateSystem(args.coords)
    depth = _resolve_depth(args.depth, system)
    qsteps = _parse_qsteps(args.qsteps)
    cfg = make_config(pc, system, depth, log_radial=args.log_radial, r_min=args.r_min)
    sweep, geom_bpp = _sweep(pc, cfg, qsteps)
    _write_csv(args.csv, ["bpp", "psnr_db"], [(p.bpp, p.psnr_db) for _, p in sweep],
               preamble=f"# geometry_bpp={geom_bpp:.6g}\n")
    _emit([("input", args.input), ("coords", system.value), ("depth", depth),
           ("geometry_bpp", geom_bpp)])
    for qstep, p in sweep:
        _emit([(f"qstep_{qstep:g}_bpp", p.bpp), (f"qstep_{qstep:g}_psnr_db", p.psnr_db)])
    _emit([("csv", args.csv)])
    return 0


def cmd_compare(args) -> int:
    pc = _load_cloud(args.input)
    qsteps = _parse_qsteps(args.qsteps)
    cart_cfg = make_config(pc, CoordinateSystem.CARTESIAN, args.depth_cart)
    cyl_cfg = make_config(pc, CoordinateSystem.CYLINDRICAL, args.depth_cyl,
                          log_radial=args.log_radial, r_min=args.r_min)
    cart, cart_geom = _sweep(pc, cart_cfg, qsteps)
    cyl, cyl_geom = _sweep(pc, cyl_cfg, qsteps)
    bd = bd_metrics(
        _rd_curve(CoordinateSystem.CARTESIAN, cart),
        _rd_curve(CoordinateSystem.CYLINDRICAL, cyl),
    )
    report = [
        ("input", args.input),
        ("points", len(pc)),
        ("cartesian_depth", args.depth_cart),
        ("cartesian_geometry_bpp", cart_geom),
        ("cylindrical_depth", args.depth_cyl),
        ("cylindrical_log_radial", int(args.log_radial)),
        ("cylindrical_geometry_bpp", cyl_geom),
        ("bd_delta_psnr_db", bd.delta_psnr_db),
        ("bd_delta_rate_percent", bd.delta_rate_percent),
    ]
    # files first, as rd-sweep: an unwritable path exits 3 before any output
    if args.csv:
        _write_csv(args.csv, ["system", "qstep", "bpp", "psnr_db"],
                   [(name, qstep, p.bpp, p.psnr_db)
                    for name, sweep in (("cartesian", cart), ("cylindrical", cyl))
                    for qstep, p in sweep])
    if args.report:
        with open(args.report, "w") as f:
            _emit(report, file=f)
    _emit(report)
    return 0


def cmd_analyze(args) -> int:
    # compute everything before the first write: an exit 2 leaves no partial output
    pc = _load_cloud(args.input)
    rows = []
    for system, log_radial in (
        (CoordinateSystem.CARTESIAN, False),
        (CoordinateSystem.CYLINDRICAL, args.log_radial),
    ):
        cfg = make_config(pc, system, args.depth, log_radial=log_radial, r_min=args.r_min)
        vc = voxelize(pc, cfg)
        name = system.value + ("-log" if log_radial else "")
        rows.append((name, args.depth, len(vc), vc.n_points / len(vc)))
    knn = knn_mean_distance(pc, args.k)
    knn_path = f"{args.out_prefix}_knn.csv"
    _write_csv(knn_path, ["r", "mean_knn_distance"], knn)
    occ_path = f"{args.out_prefix}_occupancy.csv"
    _write_csv(occ_path, ["system", "depth", "voxels", "mean_points"], rows)
    _emit([("input", args.input), ("points", len(pc)), ("knn_csv", knn_path),
           ("occupancy_csv", occ_path)])
    for name, depth, voxels, mean_points in rows:
        _emit([(f"{name}_voxels", voxels), (f"{name}_mean_points", mean_points)])
    return 0


def cmd_synth(args) -> int:
    spec = SweepSpec(
        beam_count=args.beams,
        intensity_model=args.intensity,
        box_count=args.boxes,
        noise_sigma=args.noise_sigma,
    )
    pc = synth_sweep(spec, seed=args.seed)
    if len(pc) == 0:
        raise InvalidInputError("synthetic sweep produced no returns")
    write_ply(args.out, pc, binary=args.binary)
    _emit([("seed", args.seed), ("points", len(pc)), ("out", args.out)])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cylpc",
        description="LiDAR point cloud codec with cylindrical or Cartesian voxelization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_grid_flags(p, with_coords=True):
        if with_coords:
            p.add_argument("--coords", choices=["cartesian", "cylindrical"],
                           default="cylindrical")
            p.add_argument("--depth", type=int, default=None,
                           help="octree depth (default: 13 cylindrical, 16 Cartesian)")
        p.add_argument("--log-radial", action="store_true",
                       help="partition the radial axis uniformly in ln(r)")
        p.add_argument("--r-min", type=float, default=None,
                       help="inner radius clamp for the log-radial partition (default 1.0)")

    p = sub.add_parser("encode", help="encode a point cloud file into a bitstream")
    p.add_argument("input")
    add_grid_flags(p)
    p.add_argument("--qstep", type=float, default=8.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="decode a bitstream into a PLY point cloud")
    p.add_argument("input")
    p.add_argument("--out", required=True)
    p.add_argument("--binary", action="store_true", help="write binary PLY")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("rd-sweep", help="rate-distortion sweep over qsteps")
    p.add_argument("input")
    add_grid_flags(p)
    p.add_argument("--qsteps", default=",".join(f"{q:g}" for q in DEFAULT_QSTEPS))
    p.add_argument("--csv", required=True)
    p.set_defaults(func=cmd_rd_sweep)

    p = sub.add_parser("compare", help="Bjontegaard comparison of both systems")
    p.add_argument("input")
    p.add_argument("--depth-cart", type=int, default=DEFAULT_DEPTH[CoordinateSystem.CARTESIAN])
    p.add_argument("--depth-cyl", type=int, default=DEFAULT_DEPTH[CoordinateSystem.CYLINDRICAL])
    add_grid_flags(p, with_coords=False)
    p.add_argument("--qsteps", default=",".join(f"{q:g}" for q in DEFAULT_QSTEPS))
    p.add_argument("--report", default=None, help="write key=value report here")
    p.add_argument("--csv", default=None, help="write both RD curves here")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("analyze", help="density and occupancy statistics CSVs")
    p.add_argument("input")
    p.add_argument("--depth", type=int, default=8)
    p.add_argument("--k", type=int, default=5)
    add_grid_flags(p, with_coords=False)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("synth", help="generate a synthetic sweep as PLY")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--beams", type=int, default=128)
    p.add_argument("--intensity", choices=INTENSITY_MODELS, default="range-decay")
    p.add_argument("--boxes", type=int, default=3)
    p.add_argument("--noise-sigma", type=float, default=0.005)
    p.add_argument("--binary", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # a warning prints as one line, as errors do; filters and recorders still see it
    formatwarning = warnings.formatwarning
    warnings.formatwarning = lambda message, *_: f"warning: {message}\n"
    try:
        if "r_min" in args:  # the grid commands
            if args.r_min is not None and not args.log_radial:
                raise InvalidInputError(
                    "--r-min shapes only log-radial grids; add --log-radial"
                )
            args.r_min = 1.0 if args.r_min is None else args.r_min
        return args.func(args)
    except CorruptStreamError as exc:
        print(f"error: corrupt bitstream: {exc}", file=sys.stderr)
        return 4
    except (MalformedFileError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except CylpcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())
