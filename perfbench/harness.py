"""Closed-loop benchmark of the cylpc codec, driven through its public functions.

One process and one client: each operation starts only after the
previous one has finished and its output has been checked. Inputs come
from ``synth_sweep`` at seeds ``seed, seed + 1, ...``, one fresh frame per
operation, so no two timed operations see the same input. Making a
frame (and its reference voxelization, used only by the checks) is the
per-operation set-up; it is timed as ``setup_s`` and left out of every
other time.

Workloads (see README.md for why each one exists):

* ``frame``: ``encode_cloud`` then ``decode_cloud`` on one frame;
* ``compare``: ``cylpc.cli.main(["compare", <binary PLY>, "--log-radial",
  "--csv", ...])`` over the default qsteps and both coordinate systems.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

from spans import Tracer

CHECKOUT = Path(__file__).resolve().parent.parent
# Every run times at least this many operations. Rate, quality and count
# metrics use exactly these first operations, so they repeat for a seed
# whatever the machine's speed.
MIN_OPS = 3
# A tail percentile needs at least this many samples beyond it.
TAIL_SAMPLES = 10


class SetupError(Exception):
    """The checkout under test cannot be benchmarked."""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "frame" or "compare"
    spec: dict  # SweepSpec overrides
    system: str = "cylindrical"
    depth: int = 13
    log_radial: bool = True
    qstep: float = 4.0
    # Python-loop length of the reference kernel. Pure-Python RLGR is about
    # half of a compare but a small share of a frame, so the compare kernel
    # loops longer to be slowed by host contention the way its workload is.
    reference_loop: int = 30_000


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "frame-cyl",
            "the paper's configuration at a realistic frame size: 105k points, "
            "cylindrical log-radial depth 13, qstep 4",
            "frame", {},
        ),
        Workload(
            "frame-cart-420k",
            "the largest geometry case: 420k points, Cartesian depth 16; the "
            "octree dominates and RLGR barely shows",
            "frame", {"azimuth_step": 2.0 * math.pi / 5120.0},
            system="cartesian", depth=16, log_radial=False,
        ),
        Workload(
            "rd-compare",
            "cylpc compare: one geometry per system, 14 qsteps through RAHT and "
            "RLGR on a checker intensity, plus load_ply and the CLI",
            "compare", {"intensity_model": "checker"}, reference_loop=1_000_000,
        ),
    )
}


def import_cylpc(checkout: Path = CHECKOUT):
    """Import cylpc from ``checkout/src`` and prove that is what was imported."""
    src = (checkout / "src").resolve()
    if not (src / "cylpc" / "__init__.py").is_file():
        raise SetupError(f"no cylpc package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import cylpc
    import cylpc.cli

    where = Path(cylpc.__file__).resolve()
    if src not in where.parents:
        raise SetupError(f"cylpc was imported from {where}, not from {src}")
    return cylpc


def environment() -> list[tuple[str, str]]:
    return [
        ("git_sha", git_sha(CHECKOUT)),
        ("python", platform.python_version()),
        ("numpy", np.__version__),
        ("scipy", scipy.__version__),
        ("nproc", str(len(os.sched_getaffinity(0)))),
        ("threads", ",".join(
            f"{v}={os.environ.get(v, 'unset')}"
            for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        )),
        ("load", "closed loop, 1 client, 1 process"),
    ]


def git_sha(checkout: Path) -> str:
    if not (checkout / ".git").exists():
        return "none"
    try:
        out = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


@dataclass
class RunLog:
    """What one run measured; the time lists hold successful operations only."""

    setup_s: list = field(default_factory=list)
    op_ms: list = field(default_factory=list)
    encode_ms: list = field(default_factory=list)
    decode_ms: list = field(default_factory=list)
    points: int = 0
    attempted: int = 0
    failed: int = 0
    # one dict per counted operation: total/geometry/attribute bpp, psnr
    quality: list = field(default_factory=list)
    digests: list = field(default_factory=list)
    bd: list = field(default_factory=list)
    wall_s: float = 0.0
    ref_ms: list = field(default_factory=list)  # reference kernel times


# ---------------------------------------------------------------- frames


@dataclass
class Frame:
    pc: object
    codes: np.ndarray  # encoder's voxel codes
    attributes: np.ndarray  # per-voxel mean attribute
    slot: np.ndarray  # voxel index of each source point


def frame_setup(cy, wl: Workload, spec, seed: int, workdir: Path) -> Frame:
    pc = cy.ingest.synth_sweep(spec, seed=seed)
    system = cy.voxelizer.CoordinateSystem(wl.system)
    cfg = cy.voxelizer.make_config(pc, system, wl.depth, log_radial=wl.log_radial)
    ref = cy.voxelizer.voxelize(pc, cfg)
    slot = np.searchsorted(ref.codes, cy.voxelizer.assign_codes(pc, cfg))
    return Frame(pc, ref.codes, ref.attributes, slot)


def check_frame(frame: Frame, qstep: float, decoded) -> list[str]:
    """Failed checks of one decoded frame against its encoder-side reference."""
    failures = []
    if not np.array_equal(decoded.codes, frame.codes):
        failures.append(
            f"decoded {decoded.codes.size} leaf codes differ from the encoder's "
            f"{frame.codes.size} voxel codes"
        )
    if decoded.n_points != len(frame.pc):
        failures.append(f"point count {decoded.n_points} != {len(frame.pc)}")
    if not failures:
        mse = float(np.mean((decoded.leaf_attributes - frame.attributes) ** 2))
        if not mse <= qstep * qstep / 4.0:
            failures.append(f"voxel MSE {mse:.6g} > qstep^2/4 = {qstep * qstep / 4.0:g}")
    return failures


def frame_op(cy, wl: Workload, frame: Frame, log: RunLog, counted: bool) -> list[str]:
    system = cy.voxelizer.CoordinateSystem(wl.system)
    t0 = perf_counter()
    data, summary = cy.bitstream.encode_cloud(
        frame.pc, system, wl.depth, wl.qstep, log_radial=wl.log_radial
    )
    t1 = perf_counter()
    decoded = cy.bitstream.decode_cloud(data)
    t2 = perf_counter()
    failures = check_frame(frame, wl.qstep, decoded)
    if failures:
        return failures
    log.encode_ms.append(1e3 * (t1 - t0))
    log.decode_ms.append(1e3 * (t2 - t1))
    log.op_ms.append(1e3 * (t2 - t0))
    log.points += len(frame.pc)
    if counted:
        psnr = cy.metrics.psnr_attribute(
            frame.pc.attributes, decoded.leaf_attributes[frame.slot]
        )
        log.quality.append({
            "total_bpp": summary.total_bpp,
            "geometry_bpp": summary.geometry_bpp,
            "attribute_bpp": summary.attribute_bpp,
            "psnr_db": psnr,
        })
        log.digests.append(hashlib.sha256(data).hexdigest())
    return []


# ---------------------------------------------------------------- compare


def compare_setup(cy, wl: Workload, spec, seed: int, workdir: Path) -> Path:
    path = workdir / f"frame-{os.getpid()}-{seed}.ply"
    cy.ingest.write_ply(path, cy.ingest.synth_sweep(spec, seed=seed), binary=True)
    return path


def check_compare(code: int, report: dict, rows: list[dict], qsteps) -> list[str]:
    if code != 0:
        return [f"compare exited {code}"]
    failures = []
    if len(rows) != 2 * len(qsteps):
        failures.append(f"{len(rows)} RD points, expected {2 * len(qsteps)}")
    for row in rows:
        qstep, psnr = float(row["qstep"]), float(row["psnr_db"])
        floor = 20.0 * math.log10(510.0 / qstep)
        if math.isfinite(psnr) and not psnr >= floor:
            failures.append(
                f"{row['system']} qstep {qstep:g}: PSNR {psnr:g} dB < {floor:.4g} dB"
            )
    for key in ("cartesian_geometry_bpp", "cylindrical_geometry_bpp"):
        if key not in report:
            failures.append(f"report lacks {key}")
    return failures


def compare_op(cy, wl: Workload, ply: Path, log: RunLog, counted: bool) -> list[str]:
    csv_path = ply.with_suffix(".csv")
    out = io.StringIO()
    try:
        t0 = perf_counter()
        with contextlib.redirect_stdout(out):
            code = cy.cli.main(["compare", str(ply), "--log-radial", "--csv", str(csv_path)])
        t1 = perf_counter()
        rows = []
        if code == 0:
            with csv_path.open() as f:
                rows = list(csv.DictReader(f))
    finally:
        ply.unlink(missing_ok=True)
        csv_path.unlink(missing_ok=True)
    report = dict(line.split("=", 1) for line in out.getvalue().splitlines() if "=" in line)
    failures = check_compare(code, report, rows, cy.cli.DEFAULT_QSTEPS)
    if failures:
        return failures
    log.op_ms.append(1e3 * (t1 - t0))
    log.points += int(report["points"])
    if counted:
        geometry = {s: float(report[f"{s}_geometry_bpp"]) for s in ("cartesian", "cylindrical")}
        psnrs = [float(r["psnr_db"]) for r in rows if math.isfinite(float(r["psnr_db"]))]
        log.quality.append({
            "total_bpp": statistics.fmean(geometry[r["system"]] + float(r["bpp"]) for r in rows),
            "geometry_bpp": statistics.fmean(geometry[r["system"]] for r in rows),
            "attribute_bpp": statistics.fmean(float(r["bpp"]) for r in rows),
            "psnr_db": statistics.fmean(psnrs),
        })
        lines = [ln for ln in out.getvalue().splitlines() if not ln.startswith("input=")]
        rd = "\n".join(f"{r['system']},{r['qstep']},{r['bpp']},{r['psnr_db']}" for r in rows)
        log.digests.append(hashlib.sha256(("\n".join(lines) + rd).encode()).hexdigest())
        log.bd.append({k: float(report[k]) for k in ("bd_delta_psnr_db", "bd_delta_rate_percent")})
    return []


# ---------------------------------------------------------------- the loop


@dataclass
class Result:
    workload: Workload
    log: RunLog
    tracer: Tracer | None


class ReferenceKernel:
    """Fixed work shaped like the codec, calling no cylpc code: shift and
    sorted-dedupe passes over 105k sorted int64 codes, one ``np.unique``,
    bit-unpacking 380k occupancy bytes, a float gather, and a Python
    zigzag loop over ``loop`` small integers.

    On a shared 2-vCPU Xeon VM (2.0 GHz) the same encode + decode of one
    frame ranged from 650 to 1450 ms within 200 s, with nothing else
    running in the VM, and the run medians of raw operation time of ten
    25-second frame-cyl runs spread by 37% (quartile distance over the
    median). Host contention slows this kernel much as it slows the
    codec: the ratio of the two, ``op_cost_p50``, spread by 4.8%, 5.5%
    and 7.1% over ten runs of frame-cyl, frame-cart-420k and rd-compare.
    """

    def __init__(self, loop: int):
        rng = np.random.default_rng(20210623)
        self._codes = np.sort(rng.integers(0, 1 << 39, 105_000))
        self._occupancy = rng.integers(1, 256, 380_000).astype(np.uint8)
        self._values = rng.random(105_000)
        self._order = rng.permutation(105_000)
        self._ints = rng.integers(-3, 4, loop).tolist()

    def time_ms(self) -> float:
        t0 = perf_counter()
        codes = self._codes
        for _ in range(6):
            codes = codes >> 3
            codes = codes[np.r_[True, codes[1:] != codes[:-1]]]
        np.unique(self._codes >> 9)
        np.nonzero(np.unpackbits(self._occupancy[:, None], axis=1, bitorder="little"))
        self._values[self._order] * 0.7 + self._values * 0.3
        acc = 0
        for x in self._ints:
            acc = (acc + (2 * x if x >= 0 else -2 * x - 1)) & 0xFFFF
        return 1e3 * (perf_counter() - t0)


def run(cy, wl: Workload, seed: int, seconds: float, trace: bool, workdir: Path) -> Result:
    """Closed loop: set up, run and check one operation at a time until at
    least MIN_OPS operations ran and ``seconds`` of operation time passed.
    After each operation the reference kernel runs for at least a tenth
    of that operation's time."""
    setup, op = (frame_setup, frame_op) if wl.kind == "frame" else (compare_setup, compare_op)
    spec = cy.ingest.SweepSpec(**wl.spec)
    workdir.mkdir(parents=True, exist_ok=True)
    # warm-up on a tiny frame: lazy imports and first-call costs stay out of timing
    tiny = dataclasses.replace(spec, beam_count=min(spec.beam_count, 8))
    op(cy, wl, setup(cy, wl, tiny, seed, workdir), RunLog(), counted=False)
    kernel = ReferenceKernel(wl.reference_loop)
    kernel.time_ms()

    log = RunLog()
    tracer = Tracer(count_frames=MIN_OPS) if trace else None
    modules = {name: getattr(cy, name) for name in ("bitstream", "cli", "ingest", "voxelizer")}
    undo = tracer.install(modules) if tracer else None
    try:
        start = perf_counter()
        excluded = 0.0  # set-up and reference kernel time
        i = 0
        while i < MIN_OPS or perf_counter() - start - excluded < seconds:
            if tracer:
                tracer.frame = i
            t0 = perf_counter()
            inputs = setup(cy, wl, spec, seed + i, workdir)
            log.setup_s.append(perf_counter() - t0)
            excluded += log.setup_s[-1]
            log.attempted += 1
            t_op = perf_counter()
            try:
                failures = op(cy, wl, inputs, log, counted=i < MIN_OPS)
            except Exception:  # a failed operation is counted, the loop goes on
                failures = [traceback.format_exc().strip().splitlines()[-1]]
                traceback.print_exc(file=sys.stderr)
            if failures:
                log.failed += 1
                print(f"operation {i} (seed {seed + i}) failed: " + "; ".join(failures),
                      file=sys.stderr)
            t_ref = perf_counter()
            while True:
                log.ref_ms.append(kernel.time_ms())
                if perf_counter() - t_ref >= 0.1 * (t_ref - t_op):
                    break
            excluded += perf_counter() - t_ref
            i += 1
        log.wall_s = perf_counter() - start - excluded
    finally:
        if undo:
            undo()
    return Result(wl, log, tracer)


# ---------------------------------------------------------------- metrics


def tail(samples: list) -> tuple[float, float] | None:
    """(value, percentile) of the highest percentile with TAIL_SAMPLES beyond it."""
    n = len(samples)
    if n <= TAIL_SAMPLES:
        return None
    k = n - TAIL_SAMPLES  # samples at or below the tail value
    return sorted(samples)[k - 1], 100.0 * k / n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# name -> (unit, better); every workload reports each of these
END_TO_END = {
    "setup_s": ("s", "lower"),
    "op_cost_p50": ("x", "lower"),
    "total_bpp": ("bpp", "lower"),
    "geometry_bpp": ("bpp", "lower"),
    "attribute_bpp": ("bpp", "lower"),
    "psnr_db": ("dB", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}


def _median(xs):
    return statistics.median(xs) if xs else None


def _mean_of(rows, key):
    return statistics.fmean(r[key] for r in rows) if rows else None


def op_cost(log: RunLog) -> float | None:
    """Median operation time in multiples of the median reference-kernel time."""
    if not log.op_ms:
        return None
    return statistics.median(log.op_ms) / statistics.median(log.ref_ms)


def end_to_end(log: RunLog) -> dict:
    values = {
        "setup_s": _median(log.setup_s),
        "op_cost_p50": op_cost(log),
        "total_bpp": _mean_of(log.quality, "total_bpp"),
        "geometry_bpp": _mean_of(log.quality, "geometry_bpp"),
        "attribute_bpp": _mean_of(log.quality, "attribute_bpp"),
        "psnr_db": _mean_of(log.quality, "psnr_db"),
        "peak_rss_mb": peak_rss_mb(),
    }
    return {k: {"value": v, "unit": END_TO_END[k][0]} for k, v in values.items()}


def report_lines(result: Result, metrics: dict) -> list[str]:
    """Every end-to-end figure of the run as a table: the gated metrics plus
    the per-workload latencies, tails, error rate and determinism digest."""
    log = result.log
    samples = {"setup_s": len(log.setup_s), "op_cost_p50": len(log.op_ms), "peak_rss_mb": 1}
    rows = [(name, m["value"], m["unit"], samples.get(name, len(log.quality)), "gated")
            for name, m in metrics.items()]

    def latency(label, ms, unit, scale):
        rows.append((f"{label}_p50", _median(ms) and _median(ms) * scale, unit, len(ms), ""))
        t = tail(ms)
        rows.append((f"{label}_tail", t and t[0] * scale, unit, len(ms),
                     f"p{t[1]:.1f}" if t else f"needs > {TAIL_SAMPLES} samples"))

    kpts_per_s = log.points / 1e3 / log.wall_s if log.points else None
    latency("op_ms", log.op_ms, "ms", 1.0)
    rows.append(("reference_ms_p50", _median(log.ref_ms), "ms", len(log.ref_ms),
                 "op_cost_p50 = op_ms_p50 / reference_ms_p50"))
    if result.workload.kind == "frame":
        latency("encode_ms", log.encode_ms, "ms", 1.0)
        latency("decode_ms", log.decode_ms, "ms", 1.0)
        rows.append(("frame_kpts_per_s", kpts_per_s, "kpts/s", len(log.op_ms), ""))
    else:
        latency("sweep_s", log.op_ms, "s", 1e-3)
        rows.append(("sweep_kpts_per_s", kpts_per_s, "kpts/s", len(log.op_ms), ""))
        for key, unit in (("bd_delta_psnr_db", "dB"), ("bd_delta_rate_percent", "%")):
            rows.append((key, _mean_of(log.bd, key), unit, len(log.bd), "readout, not gated"))
    rows.append(("error_rate", log.failed / log.attempted, "1", log.attempted,
                 f"{log.failed} failed of {log.attempted}"))

    lines = [f"{'metric':24} {'value':>14} {'unit':8} {'samples':>7}  note"]
    for name, value, unit, n, note in rows:
        shown = "n/a" if value is None else f"{value:.6g}"
        lines.append(f"{name:24} {shown:>14} {unit:8} {n:>7}  {note}".rstrip())
    digest = hashlib.sha256("".join(log.digests).encode()).hexdigest()[:16]
    lines.append(f"output_sha256_first_{len(log.digests)}_ops={digest}")
    return lines


# ---------------------------------------------------------------- per layer

OP_ROOTS = ("bitstream.encode", "bitstream.decode", "cli.main")

# metric -> span names whose self time it sums (per operation)
LAYER_TIMES = {
    "morton.encode_s": ("morton.encode",),
    "morton.decode_s": ("morton.decode",),
    "voxelizer.voxelize_s": ("voxelizer.voxelize",),
    "voxelizer.centers_s": ("voxelizer.centers",),
    "octree.build_s": ("octree.build",),
    "octree.serialize_s": ("octree.serialize",),
    "octree.deserialize_s": ("octree.deserialize",),
    "raht.forward_s": ("raht.forward",),
    "raht.inverse_s": ("raht.inverse",),
    "coeff_codec.quantize_s": ("coeff_codec.quantize",),
    "coeff_codec.rlgr_encode_s": ("coeff_codec.rlgr_encode",),
    "coeff_codec.rlgr_decode_s": ("coeff_codec.rlgr_decode",),
    "bitstream.encode_self_s": ("bitstream.encode", "bitstream.attribute_ints"),
    "bitstream.decode_self_s": ("bitstream.decode", "bitstream.decode_attributes"),
    "ingest.load_ply_s": ("ingest.load_ply",),
    "metrics.psnr_s": ("metrics.psnr",),
    "metrics.bd_s": ("metrics.bd",),
    "cli.self_s": ("cli.main",),
}

# metric -> (span name, numerator count, denominator count or None for a mean per span)
LAYER_COUNTS = {
    "voxelizer.points_per_voxel": ("voxelizer.voxelize", "points", "voxels"),
    "octree.occupancy_bytes": ("octree.serialize", "bytes", None),
    "octree.single_child_frac": ("octree.serialize", "single_child", "bytes"),
    "raht.coeffs": ("raht.forward", "coeffs", None),
    "coeff_codec.zero_frac": ("coeff_codec.rlgr_encode", "zeros", "values"),
    "coeff_codec.bits_per_coeff": ("coeff_codec.rlgr_encode", "bits", "values"),
}


def per_layer(result: Result) -> tuple[dict, list[str]]:
    """Per-layer metrics of a traced run and a breakdown of each root span."""
    tracer, log = result.tracer, result.log
    spans = tracer.spans
    self_s = tracer.self_times()
    roots = tracer.roots()
    n_ops = max(1, log.attempted)

    by_root: dict[str, dict[str, float]] = {r: {} for r in OP_ROOTS}
    root_total = dict.fromkeys(OP_ROOTS, 0.0)
    synth_s = 0.0
    for i, s in enumerate(spans):
        root = spans[roots[i]].name
        if root == "ingest.synth":
            synth_s += self_s[i]
        elif root in OP_ROOTS:
            by_root[root][s.name] = by_root[root].get(s.name, 0.0) + self_s[i]
            if i == roots[i]:
                root_total[root] += s.end - s.start

    def layer_s(names):
        return sum(times.get(n, 0.0) for times in by_root.values() for n in names)

    metrics = {k: {"value": layer_s(names) / n_ops, "unit": "s"}
               for k, names in LAYER_TIMES.items()}
    metrics["ingest.synth_s"] = {"value": synth_s / n_ops, "unit": "s"}
    for k, (name, num, den) in LAYER_COUNTS.items():
        counted = [s.counts for s in spans if s.name == name and s.counts]
        top = sum(c[num] for c in counted)
        bottom = sum(c[den] for c in counted) if den else len(counted)
        metrics[k] = {"value": top / bottom if bottom else 0.0,
                      "unit": "count" if den is None else "ratio"}
    metrics["traced.op_cost_p50"] = {"value": op_cost(log), "unit": "x"}

    # what the harness timed around each root call, spans included
    timed_ms = {"bitstream.encode": log.encode_ms, "bitstream.decode": log.decode_ms,
                "cli.main": log.op_ms}
    lines = []
    for root in OP_ROOTS:
        total = root_total[root]
        if not total:
            continue
        covered = sum(by_root[root].values())
        lines.append(f"{root} spans: {total:.6g} s over {n_ops} ops, harness-timed "
                     f"{1e-3 * sum(timed_ms[root]):.6g} s; layer self times sum to "
                     f"{covered:.6g} s ({100.0 * covered / total:.2f}% of the spans)")
        for name, t in sorted(by_root[root].items(), key=lambda kv: -kv[1]):
            lines.append(f"  {name:28} {t / n_ops:12.6g} s/op {100.0 * t / total:6.2f}%")
    return metrics, lines
