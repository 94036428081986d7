"""In-memory span tracer wrapped around the public functions of cylpc's layers.

A traced run replaces each layer function in the namespace of the module
that calls it (``cylpc.bitstream.serialize``, ``cylpc.cli.serialize``, ...)
with a wrapper that records one span: name, start, end, parent span and
the frame id the harness set. Spans stay in memory and are written out
as JSON lines when the run ends. A span's self time is its duration
minus the durations of its child spans; calls are single-threaded and
nested, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

import numpy as np

# popcount of each byte value, for the single-child share of occupancy bytes
_ONE_BIT = np.array([bin(b).count("1") == 1 for b in range(256)])


def _voxelize_counts(args, vc):
    return {"points": len(args[0]), "voxels": len(vc)}


def _serialize_counts(args, stream):
    occ = np.frombuffer(stream.data, dtype=np.uint8)
    return {"bytes": occ.size, "single_child": int(_ONE_BIT[occ].sum())}


def _forward_counts(args, coeffs):
    return {"coeffs": coeffs.count}


def _rlgr_counts(args, payload):
    values = args[0]
    if isinstance(values, list):
        zeros = values.count(0)
    else:
        zeros = int(np.count_nonzero(np.asarray(values) == 0))
    return {"values": payload.count, "zeros": zeros, "bits": 8 * len(payload.data)}


# span name -> (count hook or None, [(module, attribute), ...] where callers look it up)
LAYER_FUNCTIONS = {
    "bitstream.encode": (None, [("bitstream", "encode_cloud")]),
    "bitstream.decode": (None, [("bitstream", "decode_cloud")]),
    "bitstream.attribute_ints": (
        None, [("bitstream", "attribute_ints"), ("cli", "attribute_ints")]),
    "bitstream.decode_attributes": (
        None, [("bitstream", "decode_attributes"), ("cli", "decode_attributes")]),
    "cli.main": (None, [("cli", "main")]),
    "ingest.synth": (None, [("ingest", "synth_sweep")]),
    "ingest.load_ply": (None, [("cli", "load_ply")]),
    "voxelizer.voxelize": (_voxelize_counts, [("bitstream", "voxelize"), ("cli", "voxelize")]),
    "voxelizer.centers": (None, [("bitstream", "voxel_centers")]),
    "morton.encode": (None, [("voxelizer", "morton_encode")]),
    "morton.decode": (None, [("voxelizer", "morton_decode")]),
    "octree.build": (
        None, [("bitstream", "octree_from_leaf_codes"), ("cli", "octree_from_leaf_codes")]),
    "octree.serialize": (_serialize_counts, [("bitstream", "serialize"), ("cli", "serialize")]),
    "octree.deserialize": (None, [("bitstream", "deserialize")]),
    "raht.forward": (_forward_counts, [("bitstream", "raht_forward_arrays")]),
    "raht.inverse": (None, [("bitstream", "raht_inverse_arrays")]),
    "coeff_codec.quantize": (None, [("bitstream", "quantize")]),
    "coeff_codec.rlgr_encode": (_rlgr_counts, [("bitstream", "rlgr_encode"), ("cli", "rlgr_encode")]),
    "coeff_codec.rlgr_decode": (None, [("bitstream", "rlgr_decode"), ("cli", "rlgr_decode")]),
    "metrics.psnr": (None, [("cli", "psnr_attribute")]),
    "metrics.bd": (None, [("cli", "bd_metrics")]),
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "frame", "counts")

    def __init__(self, name, parent, frame):
        self.name = name
        self.parent = parent
        self.frame = frame
        self.start = self.end = 0.0
        self.counts = None


class Tracer:
    """Collects spans from the wrappers it installs; one per traced run."""

    def __init__(self, count_frames: int):
        self.spans: list[Span] = []
        self.frame: int | None = None
        # count hooks run on frames below this only, so counts repeat exactly per seed
        self.count_frames = count_frames
        self._stack: list[int] = []

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else None, self.frame)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if count is not None and self.frame is not None and self.frame < self.count_frames:
                span.counts = count(args, result)
            return result

        return traced

    def install(self, modules: dict) -> callable:
        """Wrap every function of LAYER_FUNCTIONS found in ``modules``
        (module short name -> module object); returns the undo function."""
        saved = []
        for name, (count, sites) in LAYER_FUNCTIONS.items():
            for mod_name, attr in sites:
                module = modules[mod_name]
                fn = getattr(module, attr, None)
                if fn is None:
                    print(f"trace: cylpc.{mod_name}.{attr} not found, not traced",
                          file=sys.stderr)
                    continue
                saved.append((module, attr, fn))
                setattr(module, attr, self.wrap(name, fn, count))

        def undo():
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

        return undo

    def roots(self) -> list[int]:
        """Index of each span's root span; parents always precede children."""
        out = []
        for i, s in enumerate(self.spans):
            out.append(i if s.parent is None else out[s.parent])
        return out

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        return [s.end - s.start - c for s, c in zip(self.spans, child)]

    def write(self, path):
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps({
                    "name": s.name, "start": s.start - t0, "end": s.end - t0,
                    "parent": s.parent, "frame": s.frame, "counts": s.counts,
                }) + "\n")
