"""Every layer the benchmark tracer times is still found, and called, in cylpc.

The tracer in ``perfbench/spans.py`` wraps each layer function where its
callers look it up (``cylpc.<module>.<attr>``) and skips a site it cannot
find. A renamed or moved function, or a caller that stops going through
the wrapped name, would make that layer read zero in a traced run; these
tests fail instead.
"""

import importlib
import importlib.util
import math
from pathlib import Path

import pytest

from cylpc import CoordinateSystem, bitstream, cli
from cylpc.ingest import SweepSpec, synth_sweep, write_ply

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _layer_functions() -> dict:
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYER_FUNCTIONS


LAYER_FUNCTIONS = _layer_functions()


def test_tracer_lists_layers():
    assert len(LAYER_FUNCTIONS) >= 21


@pytest.mark.parametrize("span", sorted(LAYER_FUNCTIONS))
def test_span_resolves_to_a_cylpc_function(span):
    _, sites = LAYER_FUNCTIONS[span]
    found = [
        f"cylpc.{module}.{attr}"
        for module, attr in sites
        if callable(getattr(importlib.import_module(f"cylpc.{module}"), attr, None))
    ]
    assert found, f"no site of span {span!r} exists: {sites}"


# spans that every encode_cloud + decode_cloud of a frame passes through
FRAME_SPANS = [
    "voxelizer.voxelize", "morton.encode", "morton.decode", "octree.build",
    "octree.serialize", "octree.deserialize", "voxelizer.centers", "raht.forward",
    "raht.inverse", "coeff_codec.quantize", "coeff_codec.rlgr_encode",
    "coeff_codec.rlgr_decode",
]


@pytest.fixture
def calls(monkeypatch):
    """Calls per span, counted at every site of every span while a test runs."""
    counts = dict.fromkeys(LAYER_FUNCTIONS, 0)

    def counted(span, fn):
        def wrapper(*args, **kwargs):
            counts[span] += 1
            return fn(*args, **kwargs)
        return wrapper

    for span, (_, sites) in LAYER_FUNCTIONS.items():
        for mod_name, attr in sites:
            module = importlib.import_module(f"cylpc.{mod_name}")
            if hasattr(module, attr):
                monkeypatch.setattr(module, attr, counted(span, getattr(module, attr)))
    return counts


def tiny_sweep():
    return synth_sweep(SweepSpec(beam_count=8, azimuth_step=2.0 * math.pi / 120.0))


@pytest.mark.parametrize("system,depth,log_radial", [
    ("cartesian", 9, False), ("cylindrical", 8, False), ("cylindrical", 8, True),
])
def test_frame_calls_every_traced_site(calls, system, depth, log_radial):
    # a site the codec stops calling through (say, a table lookup inlined in
    # place of morton_encode) still resolves, but its span would read zero
    data, _ = bitstream.encode_cloud(tiny_sweep(), CoordinateSystem(system), depth,
                                     qstep=4.0, log_radial=log_radial)
    bitstream.decode_cloud(data)
    assert set(FRAME_SPANS) <= set(LAYER_FUNCTIONS)
    assert calls["bitstream.encode"] == calls["bitstream.decode"] == 1
    assert not [span for span in FRAME_SPANS if calls[span] == 0]


# spans that one ``cylpc compare`` of a PLY passes through
COMPARE_SPANS = [
    "cli.main", "ingest.load_ply", "voxelizer.voxelize", "morton.encode", "octree.build",
    "octree.serialize", "raht.forward", "raht.inverse", "coeff_codec.quantize",
    "coeff_codec.rlgr_encode", "bitstream.decode_attributes", "metrics.psnr", "metrics.bd",
]


def test_compare_calls_every_traced_site(calls, tmp_path, capsys):
    ply = tmp_path / "frame.ply"
    write_ply(ply, tiny_sweep(), binary=True)
    code = cli.main(["compare", str(ply), "--log-radial", "--csv", str(tmp_path / "rd.csv")])
    assert code == 0, capsys.readouterr().err
    assert set(COMPARE_SPANS) <= set(LAYER_FUNCTIONS)
    assert calls["cli.main"] == 1
    assert not [span for span in COMPARE_SPANS if calls[span] == 0]
