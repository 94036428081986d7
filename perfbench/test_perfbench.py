"""Smoke test of the benchmark on tiny sweeps, through the untraced and traced paths."""

import dataclasses

import pytest

import harness

cy = harness.import_cylpc()


def tiny(name):
    wl = harness.WORKLOADS[name]
    return dataclasses.replace(wl, spec={**wl.spec, "beam_count": 8})


@pytest.mark.parametrize("name", ["frame-cyl", "rd-compare"])
def test_untraced_and_traced_runs(name, tmp_path):
    runs = [harness.run(cy, tiny(name), 3, 0, trace, tmp_path) for trace in (False, True)]
    for result in runs:
        log = result.log
        assert (log.attempted, log.failed) == (harness.MIN_OPS, 0)
        metrics = harness.end_to_end(log)
        assert set(metrics) == set(harness.END_TO_END)
        assert all(m["value"] > 0 for m in metrics.values())
        assert any(line.startswith("error_rate ") for line in harness.report_lines(result, metrics))
    # the same seed gives the same bytes, traced or not
    assert runs[0].log.digests == runs[1].log.digests
    assert len(runs[0].log.digests) == harness.MIN_OPS

    layers, lines = harness.per_layer(runs[1])
    assert set(layers) == {*harness.LAYER_TIMES, *harness.LAYER_COUNTS,
                           "ingest.synth_s", "traced.op_cost_p50"}
    assert layers["octree.build_s"]["value"] > 0
    assert layers["coeff_codec.rlgr_encode_s"]["value"] > 0
    assert layers["raht.coeffs"]["value"] > 0
    # compare does not pass through the container decoder (yet)
    assert (layers["octree.deserialize_s"]["value"] > 0) == (name == "frame-cyl")
    assert any("layer self times sum to" in line for line in lines)

    tracer = runs[1].tracer
    self_s = tracer.self_times()
    for root in {i for i in tracer.roots() if tracer.spans[i].name in harness.OP_ROOTS}:
        under = [t for i, t in zip(tracer.roots(), self_s) if i == root]
        span = tracer.spans[root]
        assert sum(under) == pytest.approx(span.end - span.start)


def test_corrupt_bitstream_is_counted(tmp_path, monkeypatch):
    encode = cy.bitstream.encode_cloud
    calls = []

    def corrupt_second_stream(*args, **kwargs):
        data, summary = encode(*args, **kwargs)
        calls.append(1)
        if len(calls) == 2:  # call 1 is the untimed warm-up
            bad = bytearray(data)
            bad[cy.bitstream.HEADER_BYTES + 8] ^= 0x01  # root occupancy byte
            data = bytes(bad)
        return data, summary

    monkeypatch.setattr(cy.bitstream, "encode_cloud", corrupt_second_stream)
    result = harness.run(cy, tiny("frame-cyl"), 3, 0, False, tmp_path)
    assert (result.log.attempted, result.log.failed) == (harness.MIN_OPS, 1)
    lines = harness.report_lines(result, harness.end_to_end(result.log))
    assert any(line.startswith("error_rate ") and "1 failed of 3" in line for line in lines)


def test_refuses_a_tree_without_cylpc(tmp_path):
    with pytest.raises(harness.SetupError):
        harness.import_cylpc(tmp_path)
