"""Tests of the benchmark itself: generator, output gate and tracer.

    python3 -m pytest perfbench
"""

import dataclasses
import io
import itertools
import sys
from contextlib import redirect_stderr

import numpy as np
import pytest

import holoquant as hq
from holoquant import cli

import run
import tracer as tracing
import workloads

POINT = workloads.WORKLOAD_TABLE["point"]


def keys(name, seed, count):
    stream = workloads.schedule(workloads.WORKLOAD_TABLE[name], seed)
    return [item.request.key for item in itertools.islice(stream, count)]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_same_requests(name):
    assert keys(name, 5, 40) == keys(name, 5, 40)
    assert keys(name, 5, 40) != keys(name, 6, 40)


def test_options_are_joined_and_negative_values_parse():
    matrix = workloads.WORKLOAD_TABLE["matrix"]
    grid = workloads.WORKLOAD_TABLE["grid"]
    requests = [r for index in range(3) for unit in matrix.round_requests(index)
                for r in unit if r.argv[1:] and "=-" in " ".join(r.argv)
                and r.argv[-1] == "--truncation=64"]
    requests.append(min((u[0] for u in grid.round_requests(0)),
                        key=lambda r: len(r.argv[1])))
    assert requests and any("--x-min=-" in " ".join(r.argv) for r in requests)
    for request in requests:
        assert all(a.startswith("--") and "=" in a for a in request.argv[1:])
        assert request()  # raises RequestFailed on a non-zero exit code
    # the split form is what the generator avoids: argparse takes the
    # value for an unknown flag
    with redirect_stderr(io.StringIO()):
        assert cli.run(["kernel", "--space", "bergman", "--z", "-0.2,0.1",
                        "--w", "0,0"]) == 2


def point_items(count):
    """``count`` pool requests of seed 3, past the (slow) fixed one."""
    stream = workloads.schedule(POINT, 3)
    return list(itertools.islice(stream, 1, 1 + count))


def gate():
    return run.Gate(run.HERE / "digests" / "point.json")


def test_recorded_outputs_pass_the_gate():
    tally = run.closed_loop(point_items(30), gate())
    assert (tally.attempted, tally.failed) == (30, 0)


class _OneByteOff:
    def __init__(self, request):
        self.request = request
        self.key = request.key

    def __call__(self):
        text = workloads.render(self.request())
        return text[:-1] + chr(ord(text[-1]) ^ 1)


class _Raises:
    key = "raises"

    def __call__(self):
        raise RuntimeError("boom")


@pytest.mark.parametrize("bad", [_OneByteOff, lambda request: _Raises()])
def test_one_bad_request_is_exactly_one_failure(bad):
    items = point_items(20)
    items[7] = dataclasses.replace(items[7], request=bad(items[7].request))
    tally = run.closed_loop(items, gate())
    assert (tally.attempted, tally.failed) == (20, 1)
    assert items[7].request.key in tally.failures[0]


def test_changed_request_text_is_reported_as_drift():
    items = point_items(5)
    items[2] = dataclasses.replace(items[2], round_key="0" * 16)
    tally = run.closed_loop(items, gate())
    assert tally.failed == 1 and "generation differs" in tally.failures[0]


def test_spans_nest_across_module_bindings():
    psi = hq.WaveFunction(np.array([1.0, 0.5]), 1.0)
    quantize_module = sys.modules["holoquant.quantize"]
    original = quantize_module.gauss_hermite
    with tracing.Tracer() as tracer:
        assert quantize_module.gauss_hermite is not original
        tracer.request(0, lambda: hq.transform_C(psi, 0.3 + 0.1j))
    assert quantize_module.gauss_hermite is original
    by_name = {span.name: span for span in tracer.spans}
    assert by_name["gauss_hermite"].parent == by_name["transform_C"].id
    assert by_name["transform_C"].parent == by_name["request"].id
    assert by_name["gauss_hermite"].note[1] == 110


def test_layer_self_times_sum_to_request_time():
    items = point_items(60)
    with tracing.Tracer() as tracer:
        tally = run.closed_loop(items, gate(), tracer=tracer)
    assert tally.failed == 0
    metrics = tracing.layer_metrics(tracer.spans)
    layers = tracing.LAYERS + (tracing.REQUEST,)
    total = sum(metrics[layer + ".self_s"] for layer in layers)
    assert total == pytest.approx(metrics["request.total_s"], rel=1e-9)
    assert sum(metrics[layer + ".share"] for layer in layers) == pytest.approx(1.0)
    assert metrics["quadrature.calls"] > 0 and metrics["cli.calls"] == 0
    assert 0.0 < metrics["quadrature.distinct_ratio"] <= 1.0


def test_memory_peaks_cover_nested_calls():
    psi = hq.WaveFunction(np.ones(21) / np.sqrt(21), 1.0)
    grid = np.linspace(-3, 3, 200)[:, None] + 1j * np.linspace(-3, 3, 200)[None, :]
    import tracemalloc
    tracemalloc.start()
    try:
        with tracing.Tracer(memory=True) as tracer:
            tracer.request(0, lambda: hq.husimi(psi, grid))
    finally:
        tracemalloc.stop()
    husimi = next(s for s in tracer.spans if s.name == "husimi")
    request = next(s for s in tracer.spans if s.name == "request")
    # the (21, 200, 200) complex basis table alone is 13.4 MB
    assert husimi.peak >= 21 * 200 * 200 * 16
    assert request.peak >= husimi.peak


def test_tail_percentile_leaves_ten_samples_above():
    latencies = list(range(100))
    value, percentile = run.percentile_tail(latencies)
    assert sum(x > value for x in latencies) == 10
    assert percentile == 90.0
