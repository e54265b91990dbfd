"""Self-tests of the benchmark harness: attribution arithmetic and output checks."""

from __future__ import annotations

import dataclasses

import pytest

from perfbench.harness import (
    CheckFailed,
    check_replay,
    expected_lookups,
    layer_metrics,
    reference_replay,
    traced_replay,
)
from perfbench.probe import LayerProbe
from repro.models.rnn import RNNPrecomputeNetwork
from perfbench.workloads import WORKLOADS, build_engine, make_events, setup_population


class _Toy:
    __slots__ = ("depth",)

    def __init__(self) -> None:
        self.depth = 0

    def outer(self, n: int) -> int:
        return sum(self.inner(i) for i in range(n)) + self.size

    def inner(self, i: int) -> int:
        return i * i

    @property
    def size(self) -> int:
        return 1


def test_probe_self_times_tile_nested_calls_and_restore_the_class():
    toy, other = _Toy(), _Toy()
    probe = LayerProbe()
    probe.instrument(toy, "toy", ("outer", "inner", "size"))
    with probe.region():
        assert toy.outer(5) == 31
        assert other.outer(2) == 2  # another instance stays unwrapped
    outer, inner, size = (probe.get(f"toy.{name}") for name in ("outer", "inner", "size"))
    assert (outer.calls, inner.calls, size.calls) == (1, 5, 1)
    assert outer.self_ns == outer.inclusive_ns - inner.inclusive_ns - size.inclusive_ns
    assert probe.attributed_ns == outer.inclusive_ns
    assert sum(record.self_ns for record in probe.stats.values()) == probe.attributed_ns
    assert probe.attributed_ns + probe.unattributed_ns == probe.wall_ns
    with pytest.raises(ValueError):
        probe.instrument(toy, "toy", ("inner",))  # wrappers would nest
    probe.restore()
    assert type(toy) is _Toy


@pytest.fixture(scope="module")
def small_organic():
    workload = dataclasses.replace(WORKLOADS["organic"], n_requests=600)
    population = setup_population(workload)
    events = make_events(workload, population, seed=3)
    return workload, population, events


def test_outside_in_self_times_tile_the_replay_wall_time(small_organic):
    workload, population, events = small_organic
    result, probe, engine = traced_replay(workload, population, events)
    engine.close()
    assert type(population.network) is RNNPrecomputeNetwork  # the probe restored it
    records = probe.stats.values()
    assert all(record.self_ns >= 0 for record in records)
    assert probe.unattributed_ns >= 0
    assert sum(record.self_ns for record in records) + probe.unattributed_ns == probe.wall_ns
    layers = probe.layer_self_ns()
    for layer in ("queue", "stream", "backend", "nn", "features", "kv", "telemetry", "slo"):
        assert layers.get(layer, 0) > 0, layer
    metrics = layer_metrics(workload, population, result, probe, engine)
    assert metrics["stream.publish_calls"] == 2 * len(events)
    assert metrics["kv.gets_per_request"] == 2.0  # one predict fetch plus one update fetch


def test_output_checks_reject_dropped_and_duplicated_predictions(small_organic):
    workload, population, events = small_organic
    engine = build_engine(workload, population, events)
    result = reference_replay(engine, events)
    engine.close()
    lookups = expected_lookups(population)
    check_replay(result, events, lookups)
    delivered = result.delivered

    def rejected(**changes) -> bool:
        try:
            check_replay(dataclasses.replace(result, **changes), events, lookups)
        except CheckFailed:
            return True
        return False

    assert rejected(delivered=delivered[:-1])
    assert rejected(delivered=delivered[:10] + delivered[9:])
    assert rejected(delivered=delivered[:10] + delivered[11:] + delivered[10:11])
    assert rejected(updates=result.updates - 1)
    assert rejected(serve_gets=result.serve_gets + 1)
    assert rejected(delivered=[dataclasses.replace(delivered[0], probability=1.5)] + delivered[1:])
    assert rejected(delivered=[dataclasses.replace(delivered[0], kv_lookups=20)] + delivered[1:])
