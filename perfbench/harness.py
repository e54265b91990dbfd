"""Replay, output checks and metrics for the serving benchmark.

One run serves one workload (``perfbench/workloads.py``) from one process
and one thread:

1. Set-up, several times: population, training, engine build and warm-up.
   ``setup_s`` is the median.
2. A reference replay, untimed, that also records the raw simulated-clock
   latencies and the serve-phase KV gets.  Every simulated quantity
   (delivery, shedding, probabilities, meters) is deterministic, so the
   reference fixes them all.
3. Timed replays on fresh engines until ``--seconds`` have passed.  Each is
   checked against the reference; ``us_per_request`` is the median.

With ``--trace 1`` the timed replays alternate between untraced ones and
ones whose layers are wrapped from outside by :class:`~probe.LayerProbe`,
and the run reports per-layer numbers instead.

Any failed check raises :class:`CheckFailed`: the run then exits non-zero
and prints no result.  A request shed by admission control is a measured
outcome (``served_frac``), not a failed operation; ``failed`` counts
requests whose delivery or output was wrong, and such a run never reports.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from repro.metrics import pr_auc
from repro.serving import ReplicaFleet, ServerModel, StreamProcessor, rnn_prediction_flops
from repro.serving.cost import rnn_update_flops

from . import BLAS_THREAD_VARS
from .probe import LayerProbe
from .workloads import WORKLOADS, Population, Workload, build_engine, make_events, setup_population

__all__ = ["CheckFailed", "Replay", "replay", "check_replay", "run_workload", "main"]

#: Full set-ups per run; ``setup_s`` reports their median.
SETUPS = 5
#: Timed replays per run, at least, however short ``--seconds`` is.
MIN_REPLAYS = 3


class CheckFailed(RuntimeError):
    """An output or cost-model check failed: the run reports nothing."""


@dataclass
class Replay:
    """What one replay delivered, with the meters read around it."""

    offered: int
    delivered: list
    admitted: list[int]
    shed: int
    updates: int
    kv: dict[str, int]
    span_replica_seconds: float
    wall_ns: int = 0
    serve_gets: int | None = None
    queue_latencies: list[float] = field(default_factory=list)
    update_latencies: list[float] = field(default_factory=list)

    @property
    def us_per_request(self) -> float:
        return self.wall_ns / 1e3 / self.offered


def _kv_snapshot(store) -> dict[str, int]:
    stats = store.stats
    return {
        "gets": stats.gets,
        "puts": stats.puts,
        "bytes_read": stats.bytes_read,
        "bytes_written": stats.bytes_written,
        "repair_gets": store.repair_gets,
    }


def replay(engine, events: list[tuple]) -> Replay:
    """Serve ``events`` in time order through ``engine`` and drain it.

    Only the loop from the first ``advance_to`` to the last drain is
    timed.  Admission is read per request so the harness knows, without
    trusting the engine's delivery, which requests it must see delivered.
    """
    admission = engine.admission
    server = engine.server
    first, last = events[0][0], events[-1][0]
    replica_start = 0.0
    if isinstance(server, ReplicaFleet):
        # Settling the fleet only accrues replica-seconds up to ``first``.
        server.backlog_seconds(float(first))
        replica_start = server.replica_seconds
    kv_before = _kv_snapshot(engine.store)
    updates_before = engine.updates_applied
    shed_before = admission.requests_shed if admission is not None else 0
    shed = shed_before
    delivered: list = []
    admitted: list[int] = []
    gc.collect()
    start = time.perf_counter_ns()
    for index, (timestamp, user_id, context, accessed) in enumerate(events):
        delivered += engine.advance_to(timestamp)
        delivered += engine.submit(user_id, context, timestamp)
        if admission is not None and admission.requests_shed != shed:
            shed = admission.requests_shed
        else:
            admitted.append(index)
        engine.observe_session(user_id, context, timestamp, accessed)
    if isinstance(server, ReplicaFleet):
        server.backlog_seconds(float(last))
    delivered += engine.flush()
    engine.stream.flush()
    delivered += engine.drain_completed()
    wall_ns = time.perf_counter_ns() - start
    kv_after = _kv_snapshot(engine.store)
    if isinstance(server, ReplicaFleet):
        span_replica_seconds = server.replica_seconds - replica_start
    else:
        # A fixed server is one replica for the whole arrival span.
        span_replica_seconds = float(last - first)
    return Replay(
        offered=len(events),
        delivered=delivered,
        admitted=admitted,
        shed=shed - shed_before,
        updates=engine.updates_applied - updates_before,
        kv={name: kv_after[name] - kv_before[name] for name in kv_after},
        span_replica_seconds=span_replica_seconds,
        wall_ns=wall_ns,
    )


def check_replay(result: Replay, events: list[tuple], expected_lookups: int) -> None:
    """The output and Section 9 cost-model checks; raises :class:`CheckFailed`."""
    got = [(prediction.user_id, prediction.timestamp) for prediction in result.delivered]
    want = [(events[index][1], events[index][0]) for index in result.admitted]
    if got != want:
        extra = len(got) - len(want)
        raise CheckFailed(
            f"delivery is not exactly once in submission order: {len(got)} delivered for "
            f"{len(want)} admitted ({extra:+d}), first mismatch at position "
            f"{next((i for i, (g, w) in enumerate(zip(got, want)) if g != w), min(len(got), len(want)))}"
        )
    if result.shed + len(result.delivered) != result.offered:
        raise CheckFailed(
            f"shed {result.shed} + served {len(result.delivered)} != offered {result.offered}"
        )
    if result.updates != result.offered:
        raise CheckFailed(f"updates_applied {result.updates} != offered {result.offered}")
    probabilities = np.asarray([prediction.probability for prediction in result.delivered])
    if not (np.all(np.isfinite(probabilities)) and np.all((probabilities >= 0.0) & (probabilities <= 1.0))):
        raise CheckFailed("a delivered probability is not finite or lies outside [0, 1]")
    wrong = [p.kv_lookups for p in result.delivered if p.kv_lookups != expected_lookups]
    if wrong:
        raise CheckFailed(
            f"{len(wrong)} predictions report kv_lookups {sorted(set(wrong))}, "
            f"the Section 9 cost model says {expected_lookups}"
        )
    if result.serve_gets is not None and result.serve_gets != len(result.delivered):
        raise CheckFailed(
            f"serve phase metered {result.serve_gets} KV gets for {len(result.delivered)} predictions"
        )


def check_same(result: Replay, reference: Replay) -> None:
    """A timed replay must reproduce the reference bit for bit."""
    if (
        [p.probability for p in result.delivered] != [p.probability for p in reference.delivered]
        or result.admitted != reference.admitted
        or result.kv != reference.kv
    ):
        raise CheckFailed("a replay of the same events diverged from the reference replay")


# ----------------------------------------------------------------------
# Reference replay: raw simulated latencies and serve-phase KV gets.
# ----------------------------------------------------------------------
def _capture(histogram) -> list[float]:
    """Record every value ``histogram.observe_many`` receives."""
    values: list[float] = []
    base = type(histogram)

    def observe_many(self, batch):
        batch = list(batch)
        values.extend(batch)
        base.observe_many(self, batch)

    histogram.__class__ = type(base.__name__, (base,), {"__slots__": (), "observe_many": observe_many})
    return values


def reference_replay(engine, events: list[tuple]) -> Replay:
    """:func:`replay`, also recording raw latencies and serve-phase KV gets."""
    queue_latencies = _capture(engine.metrics.histogram("queue.latency_seconds"))
    update_latencies = _capture(engine.metrics.histogram("serving.update_latency_seconds"))
    store = engine.store
    backend_predict = engine.backend.predict_batch
    serve_gets = 0

    def predict_batch(requests):
        nonlocal serve_gets
        before = store.stats.gets
        predictions = backend_predict(requests)
        serve_gets += store.stats.gets - before
        return predictions

    engine.backend.predict_batch = predict_batch
    result = replay(engine, events)
    result.serve_gets = serve_gets
    result.queue_latencies = queue_latencies
    result.update_latencies = update_latencies
    for name, values in (
        ("queue.latency_seconds", queue_latencies),
        ("serving.update_latency_seconds", update_latencies),
    ):
        if len(values) != engine.metrics.histogram(name).count:
            raise CheckFailed(f"captured {len(values)} values of {name}, the histogram counted otherwise")
    return result


def quantile(values: list[float], q: float) -> float:
    """Exact nearest-rank quantile."""
    ordered = sorted(values)
    return float(ordered[max(math.ceil(q * len(ordered)), 1) - 1])


# ----------------------------------------------------------------------
# Traced replays: outside-in layer attribution.
# ----------------------------------------------------------------------
TRACER_HOOKS = (
    "request_enqueued", "begin_predict", "end_predict", "session_published",
    "begin_wave", "end_wave", "kv_op", "admission_event", "control_event",
)


def _rows(args, result) -> int:
    return len(args[1])


def traced_stream(probe: LayerProbe) -> StreamProcessor:
    """A stream whose public calls, timer registrations and wave deliveries are wrapped.

    Built before the engine so the backend's timer group (created at
    backend construction) is wrapped too; the group callback is the
    backend's wave entry, attributed to the backend.
    """
    stream = StreamProcessor()
    probe.instrument(stream, "stream", ("publish", "advance_to", "flush", "next_timer_at"))
    make_group = stream.timer_group

    def timer_group(callback):
        group = make_group(probe.wrap("backend.deliver_wave", callback, lambda args, _: len(args[0])))
        probe.instrument(group, "stream", ("set_timer",))
        return group

    stream.timer_group = timer_group
    return stream


def instrument_engine(probe: LayerProbe, engine, population: Population) -> None:
    """Wrap the public callables of every layer of a built, warmed engine."""
    probe.instrument(engine, "engine", ("advance_to", "submit", "observe_session", "flush", "drain_completed"))
    probe.instrument(engine.queue, "queue", ("submit", "advance_to", "flush", "drain_completed"))
    probe.instrument(
        engine.backend, "backend", ("predict_batch", "observe_session", "apply_wave"),
        {"predict_batch": _rows, "apply_wave": _rows},
    )
    kv_calls = ("get", "put", "get_many", "put_many", "gather_states", "scatter_states", "peek", "put_unmetered")
    probe.instrument(engine.store, "kv", kv_calls)
    for name in engine.metrics.names():
        instrument = engine.metrics.get(name)
        hooks = [hook for hook in ("observe", "observe_many", "inc", "set") if hasattr(instrument, hook)]
        probe.instrument(instrument, "telemetry", hooks)
    if engine.admission is not None:
        probe.instrument(engine.admission, "slo", ("admit", "readmit", "violations", "record_shed"))
    if isinstance(engine.server, ReplicaFleet):
        probe.instrument(engine.server, "autoscale", ("process", "backlog_seconds", "queue_depth", "scale_to"))
    elif isinstance(engine.server, ServerModel):
        probe.instrument(engine.server, "slo", ("process", "backlog_seconds", "queue_depth"))
    if engine.autoscaler is not None:
        probe.instrument(engine.autoscaler, "autoscale", ("evaluate",))
        probe.instrument(engine.autoscaler.policy, "autoscale", ("desired_replicas",))
    if engine.tracer.enabled:
        probe.instrument(engine.tracer, "tracing", TRACER_HOOKS)
    if population.network is not None:
        probe.instrument(
            population.network, "nn",
            ("predict_proba_batch", "update_hidden_batch", "build_predict_inputs", "build_update_inputs"),
            {"predict_proba_batch": _rows, "update_hidden_batch": _rows},
        )
        probe.instrument(population.builder, "features", ("encode_context_rows",), {"encode_context_rows": _rows})
    else:
        probe.instrument(population.featurizer, "features", ("transform_user",))
        probe.instrument(
            population.estimator, "ml", ("predict_proba",),
            {"predict_proba": lambda args, result: len(result)},
        )


def traced_replay(workload: Workload, population: Population, events: list[tuple]):
    """One replay with every layer wrapped; returns ``(replay, probe, engine)``."""
    probe = LayerProbe()
    engine = build_engine(workload, population, events, stream=traced_stream(probe))
    instrument_engine(probe, engine, population)
    try:
        with probe.region():
            result = replay(engine, events)
    finally:
        probe.restore()
    return result, probe, engine


def layer_metrics(workload: Workload, population: Population, result: Replay, probe: LayerProbe, engine) -> dict[str, float]:
    """Per-layer numbers of one traced replay; times are µs per offered request."""
    n = result.offered

    def us(*labels: str) -> float:
        return sum(probe.get(label).self_ns for label in labels) / 1e3 / n

    def layer_us(layer: str) -> float:
        return probe.layer_self_ns().get(layer, 0) / 1e3 / n

    def layer_calls(layer: str) -> float:
        return float(sum(record.calls for label, record in probe.stats.items() if label.startswith(layer + ".")))

    def per_call(label: str) -> float:
        record = probe.get(label)
        return record.items / record.calls if record.calls else 0.0

    def gflop_rate(label: str, flops_per_row) -> float:
        """Achieved rate of a kernel against the cost model's FLOPs per row."""
        record = probe.get(label)
        return flops_per_row(population.network) * record.items / record.self_ns if record.self_ns else 0.0

    queue = engine.queue
    fleet = engine.server if isinstance(engine.server, ReplicaFleet) else None
    tracer = engine.tracer
    return {
        "queue.batches": float(queue.batches_flushed),
        "queue.mean_batch": queue.mean_batch_size,
        "queue.fill_ratio": queue.mean_batch_size / workload.batch_size,
        "queue.self_us": layer_us("queue"),
        "stream.publish_calls": float(probe.get("stream.publish").calls),
        "stream.waves": float(probe.get("backend.deliver_wave").calls),
        "stream.mean_wave": per_call("backend.deliver_wave"),
        "stream.next_timer_at_calls": float(probe.get("stream.next_timer_at").calls),
        "stream.next_timer_at_us": us("stream.next_timer_at"),
        "stream.advance_self_us": us("stream.advance_to", "stream.flush"),
        "backend.predict_self_us": us("backend.predict_batch"),
        "backend.update_self_us": us("backend.apply_wave", "backend.deliver_wave"),
        "backend.observe_self_us": us("backend.observe_session"),
        "backend.rows_per_gru_step": per_call("nn.update_hidden_batch"),
        "nn.predict_us": us("nn.predict_proba_batch", "nn.build_predict_inputs"),
        "nn.update_us": us("nn.update_hidden_batch", "nn.build_update_inputs"),
        "nn.predict_rows_per_call": per_call("nn.predict_proba_batch"),
        "nn.flops_per_prediction": rnn_prediction_flops(population.network) if population.network is not None else 0.0,
        "nn.predict_gflops": gflop_rate("nn.predict_proba_batch", rnn_prediction_flops),
        "nn.update_gflops": gflop_rate("nn.update_hidden_batch", rnn_update_flops),
        "features.encode_us": us("features.encode_context_rows"),
        "features.encode_calls": float(probe.get("features.encode_context_rows").calls),
        "features.transform_us": us("features.transform_user"),
        "ml.predict_proba_us": us("ml.predict_proba"),
        "kv.gets_per_request": result.kv["gets"] / n,
        "kv.puts_per_request": result.kv["puts"] / n,
        "kv.us": layer_us("kv"),
        "kv.repair_gets": float(result.kv["repair_gets"]),
        "kv.load_imbalance": engine.store.load_imbalance(),
        "telemetry.observe_calls": layer_calls("telemetry"),
        "telemetry.us": layer_us("telemetry"),
        "slo.admit_us": us("slo.admit", "slo.readmit", "slo.violations", "slo.record_shed"),
        "slo.server_us": us("slo.process", "slo.backlog_seconds", "slo.queue_depth"),
        "slo.shed": float(result.shed),
        "autoscale.ticks": float(engine.autoscaler.evaluations if engine.autoscaler is not None else 0),
        "autoscale.us": layer_us("autoscale"),
        "autoscale.scale_events": float(fleet.scale_up_events + fleet.scale_down_events if fleet else 0),
        "tracing.hook_calls": layer_calls("tracing"),
        "tracing.us": layer_us("tracing"),
        "tracing.sampled_frac": len(tracer.roots()) / len(result.admitted) if tracer.enabled else 0.0,
        "engine.self_us": layer_us("engine"),
        "harness.self_us": probe.unattributed_ns / 1e3 / n,
    }


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------
METRIC_UNITS = {
    "setup_s": "s",
    "us_per_request": "us",
    "peak_rss_mb": "MB",
    "served_frac": "fraction",
    "pr_auc": "ratio",
    "kv_lookups_per_prediction": "count",
    "kv_bytes_per_request": "bytes",
    "queue_p50_s": "sim_s",
    "queue_p99_s": "sim_s",
    "replica_s_per_request": "sim_s",
}


def expected_lookups(population: Population) -> int:
    return 1 if population.network is not None else population.featurizer.n_lookup_groups


def end_to_end(reference: Replay, events: list[tuple]) -> tuple[dict[str, float], dict[str, int]]:
    """The deterministic end-to-end metrics, and the sample count behind each quantile."""
    delivered = reference.delivered
    labels = np.asarray([events[index][3] for index in reference.admitted], dtype=float)
    scores = np.asarray([prediction.probability for prediction in delivered])
    metrics = {
        "served_frac": len(delivered) / reference.offered,
        "pr_auc": float(pr_auc(labels, scores)),
        "kv_lookups_per_prediction": float(np.mean([p.kv_lookups for p in delivered])),
        "kv_bytes_per_request": (reference.kv["bytes_read"] + reference.kv["bytes_written"]) / reference.offered,
        "queue_p50_s": quantile(reference.queue_latencies, 0.50),
        "queue_p99_s": quantile(reference.queue_latencies, 0.99),
        "replica_s_per_request": reference.span_replica_seconds / reference.offered,
    }
    samples = {
        "queue_p50_s": len(reference.queue_latencies),
        "queue_p99_s": len(reference.queue_latencies),
        "update_lag_p99_s": len(reference.update_latencies),
    }
    return metrics, samples


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict[str, str]:
    return {
        "nproc": str(os.cpu_count()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **{var: os.environ.get(var, "unset") for var in BLAS_THREAD_VARS},
    }


def _timed_loop(seconds: float, body) -> None:
    """Call ``body()`` until ``seconds`` have passed, at least MIN_REPLAYS times."""
    deadline = time.perf_counter() + seconds
    done = 0
    while done < MIN_REPLAYS or time.perf_counter() < deadline:
        body()
        done += 1


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; prints the table and returns the result object."""
    setup_times = []
    engine = None
    for _ in range(1 if trace else SETUPS):
        if engine is not None:
            engine.close()
        start = time.perf_counter()
        population = setup_population(workload)
        elapsed = time.perf_counter() - start
        events = make_events(workload, population, seed)
        start = time.perf_counter()
        engine = build_engine(workload, population, events)
        setup_times.append(elapsed + time.perf_counter() - start)
    lookups = expected_lookups(population)
    reference = reference_replay(engine, events)
    engine.close()
    check_replay(reference, events, lookups)
    metrics, samples = end_to_end(reference, events)
    update_lag_p99 = quantile(reference.update_latencies, 0.99)

    untraced: list[float] = []
    traced_us: list[float] = []
    traced: list[dict[str, float]] = []
    last_probe: list[LayerProbe] = []

    def untraced_replay() -> None:
        engine = build_engine(workload, population, events)
        result = replay(engine, events)
        engine.close()
        check_replay(result, events, lookups)
        check_same(result, reference)
        untraced.append(result.us_per_request)

    def untraced_then_traced() -> None:
        untraced_replay()
        result, probe, engine = traced_replay(workload, population, events)
        engine.close()
        check_replay(result, events, lookups)
        check_same(result, reference)
        traced_us.append(result.us_per_request)
        traced.append(layer_metrics(workload, population, result, probe, engine))
        last_probe[:] = [probe]

    _timed_loop(seconds, untraced_then_traced if trace else untraced_replay)

    print(f"workload {workload.name}: {workload.why}")
    print("environment " + " ".join(f"{key}={value}" for key, value in environment().items()))
    print(f"seed {seed}, {reference.offered} requests offered, {len(untraced)} untraced replays"
          + (f", {len(traced_us)} traced replays" if trace else f", {len(setup_times)} set-ups"))
    print("  us/request per untraced replay: " + " ".join(f"{value:.2f}" for value in untraced))
    if trace:
        print("  us/request per traced replay:   " + " ".join(f"{value:.2f}" for value in traced_us))
        layer = {key: statistics.median(run[key] for run in traced) for key in traced[0]}
        layer["backend.update_lag_p99_s"] = update_lag_p99
        layer["trace.overhead_frac"] = statistics.median(traced_us) / statistics.median(untraced) - 1.0
        _print_attribution(last_probe[0], reference.offered)
        for key, value in layer.items():
            print(f"  {key:32s} {value:14.4f} {layer_unit(key)}")
        reported = {key: {"value": value, "unit": layer_unit(key)} for key, value in layer.items()}
    else:
        print("  set-up seconds: " + " ".join(f"{value:.3f}" for value in setup_times))
        metrics["setup_s"] = statistics.median(setup_times)
        metrics["us_per_request"] = statistics.median(untraced)
        metrics["peak_rss_mb"] = peak_rss_mb()
        for key, unit in METRIC_UNITS.items():
            note = f"  (n={samples[key]})" if key in samples else ""
            print(f"  {key:28s} {metrics[key]:14.6f} {unit}{note}")
        print(f"  {'update_lag_p99_s':28s} {update_lag_p99:14.6f} sim_s  (n={samples['update_lag_p99_s']})")
        reported = {key: {"value": metrics[key], "unit": unit} for key, unit in METRIC_UNITS.items()}
    attempted = reference.offered * (1 + len(untraced) + len(traced_us))
    return {"correct": True, "attempted": attempted, "failed": 0, "metrics": reported}


#: Per-layer units by name suffix; anything else is a count.
LAYER_UNITS = {
    ("_us", ".us"): "us",
    ("_s",): "sim_s",
    ("_frac", "_ratio"): "fraction",
    ("_imbalance",): "ratio",
    ("_per_prediction",): "flops",
    ("_gflops",): "GFLOP/s",
}


def layer_unit(key: str) -> str:
    for suffixes, unit in LAYER_UNITS.items():
        if key.endswith(suffixes):
            return unit
    return "count"


def _print_attribution(probe: LayerProbe, offered: int) -> None:
    """Self time per wrapped callable and per layer, as shares of the replay wall."""
    wall = probe.wall_ns
    print(f"traced replay wall {wall / 1e6:.1f} ms; self time by callable (largest first):")
    rows = sorted(probe.stats.items(), key=lambda item: item[1].self_ns, reverse=True)
    for label, record in rows[:15]:
        print(f"  {label:34s} {record.self_ns / 1e3 / offered:9.3f} us/req {record.self_ns / wall:7.1%}"
              f"  calls={record.calls}")
    print(f"  {'(replay loop)':34s} {probe.unattributed_ns / 1e3 / offered:9.3f} us/req"
          f" {probe.unattributed_ns / wall:7.1%}")
    shares = sorted(probe.layer_self_ns().items(), key=lambda item: item[1], reverse=True)
    print("layer self shares: " + ", ".join(f"{layer} {ns / wall:.1%}" for layer, ns in shares))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except CheckFailed as error:
        print(f"check failed: {error}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0
