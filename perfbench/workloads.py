"""The benchmark's workloads: seeded event lists plus the engine that serves them.

Every workload serves the ``mobiletab`` population (120 users, the registry
default) with Zipf(1.1) user popularity.  The population and the trained
models are fixed (seed 0): they are the system under test.  The workload
seed drives only the generated inputs: arrival times, which user arrives,
and where in that user's logged session sequence the replay starts (the
user's sessions, with their context and access label, then replay in log
order).  The engine receives nothing but the event list.

Every engine gets a simulated capacity model (a fixed ``ServerModel`` or,
on ``autoscale_ramp``, an elastic ``ReplicaFleet``), because the latency a
user of this system sees is simulated time spent queued for that capacity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.data import make_dataset, sessions_in_time_order
from repro.models import GBDTModel, RNNModel, RNNModelConfig, TaskSpec
from repro.serving import (
    EngineConfig,
    ServerModel,
    ServingEngine,
    SessionUpdate,
    SloPolicy,
    StreamProcessor,
)

__all__ = ["Workload", "WORKLOADS", "Population", "setup_population", "make_events", "build_engine"]

N_USERS = 120
ZIPF_SKEW = 1.1
MODEL_SEED = 0
#: Requests start this long after the logged history ends (the warm-up).
START_GAP = 3600


@dataclass(frozen=True)
class Workload:
    """One traffic mix: arrival shape, engine shape and capacity."""

    name: str
    why: str
    backend: str
    arrivals: str  # "poisson" | "bursts" | "ramp"
    n_requests: int
    batch_size: int
    replication: int = 1
    n_shards: int = 4
    rate: float = 20.0  # poisson: requests per simulated second
    burst_size: int = 256
    burst_spacing: int = 30
    # Requests/s at the start and end of the ramp.  The peak sits far enough
    # past a full fleet (3 x 0.5 req/s) that most admitted requests queue at
    # the shedding depth, keeping the median latency off the saturation knee.
    ramp: tuple[float, float] = (0.3, 5.5)
    service_rate: float = 25.0  # requests/s (per replica on a fleet)
    max_replicas: int = 0  # > 0: elastic fleet under the predictive autoscaler
    shed_depth: int = 0  # > 0: shedding admission at this effective depth
    sample_pct: int = 0  # > 0: request tracing at this sampling rate

    @property
    def fleet(self) -> bool:
        return self.max_replicas > 0


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="organic",
            why="steady Poisson mix at batch 64: cost sits in the wave GRU update and the stream, the predict path is amortized",
            backend="hidden_state",
            arrivals="poisson",
            n_requests=40_000,
            batch_size=64,
        ),
        Workload(
            name="push_burst",
            why="256-session bursts at batch 1 on r=3: singleton predict overhead, ~256-row update waves, replicated KV reads",
            backend="hidden_state",
            arrivals="bursts",
            n_requests=256 * 120,
            batch_size=1,
            replication=3,
            service_rate=12.8,
        ),
        Workload(
            name="autoscale_ramp",
            why="ramp past a 3-replica fleet: predictive autoscaler, shedding admission and 10% request tracing all run",
            backend="hidden_state",
            arrivals="ramp",
            n_requests=8_000,
            batch_size=8,
            service_rate=0.5,
            max_replicas=3,
            shed_depth=64,
            sample_pct=10,
        ),
        Workload(
            name="aggregation_baseline",
            why="the paper's GBDT aggregation path: ~20 lookups per prediction, the cost baseline the RNN path is judged against",
            backend="aggregation",
            arrivals="poisson",
            n_requests=6_000,
            batch_size=64,
        ),
    )
}


@dataclass
class Population:
    """The fixed serving population and the models trained on it."""

    dataset: Any
    network: Any = None
    builder: Any = None
    featurizer: Any = None
    estimator: Any = None

    @property
    def start(self) -> int:
        """First request second: an hour after the logged history ends."""
        return int(self.dataset.end_time) + START_GAP


def setup_population(workload: Workload) -> Population:
    """Generate the population and train the model the workload serves."""
    dataset = make_dataset("mobiletab", seed=MODEL_SEED, n_users=N_USERS)
    task = TaskSpec(kind="session")
    if workload.backend == "hidden_state":
        rnn = RNNModel(
            RNNModelConfig(hidden_size=48, epochs=10, early_stopping_patience=None, seed=MODEL_SEED)
        ).fit(dataset, task)
        return Population(dataset, network=rnn.network, builder=rnn.builder)
    gbdt = GBDTModel(depths=(3,)).fit(dataset, task)
    return Population(dataset, featurizer=gbdt.featurizer, estimator=gbdt.estimator)


def _arrival_offsets(workload: Workload, rng: np.random.Generator) -> np.ndarray:
    n = workload.n_requests
    if workload.arrivals == "poisson":
        gaps = rng.exponential(1.0 / workload.rate, n)
    elif workload.arrivals == "ramp":
        gaps = rng.exponential(1.0 / np.linspace(*workload.ramp, n))
    else:
        bursts = np.arange(-(-n // workload.burst_size), dtype=np.int64) * workload.burst_spacing
        return np.repeat(bursts, workload.burst_size)[:n]
    return np.floor(gaps.cumsum()).astype(np.int64)


def make_events(workload: Workload, population: Population, seed: int) -> list[tuple]:
    """``(timestamp, user_id, context, accessed)`` tuples in time order."""
    rng = np.random.default_rng(seed)
    users = [user for user in population.dataset.users if len(user)]
    popularity = 1.0 / np.arange(1, len(users) + 1) ** ZIPF_SKEW
    arrivals = population.start + _arrival_offsets(workload, rng)
    chosen = rng.choice(len(users), size=len(arrivals), p=popularity / popularity.sum())
    cursors = [int(rng.integers(len(user))) for user in users]
    events = []
    for arrival, index in zip(arrivals, chosen):
        user = users[index]
        session = cursors[index] % len(user)
        cursors[index] += 1
        events.append(
            (int(arrival), user.user_id, user.context_row(session), bool(user.accesses[session]))
        )
    return events


def build_engine(
    workload: Workload,
    population: Population,
    events: list[tuple],
    stream: StreamProcessor | None = None,
) -> ServingEngine:
    """Build the workload's engine and warm every user's state with the full log.

    Warm-up applies every logged session in time order through the
    backend's wave entry point, then resets the store meters, so a replay
    starts from realistic per-user state (hidden states or 28-day
    histories) with clean traffic counters.  ``stream`` lets a caller
    supply the (already instrumented) stream the engine is built on.
    """
    dataset = population.dataset
    fields: dict[str, Any] = dict(
        backend=workload.backend,
        max_batch_size=workload.batch_size,
        n_shards=workload.n_shards,
        replication=workload.replication,
        session_length=dataset.session_length,
        coalesce_updates=True,
    )
    build: dict[str, Any] = {}
    if workload.backend == "hidden_state":
        build.update(network=population.network, builder=population.builder)
    else:
        fields["defer_updates"] = True
        build.update(
            featurizer=population.featurizer, estimator=population.estimator, schema=dataset.schema
        )
    if workload.fleet:
        first, last = events[0][0], events[-1][0]
        fields["autoscale"] = {
            "policy": "predictive",
            "service_rate": workload.service_rate,
            "start": first + 60,
            "until": last,
            "interval": 60,
            "max_replicas": workload.max_replicas,
            "provision_delay": 120,
            "decommission_delay": 30,
        }
    else:
        build["server"] = ServerModel(workload.service_rate)
    if workload.shed_depth:
        build.update(slo_policy=SloPolicy(max_queue_depth=workload.shed_depth), admission_mode="shed")
    if workload.sample_pct:
        fields["tracing"] = {"sample_pct": workload.sample_pct}
    engine = ServingEngine.build(EngineConfig(**fields), stream=stream or StreamProcessor(), **build)
    engine.backend.apply_wave(
        [
            SessionUpdate(user.user_id, timestamp, user.context_row(index), bool(user.accesses[index]))
            for timestamp, user, index in sessions_in_time_order(dataset.users)
        ]
    )
    engine.store.reset_stats()
    return engine

