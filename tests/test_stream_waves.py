"""Property suite for the wave-coalesced timer scheduler.

Randomized timer/publish interleavings (explicit seeds, many trials) pin the
claims the serving engine leans on:

* **Order** — wave delivery is a pure regrouping: the flattened firing
  sequence equals the per-timer sequence exactly, and intra-wave ordering is
  deterministic (fire timestamp first, then registration order), replay
  after replay.
* **Equivalence** — replaying the same session stream through the hidden
  state engine with wave-coalesced updates is *bit-identical* to the
  per-timer path in every observable: stored states, served probabilities,
  KV traffic, and per-shard meter totals.  The update kernels are
  batch-size invariant (``row_stable_linear``), so this holds exactly, not
  just to tolerance.
* **Control timers** — barrier-exempt ``set_control_timer`` timers keep the
  single-heap delivery order the pins were recorded with (checked against
  that algorithm, kept below as an oracle, by a Hypothesis property test),
  while ``next_timer_at`` ignores them and stays O(1).
"""

from __future__ import annotations

import heapq
import itertools
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import ContextField, ContextSchema
from repro.features.sequence import SequenceBuilder
from repro.models.rnn import RNNNetworkConfig, RNNPrecomputeNetwork
from repro.serving import (
    HiddenStateService,
    KeyValueStore,
    ShardedKeyValueStore,
    StreamEvent,
    StreamProcessor,
    TimerFiring,
    replay_sessions_through_service,
)

N_TRIALS = 25


def random_timer_schedule(rng, n_timers=40, span=200):
    """(fire_at, key) pairs with deliberate fire-time collisions."""
    fire_ats = rng.integers(0, span, size=n_timers)
    # Force collisions: round a third of the timers onto a coarse grid.
    coarse = rng.random(n_timers) < 0.34
    fire_ats[coarse] -= fire_ats[coarse] % 10
    return [(int(fire_at), f"k{i}") for i, fire_at in enumerate(fire_ats)]


def advance_steps(rng, span=200):
    steps = np.unique(rng.integers(0, span + 20, size=int(rng.integers(1, 8))))
    return [int(s) for s in steps] + [span + 30]


class TestWaveOrdering:
    def _replay(self, schedule, steps, publishes, *, grouped, window=0):
        """Run one schedule; returns the flattened (fire_at, key, n_events) firing log."""
        stream = StreamProcessor(coalescing_window=window)
        log: list[tuple[int, str, int]] = []
        waves: list[list[str]] = []

        def on_wave(firings):
            waves.append([f.key for f in firings])
            log.extend((f.fire_at, f.key, len(f.events)) for f in firings)

        group = stream.timer_group(on_wave)
        for at, key, payload in publishes:
            if at == -1:  # pre-registration publish
                stream.publish(StreamEvent("ctx", key, 0, {"v": payload}))
        for fire_at, key in schedule:
            if grouped:
                group.set_timer(fire_at, key, payload=key)
            else:
                stream.set_timer(
                    fire_at, key, lambda k, events, f=fire_at: log.append((f, k, len(events)))
                )
        for step in steps:
            stream.advance_to(step)
        assert stream.pending_timers == 0
        return log, waves, stream

    def test_wave_delivery_is_a_pure_regrouping_of_the_per_timer_order(self):
        for trial in range(N_TRIALS):
            rng = np.random.default_rng(1000 + trial)
            schedule = random_timer_schedule(rng)
            steps = advance_steps(rng)
            publishes = [(-1, f"k{int(i)}", 1.0) for i in rng.integers(0, 40, size=10)]
            grouped_log, waves, grouped_stream = self._replay(
                schedule, steps, publishes, grouped=True
            )
            single_log, _, single_stream = self._replay(schedule, steps, publishes, grouped=False)
            assert grouped_log == single_log
            # Same timers fired; fewer (or equal) deliveries.
            assert grouped_stream.timers_fired == single_stream.timers_fired == len(schedule)
            assert grouped_stream.waves_fired <= single_stream.timers_fired
            # Intra-wave ordering: fire timestamp, then registration order.
            key_seq = {key: seq for seq, (_, key) in enumerate(schedule)}
            fire_of = dict((key, fire_at) for fire_at, key in schedule)
            for wave in waves:
                marks = [(fire_of[key], key_seq[key]) for key in wave]
                assert marks == sorted(marks)

    def test_wave_composition_is_deterministic_across_replays(self):
        for trial in range(5):
            rng = np.random.default_rng(2000 + trial)
            schedule = random_timer_schedule(rng)
            steps = advance_steps(rng)
            _, first, _ = self._replay(schedule, steps, [], grouped=True, window=7)
            _, second, _ = self._replay(schedule, steps, [], grouped=True, window=7)
            assert first == second

    def test_interleaved_plain_timer_splits_the_group_run(self):
        stream = StreamProcessor()
        calls: list[object] = []
        group = stream.timer_group(lambda firings: calls.append([f.key for f in firings]))
        group.set_timer(50, "a")
        stream.set_timer(50, "b", lambda key, events: calls.append(key))
        group.set_timer(50, "c")
        assert stream.advance_to(50) == 3
        # One wave, three deliveries: the plain timer keeps its exact slot.
        assert calls == [["a"], "b", ["c"]]
        assert stream.waves_fired == 1

    def test_coalescing_window_absorbs_near_timers_but_not_past_the_target(self):
        stream = StreamProcessor(coalescing_window=10)
        waves: list[list[int]] = []
        group = stream.timer_group(lambda firings: waves.append([f.fire_at for f in firings]))
        for fire_at in (100, 105, 110, 111, 130):
            group.set_timer(fire_at, f"t{fire_at}")
        # Advance into the middle of the window: the wave stops at the target.
        assert stream.advance_to(104) == 1
        assert waves == [[100]]
        assert stream.clock == 104
        # The next wave opens at 105 and absorbs up to 115.
        assert stream.advance_to(200) == 4
        assert waves == [[100], [105, 110, 111], [130]]

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError):
            StreamProcessor(coalescing_window=-1)


# ----------------------------------------------------------------------
# Control-plane timers: barrier-exempt, invisible to the flush barrier.
# ----------------------------------------------------------------------
def control_stream(window=0):
    """A stream whose barrier, group, plain and control deliveries append to one log.

    Each delivery records the stream clock at the moment it ran, so the
    log pins both order and the clock a callback observes.
    """
    stream = StreamProcessor(coalescing_window=window)
    log: list[tuple] = []
    stream.register_barrier(lambda: log.append(("barrier", stream.clock)))
    group = stream.timer_group(
        lambda firings: log.append(("wave", [f.key for f in firings], stream.clock))
    )

    def deliver(key, events):
        log.append((key, stream.clock))

    return stream, group, deliver, log


def traced_lines(read) -> int:
    """Python lines executed while calling ``read()``, counted with ``sys.settrace``."""
    lines = 0

    def tracer(frame, event, arg):
        nonlocal lines
        if event == "line":
            lines += 1
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        read()
    finally:
        sys.settrace(previous)
    return lines


class TestControlTimers:
    @pytest.mark.parametrize("window", [0, 10])
    def test_control_timer_registered_after_a_data_timer_joins_its_wave(self, window):
        stream, group, deliver, log = control_stream(window)
        group.set_timer(50, "d")
        stream.set_control_timer(50 + window, "c", deliver)
        assert stream.pending_timers == 2
        assert stream.next_timer_at == 50
        assert stream.advance_to(70) == 2
        # One wave: barriers first, then (fire_at, registration) order; the
        # wave sets the clock to its last fire time before delivering.
        assert log == [("barrier", 0), ("wave", ["d"], 50 + window), ("c", 50 + window)]
        assert (stream.clock, stream.timers_fired, stream.waves_fired) == (70, 2, 1)
        assert stream.pending_timers == 0
        assert stream.next_timer_at is None

    @pytest.mark.parametrize("window", [0, 10])
    def test_control_timer_registered_first_fires_alone_without_barriers(self, window):
        stream, group, deliver, log = control_stream(window)
        stream.set_control_timer(50, "c", deliver)
        group.set_timer(50, "d")
        assert stream.pending_timers == 2
        assert stream.next_timer_at == 50
        assert stream.advance_to(70) == 2
        assert log == [("c", 50), ("barrier", 50), ("wave", ["d"], 50)]
        assert (stream.clock, stream.timers_fired, stream.waves_fired) == (70, 2, 1)

    def test_control_timer_earlier_than_the_wave_is_not_absorbed(self):
        stream, group, deliver, log = control_stream(window=10)
        group.set_timer(100, "d")
        stream.set_control_timer(95, "c", deliver)
        stream.set_control_timer(111, "late", deliver)
        assert stream.advance_to(200) == 3
        # The wave opens at 100 and closes at 110: "late" fires alone after it.
        assert log == [("c", 95), ("barrier", 95), ("wave", ["d"], 100), ("late", 111)]
        assert (stream.timers_fired, stream.waves_fired) == (3, 1)

    @pytest.mark.parametrize("control_first", [True, False])
    @pytest.mark.parametrize("window", [0, 10])
    def test_next_timer_at_ignores_control_timers_before_and_after_they_fire(self, control_first, window):
        stream, group, deliver, _ = control_stream(window)
        stream.set_control_timer(5, "only", deliver)
        assert stream.next_timer_at is None
        assert stream.pending_timers == 1
        if control_first:
            stream.set_control_timer(20, "c", deliver)
            group.set_timer(20, "d")
        else:
            group.set_timer(20, "d")
            stream.set_control_timer(20, "c", deliver)
        group.set_timer(40, "d2")
        assert stream.next_timer_at == 20
        assert stream.pending_timers == 4
        stream.advance_to(30)
        assert stream.next_timer_at == 40
        assert stream.pending_timers == 1
        stream.set_control_timer(35, "c2", deliver)
        assert stream.next_timer_at == 40
        assert stream.pending_timers == 2

    @pytest.mark.parametrize("window", [0, 10])
    def test_flush_fires_a_control_timer_after_the_last_data_timer(self, window):
        stream, group, deliver, log = control_stream(window)
        group.set_timer(10, "d")
        stream.set_control_timer(500, "c", deliver)
        assert stream.flush() == 2
        assert log == [("barrier", 0), ("wave", ["d"], 10), ("c", 500)]
        assert (stream.clock, stream.timers_fired, stream.waves_fired) == (500, 2, 1)
        assert stream.pending_timers == 0
        assert stream.flush() == 0

    @pytest.mark.parametrize("control_first", [True, False])
    @pytest.mark.parametrize("window", [0, 10])
    def test_next_timer_at_cost_does_not_grow_with_pending_timers(self, control_first, window):
        """The flush barrier is read on every submit; it must stay O(1)
        however many timers are pending, including after a control timer
        was delivered inside a wave (which once left stale bookkeeping
        behind and sent every later read down a full heap scan)."""
        stream, group, deliver, _ = control_stream(window)
        if control_first:
            stream.set_control_timer(50, "c", deliver)
            group.set_timer(50, "d")
        else:
            group.set_timer(50, "d")
            stream.set_control_timer(50 + window, "c", deliver)
        stream.set_control_timer(10_000, "tick", deliver)
        stream.advance_to(100)
        for i in range(10):
            group.set_timer(200 + i, f"s{i}")
        few = traced_lines(lambda: stream.next_timer_at)
        for i in range(1000):
            group.set_timer(300 + i, f"m{i}")
            stream.set_control_timer(300 + i, f"t{i}", deliver)
        assert traced_lines(lambda: stream.next_timer_at) == few
        assert stream.next_timer_at == 200


# ----------------------------------------------------------------------
# Property: the two-heap scheduler against the single-heap algorithm.
# ----------------------------------------------------------------------
class SingleHeapStream:
    """Oracle: the one-heap timer scheduler that control timers first shipped
    with (control timers tagged by ``seq`` in a side set, the flush barrier a
    scan of the heap).  Timer delivery only; events are buffered as in
    :class:`StreamProcessor`."""

    def __init__(self, coalescing_window=0):
        self.coalescing_window = coalescing_window
        self._buffers = {}
        self._timers = []
        self._counter = itertools.count()
        self._control_seqs = set()
        self._barriers = []
        self.clock = 0
        self.timers_fired = 0
        self.waves_fired = 0

    def publish(self, event):
        self._buffers.setdefault(event.key, []).append(event)

    def _push_timer(self, fire_at, key, callback, group, payload):
        assert fire_at >= self.clock
        seq = next(self._counter)
        heapq.heappush(self._timers, (fire_at, seq, key, callback, group, payload))
        return seq

    def set_timer(self, fire_at, key, callback):
        self._push_timer(fire_at, key, callback, None, None)

    def set_control_timer(self, fire_at, key, callback):
        self._control_seqs.add(self._push_timer(fire_at, key, callback, None, None))

    def timer_group(self, callback):
        stream = self

        class Group:
            def set_timer(self, fire_at, key, payload=None):
                stream._push_timer(fire_at, key, None, self, payload)

        group = Group()
        group.callback = callback
        return group

    def register_barrier(self, callback):
        self._barriers.append(callback)

    def advance_to(self, timestamp):
        assert timestamp >= self.clock
        fired = 0
        while self._timers and self._timers[0][0] <= timestamp:
            if self._timers[0][1] in self._control_seqs:
                fire_at, seq, key, callback, _, _ = heapq.heappop(self._timers)
                self._control_seqs.discard(seq)
                self.clock = fire_at
                self.timers_fired += 1
                fired += 1
                callback(key, self._buffers.pop(key, []))
                continue
            for barrier in list(self._barriers):
                barrier()
            if not (self._timers and self._timers[0][0] <= timestamp):
                break
            deadline = min(timestamp, self._timers[0][0] + self.coalescing_window)
            wave = []
            while self._timers and self._timers[0][0] <= deadline:
                wave.append(heapq.heappop(self._timers))
            self.clock = wave[-1][0]
            self.waves_fired += 1
            self.timers_fired += len(wave)
            fired += len(wave)
            for group, members in StreamProcessor._wave_runs(wave):
                if group is None:
                    for _, _, key, callback, _, _ in members:
                        callback(key, self._buffers.pop(key, []))
                else:
                    group.callback(
                        [
                            TimerFiring(fire_at, key, self._buffers.pop(key, []), payload)
                            for fire_at, _, key, _, _, payload in members
                        ]
                    )
        self.clock = timestamp
        return fired

    def flush(self):
        if not self._timers:
            return 0
        return self.advance_to(max(t[0] for t in self._timers))

    @property
    def pending_timers(self):
        return len(self._timers)

    @property
    def next_timer_at(self):
        due = [t[0] for t in self._timers if t[1] not in self._control_seqs]
        return min(due) if due else None


TIMER_KINDS = ("plain", "group0", "group1", "control")
N_KEYS = 4
timer_specs = st.tuples(st.sampled_from(TIMER_KINDS), st.integers(0, 12))
stream_ops = st.lists(
    st.one_of(
        # (op, kind, offset from the clock, key, follow-up timer a delivery registers)
        st.tuples(
            st.just("timer"), st.sampled_from(TIMER_KINDS), st.integers(0, 40),
            st.integers(0, N_KEYS - 1), st.none() | timer_specs,
        ),
        st.tuples(st.just("advance"), st.integers(0, 30)),
        st.tuples(st.just("publish"), st.integers(0, N_KEYS - 1)),
        st.just(("flush",)),
    ),
    max_size=40,
)


def drive(stream, ops, barrier_spawns):
    """Run ``ops`` against ``stream``; returns the observable log.

    Every delivery records ``(kind, key, fire_at, n_events, clock,
    waves_fired)`` — ``waves_fired`` at delivery time marks wave
    boundaries — barriers record the clock and wave count, and every call
    records its return value, ``clock``, the counters and
    ``next_timer_at``, which is also checked against a brute-force minimum
    over the pending data-plane timers.
    """
    log: list[tuple] = []
    data_pending: dict[int, int] = {}
    ids = itertools.count()
    spawns = iter(barrier_spawns)

    def register(kind, fire_at, key, follow_up=None):
        timer_id = next(ids)
        payload = (timer_id, follow_up)
        if kind.startswith("group"):
            data_pending[timer_id] = fire_at
            groups[kind].set_timer(fire_at, key, payload=payload)
            return
        if kind == "plain":
            data_pending[timer_id] = fire_at
        register_fn = stream.set_timer if kind == "plain" else stream.set_control_timer
        register_fn(fire_at, key, lambda k, events: delivered(kind, k, fire_at, events, payload))

    def delivered(kind, key, fire_at, events, payload):
        timer_id, follow_up = payload
        data_pending.pop(timer_id, None)
        log.append((kind, key, fire_at, len(events), stream.clock, stream.waves_fired))
        if follow_up is not None:
            follow_kind, offset = follow_up
            register(follow_kind, stream.clock + offset, key)

    def on_wave(name):
        def callback(firings):
            log.append(("run", name, len(firings)))
            for firing in firings:
                delivered(name, firing.key, firing.fire_at, firing.events, firing.payload)

        return callback

    def barrier():
        log.append(("barrier", stream.clock, stream.waves_fired))
        spawn = next(spawns, None)
        if spawn is not None:
            kind, offset = spawn
            register(kind, stream.clock + offset, "k0")

    groups = {name: stream.timer_group(on_wave(name)) for name in ("group0", "group1")}
    stream.register_barrier(barrier)
    for op in ops:
        if op[0] == "timer":
            _, kind, offset, key, follow_up = op
            register(kind, stream.clock + offset, f"k{key}", follow_up)
            result = None
        elif op[0] == "advance":
            result = stream.advance_to(stream.clock + op[1])
        elif op[0] == "publish":
            stream.publish(StreamEvent("ctx", f"k{op[1]}", stream.clock))
            result = None
        else:
            result = stream.flush()
        expected_next = min(data_pending.values()) if data_pending else None
        assert stream.next_timer_at == expected_next
        log.append(
            (op[0], result, stream.clock, stream.timers_fired, stream.waves_fired,
             stream.pending_timers, stream.next_timer_at)
        )
    return log


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    window=st.integers(0, 10),
    ops=stream_ops,
    barrier_spawns=st.lists(st.none() | timer_specs, max_size=6),
)
def test_two_heap_scheduler_matches_the_single_heap_oracle(window, ops, barrier_spawns):
    expected = drive(SingleHeapStream(window), ops, barrier_spawns)
    actual = drive(StreamProcessor(window), ops, barrier_spawns)
    assert actual == expected


# ----------------------------------------------------------------------
# Engine equivalence: wave-coalesced vs per-timer session updates.
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def serving_parts():
    schema = ContextSchema(
        fields=(
            ContextField("badge", "numeric"),
            ContextField("surface", "categorical", cardinality=3),
        )
    )
    builder = SequenceBuilder(schema)
    config = RNNNetworkConfig(feature_dim=builder.feature_dim, hidden_size=12, mlp_hidden=8)
    network = RNNPrecomputeNetwork(config, rng=np.random.default_rng(5)).eval()
    return schema, builder, network


def random_session_events(rng, n_events=120, n_users=12, session_length=600):
    """Time-ordered (timestamp, user_id, context, accessed) with bursty starts.

    Timestamps cluster on a coarse grid so many session windows close in the
    same second — the wave case — while jittered stragglers keep singleton
    waves in the mix.
    """
    base = 1_600_000_000
    raw = rng.integers(0, 5_000, size=n_events)
    bursty = rng.random(n_events) < 0.6
    raw[bursty] -= raw[bursty] % 300
    timestamps = np.sort(base + raw)
    events = []
    for timestamp in timestamps:
        # Duplicate (user, second) sessions are deliberately possible: the
        # sequence-numbered session keys must keep them distinct, and a wave
        # containing both must apply them in order via same-user sub-waves.
        events.append(
            (
                int(timestamp),
                int(rng.integers(0, n_users)),
                {"badge": float(rng.integers(0, 9)), "surface": float(rng.integers(0, 3))},
                bool(rng.random() < 0.4),
            )
        )
    return events


def replay(parts, events, *, coalesce, store, batch_size, window=0):
    _, builder, network = parts
    stream = StreamProcessor(coalescing_window=window)
    service = HiddenStateService(
        network, builder, store, stream, 600,
        max_batch_size=batch_size, coalesce_updates=coalesce,
    )
    predictions = replay_sessions_through_service(service, events)
    return predictions, stream, service


class TestWaveEquivalence:
    def test_per_timer_delivery_meters_the_same_window_delay_as_waves(self, serving_parts):
        """Regression: a coalescing window delays ungrouped timers too, and
        ``update_delay_seconds`` must say so (it used to stay 0 on the
        per-timer path, hiding the window_sweep latency cost at batch 1)."""
        rng = np.random.default_rng(4000)
        events = random_session_events(rng)
        _, _, single_service = replay(
            serving_parts, events, coalesce=False, store=KeyValueStore(), batch_size=1, window=45
        )
        _, _, wave_service = replay(
            serving_parts, events, coalesce=True, store=KeyValueStore(), batch_size=1, window=45
        )
        assert single_service.backend.update_delay_seconds > 0
        assert single_service.backend.update_delay_seconds == wave_service.backend.update_delay_seconds
        # Same-second delivery still adds no latency on either path.
        _, _, immediate = replay(
            serving_parts, events, coalesce=False, store=KeyValueStore(), batch_size=1, window=0
        )
        assert immediate.backend.update_delay_seconds == 0

    def test_update_delay_meter_is_float_end_to_end(self, serving_parts):
        """The Backend protocol declares ``update_delay_seconds: float`` and
        both delivery paths must honour it — the meter starts at ``0.0``,
        stays a float through per-timer and wave accumulation, and surfaces
        as a float from the engine facade (it used to start life as the int
        ``0`` while the wave path summed floats into it)."""
        rng = np.random.default_rng(4500)
        events = random_session_events(rng)
        for coalesce in (False, True):
            _, _, service = replay(
                serving_parts, events, coalesce=coalesce, store=KeyValueStore(), batch_size=4, window=45
            )
            assert isinstance(service.backend.update_delay_seconds, float)
            assert isinstance(service.serving_engine.update_delay_seconds, float)
            assert service.backend.update_delay_seconds > 0
        # Untouched meters are float zero, not int zero.
        from repro.serving import BatchedHiddenStateBackend as Backend

        _, builder, network = serving_parts
        fresh = Backend(network, builder, KeyValueStore(), StreamProcessor(), 600)
        assert isinstance(fresh.update_delay_seconds, float)

    @pytest.mark.parametrize("batch_size", [1, 16])
    def test_wave_updates_bit_identical_to_per_timer_updates(self, serving_parts, batch_size):
        for trial in range(8):
            rng = np.random.default_rng(3000 + trial)
            events = random_session_events(rng)
            single_store, wave_store = KeyValueStore(), KeyValueStore()
            single, single_stream, _ = replay(
                serving_parts, events, coalesce=False, store=single_store, batch_size=batch_size
            )
            waved, wave_stream, _ = replay(
                serving_parts, events, coalesce=True, store=wave_store, batch_size=batch_size
            )
            # Coalescing actually happened (bursty starts share fire seconds)…
            assert wave_stream.waves_fired < wave_stream.timers_fired
            # …and is invisible: bit-identical probabilities, states, traffic.
            np.testing.assert_array_equal(
                np.asarray([p.probability for p in waved]),
                np.asarray([p.probability for p in single]),
            )
            assert wave_store.stats.snapshot() == single_store.stats.snapshot()
            assert sorted(wave_store.keys()) == sorted(single_store.keys())
            for key in single_store.keys():
                expected, actual = single_store.get(key), wave_store.get(key)
                assert actual["timestamp"] == expected["timestamp"]
                np.testing.assert_array_equal(actual["state"], expected["state"])

    def test_wider_coalescing_windows_stay_bit_identical(self, serving_parts):
        rng = np.random.default_rng(4000)
        events = random_session_events(rng)
        reference_store = KeyValueStore()
        reference, _, _ = replay(
            serving_parts, events, coalesce=False, store=reference_store, batch_size=8
        )
        # Freeze the replay's metered traffic: the state comparisons below go
        # through the metering ``get`` and must not count as serving reads.
        reference_stats = reference_store.stats.snapshot()
        for window in (1, 30, 600):
            store = KeyValueStore()
            predictions, stream, _ = replay(
                serving_parts, events, coalesce=True, store=store, batch_size=8, window=window
            )
            np.testing.assert_array_equal(
                np.asarray([p.probability for p in predictions]),
                np.asarray([p.probability for p in reference]),
            )
            assert store.stats.snapshot() == reference_stats
            for key in reference_store.keys():
                np.testing.assert_array_equal(
                    store.get(key)["state"], reference_store.get(key)["state"]
                )

    def test_sharded_meter_totals_unchanged_by_waves(self, serving_parts):
        rng = np.random.default_rng(5000)
        events = random_session_events(rng)
        # Same pool name: the consistent-hash ring seeds on it, and the
        # per-shard comparison needs identical key→shard routing.
        single_store = ShardedKeyValueStore(n_shards=5, name="rnn")
        wave_store = ShardedKeyValueStore(n_shards=5, name="rnn")
        replay(serving_parts, events, coalesce=False, store=single_store, batch_size=8)
        replay(serving_parts, events, coalesce=True, store=wave_store, batch_size=8)
        assert wave_store.stats.snapshot() == single_store.stats.snapshot()
        assert wave_store.total_bytes == single_store.total_bytes
        assert wave_store.shard_snapshots() == single_store.shard_snapshots()

    def test_wave_delivery_matches_direct_apply_updates(self, serving_parts):
        """Scheduler delivery adds nothing: a wave equals applying the same
        updates directly through the backend, bit for bit."""
        from repro.serving import SessionUpdate

        _, builder, network = serving_parts
        rng = np.random.default_rng(6000)
        base = 1_600_000_000
        updates = [
            SessionUpdate(
                user_id=i,
                timestamp=base,
                context={"badge": float(i), "surface": float(i % 3)},
                accessed=bool(i % 2),
            )
            for i in range(9)
        ]
        stores = {name: KeyValueStore() for name in ("stream", "direct")}
        from repro.serving import BatchedHiddenStateBackend

        streamed = BatchedHiddenStateBackend(
            network, builder, stores["stream"], StreamProcessor(), 600
        )
        for update in updates:
            streamed.observe_session(update.user_id, update.context, update.timestamp, update.accessed)
        assert streamed.stream.flush() == len(updates)
        assert streamed.stream.waves_fired == 1

        direct = BatchedHiddenStateBackend(
            network, builder, stores["direct"], StreamProcessor(), 600
        )
        direct.apply_updates(updates)
        for key in stores["direct"].keys():
            np.testing.assert_array_equal(
                stores["stream"].get(key)["state"], stores["direct"].get(key)["state"]
            )
