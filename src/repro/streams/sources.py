"""Stream sources: sensors and instruments at the edge.

Production-rate emission rides two mechanisms:

* **Batched ingestion** — ``batch=N`` publishes N readings per engine event
  as two columns, bit-identical to per-element emission, so the
  event-queue cost is one event per batch.  A strictly periodic sensor
  with the default reading builds both columns without a Python call per
  element: stamps are the running sums of the period, cut at ``until`` by
  one bisect, and readings come from one batch of draws (none is taken for
  an element past the cut).  A jittered sensor or a user ``reading_fn``
  generates element by element, a reading and then its jitter draw.
* **Credit-based backpressure** — a :class:`CreditValve` between the source
  and its consumers: every admitted element spends a credit, consumers
  grant credits back as window tasks complete, and when credits run out
  the configured policy applies — ``drop`` discards the newest readings,
  ``spill`` defers them (a disk-spill stand-in, kept as the same two columns)
  for re-ingestion ahead of the next batch once credits return.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import accumulate, repeat
from typing import Any, Callable, List, Optional, Tuple

from repro.simulation.engine import SimulationEngine
from repro.simulation.random import DeterministicRandom
from repro.streams.stream import DataStream


def _noisy_reading(seq: int, rng: DeterministicRandom) -> float:
    """The default reading: a unit-mean signal with ±0.05 uniform noise."""
    return 1.0 + 0.1 * (rng.random() - 0.5)


class CreditValve:
    """Backpressure channel from stream consumers to a source's rate.

    The source asks :meth:`admit` before publishing; consumers call
    :meth:`grant` as they retire elements (window task completed, or the
    element filtered out before ever buffering).  Credits therefore bound
    the number of un-retired elements in flight, which is what bounds both
    stream memory and window-task backlog.
    """

    def __init__(self, credits: int, policy: str = "drop") -> None:
        if credits < 1:
            raise ValueError(f"credits must be >= 1, got {credits}")
        if policy not in ("drop", "spill"):
            raise ValueError(f"unknown overflow policy {policy!r} (drop, spill)")
        self.initial_credits = credits
        self.credits = credits
        self.policy = policy
        self.dropped = 0
        #: Spill *writes*: each deferral of an element counts once (an
        #: element re-spilled across several starved batches counts each
        #: time, like repeated disk writes would).
        self.spilled = 0
        self.granted = 0
        self._spill_stamps: List[float] = []
        self._spill_values: List[Any] = []

    @property
    def spill_depth(self) -> int:
        """Elements currently parked in the spill buffer."""
        return len(self._spill_stamps)

    def admit(self, requested: int) -> int:
        taken = self.credits if requested > self.credits else requested
        self.credits -= taken
        return taken

    def overflow(self, timestamps: List[float], values: List[Any]) -> None:
        """Apply the policy to the elements (two columns) that found no credit."""
        if self.policy == "drop":
            self.dropped += len(timestamps)
        else:
            self.spilled += len(timestamps)
            self._spill_stamps += timestamps
            self._spill_values += values

    def take_spilled(self) -> Tuple[List[float], List[Any]]:
        """Drain the spill columns (oldest first) for re-admission."""
        if not self._spill_stamps:
            return [], []
        spilled = self._spill_stamps, self._spill_values
        self._spill_stamps, self._spill_values = [], []
        return spilled

    def grant(self, count: int) -> None:
        self.credits += count
        self.granted += count


class SensorSource:
    """An edge sensor publishing readings on a (jittered) period.

    Args:
        engine: the DES engine driving virtual time (a plain engine or a
            zone's ``ShardApi`` — anything with ``at``/``now``).
        stream: the channel readings are published to.
        name: sensor identity (stamped on elements).
        period_s: nominal inter-reading period.
        jitter: relative uniform jitter on the period (0 = strictly periodic).
        reading_fn: maps (sequence_number, rng) to the reading value, called
            once per emitted element in sequence order; None is a unit-mean
            noisy signal.
        until: stop emitting at this virtual time (None = run forever —
            callers must then bound the engine run themselves).
        batch: readings emitted per engine event.  Stamps, values and rng
            draws are identical to ``batch=1`` (see the module docstring);
            only the event-queue granularity changes.
        valve: optional credit valve; without one every reading publishes.
    """

    def __init__(
        self,
        engine: SimulationEngine,
        stream: DataStream,
        name: str = "sensor",
        period_s: float = 1.0,
        jitter: float = 0.0,
        reading_fn: Optional[Callable[[int, DeterministicRandom], float]] = None,
        until: Optional[float] = None,
        seed: int = 0,
        batch: int = 1,
        valve: Optional[CreditValve] = None,
    ) -> None:
        if not period_s > 0:
            raise ValueError(f"period_s must be positive, got {period_s}")
        if until is not None and math.isnan(until):
            raise ValueError("until must be a time or None, got nan")
        if not 0 <= jitter < 1:
            raise ValueError("jitter must be in [0, 1)")
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        self.engine = engine
        self.stream = stream
        self.name = name
        self.period_s = period_s
        self.jitter = jitter
        self.until = until
        self.batch = batch
        self.valve = valve
        self.reading_fn = reading_fn
        self.rng = DeterministicRandom(seed=seed, name=name)
        #: Readings generated (admitted or not).
        self.produced = 0
        #: Readings actually published onto the stream.
        self.emitted = 0
        self._started = False

    def start(self, at: float = 0.0) -> None:
        if self._started:
            raise RuntimeError(f"sensor {self.name!r} already started")
        self._started = True
        self.engine.at(max(at, self.engine.now), self._emit)

    def _emit(self) -> None:
        now = self.engine.now
        until = float("inf") if self.until is None else self.until
        if now > until:
            return
        reading_fn = self.reading_fn
        rng = self.rng
        period = self.period_s
        spread = period * self.jitter
        produced = self.produced
        if spread or reading_fn is not None:
            # Element by element: a reading, then its jitter draw.
            reading_fn = reading_fn or _noisy_reading
            uniform = rng.uniform
            stamps: List[float] = []
            values: List[Any] = []
            add_stamp = stamps.append
            add_value = values.append
            timestamp: Optional[float] = now
            for _ in range(self.batch):
                add_stamp(timestamp)
                add_value(reading_fn(produced, rng))
                produced += 1
                if spread:
                    timestamp = timestamp + (period + uniform(-spread, spread))
                else:
                    timestamp = timestamp + period
                if timestamp > until:
                    timestamp = None
                    break
        else:
            # Two columns: stamps are the running sums of the period from
            # ``now`` (sum k is the time the k-th per-element event would
            # have fired at, sum ``batch`` the next emission instant).
            stamps = list(accumulate(repeat(period, self.batch), initial=now))
            cut = bisect_right(stamps, until)
            timestamp = stamps.pop() if cut > self.batch else None
            del stamps[cut:]
            values = [1.0 + 0.1 * (r - 0.5) for r in rng.randoms(len(stamps))]
            produced += len(stamps)
        self.produced = produced
        valve = self.valve
        if valve is not None:
            # Spilled elements re-enter first: they are older than this
            # batch's readings, so admission order preserves timestamp
            # monotonicity; overflow takes the (newest) column tails.
            spilled_stamps, spilled_values = valve.take_spilled()
            if spilled_stamps:
                spilled_stamps += stamps
                spilled_values += values
                stamps, values = spilled_stamps, spilled_values
            admitted = valve.admit(len(stamps))
            if admitted < len(stamps):
                valve.overflow(stamps[admitted:], values[admitted:])
                del stamps[admitted:], values[admitted:]
        if stamps:
            self.stream.publish_batch(stamps, values, self.name)
            self.emitted += len(stamps)
        if timestamp is not None:
            self.engine.at(timestamp, self._emit)
