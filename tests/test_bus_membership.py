"""``MessageBus.changes_since`` returns the log's tail, and the tail is the
filter.

Epochs are consecutive per zone, so the deltas after epoch ``e`` are the
last ``current - e`` entries of the zone's bounded change log.  The
reference below is the definition the tail replaced — filter a full
``(epoch, name, alive)`` history by ``epoch > e`` — kept here as the model:
every cached epoch must get the same deltas, ``[]`` at or beyond the
current epoch, and ``None`` exactly when it fell out of the bounded log.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.agents import Agent, MessageBus
from repro.agents import bus as bus_module
from repro.infrastructure import Platform
from repro.infrastructure.resources import Node
from repro.simulation import SimulationEngine

ZONES = ("z0", "z1", "z2")


class _Fleet:
    """A bus plus the full, unbounded membership history per zone."""

    def __init__(self, limit):
        self.limit = limit
        self.platform = Platform()
        self.bus = MessageBus(self.platform, SimulationEngine())
        self.history = {zone: [] for zone in ZONES}
        self.alive = []
        self._next = 0

    def register(self, zone):
        name = f"{zone}-a{self._next}"
        self._next += 1
        self.platform.add_node(Node(name), zone=zone)
        Agent(name, name, self.bus)
        self.alive.append((zone, name))
        log = self.history[zone]
        log.append((len(log) + 1, name, True))

    def kill(self, pick):
        if not self.alive:
            return
        zone, name = self.alive.pop(pick % len(self.alive))
        self.bus.kill_now(name)
        log = self.history[zone]
        log.append((len(log) + 1, name, False))

    def check(self):
        bus = self.bus
        for zone, history in self.history.items():
            current = len(history)
            assert bus.membership_epoch(zone) == current
            kept = history[-self.limit:]
            for epoch in range(-1, current + 2):
                changes = bus.changes_since(zone, epoch)
                if epoch >= current:
                    assert changes == []
                elif current - epoch > len(kept):
                    assert changes is None
                else:
                    assert changes == [(n, a) for e, n, a in kept if e > epoch]


_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("register"), st.integers(0, 2)),
        st.tuples(st.just("kill"), st.integers(0, 1000)),
    ),
    max_size=40,
)


@settings(max_examples=60, deadline=None)
@given(zones=st.integers(1, 3), limit=st.integers(1, 6), ops=_OPS)
def test_changes_since_tail_equals_the_epoch_filter(zones, limit, ops):
    with mock.patch.object(bus_module, "_EPOCH_LOG_LIMIT", limit):
        fleet = _Fleet(limit)
        fleet.check()
        for op, arg in ops:
            if op == "register":
                fleet.register(ZONES[arg % zones])
            else:
                fleet.kill(arg)
            fleet.check()


def _five_changes(limit):
    with mock.patch.object(bus_module, "_EPOCH_LOG_LIMIT", limit):
        fleet = _Fleet(limit)
        for _ in range(3):
            fleet.register("z0")
        fleet.kill(0)
        fleet.kill(0)
    fleet.check()
    return fleet.bus


def test_one_change():
    bus = _five_changes(limit=4)
    assert bus.membership_epoch("z0") == 5
    assert bus.changes_since("z0", 4) == [("z0-a1", False)]


def test_whole_log():
    bus = _five_changes(limit=4)
    assert bus.changes_since("z0", 1) == [
        ("z0-a1", True), ("z0-a2", True), ("z0-a0", False), ("z0-a1", False)
    ]
    # An unbounded-enough log serves epoch 0: every change ever made.
    assert len(_five_changes(limit=5).changes_since("z0", 0)) == 5


def test_one_past_the_log():
    bus = _five_changes(limit=4)
    assert bus.changes_since("z0", 0) is None
    assert bus.changes_since("z0", -1) is None
    # A zone nobody registered in has epoch 0 and nothing to report.
    assert bus.changes_since("z2", 0) == [] and bus.changes_since("z2", 3) == []
