"""The message bus: in-process substitute for the agents' REST transport.

Delivery takes the virtual time the platform's network model charges for the
message's payload between the two agents' nodes.  The bus doubles as the
failure detector.  Two notification models are supported:

* ``interest`` (default) — when an agent dies, only its *interest set* is
  notified: the peers that have exchanged messages with it plus any explicit
  :meth:`watch` subscribers.  Every other observer reads membership when
  it needs it, off the per-zone live set (:meth:`alive_in_zone`) and its
  epoch (:meth:`membership_epoch`).  Per-death cost is
  O(interest set), not O(agents) — the property that lets a ~50k-agent
  continuum sustain 1%/s churn at flat per-event cost.
* ``broadcast`` — the original perfect-failure-detector reference: one
  ``AGENT_DOWN`` notice per survivor per death (O(agents²) under churn).
  Kept as the equivalence baseline; ``tests/test_churn_equivalence.py``
  proves both models produce identical orchestration outcomes.

The substitution is semantics-preserving because every agent that would have
*acted* on an ``AGENT_DOWN`` notice — an orchestrator with the dead agent in
its peer set, with tasks in flight there, or with data homed there — has
necessarily either exchanged messages with it or watched it, so it is in the
interest set and still hears about the death one control-message hop after
it happens, exactly as under broadcast (see DESIGN.md's substitution table).

A dead agent is *retired*: its ``Agent`` leaves the registry, its node leaves
the platform, and only a tombstone (name -> node name) stays.  Messages still
addressed to a retired name are priced between the two nodes and dropped on
delivery, as before, and the name can never be registered again.  What the
bus holds therefore follows the live fleet, not every agent that ever joined.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from typing import TYPE_CHECKING, Deque, Dict, KeysView, List, Optional, Tuple

from repro.agents.messages import Message, Op
from repro.core.exceptions import AgentError
from repro.infrastructure.platform import Platform
from repro.simulation.engine import SimulationEngine

if TYPE_CHECKING:
    from repro.agents.agent import Agent

#: Failure-detection latency: one control-message hop (both models).
_DETECT_DELAY_S = 0.1

#: Recent dropped messages kept for diagnostics (the full history is a
#: counter; an unbounded list would grow O(messages) under sustained churn).
_DROP_LOG_LIMIT = 64

#: Membership changes remembered per zone.  An observer whose cached epoch
#: has fallen further behind than this gets ``None`` from
#: :meth:`MessageBus.changes_since` and must resync from the live set.
_EPOCH_LOG_LIMIT = 4096


class MessageBus:
    """Registry + virtual-time delivery between agents."""

    def __init__(
        self,
        platform: Platform,
        engine: SimulationEngine,
        notification: str = "interest",
    ) -> None:
        if notification not in ("interest", "broadcast"):
            raise AgentError(f"unknown notification model {notification!r}")
        self.platform = platform
        self.engine = engine
        self.notification = notification
        # The live agents, in registration order: a plain dict iterates
        # deterministically (unlike a ``set`` of strings, whose order depends
        # on the per-process hash seed), which the byte-identical
        # engine-equivalence suites rely on.  A dead agent moves to
        # ``_retired`` (name -> node name), so a message still addressed to
        # it can be priced, and its name stays taken.
        self._agents: Dict[str, "Agent"] = {}
        self._retired: Dict[str, str] = {}
        # Per-zone live sets (dicts as ordered sets).  An agent's zone is its
        # own ``zone`` attribute, fixed at construction.
        self._zone_alive: Dict[str, Dict[str, None]] = {}
        # Interest sets: agent -> peers to notify when it dies.  Populated
        # symmetrically on every send() plus explicit watch() subscriptions.
        self._interest: Dict[str, Dict[str, None]] = {}
        # Per-zone membership epochs and bounded change logs (name, alive)
        # for lazy reconciliation by late observers.  Every change bumps its
        # zone's epoch by one, so the newest entry is the current epoch's
        # and entry ``-k`` belongs to epoch ``current - k + 1``.
        self._zone_epoch: Dict[str, int] = {}
        self._zone_changes: Dict[str, Deque[Tuple[str, bool]]] = {}
        self.messages_sent = 0
        self.bytes_sent = 0.0
        self.dropped_count = 0
        self.dropped_messages: Deque[Message] = deque(maxlen=_DROP_LOG_LIMIT)
        #: AGENT_DOWN notices scheduled over the bus lifetime — the benches
        #: subtract these to report *useful* events/sec under churn.
        self.down_notices = 0
        self.deaths = 0

    # -------------------------------------------------------------- registry

    def register(self, agent: "Agent") -> None:
        if agent.name in self._agents or agent.name in self._retired:
            raise AgentError(f"agent {agent.name!r} already registered")
        self._agents[agent.name] = agent
        zone = agent.zone
        members = self._zone_alive.get(zone)
        if members is None:
            members = self._zone_alive[zone] = {}
            self._zone_epoch[zone] = 0
            self._zone_changes[zone] = deque(maxlen=_EPOCH_LOG_LIMIT)
        members[agent.name] = None
        self._zone_epoch[zone] += 1
        self._zone_changes[zone].append((agent.name, True))

    def agent(self, name: str) -> "Agent":
        """A live agent (a retired one is gone with its state)."""
        try:
            return self._agents[name]
        except KeyError:
            state = "retired" if name in self._retired else "unknown"
            raise AgentError(f"{state} agent {name!r}") from None

    def _node_of(self, name: str, role: str = "agent") -> str:
        """The node of a live or retired agent: what a message is priced
        from or to."""
        agent = self._agents.get(name)
        if agent is not None:
            return agent.node_name
        try:
            return self._retired[name]
        except KeyError:
            raise AgentError(f"unknown {role} {name!r}") from None

    def is_alive(self, name: str) -> bool:
        return name in self._agents

    @property
    def alive_agents(self) -> List[str]:
        """Names of live agents, in registration order."""
        return list(self._agents)

    @property
    def alive_count(self) -> int:
        return len(self._agents)

    def alive_in_zone(self, zone: str) -> KeysView[str]:
        """Live agents homed in ``zone``, as a zero-copy ordered view.

        Callers must not mutate the result; it changes underneath them on
        the next register/kill.  ``list()`` it for a stable snapshot.
        """
        members = self._zone_alive.get(zone)
        return members.keys() if members is not None else {}.keys()

    def zone_of_agent(self, name: str) -> str:
        """The zone of a live or retired agent (its node's network zone)."""
        return self.platform.network.zone_of(self._node_of(name))

    # --------------------------------------------------- membership digests

    def membership_epoch(self, zone: str) -> int:
        """Current membership epoch for ``zone`` (bumped on join and death)."""
        return self._zone_epoch.get(zone, 0)

    def changes_since(
        self, zone: str, epoch: int
    ) -> Optional[List[Tuple[str, bool]]]:
        """Membership deltas ``(agent, alive)`` after ``epoch``, oldest first.

        The lazy half of the failure detector: an observer caches the epoch
        it last reconciled at and folds the returned deltas into its view —
        O(changes since), not O(zone).  Returns ``None`` when ``epoch`` has
        fallen out of the bounded change log; the observer must then resync
        from :meth:`alive_in_zone` (and adopt the current epoch).
        """
        behind = self._zone_epoch.get(zone, 0) - epoch
        if behind <= 0:
            return []
        log = self._zone_changes.get(zone)
        if log is None or behind > len(log):
            return None
        # The deltas are exactly the log's last ``behind`` entries.
        newest_first = list(islice(reversed(log), behind))
        newest_first.reverse()
        return newest_first

    # ------------------------------------------------------------- messaging

    def send(self, message: Message) -> None:
        """Deliver a message after the network-model transfer time.

        Messages to dead agents are dropped (the sender learns about the
        death through its AGENT_DOWN notice, like a connection refusing).
        Every exchange between two live agents also enrolls both in each
        other's interest set, which is what scopes failure notification; a
        retired endpoint is never notified and never dies again, so it
        enrolls in nothing.
        """
        sender, recipient = message.sender, message.recipient
        src = self._agents.get(sender)
        dst = self._agents.get(recipient)
        if src is not None and dst is not None:
            src_node, dst_node = src.node_name, dst.node_name
            self._note_interest(sender, recipient)
        else:
            src_node = self._node_of(sender, "sender")
            dst_node = self._node_of(recipient, "recipient")
        self.messages_sent += 1
        self.bytes_sent += message.payload_bytes
        delay = self.platform.network.transfer_time(
            src_node, dst_node, message.payload_bytes
        )
        self.engine.after(
            delay,
            lambda: self._deliver(message),
        )

    def _note_interest(self, a: str, b: str) -> None:
        interest = self._interest
        peers = interest.get(b)
        if peers is None:
            peers = interest[b] = {}
        peers[a] = None
        peers = interest.get(a)
        if peers is None:
            peers = interest[a] = {}
        peers[b] = None

    def watch(self, watcher: str, target: str) -> None:
        """Subscribe ``watcher`` to ``target``'s death notice explicitly.

        Orchestrators watch their declared peers before any message flows,
        so a peer dying between Start Application and the first task
        dispatch is still detected.  Watching a retired agent is allowed
        and records nothing: its death notice has already gone out.
        """
        self._node_of(watcher, "watcher")
        self._node_of(target, "watch target")
        if target not in self._agents:
            return
        peers = self._interest.get(target)
        if peers is None:
            peers = self._interest[target] = {}
        peers[watcher] = None

    def unwatch(self, watcher: str, target: str) -> None:
        """Drop an explicit subscription (message-derived interest stays)."""
        peers = self._interest.get(target)
        if peers is not None:
            peers.pop(watcher, None)

    def _deliver(self, message: Message) -> None:
        agent = self._agents.get(message.recipient)
        if agent is None:
            self.dropped_count += 1
            self.dropped_messages.append(message)
            return
        agent.handle(message)

    # --------------------------------------------------------------- failure

    def kill_agent(self, name: str, at: float) -> None:
        """Schedule an agent crash: it stops processing and peers are told.

        Killing a retired agent is a no-op, like killing it twice.
        """
        self._node_of(name)  # an unknown name fails here, not at the kill
        self.engine.at(
            at,
            lambda: self._kill(name),
            priority=-10,
        )

    def kill_now(self, name: str) -> None:
        """Immediate agent death (battery depletion, self-detected faults)."""
        self._kill(name)

    def _kill(self, name: str) -> None:
        """Retire ``name``: the agent leaves the registry and its zone's live
        set, its node fails and leaves the platform (leave listeners and
        energy meter run as for any removal), and its interest set is
        notified."""
        agent = self._agents.pop(name, None)
        if agent is None:
            return
        node_name = agent.node_name
        self._retired[name] = node_name
        zone = agent.zone
        del self._zone_alive[zone][name]
        self._zone_epoch[zone] += 1
        self._zone_changes[zone].append((name, False))
        self.deaths += 1
        agent.on_killed()
        platform = self.platform
        if platform.has_node(node_name):
            platform.node(node_name).fail()
            platform.remove_node(node_name, at=self.engine.now)
        if self.notification == "broadcast":
            targets = list(self._agents)
        else:
            # Interest-scoped: only peers that exchanged messages with the
            # dead agent or watched it.  Their own interest sets drop the
            # dead entry so the sets stay bounded by *live* communication.
            interested = self._interest.pop(name, None) or {}
            interest = self._interest
            targets = []
            for other in interested:
                peers = interest.get(other)
                if peers is not None:
                    peers.pop(name, None)
                if other in self._agents:
                    targets.append(other)
        for other in targets:
            notice = Message(
                op=Op.AGENT_DOWN,
                sender=name,
                recipient=other,
                payload={"agent": name},
            )
            self.down_notices += 1
            # Failure detection latency: one control-message hop.
            self.engine.after(
                _DETECT_DELAY_S,
                lambda m=notice: self._deliver(m),
            )
