"""The COMPSs Agent: orchestrator + worker microservice (Fig. 6).

Every agent can both *orchestrate* an application (own its task graph, run
the Access-Processor/Task-Scheduler pipeline, decide offloading) and *work*
for peers (accept EXECUTE_TASK requests against its local resources) — "Each
Agent is independent of the other and can execute the same application code
acting as a worker whenever needed".

Data model (mirrors the paper's dataClay integration, §VI-B):

* without persistence, a task's outputs live only on the agent that ran it;
  consumers dispatched elsewhere ship the bytes from that agent, and an agent
  crash loses everything it produced;
* with a persistence store configured, "whenever a task is submitted to a
  remote agent, the COMPSs runtime persists any not-yet-persisted object
  passed in as a parameter", and every produced value is stored "so any
  other agent ... can use that value for succeeding executions" — which is
  what makes crash recovery possible (claim C5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.agents.bus import MessageBus
from repro.agents.messages import Message, Op
from repro.agents.offloading import NeverOffload, OffloadingPolicy, PeerInfo
from repro.core.exceptions import AgentError
from repro.core.graph import TaskGraph, TaskInstance, TaskState

_CONTROL_BYTES = 512.0


@dataclass
class AgentReport:
    """Outcome of an orchestrated application."""

    completed: bool
    failed: bool
    makespan: float
    tasks_done: int
    tasks_recovered: int
    executed_by: Dict[str, int] = field(default_factory=dict)
    messages_sent: int = 0


@dataclass(eq=False)
class _InFlight:
    task: TaskInstance
    executor: str


@dataclass(eq=False)
class _QueuedWork:
    """A task accepted by a worker agent, waiting for or holding cores.

    Compared by identity: equal-valued requests are still separate work.
    """

    task_id: int
    origin: str
    cores: int
    duration_s: float
    stage_in_s: float
    output_sizes: Dict[str, float]
    running: bool = False


@dataclass(eq=False)
class _Orchestration:
    """What an agent holds only because it orchestrates.

    Created by its first ``start_application``; ``reset_orchestration``
    clears the application half and keeps policy, data catalogue and
    lifetime counters.
    """

    graph: Optional[TaskGraph] = None
    policy: OffloadingPolicy = NeverOffload()  # stateless: one shared instance
    peers: Dict[str, PeerInfo] = field(default_factory=dict)
    in_flight: Dict[int, _InFlight] = field(default_factory=dict)
    # Secondary indexes so an AGENT_DOWN notice costs O(state at the dead
    # agent), not O(all in-flight + all data).  Inner dicts (and
    # ``datum_persisted``) are insertion-ordered sets: iteration order =
    # dispatch/publish order, matching what the flat scans used to produce.
    in_flight_by_executor: Dict[str, Dict[int, None]] = field(default_factory=dict)
    home_index: Dict[str, Dict[str, None]] = field(default_factory=dict)
    local_outstanding: int = 0
    datum_home: Dict[str, str] = field(default_factory=dict)
    datum_size: Dict[str, float] = field(default_factory=dict)
    datum_persisted: Dict[str, None] = field(default_factory=dict)
    app_start: Optional[float] = None
    app_end: Optional[float] = None
    app_failed: bool = False
    failure_reason: Optional[str] = None
    tasks_recovered: int = 0
    executed_by: Dict[str, int] = field(default_factory=dict)

    def set_home(self, datum: str, home: str) -> None:
        old = self.datum_home.get(datum)
        if old is not None and old != home:
            index = self.home_index.get(old)
            if index is not None:
                index.pop(datum, None)
        self.datum_home[datum] = home
        index = self.home_index.get(home)
        if index is None:
            index = self.home_index[home] = {}
        index[datum] = None


class Agent:
    """One microservice runtime instance pinned to a platform node.

    It holds a role's state from when it first plays the role: the
    orchestration record from ``start_application``, the queue from the
    first request.
    """

    def __init__(
        self,
        name: str,
        node_name: str,
        bus: MessageBus,
        persistence_store_node: Optional[str] = None,
    ) -> None:
        self.name = name
        self.node_name = node_name
        self.bus = bus
        self.platform = bus.platform
        self.engine = bus.engine
        node = self.platform.node(node_name)
        self.zone = self.platform.network.zone_of(node_name)
        self.cores = node.cores
        self.speed_factor = node.speed_factor
        self.kind = node.kind.value
        self.persistence_store_node = persistence_store_node
        bus.register(self)

        self._free_cores = self.cores
        self.tasks_executed = 0
        self._queue: Optional[List[_QueuedWork]] = None
        self._orch: Optional[_Orchestration] = None

    # ------------------------------------------------------------- REST API

    def handle(self, message: Message) -> None:
        """Entry point for every delivered message (the REST dispatcher)."""
        handler = self._HANDLERS.get(message.op)
        if handler is None:
            raise AgentError(f"agent {self.name!r}: unhandled op {message.op}")
        handler(self, message)

    def _ignore(self, message: Message) -> None:
        """Replies nobody acts on (STATUS_REPLY)."""

    # --------------------------------------------------------- orchestration

    @property
    def graph(self) -> Optional[TaskGraph]:
        """The application being (or last) orchestrated; None on a worker."""
        return self._orch.graph if self._orch is not None else None

    @property
    def app_failed(self) -> bool:
        return self._orch is not None and self._orch.app_failed

    @property
    def failure_reason(self) -> Optional[str]:
        return self._orch.failure_reason if self._orch is not None else None

    @property
    def tasks_recovered(self) -> int:
        return self._orch.tasks_recovered if self._orch is not None else 0

    def peer_names(self) -> List[str]:
        """Peers of the current application not yet known dead, in order."""
        return list(self._orch.peers) if self._orch is not None else []

    def homed_data(self) -> List[Tuple[str, str, float]]:
        """``(datum, home agent, size)`` per tracked datum, in publish order."""
        orch = self._orch
        if orch is None:
            return []
        sizes = orch.datum_size
        return [(d, home, sizes.get(d, 0.0)) for d, home in orch.datum_home.items()]

    def forget_data(self) -> None:
        """Drop the data catalogue (it otherwise outlives the application)."""
        orch = self._orch
        if orch is not None:
            orch.datum_home.clear()
            orch.datum_size.clear()
            orch.datum_persisted.clear()
            orch.home_index.clear()

    def start_application(
        self,
        graph: TaskGraph,
        policy: Optional[OffloadingPolicy] = None,
        peers: Optional[List[str]] = None,
        initial_data: Optional[Dict[str, float]] = None,
    ) -> None:
        """Begin orchestrating ``graph`` (the REST Start Application op)."""
        orch = self._orch
        if orch is None:
            orch = self._orch = _Orchestration()
        elif orch.graph is not None:
            raise AgentError(f"agent {self.name!r} is already orchestrating")
        orch.graph = graph
        if policy is not None:
            orch.policy = policy
        for peer_name in peers or []:
            peer = self.bus.agent(peer_name)
            orch.peers[peer_name] = PeerInfo(
                name=peer_name,
                cores=peer.cores,
                speed_factor=peer.speed_factor,
                kind=peer.kind,
                outstanding=0,
            )
            # Subscribe to the peer's death notice before any message flows:
            # under interest-scoped failure notification a peer dying between
            # Start Application and the first dispatch is still detected.
            self.bus.watch(self.name, peer_name)
        for datum, size in (initial_data or {}).items():
            orch.set_home(datum, self.name)
            orch.datum_size[datum] = size
            if self.persistence_store_node is not None:
                orch.datum_persisted[datum] = None
        orch.app_start = self.engine.now
        self._dispatch()

    def _on_start_application(self, message: Message) -> None:
        self.start_application(
            graph=message.payload["graph"],
            policy=message.payload.get("policy"),
            peers=message.payload.get("peers"),
            initial_data=message.payload.get("initial_data"),
        )

    def _dispatch(self) -> None:
        orch = self._orch
        if orch is None or orch.graph is None or orch.app_failed:
            return
        local_info = PeerInfo(
            name=self.name,
            cores=self.cores,
            speed_factor=self.speed_factor,
            kind=self.kind,
            outstanding=orch.local_outstanding,
        )
        for task in list(orch.graph.ready_tasks()):
            target = orch.policy.choose(task, local_info, list(orch.peers.values()))
            self._send_task(orch, task, target)
            if target == self.name:
                orch.local_outstanding += 1
                local_info.outstanding = orch.local_outstanding
            else:
                orch.peers[target].outstanding += 1

    def _send_task(self, orch: _Orchestration, task: TaskInstance, target: str) -> None:
        orch.graph.mark_running(task.task_id, target, now=self.engine.now)
        task.assigned_nodes = [target]
        orch.in_flight[task.task_id] = _InFlight(task=task, executor=target)
        by_executor = orch.in_flight_by_executor.get(target)
        if by_executor is None:
            by_executor = orch.in_flight_by_executor[target] = {}
        by_executor[task.task_id] = None

        profile = task.profile
        input_specs = []
        shipped_bytes = 0.0
        for datum in task.reads:
            size = orch.datum_size.get(datum, 0.0)
            persisted = datum in orch.datum_persisted
            home = orch.datum_home.get(datum, self.name)
            input_specs.append(
                {"datum": datum, "size": size, "persisted": persisted, "home": home}
            )
            # Non-persisted inputs homed at the orchestrator travel with the
            # request; inputs homed elsewhere are fetched by the worker.
            if not persisted and home == self.name and target != self.name:
                shipped_bytes += size

        payload = {
            "task_id": task.task_id,
            "origin": self.name,
            "cores": task.requirements.cores,
            "duration_s": profile.duration_s if profile else 0.0,
            "inputs": input_specs,
            "outputs": dict(zip(task.writes, profile.output_sizes)) if profile else {},
        }
        self.bus.send(
            Message(
                op=Op.EXECUTE_TASK,
                sender=self.name,
                recipient=target,
                payload=payload,
                payload_bytes=_CONTROL_BYTES + shipped_bytes,
            )
        )

    def _on_task_done(self, message: Message) -> None:
        orch = self._orch
        if orch is None or orch.graph is None:
            return
        task_id = message.payload["task_id"]
        executor = message.sender
        flight = orch.in_flight.pop(task_id, None)
        if flight is None:
            return  # duplicate completion after recovery re-dispatch
        by_executor = orch.in_flight_by_executor.get(flight.executor)
        if by_executor is not None:
            by_executor.pop(task_id, None)
        if executor == self.name:
            orch.local_outstanding = max(0, orch.local_outstanding - 1)
        elif executor in orch.peers:
            peer = orch.peers[executor]
            peer.outstanding = max(0, peer.outstanding - 1)
        for datum, size in message.payload.get("outputs", {}).items():
            orch.set_home(datum, executor)
            orch.datum_size[datum] = size
            if message.payload.get("persisted", False):
                orch.datum_persisted[datum] = None
        orch.executed_by[executor] = orch.executed_by.get(executor, 0) + 1
        orch.graph.mark_done(task_id, now=self.engine.now)
        if orch.graph.finished:
            orch.app_end = self.engine.now
        else:
            self._dispatch()

    def _on_agent_down(self, message: Message) -> None:
        orch = self._orch
        if orch is None:
            return
        dead = message.payload["agent"]
        peer_dropped = orch.peers.pop(dead, None) is not None
        if orch.graph is None:
            return
        # O(state at the dead agent): the executor/home indexes hand us the
        # affected flights and data directly, and an uninvolved orchestrator
        # (nothing in flight there, nothing homed there) exits immediately —
        # no O(in-flight) or O(data) scan per death.
        flights = orch.in_flight_by_executor.pop(dead, None)
        homed = orch.home_index.pop(dead, None)
        if not peer_dropped and not flights and not homed:
            return
        lost_data = {
            datum for datum in (homed or ()) if datum not in orch.datum_persisted
        }
        for task_id in flights or ():
            flight = orch.in_flight.pop(task_id, None)
            if flight is None:
                continue
            task = flight.task
            if any(d in lost_data for d in task.reads):
                self._fail_application(
                    orch, f"task {task.label} inputs lost with agent {dead}"
                )
                return
            orch.graph.requeue(task.task_id)
            orch.tasks_recovered += 1
        # Data produced by the dead agent that future tasks need:
        if lost_data:
            for task in orch.graph.tasks:
                if task.state in (TaskState.PENDING, TaskState.READY):
                    if any(d in lost_data for d in task.reads):
                        self._fail_application(
                            orch, f"task {task.label} inputs lost with agent {dead}"
                        )
                        return
        self._dispatch()

    def _fail_application(self, orch: _Orchestration, reason: str) -> None:
        orch.app_failed = True
        orch.app_end = self.engine.now
        orch.failure_reason = reason

    # --------------------------------------------------------------- worker

    def _on_execute_task(self, message: Message) -> None:
        payload = message.payload
        stage_in = self._stage_in_time(payload["inputs"], payload["origin"])
        self._enqueue(
            _QueuedWork(
                task_id=payload["task_id"],
                origin=payload["origin"],
                cores=min(payload["cores"], self.cores),
                duration_s=payload["duration_s"],
                stage_in_s=stage_in,
                output_sizes=dict(payload["outputs"]),
            )
        )

    def _enqueue(self, work: _QueuedWork) -> None:
        if self._queue is None:
            self._queue = []
        self._queue.append(work)
        self._pump_queue()

    def _stage_in_time(self, inputs: List[dict], origin: str) -> float:
        """Parallel-fetch model over inputs not already local to this agent."""
        worst = 0.0
        network = self.platform.network
        for spec in inputs:
            datum, size, persisted, home = (
                spec["datum"],
                spec["size"],
                spec["persisted"],
                spec["home"],
            )
            if size <= 0:
                continue
            if persisted and self.persistence_store_node is not None:
                src = self.persistence_store_node
            elif home == self.name:
                continue
            elif home == origin:
                continue  # travelled with the request; bus already charged it
            else:
                if not self.bus.is_alive(home):
                    continue  # unreachable; orchestrator handles the failure
                src = self.bus.agent(home).node_name
            if src == self.node_name:
                continue
            duration = network.transfer_time(src, self.node_name, size)
            network.record_transfer(
                src, self.node_name, size, self.engine.now, duration, datum=datum
            )
            worst = max(worst, duration)
        return worst

    def _pump_queue(self) -> None:
        for work in self._queue or ():
            if work.running:
                continue
            if work.cores <= self._free_cores:
                work.running = True
                self._free_cores -= work.cores
                total = work.stage_in_s + work.duration_s / self.speed_factor
                persist_delay = self._persist_time(work.output_sizes)
                self.engine.after(
                    total + persist_delay,
                    lambda w=work: self._finish_work(w),
                )

    def _drain_battery(self, work: _QueuedWork) -> bool:
        """Charge the device battery for the work done; True when depleted."""
        node = self.platform.node(self.node_name)
        if node.battery_joules is None:
            return False
        execution_seconds = work.stage_in_s + work.duration_s / self.speed_factor
        drained = node.power.power(work.cores) * execution_seconds
        node.battery_joules -= drained
        return node.battery_joules <= 0

    def _persist_time(self, output_sizes: Dict[str, float]) -> float:
        if self.persistence_store_node is None or not output_sizes:
            return 0.0
        network = self.platform.network
        return max(
            network.transfer_time(self.node_name, self.persistence_store_node, size)
            for size in output_sizes.values()
        )

    def _finish_work(self, work: _QueuedWork) -> None:
        if not self._queue or work not in self._queue:
            return  # agent was killed; stale completion
        self._queue.remove(work)
        self._free_cores += work.cores
        self.tasks_executed += 1
        if self._drain_battery(work):
            # Battery died finishing this task: the result is lost with the
            # device — the paper's "disappeared for low battery" scenario.
            self.bus.kill_now(self.name)
            return
        self.bus.send(
            Message(
                op=Op.TASK_DONE,
                sender=self.name,
                recipient=work.origin,
                payload={
                    "task_id": work.task_id,
                    "outputs": dict(work.output_sizes),
                    "persisted": self.persistence_store_node is not None,
                },
            )
        )
        self._pump_queue()

    # ------------------------------------------------------------- resources

    def _on_add_resources(self, message: Message) -> None:
        extra = int(message.payload.get("cores", 0))
        if extra <= 0:
            raise AgentError("ADD_RESOURCES requires a positive core count")
        self.cores += extra
        self._free_cores += extra
        self._pump_queue()

    def _on_remove_resources(self, message: Message) -> None:
        fewer = int(message.payload.get("cores", 0))
        removable = min(fewer, self._free_cores, self.cores - 1)
        self.cores -= removable
        self._free_cores -= removable

    def _on_query_status(self, message: Message) -> None:
        self.bus.send(
            Message(
                op=Op.STATUS_REPLY,
                sender=self.name,
                recipient=message.sender,
                payload={
                    "queued": len(self._queue or ()),
                    "free_cores": self._free_cores,
                    "executed": self.tasks_executed,
                },
            )
        )

    def reset_orchestration(self) -> None:
        """Clear finished-application state so a new one can start.

        A long-lived orchestrator (the churn workload's) runs one
        application after another on the same agent.
        """
        orch = self._orch
        if orch is None:
            return
        if orch.graph is not None and not orch.graph.finished and not orch.app_failed:
            raise AgentError(
                f"agent {self.name!r} is still orchestrating; cannot reset"
            )
        orch.graph = None
        orch.peers = {}
        orch.in_flight = {}
        orch.in_flight_by_executor = {}
        # home_index stays: it mirrors datum_home, which outlives the
        # application (data published by one app can seed the next).
        orch.local_outstanding = 0
        orch.app_start = None
        orch.app_end = None
        orch.app_failed = False

    # -------------------------------------------------------------- failures

    def on_killed(self) -> None:
        """Bus callback: this agent crashed — drop all local state."""
        self._queue = None
        self._free_cores = self.cores
        orch = self._orch
        # A failed application has its end stamped too: an open one has none.
        if orch is not None and orch.graph is not None and orch.app_end is None:
            self._fail_application(orch, "orchestrator agent died")

    # --------------------------------------------------------------- report

    def report(self) -> AgentReport:
        """Summary of the orchestrated application (orchestrator only)."""
        orch = self._orch
        if orch is None or orch.graph is None:
            raise AgentError(f"agent {self.name!r} never orchestrated an application")
        makespan = 0.0
        if orch.app_start is not None and orch.app_end is not None:
            makespan = orch.app_end - orch.app_start
        return AgentReport(
            completed=orch.graph.finished and not orch.app_failed,
            failed=orch.app_failed,
            makespan=makespan,
            tasks_done=orch.graph.completed_count,
            tasks_recovered=orch.tasks_recovered,
            executed_by=dict(orch.executed_by),
            messages_sent=self.bus.messages_sent,
        )

    #: The REST routing table, built once for the class (a subclass that
    #: overrides a handler rebuilds it).
    _HANDLERS = {
        Op.START_APPLICATION: _on_start_application,
        Op.EXECUTE_TASK: _on_execute_task,
        Op.TASK_DONE: _on_task_done,
        Op.ADD_RESOURCES: _on_add_resources,
        Op.REMOVE_RESOURCES: _on_remove_resources,
        Op.QUERY_STATUS: _on_query_status,
        Op.STATUS_REPLY: _ignore,
        Op.AGENT_DOWN: _on_agent_down,
    }
