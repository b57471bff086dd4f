"""Web services on agents (§VI-A).

Two of the paper's COMPSs features in agent form:

* a task may be "an invocation to a web service, previously instantiated in
  a node" — :meth:`ServiceMixin.publish_service` instantiates one on an
  agent, :meth:`ServiceMixin.invoke_service` calls it from any peer over
  the REST bus, with requests occupying the provider's cores like any
  other work;
* "a whole COMPSs application can be published as a web service" —
  :func:`publish_application_service` wraps an orchestrated workflow behind
  a service endpoint: each request builds and runs a graph, and the reply
  carries the application's outcome.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.agents.messages import Message, Op
from repro.core.exceptions import AgentError

_request_ids = itertools.count(1)


@dataclass
class ServiceSpec:
    """A service endpoint hosted by an agent."""

    name: str
    handler: Callable[[Any], Any]
    compute_time_s: float = 0.1
    cores: int = 1
    invocations: int = 0


class ServiceMixin:
    """Service behaviour mixed into :class:`~repro.agents.agent.Agent`.

    ``_services`` and ``_service_callbacks`` start at None: the first
    ``publish_service`` / ``invoke_service(on_reply=...)`` creates them.
    """

    # ------------------------------------------------------------- provider

    def publish_service(
        self,
        name: str,
        handler: Callable[[Any], Any],
        compute_time_s: float = 0.1,
        cores: int = 1,
    ) -> None:
        """Instantiate a service on this agent and register it on the bus."""
        if self._services is None:
            self._services = {}
        elif name in self._services:
            raise AgentError(f"agent {self.name!r} already publishes {name!r}")
        self._services[name] = ServiceSpec(
            name=name, handler=handler, compute_time_s=compute_time_s, cores=cores
        )
        self.bus.register_service(name, self.name)

    def published_service(self, name: str) -> Optional[ServiceSpec]:
        """The spec of a service this agent publishes, or None."""
        return self._services.get(name) if self._services else None

    def _on_service_request(self, message: Message) -> None:
        payload = message.payload
        spec = self.published_service(payload["service"])
        if spec is None:
            raise AgentError(
                f"agent {self.name!r} received request for unpublished "
                f"service {payload['service']!r}"
            )
        # Service work occupies cores like any task: reuse the worker queue.
        from repro.agents.agent import _QueuedWork

        def complete_service() -> None:
            spec.invocations += 1
            result = spec.handler(payload.get("argument"))
            self.bus.send(
                Message(
                    op=Op.SERVICE_RESPONSE,
                    sender=self.name,
                    recipient=message.sender,
                    payload={
                        "request_id": payload["request_id"],
                        "result": result,
                    },
                )
            )

        self._enqueue(
            _QueuedWork(
                task_id=-payload["request_id"],  # negative ids: service work
                origin=message.sender,
                cores=min(spec.cores, self.cores),
                duration_s=spec.compute_time_s,
                stage_in_s=0.0,
                output_sizes={},
                on_complete=complete_service,
            )
        )

    # --------------------------------------------------------------- client

    def invoke_service(
        self,
        name: str,
        argument: Any = None,
        on_reply: Optional[Callable[[Any], None]] = None,
    ) -> int:
        """Call a service by name; ``on_reply`` fires with the result.

        Returns the request id.  Calls to services whose provider has died
        are dropped by the bus (no reply), like a refused connection.
        """
        provider = self.bus.find_service(name)
        if provider is None:
            raise AgentError(f"no agent publishes service {name!r}")
        request_id = next(_request_ids)
        if on_reply is not None:
            if self._service_callbacks is None:
                self._service_callbacks = {}
            self._service_callbacks[request_id] = on_reply
        self.bus.send(
            Message(
                op=Op.SERVICE_REQUEST,
                sender=self.name,
                recipient=provider,
                payload={
                    "service": name,
                    "argument": argument,
                    "request_id": request_id,
                },
            )
        )
        return request_id

    def _on_service_response(self, message: Message) -> None:
        callbacks = self._service_callbacks
        if callbacks is None:
            return  # this agent never asked for a reply
        callback = callbacks.pop(message.payload["request_id"], None)
        if callback is not None:
            callback(message.payload["result"])


def publish_application_service(
    agent,
    name: str,
    graph_factory: Callable[[Any], Any],
    policy=None,
    peers=None,
) -> None:
    """Publish a whole workflow application as a service on ``agent``.

    Each request builds a fresh graph via ``graph_factory(argument)`` and
    orchestrates it on a *dedicated orchestration context*; the reply
    carries ``{"completed": ..., "tasks_done": ..., "makespan": ...}``.

    Note: the hosting agent must not already be orchestrating; concurrent
    requests are serialized (one application at a time), mirroring how a
    published COMPSs service instantiates the application per request.
    """

    pending: list = []

    def handler(argument: Any) -> Any:
        graph = graph_factory(argument)
        # Orchestrate on the hosting agent; completion is observed when the
        # graph finishes (the engine keeps running events until then).
        if agent.graph is not None:
            # Serialize: previous application must have finished.
            if not agent.graph.finished:
                return {"completed": False, "error": "busy"}
            agent.reset_orchestration()
        agent.start_application(graph, policy=policy, peers=peers)
        pending.append(graph)
        return {"accepted": True}

    agent.publish_service(name, handler, compute_time_s=0.01)
