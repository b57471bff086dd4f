"""Outside-in tracer: timing wrappers on ``repro``'s public attributes.

Nothing under ``src/`` knows it is being traced.  :meth:`Tracer.install`
replaces the class attributes (and a few module functions) listed in
:data:`SPANS` with timing wrappers *before any object is built*, so slotted
classes and methods pre-bound at construction are covered.  Callbacks handed
to the program through its public registration points (``EventQueue.push``,
``DataStream.subscribe_batch``, ``SimulatedExecutor.on_task_done``) are
wrapped too and charged to ``<module of the callback>.callbacks`` — that is
how the executor's ``_dispatch`` and the plane's ingest get a self time
without a span inside the program.

Per span name the tracer keeps one in-memory aggregate (calls, total ns,
self ns, and an optional value sum); the few coarse spans (``run``, phases,
windows) are also kept as ``(name, start, end, parent)`` tuples.  Self time
is duration minus the part child spans cover.  The wrapper's own cost is
calibrated once per process on an empty function — the part inside the
measured interval is subtracted from the span, the part outside from its
parent — and reported as ``trace.wrapper_ns``.

A listed attribute that no longer exists fails the traced run loudly: a
rename in ``src/`` must not turn a layer's numbers silently into zero calls.
"""

import functools
import importlib
import sys
import threading
import time

_now = time.perf_counter_ns
_ident = threading.get_ident

#: (span name, module, class or None, attribute[, value hook name]).
#: A module-level function (class None) is rebound in every loaded module
#: that imported it by name.  The value hook sums one number per call.
SPANS = [
    ("executor.workflow_builder.add_task", "repro.executor.workflow_builder", "SimWorkflowBuilder", "add_task"),
    ("core.graph.add_task", "repro.core.graph", "TaskGraph", "add_task"),
    ("core.graph.add_task", "repro.core.graph", "TaskGraph", "add_tasks"),
    ("core.graph.mark_running", "repro.core.graph", "TaskGraph", "mark_running"),
    ("core.graph.mark_done", "repro.core.graph", "TaskGraph", "mark_done"),
    ("core.graph.mark_failed", "repro.core.graph", "TaskGraph", "mark_failed"),
    ("scheduling.scheduler.try_place", "repro.scheduling.scheduler", "TaskScheduler", "try_place", "placed"),
    ("scheduling.scheduler.release", "repro.scheduling.scheduler", "TaskScheduler", "release"),
    ("scheduling.capacity.best_balanced", "repro.scheduling.capacity", "CapacityLedger", "best_balanced"),
    ("scheduling.capacity.candidates", "repro.scheduling.capacity", "CapacityLedger", "candidates", "length"),
    ("scheduling.capacity.might_fit", "repro.scheduling.capacity", "CapacityLedger", "might_fit"),
    ("scheduling.policies.select", "repro.scheduling.policies", "*", "select"),
    ("scheduling.locations.best_source", "repro.scheduling.locations", "TransferPlanner", "best_source"),
    ("scheduling.locations.stage_in_plan", "repro.scheduling.locations", "TransferPlanner", "stage_in_plan"),
    ("scheduling.locations.publish", "repro.scheduling.locations", "DataLocationService", "publish"),
    ("scheduling.locations.local_bytes_map", "repro.scheduling.locations", "DataLocationService", "local_bytes_map"),
    ("scheduling.locations.rehome_node", "repro.scheduling.locations", "DataLocationService", "rehome_node"),
    ("infrastructure.network.transfer_time", "repro.infrastructure.network", "NetworkTopology", "transfer_time"),
    ("infrastructure.network.record_transfer", "repro.infrastructure.network", "NetworkTopology", "record_transfer"),
    ("executor.simulated.run", "repro.executor.simulated", "SimulatedExecutor", "run"),
    ("executor.simulated.submit_tasks", "repro.executor.simulated", "SimulatedExecutor", "submit_tasks"),
    ("simulation.events.push", "repro.simulation.events", "EventQueue", "push"),
    ("simulation.events.pop", "repro.simulation.events", "EventQueue", "pop"),
    ("simulation.engine.run", "repro.simulation.engine", "SimulationEngine", "run"),
    ("simulation.sharded.run", "repro.simulation.sharded", "ShardedSimulationEngine", "run"),
    ("simulation.parallel.run", "repro.simulation.parallel", "ParallelShardedSimulationEngine", "run"),
    ("streams.stream.publish_batch", "repro.streams.stream", "DataStream", "publish_batch"),
    ("streams.stream.prune_upto", "repro.streams.stream", "DataStream", "prune_upto"),
    ("streams.sources.valve_admit", "repro.streams.sources", "CreditValve", "admit"),
    ("streams.sources.valve_grant", "repro.streams.sources", "CreditValve", "grant"),
    ("agents.bus.register", "repro.agents.bus", "MessageBus", "register"),
    ("agents.bus.send", "repro.agents.bus", "MessageBus", "send"),
    ("agents.bus.kill", "repro.agents.bus", "MessageBus", "kill_agent"),
    ("agents.bus.kill", "repro.agents.bus", "MessageBus", "kill_now"),
    ("agents.bus.watch", "repro.agents.bus", "MessageBus", "watch"),
    ("agents.bus.changes_since", "repro.agents.bus", "MessageBus", "changes_since"),
    ("storage.dict.update", "repro.storage.keyvalue", "StorageDict", "update"),
    ("storage.dict.get", "repro.storage.keyvalue", "StorageDict", "__getitem__"),
    ("storage.dict.split", "repro.storage.keyvalue", "StorageDict", "split"),
    ("storage.dict.keys", "repro.storage.keyvalue", "StorageDict", "keys"),
    ("storage.activeobject.persist", "repro.storage.activeobject", "ActiveObject", "make_persistent"),
    ("storage.activeobject.call", "repro.storage.activeobject", "ActiveObject", "remote"),
    ("storage.activeobject.fetch", "repro.storage.activeobject", "ActiveObjectStore", "fetch"),
    ("storage.keyvalue.preference_for", "repro.storage.keyvalue", "ConsistentHashRing", "preference_for"),
    ("storage.interface.estimate_size_digest", "repro.storage.interface", None, "estimate_size_digest"),
    ("core.runtime.submit", "repro.core.runtime", "Runtime", "submit_many"),
    ("core.runtime.submit", "repro.core.runtime", "Runtime", "submit"),
    ("core.runtime.wait_on", "repro.core.runtime", "Runtime", "wait_on"),
    ("core.runtime.on_task_done", "repro.core.runtime", "Runtime", "on_task_done"),
    ("core.access_processor.prepare", "repro.core.access_processor", "AccessProcessor", "prepare_task"),
    ("core.access_processor.commit", "repro.core.access_processor", "AccessProcessor", "commit_task"),
    ("executor.local.kick", "repro.executor.local", "LocalExecutor", "kick_locked"),
    ("core.compile.compile_call", "repro.core.compile", "WorkflowCompiler", "compile_call"),
    ("intelligence.memoization.lookup", "repro.intelligence.memoization", "TaskMemoizer", "lookup"),
    ("intelligence.memoization.store", "repro.intelligence.memoization", "TaskMemoizer", "store"),
    ("workloads.guidance.build", "repro.workloads.guidance", None, "build_guidance_workflow"),
    ("workloads.churn.run_churn_fleet", "repro.workloads.churn", None, "run_churn_fleet"),
    ("workloads.zonal.run_zonal", "repro.workloads.zonal", None, "run_zonal"),
]

#: Public registration points whose callback argument (by position, self
#: counted) is wrapped and charged to ``<callback's module>.callbacks``.
REGISTRARS = [
    ("repro.simulation.events", "EventQueue", "push", 2, "action"),
    ("repro.streams.stream", "DataStream", "subscribe_batch", 1, "callback"),
    ("repro.executor.simulated", "SimulatedExecutor", "on_task_done", 1, "callback"),
]

#: Spans also kept one by one, with start, end and parent.
COARSE = frozenset(
    {
        "executor.simulated.run",
        "simulation.engine.run",
        "simulation.sharded.run",
        "simulation.parallel.run",
        "workloads.guidance.build",
        "workloads.churn.run_churn_fleet",
        "workloads.zonal.run_zonal",
        "core.runtime.wait_on",
    }
)
COARSE_LIMIT = 10_000

VALUE_HOOKS = {
    "placed": lambda result: result is not None,
    "length": len,
}


class TraceError(RuntimeError):
    """A listed attribute cannot be traced (gone, or no plain function)."""


class Tracer:
    def __init__(self):
        # One-element lists: the wrappers read them through a closure cell,
        # cheaper than an attribute of the tracer on every call.
        self._active = [False]
        self._outer = [0]
        #: thread id -> [ns covered by child spans, one slot per open span];
        #: slot 0 belongs to no span (the root).
        self._stacks = {}
        #: thread id -> names of the open coarse spans.
        self._open = {}
        #: span name -> {thread id -> [calls, total ns, self ns, value sum]}.
        self._records = {}
        self.coarse = []
        self._origin_ns = 0
        # Calibrated wrapper cost: inside the measured interval / outside it.
        self.inner_ns = 0.0
        self.outer_ns = 0.0
        self._registrar_ns = 0

    # ------------------------------------------------------------ wrapping

    def _span(self, fn, name, hook=None):
        """``fn`` wrapped in a span called ``name``."""
        active = self._active
        outer = self._outer
        stacks = self._stacks
        records = self._records.setdefault(name, {})
        coarse = self.coarse if name in COARSE else None
        open_names = self._open

        def traced(*args, **kwargs):
            if not active[0]:
                return fn(*args, **kwargs)
            ident = _ident()
            children = stacks.get(ident)
            if children is None:
                children = stacks[ident] = [0]
            children.append(0)
            if coarse is not None:
                open_names.setdefault(ident, ["<root>"]).append(name)
            start = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _now()
                covered = children.pop()
                duration = end - start
                children[-1] += duration + outer[0]
                record = records.get(ident)
                if record is None:
                    record = records[ident] = [0, 0, 0, 0]
                record[0] += 1
                record[1] += duration
                record[2] += duration - covered
                if coarse is not None:
                    names = open_names[ident]
                    names.pop()
                    if len(coarse) < COARSE_LIMIT:
                        coarse.append((name, start, end, names[-1]))
            if hook is not None:
                record[3] += hook(result)
            return result

        return traced

    def _registrar(self, fn, position, keyword):
        """``fn`` with its callback argument wrapped in a span named after
        the module that defined the callback."""
        tracer = self
        active = self._active
        names = {}

        def registering(*args, **kwargs):
            if active[0]:
                positional = len(args) > position
                callback = args[position] if positional else kwargs[keyword]
                target = callback
                while isinstance(target, functools.partial):
                    target = target.func
                target = getattr(target, "__func__", target)
                name = names.get(target)
                if name is None:
                    module = getattr(target, "__module__", None) or "unknown"
                    if module.startswith("repro."):
                        module = module[len("repro."):]
                    name = names[target] = module + ".callbacks"
                spanned = tracer._span(callback, name)
                if positional:
                    args = args[:position] + (spanned,) + args[position + 1:]
                else:
                    kwargs[keyword] = spanned
                # Wrapping happened in the caller's span: take its cost out
                # of that span's self time.
                children = tracer._stacks.get(_ident())
                if children is not None:
                    children[-1] += tracer._registrar_ns
            return fn(*args, **kwargs)

        functools.update_wrapper(registering, fn)
        return registering

    def _replace(self, holder, attribute, wrap):
        """Swap ``holder.attribute`` for its wrapped self; returns (old, new)."""
        original = vars(holder).get(attribute)
        if original is None:
            raise TraceError(
                f"traced attribute {holder.__name__}.{attribute} no longer exists"
            )
        if not callable(original):
            raise TraceError(
                f"{holder.__name__}.{attribute} is no plain function; "
                "wrapping it would change how it binds"
            )
        wrapped = wrap(original)
        setattr(holder, attribute, wrapped)
        return original, wrapped

    def install(self):
        """Wrap every listed attribute, then calibrate.

        Raises :class:`TraceError` if a listed attribute is gone.  Call it
        before the workload builds any ``repro`` object.
        """
        for name, module_name, class_name, attribute, *hook in SPANS:
            module = importlib.import_module(module_name)
            hook_fn = VALUE_HOOKS[hook[0]] if hook else None

            def wrap(fn, name=name, hook_fn=hook_fn):
                return functools.update_wrapper(self._span(fn, name, hook_fn), fn)

            if class_name is None:
                original, wrapped = self._replace(module, attribute, wrap)
                # Modules that imported the function by name hold the
                # original: rebind those too.
                for other in list(sys.modules.values()):
                    if getattr(other, "__dict__", {}).get(attribute) is original:
                        setattr(other, attribute, wrapped)
                continue
            if class_name == "*":
                holders = [
                    cls
                    for cls in vars(module).values()
                    if isinstance(cls, type)
                    and cls.__module__ == module_name
                    and attribute in vars(cls)
                ]
            else:
                holders = [getattr(module, class_name, None)]
            if not holders or holders[0] is None:
                raise TraceError(
                    f"traced class {module_name}.{class_name} no longer exists"
                )
            for holder in holders:
                self._replace(holder, attribute, wrap)
        # Registrars go on last, outside the span wrapper of the same
        # attribute: wrapping a callback must not be timed as EventQueue.push.
        for module_name, class_name, attribute, position, keyword in REGISTRARS:
            holder = getattr(importlib.import_module(module_name), class_name)
            self._replace(
                holder,
                attribute,
                lambda fn, position=position, keyword=keyword: self._registrar(
                    fn, position, keyword
                ),
            )
        self._calibrate()

    # ---------------------------------------------------------- calibration

    def _calibrate(self, calls=20_000, rounds=5):
        """Cost of one wrapper on an empty function, split at its clock reads.

        ``inner`` is what the wrapper adds between its two clock reads (it
        lands in the span's own duration and is subtracted there);
        ``outer`` is the rest (it would land in the parent's self time, so
        the wrapper reports it to the parent as covered).  The empty call
        itself sits inside the interval too: it overstates inner by under
        20 ns.
        """

        def empty():
            return None

        def register(callback):
            return None

        spanned = self._span(empty, "trace.calibration")
        registering = self._registrar(register, 0, "callback")
        loop = range(calls)
        best = None
        registrar_ns = None
        for _ in range(rounds):
            start = _now()
            for _ in loop:
                empty()
            plain = (_now() - start) / calls
            start = _now()
            for _ in loop:
                register(empty)
            plain_register = (_now() - start) / calls
            self.start()
            start = _now()
            for _ in loop:
                spanned()
            traced = (_now() - start) / calls
            record = self._records["trace.calibration"][_ident()]
            inner = record[1] / record[0]
            start = _now()
            for _ in loop:
                registering(empty)
            traced_register = (_now() - start) / calls
            self.stop()
            if best is None or traced < best[0]:
                best = (traced, plain, inner)
            cost = max(0.0, traced_register - plain_register)
            if registrar_ns is None or cost < registrar_ns:
                registrar_ns = cost
        traced, plain, inner = best
        self.inner_ns = inner
        self.outer_ns = max(0.0, traced - plain - inner)
        self._outer[0] = int(round(self.outer_ns))
        self._registrar_ns = int(round(registrar_ns))
        del self._records["trace.calibration"]

    # ------------------------------------------------------------ recording

    def start(self):
        """Forget everything recorded so far and start recording."""
        self._stacks.clear()
        self._open.clear()
        for records in self._records.values():
            records.clear()
        del self.coarse[:]
        self._origin_ns = _now()
        self._active[0] = True

    def stop(self):
        self._active[0] = False

    def coarse_span(self, name, start_s, end_s):
        """A span the benchmark itself measured (``perf_counter`` seconds)."""
        if len(self.coarse) < COARSE_LIMIT:
            self.coarse.append((name, int(start_s * 1e9), int(end_s * 1e9), "<root>"))

    # ------------------------------------------------------------ reporting

    def aggregates(self):
        """``{name: {calls, total_ns, self_ns, value}}`` over all threads,
        the wrapper's inner cost subtracted."""
        inner = self.inner_ns
        out = {}
        for name, records in self._records.items():
            if not records:
                continue
            calls, total, own, value = (sum(column) for column in zip(*records.values()))
            out[name] = {
                "calls": calls,
                "total_ns": max(0.0, total - calls * inner),
                "self_ns": max(0.0, own - calls * inner),
                "value": value,
            }
        return out

    def spans(self):
        """Coarse spans as ``[name, start_s, end_s, parent]`` from trace start."""
        origin = self._origin_ns
        return [
            [name, (start - origin) / 1e9, (end - origin) / 1e9, parent]
            for name, start, end, parent in sorted(self.coarse, key=lambda s: s[1])
        ]

    def layer_metrics(self, timed_s, ops):
        """The per-layer figures the spans give, by their BENCHMARK.json names.

        ``<span>_us`` is self time per call, ``<span>_calls`` the call count;
        a ``*_share`` is self time over the traced timed region.
        """
        aggregates = self.aggregates()
        zero = {"calls": 0, "total_ns": 0.0, "self_ns": 0.0, "value": 0}
        region_ns = timed_s * 1e9

        def of(name):
            return aggregates.get(name, zero)

        def per_call(record, field):
            return record[field] / record["calls"] if record["calls"] else 0.0

        out = {}
        for name in PER_CALL:
            record = of(name)
            out[name + "_us"] = per_call(record, "self_ns") / 1e3
            out[name + "_calls"] = record["calls"]
        out["scheduling.scheduler.place_hit_ratio"] = per_call(
            of("scheduling.scheduler.try_place"), "value"
        )
        out["scheduling.capacity.candidates_len_mean"] = per_call(
            of("scheduling.capacity.candidates"), "value"
        )
        out["executor.simulated.self_share"] = (
            of("executor.simulated.callbacks")["self_ns"]
            + of("executor.simulated.run")["self_ns"]
        ) / region_ns
        out["simulation.engine.run_self_share"] = (
            of("simulation.engine.run")["self_ns"] / region_ns
        )
        out["streams.dataflow.self_share"] = (
            of("streams.dataflow.callbacks")["self_ns"] / region_ns
        )
        publish = of("streams.stream.publish_batch")
        out["streams.stream.publish_batch_us_per_element"] = (
            publish["self_ns"] / ops / 1e3 if publish["calls"] else 0.0
        )
        # Fleet construction: run_churn_fleet entered -> its engine run entered.
        fleet_setup_s = 0.0
        spans = self.spans()
        for name, start, _end, _parent in spans:
            if name == "workloads.churn.run_churn_fleet":
                inner = [
                    s[1] for s in spans
                    if s[0] == "simulation.engine.run" and s[3] == name
                ]
                if inner:
                    fleet_setup_s = inner[0] - start
                break
        out["workloads.churn.fleet_setup_s"] = fleet_setup_s
        # Time of the main thread's traced interval inside no span at all.
        covered_ns = self._stacks.get(_ident(), [0])[0]
        out["trace.residual_share"] = max(0.0, 1.0 - covered_ns / region_ns)
        out["trace.wrapper_ns"] = self.inner_ns + self.outer_ns
        return out, aggregates, spans


#: Spans reported per call: ``<name>_us`` and ``<name>_calls``.
PER_CALL = [
    "executor.workflow_builder.add_task",
    "core.graph.add_task",
    "core.graph.mark_running",
    "core.graph.mark_done",
    "core.graph.mark_failed",
    "scheduling.scheduler.try_place",
    "scheduling.scheduler.release",
    "scheduling.capacity.best_balanced",
    "scheduling.capacity.candidates",
    "scheduling.capacity.might_fit",
    "scheduling.policies.select",
    "scheduling.locations.best_source",
    "scheduling.locations.stage_in_plan",
    "scheduling.locations.publish",
    "scheduling.locations.local_bytes_map",
    "scheduling.locations.rehome_node",
    "infrastructure.network.transfer_time",
    "infrastructure.network.record_transfer",
    "executor.simulated.submit_tasks",
    "simulation.events.push",
    "simulation.events.pop",
    "streams.stream.prune_upto",
    "streams.sources.valve_admit",
    "streams.sources.valve_grant",
    "agents.bus.register",
    "agents.bus.send",
    "agents.bus.kill",
    "agents.bus.watch",
    "agents.bus.changes_since",
    "storage.keyvalue.preference_for",
    "storage.interface.estimate_size_digest",
    "core.access_processor.prepare",
    "core.access_processor.commit",
    "executor.local.kick",
    "core.compile.compile_call",
    "intelligence.memoization.lookup",
    "intelligence.memoization.store",
]
