"""Equivalence tests: indexed placement fast paths vs naive full scans.

The placement hot path (DESIGN.md §2, claim C1) is a stack of pure *cost*
optimizations — bucket-indexed ``candidates()``, single-pass policy
maximizations, the blocked-demand frontier and the blocked-prefix snapshot
in ``SimulatedExecutor._dispatch``.  Every layer claims identical
*decisions* to the definitional full scan, just fewer probes.  This suite
pins that claim three ways:

* hypothesis programs drive a :class:`CapacityLedger` through random
  allocate/release/join/leave/fail sequences and compare ``candidates()``
  against the brute-force registration-order filter after every step, and
  check the bucket indexes behind it against the tracked nodes;
* each policy's selection is compared against a naive ``max(key=...)``
  / per-candidate recomputation;
* a ``NaiveDispatchExecutor`` (full-probe ``_dispatch``: no frontier, no
  prefix snapshot) must produce byte-identical makespans and per-task
  assignments on generated GUIDANCE runs — any dispatch window, with or
  without an injected node failure, under a policy that only ever fails
  for capacity and under one that also declines.

All data sizes in the strategies are integer-valued so float accumulation
order can never manufacture a spurious argmax difference.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.constraints import ResolvedRequirements
from repro.core.graph import SimProfile, TaskGraph, TaskInstance, TaskState
from repro.executor.simulated import SimulatedExecutionError, SimulatedExecutor
from repro.infrastructure import Node, make_hpc_cluster
from repro.infrastructure.network import NetworkTopology
from repro.infrastructure.resources import GpuSpec
from repro.intelligence import DurationPredictor, PredictedFinishTimePolicy
from repro.scheduling.capacity import CapacityLedger
from repro.scheduling.locations import DataLocationService
from repro.scheduling.policies import (
    EarliestFinishTimePolicy,
    LoadBalancingPolicy,
    LocalityPolicy,
)
from repro.scheduling.scheduler import BlockedDemandFrontier
from repro.workloads import GuidanceConfig, build_guidance_workflow


# --------------------------------------------------------------------------
# Naive references
# --------------------------------------------------------------------------


def naive_candidates(ledger, req):
    """The definitional answer: full scan, registration order, fits_now."""
    return [s.node.name for s in ledger.states if s.fits_now(req)]


def naive_load_balancing(candidates):
    if not candidates:
        return None
    return max(candidates, key=lambda s: (s.free_cores, -s.busy_cores))


def naive_locality(task, candidates, locations):
    if not candidates:
        return None
    if not task.reads:
        return max(candidates, key=lambda s: s.free_cores)

    def score(state):
        local = 0.0
        for datum_id in task.reads:
            if state.node.name in locations.get_locations(datum_id):
                local += locations.size_of(datum_id)
        return (local, state.free_cores)

    return max(candidates, key=score)


def naive_eft_finish(task, state, locations, network):
    profile = task.profile
    compute = (profile.duration_s if profile else 1.0) / state.node.speed_factor
    transfer = 0.0
    for datum_id in task.reads:
        holders = locations.holders_of(datum_id)
        if not holders or state.node.name in holders:
            continue
        size = locations.size_of(datum_id)
        transfer += min(
            network.transfer_time(src, state.node.name, size) for src in holders
        )
    return transfer + compute


def naive_eft_select(task, candidates, locations, network):
    best = None
    best_key = None
    for state in candidates:
        finish = naive_eft_finish(task, state, locations, network)
        key = (finish, -state.free_cores)
        if best is None or key < best_key:
            best, best_key = state, key
    return best


def naive_predicted_select(task, candidates, predictor, locations, network, factor):
    """Per-candidate x per-read x per-holder scan; inputs fetch in parallel
    (max over reads), the winner is re-estimated for the decline check."""

    def finish(state):
        size_hint = sum(locations.size_of(d) for d in task.reads) or None
        predicted = predictor.predict(task.label, size=size_hint)
        compute = predicted / state.node.speed_factor
        transfer = 0.0
        for datum_id in task.reads:
            holders = locations.get_locations(datum_id)
            if not holders or state.node.name in holders:
                continue
            size = locations.size_of(datum_id)
            fetch = min(
                network.transfer_time(src, state.node.name, size) for src in holders
            )
            transfer = max(transfer, fetch)
        return transfer + compute

    best = min(candidates, key=lambda s: (finish(s), -s.free_cores))
    best_speed = max(s.node.speed_factor for s in candidates)
    size_hint = sum(locations.size_of(d) for d in task.reads) or None
    reference = predictor.predict(task.label, size=size_hint) / best_speed
    if factor is not None and finish(best) > factor * reference:
        return None
    return best


# --------------------------------------------------------------------------
# Hypothesis strategies
# --------------------------------------------------------------------------

_SOFTWARE_SETS = [
    frozenset(),
    frozenset({"mpi"}),
    frozenset({"mpi", "python"}),
]

node_specs = st.tuples(
    st.integers(min_value=1, max_value=16),  # cores
    st.integers(min_value=1, max_value=70_000),  # memory_mb
    st.integers(min_value=0, max_value=2),  # gpus
    st.sampled_from(_SOFTWARE_SETS),
)

req_specs = st.tuples(
    st.integers(min_value=1, max_value=12),  # cores
    st.integers(min_value=0, max_value=60_000),  # memory_mb
    st.integers(min_value=0, max_value=2),  # gpus
    st.sampled_from([frozenset(), frozenset({"mpi"})]),
)

ledger_ops = st.lists(
    st.one_of(
        st.tuples(st.just("alloc"), st.integers(0, 63), req_specs),
        st.tuples(st.just("release"), st.integers(0, 63)),
        st.tuples(st.just("add"), node_specs),
        st.tuples(st.just("remove"), st.integers(0, 63)),
        st.tuples(st.just("fail"), st.integers(0, 63)),
        st.tuples(st.just("query"), req_specs),
    ),
    max_size=50,
)


def _make_node(name, spec):
    cores, memory_mb, gpus, software = spec
    return Node(
        name=name,
        cores=cores,
        memory_mb=memory_mb,
        gpus=tuple(GpuSpec() for _ in range(gpus)),
        software=software,
    )


def _make_req(spec):
    cores, memory_mb, gpus, software = spec
    return ResolvedRequirements(
        cores=cores, memory_mb=memory_mb, gpus=gpus, software=software
    )


class TestLedgerCandidateEquivalence:
    """Indexed candidates() == brute-force scan, under arbitrary programs."""

    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        initial=st.lists(node_specs, min_size=1, max_size=6),
        ops=ledger_ops,
        probe=req_specs,
    )
    def test_candidates_match_naive_full_scan(self, initial, ops, probe):
        ledger = CapacityLedger(
            _make_node(f"n{i}", spec) for i, spec in enumerate(initial)
        )
        next_name = len(initial)
        next_task = 0
        running = []  # (task_id, node_name, req)
        probe_req = _make_req(probe)

        def check(req):
            expected = naive_candidates(ledger, req)
            got = [s.node.name for s in ledger.candidates(req)]
            assert got == expected
            # might_fit is a *necessary* condition: it may admit an
            # unplaceable demand but must never reject a placeable one.
            if expected:
                assert ledger.might_fit(req)
            # A repeat query must not change the answer.
            again = [s.node.name for s in ledger.candidates(req)]
            assert again == expected

        check(probe_req)
        for op in ops:
            kind = op[0]
            if kind == "alloc":
                names = ledger.node_names
                if not names:
                    continue
                state = ledger.state(names[op[1] % len(names)])
                req = _make_req(op[2])
                if state.fits_now(req):
                    state.allocate(next_task, req)
                    running.append((next_task, state.node.name, req))
                    next_task += 1
            elif kind == "release":
                if not running:
                    continue
                task_id, node_name, req = running.pop(op[1] % len(running))
                if ledger.has_node(node_name):
                    ledger.state(node_name).release(task_id, req)
            elif kind == "add":
                ledger.add_node(_make_node(f"n{next_name}", op[1]))
                next_name += 1
            elif kind == "remove":
                names = ledger.node_names
                if len(names) <= 1:
                    continue
                gone = names[op[1] % len(names)]
                ledger.remove_node(gone)
                running = [r for r in running if r[1] != gone]
            elif kind == "fail":
                names = ledger.node_names
                if not names:
                    continue
                ledger.state(names[op[1] % len(names)]).node.fail()
            else:  # query
                check(_make_req(op[1]))
            check(probe_req)


def assert_index_invariant(ledger):
    """The bucket indexes hold exactly the tracked nodes, each where its
    free resources say, every cores list in tie order, tops exact."""
    states = ledger.states
    cores_buckets = ledger._cores_buckets
    mem_buckets = ledger._mem_buckets
    for state in states:
        entries = [e for e in cores_buckets.get(state.free_cores, ()) if e[2] is state]
        assert entries == [(state.node.cores, state.order, state)]
        assert state.cores_key == state.free_cores
        mem_key = state.free_memory_mb.bit_length()
        assert mem_buckets.get(mem_key, {}).get(state.node.name) is state
        assert state.mem_key == mem_key
    for bucket in cores_buckets.values():
        ties = [(cores, order) for cores, order, _ in bucket]
        assert ties == sorted(set(ties))
    assert ledger._top_cores_key == max(
        (key for key, bucket in cores_buckets.items() if bucket), default=0
    )
    assert ledger._top_mem_key == max(
        (key for key, bucket in mem_buckets.items() if bucket), default=0
    )
    # No stale entries: every index entry is a tracked node, once.
    indexed = [e[2] for bucket in cores_buckets.values() for e in bucket]
    assert sorted(s.order for s in indexed) == sorted(s.order for s in states)
    assert all(ledger.state(s.node.name) is s for s in indexed)
    filed = [s for bucket in mem_buckets.values() for s in bucket.values()]
    assert sorted(s.order for s in filed) == sorted(s.order for s in states)
    assert all(ledger.state(s.node.name) is s for s in filed)
    assert ledger.total_free_cores == sum(s.free_cores for s in states)


class TestLedgerIndexInvariant:
    """The bucket indexes stay exact after every step of a ledger program."""

    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(initial=st.lists(node_specs, min_size=1, max_size=6), ops=ledger_ops)
    # Two equal nodes entering one bucket against registration order, a
    # top bucket emptied by an allocation, a removal and a wider arrival:
    # random programs place few demands, so these are pinned.
    @example(
        initial=[(4, 1000, 0, frozenset()), (4, 1000, 0, frozenset())],
        ops=[
            ("alloc", 1, (1, 0, 0, frozenset())),
            ("alloc", 0, (1, 0, 0, frozenset())),
            ("alloc", 1, (3, 0, 0, frozenset())),
            ("release", 0),
            ("remove", 0),
            ("add", (8, 500, 0, frozenset())),
            ("release", 0),
            ("query", (1, 0, 0, frozenset())),
        ],
    )
    def test_indexes_match_tracked_nodes_after_every_op(self, initial, ops):
        ledger = CapacityLedger(
            _make_node(f"n{i}", spec) for i, spec in enumerate(initial)
        )
        next_name = len(initial)
        next_task = 0
        running = []
        assert_index_invariant(ledger)
        for op in ops:
            kind = op[0]
            if kind == "alloc":
                names = ledger.node_names
                if not names:
                    continue
                state = ledger.state(names[op[1] % len(names)])
                req = _make_req(op[2])
                if state.fits_now(req):
                    state.allocate(next_task, req)
                    running.append((next_task, state.node.name, req))
                    next_task += 1
            elif kind == "release":
                if not running:
                    continue
                task_id, node_name, req = running.pop(op[1] % len(running))
                if ledger.has_node(node_name):
                    ledger.state(node_name).release(task_id, req)
            elif kind == "add":
                ledger.add_node(_make_node(f"n{next_name}", op[1]))
                next_name += 1
            elif kind == "remove":
                names = ledger.node_names
                if len(names) <= 1:
                    continue
                gone = names[op[1] % len(names)]
                ledger.remove_node(gone)
                running = [r for r in running if r[1] != gone]
            elif kind == "fail":
                names = ledger.node_names
                if not names:
                    continue
                ledger.state(names[op[1] % len(names)]).node.fail()
            else:  # query: must not touch the indexes
                ledger.best_balanced(_make_req(op[1]))
                ledger.candidates(_make_req(op[1]))
            assert_index_invariant(ledger)

    def test_node_joining_behind_a_busier_larger_node_sorts_first(self):
        # A bucket is keyed by *free* cores, so a node that joins mid-run
        # can land in a bucket already holding a partly busy larger node:
        # its tie (24, ...) must be filed ahead of (48, ...), not appended.
        ledger = CapacityLedger([_make_node("big", (48, 64_000, 0, frozenset()))])
        ledger.state("big").allocate(1, ResolvedRequirements(cores=24))
        ledger.add_node(_make_node("small", (24, 64_000, 0, frozenset())))
        assert_index_invariant(ledger)
        req = ResolvedRequirements(cores=1)
        winner = ledger.best_balanced(req)
        assert winner.node.name == "small"
        assert winner is naive_load_balancing(
            [s for s in ledger.states if s.fits_now(req)]
        )


def _busy_ledger(specs, busy):
    """A ledger over ``specs`` with ``busy[i]`` cores taken on node ``i``."""
    ledger = CapacityLedger(
        _make_node(f"n{i}", spec) for i, spec in enumerate(specs)
    )
    for i, b in enumerate(busy[: len(specs)]):
        state = ledger.state(f"n{i}")
        take = min(b, state.free_cores)
        if take:
            state.allocate(1000 + i, ResolvedRequirements(cores=take))
    return ledger


#: Fewer than half the nodes memory-plausible (three of seven), and fewer
#: of them cores-plausible (two) than memory-plausible: the regime a
#: cores-axis walk of ``candidates()`` once served.
_CORES_SPARSER = dict(
    specs=[(8, 4_000, 0, frozenset())] * 4
    + [(4, 32_000, 0, frozenset()), (8, 32_000, 0, frozenset()),
       (12, 32_000, 0, frozenset())],
    busy=[8, 8, 8, 8, 0, 0, 4],
    req=(6, 16_000, 0, frozenset()),
)


class TestPolicySelectionEquivalence:
    """Policy selections == naive maximizations over the candidates."""

    def test_cores_sparser_example_is_in_its_regime(self):
        ledger = _busy_ledger(_CORES_SPARSER["specs"], _CORES_SPARSER["busy"])
        cores, memory_mb, _, _ = _CORES_SPARSER["req"]
        mem_plausible = sum(
            s.free_memory_mb.bit_length() >= memory_mb.bit_length()
            for s in ledger.states
        )
        cores_plausible = sum(s.free_cores >= cores for s in ledger.states)
        assert 2 * mem_plausible < len(ledger.states)
        assert cores_plausible < mem_plausible

    @settings(max_examples=80, deadline=None)
    @given(
        specs=st.lists(node_specs, min_size=1, max_size=8),
        busy=st.lists(st.integers(min_value=0, max_value=16), max_size=8),
        req=req_specs,
    )
    @example(**_CORES_SPARSER)
    def test_load_balancing_matches_naive_max(self, specs, busy, req):
        ledger = _busy_ledger(specs, busy)
        candidates = ledger.candidates(_make_req(req))
        assert [s.node.name for s in candidates] == naive_candidates(
            ledger, _make_req(req)
        )
        task = TaskInstance(task_id=1, label="t")
        selected = LoadBalancingPolicy().select(task, list(candidates))
        if not candidates:
            assert selected is None
        else:
            assert selected is naive_load_balancing(candidates)
        # The ledger-indexed pick must agree with the candidate-list path.
        assert ledger.best_balanced(_make_req(req)) is selected

    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        initial=st.lists(node_specs, min_size=1, max_size=6),
        ops=ledger_ops,
        probe=req_specs,
    )
    def test_best_balanced_matches_naive_under_churn(self, initial, ops, probe):
        """``best_balanced`` == naive max over the full scan, through
        arbitrary allocate/release/join/leave/fail programs — the churn is
        what exercises the tie-ordered cores buckets (every rebucket and
        node removal is a bisect-delete, every arrival an insort) and the
        dense/sparse regime switch."""
        ledger = CapacityLedger(
            _make_node(f"n{i}", spec) for i, spec in enumerate(initial)
        )
        next_name = len(initial)
        next_task = 0
        running = []
        probe_req = _make_req(probe)

        def check(req):
            fitting = [s for s in ledger.states if s.fits_now(req)]
            got = ledger.best_balanced(req)
            if not fitting:
                assert got is None
            else:
                assert got is naive_load_balancing(fitting)

        check(probe_req)
        for op in ops:
            kind = op[0]
            if kind == "alloc":
                names = ledger.node_names
                if not names:
                    continue
                state = ledger.state(names[op[1] % len(names)])
                req = _make_req(op[2])
                if state.fits_now(req):
                    state.allocate(next_task, req)
                    running.append((next_task, state.node.name, req))
                    next_task += 1
            elif kind == "release":
                if not running:
                    continue
                task_id, node_name, req = running.pop(op[1] % len(running))
                if ledger.has_node(node_name):
                    ledger.state(node_name).release(task_id, req)
            elif kind == "add":
                ledger.add_node(_make_node(f"n{next_name}", op[1]))
                next_name += 1
            elif kind == "remove":
                names = ledger.node_names
                if len(names) <= 1:
                    continue
                gone = names[op[1] % len(names)]
                ledger.remove_node(gone)
                running = [r for r in running if r[1] != gone]
            elif kind == "fail":
                names = ledger.node_names
                if not names:
                    continue
                ledger.state(names[op[1] % len(names)]).node.fail()
            else:  # query
                check(_make_req(op[1]))
            check(probe_req)

    @settings(max_examples=80, deadline=None)
    @given(
        publishes=st.lists(
            st.tuples(
                st.integers(0, 5),  # datum index
                st.integers(0, 4),  # node index
                st.integers(min_value=0, max_value=1_000_000),  # size
            ),
            max_size=20,
        ),
        reads=st.lists(st.integers(0, 5), max_size=6),
        busy=st.lists(st.integers(min_value=0, max_value=8), max_size=5),
        mutations=st.lists(
            st.one_of(
                st.tuples(st.just("evict"), st.integers(0, 4)),
                st.tuples(st.just("rehome"), st.integers(0, 4), st.integers(0, 4)),
                st.tuples(
                    st.just("publish"),
                    st.integers(0, 5),
                    st.integers(0, 4),
                    st.integers(min_value=0, max_value=1_000_000),
                ),
            ),
            max_size=6,
        ),
    )
    # A saturated platform offers no candidate: the policy and the
    # reference both answer None, with and without reads.
    @example(publishes=[], reads=[0], busy=[8] * 5, mutations=[])
    @example(publishes=[], reads=[], busy=[8] * 5, mutations=[])
    # A datum read twice counts twice, before and after its holder moves:
    # n0's doubled d0 outweighs n1's d1 until d0 is re-homed onto n2.
    @example(
        publishes=[(0, 0, 300), (1, 1, 500)],
        reads=[0, 1, 0],
        busy=[],
        mutations=[("rehome", 0, 2)],
    )
    def test_locality_matches_naive_membership_sums(
        self, publishes, reads, busy, mutations
    ):
        nodes = [Node(name=f"n{i}", cores=8, memory_mb=16_000) for i in range(5)]
        ledger = CapacityLedger(nodes)
        locations = DataLocationService()
        for datum, node, size in publishes:
            locations.publish(f"d{datum}", f"n{node}", size_bytes=float(size))
        for i, b in enumerate(busy[:5]):
            if b:
                ledger.state(f"n{i}").allocate(2000 + i, ResolvedRequirements(cores=b))
        task = TaskInstance(task_id=1, label="t", reads=[f"d{i}" for i in reads])
        candidates = ledger.candidates(ResolvedRequirements(cores=1))
        policy = LocalityPolicy(locations)
        selected = policy.select(task, list(candidates))
        assert selected is naive_locality(task, candidates, locations)
        # The same task again after its inputs' holders change: the second
        # pick must read the live holders, not the first pick's sums.
        for op in mutations:
            if op[0] == "evict":
                locations.evict_node(f"n{op[1]}")
            elif op[0] == "rehome":
                if op[1] != op[2]:
                    locations.rehome_node(f"n{op[1]}", f"n{op[2]}")
            else:
                locations.publish(f"d{op[1]}", f"n{op[2]}", size_bytes=float(op[3]))
        selected = policy.select(task, list(candidates))
        assert selected is naive_locality(task, candidates, locations)

    @settings(max_examples=60, deadline=None)
    @given(
        publishes=st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 3), st.integers(0, 1_000_000)),
            max_size=16,
        ),
        reads=st.lists(st.integers(0, 5), max_size=6),
        speeds=st.lists(
            st.sampled_from([0.5, 1.0, 1.5, 2.0]), min_size=4, max_size=4
        ),
        duration=st.integers(min_value=1, max_value=500),
    )
    def test_eft_matches_naive_per_candidate_estimates(
        self, publishes, reads, speeds, duration
    ):
        network = NetworkTopology()
        nodes = [
            Node(name=f"n{i}", cores=8, memory_mb=16_000, speed_factor=speeds[i])
            for i in range(4)
        ]
        ledger = CapacityLedger(nodes)
        locations = DataLocationService()
        for datum, node, size in publishes:
            locations.publish(f"d{datum}", f"n{node}", size_bytes=float(size))
        task = TaskInstance(
            task_id=1,
            label="t",
            reads=[f"d{i}" for i in reads],
            profile=SimProfile(duration_s=float(duration)),
        )
        candidates = ledger.candidates(ResolvedRequirements(cores=1))
        policy = EarliestFinishTimePolicy(locations, network)
        selected = policy.select(task, list(candidates))
        assert selected is naive_eft_select(task, candidates, locations, network)
        # The planner memo must stay coherent across a publish: new copies
        # change best sources, and a stale route would skew the estimate.
        if reads:
            locations.publish(f"d{reads[0]}", "n3", size_bytes=123.0)
            selected = policy.select(task, list(candidates))
            assert selected is naive_eft_select(task, candidates, locations, network)

    @settings(max_examples=60, deadline=None)
    @given(
        publishes=st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 3), st.integers(0, 1_000_000)),
            max_size=16,
        ),
        reads=st.lists(st.integers(0, 5), max_size=6),
        speeds=st.lists(
            st.sampled_from([0.5, 1.0, 1.5, 2.0]), min_size=4, max_size=4
        ),
        observed=st.lists(
            st.tuples(st.integers(1, 500), st.integers(0, 2_000_000)), max_size=5
        ),
        factor=st.sampled_from([None, 1.0, 1.5, 3.0]),
    )
    def test_predicted_finish_matches_naive_per_holder_scan(
        self, publishes, reads, speeds, observed, factor
    ):
        network = NetworkTopology()
        nodes = [
            Node(name=f"n{i}", cores=8, memory_mb=16_000, speed_factor=speeds[i])
            for i in range(4)
        ]
        ledger = CapacityLedger(nodes)
        locations = DataLocationService()
        for datum, node, size in publishes:
            locations.publish(f"d{datum}", f"n{node}", size_bytes=float(size))
        predictor = DurationPredictor(default_duration_s=30.0)
        for duration, size in observed:
            predictor.observe("t", float(duration), size=float(size))
        task = TaskInstance(task_id=1, label="t", reads=[f"d{i}" for i in reads])
        candidates = ledger.candidates(ResolvedRequirements(cores=1))
        policy = PredictedFinishTimePolicy(
            predictor, locations, network, decline_slowdown_factor=factor
        )
        for _ in range(2):  # second ask: memoized routes, then a moved datum
            selected = policy.select(task, list(candidates))
            assert selected is naive_predicted_select(
                task, candidates, predictor, locations, network, factor
            )
            if reads:
                locations.publish(f"d{reads[0]}", "n3", size_bytes=123.0)

    @settings(max_examples=80, deadline=None)
    @given(
        publishes=st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 1_000_000)),
            max_size=16,
        ),
        reads=st.lists(st.integers(0, 5), max_size=6),
        speeds=st.lists(
            st.sampled_from([0.5, 1.0, 1.5, 2.0]), min_size=6, max_size=6
        ),
        zones=st.lists(st.integers(0, 2), min_size=6, max_size=6),
        offers=st.lists(
            st.lists(st.integers(0, 5), min_size=1, max_size=6, unique=True),
            min_size=1,
            max_size=4,
        ),
        duration=st.integers(min_value=1, max_value=500),
        factor=st.sampled_from([None, 1.0, 1.5, 3.0]),
        learned=st.booleans(),
    )
    def test_finish_time_policies_match_naive_for_any_candidate_count(
        self, publishes, reads, speeds, zones, offers, duration, factor, learned
    ):
        """One candidate or six, declining or not: the choice equals the
        per-holder ``min(network.transfer_time ...)`` reference (summed over
        reads for the oracle policy, max over reads for the learned one),
        with the best speed remembered across offers — also by the
        single-candidate shortcut, which estimates nothing."""
        network = NetworkTopology()
        nodes = [
            Node(name=f"n{i}", cores=8, memory_mb=16_000, speed_factor=speeds[i])
            for i in range(6)
        ]
        for node, zone in zip(nodes, zones):
            network.add_node(node.name, f"z{zone}")
        ledger = CapacityLedger(nodes)
        locations = DataLocationService()
        for datum, node, size in publishes:
            locations.publish(f"d{datum}", f"n{node}", size_bytes=float(size))
        task = TaskInstance(
            task_id=1,
            label="t",
            reads=[f"d{i}" for i in reads],
            profile=SimProfile(duration_s=float(duration)),
        )

        def fetch(datum_id, state):
            holders = locations.get_locations(datum_id)
            if not holders or state.node.name in holders:
                return 0.0
            size = locations.size_of(datum_id)
            return min(
                network.transfer_time(src, state.node.name, size) for src in holders
            )

        if learned:
            predictor = DurationPredictor(default_duration_s=30.0)
            predictor.observe("t", float(duration), size=None)
            policy = PredictedFinishTimePolicy(
                predictor, locations, network, decline_slowdown_factor=factor
            )
            size_hint = sum(locations.size_of(d) for d in task.reads) or None
            base = predictor.predict("t", size=size_hint)

            def finish(state):
                slowest = max((fetch(d, state) for d in task.reads), default=0.0)
                return slowest + base / state.node.speed_factor

        else:
            policy = EarliestFinishTimePolicy(
                locations, network, decline_slowdown_factor=factor
            )
            base = float(duration)

            def finish(state):
                return naive_eft_finish(task, state, locations, network)

        best_speed = 0.0
        for offer in offers:
            candidates = [ledger.state(f"n{i}") for i in sorted(offer)]
            best_speed = max([best_speed] + [s.node.speed_factor for s in candidates])
            expected = min(candidates, key=lambda s: (finish(s), -s.free_cores))
            if factor is not None and finish(expected) > factor * (base / best_speed):
                expected = None  # also a single slow candidate is declined
            assert policy.select(task, list(candidates)) is expected
            assert policy._best_speed_seen == best_speed

    @pytest.mark.parametrize("learned", [False, True])
    def test_single_candidate_shortcut_remembers_speed_and_never_skips_a_decline(
        self, learned
    ):
        network = NetworkTopology()
        locations = DataLocationService()
        fast, slow = (
            CapacityLedger([Node(name=name, cores=4, memory_mb=8_000, speed_factor=speed)])
            .state(name)
            for name, speed in (("fast", 2.0), ("slow", 0.5))
        )
        task = TaskInstance(
            task_id=1, label="t", profile=SimProfile(duration_s=100.0)
        )

        def make(factor):
            if learned:
                return PredictedFinishTimePolicy(
                    DurationPredictor(default_duration_s=100.0),
                    locations,
                    network,
                    decline_slowdown_factor=factor,
                )
            return EarliestFinishTimePolicy(
                locations, network, decline_slowdown_factor=factor
            )

        eager = make(None)
        assert eager.select(task, [fast]) is fast and eager._best_speed_seen == 2.0
        assert eager.select(task, [slow]) is slow and eager._best_speed_seen == 2.0
        patient = make(1.5)
        assert patient.select(task, [slow]) is slow  # nothing faster seen yet
        assert patient.select(task, [fast]) is fast
        assert patient.select(task, [slow]) is None  # 200 s > 1.5 x 50 s


# --------------------------------------------------------------------------
# End-to-end dispatch equivalence
# --------------------------------------------------------------------------


class NaiveDispatchExecutor(SimulatedExecutor):
    """Reference dispatcher: probe every ready task, remember nothing.

    No blocked-demand frontier, no prefix snapshot — just the window and the free-core guards, which are part of
    the dispatch *semantics* rather than the bookkeeping.  The optimized
    ``_dispatch`` claims to place exactly the same tasks on exactly the
    same nodes at exactly the same times as this loop.
    """

    def _dispatch(self):  # noqa: C901 - mirrors the semantics, not the style
        self._dispatch_scheduled = False
        graph = self.graph
        scheduler = self.scheduler
        ledger = scheduler.ledger
        locations = self.locations
        window = self.dispatch_window
        consecutive_failures = 0
        if ledger.total_free_cores <= 0:
            return
        for instance in graph.iter_ready():
            if ledger.total_free_cores <= 0:
                break
            # A reader of lost data is failed when the data is lost or when
            # it becomes ready, so none is ever READY here.
            assert not any(locations.is_lost(d) for d in instance.reads), instance
            nodes = scheduler.try_place(instance)
            if nodes is None:
                consecutive_failures += 1
                if consecutive_failures >= window:
                    break
                continue
            consecutive_failures = 0
            self._start_task(instance, nodes)


class ProbedExecutor(SimulatedExecutor):
    """The optimized executor, counting the two situations in which the
    blocked-prefix snapshot must not be trusted or extended: a pass that
    finds it invalidated by a ready-queue removal, and a placement the
    policy declined although capacity was there."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.stale_snapshots = 0
        self.declines = 0
        try_place = self.scheduler.try_place

        def counting_try_place(task):
            nodes = try_place(task)
            if nodes is None and not self.scheduler.last_failure_was_capacity:
                self.declines += 1
            return nodes

        self.scheduler.try_place = counting_try_place

    def _dispatch(self):
        if self._placement.prefix and self.graph.ready_epoch != self._placement.prefix_epoch:
            self.stale_snapshots += 1
        super()._dispatch()


#: Node speeds by index for the declining policy: with the factor below it
#: accepts the two faster classes and waits rather than take the slowest.
_SPEEDS = (1.0, 0.75, 0.5)
_DECLINE_FACTOR = 1.4


class DeclineOncePolicy:
    """Load balancing that turns each task down once while anything runs.

    The earliest-finish-time decline is stable (a node too slow stays too
    slow), so a dispatcher that wrongly filed a declined task as proven
    blocked would still agree with the reference.  This one changes its
    mind with no capacity growth at all — the case "declined, not refuted"
    exists for.  An idle platform is never declined, so runs cannot stall.
    """

    name = "decline-once"

    def __init__(self):
        self._inner = LoadBalancingPolicy()
        self._asked = set()

    def select(self, task, candidates):
        if task.task_id not in self._asked and not all(s.idle for s in candidates):
            self._asked.add(task.task_id)
            return None
        return self._inner.select(task, candidates)



def _run_guidance(
    executor_cls, config, num_nodes, fail_at=None, policy="load-balancing", window=64
):
    workload = build_guidance_workflow(config)
    platform = make_hpc_cluster(num_nodes)
    locations = DataLocationService()
    if policy == "load-balancing":
        chosen = LoadBalancingPolicy()
    elif policy == "decline-once":
        chosen = DeclineOncePolicy()
    else:
        for index, node in enumerate(platform.alive_nodes):
            node.speed_factor = _SPEEDS[index % len(_SPEEDS)]
        chosen = EarliestFinishTimePolicy(
            locations, platform.network, decline_slowdown_factor=_DECLINE_FACTOR
        )
    executor = executor_cls(
        workload.graph,
        platform,
        policy=chosen,
        locations=locations,
        initial_data=workload.initial_data,
        dispatch_window=window,
    )
    if fail_at is not None:
        executor.fail_node_at(*fail_at)
    try:
        report = executor.run()
        outcome = (
            report.makespan,
            report.tasks_done,
            report.tasks_failed,
            report.tasks_cancelled,
            report.resubmissions,
        )
    except SimulatedExecutionError as error:
        # Every node the policy accepts died: both dispatchers must starve
        # the same tasks at the same instant.
        outcome = str(error)
    assignments = {
        t.task_id: (tuple(t.assigned_nodes or ()), t.start_time, t.end_time)
        for t in workload.graph.tasks
    }
    return executor, outcome, assignments


def _assert_equivalent(config, num_nodes, **kwargs):
    fast, fast_outcome, fast_assign = _run_guidance(
        ProbedExecutor, config, num_nodes, **kwargs
    )
    _, naive_outcome, naive_assign = _run_guidance(
        NaiveDispatchExecutor, config, num_nodes, **kwargs
    )
    assert fast_outcome == naive_outcome
    assert fast_assign == naive_assign
    return fast


def _node_name(index):
    return f"marenostrum-sim-node-{index:04d}"


class TestDispatchEquivalence:
    """Optimized _dispatch == naive full-probe dispatch, end to end."""

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        chromosomes=st.integers(min_value=1, max_value=3),
        chunks=st.integers(min_value=1, max_value=8),
        num_nodes=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**16),
        window=st.sampled_from([1, 3, 64]),
        failure=st.none()
        | st.tuples(
            st.floats(min_value=0.0, max_value=900.0, allow_nan=False),
            st.integers(min_value=0, max_value=3),
        ),
        policy=st.sampled_from(["load-balancing", "eft-decline", "decline-once"]),
    )
    def test_matches_naive_dispatch(
        self, chromosomes, chunks, num_nodes, seed, window, failure, policy
    ):
        fail_at = None
        if failure is not None:
            fail_at = (failure[0], _node_name(failure[1] % num_nodes))
        _assert_equivalent(
            GuidanceConfig(
                chromosomes=chromosomes, chunks_per_chromosome=chunks, seed=seed
            ),
            num_nodes,
            fail_at=fail_at,
            policy=policy,
            window=window,
        )

    def test_memory_saturated_regime(self):
        # The GUIDANCE regime the fast paths were built for: imputation
        # memory saturates the nodes while cores stay free, so the ready
        # queue grows a long certified-blocked head run.
        _assert_equivalent(GuidanceConfig(chromosomes=3, chunks_per_chromosome=8), 3)

    def test_core_saturated_regime(self):
        _assert_equivalent(
            GuidanceConfig(chromosomes=2, chunks_per_chromosome=6, seed=7), 1
        )

    def test_equivalent_under_node_failure(self):
        # A mid-run failure exercises _fail_node's ledger-driven victim
        # collection plus requeue interaction with the prefix snapshot
        # (requeued tasks re-enter at the tail).
        _assert_equivalent(
            GuidanceConfig(chromosomes=2, chunks_per_chromosome=6),
            3,
            fail_at=(150.0, _node_name(1)),
        )

    @pytest.mark.parametrize("window", [1, 3, 64])
    def test_failure_inside_blocked_run(self, window):
        # The failure takes the only copy of inputs that blocked ready tasks
        # were waiting to read: they are failed where they sit, inside the
        # certified head run, so the next pass must ignore the snapshot
        # (TestReadyQueueEpoch isolates the epoch from the lost-data guard).
        fast = _assert_equivalent(
            GuidanceConfig(chromosomes=1, chunks_per_chromosome=8),
            2,
            fail_at=(300.0, _node_name(0)),
            window=window,
        )
        assert fast.stale_snapshots > 0

    @pytest.mark.parametrize("policy", ["eft-decline", "decline-once"])
    @pytest.mark.parametrize("window", [1, 3, 64])
    def test_decline_caps_run(self, window, policy):
        # Capacity is free on a node the policy will not take: the declined
        # task stays queued without a proof, so the run must end before it.
        fast = _assert_equivalent(
            GuidanceConfig(chromosomes=2, chunks_per_chromosome=6, seed=7),
            3,
            policy=policy,
            window=window,
        )
        assert fast.declines > 0


# --------------------------------------------------------------------------
# Targeted unit tests for the supporting structures
# --------------------------------------------------------------------------


class TestCandidateCache:
    def test_cache_revalidates_aliveness(self):
        # A node can die without the ledger being told: candidates() reads
        # aliveness off the node itself and must never return it.
        nodes = [Node(name=f"n{i}", cores=4, memory_mb=8000) for i in range(3)]
        ledger = CapacityLedger(nodes)
        req = ResolvedRequirements(cores=1)
        assert len(ledger.candidates(req)) == 3
        nodes[1].fail()
        assert [s.node.name for s in ledger.candidates(req)] == ["n0", "n2"]


class TestGrowthJournal:
    def test_release_moves_node_to_journal_tail(self):
        ledger = CapacityLedger(
            [Node(name="a", cores=4, memory_mb=8000), Node(name="b", cores=4, memory_mb=8000)]
        )
        req = ResolvedRequirements(cores=1)
        ledger.state("a").allocate(1, req)
        ledger.state("b").allocate(2, req)
        ledger.state("a").release(1, req)
        ledger.state("b").release(2, req)
        assert list(ledger.grow_log) == ["a", "b"]
        ledger.state("a").allocate(3, req)
        ledger.state("a").release(3, req)  # "a" grew again: recency order flips
        assert list(ledger.grow_log) == ["b", "a"]
        seqs = [tick for tick, _ in ledger.grow_log.values()]
        assert seqs == sorted(seqs)  # iteration order == tick order

    def test_allocation_never_ticks_growth(self):
        ledger = CapacityLedger([Node(name="a", cores=4, memory_mb=8000)])
        before = ledger.grow_seq
        ledger.state("a").allocate(1, ResolvedRequirements(cores=1))
        assert ledger.grow_seq == before

    def test_removed_node_leaves_journal(self):
        ledger = CapacityLedger(
            [Node(name="a", cores=4, memory_mb=8000), Node(name="b", cores=4, memory_mb=8000)]
        )
        ledger.remove_node("a")
        assert "a" not in ledger.grow_log
        assert "b" in ledger.grow_log


class TestBlockedDemandFrontier:
    def test_covers_dominating_demands_only(self):
        frontier = BlockedDemandFrontier()
        failed = ResolvedRequirements(cores=2, memory_mb=1000)
        frontier.add(failed)
        assert frontier.covers(failed)
        assert frontier.covers(ResolvedRequirements(cores=4, memory_mb=2000))
        assert not frontier.covers(ResolvedRequirements(cores=1, memory_mb=1000))
        assert not frontier.covers(ResolvedRequirements(cores=2, memory_mb=500))

    def test_antichain_stays_minimal(self):
        frontier = BlockedDemandFrontier()
        frontier.add(ResolvedRequirements(cores=4, memory_mb=4000))
        frontier.add(ResolvedRequirements(cores=2, memory_mb=1000))  # subsumes it
        assert frontier.covers(ResolvedRequirements(cores=3, memory_mb=2000))
        assert len(frontier._minimal) == 1


class TestReadyQueueEpoch:
    def _graph(self, n=4):
        graph = TaskGraph()
        for i in range(1, n + 1):
            graph.add_task(TaskInstance(task_id=i, label=f"t{i}"))
        return graph

    def test_appends_keep_epoch_removals_bump_it(self):
        graph = self._graph(2)
        epoch = graph.ready_epoch
        graph.add_task(TaskInstance(task_id=99, label="t99"))
        assert graph.ready_epoch == epoch  # tail insertions preserve prefixes
        graph.mark_running(1, "node-x")
        assert graph.ready_epoch == epoch + 1

    def test_iter_ready_resumes_after_anchor(self):
        graph = self._graph(4)
        assert [t.task_id for t in graph.iter_ready(start_after=2)] == [3, 4]

    def test_iter_ready_missing_anchor_falls_back_to_head(self):
        graph = self._graph(3)
        graph.mark_running(2, "node-x")  # anchor leaves the queue
        assert [t.task_id for t in graph.iter_ready(start_after=2)] == [1, 3]

    def test_dispatch_ignores_stale_snapshot(self):
        # Under a node failure the lost-data guard bypasses the snapshot
        # as well, so this isolates the epoch: a blocked ready task is
        # withdrawn by the graph's owner between two passes.  Replaying the
        # stale snapshot would place the withdrawn task on the freed node.
        graph = TaskGraph()
        for i in (1, 2, 3):
            graph.add_task(
                TaskInstance(
                    task_id=i,
                    label=f"t{i}",
                    # Memory-bound: cores stay free, so the first pass
                    # walks on past t1 and snapshots t2, t3 as blocked.
                    requirements=ResolvedRequirements(cores=1, memory_mb=60_000),
                    profile=SimProfile(duration_s=10.0),
                )
            )
        platform = make_hpc_cluster(1)
        executor = SimulatedExecutor(graph, platform, policy=LoadBalancingPolicy())
        executor.engine.at(
            5.0, lambda: graph.mark_failed(2, RuntimeError("withdrawn"), now=5.0)
        )
        report = executor.run()
        assert graph.task(2).state is TaskState.FAILED
        assert graph.task(3).state is TaskState.DONE
        assert graph.task(3).start_time == 10.0
        assert report.makespan == 20.0


class TestRunPhaseAccounting:
    def test_incremental_makespan_matches_latest_end_time(self):
        config = GuidanceConfig(chromosomes=2, chunks_per_chromosome=4)
        workload = build_guidance_workflow(config)
        platform = make_hpc_cluster(2)
        executor = SimulatedExecutor(
            workload.graph, platform, policy=LoadBalancingPolicy(),
            initial_data=workload.initial_data,
        )
        report = executor.run()
        latest = max(t.end_time for t in workload.graph.tasks if t.end_time is not None)
        assert report.makespan == latest

    def test_fail_node_victims_resubmitted_and_finish(self):
        graph = TaskGraph()
        for i in range(1, 5):
            graph.add_task(
                TaskInstance(
                    task_id=i,
                    label=f"t{i}",
                    requirements=ResolvedRequirements(cores=1),
                    profile=SimProfile(duration_s=10.0),
                )
            )
        platform = make_hpc_cluster(2, cores_per_node=2)
        executor = SimulatedExecutor(graph, platform, policy=LoadBalancingPolicy())
        victim_node = platform.alive_nodes[0].name
        executor.fail_node_at(5.0, victim_node)
        report = executor.run()
        assert report.tasks_done == 4
        assert report.resubmissions >= 1
        assert all(t.state is TaskState.DONE for t in graph.tasks)
