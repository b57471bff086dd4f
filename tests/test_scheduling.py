"""Unit tests for capacity ledger, placement policies, and the scheduler."""

import pytest

from repro.core.constraints import ResolvedRequirements
from repro.core.exceptions import ConstraintUnsatisfiableError
from repro.core.graph import SimProfile, TaskInstance
from repro.infrastructure import NetworkTopology, Node, Platform, PowerProfile
from repro.scheduling import (
    CapacityLedger,
    DataLocationService,
    EarliestFinishTimePolicy,
    EnergyAwarePolicy,
    FifoPolicy,
    LoadBalancingPolicy,
    LocalityPolicy,
    NodeCapacity,
    TaskScheduler,
)
from repro.scheduling.capacity import CapacityError


def req(cores=1, memory_mb=0, gpus=0, software=(), nodes=1):
    return ResolvedRequirements(
        cores=cores, memory_mb=memory_mb, gpus=gpus,
        software=frozenset(software), nodes=nodes,
    )


def make_task(task_id=1, requirements=None, reads=(), profile=None):
    return TaskInstance(
        task_id=task_id,
        label=f"t{task_id}",
        requirements=requirements or req(),
        reads=list(reads),
        profile=profile,
    )


class TestNodeCapacity:
    def test_allocate_release_roundtrip(self):
        state = NodeCapacity.for_node(Node("n", cores=4, memory_mb=1000))
        demand = req(cores=2, memory_mb=600)
        state.allocate(1, demand)
        assert state.free_cores == 2
        assert state.free_memory_mb == 400
        state.release(1, demand)
        assert state.free_cores == 4
        assert state.free_memory_mb == 1000

    def test_overallocation_rejected(self):
        state = NodeCapacity.for_node(Node("n", cores=2))
        state.allocate(1, req(cores=2))
        with pytest.raises(CapacityError):
            state.allocate(2, req(cores=1))

    def test_release_of_unknown_task_rejected(self):
        state = NodeCapacity.for_node(Node("n", cores=2))
        with pytest.raises(CapacityError):
            state.release(99, req())

    def test_memory_blocks_even_with_free_cores(self):
        state = NodeCapacity.for_node(Node("n", cores=48, memory_mb=96_000))
        state.allocate(1, req(cores=1, memory_mb=56_000))
        assert not state.fits_now(req(cores=1, memory_mb=56_000))
        assert state.fits_now(req(cores=1, memory_mb=40_000))

    def test_software_constraint(self):
        state = NodeCapacity.for_node(Node("n", software=frozenset({"mpi"})))
        assert state.fits_now(req(software=("mpi",)))
        assert not state.fits_now(req(software=("cuda",)))

    def test_dead_node_never_fits(self):
        node = Node("n", cores=8)
        state = NodeCapacity.for_node(node)
        node.fail()
        assert not state.fits_now(req())
        assert not state.ever_fits(req())


class TestCapacityLedger:
    def test_candidates_in_registration_order(self):
        ledger = CapacityLedger([Node("a", cores=2), Node("b", cores=4)])
        names = [s.node.name for s in ledger.candidates(req(cores=2))]
        assert names == ["a", "b"]

    def test_duplicate_node_rejected(self):
        ledger = CapacityLedger([Node("a")])
        with pytest.raises(CapacityError):
            ledger.add_node(Node("a"))

    def test_idle_nodes(self):
        ledger = CapacityLedger([Node("a"), Node("b")])
        ledger.state("a").allocate(1, req())
        assert ledger.idle_nodes() == ["b"]

    @pytest.mark.parametrize(
        "task_id, cores",
        [(1, 2), (99, 1), (99, 2)],
        ids=["overflow", "unknown-task", "unknown-task-overflowing"],
    )
    def test_refused_release_leaves_ledger_untouched(self, task_id, cores):
        # 1 of a's 4 cores is taken: giving back 2 would leave 5 free of 4,
        # and task 99 holds nothing.  Either refusal must change nothing.
        ledger = CapacityLedger([Node("a", cores=4), Node("b", cores=2)])
        ledger.state("a").allocate(1, req())

        def snapshot():
            state = ledger.state("a")
            return (
                state.free_cores,
                state.free_memory_mb,
                state.free_gpus,
                set(state.running_task_ids),
                state.cores_key,
                state.mem_key,
                {k: [(c, o, s.node.name) for c, o, s in b] for k, b in ledger._cores_buckets.items()},
                {k: sorted(b) for k, b in ledger._mem_buckets.items()},
                ledger._top_cores_key,
                ledger._top_mem_key,
                ledger.total_free_cores,
                ledger.grow_seq,
                list(ledger.grow_log),
            )

        before = snapshot()
        with pytest.raises(CapacityError):
            ledger.state("a").release(task_id, req(cores=cores))
        assert snapshot() == before
        assert ledger.total_free_cores == 5
        ledger.state("a").release(1, req())  # the real release still works
        assert ledger.total_free_cores == 6


class TestPolicies:
    @staticmethod
    def states(*specs):
        out = []
        for name, cores, free in specs:
            node = Node(name, cores=cores)
            state = NodeCapacity.for_node(node)
            used = cores - free
            if used:
                state.allocate(0, req(cores=used))
            out.append(state)
        return out

    def test_fifo_first_fit(self):
        states = self.states(("a", 4, 4), ("b", 8, 8))
        assert FifoPolicy().select(make_task(), states).node.name == "a"

    def test_load_balancing_prefers_free(self):
        states = self.states(("a", 4, 1), ("b", 8, 7))
        assert LoadBalancingPolicy().select(make_task(), states).node.name == "b"

    def test_empty_candidates_yield_none(self):
        for policy in (FifoPolicy(), LoadBalancingPolicy(), EnergyAwarePolicy()):
            assert policy.select(make_task(), []) is None

    def test_locality_prefers_data_holder(self):
        locations = DataLocationService()
        locations.publish("datum", "b", size_bytes=1e9)
        states = self.states(("a", 8, 8), ("b", 4, 4))
        policy = LocalityPolicy(locations)
        chosen = policy.select(make_task(reads=["datum"]), states)
        assert chosen.node.name == "b"

    def test_locality_falls_back_to_free_cores_without_inputs(self):
        locations = DataLocationService()
        states = self.states(("a", 4, 2), ("b", 8, 8))
        chosen = LocalityPolicy(locations).select(make_task(), states)
        assert chosen.node.name == "b"

    def test_energy_policy_packs_busy_efficient_nodes(self):
        efficient = Node("eff", cores=8, power=PowerProfile(idle_watts=10, busy_watts_per_core=1))
        hungry = Node("hog", cores=8, power=PowerProfile(idle_watts=300, busy_watts_per_core=20))
        s_eff = NodeCapacity.for_node(efficient)
        s_hog = NodeCapacity.for_node(hungry)
        chosen = EnergyAwarePolicy().select(make_task(), [s_hog, s_eff])
        assert chosen.node.name == "eff"

    def test_energy_policy_avoids_waking_idle_nodes(self):
        a = Node("busy", cores=8, power=PowerProfile(idle_watts=100, busy_watts_per_core=10))
        b = Node("idle", cores=8, power=PowerProfile(idle_watts=100, busy_watts_per_core=10))
        s_busy = NodeCapacity.for_node(a)
        s_busy.allocate(0, req())
        s_idle = NodeCapacity.for_node(b)
        chosen = EnergyAwarePolicy().select(make_task(2), [s_idle, s_busy])
        assert chosen.node.name == "busy"

    def test_eft_policy_weighs_transfer_against_speed(self):
        network = NetworkTopology()
        network.add_node("slow-holder", "z1")
        network.add_node("fast-remote", "z2")
        locations = DataLocationService()
        locations.publish("big", "slow-holder", size_bytes=1e12)
        slow = Node("slow-holder", cores=4, speed_factor=1.0)
        fast = Node("fast-remote", cores=4, speed_factor=1.0)
        states = [NodeCapacity.for_node(fast), NodeCapacity.for_node(slow)]
        policy = EarliestFinishTimePolicy(locations, network)
        task = make_task(reads=["big"], profile=SimProfile(duration_s=1.0))
        # Moving 1 TB dwarfs any compute difference: stay with the data.
        assert policy.select(task, states).node.name == "slow-holder"


class TestTaskScheduler:
    @staticmethod
    def platform(*nodes):
        platform = Platform()
        for node in nodes:
            platform.add_node(node)
        return platform

    def test_place_and_release(self):
        platform = self.platform(Node("a", cores=2))
        scheduler = TaskScheduler(platform)
        task = make_task(requirements=req(cores=2))
        assert scheduler.try_place(task) == ["a"]
        task.assigned_nodes = ["a"]
        assert scheduler.try_place(make_task(2)) is None
        scheduler.release(task)
        assert scheduler.try_place(make_task(2)) == ["a"]

    def test_unsatisfiable_constraints_detected(self):
        platform = self.platform(Node("a", cores=2, memory_mb=1000))
        scheduler = TaskScheduler(platform)
        with pytest.raises(ConstraintUnsatisfiableError):
            scheduler.check_satisfiable(req(memory_mb=2000))
        scheduler.check_satisfiable(req(memory_mb=500))

    def test_gang_placement_all_or_nothing(self):
        platform = self.platform(Node("a", cores=4), Node("b", cores=4), Node("c", cores=4))
        scheduler = TaskScheduler(platform)
        gang = make_task(requirements=req(cores=4, nodes=2))
        placed = scheduler.try_place(gang)
        assert placed is not None and len(placed) == 2
        gang.assigned_nodes = placed
        # Only one node left: a second 2-node gang cannot be placed, and the
        # failed attempt must not leak allocations.
        second = make_task(2, requirements=req(cores=4, nodes=2))
        assert scheduler.try_place(second) is None
        free = make_task(3, requirements=req(cores=4))
        assert scheduler.try_place(free) is not None

    def test_platform_join_leave_tracked(self):
        platform = self.platform(Node("a", cores=1))
        scheduler = TaskScheduler(platform)
        task = make_task(requirements=req(cores=1))
        scheduler.try_place(task)
        platform.add_node(Node("b", cores=1))
        assert scheduler.try_place(make_task(2)) == ["b"]
        platform.remove_node("b")
        assert scheduler.try_place(make_task(3)) is None
