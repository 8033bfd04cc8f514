"""Unit behaviour of the shared scheduling core (repro.cloud.policies).

These tests pin the policy zoo's selection semantics and the warm-affinity
placement rule in isolation, against the linear-scan oracle in
``tests/cloud/policy_oracle.py`` -- the conformance suite then checks that
the functional scheduler and the timed simulator consume them identically.
"""

from __future__ import annotations

import random

import pytest

from repro.cloud.policies import (
    POLICIES,
    POLICY_NAMES,
    BoardIndex,
    FifoPolicy,
    JobRequest,
    PriorityPolicy,
    SchedulingPolicy,
    ShortestJobFirstPolicy,
    WeightedFairSharePolicy,
    make_policy,
)
from repro.errors import SchedulingError
from tests.cloud.policy_oracle import BoardView, choose_board, select


def _request(seq, tenant="t", session=None, priority=0, weight=1.0, cost=1.0):
    return JobRequest(
        key=f"j{seq}",
        tenant=tenant,
        session_id=session or f"sess-{tenant}",
        seq=seq,
        priority=priority,
        weight=weight,
        cost_estimate=cost,
    )


def _drain(policy: SchedulingPolicy, queue: list) -> list:
    """Repeatedly select+pop until the queue is empty; returns pick order."""
    queue = list(queue)
    order = []
    while queue:
        index = select(policy, queue)
        request = queue.pop(index)
        policy.record_service(request)
        order.append(request.key)
    return order


def test_registry_covers_the_four_policies():
    assert set(POLICY_NAMES) == {"fifo", "priority", "fair", "sjf"}
    for name in POLICY_NAMES:
        instance = make_policy(name)
        assert isinstance(instance, SchedulingPolicy)
        assert instance.name == name


def test_make_policy_accepts_classes_and_instances_and_rejects_garbage():
    assert isinstance(make_policy(FifoPolicy), FifoPolicy)
    seeded = WeightedFairSharePolicy()
    assert make_policy(seeded) is seeded
    # Fresh instances per call: fair-share state is never accidentally shared.
    assert make_policy("fair") is not make_policy("fair")
    with pytest.raises(SchedulingError):
        make_policy("lifo")
    with pytest.raises(SchedulingError):
        make_policy(42)


def test_fifo_is_submission_order_regardless_of_metadata():
    queue = [
        _request(3, priority=9, cost=0.1),
        _request(1, priority=0, cost=5.0),
        _request(2, priority=5, cost=1.0),
    ]
    assert _drain(FifoPolicy(), queue) == ["j1", "j2", "j3"]


def test_priority_orders_by_priority_then_fifo():
    queue = [
        _request(1, priority=0),
        _request(2, priority=7),
        _request(3, priority=7),
        _request(4, priority=3),
    ]
    assert _drain(PriorityPolicy(), queue) == ["j2", "j3", "j4", "j1"]


def test_sjf_orders_by_cost_then_fifo():
    queue = [
        _request(1, cost=4.0),
        _request(2, cost=0.5),
        _request(3, cost=0.5),
        _request(4, cost=2.0),
    ]
    assert _drain(ShortestJobFirstPolicy(), queue) == ["j2", "j3", "j4", "j1"]


def test_fair_share_round_robins_equal_weight_tenants():
    # Tenant a floods the queue first; fair-share still alternates.
    queue = [
        _request(1, tenant="a"),
        _request(2, tenant="a"),
        _request(3, tenant="a"),
        _request(4, tenant="b"),
        _request(5, tenant="b"),
    ]
    assert _drain(WeightedFairSharePolicy(), queue) == ["j1", "j4", "j2", "j5", "j3"]


def test_fair_share_respects_weights():
    # Weight 2 tenant gets two slots for every one of the weight 1 tenant.
    queue = [_request(i, tenant="heavy", weight=2.0) for i in range(1, 5)]
    queue += [_request(i, tenant="light", weight=1.0) for i in range(5, 7)]
    order = _drain(WeightedFairSharePolicy(), queue)
    # First pick ties at share 0 -> FIFO gives heavy; then heavy accumulates
    # 1/2 while light sits at 0, and so on: heavy, light, heavy, heavy, light, heavy.
    assert order == ["j1", "j5", "j2", "j3", "j6", "j4"]


def test_fair_share_snapshot_reports_served_cost():
    policy = WeightedFairSharePolicy()
    policy.record_service(_request(1, tenant="a", cost=3.0))
    policy.record_service(_request(2, tenant="b", cost=1.0), cost=7.0)
    assert policy.snapshot() == {"served": {"a": 3.0, "b": 7.0}}


def test_choose_board_prefers_warm_then_rank():
    request = _request(1, tenant="a", session="sess-a")
    cold = [BoardView("b0", 0), BoardView("b1", 1)]
    assert choose_board(request, cold).name == "b0"
    warm = [
        BoardView("b0", 0, resident_session="sess-z"),
        BoardView("b1", 1, resident_session="sess-a"),
    ]
    assert choose_board(request, warm).name == "b1"
    # Affinity disabled: rank wins even when a warm board exists.
    assert choose_board(request, warm, prefer_affinity=False).name == "b0"
    # Several warm candidates: lowest rank among them.
    twice_warm = [
        BoardView("b2", 2, resident_session="sess-a"),
        BoardView("b1", 1, resident_session="sess-a"),
        BoardView("b0", 0),
    ]
    assert choose_board(request, twice_warm).name == "b1"
    with pytest.raises(SchedulingError):
        choose_board(request, [])


@pytest.mark.parametrize("affinity", [True, False])
def test_board_index_matches_choose_board_on_randomized_streams(affinity):
    """``BoardIndex`` against the linear ``choose_board`` over an explicit
    free-board model: placements and warm flags, releases with and without a
    resident session, idle evictions (rank kept), and autoscaler
    ``add_board`` / longest-idle ``discard``."""
    for trial in range(20):
        rng = random.Random(7919 * trial + affinity)
        index = BoardIndex(range(4))
        free = {name: name for name in range(4)}  # free board -> rank
        resident = dict.fromkeys(range(4))
        busy = []
        next_rank = next_name = 4
        for _ in range(400):
            action = rng.random()
            if action < 0.4 and free:
                session = f"sess-{rng.randrange(5)}"
                views = [BoardView(name, rank, resident[name]) for name, rank in free.items()]
                expected = choose_board(
                    _request(0, session=session), views, prefer_affinity=affinity
                )
                board, warm = index.place(session, affinity)
                assert board == expected.name
                assert warm == (affinity and expected.resident_session == session)
                del free[board]
                busy.append(board)
            elif action < 0.75 and busy:
                board = busy.pop(rng.randrange(len(busy)))
                session = rng.choice((None, f"sess-{rng.randrange(5)}"))
                index.release(board, session)
                free[board] = next_rank
                resident[board] = session
                next_rank += 1
            elif action < 0.85 and free:
                # Idle eviction: the residency goes, the rank stays.
                board = rng.choice(sorted(free))
                index.release(board, None)
                resident[board] = None
            elif action < 0.93:
                index.add_board(next_name)
                free[next_name] = next_rank
                resident[next_name] = None
                next_rank += 1
                next_name += 1
            elif free:
                # Autoscaler drain: the longest-idle board retires.
                board = index.free_names[0]
                assert board == min(free, key=free.get)
                index.discard(board)
                del free[board], resident[board]
            assert len(index) == len(free)
            assert index.free_names == sorted(free, key=free.get)
            assert all(name in index for name in free)
            assert not any(name in index for name in busy)
    with pytest.raises(SchedulingError):
        BoardIndex([]).place("sess-0", affinity)


def test_policies_registry_builds_fresh_state():
    fair_a = POLICIES["fair"]()
    fair_b = POLICIES["fair"]()
    fair_a.record_service(_request(1, tenant="a"))
    assert fair_b.snapshot() == {"served": {}}
    assert fair_a.snapshot() != fair_b.snapshot()
