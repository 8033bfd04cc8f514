"""Linear-scan reference for the scheduling core (a test oracle).

:mod:`repro.cloud.policies` schedules through indexed structures: O(log n)
policy queues and an incrementally maintained :class:`BoardIndex`.  This
module keeps the O(n) definitions they must agree with -- a ``min()`` scan
over the queue for *which* job runs next, and a ``min()`` scan over a list
of free-board views for *where* it runs.  Only tests import it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.cloud.policies import JobRequest, PolicyQueue, SchedulingPolicy
from repro.errors import SchedulingError


def _rank(policy: SchedulingPolicy):
    """The key ``policy`` orders queued requests by (lowest runs first).

    Every key ends in ``seq``, the FIFO tie-break.
    """
    if policy.name == "fifo":
        return lambda r: r.seq
    if policy.name == "priority":
        return lambda r: (-r.priority, r.seq)
    if policy.name == "sjf":
        return lambda r: (r.cost_estimate, r.seq)
    if policy.name == "fair":
        served = policy.snapshot()["served"]
        return lambda r: (served.get(r.tenant, 0.0) / max(r.weight, 1e-12), r.seq)
    raise SchedulingError(f"no linear reference for policy {policy.name!r}")


def select(policy: SchedulingPolicy, queue: Sequence[JobRequest]) -> int:
    """Index of the job ``policy`` runs next out of the ``queue`` snapshot."""
    rank = _rank(policy)
    return min(range(len(queue)), key=lambda i: rank(queue[i]))


class LinearPolicyQueue(PolicyQueue):
    """A list snapshot driven by :func:`select`: O(n) per pick."""

    def __init__(self, policy: SchedulingPolicy):
        super().__init__(policy)
        self._entries: list = []

    def push(self, request: JobRequest, payload=None) -> None:
        self._entries.append((request, payload))
        self._count(request, +1)

    def pop(self, eligible=None) -> Optional[tuple]:
        candidates = [
            (index, entry)
            for index, entry in enumerate(self._entries)
            if eligible is None or eligible(entry[1])
        ]
        if not candidates:
            return None
        picked = select(self.policy, [entry[0] for _, entry in candidates])
        index, entry = candidates[picked]
        del self._entries[index]
        self._count(entry[0], -1)
        return entry

    def remove(self, predicate=None) -> list:
        removed, kept = [], []
        for entry in self._entries:
            if predicate is None or predicate(entry[1]):
                removed.append(entry)
            else:
                kept.append(entry)
        self._entries = kept
        for request, _ in removed:
            self._count(request, -1)
        return removed


@dataclass(frozen=True)
class BoardView:
    """One *free* board at placement time."""

    name: str
    #: Preference order among the free boards (0 = longest idle).  Ranks
    #: are distinct.
    rank: int
    #: Session whose Shield is still resident (warm) on the board, if any.
    resident_session: Optional[str] = None


def choose_board(
    request: JobRequest,
    boards: Sequence[BoardView],
    prefer_affinity: bool = True,
) -> BoardView:
    """Pick the board for a selected job: warm affinity first, then rank.

    With ``prefer_affinity``, a board whose resident Shield belongs to the
    job's session wins; otherwise -- and among several warm candidates --
    the lowest rank (longest idle) wins.
    """
    if not boards:
        raise SchedulingError("choose_board needs at least one available board")
    if prefer_affinity:
        warm = [b for b in boards if b.resident_session == request.session_id]
        if warm:
            return min(warm, key=lambda b: b.rank)
    return min(boards, key=lambda b: b.rank)
