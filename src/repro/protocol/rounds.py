"""One round of the cluster reformulation protocol.

A round has two phases (Section 3.2):

1. **Gather** — every peer evaluates its gain with its relocation strategy
   and reports it to its cluster representative; each representative keeps
   the request with the highest gain (above the threshold ε) and advertises
   it to the other representatives.
2. **Serve** — the requests are sorted by decreasing gain and granted one by
   one subject to the cycle-avoiding lock rule; requests that would violate
   a lock are discarded for this round.

Requests whose target is :data:`~repro.core.costs.NEW_CLUSTER` are resolved
to a concrete empty cluster slot at grant time (the relocating peer becomes
the representative of the newly formed cluster).
"""

from __future__ import annotations

from collections.abc import Hashable, Mapping
from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.costs import NEW_CLUSTER
from repro.overlay.messages import GrantMessage, MessageBus
from repro.peers.configuration import ClusterConfiguration
from repro.protocol.locks import LockTable
from repro.protocol.representative import gather_requests
from repro.protocol.requests import RelocationRequest
from repro.strategies.base import RelocationProposal

__all__ = ["GrantedMove", "RoundResult", "execute_round"]

PeerId = Hashable
ClusterId = Hashable


@dataclass(frozen=True)
class GrantedMove:
    """A relocation request that was granted and applied during a round."""

    peer_id: PeerId
    source_cluster: ClusterId
    target_cluster: ClusterId
    gain: float
    created_cluster: bool = False


@dataclass
class RoundResult:
    """Outcome of one protocol round."""

    round_number: int
    requests: List[RelocationRequest] = field(default_factory=list)
    granted: List[GrantedMove] = field(default_factory=list)
    discarded: List[RelocationRequest] = field(default_factory=list)

    @property
    def num_requests(self) -> int:
        """Number of relocation requests advertised this round."""
        return len(self.requests)

    @property
    def num_granted(self) -> int:
        """Number of requests that were granted and applied."""
        return len(self.granted)

    @property
    def quiescent(self) -> bool:
        """``True`` when no relocation request was advertised (the protocol's stop condition)."""
        return not self.requests


def execute_round(
    configuration: ClusterConfiguration,
    proposals: Mapping[PeerId, RelocationProposal],
    *,
    round_number: int = 0,
    gain_threshold: float = 0.0,
    bus: Optional[MessageBus] = None,
    enforce_locks: bool = True,
) -> RoundResult:
    """Run one two-phase round, mutating *configuration* in place.

    *proposals* is the strategy's :class:`~repro.strategies.batch.ProposalBatch`
    (or any ``peer -> proposal`` mapping); the gather phase works on its
    arrays, and only the at most one request per cluster it returns is
    served here, one by one, under the lock rule.

    ``enforce_locks=False`` disables the paper's cycle-avoiding lock rule
    (every request is served as long as it is still applicable); it exists for
    the ablation benchmark that measures what the rule buys.
    """
    result = RoundResult(round_number=round_number)
    result.requests = gather_requests(
        configuration, proposals, gain_threshold=gain_threshold, bus=bus
    )
    if not result.requests:
        return result

    locks = LockTable()
    ordered = sorted(result.requests, key=RelocationRequest.sort_key)
    for request in ordered:
        if enforce_locks and not locks.allows(request):
            result.discarded.append(request)
            continue
        target_cluster = request.target_cluster
        created_cluster = False
        if target_cluster == NEW_CLUSTER:
            empty_slots = configuration.empty_clusters()
            if not empty_slots:
                result.discarded.append(request)
                continue
            target_cluster = empty_slots[0]
            created_cluster = True
        if target_cluster == request.source_cluster:
            result.discarded.append(request)
            continue
        configuration.move(request.peer_id, request.source_cluster, target_cluster)
        if created_cluster:
            configuration.cluster(target_cluster).elect_representative(request.peer_id)
        # Lock using the *resolved* target so later NEW_CLUSTER requests do
        # not collapse onto a cluster that was just created this round.
        locks.lock_for(
            RelocationRequest(
                source_cluster=request.source_cluster,
                target_cluster=target_cluster,
                peer_id=request.peer_id,
                gain=request.gain,
            )
        )
        result.granted.append(
            GrantedMove(
                peer_id=request.peer_id,
                source_cluster=request.source_cluster,
                target_cluster=target_cluster,
                gain=request.gain,
                created_cluster=created_cluster,
            )
        )
        if bus is not None and bus.keep_log:
            bus.publish(
                GrantMessage(
                    sender=request.source_cluster,
                    receiver=target_cluster,
                    peer_id=request.peer_id,
                    source_cluster=request.source_cluster,
                    target_cluster=target_cluster,
                )
            )
        elif bus is not None:
            bus.record(GrantMessage.__name__, 1)
    return result
