"""Cluster representatives: per-cluster aggregation of relocation proposals.

One peer per cluster acts as the cluster representative for a protocol
round.  In phase one it receives the gain reports of the cluster's members
and keeps only the proposal with the highest gain (provided the gain exceeds
the system threshold ε); in phase two it participates in serving the ordered
request list.  Representatives need not be the same across rounds — the
election here is deterministic (the member with the smallest ``repr``)
simply to make runs reproducible.

:func:`gather_requests` runs the whole phase on the arrays of a
:class:`~repro.strategies.batch.ProposalBatch`: one ``np.lexsort`` orders
the configuration's membership pairs by cluster ``repr`` and then member
``repr``, and segmented reductions over that order elect every
representative and pick every cluster's request.  Message counts go to the
bus in closed form; message objects are built only for a bus that keeps a
log.
"""

from __future__ import annotations

from collections.abc import Hashable, Mapping
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.overlay.messages import GainReportMessage, MessageBus, RelocationRequestMessage
from repro.peers.configuration import ClusterConfiguration
from repro.protocol.requests import RelocationRequest
from repro.strategies.base import RelocationProposal
from repro.strategies.batch import ProposalBatch

__all__ = ["Representative", "elect_representatives", "gather_requests"]

PeerId = Hashable
ClusterId = Hashable


@dataclass
class Representative:
    """The representative of one cluster for one protocol round."""

    cluster_id: ClusterId
    peer_id: PeerId


def elect_representatives(configuration: ClusterConfiguration) -> Dict[ClusterId, Representative]:
    """Elect one representative per non-empty cluster (deterministically)."""
    representatives: Dict[ClusterId, Representative] = {}
    for cluster_id in configuration.nonempty_clusters():
        cluster = configuration.cluster(cluster_id)
        peer_id = cluster.elect_representative()
        representatives[cluster_id] = Representative(cluster_id=cluster_id, peer_id=peer_id)
    return representatives


def gather_requests(
    configuration: ClusterConfiguration,
    proposals: Mapping[PeerId, RelocationProposal],
    *,
    gain_threshold: float = 0.0,
    bus: Optional[MessageBus] = None,
) -> List[RelocationRequest]:
    """Phase one of a round: every representative selects its cluster's best request.

    Every non-empty cluster elects its member with the smallest ``repr``.
    Each member holding a proposal reports it (one gain report per cluster
    it belongs to); the representative keeps the moving proposal with the
    highest gain above *gain_threshold*, ties going to the smallest member
    ``repr``.  Returns the advertised requests (at most one per cluster) in
    cluster ``repr`` order.  The gain reports and the broadcast of each
    request to the other representatives are accounted on *bus*.

    *proposals* is a :class:`~repro.strategies.batch.ProposalBatch` built
    against *configuration*, or any ``peer -> proposal`` mapping.
    """
    batch = ProposalBatch.from_proposals(proposals, configuration)
    rows, columns = batch.member_rows, batch.member_columns
    if not rows.size:
        return []
    positions = configuration.cluster_positions()
    cluster_rank = np.fromiter(
        (positions.get(cluster_id, len(positions)) for cluster_id in batch.clusters),
        dtype=np.int64,
        count=len(batch.clusters),
    )
    order = np.lexsort((batch.peer_rank[rows], cluster_rank[columns]))
    rows, columns = rows[order], columns[order]
    # One segment per non-empty cluster, in cluster repr order.
    opens = _run_starts(columns)
    starts = np.flatnonzero(opens)
    segment = np.cumsum(opens) - 1
    peers, clusters = batch.peers, batch.clusters

    representatives = [peers[row] for row in rows[starts]]
    for column, peer_id in zip(columns[starts].tolist(), representatives):
        configuration.cluster(clusters[column]).elect_representative(peer_id)

    reporting = batch.proposed[rows]
    gains = batch.gain[rows]
    eligible = reporting & batch.is_move[rows] & (gains > gain_threshold)
    scores = np.where(eligible, gains, -np.inf)
    best = np.maximum.reduceat(scores, starts)
    winners = np.flatnonzero(eligible & (scores == best[segment]))
    # The first winner of a segment has the smallest member repr.
    winner_segments = segment[winners]
    first = np.flatnonzero(_run_starts(winner_segments))
    requesting = winner_segments[first]
    requests = [_request(batch, row) for row in rows[winners[first]].tolist()]

    if bus is not None:
        if bus.keep_log:
            _publish_log(
                bus, batch, rows, starts, reporting, representatives, requesting, requests
            )
        else:
            bus.record(GainReportMessage.__name__, int(np.count_nonzero(reporting)))
            bus.record(
                RelocationRequestMessage.__name__, len(requests) * (len(representatives) - 1)
            )
    return requests


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Mask of the positions where a run of equal *values* begins."""
    opens = np.empty(values.size, dtype=bool)
    opens[:1] = True
    np.not_equal(values[1:], values[:-1], out=opens[1:])
    return opens


def _request(batch: ProposalBatch, row: int) -> RelocationRequest:
    return RelocationRequest(
        source_cluster=batch.clusters[int(batch.source[row])],
        target_cluster=batch.target_cluster(row),
        peer_id=batch.peers[row],
        gain=float(batch.gain[row]),
    )


def _publish_log(
    bus: MessageBus,
    batch: ProposalBatch,
    rows: np.ndarray,
    starts: np.ndarray,
    reporting: np.ndarray,
    representatives: List[PeerId],
    requesting: np.ndarray,
    requests: List[RelocationRequest],
) -> None:
    """Publish the phase's messages one by one, in protocol order.

    Per cluster (``repr`` order): its members' gain reports (member
    ``repr`` order), then the broadcast of its request, if any, to the
    other representatives.
    """
    request_of = dict(zip(requesting.tolist(), requests))
    stops = np.append(starts[1:], rows.size)
    for k, (start, stop) in enumerate(zip(starts.tolist(), stops.tolist())):
        receiver = representatives[k]
        for position in range(start, stop):
            if not reporting[position]:
                continue
            row = int(rows[position])
            bus.publish(
                GainReportMessage(
                    sender=batch.peers[row],
                    receiver=receiver,
                    gain=float(batch.gain[row]),
                    target_cluster=batch.target_cluster(row),
                )
            )
        request = request_of.get(k)
        if request is None:
            continue
        for other, other_representative in enumerate(representatives):
            if other == k:
                continue
            bus.publish(
                RelocationRequestMessage(
                    sender=receiver,
                    receiver=other_representative,
                    source_cluster=request.source_cluster,
                    target_cluster=request.target_cluster,
                    gain=request.gain,
                    peer_id=request.peer_id,
                )
            )
