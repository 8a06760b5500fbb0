"""One protocol round's relocation proposals, kept as arrays.

Every round each peer reports its proposal to its cluster representative.
Building one :class:`~repro.strategies.base.RelocationProposal` per peer per
round dominated the round at experiment scale, so strategies produce a
:class:`ProposalBatch` instead: parallel arrays over peer *rows* and cluster
*columns*.  The gather phase reads the arrays
(:func:`~repro.protocol.representative.gather_requests`); proposal objects
are built only when someone reads the batch as a ``peer -> proposal``
mapping.

A batch also records every ``(peer, cluster)`` membership of the
configuration it was built against, because the gather phase elects
representatives and counts gain reports over all members, including peers
that made no proposal.
"""

from __future__ import annotations

from collections.abc import Hashable, Mapping, Sequence
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.core.costs import NEW_CLUSTER
from repro.game.kernel import repr_rank

__all__ = ["ProposalBatch"]

PeerId = Hashable
ClusterId = Hashable


class ProposalBatch(Mapping):
    """Relocation proposals of one round as arrays; a read-only ``peer -> proposal`` view.

    Row ``i`` describes ``peers[i]``; ``source`` and ``target`` hold columns
    of ``clusters``.

    Attributes
    ----------
    proposed:
        Whether the row's peer made a proposal at all (the mapping's keys).
    source, target:
        Source and target cluster columns (``target`` is unused when
        ``fresh``).
    fresh:
        The proposal targets :data:`~repro.core.costs.NEW_CLUSTER`.
    gain:
        The proposal's gain, float64 (``0.0`` for staying).
    is_move:
        The proposal changes cluster.
    member_rows, member_columns:
        Every ``(peer row, cluster column)`` membership pair of the
        configuration the batch was built against.
    """

    def __init__(
        self,
        peers: Sequence[PeerId],
        clusters: Sequence[ClusterId],
        *,
        source: np.ndarray,
        target: np.ndarray,
        fresh: np.ndarray,
        gain: np.ndarray,
        is_move: np.ndarray,
        proposed: np.ndarray,
        member_rows: np.ndarray,
        member_columns: np.ndarray,
        index: Optional[Mapping[PeerId, int]] = None,
        peer_rank: Optional[np.ndarray] = None,
    ) -> None:
        self.peers = peers
        self.clusters = clusters
        self.source = source
        self.target = target
        self.fresh = fresh
        self.gain = gain
        self.is_move = is_move
        self.proposed = proposed
        self.member_rows = member_rows
        self.member_columns = member_columns
        self._index = index
        self._peer_rank = peer_rank

    @classmethod
    def from_proposals(cls, proposals: Mapping[PeerId, object], configuration) -> "ProposalBatch":
        """The batch of a ``peer -> RelocationProposal`` mapping over *configuration*.

        This is the per-peer path: the base strategy's, and the exact
        strategies' for the rare rounds their arrays cannot fully answer.
        A batch is returned unchanged.
        """
        if isinstance(proposals, ProposalBatch):
            return proposals
        members = configuration.peer_ids()
        peers = members + [peer_id for peer_id in proposals if peer_id not in configuration]
        index = {peer_id: row for row, peer_id in enumerate(peers)}
        clusters = configuration.cluster_ids()
        columns = {cluster_id: column for column, cluster_id in enumerate(clusters)}

        def column_of(cluster_id: ClusterId) -> int:
            if cluster_id not in columns:
                columns[cluster_id] = len(clusters)
                clusters.append(cluster_id)
            return columns[cluster_id]

        pair_rows: List[int] = []
        pair_columns: List[int] = []
        for row, peer_id in enumerate(members):
            for cluster_id in configuration.clusters_of(peer_id):
                pair_rows.append(row)
                pair_columns.append(column_of(cluster_id))
        size = len(peers)
        source = np.zeros(size, dtype=np.int64)
        target = np.zeros(size, dtype=np.int64)
        fresh = np.zeros(size, dtype=bool)
        gain = np.zeros(size, dtype=np.float64)
        is_move = np.zeros(size, dtype=bool)
        for peer_id, proposal in proposals.items():
            row = index[peer_id]
            source[row] = column_of(proposal.source_cluster)
            fresh[row] = proposal.target_cluster == NEW_CLUSTER
            target[row] = -1 if fresh[row] else column_of(proposal.target_cluster)
            gain[row] = proposal.gain
            is_move[row] = proposal.is_move
        proposed = np.zeros(size, dtype=bool)
        proposed[[index[peer_id] for peer_id in proposals]] = True
        # Members come first, already in repr order, and only they hold
        # memberships, so the row number serves as the repr rank.
        return cls(
            peers,
            clusters,
            source=source,
            target=target,
            fresh=fresh,
            gain=gain,
            is_move=is_move,
            proposed=proposed,
            member_rows=np.array(pair_rows, dtype=np.int64),
            member_columns=np.array(pair_columns, dtype=np.int64),
            index=index,
            peer_rank=np.arange(size, dtype=np.int64),
        )

    @classmethod
    def over_columns(
        cls,
        configuration,
        matrix,
        clusters: Sequence[ClusterId],
        membership: np.ndarray,
        evaluate,
        *,
        peer_rank: Optional[np.ndarray] = None,
    ) -> Tuple["ProposalBatch", List[PeerId]]:
        """The batch of a vectorised evaluation over the recall matrix's rows.

        *membership* is every matrix row's 0/1 membership over the
        *clusters* columns.  ``evaluate(current_columns)`` returns
        ``(best_columns, gains, moving)`` over all rows; rows in exactly one
        of the clusters propose their best column with its gain where
        *moving* and stay elsewhere.  Returns ``(batch, irregular)``, where
        *irregular* lists the configuration's peers the arrays cannot
        describe: members of several clusters, or peers unknown to the
        recall matrix.
        """
        peer_order = matrix.peer_order
        counts = membership.sum(axis=1)
        single = counts == 1
        current = np.argmax(membership, axis=1)
        best, gains, moving = evaluate(current)
        moving = moving & single
        members = np.flatnonzero(single)
        batch = cls(
            peer_order,
            clusters,
            source=current,
            target=np.where(moving, best, current),
            fresh=np.zeros(len(peer_order), dtype=bool),
            gain=np.where(moving, gains, 0.0),
            is_move=moving,
            proposed=single,
            member_rows=members,
            member_columns=current[members],
            index=matrix.peer_index,
            peer_rank=peer_rank,
        )
        irregular = [peer_order[row] for row in np.flatnonzero(counts > 1)]
        if configuration.num_peers() != int(np.count_nonzero(counts)):
            index = matrix.peer_index
            irregular.extend(
                peer_id for peer_id in configuration.peer_ids() if peer_id not in index
            )
        return batch, irregular

    def withdraw(self, rows: np.ndarray) -> "ProposalBatch":
        """A copy in which the peers of the masked *rows* made no proposal."""
        return ProposalBatch(
            self.peers,
            self.clusters,
            source=self.source,
            target=self.target,
            fresh=self.fresh,
            gain=self.gain,
            is_move=self.is_move,
            proposed=self.proposed & ~rows,
            member_rows=self.member_rows,
            member_columns=self.member_columns,
            index=self._index,
            peer_rank=self._peer_rank,
        )

    def row_index(self) -> Mapping[PeerId, int]:
        """``peer id -> row`` (shared, do not mutate)."""
        if self._index is None:
            self._index = {peer_id: row for row, peer_id in enumerate(self.peers)}
        return self._index

    @property
    def peer_rank(self) -> np.ndarray:
        """Every row's position in the ``repr`` order of the peer ids."""
        if self._peer_rank is None:
            self._peer_rank = repr_rank(self.peers)
        return self._peer_rank

    def target_cluster(self, row: int) -> ClusterId:
        """The target cluster id of *row* (:data:`NEW_CLUSTER` for a fresh one)."""
        return NEW_CLUSTER if self.fresh[row] else self.clusters[int(self.target[row])]

    def __getitem__(self, peer_id: PeerId):
        from repro.strategies.base import RelocationProposal

        row = self.row_index().get(peer_id)
        if row is None or not self.proposed[row]:
            raise KeyError(peer_id)
        return RelocationProposal(
            peer_id=peer_id,
            source_cluster=self.clusters[int(self.source[row])],
            target_cluster=self.target_cluster(row),
            gain=float(self.gain[row]),
        )

    def __iter__(self) -> Iterator[PeerId]:
        return (self.peers[row] for row in np.flatnonzero(self.proposed))

    def __len__(self) -> int:
        return int(np.count_nonzero(self.proposed))
