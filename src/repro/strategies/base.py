"""Relocation strategies: the peer-local decision rules of Section 3.1.

At the end of every observation period ``T`` each peer runs its relocation
strategy to decide whether it should move to another cluster and how much it
(or the system) would gain.  A strategy produces a
:class:`RelocationProposal`; the reformulation protocol then gathers the
proposals, keeps the best one per cluster and serves them subject to the
lock rule.

Strategies can work in two modes:

* **exact** — the gain is computed from the cost model / recall model
  (global knowledge).  This is the mode used for the experiment-scale runs;
  under broadcast routing the observed quantities equal the exact ones, so
  nothing is lost.
* **observed** — the gain is computed from the peer's own
  :class:`~repro.peers.statistics.PeerStatistics`, i.e. from the cid-annotated
  results it saw during the period.  This is the faithful, purely local mode;
  it is exercised by the integration tests and an ablation bench.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.game.model import ClusterGame
from repro.peers.statistics import PeerStatistics
from repro.strategies.batch import ProposalBatch

__all__ = ["ProposalBatch", "RelocationProposal", "StrategyContext", "RelocationStrategy"]

PeerId = Hashable
ClusterId = Hashable


@dataclass(frozen=True)
class RelocationProposal:
    """A peer's proposal to relocate, produced by a strategy.

    Attributes
    ----------
    peer_id:
        The peer proposing to move.
    source_cluster:
        The cluster it currently belongs to.
    target_cluster:
        The cluster it wants to move to (possibly
        :data:`~repro.core.costs.NEW_CLUSTER`).
    gain:
        The strategy-specific gain of the move (``pgain`` for the selfish
        strategy, ``clgain`` for the altruistic one).  Larger is better.
    """

    peer_id: PeerId
    source_cluster: ClusterId
    target_cluster: ClusterId
    gain: float

    @property
    def is_move(self) -> bool:
        """``True`` when the proposal actually changes cluster."""
        return self.source_cluster != self.target_cluster

    @classmethod
    def stay(cls, peer_id: PeerId, cluster_id: ClusterId) -> "RelocationProposal":
        """A zero-gain proposal that keeps *peer_id* in *cluster_id*."""
        return cls(peer_id=peer_id, source_cluster=cluster_id, target_cluster=cluster_id, gain=0.0)


@dataclass
class StrategyContext:
    """Everything a strategy may consult when evaluating one peer.

    Attributes
    ----------
    game:
        The cluster game (cost model + current configuration).
    statistics:
        Optional per-peer observation trackers filled by the overlay
        simulator; required by the ``observed`` strategy mode.
    previous_costs:
        Optional mapping of peer id to its individual cost at the end of the
        *previous* period, used by the new-cluster creation rule ("its cost
        has significantly increased since the last time period").
    """

    game: ClusterGame
    statistics: Optional[Mapping[PeerId, PeerStatistics]] = None
    previous_costs: Optional[Mapping[PeerId, float]] = None


class RelocationStrategy:
    """Base class for relocation strategies."""

    name = "strategy"

    def propose(self, peer_id: PeerId, context: StrategyContext) -> Optional[RelocationProposal]:
        """Return the peer's relocation proposal, or ``None`` if it prefers to stay."""
        raise NotImplementedError

    def propose_all(self, peer_ids, context: StrategyContext) -> ProposalBatch:
        """Proposals for many peers at once, as a :class:`ProposalBatch`.

        The batch is a read-only ``peer -> proposal`` mapping over arrays;
        the reformulation protocol reads the arrays directly.  The default
        implementation calls :meth:`propose` per peer; the selfish,
        altruistic and hybrid strategies fill the arrays from vectorised
        evaluations in exact mode (identical results, verified by tests).
        """
        proposals = {}
        for peer_id in peer_ids:
            proposal = self.propose(peer_id, context)
            if proposal is not None:
                proposals[peer_id] = proposal
        return ProposalBatch.from_proposals(proposals, context.game.configuration)

    def _complete_batch(
        self,
        batch: ProposalBatch,
        irregular_peers: Sequence[PeerId],
        peer_ids: Iterable[PeerId],
        context: StrategyContext,
    ) -> ProposalBatch:
        """Restrict a vectorised *batch* to *peer_ids*, completing it if needed.

        Rows outside *peer_ids* are withdrawn.  When some requested peer has
        no proposal in the arrays, or the arrays miss some peer's
        memberships (*irregular_peers*), the batch is rebuilt through the
        per-peer path with :meth:`propose` for the missing peers.
        """
        peer_ids = list(peer_ids)
        index = batch.row_index()
        try:
            rows = np.fromiter(map(index.__getitem__, peer_ids), np.int64, len(peer_ids))
        except KeyError:
            rows = np.fromiter(
                (index.get(peer_id, -1) for peer_id in peer_ids), np.int64, len(peer_ids)
            )
        answered = np.zeros(len(peer_ids), dtype=bool)
        answered[rows >= 0] = batch.proposed[rows[rows >= 0]]
        wanted = np.zeros(batch.proposed.shape, dtype=bool)
        wanted[rows[answered]] = True
        batch.proposed &= wanted
        if answered.all() and not irregular_peers:
            return batch
        proposals = dict(batch)
        for position in np.flatnonzero(~answered):
            peer_id = peer_ids[position]
            if peer_id not in proposals:
                proposal = self.propose(peer_id, context)
                if proposal is not None:
                    proposals[peer_id] = proposal
        return ProposalBatch.from_proposals(proposals, context.game.configuration)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
