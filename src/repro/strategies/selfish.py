"""The selfish relocation strategy (Section 3.1.1).

A selfish peer tracks, per cluster, the individual cost it would incur if it
belonged to that cluster, and at the end of the period selects the cluster
with the minimum cost (Eq. 5).  The gain of the move is::

    pgain(p, c_new) = pcost(p, c_cur) - pcost(p, c_new)

In *exact* mode the per-cluster costs are evaluated with the cost model
(equivalently: the peer's best response in the game).  In *observed* mode
they are estimated from the cid-annotated results the peer received during
the period: the recall term of the cost for cluster ``c`` is approximated by
``1 - share of observed results provided by c`` (with the peer's own results
counted as reachable regardless, since its content moves with it).
"""

from __future__ import annotations

from collections.abc import Hashable
from typing import Dict, Optional

import numpy as np

from repro.registry import register_strategy
from repro.strategies.base import (
    ProposalBatch,
    RelocationProposal,
    RelocationStrategy,
    StrategyContext,
)
from repro.errors import StrategyError

__all__ = ["SelfishStrategy"]

PeerId = Hashable
ClusterId = Hashable


@register_strategy("selfish")
class SelfishStrategy(RelocationStrategy):
    """Move to the cluster minimising the peer's own individual cost."""

    name = "selfish"

    def __init__(self, *, mode: str = "exact") -> None:
        if mode not in {"exact", "observed"}:
            raise StrategyError(f"mode must be 'exact' or 'observed', got {mode!r}")
        self.mode = mode

    # -- exact mode --------------------------------------------------------------

    def _propose_exact(
        self, peer_id: PeerId, context: StrategyContext
    ) -> Optional[RelocationProposal]:
        return self._from_response(context.game.best_response(peer_id))

    # -- observed mode --------------------------------------------------------------

    def observed_costs(self, peer_id: PeerId, context: StrategyContext) -> Dict[ClusterId, float]:
        """Estimated ``pcost(p, c)`` per cluster from the period's observations."""
        if context.statistics is None or peer_id not in context.statistics:
            raise StrategyError(
                f"observed mode requires period statistics for peer {peer_id!r}"
            )
        configuration = context.game.configuration
        cost_model = context.game.cost_model
        tracker = context.statistics[peer_id].recall_tracker
        shares = tracker.observed_recall_by_cluster()
        current_cluster = configuration.cluster_of(peer_id)
        own_share = 0.0
        total_results = tracker.total_results()
        if total_results:
            own_results = sum(
                cost_model.recall_model.result(query, peer_id) * count
                for query, count in cost_model.peer_workload(peer_id).items()
            )
            own_share = min(own_results / total_results, 1.0)

        costs: Dict[ClusterId, float] = {}
        for cluster_id in configuration.nonempty_clusters():
            members = set(configuration.members(cluster_id))
            members.add(peer_id)
            membership = cost_model.membership_cost([len(members)])
            observed_share = shares.get(cluster_id, 0.0)
            if cluster_id != current_cluster:
                # The peer's own results are currently annotated with its own
                # cluster; after moving they would still be reachable.
                observed_share = min(observed_share + own_share, 1.0)
            costs[cluster_id] = membership + (1.0 - observed_share)
        return costs

    def _propose_observed(
        self, peer_id: PeerId, context: StrategyContext
    ) -> Optional[RelocationProposal]:
        costs = self.observed_costs(peer_id, context)
        current_cluster = context.game.configuration.cluster_of(peer_id)
        stay = RelocationProposal.stay(peer_id, current_cluster)
        if not costs:
            return stay
        best_cluster = min(sorted(costs, key=repr), key=lambda cluster_id: costs[cluster_id])
        current_cost = costs.get(current_cluster)
        if current_cost is None or best_cluster == current_cluster:
            return stay
        gain = current_cost - costs[best_cluster]
        if gain <= 0.0:
            return stay
        return RelocationProposal(
            peer_id=peer_id,
            source_cluster=current_cluster,
            target_cluster=best_cluster,
            gain=gain,
        )

    # -- dispatch -----------------------------------------------------------------------

    def propose(self, peer_id: PeerId, context: StrategyContext) -> Optional[RelocationProposal]:
        if self.mode == "exact":
            return self._propose_exact(peer_id, context)
        return self._propose_observed(peer_id, context)

    def propose_all(self, peer_ids, context: StrategyContext) -> ProposalBatch:
        """Vectorised batch evaluation in exact mode (per-peer fallback otherwise).

        The batch is filled straight from the kernel's best-response arrays;
        gains are ``current - best`` cost in float64, whatever the kernel's
        dtype, exactly as :class:`~repro.game.model.BestResponse` computes
        them.
        """
        game = context.game
        if self.mode != "exact" or game.cost_model.matrix is None:
            return super().propose_all(peer_ids, context)
        kernel = game._active_kernel()
        if kernel is None:
            # Reference path (no live kernel): the game's table evaluation.
            responses = game.best_responses()
            proposals = {
                peer_id: self._from_response(responses[peer_id]) if peer_id in responses
                else self.propose(peer_id, context)
                for peer_id in dict.fromkeys(peer_ids)
            }
            return ProposalBatch.from_proposals(proposals, game.configuration)
        candidates, include_new = game._candidate_set(kernel.peer_order)
        responses, irregular = kernel.best_response_all(
            candidate_clusters=candidates, include_new_cluster=include_new
        )
        selection = responses.selection
        if selection is None:
            return super().propose_all(peer_ids, context)
        eligible = selection.eligible
        moving = eligible & ~selection.stay
        current = selection.current_columns
        gain = np.where(
            moving,
            selection.current_costs.astype(np.float64)
            - selection.best_costs.astype(np.float64),
            0.0,
        )
        members = np.flatnonzero(eligible)
        batch = ProposalBatch(
            kernel._peer_order,
            selection.candidates,
            source=current,
            target=np.where(moving, selection.best_columns, current),
            fresh=moving & selection.use_new,
            gain=gain,
            is_move=moving,
            proposed=eligible.copy(),
            member_rows=members,
            member_columns=current[members],
            index=kernel._peer_index,
            peer_rank=kernel.peer_rank,
        )
        return self._complete_batch(batch, irregular, peer_ids, context)

    @staticmethod
    def _from_response(response) -> RelocationProposal:
        if not response.wants_to_move:
            return RelocationProposal.stay(response.peer_id, response.current_cluster)
        return RelocationProposal(
            peer_id=response.peer_id,
            source_cluster=response.current_cluster,
            target_cluster=response.best_cluster,
            gain=response.gain,
        )

    def __repr__(self) -> str:
        return f"SelfishStrategy(mode={self.mode!r})"
