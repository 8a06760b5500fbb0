"""The altruistic relocation strategy (Section 3.1.2).

An altruistic peer moves to the cluster whose recall would improve the most
from the move — i.e. the cluster whose members' queries it serves the most.
The measure tracked over the period ``T`` is Eq. 6::

    contribution(p, c_i) =
        sum over p_i in c_i, q_m in Q(p_i) of result(q_m, p)
        -------------------------------------------------------
        sum over p_j in P,  q_m in Q(p_j) of result(q_m, p)

The peer selects the cluster ``c_new`` with the maximum contribution and
evaluates the *cluster gain* ``clgain`` that the reformulation protocol uses
to rank requests.  The paper defines ``clgain`` tersely ("the increase in the
membership cost of ``c_new`` p will cause if it joins it, minus p's
contribution to it"); this implementation makes the following documented
reading, chosen so that the altruistic dynamics reproduce the behaviour the
paper reports (convergence to topic clusters, no collapse into one giant
cluster, and the Figure 2/3 asymmetries):

* **sign** — the gain is reported as *benefit minus cost* so that, exactly
  like ``pgain``, a larger gain means a more beneficial move and the protocol
  can rank all requests uniformly.
* **benefit** — the system-recall improvement of the move: the target
  cluster's recall improves by the peer's contribution to it, but the cluster
  being left loses the peer's contribution to *it*, so the benefit is the
  contribution difference ``contribution(p, c_new) - contribution(p, c_cur)``.
* **cost** — the *net* increase of the system's cluster-maintenance cost
  caused by the move (the first term of the workload cost):
  ``alpha * [ (|c_new|+1) theta(|c_new|+1) - |c_new| theta(|c_new|) ] / |P|``
  for joining, minus the symmetric decrease for leaving ``c_cur``.  Reading
  the cost as only the joining peer's own membership term makes the penalty
  negligible and lets every provider chase the largest demand pool, which
  collapses the overlay into one or two giant clusters — the opposite of what
  the paper observes.

A peer only proposes a move when the target's contribution strictly exceeds
the current cluster's contribution (the paper's Figure 2 discussion: peers in
``c_new`` only move to ``c_cur`` once the demand from ``c_cur`` matches what
they currently serve).

Exact mode computes contributions from the recall/workload model; observed
mode uses the peer's :class:`~repro.peers.statistics.ContributionTracker`.
"""

from __future__ import annotations

from collections.abc import Hashable
from typing import Dict, Optional

import numpy as np

from repro.errors import StrategyError
from repro.registry import register_strategy
from repro.strategies.base import (
    ProposalBatch,
    RelocationProposal,
    RelocationStrategy,
    StrategyContext,
)

__all__ = ["AltruisticStrategy", "exact_contributions"]

PeerId = Hashable
ClusterId = Hashable


def exact_contributions(peer_id: PeerId, context: StrategyContext) -> Dict[ClusterId, float]:
    """``contribution(p, c)`` (Eq. 6) for every non-empty cluster, from global knowledge."""
    configuration = context.game.configuration
    cost_model = context.game.cost_model
    recall_model = cost_model.recall_model

    served_per_cluster: Dict[ClusterId, float] = {}
    total_served = 0.0
    for other_id in recall_model.peer_ids:
        workload = cost_model.workloads.get(other_id)
        if workload is None or workload.total() == 0:
            continue
        served_to_other = 0.0
        for query, count in workload.items():
            served_to_other += count * recall_model.result(query, peer_id)
        if served_to_other == 0.0:
            continue
        total_served += served_to_other
        if other_id not in configuration:
            continue
        other_cluster = configuration.cluster_of(other_id)
        served_per_cluster[other_cluster] = (
            served_per_cluster.get(other_cluster, 0.0) + served_to_other
        )

    if total_served == 0.0:
        return {cluster_id: 0.0 for cluster_id in configuration.nonempty_clusters()}
    return {
        cluster_id: served_per_cluster.get(cluster_id, 0.0) / total_served
        for cluster_id in configuration.nonempty_clusters()
    }


@register_strategy("altruistic")
class AltruisticStrategy(RelocationStrategy):
    """Move to the cluster to which the peer contributes the most results."""

    name = "altruistic"

    def __init__(self, *, mode: str = "exact") -> None:
        if mode not in {"exact", "observed"}:
            raise StrategyError(f"mode must be 'exact' or 'observed', got {mode!r}")
        self.mode = mode

    # -- contribution sources ---------------------------------------------------

    def contributions(self, peer_id: PeerId, context: StrategyContext) -> Dict[ClusterId, float]:
        """Contribution of *peer_id* to every cluster, per the configured mode."""
        if self.mode == "exact":
            return exact_contributions(peer_id, context)
        if context.statistics is None or peer_id not in context.statistics:
            raise StrategyError(
                f"observed mode requires period statistics for peer {peer_id!r}"
            )
        tracker = context.statistics[peer_id].contribution_tracker
        observed = tracker.contributions()
        return {
            cluster_id: observed.get(cluster_id, 0.0)
            for cluster_id in context.game.configuration.nonempty_clusters()
        }

    # -- gain ------------------------------------------------------------------------

    @staticmethod
    def join_cost_increase(cost_model, cluster_size: int) -> float:
        """Increase of the system's cluster-maintenance cost when a peer joins a cluster of *cluster_size*."""
        theta = cost_model.theta
        return (
            cost_model.alpha
            * ((cluster_size + 1) * theta(cluster_size + 1) - cluster_size * theta(cluster_size))
            / cost_model.population_size
        )

    @staticmethod
    def leave_cost_decrease(cost_model, cluster_size: int) -> float:
        """Decrease of the system's cluster-maintenance cost when a peer leaves a cluster of *cluster_size*."""
        if cluster_size <= 0:
            return 0.0
        theta = cost_model.theta
        return (
            cost_model.alpha
            * (cluster_size * theta(cluster_size) - (cluster_size - 1) * theta(cluster_size - 1))
            / cost_model.population_size
        )

    def cluster_gain(
        self,
        peer_id: PeerId,
        target_cluster: ClusterId,
        context: StrategyContext,
        *,
        source_cluster: Optional[ClusterId] = None,
        contributions: Optional[Dict[ClusterId, float]] = None,
    ) -> float:
        """``clgain`` of moving *peer_id* from its cluster to *target_cluster* (larger = better)."""
        configuration = context.game.configuration
        cost_model = context.game.cost_model
        if source_cluster is None:
            source_cluster = configuration.cluster_of(peer_id)
        if contributions is None:
            contributions = self.contributions(peer_id, context)
        benefit = contributions.get(target_cluster, 0.0) - contributions.get(source_cluster, 0.0)
        net_increase = self.join_cost_increase(
            cost_model, configuration.size(target_cluster)
        ) - self.leave_cost_decrease(cost_model, configuration.size(source_cluster))
        return benefit - net_increase

    def propose(self, peer_id: PeerId, context: StrategyContext) -> Optional[RelocationProposal]:
        configuration = context.game.configuration
        current_cluster = configuration.cluster_of(peer_id)
        stay = RelocationProposal.stay(peer_id, current_cluster)
        contributions = self.contributions(peer_id, context)
        if not contributions:
            return stay
        best_cluster = max(
            sorted(contributions, key=repr), key=lambda cluster_id: contributions[cluster_id]
        )
        if best_cluster == current_cluster:
            return stay
        # The move must help the target cluster more than the peer currently
        # helps the cluster it would leave, otherwise the altruist stays put.
        if contributions[best_cluster] <= contributions.get(current_cluster, 0.0):
            return stay
        gain = self.cluster_gain(
            peer_id,
            best_cluster,
            context,
            source_cluster=current_cluster,
            contributions=contributions,
        )
        if gain <= 0.0:
            return stay
        return RelocationProposal(
            peer_id=peer_id,
            source_cluster=current_cluster,
            target_cluster=best_cluster,
            gain=gain,
        )

    def batch_state(self, context: StrategyContext, cluster_order):
        """Shared vectorised scaffolding of the batch (exact-mode) paths.

        Returns ``(membership, contributions, join_increases,
        leave_decreases)`` over the *cluster_order* columns — the peer x
        cluster membership and contribution (Eq. 6) matrices plus the
        per-cluster maintenance-cost deltas — or ``None`` when no recall
        matrix is attached.  The hybrid strategy builds its altruistic term
        from exactly this state, so the two batch paths can never diverge.
        """
        matrix = context.game.cost_model.matrix
        if matrix is None:
            return None
        configuration = context.game.configuration
        cost_model = context.game.cost_model
        kernel = context.game._active_kernel()
        if kernel is not None:
            # The kernel's live membership/size caches replace the per-round
            # membership-matrix rebuild.
            membership, sizes = kernel.membership_columns(cluster_order)
        else:
            membership, _ = configuration.membership_matrix(matrix.peer_order, cluster_order)
            sizes = membership.sum(axis=0)
        contributions = matrix.contribution_matrix(membership)
        join_increases = np.array(
            [self.join_cost_increase(cost_model, int(size)) for size in sizes], dtype=float
        )
        leave_decreases = np.array(
            [self.leave_cost_decrease(cost_model, int(size)) for size in sizes], dtype=float
        )
        return membership, contributions, join_increases, leave_decreases

    def propose_all(self, peer_ids, context: StrategyContext) -> ProposalBatch:
        """Vectorised batch evaluation in exact mode (per-peer fallback otherwise)."""
        game = context.game
        matrix = game.cost_model.matrix
        cluster_order = game.configuration.nonempty_clusters()
        if self.mode != "exact" or matrix is None or not cluster_order:
            return super().propose_all(peer_ids, context)
        membership, contributions, join_increases, leave_decreases = self.batch_state(
            context, cluster_order
        )
        rows = np.arange(membership.shape[0])

        def evaluate(current):
            best = np.argmax(contributions, axis=1)
            best_contributions = contributions[rows, best]
            current_contributions = contributions[rows, current]
            gains = (best_contributions - current_contributions).astype(np.float64) - (
                join_increases[best] - leave_decreases[current]
            )
            # The move must help the target cluster more than the peer
            # currently helps the cluster it would leave, and pay for itself.
            moving = (
                (best != current)
                & ~(best_contributions <= current_contributions)
                & ~(gains <= 0.0)
            )
            return best, gains, moving

        kernel = game._active_kernel()
        batch, irregular = ProposalBatch.over_columns(
            game.configuration,
            matrix,
            cluster_order,
            membership,
            evaluate,
            peer_rank=kernel.peer_rank if kernel is not None else None,
        )
        return self._complete_batch(batch, irregular, peer_ids, context)

    def __repr__(self) -> str:
        return f"AltruisticStrategy(mode={self.mode!r})"
