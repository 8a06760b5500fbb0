"""The cluster-formulation game.

Each peer is a player; its strategy is the set of clusters it joins (here,
as in the paper's protocol and experiments, a single cluster); its cost is
the individual cost of Eq. 1.  :class:`ClusterGame` ties a cost model to a
configuration and answers the game-theoretic questions the paper asks:

* what is a peer's best response to the current configuration,
* how much would it gain by deviating (``pgain``),
* is the configuration a pure Nash equilibrium.

The game supports moving to any existing cluster **or** to a fresh empty
cluster (the :data:`~repro.core.costs.NEW_CLUSTER` option), which is how the
cluster-creation rule of Section 3.2 enters the model.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.costs import NEW_CLUSTER, CostModel
from repro.peers.configuration import ClusterConfiguration

__all__ = ["BestResponse", "ClusterGame"]

PeerId = Hashable
ClusterId = Hashable


@dataclass(frozen=True)
class BestResponse:
    """The outcome of a best-response computation for one peer.

    Attributes
    ----------
    peer_id:
        The deviating peer.
    current_cluster:
        The cluster the peer currently belongs to.
    best_cluster:
        The cluster minimising the peer's prospective individual cost
        (may equal ``current_cluster``, or be :data:`NEW_CLUSTER`).
    current_cost:
        ``pcost`` under the current strategy.
    best_cost:
        ``pcost`` under the best response.
    """

    peer_id: PeerId
    current_cluster: ClusterId
    best_cluster: ClusterId
    current_cost: float
    best_cost: float

    @property
    def gain(self) -> float:
        """``pgain``: the cost reduction obtained by deviating (>= 0 by construction)."""
        return self.current_cost - self.best_cost

    @property
    def wants_to_move(self) -> bool:
        """``True`` when the best response differs from the current cluster with positive gain."""
        return self.best_cluster != self.current_cluster and self.gain > 0.0


class ClusterGame:
    """Game-theoretic view over a cost model and a cluster configuration.

    When the cost model has a :class:`WeightedRecallMatrix` attached, batch
    evaluations (:meth:`best_responses`, :meth:`prospective_cost_table`) run
    on a :class:`~repro.game.kernel.BestResponseKernel` — incrementally
    maintained vectorized state shared across rounds.  Long-lived drivers
    (the reformulation protocol) build one kernel and pass it to every
    per-round game through the ``kernel`` parameter; short-lived games build
    their own lazily.  ``use_kernel=False`` forces the reference
    (rebuild-everything) path, which the ablation benchmark times against
    the kernel.
    """

    def __init__(
        self,
        cost_model: CostModel,
        configuration: ClusterConfiguration,
        *,
        allow_new_clusters: bool = True,
        candidate_clusters: Optional[Iterable[ClusterId]] = None,
        kernel: Optional["object"] = None,
        use_kernel: bool = True,
        kernel_backend: Optional[str] = None,
        kernel_dtype: Optional[str] = None,
    ) -> None:
        self.cost_model = cost_model
        self.configuration = configuration
        self.allow_new_clusters = allow_new_clusters
        self._candidate_clusters = (
            list(candidate_clusters) if candidate_clusters is not None else None
        )
        self.use_kernel = use_kernel
        self.kernel_backend = kernel_backend
        self.kernel_dtype = kernel_dtype
        self._kernel = kernel

    @property
    def kernel(self):
        """The game's :class:`BestResponseKernel`, or ``None`` when unavailable.

        Built lazily on first use when a recall matrix is attached; a kernel
        that went stale (the configuration gained a peer the matrix does not
        know) is discarded and the reference path takes over.
        """
        if not self.use_kernel:
            return None
        if self._kernel is None and self.cost_model.matrix is not None:
            from repro.game.kernel import BestResponseKernel

            self._kernel = BestResponseKernel(
                self.cost_model,
                self.configuration,
                backend=self.kernel_backend or "auto",
                dtype=self.kernel_dtype,
            )
        if self._kernel is not None and getattr(self._kernel, "stale", False):
            return None
        return self._kernel

    # -- candidate strategies ----------------------------------------------------

    def candidate_clusters(self, peer_id: PeerId) -> List[ClusterId]:
        """Clusters the peer may consider moving to.

        By default these are all non-empty clusters plus (at most) one empty
        slot when new-cluster creation is allowed.  An explicit candidate
        list (e.g. "non-empty clusters only", used by the Section 4.2
        experiments where the number of clusters is kept fixed) overrides
        the default.
        """
        if self._candidate_clusters is not None:
            return list(self._candidate_clusters)
        candidates = list(self.configuration.nonempty_clusters())
        if self.allow_new_clusters and self.configuration.empty_clusters():
            candidates.append(NEW_CLUSTER)
        return candidates

    # -- per-peer analysis ----------------------------------------------------------

    def current_cost(self, peer_id: PeerId) -> float:
        """``pcost`` of *peer_id* under the current configuration."""
        return self.cost_model.pcost(peer_id, self.configuration)

    def prospective_cost(self, peer_id: PeerId, cluster_id: ClusterId) -> float:
        """``pcost`` of *peer_id* if it relocated to *cluster_id*."""
        return self.cost_model.prospective_pcost(peer_id, cluster_id, self.configuration)

    def cost_by_cluster(self, peer_id: PeerId) -> Dict[ClusterId, float]:
        """Prospective ``pcost`` of *peer_id* for every candidate cluster."""
        return {
            cluster_id: self.prospective_cost(peer_id, cluster_id)
            for cluster_id in self.candidate_clusters(peer_id)
        }

    def best_response(self, peer_id: PeerId) -> BestResponse:
        """The cluster minimising the prospective cost of *peer_id* (Eq. 5)."""
        current_cluster = self.configuration.cluster_of(peer_id)
        current_cost = self.current_cost(peer_id)
        best_cluster = current_cluster
        best_cost = current_cost
        for cluster_id in self.candidate_clusters(peer_id):
            if cluster_id == current_cluster:
                continue
            cost = self.prospective_cost(peer_id, cluster_id)
            if cost < best_cost - 1e-12:
                best_cost = cost
                best_cluster = cluster_id
        return BestResponse(
            peer_id=peer_id,
            current_cluster=current_cluster,
            best_cluster=best_cluster,
            current_cost=current_cost,
            best_cost=best_cost,
        )

    def pgain(self, peer_id: PeerId) -> float:
        """``pgain`` of the peer's best response (0 when staying is optimal)."""
        return self.best_response(peer_id).gain

    # -- vectorised evaluation ----------------------------------------------------

    def prospective_cost_table(
        self,
    ) -> Tuple[List[PeerId], List[ClusterId], "np.ndarray"]:
        """Prospective ``pcost`` of every peer against every candidate cluster, vectorised.

        Requires the cost model to have a :class:`WeightedRecallMatrix`
        attached.  Returns ``(peer_order, cluster_order, costs)`` where
        ``costs[i, k]`` is the individual cost peer ``i`` would incur with the
        single-cluster strategy ``cluster_order[k]`` (clusters the peer does
        not currently belong to are evaluated "as if joined": size + 1).

        The table is exactly what :meth:`prospective_cost` computes per pair;
        the equivalence is asserted by the test suite.  When a kernel is
        active the table comes from its incrementally maintained caches,
        otherwise everything is rebuilt from the matrix (the reference path).
        """
        matrix = self.cost_model.matrix
        if matrix is None:
            raise ValueError("prospective_cost_table requires an attached WeightedRecallMatrix")
        peer_order = matrix.peer_order
        candidate_order, _ = self._candidate_set(peer_order)
        kernel = self._active_kernel()
        if kernel is not None:
            return peer_order, list(candidate_order), kernel.cost_table(candidate_order)
        membership, cluster_order = self.configuration.membership_matrix(
            peer_order, candidate_order
        )
        losses = matrix.loss_matrix_for_clusters(membership)
        sizes = membership.sum(axis=0)
        # Effective cluster size seen by each peer: +1 when it would join.
        effective_sizes = sizes[None, :] + (1.0 - membership)
        max_size = int(effective_sizes.max()) if effective_sizes.size else 0
        theta_table = np.array(
            [self.cost_model.theta(size) for size in range(max_size + 1)], dtype=float
        )
        membership_costs = (
            self.cost_model.alpha
            * theta_table[effective_sizes.astype(int)]
            / self.cost_model.population_size
        )
        return peer_order, cluster_order, membership_costs + losses

    def _active_kernel(self):
        """The kernel when it is usable for *this* game's configuration."""
        kernel = self.kernel
        if kernel is not None and kernel.configuration is not self.configuration:
            return None
        return kernel

    def _candidate_set(self, peer_order) -> Tuple[List[ClusterId], bool]:
        """``(candidates without NEW_CLUSTER, whether a fresh cluster is in play)``.

        The single source of the batch paths' candidate semantics — the
        vectorized table covers the existing clusters, the fresh-cluster
        option is handled as a separate column when creation is allowed and
        an empty slot exists.
        """
        candidates = [
            cluster_id
            for cluster_id in self.candidate_clusters(peer_order[0] if peer_order else None)
            if cluster_id != NEW_CLUSTER
        ]
        include_new = self.allow_new_clusters and bool(self.configuration.empty_clusters())
        return candidates, include_new

    def best_responses(self, *, tolerance: float = 1e-12) -> Dict[PeerId, BestResponse]:
        """Best response of every peer, using the kernel / vectorised table when available."""
        if self.cost_model.matrix is None:
            return {
                peer_id: self.best_response(peer_id)
                for peer_id in self.configuration.peer_ids()
            }
        kernel = self._active_kernel()
        if kernel is not None:
            candidates, include_new = self._candidate_set(kernel.peer_order)
            kernel_responses, fallback_peers = kernel.best_response_all(
                candidate_clusters=candidates,
                include_new_cluster=include_new,
                tolerance=tolerance,
            )
            responses = dict(kernel_responses)
            for peer_id in fallback_peers:
                responses[peer_id] = self.best_response(peer_id)
            return responses
        peer_order, cluster_order, costs = self.prospective_cost_table()
        include_new = self.allow_new_clusters and bool(self.configuration.empty_clusters())
        responses: Dict[PeerId, BestResponse] = {}
        cluster_index = {cluster_id: column for column, cluster_id in enumerate(cluster_order)}
        for row, peer_id in enumerate(peer_order):
            if peer_id not in self.configuration:
                continue
            current_cluster = self.configuration.cluster_of(peer_id)
            current_column = cluster_index.get(current_cluster)
            if current_column is None:
                # The peer's cluster is outside the candidate set (possible
                # when an explicit candidate list is used); fall back.
                responses[peer_id] = self.best_response(peer_id)
                continue
            current_cost = float(costs[row, current_column])
            best_column = int(np.argmin(costs[row]))
            best_cost = float(costs[row, best_column])
            best_cluster = cluster_order[best_column]
            if include_new:
                new_cost = self.cost_model.prospective_pcost(
                    peer_id, NEW_CLUSTER, self.configuration
                )
                if new_cost < best_cost - tolerance:
                    best_cost = new_cost
                    best_cluster = NEW_CLUSTER
            if best_cost >= current_cost - tolerance:
                best_cluster = current_cluster
                best_cost = current_cost
            responses[peer_id] = BestResponse(
                peer_id=peer_id,
                current_cluster=current_cluster,
                best_cluster=best_cluster,
                current_cost=current_cost,
                best_cost=best_cost,
            )
        return responses

    # -- global analysis ---------------------------------------------------------------

    def is_nash_equilibrium(self, *, tolerance: float = 1e-9) -> bool:
        """``True`` when no peer can reduce its cost by more than *tolerance* by deviating."""
        return self.best_deviation(tolerance=tolerance) is None

    def deviating_peers(self, *, tolerance: float = 1e-9) -> List[BestResponse]:
        """Best responses of every peer that strictly gains by deviating."""
        responses = self.best_responses()
        deviations = []
        for peer_id in self.configuration.peer_ids():
            response = responses.get(peer_id) or self.best_response(peer_id)
            if response.gain > tolerance:
                deviations.append(response)
        return deviations

    def best_deviation(self, *, tolerance: float = 1e-9) -> Optional[BestResponse]:
        """The most profitable deviation, or ``None`` at a (tolerance-)equilibrium.

        Ties in gain break towards the largest ``repr(peer_id)`` — the same
        rule as ``max(deviating_peers(), key=lambda r: (r.gain, repr(r.peer_id)))``,
        which this replaces on the best-response-dynamics hot path.  With a
        kernel only the winning response is materialised.
        """
        kernel = self._active_kernel()
        if kernel is not None:
            candidates, include_new = self._candidate_set(kernel.peer_order)
            best, fallback_peers = kernel.best_deviation(
                candidate_clusters=candidates,
                include_new_cluster=include_new,
                gain_tolerance=tolerance,
            )
            for peer_id in fallback_peers:
                response = self.best_response(peer_id)
                if response.gain <= tolerance:
                    continue
                if best is None or (response.gain, repr(response.peer_id)) > (
                    best.gain,
                    repr(best.peer_id),
                ):
                    best = response
            return best
        deviations = self.deviating_peers(tolerance=tolerance)
        if not deviations:
            return None
        return max(deviations, key=lambda response: (response.gain, repr(response.peer_id)))

    def social_cost(self, *, normalized: bool = False) -> float:
        """Social cost of the current configuration."""
        return self.cost_model.social_cost(self.configuration, normalized=normalized)

    def workload_cost(self, *, normalized: bool = False) -> float:
        """Workload cost of the current configuration."""
        return self.cost_model.workload_cost(self.configuration, normalized=normalized)

    def __repr__(self) -> str:
        return f"ClusterGame(peers={len(self.configuration.peer_ids())}, {self.configuration!r})"
