"""Vectorized, incrementally-maintained best-response kernel.

The per-round hot loop of every experiment is "score all candidate clusters
for all peers".  The :class:`~repro.game.model.ClusterGame` reference path
rebuilds the membership matrix and the ``W @ M`` covered-recall product from
scratch on every call; at experiment scale that means re-doing a full GEMM
plus a Python per-peer loop hundreds of times per run even though each round
only moves a handful of peers.

:class:`BestResponseKernel` keeps the pieces of that computation as *live*
state tied to one :class:`~repro.peers.configuration.ClusterConfiguration`,
in one of two backends:

* ``backend="dense"`` — the historical representation: ``M`` (the 0/1
  peers x cluster-slots membership matrix), ``sizes`` and ``CW = W @ M``
  over the dense :class:`~repro.core.recall_matrix.WeightedRecallMatrix`
  (the globally weighted analogue ``CV = V @ M`` builds lazily).  O(|P| x
  |C|) memory — exact, simple, and the right choice up to a few thousand
  peers.
* ``backend="labels"`` — clusters partition peers, so membership collapses
  to an integer *label vector* (one cluster column per peer; the rare
  multi-membership peers spill into a tiny overflow map) and ``CW``/``CV``
  shrink to per-cluster covered columns computed as **segmented reductions**
  over the :class:`~repro.core.recall_matrix.FactoredRecall` arrays: a
  cluster's member columns collapse to a per-query group recall
  (O(|Q_u| x |members|)), then one O(|P| x kmax) gather redistributes it.
  A peer move updates two columns in O(|P|) and **no |P| x |C| matrix
  exists anywhere** — this is what makes best-response rounds at 10k-100k
  peers fit on one box.

``backend="auto"`` (the default) picks ``dense`` below
:data:`~BestResponseKernel.AUTO_LABELS_THRESHOLD` peers and ``labels`` at or
above it.  ``dtype="float32"`` halves the array memory of either backend;
costs are then accurate to roughly 1e-3 relative (vs. the 1e-9 float64
parity the test suite pins), which is plenty for best-response *decisions*
but not for tight cost assertions — see the README's tolerance contract.

The kernel registers itself as a configuration listener, so every
``assign`` / ``move`` / ``remove_peer`` updates the caches in ``O(|P|)``
(one column add/subtract) instead of triggering a full rebuild.
:meth:`best_response_all` then scores *all* candidates for *all* peers with
pure array arithmetic — including the :data:`~repro.core.costs.NEW_CLUSTER`
option — reproducing the reference per-candidate evaluation exactly (the
test suite pins both backends to the exact per-query
:class:`~repro.core.costs.CostModel`).

The kernel is used automatically by :meth:`ClusterGame.best_responses
<repro.game.model.ClusterGame.best_responses>` whenever a recall matrix is
attached; pass ``use_kernel=False`` to the game to force the reference path
(the ablation benchmark does exactly that).
"""

from __future__ import annotations

from collections.abc import Hashable, Iterator, Mapping, Sequence
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.costs import NEW_CLUSTER, CostModel
from repro.errors import ConfigurationError
from repro.game.model import BestResponse
from repro.peers.configuration import ClusterConfiguration

__all__ = ["BestResponseKernel", "BestResponseSet"]

PeerId = Hashable
ClusterId = Hashable

#: Kernel backends accepted by :class:`BestResponseKernel`.
_BACKENDS = ("dense", "labels")


def repr_rank(items: Sequence[Hashable]) -> np.ndarray:
    """Position of every item in ``sorted(items, key=repr)``."""
    order = sorted(range(len(items)), key=lambda position: repr(items[position]))
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order), dtype=np.int64)
    return rank


class BestResponseKernel:
    """Live vectorized cost state over one configuration and cost model.

    Parameters
    ----------
    cost_model:
        Cost model with an attached :class:`WeightedRecallMatrix` (required —
        the kernel *is* the matrix acceleration).
    configuration:
        The configuration whose membership the kernel mirrors.  The kernel
        subscribes to its mutation events; it stays consistent for as long as
        the underlying recall matrix describes the network (content changes
        require a fresh cost model and hence a fresh kernel, exactly like the
        matrix itself).
    backend:
        ``"dense"``, ``"labels"`` or ``"auto"`` (default: dense below
        :data:`AUTO_LABELS_THRESHOLD` peers, labels at or above).
    dtype:
        ``"float64"`` (default) or ``"float32"``.  float32 halves memory and
        relaxes cost accuracy to ~1e-3 relative.
    """

    #: Population at or above which ``backend="auto"`` switches to labels.
    AUTO_LABELS_THRESHOLD = 2048

    def __init__(
        self,
        cost_model: CostModel,
        configuration: ClusterConfiguration,
        *,
        backend: str = "auto",
        dtype: Optional[object] = None,
    ) -> None:
        matrix = cost_model.matrix
        if matrix is None:
            raise ConfigurationError(
                "BestResponseKernel requires a cost model with an attached WeightedRecallMatrix"
            )
        resolved_dtype = np.dtype(dtype) if dtype is not None else np.dtype(np.float64)
        if resolved_dtype not in (np.dtype(np.float64), np.dtype(np.float32)):
            raise ConfigurationError(
                f"kernel dtype must be float64 or float32, got {dtype!r}"
            )
        if backend == "auto":
            backend = (
                "labels"
                if len(matrix.peer_order) >= self.AUTO_LABELS_THRESHOLD
                else "dense"
            )
        if backend not in _BACKENDS:
            raise ConfigurationError(
                f"kernel backend must be 'dense', 'labels' or 'auto', got {backend!r}"
            )
        self.backend = backend
        self.dtype = resolved_dtype
        self.cost_model = cost_model
        self.configuration = configuration
        self._recall_matrix = matrix
        self._peer_order: List[PeerId] = matrix.peer_order
        # Shared with the matrix (built exactly once per matrix, not per kernel).
        self._peer_index: Dict[PeerId, int] = matrix.peer_index
        self._peer_rank: Optional[np.ndarray] = None
        if backend == "labels":
            self._source = matrix.factored(resolved_dtype)
            self._W: Optional[np.ndarray] = None
            self._totals = self._source.totals_local()
            self._own = self._source.own_local()
        else:
            self._source = None
            weights = matrix.local_view()
            if resolved_dtype != np.float64:
                weights = weights.astype(resolved_dtype)
            self._W = weights
            self._totals = self._W.sum(axis=1)
            self._own = np.ascontiguousarray(np.diag(self._W))
        self._theta_table = np.zeros(0, dtype=float)
        #: Set when the configuration gained a peer unknown to the recall
        #: matrix; the kernel can no longer answer for it and callers should
        #: fall back to the reference path.
        self.stale = False
        self._rebuild()
        configuration.add_listener(self)

    # -- state construction --------------------------------------------------

    def _rebuild(self) -> None:
        """(Re)build every cache from the configuration.

        Dense: O(|P|^2 |C|) (the ``W @ M`` product).  Labels: O(|P|) — the
        covered columns materialise lazily per candidate cluster.
        """
        self._cluster_order: List[ClusterId] = list(self.configuration.cluster_ids())
        self._cluster_index: Dict[ClusterId, int] = {
            cluster_id: column for column, cluster_id in enumerate(self._cluster_order)
        }
        if self.backend == "labels":
            self._rebuild_labels()
            return
        membership, _ = self.configuration.membership_matrix(
            self._peer_order, self._cluster_order
        )
        if self.dtype != np.float64:
            membership = membership.astype(self.dtype)
        self._M = membership
        self._sizes = membership.sum(axis=0, dtype=float)
        self._CW = self._W @ membership
        # The globally-weighted analogue (V @ M, backing the vectorized
        # workload cost) is built on first access and maintained thereafter.
        self._V: Optional[np.ndarray] = None
        self._CV: Optional[np.ndarray] = None
        self._V_totals: Optional[np.ndarray] = None

    def _rebuild_labels(self) -> None:
        population = len(self._peer_order)
        #: Each tracked peer's cluster column: -1 unassigned, -2 when the
        #: peer joined several clusters (the actual set lives in _overflow).
        self._labels = np.full(population, -1, dtype=np.int64)
        self._counts = np.zeros(population, dtype=np.int64)
        self._overflow: Dict[int, Set[int]] = {}
        self._sizes = np.zeros(len(self._cluster_order), dtype=float)
        #: Lazily-materialised covered columns: column -> (|P|,) array.  A
        #: column is computed as a segmented reduction on first touch and
        #: incrementally +/- updated from then on.
        self._cw: Dict[int, np.ndarray] = {}
        self._cv: Dict[int, np.ndarray] = {}
        self._cv_active = False
        self._V_totals = None
        for cluster_id in self.configuration.nonempty_clusters():
            column = self._cluster_index[cluster_id]
            for peer_id in self.configuration.members(cluster_id):
                row = self._peer_index.get(peer_id)
                if row is None:
                    continue
                self._sizes[column] += 1.0
                self._assign_label(row, column)

    def rebuild(self) -> None:
        """Public full rebuild (used by tests to cross-check the incremental state).

        The stale flag is recomputed, not blindly cleared: a configuration
        still holding peers the recall matrix does not know stays stale.
        """
        self._rebuild()
        self.stale = self._has_untracked_peers()

    def _has_untracked_peers(self) -> bool:
        """Whether the configuration holds assigned peers outside the matrix."""
        if self.backend == "labels":
            tracked_assigned = int(np.count_nonzero(self._counts))
        else:
            tracked_assigned = int(np.count_nonzero(self._M.sum(axis=1)))
        return self.configuration.num_peers() != tracked_assigned

    def _untracked_peers(self) -> List[PeerId]:
        """Assigned peers the recall matrix (and hence the kernel) cannot score."""
        if not self._has_untracked_peers():
            return []
        return [
            peer_id
            for peer_id in self.configuration.peer_ids()
            if peer_id not in self._peer_index
        ]

    # -- label-vector bookkeeping ---------------------------------------------

    def _assign_label(self, row: int, column: int) -> None:
        count = int(self._counts[row])
        if count == 0:
            self._labels[row] = column
        elif count == 1:
            self._overflow[row] = {int(self._labels[row]), column}
            self._labels[row] = -2
        else:
            self._overflow[row].add(column)
        self._counts[row] = count + 1

    def _unassign_label(self, row: int, column: int) -> None:
        self._counts[row] -= 1
        member_columns = self._overflow.get(row)
        if member_columns is not None:
            member_columns.discard(column)
            if len(member_columns) == 1:
                self._labels[row] = member_columns.pop()
                del self._overflow[row]
        else:
            self._labels[row] = -1

    def _member_rows(self, column: int) -> np.ndarray:
        rows = np.nonzero(self._labels == column)[0]
        if self._overflow:
            extra = [row for row, columns in self._overflow.items() if column in columns]
            if extra:
                rows = np.unique(
                    np.concatenate([rows, np.asarray(extra, dtype=np.intp)])
                )
        return rows

    def _cw_column(self, column: int) -> np.ndarray:
        covered = self._cw.get(column)
        if covered is None:
            covered = self._source.covered_local(self._member_rows(column))
            self._cw[column] = covered
        return covered

    def _cv_column(self, column: int) -> np.ndarray:
        covered = self._cv.get(column)
        if covered is None:
            covered = self._source.covered_global(self._member_rows(column))
            self._cv[column] = covered
        return covered

    def _ensure_global_tracking(self) -> None:
        if not self._cv_active:
            self._V_totals = self._source.totals_global()
            self._cv_active = True

    # -- backend-dispatched state reads ---------------------------------------

    def _membership_block(self, columns: Sequence[int]) -> np.ndarray:
        """0/1 membership of every peer against the given cluster columns."""
        if self.backend != "labels":
            return self._M[:, columns]
        cols = np.asarray(columns, dtype=np.int64)
        block = (self._labels[:, None] == cols[None, :]).astype(float)
        if self._overflow:
            position = {int(column): k for k, column in enumerate(cols)}
            for row, member_columns in self._overflow.items():
                for column in member_columns:
                    k = position.get(column)
                    if k is not None:
                        block[row, k] = 1.0
        return block

    def _covered_block(self, columns: Sequence[int]) -> np.ndarray:
        """``CW`` restricted to the given cluster columns."""
        if self.backend != "labels":
            return self._CW[:, columns]
        population = len(self._peer_order)
        if not len(columns):
            return np.zeros((population, 0), dtype=self.dtype)
        return np.stack([self._cw_column(int(column)) for column in columns], axis=1)

    def _counts_all(self) -> np.ndarray:
        """Per-peer cluster-membership counts (over every cluster slot)."""
        if self.backend == "labels":
            return self._counts.astype(float)
        return self._M.sum(axis=1)

    def _covered_at(self, columns: np.ndarray) -> np.ndarray:
        """Per-peer covered recall from its *own* column: ``CW[i, columns[i]]``."""
        if self.backend != "labels":
            return self._CW[np.arange(columns.size), columns]
        out = np.empty(columns.size, dtype=float)
        for column in np.unique(columns):
            rows = np.nonzero(columns == column)[0]
            out[rows] = self._cw_column(int(column))[rows]
        return out

    def _global_covered_at(self, columns: np.ndarray) -> np.ndarray:
        """Per-peer globally-weighted covered recall: ``CV[i, columns[i]]``."""
        if self.backend != "labels":
            covered = self.global_covered()
            return covered[np.arange(columns.size), columns]
        self._ensure_global_tracking()
        out = np.empty(columns.size, dtype=float)
        for column in np.unique(columns):
            rows = np.nonzero(columns == column)[0]
            out[rows] = self._cv_column(int(column))[rows]
        return out

    # -- configuration listener callbacks ------------------------------------

    def configuration_assigned(self, peer_id: PeerId, cluster_id: ClusterId) -> None:
        row = self._peer_index.get(peer_id)
        if row is None:
            self.stale = True
            return
        column = self._cluster_index.get(cluster_id)
        if column is None:
            column = self._add_cluster_column(cluster_id)
        if self.backend == "labels":
            self._sizes[column] += 1.0
            self._assign_label(row, column)
            covered = self._cw.get(column)
            if covered is not None:
                covered += self._source.column_local(row)
            if self._cv_active:
                covered_global = self._cv.get(column)
                if covered_global is not None:
                    covered_global += self._source.column_global(row)
            return
        self._M[row, column] = 1.0
        self._sizes[column] += 1.0
        self._CW[:, column] += self._W[:, row]
        if self._CV is not None:
            self._CV[:, column] += self._V[:, row]

    def configuration_unassigned(self, peer_id: PeerId, cluster_id: ClusterId) -> None:
        row = self._peer_index.get(peer_id)
        if row is None:
            return  # never tracked; nothing to undo
        column = self._cluster_index.get(cluster_id)
        if column is None:
            self.stale = True
            return
        if self.backend == "labels":
            self._sizes[column] -= 1.0
            self._unassign_label(row, column)
            covered = self._cw.get(column)
            if covered is not None:
                covered -= self._source.column_local(row)
            if self._cv_active:
                covered_global = self._cv.get(column)
                if covered_global is not None:
                    covered_global -= self._source.column_global(row)
            return
        self._M[row, column] = 0.0
        self._sizes[column] -= 1.0
        self._CW[:, column] -= self._W[:, row]
        if self._CV is not None:
            self._CV[:, column] -= self._V[:, row]

    def configuration_cluster_added(self, cluster_id: ClusterId) -> None:
        if cluster_id not in self._cluster_index:
            self._add_cluster_column(cluster_id)

    def _add_cluster_column(self, cluster_id: ClusterId) -> int:
        column = len(self._cluster_order)
        self._cluster_order.append(cluster_id)
        self._cluster_index[cluster_id] = column
        self._sizes = np.append(self._sizes, 0.0)
        if self.backend == "labels":
            return column
        population = len(self._peer_order)
        self._M = np.hstack([self._M, np.zeros((population, 1), dtype=self._M.dtype)])
        self._CW = np.hstack([self._CW, np.zeros((population, 1), dtype=self._CW.dtype)])
        if self._CV is not None:
            self._CV = np.hstack(
                [self._CV, np.zeros((population, 1), dtype=self._CV.dtype)]
            )
        return column

    # -- accessors ------------------------------------------------------------

    @property
    def peer_order(self) -> List[PeerId]:
        """The row ordering of peer ids (the recall matrix's order)."""
        return list(self._peer_order)

    @property
    def peer_rank(self) -> np.ndarray:
        """Every row's position in the ``repr`` order of the peer ids.

        Computed once per kernel (the row order never changes); the
        protocol's gather phase elects representatives and breaks gain ties
        with it.
        """
        if self._peer_rank is None:
            self._peer_rank = repr_rank(self._peer_order)
        return self._peer_rank

    def global_covered(self) -> np.ndarray:
        """``V @ M`` — globally-weighted covered recall per cluster column.

        Built lazily on first access (the best-response path never needs it)
        and incrementally maintained from then on; the raw material of
        :meth:`workload_cost`.  Under the labels backend the full matrix only
        materialises for this dense-shaped accessor — the workload-cost path
        itself reads per-cluster columns.
        """
        if self.backend == "labels":
            self._ensure_global_tracking()
            population = len(self._peer_order)
            out = np.zeros((population, len(self._cluster_order)))
            for column in range(len(self._cluster_order)):
                if column in self._cv or self._sizes[column] > 0:
                    out[:, column] = self._cv_column(column)
            return out
        if self._CV is None:
            weights = self._recall_matrix.global_view()
            if self.dtype != np.float64:
                weights = weights.astype(self.dtype)
            self._V = weights
            self._CV = self._V @ self._M
            self._V_totals = self._V.sum(axis=1)
        return self._CV

    def membership_columns(
        self, cluster_order: Sequence[ClusterId]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(membership, sizes)`` restricted to *cluster_order* columns.

        The membership block is a copy (callers may scale it freely); the
        sizes are the live cluster sizes gathered in the same order.
        """
        columns = [self._cluster_index[cluster_id] for cluster_id in cluster_order]
        if self.backend == "labels":
            return self._membership_block(columns), self._sizes[columns].copy()
        return self._M[:, columns].copy(), self._sizes[columns].copy()

    def _theta_values(self, max_size: int) -> np.ndarray:
        if max_size >= self._theta_table.size:
            theta = self.cost_model.theta
            self._theta_table = np.array(
                [theta(size) for size in range(max_size + 1)], dtype=float
            )
        return self._theta_table

    # -- vectorized cost evaluation -------------------------------------------

    def _cost_table_for(
        self, membership: np.ndarray, covered: np.ndarray, columns: Sequence[int]
    ) -> np.ndarray:
        own = self._own[:, None]
        own_counted = membership * own
        covered_adjusted = covered - own_counted + own
        losses = self._totals[:, None] - covered_adjusted
        effective_sizes = self._sizes[columns][None, :] + (1.0 - membership)
        max_size = int(effective_sizes.max()) if effective_sizes.size else 0
        theta_table = self._theta_values(max_size)
        membership_costs = (
            self.cost_model.alpha
            * theta_table[effective_sizes.astype(int)]
            / self.cost_model.population_size
        )
        return membership_costs + losses

    def cost_table(self, candidate_clusters: Sequence[ClusterId]) -> np.ndarray:
        """Prospective ``pcost`` of every peer against every candidate cluster.

        ``table[i, k]`` is the individual cost peer ``i`` would incur with the
        single-cluster strategy ``candidate_clusters[k]`` — clusters the peer
        does not belong to are evaluated "as if joined" (size + 1, its own
        content always reachable), exactly like
        :meth:`CostModel.prospective_pcost`.
        """
        columns = [self._cluster_index[cluster_id] for cluster_id in candidate_clusters]
        return self._cost_table_for(
            self._membership_block(columns), self._covered_block(columns), columns
        )

    def new_cluster_costs(self) -> np.ndarray:
        """Cost of moving to a fresh, empty cluster, for every peer."""
        theta_one = float(self._theta_values(1)[1])
        membership = self.cost_model.alpha * theta_one / self.cost_model.population_size
        return membership + (self._totals - self._own)

    def _single_cluster_columns(self) -> Optional[np.ndarray]:
        """Column of each peer's single cluster, or ``None`` if any peer deviates.

        ``None`` means some tracked peer belongs to zero or several clusters
        (multi-membership is legal in the model but outside the vector fast
        path) — callers fall back to the per-peer reference evaluation.
        """
        if self.backend == "labels":
            if self._counts.size == 0:
                return None
            if self._overflow or not bool(np.all(self._counts == 1)):
                return None
            return self._labels
        counts = self._M.sum(axis=1)
        if counts.size == 0 or not np.all(counts == 1.0):
            return None
        return np.argmax(self._M, axis=1)

    def _current_cost_vector(self, columns: np.ndarray) -> np.ndarray:
        sizes = self._sizes[columns]
        theta_table = self._theta_values(int(sizes.max()) if sizes.size else 0)
        membership = (
            self.cost_model.alpha
            * theta_table[sizes.astype(int)]
            / self.cost_model.population_size
        )
        losses = self._totals - self._covered_at(columns)
        return membership + losses

    def current_costs(self) -> Dict[PeerId, float]:
        """``pcost`` of every assigned peer under its current strategy."""
        configuration = self.configuration
        columns = self._single_cluster_columns()
        if columns is not None and not self._has_untracked_peers():
            values = self._current_cost_vector(columns)
            return {
                peer_id: float(value)
                for peer_id, value in zip(self._peer_order, values)
            }
        return {
            peer_id: self.cost_model.pcost(peer_id, configuration)
            for peer_id in configuration.peer_ids()
        }

    def social_cost(self, *, normalized: bool = False) -> float:
        """Social cost (Eq. 2) of the current configuration, fully vectorized.

        Falls back to the cost model's per-peer evaluation whenever a tracked
        peer is not in the single-cluster regime, so the result always agrees
        with :meth:`CostModel.social_cost` (up to float summation order).
        """
        columns = self._single_cluster_columns()
        if columns is None or self._has_untracked_peers():
            return self.cost_model.social_cost(self.configuration, normalized=normalized)
        total = float(self._current_cost_vector(columns).sum())
        if normalized:
            return total / self.cost_model.population_size
        return total

    def workload_cost(self, *, normalized: bool = False) -> float:
        """Workload cost (Eq. 3) of the current configuration, fully vectorized.

        The maintenance term is ``alpha * sum |c| * theta(|c|) / |P|`` over the
        live cluster-size vector; the recall term reads the lazily-built,
        incrementally-maintained covered-recall state (``CV = V @ M`` columns
        under the dense backend, per-cluster segmented reductions under the
        labels backend), replacing the per-peer Python loop of
        :meth:`CostModel.workload_cost` on the per-round trace path.  Falls
        back to the cost model whenever a tracked peer is outside the
        single-cluster regime, so the result always agrees with the reference
        (up to float summation order).
        """
        columns = self._single_cluster_columns()
        if columns is None or self._has_untracked_peers():
            return self.cost_model.workload_cost(self.configuration, normalized=normalized)
        sizes = self._sizes
        theta_table = self._theta_values(int(sizes.max()) if sizes.size else 0)
        maintenance = (
            self.cost_model.alpha
            * float((sizes * theta_table[sizes.astype(int)]).sum())
            / self.cost_model.population_size
        )
        if self.backend == "labels":
            self._ensure_global_tracking()
            loss = float((self._V_totals - self._global_covered_at(columns)).sum())
        else:
            covered = self.global_covered()
            rows = np.arange(columns.size)
            loss = float((self._V_totals - covered[rows, columns]).sum())
        if normalized:
            return maintenance / self.cost_model.population_size + loss
        return maintenance + loss

    # -- best responses --------------------------------------------------------

    class _Selection:
        """Arrays of one vectorized best-response evaluation (internal)."""

        __slots__ = (
            "candidates",
            "eligible",
            "fallback_rows",
            "current_columns",
            "current_costs",
            "best_columns",
            "best_costs",
            "use_new",
            "stay",
            "gains",
        )

    def _select(
        self,
        candidates: Sequence[ClusterId],
        *,
        include_new_cluster: bool,
        tolerance: float,
    ) -> "BestResponseKernel._Selection":
        """Vectorized best-response selection over every tracked peer.

        Mirrors the reference semantics bit for bit: global argmin over the
        candidate columns, a strictly-better-by-*tolerance* test for the
        fresh-cluster option, and "stay unless strictly better than the
        current cost".  Rows outside the single-cluster regime (or whose
        cluster is not a candidate) land in ``fallback_rows``.
        """
        columns = [self._cluster_index[cluster_id] for cluster_id in candidates]
        membership = self._membership_block(columns)
        costs = self._cost_table_for(membership, self._covered_block(columns), columns)
        counts_all = self._counts_all()
        assigned = counts_all > 0.0
        eligible = assigned & (counts_all == 1.0) & (membership.sum(axis=1) == 1.0)
        rows = np.arange(len(self._peer_order))
        current_columns = np.argmax(membership, axis=1)
        current_costs = costs[rows, current_columns]
        best_columns = np.argmin(costs, axis=1)
        best_costs = costs[rows, best_columns]
        if include_new_cluster:
            new_costs = self.new_cluster_costs()
            use_new = new_costs < best_costs - tolerance
            best_costs = np.where(use_new, new_costs, best_costs)
        else:
            use_new = np.zeros(rows.size, dtype=bool)
        stay = best_costs >= current_costs - tolerance
        selection = BestResponseKernel._Selection()
        selection.candidates = list(candidates)
        selection.eligible = eligible
        selection.fallback_rows = np.nonzero(assigned & ~eligible)[0]
        selection.current_columns = current_columns
        selection.current_costs = current_costs
        selection.best_columns = best_columns
        selection.best_costs = best_costs
        selection.use_new = use_new
        selection.stay = stay
        selection.gains = np.where(
            eligible & ~stay, current_costs - best_costs, 0.0
        )
        return selection

    def best_response_all(
        self,
        *,
        candidate_clusters: Optional[Sequence[ClusterId]] = None,
        include_new_cluster: bool = False,
        tolerance: float = 1e-12,
    ) -> Tuple["BestResponseSet", List[PeerId]]:
        """Best response of every peer against the candidate set.

        Returns ``(responses, fallback_peers)``.  *responses* is a
        :class:`BestResponseSet`: a ``peer -> BestResponse`` mapping that
        keeps the evaluation's arrays and builds response objects only when
        read.  *fallback_peers* lists peers the kernel cannot score (their
        current cluster lies outside the candidate set, or they joined
        several clusters) — the caller decides how to evaluate those (the
        game falls back to the scalar path, matching the reference
        implementation's behaviour exactly).
        """
        configuration = self.configuration
        candidates: List[ClusterId] = (
            list(candidate_clusters)
            if candidate_clusters is not None
            else configuration.nonempty_clusters()
        )
        candidates = [cluster_id for cluster_id in candidates if cluster_id != NEW_CLUSTER]
        if not candidates:
            return BestResponseSet(self, None), configuration.peer_ids()
        selection = self._select(
            candidates, include_new_cluster=include_new_cluster, tolerance=tolerance
        )
        peer_order = self._peer_order
        fallback = [peer_order[row] for row in selection.fallback_rows]
        # Assigned peers outside the recall matrix cannot be scored here;
        # they belong to the caller's fallback path (where the reference
        # implementation's behaviour — including its errors — applies).
        fallback.extend(self._untracked_peers())
        return BestResponseSet(self, selection), fallback

    def best_deviation(
        self,
        *,
        candidate_clusters: Optional[Sequence[ClusterId]] = None,
        include_new_cluster: bool = False,
        gain_tolerance: float = 1e-9,
        tolerance: float = 1e-12,
    ) -> Tuple[Optional[BestResponse], List[PeerId]]:
        """The single best deviation — ``max`` over ``(gain, repr(peer))``.

        This is the step rule of best-response dynamics; only the winning
        peer's :class:`BestResponse` is materialised, everything else stays
        in arrays.  Returns ``(winner_or_None, fallback_peers)`` — fallback
        peers (outside the single-cluster regime) must be evaluated by the
        caller and compared against the winner.
        """
        configuration = self.configuration
        candidates: List[ClusterId] = (
            list(candidate_clusters)
            if candidate_clusters is not None
            else configuration.nonempty_clusters()
        )
        candidates = [cluster_id for cluster_id in candidates if cluster_id != NEW_CLUSTER]
        if not candidates:
            return None, list(configuration.peer_ids())
        selection = self._select(
            candidates, include_new_cluster=include_new_cluster, tolerance=tolerance
        )
        fallback = [self._peer_order[row] for row in selection.fallback_rows]
        fallback.extend(self._untracked_peers())
        gains = selection.gains
        deviating = np.nonzero(gains > gain_tolerance)[0]
        if deviating.size == 0:
            return None, fallback
        best_gain = gains[deviating].max()
        tied_rows = deviating[gains[deviating] == best_gain]
        # max() over (gain, repr(peer_id)) breaks gain ties by largest repr.
        winner_row = max(tied_rows, key=lambda row: repr(self._peer_order[row]))
        return BestResponseSet(self, selection).response(int(winner_row)), fallback

    def detach(self) -> None:
        """Stop listening to the configuration (the kernel becomes read-only)."""
        self.configuration.remove_listener(self)

    def __repr__(self) -> str:
        return (
            f"BestResponseKernel(peers={len(self._peer_order)}, "
            f"clusters={len(self._cluster_order)}, backend={self.backend}, "
            f"dtype={self.dtype}, stale={self.stale})"
        )


class BestResponseSet(Mapping):
    """Best responses of one kernel evaluation, kept as arrays.

    A read-only ``peer -> BestResponse`` mapping over the rows the
    evaluation answered, in the kernel's peer order.  A
    :class:`~repro.game.model.BestResponse` is built only when an entry is
    read; the selfish strategy's proposal batch reads :attr:`selection`
    directly.
    """

    def __init__(
        self,
        kernel: BestResponseKernel,
        selection: Optional["BestResponseKernel._Selection"],
    ) -> None:
        self.kernel = kernel
        #: The evaluation's arrays (``None`` when there were no candidates).
        self.selection = selection
        #: Rows with a response in this set: the single-cluster peers.
        self.answered = (
            selection.eligible
            if selection is not None
            else np.zeros(len(kernel._peer_order), dtype=bool)
        )

    def response(self, row: int) -> BestResponse:
        """The :class:`~repro.game.model.BestResponse` of kernel row *row*."""
        selection = self.selection
        current_cluster = selection.candidates[int(selection.current_columns[row])]
        current_cost = float(selection.current_costs[row])
        if selection.stay[row]:
            best_cluster = current_cluster
            best_cost = current_cost
        elif selection.use_new[row]:
            best_cluster = NEW_CLUSTER
            best_cost = float(selection.best_costs[row])
        else:
            best_cluster = selection.candidates[int(selection.best_columns[row])]
            best_cost = float(selection.best_costs[row])
        return BestResponse(
            peer_id=self.kernel._peer_order[row],
            current_cluster=current_cluster,
            best_cluster=best_cluster,
            current_cost=current_cost,
            best_cost=best_cost,
        )

    def __getitem__(self, peer_id: PeerId) -> BestResponse:
        row = self.kernel._peer_index.get(peer_id)
        if row is None or not self.answered[row]:
            raise KeyError(peer_id)
        return self.response(row)

    def __iter__(self) -> Iterator[PeerId]:
        peer_order = self.kernel._peer_order
        return (peer_order[row] for row in np.flatnonzero(self.answered))

    def __len__(self) -> int:
        return int(np.count_nonzero(self.answered))

    def __repr__(self) -> str:
        return f"BestResponseSet(responses={len(self)})"
