"""The periodic cluster reformulation protocol (Section 3.2).

:class:`ReformulationProtocol` drives rounds until either no peer issues a
relocation request any more (the paper's stop condition), a configuration
repeats (a cycle — the game need not have an equilibrium), or a round budget
is exhausted.  It records the social and workload cost after every round so
that Figure 1 can be regenerated directly from a run.

Two behaviours of the paper are configurable:

* **gain threshold ε** — a peer only issues a request if its gain exceeds ε;
* **cluster creation** — a peer whose cost increased significantly since the
  previous period and that cannot improve by joining any existing cluster may
  move to an empty cluster slot, becoming its representative.  Section 4.2
  keeps the number of clusters fixed, which corresponds to
  ``allow_cluster_creation=False`` together with an explicit candidate set of
  the non-empty clusters.
"""

from __future__ import annotations

from collections.abc import Hashable, Mapping
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.costs import CostModel
from repro.events import (
    RELOCATION_GRANTED,
    ROUND_END,
    EventHooks,
    RelocationGrantedEvent,
    RoundEndEvent,
)
from repro.game.kernel import BestResponseKernel
from repro.game.model import ClusterGame
from repro.overlay.messages import MessageBus
from repro.peers.configuration import ClusterConfiguration
from repro.peers.statistics import PeerStatistics
from repro.protocol.rounds import RoundResult, execute_round
from repro.strategies.base import ProposalBatch, RelocationStrategy, StrategyContext

__all__ = ["ProtocolResult", "ReformulationProtocol"]

PeerId = Hashable
ClusterId = Hashable


@dataclass
class ProtocolResult:
    """Outcome of a full protocol run."""

    converged: bool
    cycle_detected: bool
    rounds: List[RoundResult] = field(default_factory=list)
    social_cost_trace: List[float] = field(default_factory=list)
    workload_cost_trace: List[float] = field(default_factory=list)
    cluster_count_trace: List[int] = field(default_factory=list)
    message_counts: Dict[str, int] = field(default_factory=dict)

    @property
    def num_rounds(self) -> int:
        """Number of rounds in which at least one request was advertised."""
        return sum(1 for round_result in self.rounds if not round_result.quiescent)

    @property
    def total_moves(self) -> int:
        """Total number of granted relocations across all rounds."""
        return sum(round_result.num_granted for round_result in self.rounds)

    @property
    def final_social_cost(self) -> float:
        """Normalised social cost after the last round."""
        return self.social_cost_trace[-1] if self.social_cost_trace else float("nan")

    @property
    def final_workload_cost(self) -> float:
        """Normalised workload cost after the last round."""
        return self.workload_cost_trace[-1] if self.workload_cost_trace else float("nan")

    @property
    def final_cluster_count(self) -> int:
        """Number of non-empty clusters after the last round."""
        return self.cluster_count_trace[-1] if self.cluster_count_trace else 0

    def traces_consistent(self) -> bool:
        """Whether the three per-round traces have equal lengths."""
        return (
            len(self.social_cost_trace)
            == len(self.workload_cost_trace)
            == len(self.cluster_count_trace)
        )

    def equalize_traces(self) -> None:
        """Truncate the cost/cluster traces to a common length.

        The protocol appends to all three traces together, so they are equal
        for every exit path (quiescence, all-blocked, cycle, round budget);
        this guard keeps that invariant even if a subscriber or subclass
        appends to one trace mid-run, so the ``final_*`` properties always
        describe one single configuration.
        """
        length = min(
            len(self.social_cost_trace),
            len(self.workload_cost_trace),
            len(self.cluster_count_trace),
        )
        del self.social_cost_trace[length:]
        del self.workload_cost_trace[length:]
        del self.cluster_count_trace[length:]


class ReformulationProtocol:
    """Round-based, representative-coordinated cluster maintenance."""

    def __init__(
        self,
        cost_model: CostModel,
        configuration: ClusterConfiguration,
        strategy: RelocationStrategy,
        *,
        gain_threshold: float = 0.0,
        allow_cluster_creation: bool = True,
        creation_cost_increase: float = 0.0,
        restrict_to_nonempty: bool = False,
        enforce_locks: bool = True,
        bus: Optional[MessageBus] = None,
        hooks: Optional[EventHooks] = None,
        kernel_backend: Optional[str] = None,
        kernel_dtype: Optional[str] = None,
    ) -> None:
        self.cost_model = cost_model
        self.configuration = configuration
        self.strategy = strategy
        self.gain_threshold = gain_threshold
        self.allow_cluster_creation = allow_cluster_creation
        self.creation_cost_increase = creation_cost_increase
        self.restrict_to_nonempty = restrict_to_nonempty
        self.enforce_locks = enforce_locks
        #: Kernel backend/dtype forwarded to the shared BestResponseKernel
        #: (``None`` -> automatic backend selection by population, float64).
        self.kernel_backend = kernel_backend
        self.kernel_dtype = kernel_dtype
        self.bus = bus if bus is not None else MessageBus()
        #: Event hub publishing ``round_end`` / ``relocation_granted`` events;
        #: subscribe via ``protocol.hooks.on_round_end(...)`` or pass a shared
        #: :class:`~repro.events.EventHooks` in.
        self.hooks = hooks if hooks is not None else EventHooks()
        self._previous_costs: Optional[Dict[PeerId, float]] = None
        self._kernel: Optional[BestResponseKernel] = None

    # -- helpers -----------------------------------------------------------------

    def _ensure_kernel(self) -> Optional[BestResponseKernel]:
        # One incrementally-maintained kernel serves every round's game: the
        # games are throwaway views, the vectorized membership / covered-recall
        # caches persist and follow the configuration's moves in O(|P|).
        if self._kernel is None and self.cost_model.matrix is not None:
            self._kernel = BestResponseKernel(
                self.cost_model,
                self.configuration,
                backend=self.kernel_backend or "auto",
                dtype=self.kernel_dtype,
            )
        return self._kernel

    def _build_game(self) -> ClusterGame:
        self._ensure_kernel()
        candidates = self.configuration.nonempty_clusters() if self.restrict_to_nonempty else None
        return ClusterGame(
            self.cost_model,
            self.configuration,
            allow_new_clusters=self.allow_cluster_creation,
            candidate_clusters=candidates,
            kernel=self._kernel,
        )

    def _snapshot_costs(self, game: ClusterGame) -> Dict[PeerId, float]:
        kernel = game._active_kernel()
        if kernel is not None:
            return kernel.current_costs()
        return {
            peer_id: game.current_cost(peer_id) for peer_id in self.configuration.peer_ids()
        }

    def _filter_new_cluster_proposals(
        self, proposals: ProposalBatch, game: ClusterGame
    ) -> ProposalBatch:
        """Apply the paper's cluster-creation precondition.

        A proposal targeting a fresh cluster is kept only if the peer's cost
        has increased by at least ``creation_cost_increase`` since the end of
        the previous period (always kept when no previous period is known and
        the threshold is zero).  A dropped proposal is withdrawn entirely:
        its peer reports nothing this round.
        """
        fresh = proposals.proposed & proposals.fresh
        if not fresh.any():
            return proposals
        if not self.allow_cluster_creation:
            return proposals.withdraw(fresh)
        if self.creation_cost_increase <= 0.0 or self._previous_costs is None:
            return proposals
        for row in np.flatnonzero(fresh):
            peer_id = proposals.peers[row]
            previous = self._previous_costs.get(peer_id)
            current = game.current_cost(peer_id)
            if previous is None or current - previous >= self.creation_cost_increase:
                fresh[row] = False
        return proposals.withdraw(fresh)

    def _record_costs(self, result: ProtocolResult) -> None:
        # The kernel answers both global costs from its live vectorized state
        # (it falls back to the cost model internally whenever some peer is
        # outside the single-cluster regime or unknown to the recall matrix).
        kernel = self._ensure_kernel()
        if kernel is not None and not kernel.stale:
            social = kernel.social_cost(normalized=True)
            workload = kernel.workload_cost(normalized=True)
        else:
            social = self.cost_model.social_cost(self.configuration, normalized=True)
            workload = self.cost_model.workload_cost(self.configuration, normalized=True)
        result.social_cost_trace.append(social)
        result.workload_cost_trace.append(workload)
        result.cluster_count_trace.append(self.configuration.num_nonempty_clusters())

    def _publish_round(self, round_result: RoundResult, result: ProtocolResult) -> None:
        """Publish the round's relocation and round-end events."""
        for move in round_result.granted:
            self.hooks.emit(
                RELOCATION_GRANTED,
                RelocationGrantedEvent(round_number=round_result.round_number, move=move),
            )
        self.hooks.emit(
            ROUND_END,
            RoundEndEvent(
                round_number=round_result.round_number,
                result=round_result,
                social_cost=result.final_social_cost,
                workload_cost=result.final_workload_cost,
                cluster_count=result.final_cluster_count,
            ),
        )

    # -- main drivers -------------------------------------------------------------

    def run_round(
        self,
        round_number: int,
        *,
        statistics: Optional[Mapping[PeerId, PeerStatistics]] = None,
    ) -> RoundResult:
        """Run a single two-phase round against the current configuration."""
        game = self._build_game()
        context = StrategyContext(
            game=game, statistics=statistics, previous_costs=self._previous_costs
        )
        proposals = ProposalBatch.from_proposals(
            self.strategy.propose_all(self.configuration.peer_ids(), context),
            self.configuration,
        )
        proposals = self._filter_new_cluster_proposals(proposals, game)
        return execute_round(
            self.configuration,
            proposals,
            round_number=round_number,
            gain_threshold=self.gain_threshold,
            bus=self.bus,
            enforce_locks=self.enforce_locks,
        )

    def run(
        self,
        *,
        max_rounds: int = 500,
        statistics: Optional[Mapping[PeerId, PeerStatistics]] = None,
        detect_cycles: bool = True,
    ) -> ProtocolResult:
        """Run rounds until quiescence, a cycle, or the round budget is exhausted."""
        result = ProtocolResult(converged=False, cycle_detected=False)
        self._record_costs(result)
        seen_signatures: Set[Tuple] = set()
        if detect_cycles:
            seen_signatures.add(self.configuration.signature())

        for round_number in range(max_rounds):
            round_result = self.run_round(round_number, statistics=statistics)
            result.rounds.append(round_result)
            if round_result.quiescent:
                result.converged = True
                self._publish_round(round_result, result)
                break
            self._record_costs(result)
            self._publish_round(round_result, result)
            if round_result.num_granted == 0:
                # Requests were issued but none could be served (all blocked);
                # the configuration cannot change any further this way.
                result.converged = True
                break
            if detect_cycles:
                signature = self.configuration.signature()
                if signature in seen_signatures:
                    result.cycle_detected = True
                    break
                seen_signatures.add(signature)

        game = self._build_game()
        self._previous_costs = self._snapshot_costs(game)
        result.message_counts = self.bus.snapshot()
        result.equalize_traces()
        return result

    def remember_current_costs(self) -> None:
        """Snapshot every peer's current cost as the "previous period" baseline.

        Call this before applying workload/content updates so the
        cluster-creation rule can compare against pre-update costs.
        """
        game = self._build_game()
        self._previous_costs = self._snapshot_costs(game)

    def __repr__(self) -> str:
        return (
            f"ReformulationProtocol(strategy={self.strategy!r}, "
            f"threshold={self.gain_threshold}, clusters={self.configuration.num_nonempty_clusters()})"
        )
