"""Random relocation baseline.

A strategy that proposes a move to a uniformly random non-empty cluster for a
fixed fraction of peers each period.  It plugs into the same reformulation
protocol as the paper's strategies, so benchmarks can isolate how much of the
protocol's improvement comes from the recall-driven gain (versus merely
shuffling peers around).
"""

from __future__ import annotations

import random
from collections.abc import Hashable
from typing import Optional

from repro.errors import StrategyError
from repro.registry import register_strategy
from repro.strategies.base import RelocationProposal, RelocationStrategy, StrategyContext

__all__ = ["RandomRelocationStrategy"]

PeerId = Hashable


@register_strategy("random")
class RandomRelocationStrategy(RelocationStrategy):
    """Propose a random move with probability ``move_probability`` per peer per period."""

    name = "random"

    def __init__(self, *, move_probability: float = 0.2, seed: int = 0) -> None:
        if not 0.0 <= move_probability <= 1.0:
            raise StrategyError(
                f"move_probability must be in [0, 1], got {move_probability}"
            )
        self.move_probability = move_probability
        self.rng = random.Random(seed)

    def propose(self, peer_id: PeerId, context: StrategyContext) -> Optional[RelocationProposal]:
        configuration = context.game.configuration
        current = configuration.cluster_of(peer_id)
        if self.rng.random() >= self.move_probability:
            return RelocationProposal.stay(peer_id, current)
        candidates = [
            cluster_id
            for cluster_id in configuration.nonempty_clusters()
            if cluster_id != current
        ]
        if not candidates:
            return RelocationProposal.stay(peer_id, current)
        target = self.rng.choice(candidates)
        # The reported gain is deliberately tiny but positive so the protocol
        # treats the request as actionable while still ranking any
        # recall-driven request above it in mixed-strategy comparisons.
        return RelocationProposal(
            peer_id=peer_id, source_cluster=current, target_cluster=target, gain=1e-6
        )

    def __repr__(self) -> str:
        return f"RandomRelocationStrategy(move_probability={self.move_probability})"
