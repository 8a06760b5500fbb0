"""Static (no-maintenance) baseline.

The simplest possible comparison point: the overlay is never updated.  The
strategy always proposes to stay, so running the reformulation protocol with
it performs no moves and the configuration's cost after an update equals the
cost before any maintenance — the quantity the paper's Figures 2 and 3
implicitly compare against when noting that neither strategy recovers the
original social cost.
"""

from __future__ import annotations

from collections.abc import Hashable
from typing import Optional

from repro.strategies.base import RelocationProposal, RelocationStrategy, StrategyContext
from repro.registry import register_strategy

__all__ = ["StaticStrategy"]

PeerId = Hashable


@register_strategy("static")
class StaticStrategy(RelocationStrategy):
    """Never relocate."""

    name = "static"

    def propose(self, peer_id: PeerId, context: StrategyContext) -> Optional[RelocationProposal]:
        current = context.game.configuration.cluster_of(peer_id)
        return RelocationProposal.stay(peer_id, current)
