"""Clusters: named groups of peers with a representative.

Every cluster has a unique identifier ``cid`` known to all of its members
(the paper assumes exactly this), a member set and, while the reformulation
protocol runs, a *representative* peer that gathers and serves relocation
requests on behalf of the cluster.  Representatives are not fixed — the
protocol may elect a different representative in every round — so the class
exposes a simple deterministic election helper.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable
from typing import FrozenSet, Optional, Set

from repro.errors import ConfigurationError

__all__ = ["Cluster"]

PeerId = Hashable
ClusterId = Hashable


class Cluster:
    """A cluster of peers identified by a unique ``cid``."""

    def __init__(self, cluster_id: ClusterId, members: Optional[Iterable[PeerId]] = None) -> None:
        self.cluster_id = cluster_id
        self._members: Set[PeerId] = set(members) if members is not None else set()
        self._members_view: Optional[FrozenSet[PeerId]] = None
        self._representative: Optional[PeerId] = None

    # -- membership -----------------------------------------------------------

    @property
    def members(self) -> FrozenSet[PeerId]:
        """The current member peer ids (immutable view, cached between mutations)."""
        if self._members_view is None:
            self._members_view = frozenset(self._members)
        return self._members_view

    @property
    def size(self) -> int:
        """Number of members (``|c|``)."""
        return len(self._members)

    @property
    def is_empty(self) -> bool:
        """``True`` when the cluster has no members (an empty cluster slot)."""
        return not self._members

    def add(self, peer_id: PeerId) -> None:
        """Add *peer_id* to the cluster."""
        self._members.add(peer_id)
        self._members_view = None

    def remove(self, peer_id: PeerId) -> None:
        """Remove *peer_id* from the cluster, clearing the representative if it leaves."""
        if peer_id not in self._members:
            raise ConfigurationError(
                f"peer {peer_id!r} is not a member of cluster {self.cluster_id!r}"
            )
        self._members.remove(peer_id)
        self._members_view = None
        if self._representative == peer_id:
            self._representative = None

    def __contains__(self, peer_id: PeerId) -> bool:
        return peer_id in self._members

    def __len__(self) -> int:
        return len(self._members)

    def __iter__(self):
        return iter(sorted(self._members, key=repr))

    # -- representative ----------------------------------------------------------

    @property
    def representative(self) -> Optional[PeerId]:
        """The peer currently acting as the cluster representative (if any)."""
        return self._representative

    def elect_representative(self, peer_id: Optional[PeerId] = None) -> Optional[PeerId]:
        """Elect a representative.

        If *peer_id* is given it must be a member; otherwise the member with
        the smallest ``repr`` (deterministic) is elected.  Returns the elected peer, or
        ``None`` for an empty cluster.
        """
        if peer_id is not None:
            if peer_id not in self._members:
                raise ConfigurationError(
                    f"cannot elect non-member {peer_id!r} as representative of {self.cluster_id!r}"
                )
            self._representative = peer_id
            return peer_id
        if not self._members:
            self._representative = None
            return None
        self._representative = min(self._members, key=repr)
        return self._representative

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Cluster):
            return NotImplemented
        return self.cluster_id == other.cluster_id and self._members == other._members

    def __repr__(self) -> str:
        return f"Cluster(cluster_id={self.cluster_id!r}, size={self.size})"
