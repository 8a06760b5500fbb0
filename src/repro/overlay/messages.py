"""Protocol messages and message accounting.

Two parts of the system exchange messages:

* the **query layer** (queries broadcast to clusters and their annotated
  results coming back), and
* the **reformulation protocol** (gain reports to representatives,
  relocation requests among representatives, grant notifications).

The paper's motivation for local maintenance is precisely communication
cost, so :class:`MessageBus` records every message by type.  The simulator
and the protocol both publish to a bus, and the experiment layer reads the
per-type counters when reporting overheads (an ablation bench compares the
protocol's traffic with the global re-clustering baseline).

The bus counts one :class:`QueryMessage` per reached cluster and one
:class:`ResultMessage` per provider holding results.  The batched
:class:`~repro.traffic.simulator.TrafficSimulator` reproduces exactly these
conventions vectorised (its totals match a :meth:`MessageBus.snapshot` of
the same replay), so message studies can move between the two paths freely.
"""

from __future__ import annotations

from collections.abc import Hashable
from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = [
    "Message",
    "QueryMessage",
    "ResultMessage",
    "GainReportMessage",
    "RelocationRequestMessage",
    "GrantMessage",
    "MessageBus",
]

PeerId = Hashable
ClusterId = Hashable


@dataclass(frozen=True)
class Message:
    """Base class for all messages; carries the sender and receiver identifiers."""

    sender: object
    receiver: object

    @property
    def kind(self) -> str:
        """Short type name used for accounting."""
        return type(self).__name__


@dataclass(frozen=True)
class QueryMessage(Message):
    """A query sent from its issuer to (a representative of) a cluster."""

    query: object = None
    target_cluster: Optional[ClusterId] = None


@dataclass(frozen=True)
class ResultMessage(Message):
    """Query results returned to the issuer, annotated with the providing cluster's cid."""

    query: object = None
    cluster_id: Optional[ClusterId] = None
    result_count: int = 0


@dataclass(frozen=True)
class GainReportMessage(Message):
    """Phase-1 message: a peer reports its gain to its cluster representative."""

    gain: float = 0.0
    target_cluster: Optional[ClusterId] = None


@dataclass(frozen=True)
class RelocationRequestMessage(Message):
    """Phase-1 message: a representative advertises its best relocation request to the others."""

    source_cluster: Optional[ClusterId] = None
    target_cluster: Optional[ClusterId] = None
    gain: float = 0.0
    peer_id: Optional[PeerId] = None


@dataclass(frozen=True)
class GrantMessage(Message):
    """Phase-2 message: two representatives agree to satisfy a relocation request."""

    peer_id: Optional[PeerId] = None
    source_cluster: Optional[ClusterId] = None
    target_cluster: Optional[ClusterId] = None


@dataclass
class MessageBus:
    """Counts every message published to it, by message type.

    The bus optionally retains the full message log (disabled by default at
    experiment scale to keep memory bounded).  With the log off, hot paths
    count their messages in bulk through :meth:`record` instead of building
    one message object each.
    """

    keep_log: bool = False
    counts: Dict[str, int] = field(default_factory=dict)
    log: List[Message] = field(default_factory=list)

    def publish(self, message: Message) -> None:
        """Record *message*."""
        self.counts[message.kind] = self.counts.get(message.kind, 0) + 1
        if self.keep_log:
            self.log.append(message)

    def record(self, kind: str, n: int) -> None:
        """Count *n* messages of type *kind* without building them.

        For bulk accounting with the log off; ``n == 0`` adds nothing, so a
        kind's counter appears only once a message of it was sent and the
        counters keep their first-seen order.
        """
        if n:
            self.counts[kind] = self.counts.get(kind, 0) + n

    def count(self, kind: str) -> int:
        """Number of messages of the given type name recorded so far."""
        return self.counts.get(kind, 0)

    def total(self) -> int:
        """Total number of messages recorded."""
        return sum(self.counts.values())

    def reset(self) -> None:
        """Clear all counters and the log."""
        self.counts.clear()
        self.log.clear()

    def snapshot(self) -> Dict[str, int]:
        """Copy of the per-type counters."""
        return dict(self.counts)

    def __repr__(self) -> str:
        return f"MessageBus(total={self.total()}, kinds={sorted(self.counts)})"
