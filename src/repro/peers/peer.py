"""The peer: an autonomous node holding content and issuing queries.

A peer owns

* a :class:`~repro.core.documents.DocumentCollection` (the data it shares),
* an :class:`~repro.core.index.InvertedIndex` over that collection (kept in
  sync automatically), and
* a :class:`~repro.core.queries.QueryWorkload` (the queries it issues,
  ``Q(p)`` in the paper).

Content and workload are mutable because the paper's Section 4.2 studies
exactly those updates; every mutating method bumps a ``version`` counter so
higher layers (the network's recall model, the weighted recall matrices) know
when cached derived state must be rebuilt.

Documents and queries are immutable value objects, so a deep copy of a peer
(a scenario fork) copies only the mutable containers — the document list,
the index postings and the workload counts — and shares every document and
query with the original.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable
from typing import Dict, Optional

from repro.core.documents import Document, DocumentCollection
from repro.core.index import InvertedIndex
from repro.core.queries import Query, QueryWorkload

__all__ = ["Peer"]

PeerId = Hashable


class Peer:
    """An autonomous peer with shared content and a local query workload."""

    def __init__(
        self,
        peer_id: PeerId,
        documents: Optional[Iterable[Document]] = None,
        workload: Optional[QueryWorkload] = None,
    ) -> None:
        self.peer_id = peer_id
        self.documents = DocumentCollection(documents)
        self.index = InvertedIndex(self.documents)
        self.workload = workload.copy() if workload is not None else QueryWorkload()
        self.version = 0

    def __deepcopy__(self, memo: Dict[int, object]) -> "Peer":
        """A fork: new containers over the shared immutable documents and queries."""
        duplicate = type(self).__new__(type(self))
        memo[id(self)] = duplicate
        duplicate.peer_id = self.peer_id
        duplicate.documents = DocumentCollection(self.documents)
        duplicate.index = self.index.copy()
        duplicate.workload = self.workload.copy()
        duplicate.version = self.version
        return duplicate

    # -- content management --------------------------------------------------

    def add_document(self, document: Document) -> None:
        """Add a single document to the peer's shared content."""
        self.documents.add(document)
        self.index.add(document)
        self.version += 1

    def replace_documents(self, documents: Iterable[Document]) -> None:
        """Replace the peer's content wholesale (a content update)."""
        self.documents.replace(list(documents))
        self.index.rebuild(self.documents)
        self.version += 1

    def replace_document_fraction(self, fraction: float, replacements: Iterable[Document]) -> None:
        """Replace ``fraction`` of the content with *replacements*.

        Used by the partial content-update scenario of Section 4.2(b).
        """
        self.documents.remove_fraction(fraction)
        self.documents.extend(replacements)
        self.index.rebuild(self.documents)
        self.version += 1

    def result_count(self, query: Query) -> int:
        """``result(q, p)`` for this peer."""
        return self.index.result_count(query)

    # -- workload management ---------------------------------------------------

    def issue_query(self, query: Query, count: int = 1) -> None:
        """Record *count* occurrences of *query* in the local workload."""
        self.workload.add(query, count)
        self.version += 1

    def replace_workload(self, workload: QueryWorkload) -> None:
        """Replace the local workload wholesale (a workload update)."""
        self.workload = workload.copy()
        self.version += 1

    def replace_workload_fraction(self, fraction: float, replacement: QueryWorkload) -> None:
        """Replace ``fraction`` of the local workload volume with *replacement*.

        Used by the partial workload-update scenario of Section 4.2(b): the
        removed volume is redistributed over the replacement queries so the
        workload volume stays (approximately) constant.
        """
        removed = self.workload.remove_fraction(fraction)
        removed_volume = removed.total()
        replacement_queries = replacement.distinct()
        if removed_volume and replacement_queries:
            per_query, leftover = divmod(removed_volume, len(replacement_queries))
            for position, query in enumerate(replacement_queries):
                count = per_query + (1 if position < leftover else 0)
                if count:
                    self.workload.add(query, count)
        self.version += 1

    # -- introspection -----------------------------------------------------------

    def dominant_category(self) -> Optional[str]:
        """The most common ground-truth category among the peer's documents.

        Only used by the analysis layer (cluster purity); the algorithms never
        look at categories.
        """
        categories = self.documents.categories()
        if not categories:
            return None
        counts: dict = {}
        for category in categories:
            counts[category] = counts.get(category, 0) + 1
        return max(sorted(counts), key=lambda category: counts[category])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Peer):
            return NotImplemented
        return self.peer_id == other.peer_id

    def __hash__(self) -> int:
        return hash(self.peer_id)

    def __repr__(self) -> str:
        return (
            f"Peer(peer_id={self.peer_id!r}, documents={len(self.documents)}, "
            f"workload={self.workload.total()})"
        )
