"""Inverted index over a peer's documents.

``result(q, p)`` has to be evaluated for every (query, peer) pair when
building recall matrices, so a linear scan over every document for every
query is the dominant cost at experiment scale (200 peers x thousands of
query occurrences).  :class:`InvertedIndex` maps each attribute to the set of
documents containing it; a query's matches are the intersection of the
posting sets of its attributes.

The index returns exactly the same counts as the reference scan in
:mod:`repro.core.matching`; the property-based tests assert this equivalence.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import Dict, List, Optional, Set

from repro.core.documents import Document
from repro.core.queries import Query

__all__ = ["InvertedIndex"]


class InvertedIndex:
    """Attribute -> posting-set index over a collection of documents."""

    def __init__(self, documents: Optional[Iterable[Document]] = None) -> None:
        self._postings: Dict[str, Set[int]] = {}
        self._documents: List[Document] = []
        if documents is not None:
            for document in documents:
                self.add(document)

    def add(self, document: Document) -> None:
        """Index *document*."""
        doc_position = len(self._documents)
        self._documents.append(document)
        for attribute in document.attributes:
            self._postings.setdefault(attribute, set()).add(doc_position)

    def rebuild(self, documents: Iterable[Document]) -> None:
        """Discard the current contents and index *documents* from scratch.

        Content updates replace a peer's documents wholesale, so rebuilding is
        the natural maintenance operation.
        """
        self._postings = {}
        self._documents = []
        for document in documents:
            self.add(document)

    def copy(self) -> "InvertedIndex":
        """An independent index over the same documents.

        The postings sets and the document list are copied; the documents
        themselves are immutable and shared.
        """
        duplicate = InvertedIndex()
        duplicate._postings = {
            attribute: set(postings) for attribute, postings in self._postings.items()
        }
        duplicate._documents = list(self._documents)
        return duplicate

    def result_count(self, query: Query) -> int:
        """``result(q, p)`` evaluated against the indexed documents."""
        return len(self._matching_positions(query))

    def matching_documents(self, query: Query) -> List[Document]:
        """Return the matched documents in indexing order."""
        positions = sorted(self._matching_positions(query))
        return [self._documents[position] for position in positions]

    def _matching_positions(self, query: Query) -> Set[int]:
        attributes = list(query.attributes)
        if not attributes:
            # An empty query matches every document (the empty set is a subset
            # of any attribute set), mirroring the reference scan.
            return set(range(len(self._documents)))
        # Intersect smallest posting lists first to keep intermediate sets small.
        postings = []
        for attribute in attributes:
            posting = self._postings.get(attribute)
            if not posting:
                return set()
            postings.append(posting)
        postings.sort(key=len)
        result = set(postings[0])
        for posting in postings[1:]:
            result &= posting
            if not result:
                break
        return result

    def posting_sizes(self) -> Dict[str, int]:
        """Mapping of every indexed attribute to its posting-list length.

        For a single-attribute query ``result(q, p)`` *is* the posting size,
        so bulk recall-table construction (the factored recall path) reads
        this dict once per peer instead of intersecting posting sets per
        (query, peer) pair.
        """
        return {attribute: len(postings) for attribute, postings in self._postings.items()}

    def vocabulary(self) -> List[str]:
        """All indexed attributes, sorted."""
        return sorted(self._postings)

    def __len__(self) -> int:
        """Number of indexed documents."""
        return len(self._documents)

    def __repr__(self) -> str:
        return f"InvertedIndex(documents={len(self._documents)}, attributes={len(self._postings)})"
