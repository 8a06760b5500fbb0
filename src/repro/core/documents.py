"""Documents (data items) shared by peers.

Each data item is described by a set of attributes (keywords).  A
:class:`Document` optionally carries the category it was generated from; the
category is *never* used by the algorithms themselves (peers only see
attribute sets), but it is used by the analysis layer to measure cluster
purity and by the dataset generators to build the paper's three scenarios.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from typing import Dict, List, Optional

from repro.core.attributes import AttributeSet

__all__ = ["Document", "DocumentCollection"]


class Document:
    """A single shared data item described by a set of attributes.

    Parameters
    ----------
    attributes:
        The keywords describing the item.
    doc_id:
        Optional stable identifier (assigned by generators / collections).
    category:
        Optional ground-truth category label used only for evaluation.

    Documents are value objects: nothing assigns ``attributes``, ``doc_id``
    or ``category`` outside ``__init__``.  A content update replaces a peer's
    documents, it never edits one, so :func:`copy.copy` and
    :func:`copy.deepcopy` return the document itself and scenario forks
    share every document with the build they were forked from.
    """

    __slots__ = ("attributes", "doc_id", "category")

    def __init__(
        self,
        attributes: Iterable[str] | AttributeSet,
        *,
        doc_id: Optional[str] = None,
        category: Optional[str] = None,
    ) -> None:
        if isinstance(attributes, AttributeSet):
            self.attributes = attributes
        else:
            self.attributes = AttributeSet(attributes)
        self.doc_id = doc_id
        self.category = category

    def matches(self, query_attributes: AttributeSet) -> bool:
        """Return ``True`` if *query_attributes* is a subset of this document's attributes."""
        return query_attributes.issubset(self.attributes)

    def __len__(self) -> int:
        return len(self.attributes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Document):
            return NotImplemented
        return (
            self.attributes == other.attributes
            and self.doc_id == other.doc_id
            and self.category == other.category
        )

    def __hash__(self) -> int:
        return hash((self.attributes, self.doc_id, self.category))

    def __copy__(self) -> "Document":
        return self

    def __deepcopy__(self, memo: Dict[int, object]) -> "Document":
        return self

    def __repr__(self) -> str:
        return (
            f"Document(doc_id={self.doc_id!r}, category={self.category!r}, "
            f"attributes={sorted(self.attributes)!r})"
        )


class DocumentCollection:
    """An ordered collection of documents held by a single peer.

    The collection supports mutation (documents can be replaced wholesale or
    appended) because Section 4.2 of the paper studies *content updates*,
    where the data of a cluster is replaced by data of a different category.
    """

    def __init__(self, documents: Optional[Iterable[Document]] = None) -> None:
        self._documents: List[Document] = list(documents) if documents is not None else []

    def add(self, document: Document) -> None:
        """Append *document* to the collection."""
        self._documents.append(document)

    def extend(self, documents: Iterable[Document]) -> None:
        """Append every document in *documents*."""
        self._documents.extend(documents)

    def replace(self, documents: Iterable[Document]) -> None:
        """Replace the entire content of the collection (a content update)."""
        self._documents = list(documents)

    def remove_fraction(self, fraction: float) -> List[Document]:
        """Remove and return the first ``fraction`` of documents.

        Used by the partial content-update scenario of Section 4.2 where only
        a percentage of a peer's data changes.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
        count = int(round(fraction * len(self._documents)))
        removed = self._documents[:count]
        self._documents = self._documents[count:]
        return removed

    def categories(self) -> List[str]:
        """Return the (possibly repeated) category labels of the documents."""
        return [doc.category for doc in self._documents if doc.category is not None]

    def match_count(self, query_attributes: AttributeSet) -> int:
        """Number of documents matched by *query_attributes* (``result(q, p)`` restricted to this peer)."""
        return sum(1 for doc in self._documents if doc.matches(query_attributes))

    def __iter__(self) -> Iterator[Document]:
        return iter(self._documents)

    def __len__(self) -> int:
        return len(self._documents)

    def __getitem__(self, index: int) -> Document:
        return self._documents[index]

    def __repr__(self) -> str:
        return f"DocumentCollection(size={len(self)})"
