"""Multiset data model.

The paper (section 3.1) represents each entity ``Mi`` as a multiset over an
alphabet ``A``: a mapping from alphabet elements to positive integer
multiplicities.  The motivating application represents each IP address as a
multiset of the cookies observed with it, the multiplicity being the number
of times the cookie appeared with that IP.

This module provides an immutable :class:`Multiset` with the vocabulary used
throughout the paper:

* ``cardinality`` — ``|Mi| = sum_k f_{i,k}`` (sum of multiplicities),
* ``underlying_set`` — ``U(Mi)``, the set of elements with positive
  multiplicity,
* ``underlying_cardinality`` — ``|U(Mi)|``, the number of distinct elements,
* intersection / union cardinalities used by the similarity measures.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from typing import Hashable

from repro.core.exceptions import InvalidMultisetError

Element = Hashable
MultisetId = Hashable

#: The largest cardinality a :class:`Multiset` may have: ``2**53``, below
#: which every sum of multiplicities is an exact ``float``.
MAX_CARDINALITY = 2**53


class Multiset(Mapping):
    """An immutable multiset (bag) of hashable elements.

    Parameters
    ----------
    multiset_id:
        The identifier of the entity (for example an IP address).  Any
        hashable value is accepted.
    elements:
        A mapping from element to positive integer multiplicity, or an
        iterable of ``(element, multiplicity)`` pairs.

    Raises
    ------
    InvalidMultisetError
        If any multiplicity is not a positive integer, or the cardinality
        exceeds :data:`MAX_CARDINALITY`.

    The cardinality bound is what keeps every similarity exact.  Below
    ``2**53`` every partial sum of multiplicities is an integer a ``float``
    holds exactly, so the sum-family measures' ``Uni`` (``sum f_ik``) and
    ``Conj`` (``sum min(f_ik, f_jk)``) are the same float in any summation
    order — the serving index, the MapReduce combiners and the exact
    evaluators agree to the bit.  Above it a multiset can miss its own
    threshold-1.0 query.  The ``sum_squares`` measures (``vector_cosine``)
    sum ``f_ik**2``, which is bounded by the cardinality's square: their
    partial sums are exact only while that stays below ``2**53``, which
    holds for every cardinality up to ``2**26``; above that, summation
    order can move their last bit.
    """

    __slots__ = ("_id", "_elements", "_cardinality", "_hash", "_estimated_bytes")

    def __init__(self, multiset_id: MultisetId,
                 elements: Mapping[Element, int] | Iterable[tuple[Element, int]]) -> None:
        if isinstance(elements, Mapping):
            items = elements.items()
        else:
            items = list(elements)
        frozen: dict[Element, int] = {}
        total = 0
        for element, multiplicity in items:
            if isinstance(multiplicity, bool) or not isinstance(multiplicity, int):
                raise InvalidMultisetError(
                    f"multiplicity of element {element!r} must be an int, "
                    f"got {type(multiplicity).__name__}")
            if multiplicity <= 0:
                raise InvalidMultisetError(
                    f"multiplicity of element {element!r} must be positive, "
                    f"got {multiplicity}")
            if element in frozen:
                raise InvalidMultisetError(
                    f"element {element!r} appears more than once in the input")
            frozen[element] = multiplicity
            total += multiplicity
        if total > MAX_CARDINALITY:
            raise InvalidMultisetError(
                f"multiset {multiset_id!r} has cardinality {total}, above "
                f"2**53: its similarities would not be exact")
        self._id = multiset_id
        self._elements = frozen
        self._cardinality = total
        self._hash: int | None = None
        self._estimated_bytes: int | None = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_iterable(cls, multiset_id: MultisetId,
                      elements: Iterable[Element]) -> "Multiset":
        """Build a multiset by counting occurrences in an iterable.

        This matches how the IP/cookie workload is formed: every observed
        (IP, cookie) event increments the multiplicity of that cookie.
        """
        counts: dict[Element, int] = {}
        for element in elements:
            counts[element] = counts.get(element, 0) + 1
        return cls(multiset_id, counts)

    # -- mapping protocol --------------------------------------------------

    def __getitem__(self, element: Element) -> int:
        return self._elements[element]

    def __iter__(self) -> Iterator[Element]:
        return iter(self._elements)

    def __len__(self) -> int:
        return len(self._elements)

    def __contains__(self, element: object) -> bool:
        return element in self._elements

    # The dict's own views: ``Mapping``'s fallbacks walk ``__getitem__``
    # once per element in Python, on the serving tier's per-request path.

    def keys(self):
        return self._elements.keys()

    def values(self):
        return self._elements.values()

    def items(self):
        return self._elements.items()

    # -- identity and equality ---------------------------------------------

    @property
    def id(self) -> MultisetId:
        """The entity identifier of this multiset."""
        return self._id

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Multiset):
            return NotImplemented
        return self._id == other._id and self._elements == other._elements

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._id, frozenset(self._elements.items())))
        return self._hash

    def __repr__(self) -> str:
        preview = dict(sorted(self._elements.items(), key=repr)[:4])
        suffix = ", ..." if len(self._elements) > 4 else ""
        return (f"Multiset(id={self._id!r}, |M|={self._cardinality}, "
                f"|U(M)|={len(self._elements)}, elements={preview}{suffix})")

    # -- cardinalities -----------------------------------------------------

    @property
    def cardinality(self) -> int:
        """``|Mi|`` — the sum of all multiplicities."""
        return self._cardinality

    @property
    def underlying_cardinality(self) -> int:
        """``|U(Mi)|`` — the number of distinct elements present."""
        return len(self._elements)

    @property
    def underlying_set(self) -> frozenset:
        """``U(Mi)`` — the set of elements with positive multiplicity."""
        return frozenset(self._elements)

    def multiplicity(self, element: Element) -> int:
        """Return ``f_{i,k}`` for ``element``; zero when absent."""
        return self._elements.get(element, 0)

    def estimated_bytes(self) -> int:
        """Approximate serialised size of this multiset, cached.

        Whole multisets travel as single records in the VCL baseline, so
        their size is requested once per prefix element; caching keeps the
        simulator's bookkeeping linear instead of quadratic.
        """
        if self._estimated_bytes is None:
            size = 16
            for element, multiplicity in self._elements.items():
                size += 8
                size += len(element) + 4 if isinstance(element, str) else 8
                _ = multiplicity
            size += len(self._id) + 4 if isinstance(self._id, str) else 8
            self._estimated_bytes = size
        return self._estimated_bytes

    def counts(self) -> dict[Element, int]:
        """Return a copy of the ``{element: multiplicity}`` mapping."""
        return dict(self._elements)

    # -- pairwise cardinalities --------------------------------------------

    def intersection_cardinality(self, other: "Multiset") -> int:
        """``|Mi ∩ Mj| = sum_k min(f_{i,k}, f_{j,k})``."""
        small, large = self._ordered_by_size(other)
        return sum(min(multiplicity, large._elements.get(element, 0))
                   for element, multiplicity in small._elements.items())

    def union_cardinality(self, other: "Multiset") -> int:
        """``|Mi ∪ Mj| = sum_k max(f_{i,k}, f_{j,k})``."""
        return (self._cardinality + other._cardinality
                - self.intersection_cardinality(other))

    def underlying_intersection_cardinality(self, other: "Multiset") -> int:
        """``|U(Mi) ∩ U(Mj)|`` — number of shared distinct elements."""
        small, large = self._ordered_by_size(other)
        return sum(1 for element in small._elements if element in large._elements)

    def common_elements(self, other: "Multiset") -> list[Element]:
        """Return the elements present in both underlying sets."""
        small, large = self._ordered_by_size(other)
        return [element for element in small._elements if element in large._elements]

    def _ordered_by_size(self, other: "Multiset") -> tuple["Multiset", "Multiset"]:
        if len(self._elements) <= len(other._elements):
            return self, other
        return other, self

    # -- transformations ----------------------------------------------------

    def restrict(self, allowed: Iterable[Element]) -> "Multiset":
        """Return a copy containing only the elements in ``allowed``.

        Used by the stop-word preprocessing step, which discards elements
        shared by more than ``q`` multisets.
        """
        allowed_set = set(allowed)
        kept = {element: multiplicity
                for element, multiplicity in self._elements.items()
                if element in allowed_set}
        return Multiset(self._id, kept)

    def scaled(self, factor: int) -> "Multiset":
        """Return a copy with every multiplicity multiplied by ``factor``."""
        if not isinstance(factor, int) or factor <= 0:
            raise InvalidMultisetError(
                f"scale factor must be a positive int, got {factor!r}")
        return Multiset(self._id,
                        {element: multiplicity * factor
                         for element, multiplicity in self._elements.items()})

    def with_id(self, multiset_id: MultisetId) -> "Multiset":
        """Return a copy carrying a different entity identifier."""
        return Multiset(multiset_id, self._elements)


def content_signature(multiset: Multiset) -> frozenset:
    """The content identity of a multiset: its (element, multiplicity) pairs.

    The identifier is ignored, so two multisets with equal contents produce
    equal signatures regardless of how they were constructed (the same
    idiom :meth:`Multiset.__hash__` uses).  The serving layer keys its
    result cache on this.
    """
    return frozenset(multiset.items())
