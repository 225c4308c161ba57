"""Element interning: dense integer dictionaries for hot-path kernels.

The pipelines shuffle records keyed by arbitrary hashable alphabet
elements (cookie strings in the paper's workload) and by arbitrary multiset
identifiers (IP strings).  Hashing and comparing those keys — and carrying
them through every shuffle — dominates the per-record cost once the
algorithmic work per record is small.  This module provides the shared
*interning* layer that replaces them with dense integers:

* :class:`ElementDictionary` — an immutable element ⇄ id mapping whose ids
  are assigned in **ascending document frequency** order (the rarest element
  gets id 0).  This is the same global ordering VCL's prefix filter
  sorts by, so one dictionary serves both the array
  kernels and any frequency-ordered consumer;
* :class:`InternedMultiset` — the canonical array representation of a
  multiset: parallel tuples of sorted element ids and their multiplicities.
  Two interned multisets are compared by walking the smaller one's id map
  and probing the other's, with no per-element measure call (see
  :mod:`repro.similarity.kernels`);
* :class:`PairCodec` — packs a canonical ``(id_i, id_j)`` pair of dense ids
  into a single integer, turning the Similarity2 shuffle key into one
  machine word;
* :class:`InterningContext` — the bundle of one interning pass over a
  corpus (the planner's corpus profile builds it, and the V-SMART-Join
  driver reuses it or builds its own): element dictionary, multiset-id
  dictionary and pair codec, with helpers to intern the input (the
  multisets straight into :class:`~repro.core.records.InputColumns`, or raw
  input tuples) and to restore the original identifiers on the final
  similar pairs.

Interning never changes results: multiplicities are preserved exactly and
every consumer maps ids back to the original objects at its boundary.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, repeat
from typing import Hashable, Iterable, Iterator, Mapping, Sequence

from repro.core.exceptions import ReproError
from repro.core.multiset import Element, Multiset, MultisetId
from repro.core.records import InputColumns, InputTuple, SimilarPair


class InterningError(ReproError):
    """A lookup of an element or identifier that was never interned."""


def _sort_key(value: Hashable) -> tuple[str, str]:
    """A deterministic total-order key for arbitrary hashable values.

    Mirrors the representation fallback of the record types: values of one
    type sort naturally through their repr for the common string/int cases,
    and mixed-type collections still get a stable order.
    """
    return (type(value).__name__, repr(value))


def sort_mixed(values: Iterable[Hashable]) -> list:
    """Sort possibly mixed-type hashables deterministically.

    Directly comparable collections (all-string or all-int identifiers, the
    common case) keep their natural order; anything else falls back to the
    type-name/repr key, exactly like the canonical pair ordering in
    :mod:`repro.core.records`.
    """
    materialised = list(values)
    try:
        return sorted(materialised)
    except TypeError:
        return sorted(materialised, key=_sort_key)


class ElementDictionary:
    """An immutable element ⇄ dense-id dictionary in document-frequency order.

    ``elements[i]`` is the element with id ``i``; ids ascend with document
    frequency (ties broken deterministically), so id 0 is the rarest
    element.  Frequency order costs nothing to produce — the builders count
    frequencies anyway — and makes the ids directly usable as the global
    element ordering of prefix-filtering algorithms.
    """

    __slots__ = ("_elements", "_ids", "_frequencies")

    def __init__(self, ordered_elements: Sequence[Element],
                 frequencies: Mapping[Element, int] | None = None) -> None:
        self._elements: tuple = tuple(ordered_elements)
        self._ids: dict = {element: index
                           for index, element in enumerate(self._elements)}
        if len(self._ids) != len(self._elements):
            raise InterningError("dictionary elements must be distinct")
        self._frequencies = dict(frequencies) if frequencies else {}

    # -- builders ----------------------------------------------------------

    @classmethod
    def from_document_frequencies(
            cls, frequencies: Mapping[Element, int]) -> "ElementDictionary":
        """Build a dictionary from an element → document-frequency mapping.

        Ids ascend by ``(frequency, _sort_key(element))``, ties in the
        mapping's order.  Two stable sorts with builtin keys give that
        order: by ``repr`` when every element has one type (the type name
        then adds nothing to the key), else by ``_sort_key``; then by
        frequency.
        """
        ordered = list(frequencies)
        ordered.sort(key=repr if len(set(map(type, ordered))) <= 1
                     else _sort_key)
        ordered.sort(key=frequencies.__getitem__)
        return cls(ordered, frequencies)

    @classmethod
    def from_multisets(cls,
                       multisets: Iterable[Multiset]) -> "ElementDictionary":
        """Build a dictionary by counting document frequencies of a corpus."""
        return cls.from_document_frequencies(
            Counter(chain.from_iterable(multisets)))

    @classmethod
    def from_input_tuples(
            cls, records: Iterable[InputTuple]) -> "ElementDictionary":
        """Build a dictionary from exploded ``(Mi, a_k, f_ik)`` records.

        Duplicate ``(multiset, element)`` records (legal in raw logs; their
        multiplicities are summed downstream) count once towards the
        element's document frequency.
        """
        seen: set = set()
        frequencies: dict = {}
        for record in records:
            incidence = (record.multiset_id, record.element)
            if incidence in seen:
                continue
            seen.add(incidence)
            frequencies[record.element] = frequencies.get(record.element, 0) + 1
        return cls.from_document_frequencies(frequencies)

    # -- lookups -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._elements)

    def __contains__(self, element: object) -> bool:
        return element in self._ids

    def __iter__(self) -> Iterator[Element]:
        return iter(self._elements)

    def id_of(self, element: Element) -> int:
        """The dense id of ``element``; raises for unknown elements."""
        try:
            return self._ids[element]
        except KeyError:
            raise InterningError(
                f"element {element!r} is not in the dictionary") from None

    def get(self, element: Element) -> int | None:
        """The dense id of ``element``, or ``None`` when unknown."""
        return self._ids.get(element)

    def frequency_of(self, element: Element) -> int:
        """The document frequency recorded for ``element`` (0 if unknown)."""
        return self._frequencies.get(element, 0)

    # -- interning ---------------------------------------------------------

    # -- persistence ---------------------------------------------------------

    def to_records(self) -> list[tuple[int, Element, int]]:
        """The dictionary as ``(element_id, element, frequency)`` rows.

        Rows ascend by id, so a consumer that stores them and replays them
        through :meth:`from_records` reconstructs the exact dictionary —
        including the document-frequency order the ids encode.  The storage
        tier (:mod:`repro.storage`) persists dictionaries in this shape.
        """
        frequency_of = self._frequencies.get
        return [(element_id, element, frequency_of(element, 0))
                for element_id, element in enumerate(self._elements)]

    @classmethod
    def from_records(
            cls, records: Iterable[tuple[int, Element, int]],
    ) -> "ElementDictionary":
        """Rebuild a dictionary from :meth:`to_records` rows (any order).

        The ids must form the contiguous range ``0 .. n-1``; anything else
        means the rows do not describe one complete dictionary.
        """
        materialised = sorted(records)
        elements = []
        frequencies: dict = {}
        for expected, (element_id, element, frequency) in enumerate(materialised):
            if element_id != expected:
                raise InterningError(
                    f"dictionary records carry id {element_id} where "
                    f"{expected} was expected; ids must be contiguous from 0")
            elements.append(element)
            if frequency:
                frequencies[element] = frequency
        return cls(elements, frequencies)

    def intern_multiset(self, multiset: Multiset) -> "InternedMultiset":
        """Intern a multiset into its canonical sorted-array representation.

        Raises :class:`InterningError` when the multiset carries an element
        the dictionary has never seen (same contract as :meth:`id_of`).
        """
        ids = self._ids
        try:
            pairs = sorted((ids[element], multiplicity)
                           for element, multiplicity in multiset.items())
        except KeyError as missing:
            raise InterningError(
                f"multiset {multiset.id!r} contains element {missing.args[0]!r}"
                " which is not in the dictionary") from None
        return InternedMultiset(
            multiset.id,
            tuple(pair[0] for pair in pairs),
            tuple(float(pair[1]) for pair in pairs))

    def __repr__(self) -> str:
        return f"ElementDictionary(elements={len(self._elements)})"


class InternedMultiset:
    """The canonical array representation of a multiset.

    ``element_ids`` is a strictly ascending tuple of dense element ids and
    ``multiplicities`` the parallel tuple of (float) multiplicities.  The
    kernels in :mod:`repro.similarity.kernels` probe its :meth:`counts`
    map, built from the sorted arrays once.
    """

    __slots__ = ("id", "element_ids", "multiplicities", "cardinality",
                 "_counts")

    def __init__(self, multiset_id: MultisetId,
                 element_ids: tuple, multiplicities: tuple) -> None:
        if len(element_ids) != len(multiplicities):
            raise InterningError(
                "element_ids and multiplicities must be parallel sequences")
        self.id = multiset_id
        self.element_ids = element_ids
        self.multiplicities = multiplicities
        self.cardinality = float(sum(multiplicities))
        self._counts: dict | None = None

    def __len__(self) -> int:
        return len(self.element_ids)

    @property
    def underlying_cardinality(self) -> int:
        """``|U(Mi)|`` — the number of distinct elements present."""
        return len(self.element_ids)

    def items(self) -> Iterator[tuple[int, float]]:
        """Iterate ``(element_id, multiplicity)`` pairs in id order."""
        return zip(self.element_ids, self.multiplicities)

    def counts(self) -> dict:
        """``{element_id: multiplicity}`` in ascending id order, built once.

        What the kernels probe: a shared element costs one lookup.
        """
        counts = self._counts
        if counts is None:
            counts = self._counts = dict(zip(self.element_ids,
                                             self.multiplicities))
        return counts

    def __repr__(self) -> str:
        return (f"InternedMultiset(id={self.id!r}, "
                f"|U(M)|={len(self.element_ids)}, |M|={self.cardinality})")


def intern_corpus(
        multisets: Sequence[Multiset],
) -> tuple[ElementDictionary, list[InternedMultiset]]:
    """Intern a whole corpus: build the dictionary, intern every member."""
    dictionary = ElementDictionary.from_multisets(multisets)
    return dictionary, [dictionary.intern_multiset(multiset)
                        for multiset in multisets]


class PairCodec:
    """Packs a canonical pair of dense ids into a single integer.

    With ``num_ids`` distinct identifiers, each id fits in
    ``(num_ids - 1).bit_length()`` bits; a pair is packed as
    ``(first << shift) | second``.  Because dense multiset ids are assigned
    in ascending canonical order of the original identifiers, numeric order
    of the dense ids *is* the canonical pair order, so ``first < second``
    packs/unpacks losslessly.
    """

    __slots__ = ("shift", "_mask")

    def __init__(self, num_ids: int) -> None:
        if num_ids < 0:
            raise InterningError(f"num_ids must be >= 0, got {num_ids}")
        self.shift = max(1, (num_ids - 1).bit_length()) if num_ids else 1
        self._mask = (1 << self.shift) - 1

    def pack(self, first: int, second: int) -> int:
        """Pack an ordered ``(first, second)`` id pair into one int."""
        return (first << self.shift) | second

    def unpack(self, packed: int) -> tuple[int, int]:
        """Recover the ``(first, second)`` id pair from a packed int."""
        return packed >> self.shift, packed & self._mask

    def __repr__(self) -> str:
        return f"PairCodec(shift={self.shift})"


class InterningContext:
    """The bundle of one batch interning pass over a corpus.

    Holds the element dictionary (document-frequency order), the multiset-id
    dictionary (ascending canonical order of the original identifiers, so
    dense-id order equals canonical pair order) and the pair codec sized to
    the corpus.  The planner's
    :class:`~repro.engine.planner.CorpusProfile` builds it; a V-SMART-Join
    run of the same corpus reuses it.
    """

    __slots__ = ("elements", "multiset_ids", "_multiset_id_of", "codec")

    def __init__(self, elements: ElementDictionary,
                 multiset_ids: Sequence[MultisetId]) -> None:
        self.elements = elements
        self.multiset_ids: tuple = tuple(multiset_ids)
        self._multiset_id_of: dict = {
            original: index
            for index, original in enumerate(self.multiset_ids)}
        if len(self._multiset_id_of) != len(self.multiset_ids):
            raise InterningError("multiset identifiers must be distinct")
        self.codec = PairCodec(len(self.multiset_ids))

    @classmethod
    def from_input_tuples(
            cls, records: Sequence[InputTuple]) -> "InterningContext":
        """Build the context from exploded ``(Mi, a_k, f_ik)`` tuples."""
        elements = ElementDictionary.from_input_tuples(records)
        multiset_ids = sort_mixed({record.multiset_id for record in records})
        return cls(elements, multiset_ids)

    @classmethod
    def from_multisets(
            cls, multisets: Sequence[Multiset]) -> "InterningContext":
        """Build the context from the pipeline's multisets.

        The context :meth:`from_input_tuples` builds from their exploded
        tuples, for multisets with distinct identifiers (the engine's
        contract): a multiset without elements has no tuple, so no id.
        """
        elements = ElementDictionary.from_multisets(multisets)
        multiset_ids = sort_mixed({multiset.id for multiset in multisets
                                   if len(multiset)})
        return cls(elements, multiset_ids)

    def intern_records(self,
                       records: Iterable[InputTuple]) -> list[InputTuple]:
        """Rewrite raw input tuples onto dense integer ids."""
        element_id_of = self.elements.id_of
        multiset_id_of = self._multiset_id_of
        return [InputTuple(multiset_id_of[record.multiset_id],
                           element_id_of(record.element),
                           record.multiplicity)
                for record in records]

    def intern_multisets(self, multisets: Iterable[Multiset]) -> InputColumns:
        """The multisets' tuples on dense integer ids, as columns.

        Row for row what :meth:`intern_records` makes of their exploded
        tuples — multisets in order, each one's elements in its own order —
        without building a tuple.
        """
        element_ids = self.elements._ids
        multiset_id_of = self._multiset_id_of
        columns = InputColumns()
        for multiset in multisets:
            if not len(multiset):
                continue  # no tuple, so no id
            elements = multiset.keys()
            columns.multiset_ids.extend(
                repeat(multiset_id_of[multiset.id], len(elements)))
            columns.elements.extend(map(element_ids.__getitem__, elements))
            columns.multiplicities.extend(multiset.values())
        return columns

    def restore_pairs(self,
                      pairs: Iterable[SimilarPair]) -> list[SimilarPair]:
        """Map the dense ids of final similar pairs back to the originals."""
        originals = self.multiset_ids
        return [SimilarPair.make(originals[pair.first], originals[pair.second],
                                 pair.similarity)
                for pair in pairs]

    def __repr__(self) -> str:
        return (f"InterningContext(elements={len(self.elements)}, "
                f"multisets={len(self.multiset_ids)})")
