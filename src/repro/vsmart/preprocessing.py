"""Stop-word preprocessing (paper section 4).

Elements shared by more than ``q`` multisets ("stop words") make the
Similarity1 reducer handling them quadratically slow and dominate the noise
in skewed Internet-traffic datasets.  The paper describes an optional
preprocessing MapReduce step that discards them before the joining phase:

* the mapper re-keys every raw tuple by its element;
* the reducer buffers up to ``q + 1`` postings; if the list is exhausted
  within the buffer, the element is rare enough and all its tuples are
  re-emitted, otherwise the whole element is dropped.

Note that the paper's headline experiments do *not* discard stop words
("no stop words were discarded, and no multisets were sampled"); this step
exists for the ablation benchmark and as a library feature.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.core.exceptions import JobConfigurationError
from repro.core.records import InputTuple
from repro.mapreduce.job import JobSpec, Reducer, TaskContext
from repro.mapreduce.types import KeyValue, sized_key_value
from repro.vsmart.shapes import (
    INPUT_TUPLE_BYTES,
    STOP_WORD_KV_BYTES,
    InternedInputMapper,
)


class StopWordMapper(InternedInputMapper):
    """Re-key raw tuples by element: ``<Mi, m_ik> -> <a_k, <Mi, f_ik>>``."""

    def map(self, record: InputTuple, context: TaskContext) -> Iterator[KeyValue]:
        if record.multiplicity <= 0:
            return
        yield sized_key_value(record.element,
                              (record.multiset_id, record.multiplicity),
                              None, STOP_WORD_KV_BYTES)


class StopWordReducer(Reducer):
    """Drop elements whose posting list is longer than ``q``.

    Only ``q + 1`` postings ever need to be buffered, so the memory footprint
    is bounded by the parameter rather than by the element frequency — the
    property the paper relies on to call this step scalable.
    """

    materializes_input = False
    output_record_bytes = INPUT_TUPLE_BYTES

    def __init__(self, frequency_threshold: int) -> None:
        if frequency_threshold < 1:
            raise JobConfigurationError(
                "the stop-word threshold q must be at least 1")
        self.frequency_threshold = frequency_threshold

    def reduce(self, key: object, values: Sequence[tuple],
               context: TaskContext) -> Iterator[InputTuple]:
        buffered: list[tuple] = []
        for value in values:
            buffered.append(value)
            if len(buffered) > self.frequency_threshold:
                context.increment("preprocess/stop_words_dropped", 1)
                context.increment("preprocess/tuples_dropped", len(values))
                return
        context.increment("preprocess/elements_kept", 1)
        for multiset_id, multiplicity in buffered:
            yield InputTuple(multiset_id, key, multiplicity)


def build_stop_word_job(frequency_threshold: int,
                        name: str = "stop_word_filter") -> JobSpec:
    """Build the stop-word preprocessing job for a frequency threshold ``q``."""
    return JobSpec(name=name,
                   mapper=StopWordMapper(),
                   reducer=StopWordReducer(frequency_threshold))


def remove_small_multisets(records: Sequence[InputTuple],
                           minimum_elements: int) -> list[InputTuple]:
    """Drop multisets observing fewer than ``minimum_elements`` elements.

    Section 7.4 filters out IPs that observed fewer than 50 cookies to cut
    false positives; this in-memory helper applies the same filter to a raw
    tuple collection before building the pipeline input.
    """
    counts: dict = {}
    for record in records:
        counts[record.multiset_id] = counts.get(record.multiset_id, 0) + 1
    return [record for record in records
            if counts[record.multiset_id] >= minimum_elements]
