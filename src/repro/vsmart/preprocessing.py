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

from itertools import repeat
from typing import Sequence

from repro.core.exceptions import JobConfigurationError
from repro.core.records import InputColumns
from repro.mapreduce.job import JobSpec, Reducer, TaskContext
from repro.mapreduce.types import Emissions
from repro.vsmart.common import first, second
from repro.vsmart.shapes import (
    INPUT_TUPLE_BYTES,
    STOP_WORD_KV_BYTES,
    InternedInputMapper,
)


class StopWordMapper(InternedInputMapper):
    """Re-key raw tuples by element: ``<Mi, m_ik> -> <a_k, <Mi, f_ik>>``.

    A batch mapper: the keys are the element column.
    """

    def map_batch(self, records: Sequence, context: TaskContext) -> Emissions:
        columns, counts = self.positive_rows(records)
        return Emissions(columns.elements,
                         list(zip(columns.multiset_ids, columns.multiplicities)),
                         None, STOP_WORD_KV_BYTES, counts)


class StopWordReducer(Reducer):
    """Drop elements whose posting list is longer than ``q``.

    Only ``q + 1`` postings ever need to be buffered, so the memory footprint
    is bounded by the parameter rather than by the element frequency — the
    property the paper relies on to call this step scalable.  A kept
    element's tuples are one :class:`~repro.core.records.InputColumns`
    block, so the joining job after this one reads columns too.
    """

    materializes_input = False
    output_record_bytes = INPUT_TUPLE_BYTES

    def __init__(self, frequency_threshold: int) -> None:
        if frequency_threshold < 1:
            raise JobConfigurationError(
                "the stop-word threshold q must be at least 1")
        self.frequency_threshold = frequency_threshold

    def new_output(self) -> InputColumns:
        return InputColumns()

    def reduce(self, key: object, values: Sequence[tuple],
               context: TaskContext) -> InputColumns:
        if len(values) > self.frequency_threshold:
            context.increment("preprocess/stop_words_dropped", 1)
            context.increment("preprocess/tuples_dropped", len(values))
            return InputColumns()
        context.increment("preprocess/elements_kept", 1)
        return InputColumns(list(map(first, values)),
                            list(repeat(key, len(values))),
                            list(map(second, values)))


def build_stop_word_job(frequency_threshold: int,
                        name: str = "stop_word_filter") -> JobSpec:
    """Build the stop-word preprocessing job for a frequency threshold ``q``."""
    return JobSpec(name=name,
                   mapper=StopWordMapper(),
                   reducer=StopWordReducer(frequency_threshold))
