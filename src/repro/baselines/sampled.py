"""Sampled approximate similarity join: exact join over a uniform sample.

The simplest approximate tier: keep each multiset with probability
``rate`` (decided by a deterministic hash of its id, so runs are
reproducible and two runs over the same corpus sample the same subset),
run the exact join over the survivors, and report those pairs.  A true
pair survives when *both* endpoints survive, so the expected recall is
``rate ** 2`` and the work of the quadratic verification drops by the same
factor — the classic result-sampling trade the planner can price directly.

Unlike MinHash banding the loss is uniform across similarity values: a
pair at similarity 0.99 is exactly as likely to be dropped as one at the
threshold.  In exchange every *reported* pair carries its exact similarity
(precision is always 1.0) and the algorithm supports every registered
measure, not just the Jaccard family.
"""

from __future__ import annotations

import math
from typing import Iterable

from repro.core.exceptions import DatasetError
from repro.core.multiset import Multiset
from repro.core.records import SimilarPair
from repro.mapreduce.partitioner import stable_hash
from repro.similarity.base import NominalSimilarityMeasure, validate_threshold
from repro.similarity.exact import all_pairs_exact
from repro.similarity.registry import get_measure

#: Upper bound of the 64-bit hash space ``stable_hash`` draws from.
_HASH_SPACE = float(2 ** 64)


def sample_rate_for_recall(recall: float) -> float:
    """The per-multiset keep rate targeting ``recall`` pair survival.

    A pair survives with probability ``rate ** 2``; solving
    ``rate = sqrt(recall)`` would put the *expected* recall exactly on the
    target, leaving the measured value below it about half the time.  The
    rate therefore targets the midpoint ``(1 + recall) / 2`` instead, so
    the slack absorbs sampling variance on real corpora.
    """
    if not 0.0 < recall <= 1.0:
        raise ValueError("recall must be in (0, 1]")
    if recall == 1.0:
        return 1.0
    return math.sqrt((1.0 + recall) / 2.0)


class SampledJoin:
    """Approximate all-pair join: exact join over a hash-sampled corpus.

    Runnable through the unified engine as
    ``JoinSpec(algorithm="sampled", recall=...)``; the recall target picks
    the sample rate via :func:`sample_rate_for_recall`.
    """

    #: The :attr:`repro.engine.spec.JoinSpec.algorithm` name of this baseline.
    algorithm = "sampled"

    def __init__(self, measure: str | NominalSimilarityMeasure = "ruzicka",
                 threshold: float = 0.5, recall: float = 0.95,
                 seed: int = 0) -> None:
        self.measure = get_measure(measure)
        self.threshold = validate_threshold(threshold)
        self.rate = sample_rate_for_recall(recall)
        self.recall = recall
        self.seed = seed
        #: Number of multisets that survived sampling in the last run.
        self.last_sampled = 0

    def keeps(self, multiset_id: object) -> bool:
        """Whether the deterministic sampler keeps this multiset."""
        if self.rate >= 1.0:
            return True
        draw = stable_hash(multiset_id, salt=f"sampled-join-{self.seed}")
        return draw / _HASH_SPACE < self.rate

    def run(self, multisets: Iterable[Multiset]) -> list[SimilarPair]:
        """Return the similar pairs of the sampled sub-corpus."""
        seen: set = set()
        sample: list[Multiset] = []
        for multiset in multisets:
            if multiset.id in seen:
                raise DatasetError(
                    f"duplicate multiset id {multiset.id!r}: every multiset "
                    "in a join must have a unique identifier")
            seen.add(multiset.id)
            if self.keeps(multiset.id):
                sample.append(multiset)
        self.last_sampled = len(sample)
        return all_pairs_exact(sample, self.measure, self.threshold,
                               intern=True)
