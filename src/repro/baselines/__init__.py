"""Sequential baseline algorithms referenced by the paper's related work."""

from repro.baselines.inverted_index import InvertedIndexJoin
from repro.baselines.ppjoin import PPJoin

__all__ = [
    "InvertedIndexJoin",
    "PPJoin",
]
