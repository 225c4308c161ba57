"""Super-element grouping for VCL (paper section 6.2).

To shrink the alphabet that VCL mappers must hold in memory, Vernica et al.
proposed hashing elements into a fixed number of *super-elements* and
running prefix filtering on the grouped representation.  Grouping makes the
prefixes coarser, so pairs that share a prefix super-element without sharing
a prefix element ("superfluous pairs") reach the reducers and must be weeded
out by exact verification — which, as the paper's experiments showed,
consistently costs more than the memory it saves.

A super-element weighs the summed *effective* multiplicities of its members
(:class:`repro.vcl.prefix.PrefixFilter`): under a set measure a group of
``k`` elements weighs ``k``, not 1, so grouping never lowers an overlap and
prefix filtering on the groups cannot lose a pair.  The ablation benchmark
``bench_ablation_vcl_grouping`` reproduces that comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.hashing import stable_hash


@dataclass(frozen=True)
class SuperElementGrouping:
    """Hash-based grouping of alphabet elements into super-elements.

    ``num_groups`` is the size of the super-element alphabet; one element per
    group (i.e. no grouping) is the configuration the VCL authors ended up
    recommending.
    """

    num_groups: int

    def __post_init__(self) -> None:
        if self.num_groups < 1:
            raise ValueError("num_groups must be at least 1")

    def group_of(self, element: object) -> int:
        """The super-element identifier of an alphabet element."""
        return stable_hash(element, salt="vcl-grouping") % self.num_groups
