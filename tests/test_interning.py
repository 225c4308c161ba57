"""Tests for the interning layer, the array kernels and candidate pruning.

The contract under test mirrors the backend contract: interning, packed
pair keys and upper-bound pruning change *how* the hot paths represent and
skip work, never *what* they compute — pair sets and similarity values must
match the dict-kernel reference (``all_pairs_exact``) on every measure and
every backend.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import operator
import pickle
import pkgutil

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import repro
from repro.core.interning import (
    ElementDictionary,
    _sort_key,
    InterningContext,
    InterningError,
    PairCodec,
    intern_corpus,
    sort_mixed,
)
from repro.core.multiset import Multiset
from repro.core.records import (
    InputTuple,
    JoinedTuple,
    PairContribution,
    PostingEntry,
    SimilarPair,
    explode_multisets,
)
from repro.mapreduce.cluster import laptop_cluster
from repro.similarity.exact import all_pairs_exact
from repro.similarity.kernels import (
    CONJ_GENERIC,
    conj_kernel_kind,
    interned_conjunctive,
    interned_similarity,
    interned_unilateral,
    scalar_conj_functions,
    uni_kernel_kind,
)
from repro.similarity.partials import fold_uni_multiplicities
from repro.similarity.registry import get_measure, list_measures
from repro.engine.engine import join
from repro.vsmart.driver import JOINING_ALGORITHMS
from tests.conftest import (
    assert_matches_oracle,
    join_grid,
    make_random_multisets,
)


class TestOneRepresentation:
    """The interned form is the only one: no switch selects another."""

    def test_no_intern_switch_and_no_optional_pair_codec(self):
        """No signature or dataclass field in ``repro`` is named ``intern``
        (bar the dict-kernel oracle's), and ``pair_codec`` is never optional."""
        oracle = "repro.similarity.exact.all_pairs_exact"
        offenders = []
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            module = importlib.import_module(info.name)
            owned = [member for member in vars(module).values()
                     if getattr(member, "__module__", None) == info.name]
            functions = [m for m in owned if inspect.isfunction(m)]
            for cls in filter(inspect.isclass, owned):
                methods = (getattr(m, "__func__", m)  # class/static methods
                           for m in vars(cls).values())
                functions += [m for m in methods if inspect.isfunction(m)]
                if dataclasses.is_dataclass(cls) and any(
                        field.name == "intern"
                        for field in dataclasses.fields(cls)):
                    offenders.append(f"{info.name}.{cls.__qualname__}.intern")
            for function in functions:
                where = f"{info.name}.{function.__qualname__}"
                parameters = inspect.signature(function).parameters
                if "intern" in parameters and where != oracle:
                    offenders.append(f"{where}(intern=)")
                codec = parameters.get("pair_codec")
                if codec is not None and codec.default is not codec.empty:
                    offenders.append(f"{where}(pair_codec={codec.default!r})")
        assert offenders == []


#: Two NaNs: distinct dictionary keys with one ``repr``, so their order is
#: the tie-break's alone.
NAN_A = float("nan")
NAN_B = float("nan")
#: Alphabet elements of four types, and the two NaNs.
MIXED_ELEMENTS = st.one_of(
    st.text(max_size=2), st.integers(-3, 3),
    st.tuples(st.integers(0, 2)), st.floats(-2, 2, width=16),
    st.sampled_from([NAN_A, NAN_B]))


class TestElementDictionary:
    def test_document_frequency_order(self):
        multisets = [Multiset("a", {"rare": 1, "common": 1}),
                     Multiset("b", {"common": 2}),
                     Multiset("c", {"common": 1, "mid": 1}),
                     Multiset("d", {"mid": 3})]
        dictionary = ElementDictionary.from_multisets(multisets)
        # rare (df 1) < mid (df 2) < common (df 3)
        assert dictionary.id_of("rare") < dictionary.id_of("mid")
        assert dictionary.id_of("mid") < dictionary.id_of("common")
        assert dictionary.frequency_of("common") == 3
        assert list(dictionary)[dictionary.id_of("rare")] == "rare"

    def test_tie_break_is_deterministic(self):
        frequencies = {"b": 2, "a": 2, "c": 2}
        first = ElementDictionary.from_document_frequencies(frequencies)
        second = ElementDictionary.from_document_frequencies(
            dict(reversed(list(frequencies.items()))))
        assert list(first) == list(second) == ["a", "b", "c"]

    def test_from_input_tuples_counts_incidences_once(self):
        records = [InputTuple("m1", "x", 1), InputTuple("m1", "x", 2),
                   InputTuple("m2", "x", 1), InputTuple("m1", "y", 1)]
        dictionary = ElementDictionary.from_input_tuples(records)
        assert dictionary.frequency_of("x") == 2
        assert dictionary.frequency_of("y") == 1

    def test_unknown_element_raises(self):
        dictionary = ElementDictionary.from_document_frequencies({"x": 1})
        with pytest.raises(InterningError):
            dictionary.id_of("missing")
        assert dictionary.get("missing") is None

    def test_intern_multiset_with_unknown_element_raises_interning_error(self):
        dictionary = ElementDictionary.from_document_frequencies({"x": 1})
        with pytest.raises(InterningError, match="never-seen"):
            dictionary.intern_multiset(Multiset("q", {"x": 1, "never-seen": 2}))

    def test_intern_multiset_is_sorted_and_parallel(self):
        dictionary = ElementDictionary.from_document_frequencies(
            {"x": 3, "y": 1, "z": 2})
        interned = dictionary.intern_multiset(Multiset("m", {"x": 4, "y": 1, "z": 2}))
        assert list(interned.element_ids) == sorted(interned.element_ids)
        elements = list(dictionary)
        restored = {elements[element_id]: multiplicity
                    for element_id, multiplicity in interned.items()}
        assert restored == {"x": 4.0, "y": 1.0, "z": 2.0}
        assert interned.cardinality == 7.0
        assert interned.underlying_cardinality == 3

    @given(st.one_of(st.lists(st.lists(st.text(max_size=3), max_size=6),
                              max_size=8),
                     st.lists(st.lists(MIXED_ELEMENTS, max_size=6), max_size=8)))
    @settings(max_examples=150, deadline=None)
    @example([[NAN_A, 1, "1", (1,), 1.5], [NAN_B, NAN_A, 1.5], [NAN_B]])
    @example([[NAN_A, NAN_B], [NAN_B, NAN_A], ["b", "a"], ["a", "b"]])
    def test_ids_follow_frequency_then_sort_key(self, element_lists):
        """The two-pass sort gives ``sorted``'s ``(df, _sort_key)`` order,
        ties (equal ``repr``, e.g. two distinct NaNs) in first appearance.

        A scratch copy that sorts by ``repr`` on mixed alphabets too, or
        drops either pass, fails here; so does one that sorts once by
        frequency with ties in first appearance."""
        multisets = [Multiset(f"m{index}", dict.fromkeys(elements, 1))
                     for index, elements in enumerate(element_lists)]
        frequencies: dict = {}
        for multiset in multisets:
            for element in multiset:
                frequencies[element] = frequencies.get(element, 0) + 1
        expected = sorted(frequencies,
                          key=lambda element: (frequencies[element],
                                               _sort_key(element)))
        ordered = list(ElementDictionary.from_multisets(multisets))
        assert len(ordered) == len(expected)
        assert all(map(operator.is_, ordered, expected)), (ordered, expected)

    def test_sort_mixed_handles_incomparable_ids(self):
        mixed = sort_mixed({1, "a", (2, 3)})
        assert sort_mixed(reversed(mixed)) == mixed


class TestPairCodec:
    @pytest.mark.parametrize("num_ids", [1, 2, 3, 1000, 1 << 20])
    def test_roundtrip(self, num_ids):
        codec = PairCodec(num_ids)
        for first, second in [(0, num_ids - 1), (num_ids - 1, 0),
                              (num_ids // 2, num_ids // 3)]:
            assert codec.unpack(codec.pack(first, second)) == (first, second)

    def test_packed_keys_are_distinct(self):
        codec = PairCodec(50)
        packed = {codec.pack(i, j) for i in range(50) for j in range(50)}
        assert len(packed) == 2500

    def test_empty_corpus(self):
        codec = PairCodec(0)
        assert codec.unpack(codec.pack(0, 0)) == (0, 0)


class TestInterningContext:
    def test_roundtrip_records_and_pairs(self, overlapping_multisets):
        records = explode_multisets(overlapping_multisets)
        context = InterningContext.from_input_tuples(records)
        interned = context.intern_records(records)
        assert len(interned) == len(records)
        assert all(isinstance(record.multiset_id, int)
                   and isinstance(record.element, int) for record in interned)
        # Dense ids ascend in canonical order of the original identifiers.
        assert list(context.multiset_ids) == sorted(context.multiset_ids)
        pairs = [SimilarPair(0, 1, 1.0)]
        (restored,) = context.restore_pairs(pairs)
        assert restored == SimilarPair("a", "b", 1.0)

    def test_duplicate_multiplicities_preserved(self):
        records = [InputTuple("m", "x", 2), InputTuple("m", "x", 3)]
        context = InterningContext.from_input_tuples(records)
        interned = context.intern_records(records)
        assert [record.multiplicity for record in interned] == [2, 3]


    @given(st.lists(st.dictionaries(st.sampled_from("abcdefg"),
                                    st.integers(1, 5), max_size=5),
                    max_size=8))
    def test_multisets_intern_into_the_exploded_tuples_columns(self, counts):
        """The driver's pass — multisets straight into columns — is the
        exploded tuples' pass, row for row (empty multisets have no row)."""
        multisets = [Multiset(f"m{index}", elements)
                     for index, elements in enumerate(counts)]
        records = explode_multisets(multisets)
        expected = InterningContext.from_input_tuples(records)
        context = InterningContext.from_multisets(multisets)
        assert list(context.elements) == list(expected.elements)
        assert context.multiset_ids == expected.multiset_ids
        assert context.codec.shift == expected.codec.shift
        columns = context.intern_multisets(multisets)
        assert list(columns) == expected.intern_records(records)


class DoubledUni(type(get_measure("ruzicka"))):
    """Ruzicka with every ``Uni`` contribution doubled, nothing re-declared."""

    name = "doubled_uni_ruzicka"

    def uni_from_multiplicity(self, multiplicity):
        return (2.0 * multiplicity,)


class HalvedConj(type(get_measure("ruzicka"))):
    """Ruzicka with every ``Conj`` contribution halved, nothing re-declared."""

    name = "halved_conj_ruzicka"

    def conj_from_pair(self, multiplicity_i, multiplicity_j):
        return (0.5 * min(multiplicity_i, multiplicity_j),)


class SetDeclared(type(get_measure("jaccard"))):
    """A set measure re-stating its inherited methods: it keeps its kernels."""

    name = "set_declared_jaccard"
    conj_kernel = "sum_min"
    uni_kernel = "sum"

    def uni_from_multiplicity(self, multiplicity):
        return (multiplicity,)


class TestDeclarationsFollowOverrides:
    """A kernel declaration is not inherited past an override of a method it
    stands for: every kernel reader then calls the measure's own hooks."""

    def test_kinds(self):
        assert uni_kernel_kind(DoubledUni()) == "generic"
        assert conj_kernel_kind(DoubledUni()) == "sum_min"
        assert uni_kernel_kind(HalvedConj()) == "sum"
        assert conj_kernel_kind(HalvedConj()) == "generic"
        assert uni_kernel_kind(SetDeclared()) == "sum"
        assert uni_kernel_kind(object()) == conj_kernel_kind(object()) == "generic"

    @pytest.mark.parametrize("measure", [DoubledUni(), HalvedConj()],
                             ids=lambda measure: measure.name)
    @pytest.mark.parametrize("algorithm", ["exact", "vcl", *JOINING_ALGORITHMS,
                                           "inverted_index"])
    def test_every_algorithm_finds_the_oracles_pairs(self, measure, algorithm):
        """The reported repro: the array kernels folded the inherited
        declaration, so ``exact`` and ``vcl`` (and, for ``Conj``, the
        V-SMART pipelines) found 168 pairs where there are 70."""
        multisets = make_random_multisets(30, alphabet_size=15,
                                          max_elements=8, seed=3)
        pairs = join(multisets, measure=measure, threshold=0.1,
                     algorithm=algorithm).pairs
        assert len(pairs) == 70
        assert_matches_oracle(pairs, multisets, measure, 0.1)

    @settings(max_examples=25, deadline=None)
    @given(cell=join_grid(measures=[DoubledUni(), HalvedConj(), SetDeclared()],
                          algorithms=("exact", "vcl", *JOINING_ALGORITHMS,
                                      "inverted_index"),
                          backends=("serial",)))
    def test_overriding_subclasses_agree_everywhere(self, cell):
        corpus = cell.corpus()
        result = join(corpus, measure=cell.measure, threshold=cell.threshold,
                      algorithm=cell.algorithm, sharding_threshold=4)
        assert_matches_oracle(result.pairs, corpus, cell.measure,
                              cell.threshold)


class TestKernelsMatchReference:
    """Every kernel reproduces the measure's own dict-based path exactly."""

    def corpus(self, seed=3):
        return make_random_multisets(14, alphabet_size=20, max_elements=12,
                                     seed=seed)

    @pytest.mark.parametrize("measure_name", list_measures(supported_only=True))
    def test_conjunctive_and_unilateral(self, measure_name):
        measure = get_measure(measure_name)
        multisets = self.corpus()
        _dictionary, interned = intern_corpus(multisets)
        for original, entity in zip(multisets, interned):
            assert interned_unilateral(measure, entity) == measure.unilateral(original)
        for i in range(len(multisets)):
            for j in range(i + 1, len(multisets)):
                assert (interned_conjunctive(measure, interned[i], interned[j])
                        == measure.conjunctive(multisets[i], multisets[j]))
                assert (interned_similarity(measure, interned[i], interned[j])
                        == measure.similarity(multisets[i], multisets[j]))

    @pytest.mark.parametrize("measure_name", ["ruzicka", "jaccard", "vector_cosine"])
    def test_large_operands_match_reference(self, measure_name):
        """The kernels walk the smaller operand and probe the larger."""
        measure = get_measure(measure_name)
        size = 192
        first = Multiset("big1", {f"e{k}": k % 5 + 1 for k in range(size)})
        second = Multiset("big2", {f"e{k}": k % 3 + 1 for k in range(size // 2, 2 * size)})
        _dictionary, (entity_i, entity_j) = intern_corpus([first, second])
        assert (interned_conjunctive(measure, entity_i, entity_j)
                == measure.conjunctive(first, second))

    def test_generic_fallback_for_undeclared_measures(self):
        measure = get_measure("ruzicka")

        class Undeclared(type(measure)):
            name = "undeclared_test_measure"
            conj_kernel = CONJ_GENERIC
            uni_kernel = "generic"

        undeclared = Undeclared()
        multisets = self.corpus(seed=5)
        _dictionary, interned = intern_corpus(multisets)
        for i in range(0, len(multisets) - 1, 2):
            assert (interned_conjunctive(undeclared, interned[i], interned[i + 1])
                    == undeclared.conjunctive(multisets[i], multisets[i + 1]))

    def test_scalar_conj_functions(self):
        seed, accumulate = scalar_conj_functions(get_measure("ruzicka"))
        assert accumulate(seed(2.0, 3.0), 5.0, 1.0) == 3.0
        seed, accumulate = scalar_conj_functions(get_measure("vector_cosine"))
        assert accumulate(seed(2.0, 3.0), 5.0, 2.0) == 16.0
        assert scalar_conj_functions(object()) is None

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(1, 2 ** 20 - 1), max_size=200))
    @example([1, 4, 2, 3])
    @example([2 ** 20 - 1] * 200)  # sum of squares < 2**48: still exact
    def test_fold_uni_multiplicities(self, multiplicities):
        """The serving tier's fold (stored and query side) is the oracle's,
        tuple for tuple, on every supported measure."""
        multiset = Multiset("m", {f"x{position}": multiplicity for position,
                                  multiplicity in enumerate(multiplicities)})
        for name in list_measures(supported_only=True):
            measure = get_measure(name)
            assert (fold_uni_multiplicities(measure, multiset.values())
                    == measure.unilateral(multiset))

    def test_all_pairs_exact_intern_flag(self):
        multisets = self.corpus(seed=9)
        for name in list_measures(supported_only=True) + ["direct_ruzicka"]:
            assert (all_pairs_exact(multisets, name, 0.25, intern=True)
                    == all_pairs_exact(multisets, name, 0.25))


class TestSlottedRecords:
    """Satellite: the hot record dataclasses are slotted yet still pickle."""

    RECORDS = [
        InputTuple("m1", "x", 2.0),
        JoinedTuple("m1", (3.0,), "x", 2.0),
        PostingEntry("m1", (3.0,), 2.0),
        PairContribution(1.0, 2.0),
        SimilarPair("a", "b", 0.75),
    ]

    @pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
    def test_no_instance_dict(self, record):
        assert not hasattr(record, "__dict__")
        with pytest.raises(AttributeError):
            object.__setattr__(record, "not_a_field", 1)

    @pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
    def test_pickle_roundtrip(self, record):
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            clone = pickle.loads(pickle.dumps(record, protocol))
            assert clone == record
            assert hash(clone) == hash(record)


class TestPipelineEquivalence:
    """Interned + pruned pipelines emit exactly the reference pair set."""

    def run_pairs(self, multisets, *, prune, algorithm="online_aggregation",
                  threshold=0.5, backend="serial", measure="ruzicka",
                  **spec_fields):
        return join(multisets, algorithm=algorithm, measure=measure,
                    threshold=threshold, sharding_threshold=4,
                    prune_candidates=prune, backend=backend,
                    cluster=laptop_cluster(num_machines=3), **spec_fields)

    @pytest.mark.parametrize("algorithm", JOINING_ALGORITHMS)
    def test_intern_and_prune_bit_identical_pairs(self, small_multisets, algorithm):
        unpruned = self.run_pairs(small_multisets, prune=False,
                                  algorithm=algorithm, threshold=0.3)
        pruned = self.run_pairs(small_multisets, prune=True,
                                algorithm=algorithm, threshold=0.3)
        assert pruned.pairs == unpruned.pairs
        assert_matches_oracle(pruned.pairs, small_multisets, "ruzicka", 0.3)

    def test_pruning_drops_candidates_at_high_threshold(self, small_multisets):
        unpruned = self.run_pairs(small_multisets, prune=False, threshold=0.7)
        pruned = self.run_pairs(small_multisets, prune=True, threshold=0.7)
        assert pruned.pairs == unpruned.pairs
        assert (pruned.counters()["similarity1/candidate_records"]
                < unpruned.counters()["similarity1/candidate_records"])
        assert pruned.counters()["similarity1/candidates_pruned"] > 0

    def test_chunked_pipeline_prunes_identically(self, small_multisets):
        plain = self.run_pairs(small_multisets, prune=True, threshold=0.6)
        chunked = self.run_pairs(small_multisets, prune=True, threshold=0.6,
                                 chunk_size=3)
        assert chunked.pairs == plain.pairs
        assert chunked.counters().get("similarity1/chunked_elements", 0) > 0

    def test_mixed_identifier_types_survive_interning(self):
        multisets = [Multiset(1, {"x": 2, "y": 1}),
                     Multiset("one", {"x": 2, "y": 1}),
                     Multiset((2, "t"), {"x": 1, "z": 3})]
        result = self.run_pairs(multisets, prune=True, threshold=0.4)
        expected = all_pairs_exact(multisets, "ruzicka", 0.4)
        assert {p.pair for p in result.pairs} == {p.pair for p in expected}

    def test_vcl_interned_kernel_matches(self, small_multisets):
        interned = join(small_multisets, threshold=0.3, algorithm="vcl").pairs
        assert interned == all_pairs_exact(small_multisets, "ruzicka", 0.3)

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(cell=join_grid(algorithms=JOINING_ALGORITHMS,
                          thresholds=(0.25, 0.5, 0.75)))
    def test_property_interned_pruned_pipeline_matches_exact(self, cell):
        multisets = cell.corpus(count=9, alphabet_size=12, max_elements=6)
        result = self.run_pairs(multisets, prune=True,
                                algorithm=cell.algorithm, backend=cell.backend,
                                threshold=cell.threshold, measure=cell.measure)
        assert_matches_oracle(result.pairs, multisets, cell.measure,
                              cell.threshold)
