"""The unified query/response API of the serving subsystem.

Every query entry point — :class:`~repro.serving.index.SimilarityIndex`,
:class:`~repro.serving.node.ServingNode`,
:class:`~repro.serving.service.ReplicatedSimilarityService` and the HTTP wire
layer (:mod:`repro.server`) — speaks one request/response dataclass family:

* :class:`QueryOptions` — *what kind* of answer is wanted: a threshold scan
  (all members at least ``threshold`` similar) or a top-k ranking;
* :class:`QueryRequest` — a query multiset together with its options;
* :class:`QueryResponse` — the sorted matches, echoing the options they
  answer.

The JSON renderings (``to_json_dict`` / ``from_json_dict``) *are* the wire
codec: what the HTTP server transports is exactly what the Python API
round-trips, so a response received over the wire compares equal to the
response a direct in-process call returns.  Wire payloads restrict
identifiers and elements to JSON scalars (``str``, ``int``, ``float``,
``bool``, ``None``); richer hashables remain usable in process, they just
cannot travel.

``query(QueryRequest)`` / ``batch([QueryRequest, ...])`` is the only query
form: the per-kind keyword signatures each layer once grew were deprecated
in 1.6 and removed in 2.0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.core.exceptions import ServingError
from repro.core.multiset import Multiset, MultisetId
from repro.similarity.base import validate_threshold

#: The two query kinds of the serving API.
THRESHOLD_KIND = "threshold"
TOPK_KIND = "topk"

#: Scalar types that survive the JSON wire codec exactly.
_WIRE_SCALARS = (str, int, float, bool, type(None))


@dataclass(frozen=True)
class QueryMatch:
    """One query answer: an indexed multiset and its similarity to the query."""

    multiset_id: MultisetId
    similarity: float


def sort_matches(matches: Iterable[QueryMatch]) -> list[QueryMatch]:
    """Sort matches by descending similarity, identifiers breaking ties.

    Every query path (single index, cached node, sharded fan-out merge and
    cache warm-up) sorts through this one function so results are
    deterministic and mutually consistent.
    """
    materialised = list(matches)
    try:
        return sorted(materialised,
                      key=lambda match: (-match.similarity, match.multiset_id))
    except TypeError:
        # Mixed identifier types are not mutually comparable; fall back to
        # their representation, as the batch record types do.
        return sorted(materialised,
                      key=lambda match: (-match.similarity, repr(match.multiset_id)))


@dataclass(frozen=True)
class QueryOptions:
    """What kind of answer a query wants.

    Exactly one of ``threshold`` (for ``kind="threshold"``) and ``k`` (for
    ``kind="topk"``) is set; the constructors :meth:`for_threshold` and
    :meth:`for_topk` are the convenient spellings.  Instances are frozen
    and hashable — the serving result cache keys on them directly.
    """

    kind: str = THRESHOLD_KIND
    threshold: float | None = None
    k: int | None = None

    def __post_init__(self) -> None:
        if self.kind == THRESHOLD_KIND:
            if self.threshold is None:
                raise ServingError(
                    "threshold queries need threshold=; got None")
            if self.k is not None:
                raise ServingError(
                    "threshold queries do not take k= "
                    f"(got k={self.k!r}); use kind='topk' for rankings")
            try:
                object.__setattr__(self, "threshold",
                                   float(validate_threshold(self.threshold)))
            except (TypeError, ValueError) as error:
                raise ServingError(str(error)) from None
        elif self.kind == TOPK_KIND:
            if self.k is None:
                raise ServingError("top-k queries need k=; got None")
            if self.threshold is not None:
                raise ServingError(
                    "top-k queries do not take threshold= "
                    f"(got threshold={self.threshold!r})")
            if not isinstance(self.k, int) or isinstance(self.k, bool) \
                    or self.k < 1:
                raise ServingError(
                    f"top-k queries need an int k >= 1, got {self.k!r}")
        else:
            raise ServingError(
                f"unknown query kind {self.kind!r}; expected "
                f"{THRESHOLD_KIND!r} or {TOPK_KIND!r}")

    @classmethod
    def for_threshold(cls, threshold: float) -> "QueryOptions":
        """Options of a threshold scan at ``threshold``."""
        return cls(kind=THRESHOLD_KIND, threshold=threshold)

    @classmethod
    def for_topk(cls, k: int) -> "QueryOptions":
        """Options of a top-``k`` ranking."""
        return cls(kind=TOPK_KIND, k=k)

    def to_json_dict(self) -> dict:
        """The wire rendering of these options."""
        if self.kind == THRESHOLD_KIND:
            return {"kind": self.kind, "threshold": self.threshold}
        return {"kind": self.kind, "k": self.k}

    @classmethod
    def from_json_dict(cls, payload: object) -> "QueryOptions":
        """Parse a wire rendering; raises :class:`ServingError` when invalid."""
        if not isinstance(payload, dict):
            raise ServingError(
                f"query options must be a JSON object, got "
                f"{type(payload).__name__}")
        unknown = set(payload) - {"kind", "threshold", "k"}
        if unknown:
            raise ServingError(
                f"unknown query-option field(s): {sorted(unknown)}")
        return cls(kind=payload.get("kind", THRESHOLD_KIND),
                   threshold=payload.get("threshold"),
                   k=payload.get("k"))


@dataclass(frozen=True)
class QueryRequest:
    """One similarity query: the query multiset plus its options."""

    query: Multiset
    options: QueryOptions

    def __post_init__(self) -> None:
        if not isinstance(self.query, Multiset):
            raise ServingError(
                f"QueryRequest.query must be a Multiset, got "
                f"{type(self.query).__name__}")
        if not isinstance(self.options, QueryOptions):
            raise ServingError(
                f"QueryRequest.options must be QueryOptions, got "
                f"{type(self.options).__name__}")

    @classmethod
    def threshold(cls, query: Multiset, threshold: float) -> "QueryRequest":
        """A threshold scan for ``query`` at ``threshold``."""
        return cls(query, QueryOptions.for_threshold(threshold))

    @classmethod
    def topk(cls, query: Multiset, k: int) -> "QueryRequest":
        """A top-``k`` ranking for ``query``."""
        return cls(query, QueryOptions.for_topk(k))

    def to_json_dict(self) -> dict:
        """The wire rendering of this request."""
        return {"query": multiset_to_wire(self.query),
                "options": self.options.to_json_dict()}

    @classmethod
    def from_json_dict(cls, payload: object) -> "QueryRequest":
        """Parse a wire rendering; raises :class:`ServingError` when invalid."""
        if not isinstance(payload, dict):
            raise ServingError(
                f"a query request must be a JSON object, got "
                f"{type(payload).__name__}")
        if "query" not in payload:
            raise ServingError("query request is missing the 'query' field")
        if "options" not in payload:
            raise ServingError("query request is missing the 'options' field")
        return cls(multiset_from_wire(payload["query"]),
                   QueryOptions.from_json_dict(payload["options"]))


@dataclass(frozen=True)
class QueryResponse:
    """The answer to one :class:`QueryRequest`: sorted matches + options.

    Behaves as a sequence of :class:`~repro.serving.index.QueryMatch`
    (iteration, indexing, ``len``).  Two responses are equal exactly when
    their matches and options are equal — the property the wire-parity
    tests assert between HTTP and direct in-process calls.
    """

    matches: tuple[QueryMatch, ...]
    options: QueryOptions
    # Normalised in __post_init__ so callers can pass any iterable.
    def __post_init__(self) -> None:
        object.__setattr__(self, "matches", tuple(self.matches))

    def __iter__(self) -> Iterator[QueryMatch]:
        return iter(self.matches)

    def __len__(self) -> int:
        return len(self.matches)

    def __getitem__(self, position):
        return self.matches[position]

    def ids(self) -> list:
        """The matched identifiers, best first."""
        return [match.multiset_id for match in self.matches]

    def to_json_dict(self) -> dict:
        """The wire rendering of this response."""
        return {"matches": [{"id": _wire_scalar(match.multiset_id,
                                                "match identifier"),
                             "similarity": float(match.similarity)}
                            for match in self.matches],
                "options": self.options.to_json_dict()}

    @classmethod
    def from_json_dict(cls, payload: object) -> "QueryResponse":
        """Parse a wire rendering; raises :class:`ServingError` when invalid."""
        if not isinstance(payload, dict) or "matches" not in payload \
                or "options" not in payload:
            raise ServingError(
                "a query response must be a JSON object with 'matches' "
                "and 'options' fields")
        matches = payload["matches"]
        if not isinstance(matches, list):
            raise ServingError("response 'matches' must be a JSON array")
        parsed = []
        for entry in matches:
            if not isinstance(entry, dict) or "id" not in entry \
                    or "similarity" not in entry:
                raise ServingError(
                    f"malformed match entry: {entry!r}")
            parsed.append(QueryMatch(_wire_scalar(entry["id"],
                                                  "match identifier"),
                                     float(entry["similarity"])))
        return cls(tuple(parsed), QueryOptions.from_json_dict(payload["options"]))


def finalize_matches(matches: Iterable[QueryMatch],
                     options: QueryOptions) -> tuple[QueryMatch, ...]:
    """Sort (and for top-k, truncate) merged matches per the options.

    The one merge rule every fan-out path shares: threshold answers are the
    sorted concatenation of the per-shard answers (shards are disjoint),
    top-k answers keep the global best ``k`` of the per-shard top-k union.
    """
    ordered = sort_matches(matches)
    if options.kind == TOPK_KIND:
        return tuple(ordered[:options.k])
    return tuple(ordered)


# -- wire codec of multisets ---------------------------------------------------


def _wire_scalar(value: object, what: str) -> object:
    """Validate that ``value`` survives JSON exactly; returns it unchanged."""
    if isinstance(value, _WIRE_SCALARS):
        return value
    raise ServingError(
        f"{what} {value!r} is not JSON-representable; the wire layer "
        "carries str/int/float/bool/None only")


def multiset_to_wire(multiset: Multiset) -> dict:
    """Render a multiset as a JSON-safe object.

    The element list preserves insertion order; multiplicities are the
    positive ints the :class:`~repro.core.multiset.Multiset` invariants
    guarantee, so the rendering round-trips exactly through
    :func:`multiset_from_wire`.
    """
    if not isinstance(multiset, Multiset):
        raise ServingError(
            f"expected a Multiset, got {type(multiset).__name__}")
    return {"id": _wire_scalar(multiset.id, "multiset identifier"),
            "elements": [[_wire_scalar(element, "multiset element"),
                          multiplicity]
                         for element, multiplicity in multiset.items()]}


def multiset_from_wire(payload: object) -> Multiset:
    """Parse a :func:`multiset_to_wire` rendering back into a multiset."""
    if not isinstance(payload, dict) or "id" not in payload \
            or "elements" not in payload:
        raise ServingError(
            "a wire multiset must be a JSON object with 'id' and "
            "'elements' fields")
    elements = payload["elements"]
    if not isinstance(elements, list):
        raise ServingError("wire multiset 'elements' must be a JSON array")
    pairs = []
    for entry in elements:
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise ServingError(
                f"each wire element must be an [element, multiplicity] "
                f"pair, got {entry!r}")
        element, multiplicity = entry
        pairs.append((_wire_scalar(element, "multiset element"),
                      multiplicity))
    # Multiset's own validation covers multiplicities and duplicates.
    return Multiset(_wire_scalar(payload["id"], "multiset identifier"),
                    pairs)


def requests_from_batch_payload(payload: object) -> list[QueryRequest]:
    """Parse the wire rendering of a batch: ``{"requests": [...]}``."""
    if not isinstance(payload, dict) or "requests" not in payload:
        raise ServingError(
            "a batch payload must be a JSON object with a 'requests' array")
    entries = payload["requests"]
    if not isinstance(entries, list):
        raise ServingError("batch 'requests' must be a JSON array")
    return [QueryRequest.from_json_dict(entry) for entry in entries]
