"""Exact round-trip encoding of identifiers and elements for storage.

Multiset identifiers and alphabet elements are arbitrary *hashables*
throughout the package (IP strings, cookie strings, integer ids, tuples of
either).  SQLite columns are not — so the storage tier stores every
identifier and element through one tagged text encoding that round-trips
**exactly**:

* ``None``, ``bool``, ``int`` (arbitrary precision), ``float`` (via
  ``repr``, which round-trips IEEE doubles bit for bit, including
  ``inf``/``nan``), ``str`` and ``bytes``;
* ``tuple`` and ``frozenset`` of the above, recursively (frozensets are
  serialised in a deterministic order so equal values encode equally).

Anything else — an unhashable value could never be an identifier, and an
arbitrary object could not be restored faithfully — raises
:class:`~repro.core.exceptions.StorageError` at *save* time, which is the
moment the caller can still fix its data model.

The encoded form is a compact JSON document (``["s","ip-1"]``,
``["t",[["s","ip"],["i",3]]]``), chosen over pickle deliberately: it is
queryable with plain SQL, diffable, safe to load from an untrusted file,
and identical across Python versions.
"""

from __future__ import annotations

import json
from typing import Callable, Hashable

from repro.core.exceptions import StorageError

#: One-letter type tags of the encoded form.
_NONE, _BOOL, _INT, _FLOAT, _STR, _BYTES, _TUPLE, _FROZENSET = (
    "z", "b", "i", "f", "s", "y", "t", "F")


def _encode(value: Hashable) -> list:
    if value is None:
        return [_NONE]
    if isinstance(value, bool):  # before int: bool is an int subclass
        return [_BOOL, 1 if value else 0]
    if isinstance(value, int):
        return [_INT, str(value)]
    if isinstance(value, float):
        return [_FLOAT, repr(value)]
    if isinstance(value, str):
        return [_STR, value]
    if isinstance(value, bytes):
        return [_BYTES, value.hex()]
    if isinstance(value, tuple):
        return [_TUPLE, [_encode(item) for item in value]]
    if isinstance(value, frozenset):
        encoded = sorted((_encode(item) for item in value),
                         key=lambda item: json.dumps(item, sort_keys=True))
        return [_FROZENSET, encoded]
    raise StorageError(
        f"cannot persist a value of type {type(value).__name__}: {value!r}; "
        "storable identifiers and elements are built from None, bool, int, "
        "float, str, bytes, tuple and frozenset")


def _decode(structure: object) -> Hashable:
    """The value of a parsed encoding; ``ValueError`` when it is none."""
    if structure == [_NONE]:
        return None
    if not isinstance(structure, list) or len(structure) != 2:
        raise ValueError("not a [tag, payload] pair")
    tag, payload = structure
    entry = _PAYLOADS.get(tag) if isinstance(tag, str) else None
    if entry is None:
        raise ValueError(f"unknown tag {tag!r}")
    kind, convert = entry
    if not isinstance(payload, kind) or isinstance(payload, bool):
        raise ValueError(f"tag {tag!r} holds a {type(payload).__name__}")
    return convert(payload)


#: Tag -> (the payload's JSON type, its decoder).
_PAYLOADS = {
    _BOOL: (int, bool),
    _INT: (str, int),
    _FLOAT: (str, float),
    _STR: (str, str),
    _BYTES: (str, bytes.fromhex),
    _TUPLE: (list, lambda items: tuple(map(_decode, items))),
    _FROZENSET: (list, lambda items: frozenset(map(_decode, items))),
}


def encode_value(value: Hashable) -> str:
    """Encode an identifier or element into its stored text form."""
    return json.dumps(_encode(value), separators=(",", ":"),
                      ensure_ascii=False)


def decode_value(text: str) -> Hashable:
    """Decode a stored text form back into the exact original value.

    A text that is not a valid encoding (damaged JSON, an unknown tag, a
    payload of the wrong type or nested too deeply) is a
    :class:`~repro.core.exceptions.StorageError` naming it.
    """
    if not isinstance(text, str):
        raise StorageError(f"stored value {text!r} is not text")
    try:
        return _decode(json.loads(text))
    except (TypeError, ValueError, RecursionError) as error:
        shown = text if len(text) <= 80 else text[:77] + "..."
        raise StorageError(
            f"stored value {shown!r} is not a valid encoding: "
            f"{str(error)[:200]}") from None


def value_decoder() -> Callable[[str], Hashable]:
    """:func:`decode_value` that decodes each stored text once.

    Use one per load: an element a snapshot stores once per member and once
    per posting then decodes once, and every copy is the same object.  A
    text holding a float is decoded afresh each time: a shared NaN is
    identical to itself, so it would merge dictionary keys the saved
    structure kept apart.
    """
    decoded: dict[str, Hashable] = {}

    def decode(text: str) -> Hashable:
        try:
            return decoded[text]
        except KeyError:
            value = decode_value(text)
            if '["f"' not in text:
                decoded[text] = value
            return value

    return decode
