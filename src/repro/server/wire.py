"""HTTP/1.1 message framing, as both ends of the serving tier accept it.

One incremental parser, :class:`MessageBuffer`, serves the server (requests
out of ``data_received``) and the client (responses out of ``recv``), so
the two cannot disagree about where a message ends.  Framing this tier does
not implement is refused, never guessed at: a head over 64 KiB or 100
header lines, a header line without a colon, a ``Content-Length`` that is
not bounded ASCII decimal or that appears twice, and any
``Transfer-Encoding`` each raise :class:`FramingError`.
"""

from __future__ import annotations

import re

from repro.core.exceptions import ServerError

#: Largest accepted message head (start line + headers), in bytes.
MAX_HEAD_BYTES = 64 * 1024
#: Most header lines accepted in one head.
MAX_HEADERS = 100
#: ``str.isdigit`` also passes "²", and ``int`` refuses 5 000 digits with a
#: bare ``ValueError``: only bounded ASCII decimal is a length.
_CONTENT_LENGTH = re.compile(r"[0-9]{1,18}")


class FramingError(ServerError):
    """The peer's bytes are not the HTTP/1.1 framing this tier accepts."""


def keep_alive(version: str, connection: str) -> bool:
    """Whether the connection outlives a message of ``version`` carrying
    this (lower-cased) ``Connection`` header value."""
    return connection != "close" and (version != "HTTP/1.0"
                                      or connection == "keep-alive")


class MessageBuffer:
    """Bytes in, whole messages out: head, then body by ``Content-Length``."""

    def __init__(self, *, max_body_bytes: int | None = None,
                 length_required: bool = False) -> None:
        self.max_body_bytes = max_body_bytes
        self.length_required = length_required
        self.pending = bytearray()
        self._searched = 0
        #: Start line, ``Connection`` value and body bounds of the message
        #: whose body is still arriving.
        self._head: tuple[str, str, int, int] | None = None

    def feed(self, data: bytes) -> None:
        self.pending += data

    def take(self) -> tuple[str, str, bytes] | None:
        """The next whole message as ``(start line, Connection value,
        body)``, or ``None`` until more bytes arrive."""
        pending = self.pending
        if self._head is None:
            head_end = pending.find(b"\r\n\r\n", self._searched)
            if head_end < 0:
                if len(pending) > MAX_HEAD_BYTES:
                    raise FramingError("message head exceeds 64 KiB")
                self._searched = max(0, len(pending) - 3)
                return None
            if head_end > MAX_HEAD_BYTES:
                raise FramingError("message head exceeds 64 KiB")
            self._head = self._parse_head(
                pending[:head_end].decode("latin-1"), head_end + 4)
            self._searched = 0
        start_line, connection, body_start, body_end = self._head
        if len(pending) < body_end:
            return None
        body = bytes(pending[body_start:body_end])
        del pending[:body_end]
        self._head = None
        return start_line, connection, body

    def _parse_head(self, head: str, body_start: int):
        start_line, *header_lines = head.split("\r\n")
        if len(header_lines) > MAX_HEADERS:
            raise FramingError(f"more than {MAX_HEADERS} header lines")
        length = None
        connection = ""
        for line in header_lines:
            name, colon, value = line.partition(":")
            if not colon:
                raise FramingError(f"malformed header line: {line[:80]!r}")
            name, value = name.strip().lower(), value.strip()
            if name == "content-length":
                if length is not None or not _CONTENT_LENGTH.fullmatch(value):
                    raise FramingError(
                        f"invalid or repeated Content-Length: {value[:40]!r}")
                length = int(value)
            elif name == "transfer-encoding":
                raise FramingError("Transfer-Encoding is not supported; "
                                   "frame the body with Content-Length")
            elif name == "connection":
                connection = value.lower()
        if length is None:
            if self.length_required:
                raise FramingError("message carries no Content-Length")
            length = 0
        if self.max_body_bytes is not None and length > self.max_body_bytes:
            raise FramingError("message body exceeds the size limit")
        return start_line, connection, body_start, body_start + length
