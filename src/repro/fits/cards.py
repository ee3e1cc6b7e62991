"""FITS header cards.

A FITS header is a sequence of 80-character ASCII *cards* packed into
2880-byte blocks.  This module implements the subset of the standard the
repository needs: logical/integer/float/string values, comments, the END
card, and fixed-format value layout (value right-justified in columns
11-30 for non-strings, strings starting at column 12).
"""

from __future__ import annotations

from typing import Any, Iterator

CARD_LENGTH = 80
BLOCK_LENGTH = 2880
CARDS_PER_BLOCK = BLOCK_LENGTH // CARD_LENGTH


class FitsError(Exception):
    """Malformed FITS structure."""


def _format_value(value: Any) -> str:
    if isinstance(value, bool):
        return "T".rjust(20) if value else "F".rjust(20)
    if isinstance(value, int):
        return str(value).rjust(20)
    if isinstance(value, float):
        text = repr(value)
        if "e" in text or "E" in text:
            mantissa, exponent = text.split("e" if "e" in text else "E")
            if "." not in mantissa:
                mantissa += ".0"
            text = f"{mantissa}E{int(exponent)}"
        elif "." not in text:
            text += ".0"
        return text.rjust(20)
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        quoted = f"'{escaped:<8}'"  # minimum 8 chars inside quotes
        return quoted
    raise FitsError(f"cannot format header value {value!r}")


def format_card(keyword: str, value: Any = None, comment: str = "") -> str:
    """Render one 80-character card."""
    keyword = keyword.upper()
    if len(keyword) > 8:
        raise FitsError(f"keyword too long: {keyword!r}")
    if keyword in ("COMMENT", "HISTORY", ""):
        body = f"{keyword:<8}{comment}"
        return body[:CARD_LENGTH].ljust(CARD_LENGTH)
    if keyword == "END":
        return "END".ljust(CARD_LENGTH)
    if value is None:
        body = f"{keyword:<8}"
        return body[:CARD_LENGTH].ljust(CARD_LENGTH)
    formatted = _format_value(value)
    body = f"{keyword:<8}= {formatted}"
    if comment:
        body = f"{body} / {comment}"
    if len(body) > CARD_LENGTH:
        body = body[:CARD_LENGTH]
    return body.ljust(CARD_LENGTH)


def parse_card(card: str) -> tuple[str, Any, str]:
    """Parse one card into (keyword, value, comment)."""
    if len(card) != CARD_LENGTH:
        raise FitsError(f"card must be exactly 80 chars, got {len(card)}")
    keyword = card[:8].strip().upper()
    if keyword in ("COMMENT", "HISTORY", "END", ""):
        return keyword, None, card[8:].strip()
    if card[8:10] != "= ":
        return keyword, None, card[8:].strip()
    rest = card[10:]
    rest_stripped = rest.strip()
    if rest_stripped.startswith("'"):
        # Find the closing quote, honouring '' escapes.
        inside = []
        position = rest.index("'") + 1
        while position < len(rest):
            char = rest[position]
            if char == "'":
                if position + 1 < len(rest) and rest[position + 1] == "'":
                    inside.append("'")
                    position += 2
                    continue
                position += 1
                break
            inside.append(char)
            position += 1
        value: Any = "".join(inside).rstrip()
        tail = rest[position:]
    else:
        slash = rest.find("/")
        raw = rest if slash == -1 else rest[:slash]
        tail = "" if slash == -1 else rest[slash:]
        raw = raw.strip()
        if raw == "T":
            value = True
        elif raw == "F":
            value = False
        elif raw == "":
            value = None
        else:
            try:
                value = int(raw)
            except ValueError:
                try:
                    value = float(raw.replace("D", "E"))
                except ValueError as exc:
                    raise FitsError(f"cannot parse value {raw!r}") from exc
    comment = ""
    tail = tail.strip()
    if tail.startswith("/"):
        comment = tail[1:].strip()
    return keyword, value, comment


class Header:
    """An ordered FITS header with dict-style access by keyword."""

    def __init__(self) -> None:
        self._cards: list[tuple[str, Any, str]] = []

    def set(self, keyword: str, value: Any, comment: str = "") -> None:
        keyword = keyword.upper()
        for position, (existing, _value, _comment) in enumerate(self._cards):
            if existing == keyword and existing not in ("COMMENT", "HISTORY"):
                self._cards[position] = (keyword, value, comment)
                return
        self._cards.append((keyword, value, comment))

    def add_comment(self, text: str) -> None:
        self._cards.append(("COMMENT", None, text))

    def add_history(self, text: str) -> None:
        self._cards.append(("HISTORY", None, text))

    def get(self, keyword: str, default: Any = None) -> Any:
        keyword = keyword.upper()
        for existing, value, _comment in self._cards:
            if existing == keyword:
                return value
        return default

    def __getitem__(self, keyword: str) -> Any:
        sentinel = object()
        value = self.get(keyword, sentinel)
        if value is sentinel:
            raise KeyError(keyword)
        return value

    def require(self, keyword: str, kind: type) -> Any:
        """The value of a card the structure cannot be read without;
        :class:`FitsError` when it is missing or not of ``kind``."""
        value = self.get(keyword)
        if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
            raise FitsError(f"missing or malformed {keyword.upper()} card: {value!r}")
        return value

    def __contains__(self, keyword: str) -> bool:
        sentinel = object()
        return self.get(keyword, sentinel) is not sentinel

    def __iter__(self) -> Iterator[tuple[str, Any, str]]:
        return iter(self._cards)

    def __len__(self) -> int:
        return len(self._cards)

    def comments(self) -> list[str]:
        return [comment for keyword, _value, comment in self._cards if keyword == "COMMENT"]

    def history(self) -> list[str]:
        return [comment for keyword, _value, comment in self._cards if keyword == "HISTORY"]

    # -- serialization -----------------------------------------------------

    def to_bytes(self) -> bytes:
        cards = [format_card(keyword, value, comment) for keyword, value, comment in self._cards]
        cards.append(format_card("END"))
        text = "".join(cards)
        padding = (-len(text)) % BLOCK_LENGTH
        return (text + " " * padding).encode("ascii")

    @classmethod
    def from_bytes(cls, data: bytes, offset: int = 0) -> tuple["Header", int]:
        """Parse a header starting at ``offset``; returns (header, end_offset)."""
        header = cls()
        position = offset
        while True:
            if position + BLOCK_LENGTH > len(data):
                raise FitsError("truncated header: no END card")
            try:
                block = data[position:position + BLOCK_LENGTH].decode("ascii")
            except UnicodeDecodeError as exc:
                raise FitsError(f"non-ASCII byte in header block at {position}") from exc
            position += BLOCK_LENGTH
            done = False
            for card_index in range(CARDS_PER_BLOCK):
                card = block[card_index * CARD_LENGTH:(card_index + 1) * CARD_LENGTH]
                keyword, value, comment = parse_card(card)
                if keyword == "END":
                    done = True
                    break
                if keyword == "" and value is None and not comment:
                    continue
                header._cards.append((keyword, value, comment))
            if done:
                return header, position
